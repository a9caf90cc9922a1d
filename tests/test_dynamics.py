import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from holosplit.dynamics import (
    Constant,
    FramePath,
    LambdaSystem,
    Sampled,
    TimeGrid,
    _sandwich,
    _taylor_march,
    _taylor_plan,
    dimension,
    hamiltonian_path,
    propagate_frame,
)
from holosplit.instances import cosine_drive, random_frame, random_hermitian, refutation_instance
from holosplit.lambda_system import LambdaParams, case_setup
from holosplit.sections import u_matrix_path

SQRT3 = np.sqrt(3.0)


class TestTimeGrid:
    def test_uniform(self):
        g = TimeGrid.uniform(2.0, 4)
        np.testing.assert_allclose(g.times, [0.0, 0.5, 1.0, 1.5, 2.0])
        assert g.tau == 2.0 and g.steps == 4

    @pytest.mark.parametrize("times", [[0.0], [0.1, 0.2], [0.0, 0.2, 0.1]])
    def test_rejects_bad_grids(self, times):
        with pytest.raises(ValueError):
            TimeGrid(np.array(times))

    @given(st.sampled_from([np.nan, np.inf, -np.inf]), st.integers(1, 64))
    def test_uniform_rejects_non_finite_tau(self, tau, steps):
        with pytest.raises(ValueError, match="tau must be positive and finite"):
            TimeGrid.uniform(tau, steps)

    @given(st.sampled_from([np.nan, np.inf]), st.integers(1, 4))
    def test_rejects_non_finite_times(self, bad, index):
        times = np.linspace(0.0, 1.0, 5)
        times[index] = bad
        with pytest.raises(ValueError, match="non-finite"):
            TimeGrid(times)


class TestSampleHamiltonian:
    def test_lambda_structure(self):
        spec = LambdaSystem(omega0=1.0, delta=0.0, omega1=1.0, omega2=0.0)
        h = hamiltonian_path(spec, [0.7])[0]
        expected = np.zeros((3, 3), dtype=complex)
        expected[0, 2] = expected[2, 0] = 1.0
        np.testing.assert_allclose(h, expected, atol=1e-15)

    def test_lambda_annihilates_dark_state(self):
        spec = LambdaSystem(omega0=2.0, delta=-0.3, omega1=0.6, omega2=0.8j)
        h = hamiltonian_path(spec, [0.0])[0]
        np.testing.assert_allclose(h @ spec.dark_state, 0.0, atol=1e-14)

    def test_constant_zero(self):
        np.testing.assert_array_equal(hamiltonian_path(Constant(np.zeros((2, 2))), [1.0])[0],
                                      np.zeros((2, 2)))

    def test_sampled_interpolates_constant(self):
        h0 = random_hermitian(3, np.random.default_rng(0))
        grid = TimeGrid.uniform(1.0, 2)
        spec = Sampled(grid, np.stack([h0, h0, h0]))
        np.testing.assert_allclose(hamiltonian_path(spec, [0.25])[0], h0, atol=1e-15)

    def test_sampled_rejects_out_of_range(self):
        h0 = random_hermitian(2, np.random.default_rng(0))
        spec = Sampled(TimeGrid.uniform(1.0, 2), np.stack([h0, h0, h0]))
        with pytest.raises(ValueError, match="outside"):
            hamiltonian_path(spec, [1.5])

    def test_sampled_rejects_non_hermitian(self):
        bad = np.array([[[0.0, 1.0], [0.0, 0.0]]], dtype=complex)
        bad = np.repeat(bad, 3, axis=0)
        with pytest.raises(ValueError, match="Hermitian"):
            Sampled(TimeGrid.uniform(1.0, 2), bad)

    def test_lambda_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            LambdaSystem(omega0=1.0, delta=0.0, omega1=1.0, omega2=1.0)

    @given(st.sampled_from(["omega0", "delta", "omega1", "omega2"]),
           st.sampled_from([np.nan, np.inf, -np.inf, complex(0.0, np.nan)]))
    def test_lambda_rejects_non_finite_field(self, name, bad):
        fields = dict(omega0=1.0, delta=0.0, omega1=1.0, omega2=0.0)
        fields[name] = bad
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            LambdaSystem(**fields)

    @settings(deadline=None)
    @given(st.sampled_from([np.nan, np.inf, complex(np.inf, 0.0), complex(0.0, np.nan)]),
           st.integers(0, 2), st.integers(0, 1), st.integers(0, 1), st.booleans())
    def test_sampled_rejects_non_finite_samples(self, bad, t, i, j, fill_all):
        samples = np.zeros((3, 2, 2), dtype=complex)
        if fill_all:
            samples[:] = bad
        else:
            samples[t, i, j] = bad
        with pytest.raises(ValueError, match="samples contain non-finite"):
            Sampled(TimeGrid.uniform(1.0, 2), samples)


class TestPropagateFrame:
    def test_zero_hamiltonian_is_static(self):
        psi0 = np.eye(3)[:, :2].astype(complex)
        path = propagate_frame(Constant(np.zeros((3, 3))), psi0, TimeGrid.uniform(1.0, 16))
        assert np.abs(path.frames - psi0).max() == 0.0

    def test_case_i_resonant_full_flip(self):
        spec = LambdaSystem(omega0=1.0, delta=0.0)
        psi0 = np.stack([np.array([0, 0, 1]), spec.bright_state], axis=1).astype(complex)
        path = propagate_frame(spec, psi0, TimeGrid.uniform(np.pi, 4096))
        assert np.abs(path.final + psi0).max() <= 1e-8

    def test_case_i_detuned_quarter_turn(self):
        spec = LambdaSystem(omega0=SQRT3, delta=1.0)
        psi0 = np.stack([np.array([0, 0, 1]), spec.bright_state], axis=1).astype(complex)
        path = propagate_frame(spec, psi0, TimeGrid.uniform(np.pi / 2, 4096))
        assert np.abs(path.final - 1j * psi0).max() <= 1e-7

    def test_rejects_non_orthonormal_start(self):
        bad = np.ones((3, 2), dtype=complex)
        with pytest.raises(ValueError, match="orthonormal"):
            propagate_frame(Constant(np.zeros((3, 3))), bad, TimeGrid.uniform(1.0, 4))

    @given(st.sampled_from([np.nan, np.inf, complex(0.0, np.nan)]), st.integers(0, 2))
    def test_rejects_non_finite_start(self, bad, row):
        psi0 = np.eye(3)[:, :1].astype(complex)
        psi0[row, 0] = bad
        with pytest.raises(ValueError, match="psi0 contains non-finite"):
            propagate_frame(Constant(np.zeros((3, 3))), psi0, TimeGrid.uniform(1.0, 4))

    def test_rejects_dimension_mismatch(self):
        psi0 = np.eye(2).astype(complex)
        with pytest.raises(ValueError, match="dimension"):
            propagate_frame(Constant(np.zeros((3, 3))), psi0, TimeGrid.uniform(1.0, 4))

    @settings(max_examples=25, deadline=None)
    @given(st.integers(2, 6), st.data())
    def test_orthonormality_preserved(self, n, data):
        seed = data.draw(st.integers(0, 10_000))
        m = data.draw(st.integers(1, min(3, n)))
        rng = np.random.default_rng(seed)
        spec = Constant(random_hermitian(n, rng))
        psi0 = random_frame(n, m, rng)
        path = propagate_frame(spec, psi0, TimeGrid.uniform(1.5, 64))
        grams = np.einsum("tnj,tnk->tjk", path.frames.conj(), path.frames)
        assert np.linalg.norm(grams - np.eye(m), axis=(1, 2)).max() <= 1e-9

    def test_full_space_evolution_is_unitary(self):
        rng = np.random.default_rng(5)
        n = 4
        grid = TimeGrid.uniform(2.0, 256)
        spec = cosine_drive(random_hermitian(n, rng), random_hermitian(n, rng), grid)
        path = propagate_frame(spec, np.eye(n, dtype=complex), grid)
        u = u_matrix_path(path)
        res = np.linalg.norm(np.einsum("tij,tik->tjk", u.conj(), u) - np.eye(n), axis=(1, 2))
        assert res.max() <= 1e-9

    def test_second_order_convergence(self):
        tau = 2.0

        def endpoint(h0, h1, psi0, steps):
            grid = TimeGrid.uniform(tau, steps)
            return propagate_frame(cosine_drive(h0, h1, grid), psi0, grid).final

        # 4 x 2 steps eigh-built slices, 16 x 2 the Taylor action of exp(-i H dt)
        for n in (4, 16):
            rng = np.random.default_rng(11)
            run = random_hermitian(n, rng), random_hermitian(n, rng), random_frame(n, 2, rng)
            ref = endpoint(*run, 256 * 16)
            e1 = np.linalg.norm(endpoint(*run, 256) - ref)
            e2 = np.linalg.norm(endpoint(*run, 512) - ref)
            assert e1 / e2 == pytest.approx(4.0, rel=0.1), f"{n} x 2"


class TestSampledInterpolation:
    @staticmethod
    def _spec_and_times(n, npts, nmids):
        rng = np.random.default_rng(8)
        grid = TimeGrid.uniform(2.0, npts - 1)
        spec = cosine_drive(random_hermitian(n, rng), random_hermitian(n, rng), grid)
        return spec, np.sort(rng.uniform(0.0, 2.0, nmids))

    def test_bitwise_equal_to_the_interpolation_formula(self):
        spec, times = self._spec_and_times(6, 33, 200)
        tg = spec.grid.times
        hi = np.clip(np.searchsorted(tg, times, side="left"), 1, tg.size - 1)
        lo = hi - 1
        w = (times - tg[lo]) / (tg[hi] - tg[lo])
        ref = (1.0 - w)[:, None, None] * spec.samples[lo] + w[:, None, None] * spec.samples[hi]
        np.testing.assert_array_equal(hamiltonian_path(spec, times), ref)
        np.testing.assert_array_equal(hamiltonian_path(spec, tg), spec.samples)

    def test_peak_memory_near_the_result(self):
        import tracemalloc

        spec, times = self._spec_and_times(64, 9, 512)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            out = hamiltonian_path(spec, times)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.2 * out.nbytes


def per_step_loewdin_propagate(spec, psi0, grid):
    """Reference: step one midpoint slice at a time and re-orthonormalize
    symmetrically after every step."""
    times = grid.times
    hams = hamiltonian_path(spec, 0.5 * (times[:-1] + times[1:]))
    w, v = np.linalg.eigh(hams)
    phases = np.exp(-1j * w * np.diff(times)[:, None])
    slices = np.einsum("tij,tj,tkj->tik", v, phases, v.conj())
    out = [psi0]
    for u in slices:
        s = u @ out[-1]
        g_w, g_v = np.linalg.eigh(s.conj().T @ s)
        out.append(s @ (g_v / np.sqrt(g_w)) @ g_v.conj().T)
    return np.array(out)


class TestLoopFreePropagation:
    @staticmethod
    def _cases(steps):
        p = LambdaParams(omega0=SQRT3, delta=1.0, tau=np.pi / 2, eta=np.pi / 3)
        spec, psi0, _ = case_setup("iii", p)
        yield spec, psi0, TimeGrid.uniform(p.tau, steps)
        grid = TimeGrid.uniform(2.0, steps)
        spec, psi0 = refutation_instance(7, grid)
        yield spec, psi0, grid
        # N = 12 >> M = 2 takes the Taylor-action path; H is sampled on a
        # coarser grid than the propagation grid and interpolated between
        rng = np.random.default_rng(2)
        h0, h1 = random_hermitian(12, rng, 0.45), random_hermitian(12, rng, 0.45)
        spec = cosine_drive(h0, h1, TimeGrid.uniform(2.0, 1024))
        yield spec, random_frame(12, 2, rng), grid

    def test_matches_per_step_loewdin_reference(self):
        for spec, psi0, grid in self._cases(2**14):
            path = propagate_frame(spec, psi0, grid)
            ref = per_step_loewdin_propagate(spec, psi0, grid)
            assert np.abs(path.frames - ref).max() <= 1e-12
            np.testing.assert_array_equal(path.initial, psi0)

    def test_orthonormal_to_roundoff_on_long_grids(self):
        for spec, psi0, grid in self._cases(2**16):
            f = propagate_frame(spec, psi0, grid).frames
            grams = f.conj().swapaxes(1, 2) @ f
            assert np.linalg.norm(grams - np.eye(f.shape[2]), axis=(1, 2)).max() <= 1e-13


class TestTaylorAction:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 12), st.data())
    def test_matches_eigh_exponential(self, n, data):
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        m = data.draw(st.integers(1, n))
        theta = data.draw(st.floats(1e-6, 50.0))
        h = random_hermitian(n, rng)
        dt = theta / np.abs(h).sum(axis=0).max()
        psi = random_frame(n, m, rng)
        out = np.empty((2, n, m), dtype=complex)
        out[0] = psi
        _taylor_march(h[None], np.array([dt]), out)
        w, v = np.linalg.eigh(h)
        ref = (v * np.exp(-1j * w * dt)) @ v.conj().T @ psi
        assert np.linalg.norm(out[1] - ref) <= 1e-12 * np.linalg.norm(psi)
        np.testing.assert_array_equal(out[0], psi)

    @pytest.mark.parametrize("theta, plan", [(0.0, (1, 1)), (0.5, (1, 14)), (0.51, (2, 12)),
                                             (50.0, (100, 14))])
    def test_plan_bounds_the_remainder(self, theta, plan):
        s, p = _taylor_plan(theta)
        assert (s, p) == plan
        t = theta / s
        assert t <= 0.5
        assert t ** (p + 1) / math.factorial(p + 1) * math.exp(t) <= 2.0**-53
        if p > 1:  # and p is the least such degree
            assert t ** p / math.factorial(p) * math.exp(t) > 2.0**-53

    def test_coarse_grid_matches_per_step_reference(self):
        # 8 steps of ||H dt||_1 between 6 and 8.5, so each step takes 17 substeps
        rng = np.random.default_rng(4)
        grid = TimeGrid.uniform(4.0, 8)
        spec = cosine_drive(random_hermitian(16, rng), random_hermitian(16, rng), grid)
        psi0 = random_frame(16, 3, rng)
        mids = 0.5 * (grid.times[:-1] + grid.times[1:])
        norms = np.abs(hamiltonian_path(spec, mids)).sum(axis=1).max(axis=1) * np.diff(grid.times)
        assert norms.min() > 1.0
        path = propagate_frame(spec, psi0, grid)
        assert np.abs(path.frames - per_step_loewdin_propagate(spec, psi0, grid)).max() <= 1e-12


def projectors(path):
    """Rank-M projectors S(t) S(t)^dag per grid point."""
    return path.frames @ path.frames.conj().swapaxes(1, 2)


def restricted_generator(spec, path):
    """F(t) = -i S(t)^dag H(t) S(t) per grid point."""
    return _sandwich(hamiltonian_path(spec, path.grid.times), path.frames)


class TestProjectorPath:
    def test_case_i_projector_constant(self):
        spec = LambdaSystem(omega0=SQRT3, delta=1.0)
        psi0 = np.stack([np.array([0, 0, 1]), spec.bright_state], axis=1).astype(complex)
        path = propagate_frame(spec, psi0, TimeGrid.uniform(np.pi / 2, 512))
        d = spec.dark_state
        expected = np.eye(3) - np.outer(d, d.conj())
        assert np.abs(projectors(path) - expected).max() <= 1e-12

    def test_static_projector_for_zero_hamiltonian(self):
        psi0 = np.eye(3)[:, :1].astype(complex)
        path = propagate_frame(Constant(np.zeros((3, 3))), psi0, TimeGrid.uniform(1.0, 8))
        proj = projectors(path)
        assert np.abs(proj - proj[0]).max() == 0.0

    def test_projector_equation_residual_second_order(self):
        # finite-difference dP/dt vs i[P, H]; halving dt should quarter it
        rng = np.random.default_rng(3)
        n = 4
        h0, h1 = random_hermitian(n, rng), random_hermitian(n, rng)
        psi0 = random_frame(n, 2, rng)
        tau = 2.0

        def residual(steps):
            grid = TimeGrid.uniform(tau, steps)
            spec = cosine_drive(h0, h1, grid)
            path = propagate_frame(spec, psi0, grid)
            proj = projectors(path)
            pdot = np.gradient(proj, grid.times, axis=0, edge_order=2)
            hams = hamiltonian_path(spec, grid.times)
            comm = 1j * (np.einsum("tij,tjk->tik", proj, hams)
                         - np.einsum("tij,tjk->tik", hams, proj))
            return np.linalg.norm(pdot - comm, axis=(1, 2)).max()

        r1, r2 = residual(128), residual(256)
        assert r1 / r2 == pytest.approx(4.0, rel=0.25)


class TestRestrictedGenerator:
    def test_case_i_matrix_elements(self):
        delta, omega0 = 1.0, SQRT3
        spec = LambdaSystem(omega0=omega0, delta=delta)
        psi0 = np.stack([np.array([0, 0, 1]), spec.bright_state], axis=1).astype(complex)
        path = propagate_frame(spec, psi0, TimeGrid.uniform(1.0, 8))
        f0 = restricted_generator(spec, path)[0]
        expected = -1j * np.array([[2 * delta, omega0], [omega0, 0.0]])
        np.testing.assert_allclose(f0, expected, atol=1e-12)

    def test_zero_hamiltonian(self):
        psi0 = np.eye(3)[:, :2].astype(complex)
        path = propagate_frame(Constant(np.zeros((3, 3))), psi0, TimeGrid.uniform(1.0, 8))
        assert np.abs(restricted_generator(Constant(np.zeros((3, 3))), path)[3]).max() == 0.0

    def test_case_ii_frame_generator_vanishes(self):
        # dark state decouples and <b|H|b> = 0, so F(t) = 0 on {|d>, e^{-iHt}|b>}
        spec = LambdaSystem(omega0=SQRT3, delta=1.0)
        psi0 = np.stack([spec.dark_state, spec.bright_state], axis=1)
        path = propagate_frame(spec, psi0, TimeGrid.uniform(np.pi / 2, 1024))
        f = restricted_generator(spec, path)
        assert np.abs(f).max() <= 1e-12

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10_000))
    def test_anti_hermitian_everywhere(self, seed):
        rng = np.random.default_rng(seed)
        n = 4
        grid = TimeGrid.uniform(1.0, 32)
        spec = cosine_drive(random_hermitian(n, rng), random_hermitian(n, rng), grid)
        path = propagate_frame(spec, random_frame(n, 2, rng), grid)
        f = restricted_generator(spec, path)
        assert np.linalg.norm(f + f.conj().swapaxes(1, 2), axis=(1, 2)).max() <= 1e-9


def test_frame_path_rejects_drifting_columns():
    grid = TimeGrid.uniform(1.0, 2)
    frames = np.stack([np.eye(3)[:, :2]] * 3).astype(complex)
    frames[1] *= 1.5
    with pytest.raises(ValueError, match="orthonormal"):
        FramePath(grid, frames)


def test_dimension_dispatch():
    assert dimension(LambdaSystem(1.0, 0.0)) == 3
    assert dimension(Constant(np.zeros((5, 5)))) == 5
