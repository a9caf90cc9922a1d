import contextlib
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import midpoint_spec
from holosplit import dynamics
from holosplit.dynamics import (
    Constant,
    FramePath,
    Sampled,
    TimeGrid,
    _chunks,
    _frame_overlaps,
    _one_norms,
    _propagate,
    _sandwich,
    _taylor_march,
    dimension,
    hamiltonian_path,
    propagate_frame,
)
from holosplit.instances import cosine_drive, random_frame, random_hermitian, refutation_instance
from holosplit.lambda_system import LambdaParams, case_setup
from holosplit.linalg import (
    _taylor_plan,
    _time_last,
    hermitian_part,
    loewdin_orthonormalize,
    ordered_products,
    overlaps,
    products,
    subspace_gap,
    unitary_stack,
)

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

    @pytest.mark.parametrize("steps", [2.5, 1e-3, True, np.bool_(True), np.nan, "4", None])
    def test_uniform_rejects_non_integral_steps(self, steps):
        with pytest.raises(ValueError, match="steps"):
            TimeGrid.uniform(1.0, steps)

    @pytest.mark.parametrize("steps", [4096, 4096.0, np.int64(4096), np.float64(4096.0)])
    def test_uniform_accepts_integral_steps(self, steps):
        assert TimeGrid.uniform(1.0, steps).steps == 4096

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

    def test_keeps_its_own_read_only_copy_of_the_times(self):
        times = np.linspace(0.0, 1.0, 5)
        grid = TimeGrid(times)
        # the caller's array stays writeable, and a write to it moves nothing
        times[1] = 0.3
        assert grid.times[1] == 0.25 and not np.shares_memory(grid.times, times)
        with pytest.raises(ValueError, match="read-only"):
            grid.times[1] = 0.3


class TestSampleHamiltonian:
    def test_lambda_structure(self):
        spec = LambdaParams(omega0=1.0, delta=0.0, tau=1.0, omega1=1.0, omega2=0.0).spec
        h = hamiltonian_path(spec, [0.7])[0]
        expected = np.zeros((3, 3), dtype=complex)
        expected[0, 2] = expected[2, 0] = 1.0
        np.testing.assert_allclose(h, expected, atol=1e-15)

    def test_lambda_annihilates_dark_state(self):
        p = LambdaParams(omega0=2.0, delta=-0.3, tau=1.0, omega1=0.6, omega2=0.8j)
        h = hamiltonian_path(p.spec, [0.0])[0]
        np.testing.assert_allclose(h @ p.dark_state, 0.0, atol=1e-14)

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
            LambdaParams(omega0=1.0, delta=0.0, tau=1.0, omega1=1.0, omega2=1.0)

    @given(st.sampled_from(["omega0", "delta", "omega1", "omega2"]),
           st.sampled_from([np.nan, np.inf, -np.inf, complex(0.0, np.nan)]))
    def test_lambda_rejects_non_finite_field(self, name, bad):
        fields = dict(omega0=1.0, delta=0.0, tau=1.0, omega1=1.0, omega2=0.0)
        fields[name] = bad
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            LambdaParams(**fields)

    @settings(deadline=None)
    @given(st.sampled_from([np.nan, np.inf, -np.inf, complex(np.inf, 0.0), complex(0.0, np.inf),
                            complex(0.0, np.nan)]),
           st.integers(0, 2), st.integers(0, 1), st.integers(0, 1), st.booleans())
    def test_sampled_rejects_non_finite_samples(self, bad, t, i, j, fill_all):
        # the Hermitian check meets them first: a diagonal inf gives a NaN
        # residual (inf - inf), an off-diagonal one an inf, and a
        # RuntimeWarning from either fails the test (pytest's warnings are
        # errors)
        samples = np.zeros((3, 2, 2), dtype=complex)
        if fill_all:
            samples[:] = bad
        else:
            samples[t, i, j] = bad
        with pytest.raises(ValueError, match="samples contain non-finite"):
            Sampled(TimeGrid.uniform(1.0, 2), samples)


class TestHermitianCheck:
    """Constant and Sampled share one Hermitian check, run one chunk of
    about 1 MiB of samples at a time."""

    @staticmethod
    def _noisy_stack(npts, n, seed=0):
        # Hermitian samples plus a skew part well inside structure_tol
        rng = np.random.default_rng(seed)
        h = np.stack([random_hermitian(n, rng) for _ in range(npts)])
        skew = rng.standard_normal(h.shape) * 1e-14j
        return h + skew

    @pytest.mark.parametrize("where", ["first", "middle", "last"])
    def test_rejects_a_non_hermitian_sample_in_any_chunk(self, where):
        npts, n = 40, 64
        chunks = _chunks(npts, n)
        assert len(chunks) >= 3
        k = {"first": 0, "middle": chunks[1].start + 3, "last": npts - 1}[where]
        samples = self._noisy_stack(npts, n)
        samples[k, 0, 1] += 1e-6
        with pytest.raises(ValueError, match="not Hermitian"):
            Sampled(TimeGrid.uniform(1.0, npts - 1), samples)

    def test_stores_the_hermitian_part_bitwise(self):
        samples = self._noisy_stack(40, 64)
        spec = Sampled(TimeGrid.uniform(1.0, 39), samples)
        np.testing.assert_array_equal(spec.samples, hermitian_part(samples))
        np.testing.assert_array_equal(Constant(samples[7]).matrix, hermitian_part(samples[7]))

    def test_exactly_hermitian_samples_are_kept_bit_for_bit(self):
        # off-diagonal real parts of -0.0 beside imaginary parts of either
        # sign; a complex division by 2 turned some of them into +0.0
        rng = np.random.default_rng(3)
        h = np.zeros((5, 3, 3), dtype=complex)
        upper, diag = np.triu_indices(3, 1), np.diag_indices(3)
        q = rng.standard_normal((5, 3))
        h.real[:, upper[0], upper[1]] = h.real[:, upper[1], upper[0]] = -0.0
        h.imag[:, upper[0], upper[1]], h.imag[:, upper[1], upper[0]] = q, -q
        h.real[:, diag[0], diag[1]] = rng.standard_normal((5, 3))
        spec = Sampled(TimeGrid.uniform(1.0, 4), h)
        np.testing.assert_array_equal(spec.samples.view(np.int64), h.view(np.int64))
        np.testing.assert_array_equal(Constant(h[2]).matrix.view(np.int64), h[2].view(np.int64))

    def test_constant_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="not Hermitian"):
            Constant(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_non_finite_entry_in_a_later_chunk_wins_over_a_non_hermitian_one(self):
        npts, n = 40, 64
        chunks = _chunks(npts, n)
        samples = self._noisy_stack(npts, n)
        samples[0, 0, 1] += 1e-6
        samples[chunks[-1].start, 2, 3] = np.nan
        with pytest.raises(ValueError, match="samples contain non-finite entries"):
            Sampled(TimeGrid.uniform(1.0, npts - 1), samples)

    def test_a_residual_that_overflows_when_squared_reads_not_hermitian(self):
        # finite entries whose skew residual squares beyond the float range
        samples = self._noisy_stack(40, 64) * 1e200
        samples[7, 0, 1] += 1e200j
        assert np.isfinite(samples).all()
        with pytest.raises(ValueError, match="not Hermitian"):
            Sampled(TimeGrid.uniform(1.0, 39), samples)
        with pytest.raises(ValueError, match="not Hermitian"):
            Constant(samples[7])

    @pytest.mark.parametrize("factor, passes", [(0.5, True), (2.0, False)])
    def test_residual_against_structure_tol(self, factor, passes):
        # a real d at (0, 1) gives H - H^dag = d at (0, 1) and -d at (1, 0):
        # ||H - H^dag||_F = sqrt(2) d
        tol = 1e-6
        npts, n = 40, 64
        samples = np.stack([random_hermitian(n, np.random.default_rng(k)) for k in range(npts)])
        k = _chunks(npts, n)[1].start + 2
        samples[k, 0, 1] += factor * tol / np.sqrt(2)
        grid = TimeGrid.uniform(1.0, npts - 1)
        if passes:
            Sampled(grid, samples, structure_tol=tol)
            Constant(samples[k], structure_tol=tol)
            return
        with pytest.raises(ValueError, match="not Hermitian"):
            Sampled(grid, samples, structure_tol=tol)
        with pytest.raises(ValueError, match="not Hermitian"):
            Constant(samples[k], structure_tol=tol)

    def test_peak_memory_near_the_samples(self):
        import tracemalloc

        grid = TimeGrid.uniform(1.0, 512)
        samples = self._noisy_stack(513, 64)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            spec = Sampled(grid, samples)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert spec.samples.nbytes == samples.nbytes
        assert peak <= 1.3 * samples.nbytes


class TestCosineDrive:
    @pytest.mark.parametrize("real0, real1", [(False, False), (True, True), (True, False),
                                              (False, True)])
    def test_samples_are_the_hermitian_part_of_the_sum_bitwise(self, real0, real1):
        # signed zeros, and a grid past pi/2 where cos(t) < 0: a product
        # formed in complex arithmetic from a real h1 would carry an
        # imaginary -0.0 that shows at (0, 1) of the result
        rng = np.random.default_rng(4)
        h0, h1 = (random_hermitian(5, rng) for _ in range(2))
        h0[0, 1], h0[1, 0] = complex(0.3, -0.0), complex(0.3, 0.0)
        h1[0, 1] = h1[1, 0] = -0.5
        h0[2, 3] = h0[3, 2] = h1[2, 3] = h1[3, 2] = -0.0
        h0, h1 = (h.real.copy() if real else h for h, real in ((h0, real0), (h1, real1)))
        grid = TimeGrid.uniform(3.0, 600)
        expected = hermitian_part(h0 + np.cos(grid.times)[:, None, None] * h1)
        samples = cosine_drive(h0, h1, grid).samples
        np.testing.assert_array_equal(samples.view(np.int64),
                                      expected.astype(complex).view(np.int64))


class TestPropagateFrame:
    def test_zero_hamiltonian_is_static(self):
        psi0 = np.eye(3)[:, :2].astype(complex)
        path = propagate_frame(Constant(np.zeros((3, 3))), psi0, TimeGrid.uniform(1.0, 16))
        assert np.abs(path.frames - psi0).max() == 0.0

    def test_case_i_resonant_full_flip(self):
        p = LambdaParams(omega0=1.0, delta=0.0, tau=np.pi)
        psi0 = np.stack([np.array([0, 0, 1]), p.bright_state], axis=1).astype(complex)
        path = propagate_frame(p.spec, psi0, TimeGrid.uniform(np.pi, 4096))
        assert np.abs(path.final + psi0).max() <= 1e-8

    def test_case_i_detuned_quarter_turn(self):
        p = LambdaParams(omega0=SQRT3, delta=1.0, tau=np.pi / 2)
        psi0 = np.stack([np.array([0, 0, 1]), p.bright_state], axis=1).astype(complex)
        path = propagate_frame(p.spec, psi0, TimeGrid.uniform(np.pi / 2, 4096))
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

    def test_rejects_empty_frame(self):
        # a 0 x 0 Gram matrix passes the orthonormality check
        with pytest.raises(ValueError, match="psi0"):
            propagate_frame(Constant(np.zeros((3, 3))), np.zeros((3, 0)), TimeGrid.uniform(1.0, 4))

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
        u = overlaps(path.initial, path.frames)
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

    @pytest.mark.parametrize("every", [1, 2])
    def test_sample_times_are_read_only_views(self, every):
        spec, _ = self._spec_and_times(6, 33, 1)
        out = hamiltonian_path(spec, spec.grid.times[::every])
        assert out.tobytes() == spec.samples[::every].tobytes()
        assert np.shares_memory(out, spec.samples)
        with pytest.raises(ValueError, match="read-only"):
            out[0, 0, 0] = 1.0

    @pytest.mark.parametrize("kind", ["midpoints", "mixed", "unsorted", "unsorted_nodes"])
    def test_other_times_match_the_formula_bitwise(self, kind):
        spec, times = self._spec_and_times(6, 33, 40)
        tg = spec.grid.times
        rng = np.random.default_rng(3)
        if kind == "midpoints":
            # s[lo] and s[hi] are read as views
            times = 0.5 * (tg[:-1] + tg[1:])
        elif kind == "mixed":
            times = np.sort(np.concatenate([times, tg[::3]]))
        elif kind == "unsorted":
            times = rng.permutation(np.concatenate([times, tg[::3]]))
        else:
            times = rng.permutation(tg)
        hi = np.clip(np.searchsorted(tg, times, side="left"), 1, tg.size - 1)
        lo = hi - 1
        w = (times - tg[lo]) / (tg[hi] - tg[lo])
        ref = (1.0 - w)[:, None, None] * spec.samples[lo] + w[:, None, None] * spec.samples[hi]
        out = hamiltonian_path(spec, times)
        assert out.tobytes() == ref.tobytes()
        assert not out.flags.writeable

    @pytest.mark.parametrize("times", [[np.nan], [0.5, np.inf], [], [[0.1, 0.2]]],
                             ids=["nan", "inf", "empty", "2-d"])
    @pytest.mark.parametrize("kind", ["constant", "lambda", "sampled"])
    def test_rejects_malformed_times(self, kind, times):
        if kind == "constant":
            spec = Constant(np.eye(2))
        elif kind == "lambda":
            spec = LambdaParams(omega0=1.0, delta=0.0, tau=1.0).spec
        else:
            spec = self._spec_and_times(3, 5, 1)[0]
        with pytest.raises(ValueError, match="times"):
            hamiltonian_path(spec, times)

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
        # N = 24 >> M = 2 takes the Taylor-action path; H is sampled on a
        # coarser grid than the propagation grid and interpolated between
        rng = np.random.default_rng(2)
        h0, h1 = random_hermitian(24, rng, 0.45), random_hermitian(24, rng, 0.45)
        spec = cosine_drive(h0, h1, TimeGrid.uniform(2.0, 1024))
        yield spec, random_frame(24, 2, rng), grid

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


def horner_march(hams, dts, psi, plan):
    """Reference: psi, then exp(-i H_k dt_k) applied step by step for the
    stack hams, each as s substeps of a degree-p Horner Taylor polynomial
    for plan = (s, p)."""
    s, p = plan
    out = [psi]
    for h, dt in zip(hams, dts):
        c, y = -1j * dt / s, out[-1]
        for _ in range(s):
            start = y
            for j in range(p, 0, -1):
                y = start + (h @ y) * (c / j)
        out.append(y)
    return np.array(out)


def interpolated_bound(spec, times, dts):
    """max_k dt_k ((1 - w_k) ||s_lo||_1 + w_k ||s_hi||_1), for H(times_k) =
    (1 - w_k) s_lo + w_k s_hi between the samples s of a Sampled spec."""
    tg = spec.grid.times
    hi = np.clip(np.searchsorted(tg, times), 1, tg.size - 1)
    lo = hi - 1
    w = (times - tg[lo]) / (tg[hi] - tg[lo])
    norms = np.abs(spec.samples).sum(axis=1).max(axis=1)
    return float((dts * ((1.0 - w) * norms[lo] + w * norms[hi])).max())


@contextlib.contextmanager
def recorded_plans():
    """The theta of every Taylor plan dynamics makes in the block, in order."""
    thetas = []
    real = dynamics._taylor_plan
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dynamics, "_taylor_plan", lambda theta: thetas.append(theta) or real(theta))
        yield thetas


def whole_stack_propagate(spec, psi0, grid):
    """Reference: the midpoint Hamiltonians sampled as one stack and stepped
    in one pass. From N = 20 each step is a Horner Taylor action with the
    plan of its chunk, from the chunk's interpolated_bound, as in
    propagate_frame; below, the slice scan pairs the whole run's complex
    slices."""
    times = grid.times
    mids = 0.5 * (times[:-1] + times[1:])
    hams = hamiltonian_path(spec, mids)
    dts = np.diff(times)
    out = np.empty((times.size, *psi0.shape), dtype=complex)
    out[0] = psi0
    if psi0.shape[0] >= 20:
        for sl in _chunks(dts.size, psi0.shape[0]):
            plan = _taylor_plan(interpolated_bound(spec, mids[sl], dts[sl]))
            out[sl.start + 1 : sl.stop + 1] = horner_march(hams[sl], dts[sl], out[sl.start], plan)[1:]
    else:
        out[1:] = ordered_products(unitary_stack(hams, dts), "forward", cumulative=True) @ psi0
    out[1:] = loewdin_orthonormalize(out[1:])
    return out


class TestChunkedPropagation:
    """A Sampled H is sampled and stepped one chunk of about 1 MiB at a time;
    one pass over the whole midpoint stack is the reference."""

    @pytest.mark.parametrize("n", [1, 3, 4, 12, 64, 300])
    @pytest.mark.parametrize("count", [1, 15, 16, 17, 8191, 8192, 8193])
    def test_chunks_cover_the_range_in_order(self, n, count):
        chunks = _chunks(count, n)
        rows = chunks[0].stop - chunks[0].start
        # about 1 MiB of complex n x n matrices, at least one
        assert rows == min(count, max(1, 2**20 // (16 * n * n)))
        assert [i for sl in chunks for i in range(sl.start, sl.stop)] == list(range(count))
        assert all(sl.stop - sl.start == rows for sl in chunks[:-1])

    @pytest.mark.parametrize("n", [4, 12, 64])
    @pytest.mark.parametrize("extra", [-1, 0, 1])
    @pytest.mark.parametrize("sampling", ["run_grid", "coarser"])
    def test_matches_one_whole_stack_pass(self, n, extra, sampling):
        rows = _chunks(10**6, n)[0].stop
        grid = TimeGrid.uniform(1.5, 2 * rows + extra)
        rng = np.random.default_rng(n)
        h0, h1 = random_hermitian(n, rng, 0.45), random_hermitian(n, rng, 0.45)
        psi0 = random_frame(n, 2, rng)
        spec = cosine_drive(h0, h1, grid if sampling == "run_grid" else TimeGrid.uniform(1.5, 13))
        frames = propagate_frame(spec, psi0, grid).frames
        ref = whole_stack_propagate(spec, psi0, grid)
        np.testing.assert_array_equal(frames[0], psi0)
        # below N = 20 each chunk scans its own slices, which re-associates
        # the products at the chunk boundaries
        if n >= 20:
            assert frames.tobytes() == ref.tobytes()
        else:
            assert np.abs(frames - ref).max() <= 1e-13

    def test_grid_leaving_the_samples_fails_before_the_first_step(self, monkeypatch):
        rng = np.random.default_rng(0)
        spec = cosine_drive(random_hermitian(24, rng), random_hermitian(24, rng),
                            TimeGrid.uniform(1.0, 8))

        def step(*args):
            raise AssertionError("stepped before the grid was checked")

        monkeypatch.setattr(dynamics, "_taylor_march", step)
        # 113 steps a chunk: the first chunk lies inside [0, 1], the last ones
        # beyond it
        with pytest.raises(ValueError, match="outside"):
            propagate_frame(spec, random_frame(24, 2, rng), TimeGrid.uniform(1.5, 2000))


class TestChunkedFramePasses:
    """Every pass over a whole frame path goes one _chunks chunk at a time;
    the whole-path call is the reference, bit for bit, at any chunk size."""

    @pytest.mark.parametrize("exponent", [12, 16, 22])
    @pytest.mark.parametrize("n, m, k", [(4, 2, 2), (24, 2, 2), (24, 2, 3), (64, 4, 4)])
    def test_frame_overlaps_match_the_whole_path(self, monkeypatch, exponent, n, m, k):
        monkeypatch.setattr(dynamics, "_CHUNK_BYTES", 2**exponent)
        rng = np.random.default_rng(n + m + k)
        a = rng.standard_normal((301, n, m)) + 1j * rng.standard_normal((301, n, m))
        b = rng.standard_normal((301, n, k)) + 1j * rng.standard_normal((301, n, k))
        # a path against a path and against one frame
        for other in (b, b[7]):
            got = _frame_overlaps(a, other)
            assert got.shape == (301, m, k)
            assert np.ascontiguousarray(got).tobytes() == np.ascontiguousarray(overlaps(a, other)).tobytes()

    @pytest.mark.parametrize("exponent", [12, 16, 22])
    @pytest.mark.parametrize("n, m", [(4, 2), (24, 2), (24, 3), (64, 4)])
    def test_loewdin_pass_matches_the_whole_path(self, monkeypatch, exponent, n, m):
        # the Taylor route from N = 20, the slice route at N = 4; the
        # closed-form Loewdin at M = 2, the eigh one otherwise
        monkeypatch.setattr(dynamics, "_CHUNK_BYTES", 2**exponent)
        rng = np.random.default_rng(n * m)
        spec = cosine_drive(random_hermitian(n, rng, 0.45), random_hermitian(n, rng, 0.45),
                            TimeGrid.uniform(1.0, 300))
        psi0 = random_frame(n, m, rng)
        frames = _propagate(spec, psi0, spec.grid)
        monkeypatch.setattr(dynamics, "loewdin_orthonormalize", lambda f: f)
        marched = _propagate(spec, psi0, spec.grid)
        assert len(_chunks(300, n)) > 1 or exponent == 22
        ref = np.ascontiguousarray(loewdin_orthonormalize(marched[1:]))
        assert frames[1:].tobytes() == ref.tobytes()

    @pytest.mark.parametrize("exponent", [12, 16, 22])
    def test_gram_check_reports_the_whole_path_residual(self, monkeypatch, exponent):
        monkeypatch.setattr(dynamics, "_CHUNK_BYTES", 2**exponent)
        rng = np.random.default_rng(5)
        frames = np.stack([random_frame(24, 2, rng) for _ in range(200)])
        frames[-1, :, 1] *= 1.0 + 1e-6
        whole = np.linalg.norm(overlaps(frames, frames) - np.eye(2), axis=(1, 2)).max()
        with pytest.raises(ValueError, match=re.escape(f"(residual {whole:.3e})")):
            FramePath(TimeGrid.uniform(1.0, 199), frames)

    @pytest.mark.parametrize("exponent", [12, 16, 22])
    def test_drift_matches_the_whole_path(self, monkeypatch, exponent):
        monkeypatch.setattr(dynamics, "_CHUNK_BYTES", 2**exponent)
        rng = np.random.default_rng(6)
        spec = cosine_drive(random_hermitian(24, rng, 0.45), random_hermitian(24, rng, 0.45),
                            TimeGrid.uniform(1.0, 300))
        path = propagate_frame(spec, random_frame(24, 2, rng), spec.grid)
        assert path.drift == float(subspace_gap(path.initial, path.frames).max())


class TestRealSlices:
    """From N = 3 to 5 (dynamics._REAL_SLICES) a chunk whose largest
    ||H dt||_1 is at most 1/2 is stepped by 2N x 2N real slices; the complex
    slices of linalg.unitary_stack are the reference, and the other chunks
    and sizes take them."""

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_matches_the_complex_slices(self, data):
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        n = data.draw(st.sampled_from(dynamics._REAL_SLICES))
        m = data.draw(st.integers(1, n))
        # about a chunk boundary of the real slices
        steps = 2 * _chunks(10**6, 2 * n)[0].stop + data.draw(st.sampled_from([-1, 0, 1]))
        theta = 10 ** data.draw(st.floats(-6.0, np.log10(0.5)))
        grid = TimeGrid.uniform(1.0, steps)
        dts = np.diff(grid.times)
        hams = hermitian_part(rng.standard_normal((steps, n, n)) + 1j * rng.standard_normal((steps, n, n)))
        hams *= theta * (1.0 - 1e-13) / (_one_norms(hams) * dts).max()
        psi0 = random_frame(n, m, rng)

        def complex_slices(*args):
            raise AssertionError("a chunk took the complex slices")

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(dynamics, "unitary_stack", complex_slices)
            frames = _propagate(midpoint_spec(grid, hams), psi0, grid)
        ref = ordered_products(unitary_stack(hams, dts), "forward", cumulative=True) @ psi0
        assert frames[0].tobytes() == psi0.tobytes()
        assert np.abs(frames[1:] - ref).max() <= 1e-13

    @pytest.mark.parametrize("n, scale", [(2, 0.45), (6, 0.45), (12, 0.45), (4, 2e4)],
                             ids=["closed_form_2x2", "six_levels", "twelve_levels", "theta_above_half"])
    def test_other_sizes_and_chunks_keep_the_complex_bits(self, n, scale):
        rng = np.random.default_rng(n)
        # about a boundary of the complex route's chunks
        steps = 2 * _chunks(10**6, n)[0].stop + 1
        grid = TimeGrid.uniform(1.0, steps)
        spec = cosine_drive(random_hermitian(n, rng, scale), random_hermitian(n, rng, scale), grid)
        psi0 = random_frame(n, 2, rng)
        mids, dts = 0.5 * (grid.times[:-1] + grid.times[1:]), np.diff(grid.times)

        def complex_march(levels):
            """The complex slices' frames, in chunks sized for N = levels."""
            out = np.empty((steps + 1, n, 2), dtype=complex)
            out[0] = psi0
            for sl in _chunks(steps, levels):
                hams = hamiltonian_path(spec, mids[sl])
                if n in dynamics._REAL_SLICES:
                    assert (_one_norms(hams) * dts[sl]).max() > 0.5
                slices = ordered_products(unitary_stack(hams, dts[sl]), "forward", cumulative=True)
                out[sl.start + 1 : sl.stop + 1] = products(slices, out[sl.start])
            out[1:] = loewdin_orthonormalize(out[1:])
            return out

        frames = propagate_frame(spec, psi0, grid).frames
        if n not in dynamics._REAL_SLICES:
            assert frames.tobytes() == complex_march(n).tobytes()
            return
        # the complex slices in chunks sized for the real ones: each chunk
        # boundary re-associates the products, which moves the frames by
        # roundoff against chunks sized for the complex slices
        assert frames.tobytes() == complex_march(2 * n).tobytes()
        assert np.abs(frames - complex_march(n)).max() <= 1e-13


class TestMidpoints:
    """From N = 20 _taylor_march forms a chunk's midpoint H from the spec one
    step at a time, and plans the chunk from a bound that the spec's cached
    per-sample norms give."""

    @staticmethod
    def _grid(rng, tau, count):
        inner = rng.uniform(0.0, tau, count)
        return TimeGrid(np.concatenate([[0.0], np.unique(inner[(inner > 0.0) & (inner < tau)]), [tau]]))

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_bound_and_rows_per_chunk(self, data):
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        n = data.draw(st.integers(1, 5))
        run = self._grid(rng, 2.0, data.draw(st.integers(1, 40)))
        times = run.times
        mids = 0.5 * (times[:-1] + times[1:])
        kind = data.draw(st.sampled_from(["off", "coarser", "on_samples", "mixed"]))
        if kind == "off":  # a non-uniform sample grid of its own
            sample_times = self._grid(rng, 2.0, data.draw(st.integers(1, 40))).times
        elif kind == "coarser":  # every third run point, and the end
            sample_times = np.union1d(times[::3], times[-1:])
        elif kind == "on_samples":  # every midpoint a sample time
            sample_times = np.union1d(times, mids)
        else:  # some midpoints sample times, the others between two
            sample_times = np.union1d(times, mids[rng.random(mids.size) < 0.5])
        scales = rng.uniform(0.1, 3.0, sample_times.size)[:, None, None]
        spec = Sampled(TimeGrid(sample_times),
                       np.stack([random_hermitian(n, rng) for _ in sample_times]) * scales)
        dts = np.diff(times)
        # a unitary frame, so every entry of each H_k moves the frames
        psi = random_frame(n, n, rng)
        rows = data.draw(st.integers(1, mids.size))
        for sl in (slice(a, a + rows) for a in range(0, mids.size, rows)):
            out = np.empty((mids[sl].size + 1, n, n), dtype=complex)
            out[0] = psi
            with recorded_plans() as thetas:
                _taylor_march(spec, mids[sl], dts[sl], out)
            (bound,) = thetas
            ref = hamiltonian_path(spec, mids[sl])
            # each step's H has the bits of hamiltonian_path's row
            assert out.tobytes() == horner_march(ref, dts[sl], psi, _taylor_plan(bound)).tobytes()
            exact = float((_one_norms(ref) * dts[sl]).max())
            if np.isin(mids[sl], sample_times).all():
                assert bound == exact
            else:
                # the triangle inequality, up to the roundoff of the two
                # n-term column sums behind each side
                assert bound >= exact * (1.0 - 2 * (n + 3) * np.finfo(float).eps)

    @pytest.mark.parametrize("sampling", ["between_samples", "on_samples"])
    def test_march_matches_the_stack_march(self, sampling):
        rng = np.random.default_rng(5)
        grid = TimeGrid.uniform(1.0, 64)
        samples = grid if sampling == "between_samples" else TimeGrid.uniform(1.0, 128)
        spec = cosine_drive(random_hermitian(24, rng, 0.45), random_hermitian(24, rng, 0.45), samples)
        mids = 0.5 * (grid.times[:-1] + grid.times[1:])
        dts = np.diff(grid.times)
        out = np.empty((grid.times.size, 24, 2), dtype=complex)
        out[0] = random_frame(24, 2, rng)
        with recorded_plans() as thetas:
            _taylor_march(spec, mids, dts, out)
        (bound,) = thetas
        hams = hamiltonian_path(spec, mids)
        exact = float((_one_norms(hams) * dts).max())
        if sampling == "on_samples":
            assert bound == exact
        # one plan, so the per-step rows give the bits of the march over the
        # stack with the plan of its exact largest ||H dt||_1
        assert _taylor_plan(bound) == _taylor_plan(exact)
        assert out.tobytes() == horner_march(hams, dts, out[0], _taylor_plan(exact)).tobytes()

    def test_norms_are_formed_once_on_first_use_and_read_only(self, monkeypatch):
        calls = []
        real = dynamics._one_norms
        monkeypatch.setattr(dynamics, "_one_norms", lambda h: calls.append(len(h)) or real(h))
        rng = np.random.default_rng(12)
        h0, h1 = random_hermitian(24, rng, 0.45), random_hermitian(24, rng, 0.45)
        psi0 = random_frame(24, 2, rng)
        grid = TimeGrid.uniform(1.0, 300)
        # a coarse run on a finer sample grid: every midpoint a sample time,
        # or every midpoint between two samples
        for samples in (TimeGrid.uniform(1.0, 600), TimeGrid.uniform(1.0, 900)):
            calls.clear()
            spec = cosine_drive(h0, h1, samples)
            assert calls == [] and "_norms" not in vars(spec)
            first = propagate_frame(spec, psi0, grid).frames
            # every sample's norm formed once, one chunk of samples at a time
            assert calls == [sl.stop - sl.start for sl in _chunks(len(samples), 24)]
            norms = spec._norms
            assert norms.tobytes() == np.abs(spec.samples).sum(axis=1).max(axis=1).tobytes()
            assert not norms.flags.writeable
            calls.clear()
            second = propagate_frame(spec, psi0, TimeGrid.uniform(1.0, 300)).frames
            assert calls == [] and spec._norms is norms
            assert first.tobytes() == second.tobytes()

    def test_slice_route_forms_no_norms(self):
        spec, psi0 = refutation_instance(7, TimeGrid.uniform(2.0, 64))
        propagate_frame(spec, psi0, spec.grid)
        assert "_norms" not in vars(spec)


class TestConstantPropagation:
    """A time-independent H is propagated by one eigh; the stepped midpoint
    route, exact per step for a constant H, is the reference."""

    @staticmethod
    def _runs():
        p = LambdaParams(omega0=SQRT3, delta=1.0, tau=np.pi / 2, eta=np.pi / 3)
        for case in ("i", "ii", "iii"):
            spec, psi0, _ = case_setup(case, p)
            yield f"lambda {case}", spec, psi0
        rng = np.random.default_rng(6)
        for n in (2, 3, 4, 12, 24):
            for m in (1, 2):
                yield f"{n} x {m}", Constant(random_hermitian(n, rng)), random_frame(n, m, rng)

    @pytest.mark.parametrize("kind", ["uniform", "non_uniform"])
    def test_matches_stepped_route(self, kind):
        if kind == "uniform":
            grid = TimeGrid.uniform(2.0, 1024)
        else:
            inner = np.random.default_rng(9).uniform(0.0, 2.0, 1023)
            grid = TimeGrid(np.concatenate([[0.0], np.unique(inner), [2.0]]))
        mids = 0.5 * (grid.times[:-1] + grid.times[1:])
        for label, spec, psi0 in self._runs():
            path = propagate_frame(spec, psi0, grid)
            stepped = _propagate(midpoint_spec(grid, hamiltonian_path(spec, mids)), psi0, grid)
            assert np.abs(path.frames - stepped).max() <= 1e-11, label
            np.testing.assert_array_equal(path.frames[0], psi0)

    def test_exact_route_is_orthonormal_without_loewdin(self, monkeypatch):
        # V exp(-i E t) V^dag psi0 builds up no drift over the steps, so the
        # exact route takes no orthonormalization pass
        calls = []
        monkeypatch.setattr(dynamics, "loewdin_orthonormalize", lambda f: calls.append(f) or f)
        p = LambdaParams(omega0=SQRT3, delta=1.0, tau=np.pi / 2, eta=np.pi / 3)
        spec, psi0, _ = case_setup("iii", p)
        rng = np.random.default_rng(14)
        runs = {"lambda iii": (spec, psi0),
                "24 x 2": (Constant(random_hermitian(24, rng)), random_frame(24, 2, rng))}
        grid = TimeGrid.uniform(np.pi / 2, 16384)
        for label, (spec, psi0) in runs.items():
            frames = propagate_frame(spec, psi0, grid).frames
            residual = np.linalg.norm(overlaps(frames, frames) - np.eye(2), axis=(1, 2)).max()
            assert residual <= 1e-14, label
        assert calls == []

    def test_hamiltonian_path_is_a_read_only_view(self):
        spec = Constant(random_hermitian(3, np.random.default_rng(2)))
        out = hamiltonian_path(spec, np.linspace(0.0, 1.0, 5))
        assert out.shape == (5, 3, 3) and not out.flags.writeable
        assert np.shares_memory(out, spec.matrix)
        np.testing.assert_array_equal(out, np.broadcast_to(spec.matrix, out.shape))

    def test_generators_from_the_view_match_a_copy_bitwise(self):
        # both product routes: entrywise for Lambda (3 x 3 @ 3 x 2), matmul
        # for 24 levels
        grid = TimeGrid.uniform(1.0, 300)
        for label, spec, psi0 in self._runs():
            frames = propagate_frame(spec, psi0, grid).frames
            view = hamiltonian_path(spec, grid.times)
            np.testing.assert_array_equal(_sandwich(view, frames), _sandwich(view.copy(), frames), label)


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
        _taylor_march(midpoint_spec(TimeGrid([0.0, dt]), h[None]), np.array([0.5 * dt]), np.array([dt]), out)
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
        p = LambdaParams(omega0=SQRT3, delta=1.0, tau=np.pi / 2)
        psi0 = np.stack([np.array([0, 0, 1]), p.bright_state], axis=1).astype(complex)
        path = propagate_frame(p.spec, psi0, TimeGrid.uniform(np.pi / 2, 512))
        d = p.dark_state
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
        p = LambdaParams(omega0=omega0, delta=delta, tau=1.0)
        spec = p.spec
        psi0 = np.stack([np.array([0, 0, 1]), p.bright_state], axis=1).astype(complex)
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
        p = LambdaParams(omega0=SQRT3, delta=1.0, tau=np.pi / 2)
        spec = p.spec
        psi0 = np.stack([p.dark_state, p.bright_state], axis=1)
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


@pytest.mark.parametrize("layout", ["c_order", "time_last"])
def test_frame_path_freezes_a_view_not_the_callers_array(layout):
    f = np.zeros((4, 2, 1), complex) if layout == "c_order" else _time_last((4, 2, 1))
    f[...] = 0.0
    f[:, 0, 0] = 1.0
    path = FramePath(TimeGrid.uniform(1.0, 3), f)
    # no copy, in the given layout
    assert np.shares_memory(path.frames, f) and path.frames.strides == f.strides
    with pytest.raises(ValueError, match="read-only"):
        path.frames[0, 0, 0] = 1.0
    f[0, 0, 0] = 1.0


@pytest.mark.parametrize("bad", [np.nan, np.inf, -1.0], ids=["nan", "inf", "negative"])
@pytest.mark.parametrize("build", [
    lambda tol: Constant(np.eye(2), tol),
    lambda tol: Sampled(TimeGrid.uniform(1.0, 2), np.zeros((3, 2, 2)), tol),
    lambda tol: FramePath(TimeGrid.uniform(1.0, 2), np.stack([np.eye(2)[:, :1]] * 3), tol),
    lambda tol: LambdaParams(1.0, 0.0, 1.0, structure_tol=tol),
], ids=["Constant", "Sampled", "FramePath", "LambdaParams"])
def test_structure_tol_rejects_nan_and_negative(build, bad):
    # NaN fails every comparison and inf passes every one, so either would
    # switch the constructor's check off
    with pytest.raises(ValueError, match="structure_tol must be non-negative"):
        build(bad)
    build(0.0)


def test_dimension_dispatch():
    assert dimension(LambdaParams(1.0, 0.0, 1.0).spec) == 3
    assert dimension(Constant(np.zeros((5, 5)))) == 5
