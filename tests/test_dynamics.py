import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from holosplit import dynamics
from holosplit.dynamics import (
    Constant,
    FramePath,
    Sampled,
    TimeGrid,
    _chunks,
    _propagate,
    _sandwich,
    _taylor_march,
    _taylor_plan,
    dimension,
    hamiltonian_path,
    propagate_frame,
)
from holosplit.instances import cosine_drive, random_frame, random_hermitian, refutation_instance
from holosplit.lambda_system import LambdaParams, case_setup
from holosplit.linalg import hermitian_part, loewdin_orthonormalize, overlaps, unitary_stack

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

    def test_constant_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="not Hermitian"):
            Constant(np.array([[0.0, 1.0], [0.0, 0.0]]))

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


def whole_stack_propagate(spec, psi0, grid):
    """Reference: the midpoint Hamiltonians sampled as one stack and stepped
    in one pass, so the Taylor plan comes from the whole run. Returns the
    frames, the stack and the steps."""
    times = grid.times
    hams = hamiltonian_path(spec, 0.5 * (times[:-1] + times[1:]))
    dts = np.diff(times)
    out = np.empty((times.size, *psi0.shape), dtype=complex)
    out[0] = psi0
    if psi0.shape[0] >= 10:
        _taylor_march(hams, dts, out)
    else:
        slices = unitary_stack(hams, dts)
        for k in range(dts.size):
            np.matmul(slices[k], out[k], out=out[k + 1])
    out[1:] = loewdin_orthonormalize(out[1:])
    return out, hams, dts


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
        ref, hams, dts = whole_stack_propagate(spec, psi0, grid)
        np.testing.assert_array_equal(frames[0], psi0)
        theta = np.abs(hams).sum(axis=1).max(axis=1) * dts
        plans = {_taylor_plan(float(theta[sl].max())) for sl in _chunks(dts.size, n)}
        if n < 10 or plans == {_taylor_plan(float(theta.max()))}:
            np.testing.assert_array_equal(frames, ref)
        else:
            assert np.abs(frames - ref).max() <= 1e-13

    def test_grid_leaving_the_samples_fails_before_the_first_step(self, monkeypatch):
        rng = np.random.default_rng(0)
        spec = cosine_drive(random_hermitian(12, rng), random_hermitian(12, rng),
                            TimeGrid.uniform(1.0, 8))

        def step(*args):
            raise AssertionError("stepped before the grid was checked")

        monkeypatch.setattr(dynamics, "_taylor_march", step)
        # 455 steps a chunk: the first chunk lies inside [0, 1], the last ones
        # beyond it
        with pytest.raises(ValueError, match="outside"):
            propagate_frame(spec, random_frame(12, 2, rng), TimeGrid.uniform(1.5, 2000))


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
        for n in (2, 3, 4, 12):
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
            hams = hamiltonian_path(spec, mids)
            stepped = _propagate(lambda sl: hams[sl], psi0, grid)
            assert np.abs(path.frames - stepped.frames).max() <= 1e-11, label
            np.testing.assert_array_equal(path.frames[0], psi0)


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


def test_dimension_dispatch():
    assert dimension(LambdaParams(1.0, 0.0, 1.0).spec) == 3
    assert dimension(Constant(np.zeros((5, 5)))) == 5
