import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import run_case
from holosplit.dynamics import (
    Constant,
    TimeGrid,
    _sandwich,
    hamiltonian_path,
    propagate_frame,
)
from holosplit.holonomy import (
    COMMUTATOR_SCAN_LIMIT,
    GeneratorPath,
    _classify,
    _commutator_bound,
    connection_path,
    generator_path,
    kw_wf_residual,
    max_commutator_scan,
    ordered_factor,
    separability_report,
    solve_anandan,
    trivial_shift_check,
    yu_tong_factors,
)
from holosplit.instances import (
    cosine_drive,
    random_frame,
    random_hermitian,
    refutation_instance,
)
from holosplit import linalg
from holosplit.lambda_system import LambdaParams, case_setup
from holosplit.linalg import DEFAULT_TOL, Tolerances, expm_skew, frobenius, overlaps
from holosplit.sections import InPhaseViolation, PhaseAnchored, build_section, w_path

SQRT3 = np.sqrt(3.0)


def random_pipeline(seed, n=4, m=2, steps=512, tau=1.5, scale=0.45):
    rng = np.random.default_rng(seed)
    grid = TimeGrid.uniform(tau, steps)
    spec = cosine_drive(random_hermitian(n, rng, scale), random_hermitian(n, rng, scale), grid)
    schrod = propagate_frame(spec, random_frame(n, m, rng), grid)
    section = build_section(PhaseAnchored(), schrod, spec)
    return spec, schrod, section


class TestConnectionPath:
    def test_fixed_section_has_zero_connection(self, case_i):
        assert np.abs(connection_path(case_i.section)).max() == 0.0

    def test_case_ii_connection_is_diagonal_second_entry(self, case_ii):
        a = connection_path(case_ii.section)
        assert np.abs(a[:, 0, 0]).max() <= 1e-10
        assert np.abs(a[:, 0, 1]).max() <= 1e-10
        assert np.abs(a[:, 1, 0]).max() <= 1e-10
        assert np.abs(a[:, 1, 1]).max() > 0.1

    def test_zero_hamiltonian_connection_vanishes(self):
        psi0 = np.eye(3)[:, :2].astype(complex)
        spec = Constant(np.zeros((3, 3)))
        s = propagate_frame(spec, psi0, TimeGrid.uniform(1.0, 32))
        sec = build_section(PhaseAnchored(), s, spec)
        assert np.abs(connection_path(sec)).max() == 0.0

    def test_needs_three_points(self):
        psi0 = np.eye(2)[:, :1].astype(complex)
        spec = Constant(np.zeros((2, 2)))
        s = propagate_frame(spec, psi0, TimeGrid.uniform(1.0, 1))
        sec = build_section(PhaseAnchored(), s, spec)
        with pytest.raises(ValueError, match="3 points"):
            connection_path(sec)


def k_mats(ns, spec=None):
    """K(t) of a Lambda-case run, as generator_path forms it."""
    return generator_path(ns.section, ns.schrod, ns.spec if spec is None else spec).k_mats


class TestKPath:
    def test_case_ii_dynamical_matrix_vanishes(self, case_ii):
        assert np.abs(k_mats(case_ii)).max() <= 1e-12

    def test_case_iii_constant_value(self, case_iii):
        k = k_mats(case_iii)
        expected = np.diag([0.0, -2j])
        assert np.abs(k - expected).max() <= 1e-12

    def test_zero_hamiltonian(self):
        psi0 = np.eye(3)[:, :2].astype(complex)
        spec = Constant(np.zeros((3, 3)))
        s = propagate_frame(spec, psi0, TimeGrid.uniform(1.0, 16))
        sec = build_section(PhaseAnchored(), s, spec)
        assert np.abs(generator_path(sec, s, spec).k_mats).max() == 0.0

    def test_rejects_dimension_mismatch(self, case_ii):
        with pytest.raises(ValueError, match="dimension"):
            k_mats(case_ii, Constant(np.zeros((2, 2))))

    # 64 x 4 takes 16 grid points a chunk, 12 x 2 takes 455: three chunks each
    @pytest.mark.parametrize("n, m, steps", [(64, 4, 33), (12, 2, 911), (3, 2, 40)])
    def test_chunks_equal_one_whole_stack_sandwich(self, n, m, steps):
        spec, schrod, section = random_pipeline(1, n, m, steps, scale=0.7 / np.sqrt(n))
        gens = generator_path(section, schrod, spec)
        hams = hamiltonian_path(spec, schrod.grid.times)
        np.testing.assert_array_equal(gens.k_mats, _sandwich(hams, section.path.frames))
        np.testing.assert_array_equal(gens.f_mats, _sandwich(hams, schrod.frames))

    def test_rejects_schrodinger_path_of_another_length(self):
        spec, schrod, section = random_pipeline(1, steps=32)
        other = propagate_frame(spec, schrod.initial, TimeGrid.uniform(1.5, 16))
        with pytest.raises(ValueError, match="length"):
            generator_path(section, other, spec)

    def test_pipeline_peak_below_one_hamiltonian_stack(self):
        # 64 x 4 at 512 steps: a (512, 64, 64) complex stack of H is 33.5 MB
        import tracemalloc

        rng = np.random.default_rng(3)
        grid = TimeGrid.uniform(1.0, 512)
        scale = 0.7 / 8
        spec = cosine_drive(random_hermitian(64, rng, scale), random_hermitian(64, rng, scale), grid)
        psi0 = random_frame(64, 4, rng)
        tracemalloc.start()
        try:
            schrod = propagate_frame(spec, psi0, grid)
            section = build_section(PhaseAnchored(), schrod, spec)
            separability_report(section, schrod, spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 512 * 64 * 64 * 16


class TestKwWfIdentity:
    def test_lambda_cases(self, case_i, case_ii, case_iii):
        for ns in (case_i, case_ii, case_iii):
            gens = generator_path(ns.section, ns.schrod, ns.spec)
            w = w_path(ns.section, ns.schrod)
            assert kw_wf_residual(gens, w) <= 1e-10

    def test_random_instance(self):
        spec, schrod, section = random_pipeline(seed=23, steps=4096)
        gens = generator_path(section, schrod, spec)
        w = w_path(section, schrod)
        assert kw_wf_residual(gens, w) <= 1e-8

    def test_identity_at_start(self, case_i):
        gens = generator_path(case_i.section, case_i.schrod, case_i.spec)
        w0 = np.eye(2, dtype=complex)
        assert frobenius(gens.k_mats[0] @ w0 - w0 @ gens.f_mats[0]) <= 1e-12


class TestSolveAnandan:
    def test_zero_generator_gives_identity(self):
        grid = TimeGrid.uniform(1.0, 64)
        zeros = np.zeros((len(grid), 2, 2), dtype=complex)
        gens = GeneratorPath(grid, zeros, zeros, zeros)
        w = solve_anandan(gens)
        assert np.abs(w - np.eye(2)).max() == 0.0

    def test_case_ii_endpoint_matches_direct(self, case_ii):
        gens = generator_path(case_ii.section, case_ii.schrod, case_ii.spec)
        w_end = solve_anandan(gens)[-1]
        np.testing.assert_allclose(w_end, np.diag([1.0, 1j]), atol=1e-6)
        direct = w_path(case_ii.section, case_ii.schrod)[-1]
        assert frobenius(w_end - direct) <= 1e-6

    def test_constant_generator_exponentiates(self, case_i):
        gens = generator_path(case_i.section, case_i.schrod, case_i.spec)
        w_end = solve_anandan(gens)[-1]
        expected = expm_skew(gens.k_mats[0] * case_i.grid.tau)
        np.testing.assert_allclose(w_end, expected, atol=1e-10)

    def test_ae_consistency_scaling(self):
        # |W_ae(tau) - W_direct(tau)| <= 50 dt^2 + 1e-9 on smooth instances
        for steps in (512, 1024):
            spec, schrod, section = random_pipeline(seed=5, steps=steps, tau=1.5)
            gens = generator_path(section, schrod, spec)
            dt = 1.5 / steps
            gap = frobenius(solve_anandan(gens)[-1] - w_path(section, schrod)[-1])
            assert gap <= 50 * dt**2 + 1e-9


class TestOrderedFactor:
    def test_zero_path(self):
        grid = TimeGrid.uniform(1.0, 16)
        zeros = np.zeros((len(grid), 3, 3), dtype=complex)
        np.testing.assert_array_equal(ordered_factor(zeros, grid, "forward"), np.eye(3))
        np.testing.assert_array_equal(ordered_factor(zeros, grid, "reverse"), np.eye(3))

    def test_commuting_family_order_independent(self):
        grid = TimeGrid.uniform(2.0, 128)
        diag = np.zeros((len(grid), 2, 2), dtype=complex)
        diag[:, 0, 0] = -1j * np.sin(grid.times)
        diag[:, 1, 1] = 1j * np.cos(grid.times)
        fwd = ordered_factor(diag, grid, "forward")
        rev = ordered_factor(diag, grid, "reverse")
        assert frobenius(fwd - rev) <= 1e-12

    def test_case_iii_factors(self, case_iii):
        gens = generator_path(case_iii.section, case_iii.schrod, case_iii.spec)
        hol = ordered_factor(gens.a_mats, case_iii.grid, "forward")
        dyn = ordered_factor(gens.k_mats, case_iii.grid, "forward")
        np.testing.assert_allclose(hol, np.diag([1.0, -1j]), atol=1e-6)
        np.testing.assert_allclose(dyn, np.diag([1.0, -1.0]), atol=1e-10)
        np.testing.assert_allclose(hol @ dyn, np.diag([1.0, 1j]), atol=1e-6)

    def test_rejects_unknown_direction(self, case_iii):
        gens = generator_path(case_iii.section, case_iii.schrod, case_iii.spec)
        with pytest.raises(ValueError, match="direction"):
            ordered_factor(gens.a_mats, case_iii.grid, "sideways")


class TestYuTongFactors:
    def test_product_reproduces_w_on_lambda_cases(self, case_i, case_ii, case_iii):
        for ns in (case_i, case_ii, case_iii):
            gens = generator_path(ns.section, ns.schrod, ns.spec)
            g, d = yu_tong_factors(gens)
            w_end = w_path(ns.section, ns.schrod)[-1]
            assert frobenius(w_end - g @ d) <= 1e-6

    def test_product_holds_where_separation_fails(self):
        spec, psi0 = refutation_instance(seed=7)
        grid = TimeGrid.uniform(2.0, 4096)
        schrod = propagate_frame(spec, psi0, grid)
        section = build_section(PhaseAnchored(), schrod, spec)
        report = separability_report(section, schrod, spec)
        assert report.product_residual <= 1e-6
        assert report.separation_residual > 1e-2

    def test_case_iii_d_equals_forward_dynamical_factor(self, case_iii):
        # diagonal commuting family: reverse and forward orderings coincide,
        # and F = K on this section up to the frame change
        gens = generator_path(case_iii.section, case_iii.schrod, case_iii.spec)
        _, d = yu_tong_factors(gens)
        dyn = ordered_factor(gens.k_mats, case_iii.grid, "forward")
        assert frobenius(d - dyn) <= 1e-6


class TestSeparabilityReport:
    def test_case_i_report(self, case_i_resonant):
        rep = case_i_resonant.report
        assert rep.classification == "case_i"
        np.testing.assert_allclose(rep.time_evolution, -np.eye(2), atol=1e-8)
        gens = generator_path(case_i_resonant.section, case_i_resonant.schrod,
                              case_i_resonant.spec)
        expected = ordered_factor(gens.k_mats, case_i_resonant.grid, "forward")
        np.testing.assert_allclose(rep.time_evolution, expected, atol=1e-9)

    def test_case_ii_report(self, case_ii):
        rep = case_ii.report
        assert rep.classification == "case_ii"
        assert rep.separation_residual <= 1e-6
        np.testing.assert_allclose(rep.w_direct, np.diag([1.0, 1j]), atol=1e-8)
        np.testing.assert_allclose(rep.dynamical_factor, np.eye(2), atol=1e-10)

    def test_case_iii_report(self, case_iii):
        rep = case_iii.report
        assert rep.classification == "case_iii"
        assert rep.max_commutator <= 1e-8
        assert rep.separation_residual <= 1e-6

    def test_generic_instance_not_separable(self):
        spec, schrod, section = random_pipeline(seed=2, steps=4096, tau=2.0)
        rep = separability_report(section, schrod, spec)
        assert rep.classification == "non_separable"
        assert rep.max_commutator > 1e-6
        assert rep.product_residual <= 1e-6

    def test_in_phase_violation_raises(self):
        # drive the bright column almost orthogonal to its start
        phidot = np.hypot(0.05, 1.0)
        tau = (np.pi / 2) / phidot  # phi_tau = pi/2: overlap ~ |cos gamma| ~ 0.05
        p = LambdaParams(omega0=1.0, delta=0.05, tau=tau)
        spec = p.spec
        psi0 = np.stack([p.dark_state, p.bright_state], axis=1)
        grid = TimeGrid.uniform(tau, 512)
        schrod = propagate_frame(spec, psi0, grid)
        section = build_section(PhaseAnchored(), schrod, spec)
        tight = Tolerances(positivity_tol=0.5)
        with pytest.raises(InPhaseViolation):
            separability_report(section, schrod, spec, tight)

    def test_reconstruction_invariant(self, case_i, case_ii, case_iii):
        for ns in (case_i, case_ii, case_iii):
            u_end = overlaps(ns.schrod.initial, ns.schrod.frames)[-1]
            assert frobenius(ns.report.time_evolution - u_end) <= 1e-9

    def test_fixed_run_evaluates_the_drift_once(self, monkeypatch):
        # the Fixed precondition and the case_i verdict read one drift
        # max_t ||S(0)S(0)^dag - S(t)S(t)^dag||, the only subspace gap taken
        # of the single frame S(0) against the whole path
        drifts = []

        def counting_gap(a, b):
            if np.ndim(a) == 2:
                drifts.append(np.shape(b))
            return linalg.subspace_gap(a, b)

        for module in ("dynamics", "sections", "holonomy"):
            monkeypatch.setattr(f"holosplit.{module}.subspace_gap", counting_gap, raising=False)
        p = LambdaParams(omega0=SQRT3, delta=1.0, tau=np.pi / 2)
        spec, psi0, rule = case_setup("i", p)
        schrod = propagate_frame(spec, psi0, TimeGrid.uniform(p.tau, 512))
        report = separability_report(build_section(rule, schrod, spec), schrod, spec)
        assert report.classification == "case_i"
        assert drifts == [(513, 3, 2)]

    def test_commutator_sufficiency(self, case_i, case_ii, case_iii):
        for ns in (case_i, case_ii, case_iii):
            if ns.report.max_commutator <= 1e-9:
                assert ns.report.separation_residual <= 1e-6

    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 10_000))
    def test_generators_anti_hermitian(self, seed):
        spec, schrod, section = random_pipeline(seed=seed, steps=128, tau=1.0)
        gens = generator_path(section, schrod, spec)
        for mats in (gens.a_mats, gens.k_mats, gens.f_mats):
            res = np.linalg.norm(mats + mats.conj().swapaxes(1, 2), axis=(1, 2)).max()
            assert res <= 1e-9

    def test_product_residual_identity_across_instances(self):
        # the product form is an identity; at the canonical 4096-step
        # resolution its residual sits at the integrator error level
        for seed in (1, 2, 3):
            spec, schrod, section = random_pipeline(seed=seed, steps=4096, tau=2.0)
            rep = separability_report(section, schrod, spec)
            assert rep.product_residual <= 1e-6


class TestMaxCommutatorScan:
    def test_includes_endpoints(self):
        npts = 300
        a = np.zeros((npts, 2, 2), dtype=complex)
        k = np.zeros((npts, 2, 2), dtype=complex)
        # non-commuting pair hidden at the two endpoints only
        a[0] = -1j * np.array([[0, 1], [1, 0]])
        k[-1] = -1j * np.array([[1, 0], [0, -1]])
        assert max_commutator_scan(a, k) == pytest.approx(2 * np.sqrt(2))

    def test_zero_for_commuting_paths(self, case_iii):
        gens = generator_path(case_iii.section, case_iii.schrod, case_iii.spec)
        assert max_commutator_scan(gens.a_mats, gens.k_mats) <= 1e-12


@pytest.fixture(scope="module")
def refutation_7_schrodinger():
    """Schrodinger path of refutation_instance(7): 4097 points, moving subspace."""
    spec, psi0 = refutation_instance(7)
    return propagate_frame(spec, psi0, spec.grid)


def diagonal_pair(times):
    """A(t) and K(t), both diagonal with distinct time-dependent entries."""
    a = np.zeros((times.size, 2, 2), dtype=complex)
    k = np.zeros((times.size, 2, 2), dtype=complex)
    a[:, 0, 0], a[:, 1, 1] = 1j * np.sin(times), -1j * np.cos(times)
    k[:, 0, 0], k[:, 1, 1] = -1j * (1 + times), 1j * times**2
    return a, k


def random_skew_stack(rng, npts, m, rank):
    """npts anti-Hermitian m x m matrices spanning `rank` random directions."""
    basis = rng.normal(size=(rank, m, m)) + 1j * rng.normal(size=(rank, m, m))
    basis = basis - basis.conj().swapaxes(1, 2)
    return np.einsum("tr,rij->tij", rng.normal(size=(npts, rank)), basis)


class TestCommutatorBound:
    def test_blip_between_scan_samples_is_non_separable(self, refutation_7_schrodinger):
        schrod = refutation_7_schrodinger
        times = schrod.grid.times
        a, k = diagonal_pair(times)
        k[1000] += -1j * np.array([[0, 1], [1, 0]])
        scanned = np.linspace(0, times.size - 1, COMMUTATOR_SCAN_LIMIT).round()
        assert times.size == 4097 and 1000 not in scanned
        # the sampled scan cannot see the blip; the bound over every pair can
        assert max_commutator_scan(a, k) == 0.0
        gens = GeneratorPath(schrod.grid, a, k, k)
        assert _commutator_bound(a, k) > 1.0
        assert _classify(schrod, gens, DEFAULT_TOL) == "non_separable"

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 40), st.sampled_from([2, 3]))
    def test_bound_dominates_every_pair(self, seed, npts, m):
        rng = np.random.default_rng(seed)
        a = random_skew_stack(rng, npts, m, int(rng.integers(1, m * m + 1)))
        k = random_skew_stack(rng, npts, m, int(rng.integers(1, m * m + 1)))
        pairs = a[:, None] @ k[None] - k[None] @ a[:, None]
        brute = np.linalg.norm(pairs, axis=(2, 3)).max()
        scale = np.linalg.norm(a, axis=(1, 2)).max() * np.linalg.norm(k, axis=(1, 2)).max()
        assert _commutator_bound(a, k) >= brute - 1e-12 * scale

    def test_commuting_family_in_rotated_basis(self, refutation_7_schrodinger):
        schrod = refutation_7_schrodinger
        rng = np.random.default_rng(4)
        q, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
        a, k = diagonal_pair(schrod.grid.times)
        a, k = q @ a @ q.conj().T, q @ k @ q.conj().T
        scale = np.linalg.norm(a, axis=(1, 2)).max() * np.linalg.norm(k, axis=(1, 2)).max()
        assert _commutator_bound(a, k) <= 1e-12 * scale
        gens = GeneratorPath(schrod.grid, a, k, k)
        assert _classify(schrod, gens, DEFAULT_TOL) == "case_iii"


class TestTrivialShift:
    def test_zero_shift(self, case_ii):
        grid = TimeGrid.uniform(np.pi / 2, 256)
        res = trivial_shift_check(case_ii.spec, case_ii.psi0, lambda t: 0.0, grid)
        assert res <= 1e-12

    def test_lambda_detuning_shift(self, case_ii):
        grid = TimeGrid.uniform(np.pi / 2, 4096)
        res = trivial_shift_check(case_ii.spec, case_ii.psi0, lambda t: 1.0, grid)
        assert res <= 1e-7

    def test_random_constant_hamiltonian(self):
        rng = np.random.default_rng(9)
        spec = Constant(random_hermitian(3, rng))
        psi0 = random_frame(3, 2, rng)
        grid = TimeGrid.uniform(2.0, 4096)
        res = trivial_shift_check(spec, psi0, lambda t: 0.3, grid)
        assert res <= 1e-7

    def test_sampled_drive_over_several_chunks(self):
        # 12 levels take 455 steps a chunk, so the shifted run has three
        rng = np.random.default_rng(9)
        grid = TimeGrid.uniform(2.0, 1000)
        spec = cosine_drive(random_hermitian(12, rng, 0.3), random_hermitian(12, rng, 0.3), grid)
        res = trivial_shift_check(spec, random_frame(12, 2, rng), lambda t: 0.5 + np.sin(t), grid)
        assert res <= 1e-10
