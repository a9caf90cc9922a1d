import dataclasses
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import run_case
from holosplit.config import matrix_to_json, write_sampled_hamiltonian
from holosplit.dynamics import (
    Constant,
    FramePath,
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
    random_closed_gauge,
    random_frame,
    random_hermitian,
    refutation_instance,
)
from holosplit import cli, dynamics, holonomy, linalg, sections
from holosplit.lambda_system import LambdaParams, case_setup
from holosplit.linalg import DEFAULT_TOL, Tolerances, expm_skew, frobenius, overlaps, products, skew_part
from holosplit.sections import InPhaseViolation, PhaseAnchored, build_section, gauge_transform, w_path

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


def k_mats(ns):
    """K(t) of a Lambda-case run, as generator_path forms it."""
    return generator_path(ns.section).k_mats


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
        assert np.abs(generator_path(sec).k_mats).max() == 0.0

    # 64 x 4 takes 16 grid points a chunk, 12 x 2 takes 455: three chunks each
    @pytest.mark.parametrize("n, m, steps", [(64, 4, 33), (12, 2, 911), (3, 2, 40)])
    def test_chunks_equal_one_whole_stack_sandwich(self, n, m, steps):
        spec, schrod, section = random_pipeline(1, n, m, steps, scale=0.7 / np.sqrt(n))
        gens = generator_path(section)
        hams = hamiltonian_path(spec, schrod.grid.times)
        # F is the one sandwich of H, over the Schrodinger frames
        np.testing.assert_array_equal(gens.f_mats, _sandwich(hams, schrod.frames))
        # K = V^dag F V, made exactly anti-Hermitian like every generator
        v = section.v
        np.testing.assert_array_equal(gens.k_mats, skew_part(products(overlaps(v, gens.f_mats), v)))
        # K agrees with the sandwich over the section frames L = S V to
        # roundoff: at most 1.7e-16 on these runs, entries <= 0.4
        assert np.abs(gens.k_mats - _sandwich(hams, section.path.frames)).max() <= 1e-15

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


def assert_same_report(a, b):
    for f in dataclasses.fields(a):
        np.testing.assert_array_equal(getattr(a, f.name), getattr(b, f.name), f.name)


class TestReportPairing:
    """separability_report pairs a section with the section's own
    Schrodinger path object, or with a path on its grid that holds the
    frames S R the section pairs with; it refuses any other."""

    def test_rejects_mismatched_grid(self, case_ii):
        other = propagate_frame(case_ii.spec, case_ii.psi0, TimeGrid.uniform(np.pi / 2, 8))
        with pytest.raises(ValueError, match=r"different grids \(lengths 4097, 9\)"):
            separability_report(case_ii.section, other, case_ii.spec)

    def test_rejects_schrodinger_path_of_another_length(self):
        spec, schrod, section = random_pipeline(1, steps=32)
        other = propagate_frame(spec, schrod.initial, TimeGrid.uniform(1.5, 16))
        with pytest.raises(ValueError, match=r"lengths 33, 17"):
            separability_report(section, other, spec)

    def test_rejects_frames_of_another_shape(self, case_ii):
        other = FramePath(case_ii.grid, case_ii.schrod.frames[:, :, :1])
        with pytest.raises(ValueError, match=r"shape \(4097, 3, 1\), section's \(4097, 3, 2\)"):
            separability_report(case_ii.section, other, case_ii.spec)

    def test_rejects_section_of_another_evolution(self, case_i, case_ii):
        # same grid and shape, but case i's frame spans {|3>, |b>} and case
        # ii's {|d>, |b>}
        assert np.array_equal(case_i.grid.times, case_ii.grid.times)
        with pytest.raises(ValueError, match="deviate by .* from the frames S R"):
            separability_report(case_ii.section, case_i.schrod, case_ii.spec)

    @pytest.mark.parametrize("q", [
        np.array([[np.cos(0.3), -np.sin(0.3)], [np.sin(0.3), np.cos(0.3)]], dtype=complex),
        np.diag([1.0, np.exp(0.2j)]),
        np.array([[0, 1], [1, 0]], dtype=complex),
        expm_skew(np.array([[0, 1e-8], [-1e-8, 1e-8j]])),
    ])
    def test_rejects_the_same_span_in_another_basis(self, q):
        # S Q spans the subspace of S at every grid time, yet the section
        # does not pair with it; ||S Q - S||_F = ||Q - I||_F
        ns = run_case("iii", steps=256)
        same_span = FramePath(ns.grid, products(ns.schrod.frames, q))
        dev = frobenius(q - np.eye(2))
        assert dev > 10 * DEFAULT_TOL.structure_tol
        with pytest.raises(ValueError, match=re.escape(f"deviate by {dev:.3e}")):
            separability_report(ns.section, same_span, ns.spec)

    def test_accepts_the_rotated_path_of_a_gauged_section(self, case_iii):
        # criterion 7: a gauge transform by V pairs the section with S V(0);
        # that path, and the section's own path object, give one report
        v = random_closed_gauge(case_iii.grid.times, 2, np.random.default_rng(1))
        moved = gauge_transform(case_iii.section, v)
        rotated = FramePath(case_iii.grid, np.einsum("tnj,jk->tnk", case_iii.schrod.frames, v[0]))
        assert_same_report(separability_report(moved, rotated, case_iii.spec),
                           separability_report(moved, moved.schrodinger, case_iii.spec))
        # a copy of S is not the path the gauged section pairs with
        with pytest.raises(ValueError, match="deviate by"):
            separability_report(moved, FramePath(case_iii.grid, case_iii.schrod.frames.copy()), case_iii.spec)

    def test_accepts_a_copy_of_the_own_path(self, case_ii):
        copy = FramePath(case_ii.grid, case_ii.schrod.frames.copy())
        assert_same_report(separability_report(case_ii.section, copy, case_ii.spec), case_ii.report)

    def test_rejects_a_spec_of_another_dimension(self, case_ii):
        # the section holds F, so spec is read only for its dimension
        with pytest.raises(ValueError, match="Hamiltonian dimension 2 does not match frame dimension 3"):
            separability_report(case_ii.section, case_ii.schrod, Constant(np.zeros((2, 2))))


class TestKwWfIdentity:
    def test_lambda_cases(self, case_i, case_ii, case_iii):
        for ns in (case_i, case_ii, case_iii):
            gens = generator_path(ns.section)
            w = w_path(ns.section)
            assert kw_wf_residual(gens, w) <= 1e-10

    def test_random_instance(self):
        spec, schrod, section = random_pipeline(seed=23, steps=4096)
        gens = generator_path(section)
        w = w_path(section)
        assert kw_wf_residual(gens, w) <= 1e-8

    def test_identity_at_start(self, case_i):
        gens = generator_path(case_i.section)
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
        gens = generator_path(case_ii.section)
        w_end = solve_anandan(gens)[-1]
        np.testing.assert_allclose(w_end, np.diag([1.0, 1j]), atol=1e-6)
        direct = w_path(case_ii.section)[-1]
        assert frobenius(w_end - direct) <= 1e-6

    def test_constant_generator_exponentiates(self, case_i):
        gens = generator_path(case_i.section)
        w_end = solve_anandan(gens)[-1]
        expected = expm_skew(gens.k_mats[0] * case_i.grid.tau)
        np.testing.assert_allclose(w_end, expected, atol=1e-10)

    def test_endpoint_is_the_report_w_final_bitwise(self, case_iii):
        # 1000 steps, not a power of two, so the pairing has odd levels
        spec, psi0 = refutation_instance(7, TimeGrid.uniform(2.0, 1000))
        schrod = propagate_frame(spec, psi0, spec.grid)
        section = build_section(PhaseAnchored(), schrod, spec)
        runs = [(case_iii.section, case_iii.schrod, case_iii.spec, case_iii.report),
                (section, schrod, spec, separability_report(section, schrod, spec))]
        for section, schrod, spec, report in runs:
            gens = generator_path(section)
            np.testing.assert_array_equal(solve_anandan(gens)[-1], report.w_final)

    def test_ae_consistency_scaling(self):
        # |W_ae(tau) - W_direct(tau)| <= 50 dt^2 + 1e-9 on smooth instances
        for steps in (512, 1024):
            spec, schrod, section = random_pipeline(seed=5, steps=steps, tau=1.5)
            gens = generator_path(section)
            dt = 1.5 / steps
            gap = frobenius(solve_anandan(gens)[-1] - w_path(section)[-1])
            assert gap <= 50 * dt**2 + 1e-9


class TestOrderedFactor:
    def test_zero_path(self):
        grid = TimeGrid.uniform(1.0, 16)
        zeros = np.zeros((len(grid), 3, 3), dtype=complex)
        np.testing.assert_array_equal(ordered_factor(zeros, grid, "forward"), np.eye(3))
        np.testing.assert_array_equal(ordered_factor(zeros, grid, "reverse"), np.eye(3))

    @pytest.mark.parametrize("direction", ["forward", "reverse"])
    def test_cumulative_path_starts_at_identity_and_ends_at_the_factor(self, case_iii, direction):
        gens = generator_path(case_iii.section)
        path = ordered_factor(gens.a_mats + gens.k_mats, case_iii.grid, direction, cumulative=True)
        assert path.shape == gens.a_mats.shape
        np.testing.assert_array_equal(path[0], np.eye(2))
        np.testing.assert_array_equal(
            path[-1], ordered_factor(gens.a_mats + gens.k_mats, case_iii.grid, direction))

    def test_commuting_family_order_independent(self):
        grid = TimeGrid.uniform(2.0, 128)
        diag = np.zeros((len(grid), 2, 2), dtype=complex)
        diag[:, 0, 0] = -1j * np.sin(grid.times)
        diag[:, 1, 1] = 1j * np.cos(grid.times)
        fwd = ordered_factor(diag, grid, "forward")
        rev = ordered_factor(diag, grid, "reverse")
        assert frobenius(fwd - rev) <= 1e-12

    def test_case_iii_factors(self, case_iii):
        gens = generator_path(case_iii.section)
        hol = ordered_factor(gens.a_mats, case_iii.grid, "forward")
        dyn = ordered_factor(gens.k_mats, case_iii.grid, "forward")
        np.testing.assert_allclose(hol, np.diag([1.0, -1j]), atol=1e-6)
        np.testing.assert_allclose(dyn, np.diag([1.0, -1.0]), atol=1e-10)
        np.testing.assert_allclose(hol @ dyn, np.diag([1.0, 1j]), atol=1e-6)

    def test_rejects_unknown_direction(self, case_iii):
        gens = generator_path(case_iii.section)
        with pytest.raises(ValueError, match="direction"):
            ordered_factor(gens.a_mats, case_iii.grid, "sideways")


class TestYuTongFactors:
    def test_product_reproduces_w_on_lambda_cases(self, case_i, case_ii, case_iii):
        for ns in (case_i, case_ii, case_iii):
            gens = generator_path(ns.section)
            g, d = yu_tong_factors(gens)
            w_end = w_path(ns.section)[-1]
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
        gens = generator_path(case_iii.section)
        _, d = yu_tong_factors(gens)
        dyn = ordered_factor(gens.k_mats, case_iii.grid, "forward")
        assert frobenius(d - dyn) <= 1e-6


class TestSeparabilityReport:
    def test_case_i_report(self, case_i_resonant):
        rep = case_i_resonant.report
        assert rep.classification == "case_i"
        np.testing.assert_allclose(rep.time_evolution, -np.eye(2), atol=1e-8)
        gens = generator_path(case_i_resonant.section)
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
        gens = generator_path(section)
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
        gens = generator_path(case_iii.section)
        assert max_commutator_scan(gens.a_mats, gens.k_mats) <= 1e-12

    def test_scan_indices_strictly_increasing(self, monkeypatch):
        # with A(t) = t the first product's left operand lists the scanned t
        scanned = []

        def record(a, k):
            scanned.append(a[:, 0, 0, 0].real.astype(int))
            return linalg.products(a, k)

        monkeypatch.setattr(holonomy, "products", record)
        for npts in range(2, 5000):
            scanned.clear()
            t = np.arange(npts, dtype=complex)[:, None, None]
            max_commutator_scan(t, t)
            idx = scanned[0]
            assert idx.size == min(COMMUTATOR_SCAN_LIMIT, npts), npts
            assert idx[0] == 0 and idx[-1] == npts - 1, npts
            assert (np.diff(idx) > 0).all(), npts

    @pytest.mark.parametrize("npts", [1, 2, 63, 64, 65, 300, 4097])
    def test_matches_the_deduplicated_scan_bitwise(self, npts):
        rng = np.random.default_rng(npts)
        a, k = random_skew_stack(rng, npts, 2, 3), random_skew_stack(rng, npts, 2, 3)
        idx = np.unique(np.linspace(0, npts - 1, min(COMMUTATOR_SCAN_LIMIT, npts)).round().astype(int))
        sa, sk = a[idx][:, None], k[idx][None]
        ref = float(np.linalg.norm(linalg.products(sa, sk) - linalg.products(sk, sa), axis=(2, 3)).max())
        assert max_commutator_scan(a, k) == ref

    def test_a_decompose_leaves_numpy_ma_unloaded(self, tmp_path):
        # np.unique imports numpy.ma on its first call in a process
        spec, psi0 = refutation_instance(7, TimeGrid.uniform(2.0, 256))
        write_sampled_hamiltonian(tmp_path / "ham.json", spec.grid.times, spec.samples)
        (tmp_path / "c.json").write_text(json.dumps({
            "system": {"kind": "sampled", "path": str(tmp_path / "ham.json")},
            "subspace": {"matrix": matrix_to_json(psi0)},
            "section": {"rule": "phase_anchored"},
            "grid": {"tau": 2.0, "steps": 256},
        }))
        script = ("import sys; from holosplit.cli import main; "
                  f"code = main(['decompose', '--config', {str(tmp_path / 'c.json')!r}, "
                  f"'--out', {str(tmp_path / 'r.json')!r}]); "
                  "print(code, 'numpy.ma' in sys.modules)")
        src = str(Path(holonomy.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True,
                             check=True, timeout=120)
        assert out.stdout.splitlines()[-1] == "0 False"


class TestDecomposeWork:
    """A decompose forms each midpoint H of the propagation once and samples
    H at the grid points once per chunk of the F sandwich in build_section,
    and forms no N x M section frames."""

    @pytest.fixture
    def sampled(self, monkeypatch):
        calls = []
        real = hamiltonian_path

        def counting(spec, times):
            calls.append(len(times))
            return real(spec, times)

        def no_frames(section):
            raise AssertionError("the N x M section frames were formed")

        monkeypatch.setattr(dynamics, "hamiltonian_path", counting)
        monkeypatch.setattr(sections, "hamiltonian_path", counting)
        monkeypatch.setattr(sections.SectionPath, "path", property(no_frames))
        return calls

    @pytest.fixture
    def blended(self, monkeypatch):
        counts = []
        real = dynamics._blend

        def counting(a, b, w, out=None, tmp=None):
            counts.append(np.size(w))
            return real(a, b, w, out, tmp)

        monkeypatch.setattr(dynamics, "_blend", counting)
        return counts

    @pytest.mark.parametrize("n, m, steps", [(64, 4, 64), (4, 2, 256)])
    def test_library_decompose(self, sampled, blended, n, m, steps):
        rng = np.random.default_rng(2)
        grid = TimeGrid.uniform(1.0, steps)
        spec = cosine_drive(random_hermitian(n, rng, 0.7 / np.sqrt(n)),
                            random_hermitian(n, rng, 0.7 / np.sqrt(n)), grid)
        schrod = propagate_frame(spec, random_frame(n, m, rng), grid)
        report = separability_report(build_section(PhaseAnchored(), schrod, spec), schrod, spec)
        assert report.classification == "non_separable"
        # every midpoint lies between two samples and is blended once: one
        # step at a time from N = 20, else one stack per propagation chunk,
        # which hamiltonian_path samples
        steps_per_chunk = [sl.stop - sl.start for sl in dynamics._chunks(steps, n)]
        assert blended == ([1] * steps if n >= 20 else steps_per_chunk)
        # the F sandwich reads the samples once per chunk of grid points; 64
        # x 4 takes 16 rows a chunk, so 5 chunks of grid points
        f_chunks = [sl.stop - sl.start for sl in dynamics._chunks(steps + 1, n)]
        assert sampled == (f_chunks if n >= 20 else steps_per_chunk + f_chunks)

    def test_lambda_decompose(self, sampled):
        p = LambdaParams(omega0=SQRT3, delta=1.0, tau=np.pi / 2)
        for case in ("i", "ii", "iii"):
            sampled.clear()
            spec, psi0, rule = case_setup(case, p)
            grid = TimeGrid.uniform(p.tau, 256)
            schrod = propagate_frame(spec, psi0, grid)
            separability_report(build_section(rule, schrod, spec), schrod, spec)
            # the exact Constant route samples no H; F takes one chunk
            assert sampled == [257]

    def test_commands(self, sampled, tmp_path):
        spec, psi0 = refutation_instance(7, TimeGrid.uniform(2.0, 256))
        write_sampled_hamiltonian(tmp_path / "ham.json", spec.grid.times, spec.samples)
        config = tmp_path / "c.json"
        config.write_text(json.dumps({
            "system": {"kind": "sampled", "path": str(tmp_path / "ham.json")},
            "subspace": {"matrix": matrix_to_json(psi0)},
            "section": {"rule": "phase_anchored"},
            "grid": {"tau": 2.0, "steps": 256},
        }))
        argvs = (["decompose", "--out", str(tmp_path / "r.json")], ["separability"],
                 ["export", "--out", str(tmp_path / "t.csv")], ["gauge-check"])
        # one propagation chunk and one F chunk per run; gauge-check rotates
        # the F of the one section it builds
        for argv in argvs:
            sampled.clear()
            assert cli.main([argv[0], "--config", str(config), *argv[1:]]) in (0, 1)
            assert sampled == [256, 257]

    def test_a_built_section_needs_no_hamiltonian(self, monkeypatch):
        spec, schrod, section = random_pipeline(3, steps=64)

        def refuse(spec, times):
            raise AssertionError("H was sampled after build_section")

        for module in (dynamics, sections, holonomy):
            monkeypatch.setattr(module, "hamiltonian_path", refuse)
        generator_path(section)
        moved = gauge_transform(section, random_closed_gauge(schrod.grid.times, 2, np.random.default_rng(3)))
        for sec in (section, moved):
            separability_report(sec, schrod, spec)


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
