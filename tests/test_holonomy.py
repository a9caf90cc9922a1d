import dataclasses
import json
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import refutation_run, run_case, section_frames, trivial_shift_check
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
    _classify,
    _commutator_bound,
    decompose,
    kw_wf_residual,
    max_commutator_scan,
    ordered_factor,
    separability_report,
    solve_anandan,
    yu_tong_factors,
)
from holosplit.instances import (
    cosine_drive,
    random_closed_gauge,
    random_frame,
    random_hermitian,
    random_nonabelian_loop,
    refutation_instance,
)
from holosplit import cli, dynamics, holonomy, linalg, sections
from holosplit.lambda_system import LambdaParams, case_iii_analytic, case_setup
from holosplit.linalg import DEFAULT_TOL, Tolerances, expm_skew, frobenius, overlaps, products, skew_part
from holosplit.sections import (
    Fixed,
    InPhaseViolation,
    PhaseAnchored,
    SectionError,
    build_section,
    gauge_transform,
    w_path,
)

SQRT3 = np.sqrt(3.0)


def random_instance(seed, n=4, m=2, steps=512, tau=1.5, scale=0.45):
    """(spec, psi0, grid) of a seeded cosine drive on n levels."""
    rng = np.random.default_rng(seed)
    grid = TimeGrid.uniform(tau, steps)
    spec = cosine_drive(random_hermitian(n, rng, scale), random_hermitian(n, rng, scale), grid)
    return spec, random_frame(n, m, rng), grid


def random_pipeline(seed, **kw):
    """(spec, section, report) of a phase-anchored decompose of random_instance."""
    spec, psi0, grid = random_instance(seed, **kw)
    return (spec, *decompose(spec, psi0, PhaseAnchored(), grid))


def three_calls(spec, psi0, rule, grid):
    """The run decompose makes, spelled out: propagate, build, report."""
    schrod = propagate_frame(spec, psi0, grid)
    section = build_section(rule, schrod, spec)
    return section, separability_report(section, schrod, spec)


class TestConnectionPath:
    def test_fixed_section_has_zero_connection(self, case_i):
        assert np.abs(case_i.section.a).max() == 0.0

    def test_case_ii_connection_is_diagonal_second_entry(self, case_ii):
        a = case_ii.section.a
        assert np.abs(a[:, 0, 0]).max() <= 1e-10
        assert np.abs(a[:, 0, 1]).max() <= 1e-10
        assert np.abs(a[:, 1, 0]).max() <= 1e-10
        assert np.abs(a[:, 1, 1]).max() > 0.1

    def test_zero_hamiltonian_connection_vanishes(self):
        psi0 = np.eye(3)[:, :2].astype(complex)
        spec = Constant(np.zeros((3, 3)))
        s = propagate_frame(spec, psi0, TimeGrid.uniform(1.0, 32))
        sec = build_section(PhaseAnchored(), s, spec)
        assert np.abs(sec.a).max() == 0.0

    @pytest.mark.parametrize("rule", [Fixed(), PhaseAnchored()])
    def test_needs_three_points(self, rule):
        # the section forms A, so a 2-point grid fails at construction
        psi0 = np.eye(2)[:, :1].astype(complex)
        spec = Constant(np.zeros((2, 2)))
        s = propagate_frame(spec, psi0, TimeGrid.uniform(1.0, 1))
        with pytest.raises(ValueError, match="3 points"):
            build_section(rule, s, spec)


class TestKPath:
    def test_case_ii_dynamical_matrix_vanishes(self, case_ii):
        assert np.abs(case_ii.section.k).max() <= 1e-12

    def test_case_iii_constant_value(self, case_iii):
        k = case_iii.section.k
        expected = np.diag([0.0, -2j])
        assert np.abs(k - expected).max() <= 1e-12

    def test_zero_hamiltonian(self):
        psi0 = np.eye(3)[:, :2].astype(complex)
        spec = Constant(np.zeros((3, 3)))
        s = propagate_frame(spec, psi0, TimeGrid.uniform(1.0, 16))
        sec = build_section(PhaseAnchored(), s, spec)
        assert np.abs(sec.k).max() == 0.0

    # 64 x 4 takes 16 grid points a chunk, 12 x 2 takes 455: three chunks each
    @pytest.mark.parametrize("n, m, steps", [(64, 4, 33), (12, 2, 911), (3, 2, 40)])
    def test_chunks_equal_one_whole_stack_sandwich(self, n, m, steps):
        spec, section, _ = random_pipeline(1, n=n, m=m, steps=steps, scale=0.7 / np.sqrt(n))
        schrod = section.schrodinger
        hams = hamiltonian_path(spec, schrod.grid.times)
        # F is the one sandwich of H, over the Schrodinger frames
        np.testing.assert_array_equal(section.f, _sandwich(hams, schrod.frames))
        # K = V^dag F V, made exactly anti-Hermitian like every generator,
        # also for the rotated F and new V of a gauge transform
        moved = gauge_transform(section, random_closed_gauge(schrod.grid.times, m, np.random.default_rng(2)))
        for sec in (section, moved):
            np.testing.assert_array_equal(sec.k, skew_part(products(overlaps(sec.v, sec.f), sec.v)))
        # K agrees with the sandwich over the section frames L = S V to
        # roundoff: at most 1.7e-16 on these runs, entries <= 0.4
        assert np.abs(section.k - _sandwich(hams, section_frames(section))).max() <= 1e-15

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
            decompose(spec, psi0, PhaseAnchored(), grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 512 * 64 * 64 * 16


def assert_exact_generators(section):
    """F, A and K of a section read-only and exactly anti-Hermitian."""
    for mats in (section.f, section.a, section.k):
        assert not mats.flags.writeable
        assert np.abs(mats + mats.conj().swapaxes(1, 2)).max() == 0.0


def assert_same_report(a, b):
    for f in dataclasses.fields(a):
        np.testing.assert_array_equal(getattr(a, f.name), getattr(b, f.name), f.name)


class TestReportPairing:
    """separability_report takes the section's own Schrodinger path object,
    the one W = L^dag S is defined against, and refuses any other, however
    close its frames."""

    def test_rejects_a_copy_of_the_own_path(self, case_ii):
        copy = FramePath(case_ii.grid, case_ii.schrod.frames.copy())
        # the message names both objects
        msg = f"a FramePath at {id(copy):#x}) is not section.schrodinger (at {id(case_ii.schrod):#x})"
        with pytest.raises(ValueError, match=re.escape(msg)):
            separability_report(case_ii.section, copy, case_ii.spec)

    def test_rejects_the_rotated_path_of_a_gauged_section(self, case_iii):
        # a gauge transform by V pairs the section with the frames S V(0) and
        # keeps S itself; a path holding S V(0) is another object
        v = random_closed_gauge(case_iii.grid.times, 2, np.random.default_rng(1))
        moved = gauge_transform(case_iii.section, v)
        assert moved.schrodinger is case_iii.schrod
        rotated = FramePath(case_iii.grid, products(case_iii.schrod.frames, v[0]))
        with pytest.raises(ValueError, match="is not section.schrodinger"):
            separability_report(moved, rotated, case_iii.spec)
        assert separability_report(moved, moved.schrodinger, case_iii.spec).classification == "case_iii"

    def test_rejects_a_path_on_another_grid(self, case_ii):
        other = propagate_frame(case_ii.spec, case_ii.psi0, TimeGrid.uniform(np.pi / 2, 8))
        with pytest.raises(ValueError, match="is not section.schrodinger"):
            separability_report(case_ii.section, other, case_ii.spec)

    def test_rejects_the_path_of_another_evolution(self, case_i, case_ii):
        # same grid and shape, but case i's frame spans {|3>, |b>} and case
        # ii's {|d>, |b>}
        assert np.array_equal(case_i.grid.times, case_ii.grid.times)
        with pytest.raises(ValueError, match="is not section.schrodinger"):
            separability_report(case_ii.section, case_i.schrod, case_ii.spec)

    def test_rejects_a_spec_of_another_dimension(self, case_ii):
        # the section holds F, so spec is read only for its dimension
        with pytest.raises(ValueError, match="Hamiltonian dimension 2 does not match frame dimension 3"):
            separability_report(case_ii.section, case_ii.schrod, Constant(np.zeros((2, 2))))


class TestDecompose:
    """decompose is the three-call run: propagate, build_section and
    separability_report, bit for bit."""

    @pytest.mark.parametrize("case", ["i", "ii", "iii", "refutation 7"])
    def test_equals_the_three_calls(self, case):
        if case == "refutation 7":
            spec, psi0 = refutation_instance(7)
            args = (spec, psi0, PhaseAnchored(), spec.grid)
        else:
            p = LambdaParams(omega0=SQRT3, delta=1.0, tau=np.pi / 2, eta=np.pi / 3)
            spec, psi0, rule = case_setup(case, p)
            args = (spec, psi0, rule, TimeGrid.uniform(p.tau, 4096))
        section, report = decompose(*args)
        ref_section, ref_report = three_calls(*args)
        assert_same_report(report, ref_report)
        for name in ("v", "overlap", "f", "in_phase_margin", "min_intermediate_margin"):
            np.testing.assert_array_equal(getattr(section, name), getattr(ref_section, name), name)
        np.testing.assert_array_equal(section.schrodinger.frames, ref_section.schrodinger.frames)

    def test_passes_the_tolerances_on(self):
        # the weakest phase anchor of this run is 0.207
        spec, psi0, grid = random_instance(2, steps=256, tau=2.0)
        with pytest.raises(SectionError, match="collapsed to 2.068e-01"):
            decompose(spec, psi0, PhaseAnchored(), grid, Tolerances(positivity_tol=0.5))


def _chunk_run(label):
    """decompose arguments: the real-slice route at N = 4, the Taylor route
    at N = 24 and the exact Constant route of Lambda iii."""
    if label == "refutation 7":
        spec, psi0 = refutation_instance(7, TimeGrid.uniform(2.0, 8192))
        return spec, psi0, PhaseAnchored(), spec.grid
    if label == "cosine 24 x 2":
        spec, psi0, grid = random_instance(4, n=24, steps=512, tau=1.0, scale=0.7 / np.sqrt(24))
        return spec, psi0, PhaseAnchored(), grid
    p = LambdaParams(omega0=SQRT3, delta=1.0, tau=np.pi / 2, eta=np.pi / 3)
    spec, psi0, rule = case_setup("iii", p)
    return spec, psi0, rule, TimeGrid.uniform(p.tau, 4096)


@pytest.mark.parametrize("label", ["refutation 7", "cosine 24 x 2", "lambda iii"])
def test_report_does_not_depend_on_the_chunk_size(monkeypatch, label):
    # the chunks of propagation and of the F sandwich re-associate products
    # at their ends; finite-difference A multiplies the frames' roundoff by
    # 1/(2 dt), so refutation 7's reports move by at most 2.7e-14 between
    # 2^12 and 2^22 bytes a chunk, the others by 4.4e-15 and 0
    args = _chunk_run(label)
    _, ref = decompose(*args)
    for exponent in (12, 14, 16, 18, 22):
        monkeypatch.setattr(dynamics, "_CHUNK_BYTES", 2**exponent)
        _, report = decompose(*args)
        assert report.classification == ref.classification, exponent
        for f in dataclasses.fields(report):
            if f.name != "classification":
                dev = np.abs(np.subtract(getattr(report, f.name), getattr(ref, f.name))).max()
                assert dev <= 1e-13, (label, exponent, f.name, dev)


class TestKwWfIdentity:
    def test_lambda_cases(self, case_i, case_ii, case_iii):
        for ns in (case_i, case_ii, case_iii, run_case("ii", steps=256)):
            assert kw_wf_residual(ns.section) <= 1e-10

    def test_random_instance(self):
        _, section, _ = random_pipeline(23, steps=4096)
        assert kw_wf_residual(section) <= 1e-8
        assert kw_wf_residual(refutation_run(7, 256)[0]) <= 1e-8

    def test_identity_at_start(self, case_i):
        sec = case_i.section
        w0 = np.eye(2, dtype=complex)
        assert frobenius(sec.k[0] @ w0 - w0 @ sec.f[0]) <= 1e-12


class TestSolveAnandan:
    def test_zero_generator_gives_identity(self):
        # H = 0: A and K are exactly zero
        spec = Constant(np.zeros((3, 3)))
        sec = build_section(PhaseAnchored(), propagate_frame(spec, np.eye(3)[:, :2], TimeGrid.uniform(1.0, 64)), spec)
        w = solve_anandan(sec)
        assert np.abs(w - np.eye(2)).max() == 0.0

    def test_case_ii_endpoint_matches_direct(self, case_ii):
        w_end = solve_anandan(case_ii.section)[-1]
        np.testing.assert_allclose(w_end, np.diag([1.0, 1j]), atol=1e-6)
        direct = w_path(case_ii.section)[-1]
        assert frobenius(w_end - direct) <= 1e-6

    def test_constant_generator_exponentiates(self, case_i):
        w_end = solve_anandan(case_i.section)[-1]
        expected = expm_skew(case_i.section.k[0] * case_i.grid.tau)
        np.testing.assert_allclose(w_end, expected, atol=1e-10)

    def test_endpoint_is_the_report_w_final_bitwise(self, case_iii):
        # 1000 steps, not a power of two, so the pairing has odd levels, and
        # 256; the Yu-Tong pair (section.g, D) is the report's G and D, bit
        # for bit, too
        runs = [(case_iii.section, case_iii.report), refutation_run(7, 1000), refutation_run(7, 256)]
        for section, report in runs:
            np.testing.assert_array_equal(solve_anandan(section)[-1], report.w_final)
            g, d = yu_tong_factors(section)
            np.testing.assert_array_equal(g, report.g_factor)
            np.testing.assert_array_equal(d, report.d_factor)

    def test_ae_consistency_scaling(self):
        # |W_ae(tau) - W_direct(tau)| <= 50 dt^2 + 1e-9 on smooth instances
        for steps in (512, 1024):
            _, section, _ = random_pipeline(5, steps=steps, tau=1.5)
            dt = 1.5 / steps
            gap = frobenius(solve_anandan(section)[-1] - w_path(section)[-1])
            assert gap <= 50 * dt**2 + 1e-9


class TestOrderedFactor:
    def test_zero_path(self):
        grid = TimeGrid.uniform(1.0, 16)
        zeros = np.zeros((len(grid), 3, 3), dtype=complex)
        np.testing.assert_array_equal(ordered_factor(zeros, grid, "forward"), np.eye(3))
        np.testing.assert_array_equal(ordered_factor(zeros, grid, "reverse"), np.eye(3))

    @pytest.mark.parametrize("direction", ["forward", "reverse"])
    def test_cumulative_path_starts_at_identity_and_ends_at_the_factor(self, case_iii, direction):
        sec = case_iii.section
        path = ordered_factor(sec.a + sec.k, case_iii.grid, direction, cumulative=True)
        assert path.shape == sec.a.shape
        np.testing.assert_array_equal(path[0], np.eye(2))
        np.testing.assert_array_equal(path[-1], ordered_factor(sec.a + sec.k, case_iii.grid, direction))

    def test_commuting_family_order_independent(self):
        grid = TimeGrid.uniform(2.0, 128)
        diag = np.zeros((len(grid), 2, 2), dtype=complex)
        diag[:, 0, 0] = -1j * np.sin(grid.times)
        diag[:, 1, 1] = 1j * np.cos(grid.times)
        fwd = ordered_factor(diag, grid, "forward")
        rev = ordered_factor(diag, grid, "reverse")
        assert frobenius(fwd - rev) <= 1e-12

    def test_case_iii_factors(self, case_iii):
        hol = ordered_factor(case_iii.section.a, case_iii.grid, "forward")
        dyn = ordered_factor(case_iii.section.k, case_iii.grid, "forward")
        np.testing.assert_allclose(hol, np.diag([1.0, -1j]), atol=1e-6)
        np.testing.assert_allclose(dyn, np.diag([1.0, -1.0]), atol=1e-10)
        np.testing.assert_allclose(hol @ dyn, np.diag([1.0, 1j]), atol=1e-6)

    def test_rejects_a_path_off_the_grid(self, case_iii):
        with pytest.raises(ValueError, match="generator path length does not match the grid"):
            ordered_factor(case_iii.section.a[1:], case_iii.grid)

    def test_rejects_unknown_direction(self, case_iii):
        with pytest.raises(ValueError, match="direction"):
            ordered_factor(case_iii.section.a, case_iii.grid, "sideways")


class TestYuTongFactors:
    def test_product_reproduces_w_on_lambda_cases(self, case_i, case_ii, case_iii):
        for ns in (case_i, case_ii, case_iii):
            g, d = yu_tong_factors(ns.section)
            w_end = w_path(ns.section)[-1]
            assert frobenius(w_end - g @ d) <= 1e-6

    def test_product_holds_where_separation_fails(self):
        spec, psi0 = refutation_instance(seed=7)
        _, report = decompose(spec, psi0, PhaseAnchored(), TimeGrid.uniform(2.0, 4096))
        assert report.product_residual <= 1e-6
        assert report.separation_residual > 1e-2

    def test_case_iii_d_equals_forward_dynamical_factor(self, case_iii):
        # diagonal commuting family: reverse and forward orderings coincide,
        # and F = K on this section up to the frame change
        _, d = yu_tong_factors(case_iii.section)
        dyn = ordered_factor(case_iii.section.k, case_iii.grid, "forward")
        assert frobenius(d - dyn) <= 1e-6


class TestHolonomicFactor:
    """G = section.g, the polar factor of the ordered step-overlap product."""

    @pytest.mark.parametrize("run", ["ii", "iii", "refutation 7", "refutation 7, 256 steps"])
    @pytest.mark.parametrize("seed", range(4))
    def test_conjugates_exactly_under_a_loop_gauge(self, run, seed):
        # each link L_{k+1}^dag L_k becomes g_{k+1}^dag (...) g_k, so the
        # product conjugates by g(0) at the closed ends, on any grid; the
        # ordered factor of the finite-difference A does only to O(dt^2);
        # at most 5.6e-15 measured
        steps = {"refutation 7": 4096, "refutation 7, 256 steps": 256}.get(run)
        section = run_case(run).section if steps is None else refutation_run(7, steps)[0]
        loop = random_nonabelian_loop(section.schrodinger.grid.times, 2, np.random.default_rng(seed))
        moved = gauge_transform(section, loop)
        assert frobenius(moved.g - loop[0].conj().T @ section.g @ loop[0]) <= 1e-12

    def test_second_order_and_below_the_finite_difference_route(self):
        ref = case_iii_analytic(run_case("iii").params)
        devs = []
        for steps in (1024, 2048, 4096, 8192):
            ns = run_case("iii", steps=steps)
            devs.append(frobenius(ns.section.g - ref.holonomic_factor))
            # 0.30x measured on every grid
            assert devs[-1] <= 0.35 * frobenius(ordered_factor(ns.section.a, ns.grid) - ref.holonomic_factor)
        ratios = np.array(devs[:-1]) / np.array(devs[1:])
        assert ((3.6 <= ratios) & (ratios <= 4.4)).all(), ratios

    @pytest.mark.parametrize("seed", [7, 10])
    def test_agrees_with_the_ordered_factor_of_a(self, seed):
        # both are second order: 1.3e-8 (seed 10) to 4.0e-8 (seed 7) apart
        section = refutation_run(seed, 4096)[0]
        assert frobenius(section.g - ordered_factor(section.a, section.schrodinger.grid)) <= 1e-6


class TestSeparabilityReport:
    def test_case_i_report(self, case_i_resonant):
        rep = case_i_resonant.report
        assert rep.classification == "case_i"
        np.testing.assert_allclose(rep.time_evolution, -np.eye(2), atol=1e-8)
        expected = ordered_factor(case_i_resonant.section.k, case_i_resonant.grid, "forward")
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
        _, _, rep = random_pipeline(2, steps=4096, tau=2.0)
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
        # of the single frame S(0) against the whole path; a moving run
        # finds a witness among the scanned frames and takes no full sweep
        drifts = []

        def counting_gap(a, b):
            if np.ndim(a) == 2:
                drifts.append(np.shape(b))
            return linalg.subspace_gap(a, b)

        for module in ("dynamics", "sections", "holonomy"):
            monkeypatch.setattr(f"holosplit.{module}.subspace_gap", counting_gap, raising=False)
        p = LambdaParams(omega0=SQRT3, delta=1.0, tau=np.pi / 2)
        spec, psi0, rule = case_setup("i", p)
        _, report = decompose(spec, psi0, rule, TimeGrid.uniform(p.tau, 512))
        assert report.classification == "case_i"
        assert drifts == [(513, 3, 2)]
        drifts.clear()
        spec, psi0 = refutation_instance(7, TimeGrid.uniform(2.0, 256))
        _, report = decompose(spec, psi0, PhaseAnchored(), spec.grid)
        assert report.classification == "non_separable"
        assert drifts == [(COMMUTATOR_SCAN_LIMIT, 4, 2)]

    def test_drift_between_scanned_frames_is_not_case_i(self):
        # the subspace leaves and returns strictly between two scanned
        # frames: no witness, so the full sweep decides
        npts = 300
        scanned = np.linspace(0, npts - 1, COMMUTATOR_SCAN_LIMIT).round().astype(int)
        lo, hi = scanned[20:22]
        assert hi - lo > 1
        frames = np.zeros((npts, 3, 2), dtype=complex)
        frames[:, 0, 0] = frames[:, 1, 1] = 1.0
        # the second column turns from e1 to e2 and back
        frames[lo + 1 : hi, 1, 1], frames[lo + 1 : hi, 2, 1] = 0.0, 1.0
        schrod = FramePath(TimeGrid.uniform(1.0, npts - 1), frames)
        assert linalg.subspace_gap(schrod.initial, frames[scanned]).max() == 0.0
        zeros = np.zeros((npts, 2, 2), dtype=complex)
        assert _classify(schrod, zeros, zeros, DEFAULT_TOL) == "case_ii"
        assert schrod.drift == pytest.approx(np.sqrt(2.0))

    def test_commutator_sufficiency(self, case_i, case_ii, case_iii):
        for ns in (case_i, case_ii, case_iii):
            if ns.report.max_commutator <= 1e-9:
                assert ns.report.separation_residual <= 1e-6

    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 10_000))
    def test_generators_anti_hermitian(self, seed):
        # some of these draws fail the in-phase check, so no report is made
        spec, psi0, grid = random_instance(seed, steps=128, tau=1.0)
        assert_exact_generators(build_section(PhaseAnchored(), propagate_frame(spec, psi0, grid), spec))

    def test_section_generators_are_exact_and_read_only(self, case_i, case_ii, case_iii):
        # A is a real-weighted sum of skew_part outputs, K and F are
        # skew_part outputs: anti-Hermitian with residual exactly 0, also
        # after a gauge loop
        spec, psi0 = refutation_instance(7, TimeGrid.uniform(2.0, 512))
        ref7, _ = decompose(spec, psi0, PhaseAnchored(), spec.grid)
        loop = random_nonabelian_loop(case_iii.grid.times, 2, np.random.default_rng(6))
        for sec in (case_i.section, case_ii.section, case_iii.section, ref7, gauge_transform(case_iii.section, loop)):
            assert_exact_generators(sec)

    def test_product_residual_identity_across_instances(self):
        # the product form is an identity; at the canonical 4096-step
        # resolution its residual sits at the integrator error level
        for seed in (1, 2, 3):
            _, _, rep = random_pipeline(seed, steps=4096, tau=2.0)
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
        assert max_commutator_scan(case_iii.section.a, case_iii.section.k) <= 1e-12

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

    @pytest.mark.parametrize("m", [2, 4])
    @pytest.mark.parametrize("npts", [1, 2, 63, 64, 65, 300, 4097])
    def test_matches_the_deduplicated_scan_bitwise(self, npts, m):
        rng = np.random.default_rng(npts)
        a, k = random_skew_stack(rng, npts, m, 3), random_skew_stack(rng, npts, m, 3)
        # the pairs are formed a block of A rows at a time: one block at
        # M = 2, several at M = 4
        blocks = dynamics._chunks(64, m, 4 * 64 * m)
        assert len(blocks) == 1 if m == 2 else len(blocks) > 1
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


class TestFramePathMemory:
    """A decompose with N >> M holds the frame path once: every pass over
    it goes one chunk at a time, so no stage holds a second copy. The run is
    a 64 x 4 cosine drive at 512 steps, with the benchmark's wide_drive
    parameters; the bounds are multiples of the path's T N M 16 bytes. A
    Fixed rule runs on a block-diagonal drive, which keeps the subspace of
    the first M levels."""

    @staticmethod
    def block_diagonal(n, m, rng, scale):
        h = np.zeros((n, n), complex)
        h[:m, :m], h[m:, m:] = random_hermitian(m, rng, scale), random_hermitian(n - m, rng, scale)
        return h

    @pytest.mark.parametrize("rule", [PhaseAnchored(), Fixed()], ids=["phase_anchored", "fixed"])
    def test_peaks_stay_near_the_frame_path(self, rule):
        n, m, steps = 64, 4, 512
        rng = np.random.default_rng(1)
        scale = 0.7 / np.sqrt(n)
        if isinstance(rule, Fixed):
            h0, h1 = self.block_diagonal(n, m, rng, scale), self.block_diagonal(n, m, rng, scale)
            psi0 = np.eye(n, m, dtype=complex)
        else:
            h0, h1 = random_hermitian(n, rng, scale), random_hermitian(n, rng, scale)
            psi0 = random_frame(n, m, rng)
        grid = TimeGrid.uniform(1.0, steps)
        spec = cosine_drive(h0, h1, grid)
        path_bytes = len(grid) * n * m * 16
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            schrod = propagate_frame(spec, psi0, grid)
            propagate_peak = tracemalloc.get_traced_memory()[1] - base
            section = build_section(rule, schrod, spec)
            live, peak = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            separability_report(section, schrod, spec)
            report_peak = tracemalloc.get_traced_memory()[1] - live
        finally:
            tracemalloc.stop()
        decompose_peak = max(peak - base, live - base + report_peak)
        # measured: 1.19, 0.27 and 1.59 times the path for either rule
        assert propagate_peak <= 1.25 * path_bytes
        assert report_peak <= 0.35 * path_bytes
        assert decompose_peak <= 1.75 * path_bytes


class TestDecomposeWork:
    """A decompose forms each midpoint H of the propagation once and samples
    H at the grid points once per chunk of the F sandwich in build_section
    (a Constant H once, at t = 0), whether it is the one decompose call or
    the three calls it makes."""

    @pytest.fixture
    def sampled(self, monkeypatch):
        calls = []
        real = hamiltonian_path

        def counting(spec, times):
            calls.append(len(times))
            return real(spec, times)

        monkeypatch.setattr(dynamics, "hamiltonian_path", counting)
        monkeypatch.setattr(sections, "hamiltonian_path", counting)
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

    @pytest.mark.parametrize("run", [three_calls, decompose])
    @pytest.mark.parametrize("n, m, steps", [(64, 4, 64), (4, 2, 256)])
    def test_library_decompose(self, sampled, blended, n, m, steps, run):
        rng = np.random.default_rng(2)
        grid = TimeGrid.uniform(1.0, steps)
        spec = cosine_drive(random_hermitian(n, rng, 0.7 / np.sqrt(n)),
                            random_hermitian(n, rng, 0.7 / np.sqrt(n)), grid)
        _, report = run(spec, random_frame(n, m, rng), PhaseAnchored(), grid)
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

    @pytest.mark.parametrize("run", [three_calls, decompose])
    def test_lambda_decompose(self, sampled, run):
        p = LambdaParams(omega0=SQRT3, delta=1.0, tau=np.pi / 2)
        for case in ("i", "ii", "iii"):
            sampled.clear()
            spec, psi0, rule = case_setup(case, p)
            run(spec, psi0, rule, TimeGrid.uniform(p.tau, 256))
            # the exact Constant route samples no H; F(t) = F(0) is
            # conserved, so it takes the one sample at t = 0
            assert sampled == [1]

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
        spec, section, _ = random_pipeline(3, steps=64)
        schrod = section.schrodinger

        def refuse(spec, times):
            raise AssertionError("H was sampled after build_section")

        # holonomy does not import hamiltonian_path
        for module in (dynamics, sections):
            monkeypatch.setattr(module, "hamiltonian_path", refuse)
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
        assert _commutator_bound(a, k) > 1.0
        assert _classify(schrod, a, k, DEFAULT_TOL) == "non_separable"

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

    @pytest.mark.parametrize("npts", [1, 3, 4097])
    def test_same_bits_on_c_order_and_time_last_stacks(self, npts):
        # both layouts read the same C-order (M^2, T) rows
        rng = np.random.default_rng(npts)
        a, k = random_skew_stack(rng, npts, 2, 3), random_skew_stack(rng, npts, 2, 4)
        time_last = [np.moveaxis(np.moveaxis(x, 0, -1).copy(), -1, 0) for x in (a, k)]
        assert _commutator_bound(a, k) == _commutator_bound(*time_last)

    def test_commuting_family_in_rotated_basis(self, refutation_7_schrodinger):
        schrod = refutation_7_schrodinger
        rng = np.random.default_rng(4)
        q, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
        a, k = diagonal_pair(schrod.grid.times)
        a, k = q @ a @ q.conj().T, q @ k @ q.conj().T
        scale = np.linalg.norm(a, axis=(1, 2)).max() * np.linalg.norm(k, axis=(1, 2)).max()
        assert _commutator_bound(a, k) <= 1e-12 * scale
        assert _classify(schrod, a, k, DEFAULT_TOL) == "case_iii"


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
