"""Acceptance suite: every criterion at its stated tolerance, one line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the PASS lines.
"""

import time

import numpy as np
import pytest

from conftest import (
    commutator_norm,
    dark_bright_to_bare,
    polar_decompose,
    run_case,
    section_frames,
    trivial_shift_check,
)
from holosplit import (
    Constant,
    LambdaParams,
    PhaseAnchored,
    build_section,
    case_setup,
    decompose,
    propagate_frame,
    separability_report,
)
from holosplit.dynamics import TimeGrid
from holosplit.holonomy import generator_path, kw_wf_residual, solve_anandan
from holosplit.instances import (
    random_closed_gauge,
    random_frame,
    random_hermitian,
    refutation_instance,
)
from holosplit.linalg import frobenius, overlaps
from holosplit.sections import (
    InPhaseViolation,
    SectionError,
    gauge_transform,
    w_path,
)

SQRT3 = np.sqrt(3.0)


def timed_pipeline(which, **kw):
    p = LambdaParams(**kw)
    spec, psi0, rule = case_setup(which, p)
    grid = TimeGrid.uniform(p.tau, 4096)
    start = time.perf_counter()
    _, report = decompose(spec, psi0, rule, grid)
    elapsed = time.perf_counter() - start
    return report, elapsed


def test_criterion_1_case_i_oracle():
    rep, dt1 = timed_pipeline("i", omega0=1.0, delta=0.0, tau=np.pi)
    dev1 = np.abs(rep.time_evolution + np.eye(2)).max()
    assert dev1 <= 1e-8
    assert dt1 < 1.0

    rep, dt2 = timed_pipeline("i", omega0=SQRT3, delta=1.0, tau=np.pi / 2)
    dev2 = np.abs(rep.time_evolution - 1j * np.eye(2)).max()
    assert dev2 <= 1e-7
    assert dt2 < 1.0
    print(f"\n[PASS] criterion 1: case (i) oracle; dev {dev1:.2e} @ {dt1:.2f}s, "
          f"{dev2:.2e} @ {dt2:.2f}s")


def test_criterion_2_case_ii_holonomy(case_ii):
    rep = case_ii.report
    o_dev = np.abs(rep.overlap - np.eye(2)).max()
    assert o_dev <= 1e-7
    w_ref = np.diag([1.0, np.exp(-1j * np.pi * (1 + np.cos(np.pi / 3)))])
    np.testing.assert_allclose(w_ref, np.diag([1.0, 1j]), atol=1e-15)
    w_dev = max(np.abs(rep.w_direct - w_ref).max(), np.abs(rep.w_final - w_ref).max())
    assert w_dev <= 1e-6
    gens = generator_path(case_ii.section)
    k_max = np.linalg.norm(gens.k_mats, axis=(1, 2)).max()
    assert k_max <= 1e-8
    assert rep.classification == "case_ii"
    print(f"\n[PASS] criterion 2: case (ii) holonomy; O dev {o_dev:.2e}, "
          f"W dev {w_dev:.2e}, max|K| {k_max:.2e}")


def test_criterion_3_case_iii_separation(case_iii):
    rep = case_iii.report
    assert rep.max_commutator <= 1e-8
    assert rep.separation_residual <= 1e-6
    hol_dev = np.abs(rep.holonomic_factor - np.diag([1.0, -1j])).max()
    dyn_dev = np.abs(rep.dynamical_factor - np.diag([1.0, -1.0])).max()
    prod_dev = np.abs(rep.holonomic_factor @ rep.dynamical_factor
                      - np.diag([1.0, 1j])).max()
    assert hol_dev <= 1e-6 and dyn_dev <= 1e-6 and prod_dev <= 1e-6
    assert rep.classification == "case_iii"
    print(f"\n[PASS] criterion 3: case (iii) separation; commutator "
          f"{rep.max_commutator:.2e}, residual {rep.separation_residual:.2e}, "
          f"factor devs {hol_dev:.2e}/{dyn_dev:.2e}/{prod_dev:.2e}")


def test_criterion_4_refutation_witness():
    attempts = []
    for seed in range(7, 27):
        spec, psi0 = refutation_instance(seed)
        try:
            _, rep = decompose(spec, psi0, PhaseAnchored(), spec.grid)
        except (SectionError, InPhaseViolation) as exc:
            attempts.append(f"seed {seed}: section invalid ({exc}); reseeding")
            continue
        if rep.separation_residual <= 1e-2:
            attempts.append(f"seed {seed}: separation_residual "
                            f"{rep.separation_residual:.2e} below 1e-2; reseeding")
            continue
        assert rep.product_residual <= 1e-6
        assert rep.classification == "non_separable"
        for line in attempts:
            print(f"\n[note] {line}")
        print(f"\n[PASS] criterion 4: refutation witness at seed {seed}; "
              f"product {rep.product_residual:.2e}, "
              f"separation {rep.separation_residual:.2e}")
        return
    pytest.fail(f"no refutation witness found; attempts: {attempts}")


def _structural_checks(label, spec, schrod, section, lines):
    w = w_path(section)
    m = w.shape[1]
    w_unit = np.linalg.norm(np.einsum("tij,tik->tjk", w.conj(), w) - np.eye(m),
                            axis=(1, 2)).max()
    assert w_unit <= 1e-9

    u = overlaps(schrod.initial, schrod.frames)
    frames = section_frames(section)
    o = overlaps(frames[0], frames)
    recon = np.linalg.norm(u - np.einsum("tij,tjk->tik", o, w), axis=(1, 2)).max()
    assert recon <= 1e-8

    gens = generator_path(section)
    kw = kw_wf_residual(gens, w)
    assert kw <= 1e-8

    polar_note = "skipped (overlap not Hermitian)"
    if section.in_phase_margin > 1e-6 and section.overlap_asymmetry <= 1e-8:
        p, q = polar_decompose(u[-1])
        polar_dev = max(frobenius(p - o[-1]), frobenius(q - w[-1]))
        assert polar_dev <= 1e-8
        polar_note = f"polar dev {polar_dev:.2e}"
    lines.append(f"{label}: unitarity {w_unit:.2e}, O*W {recon:.2e}, "
                 f"KW-WF {kw:.2e}, {polar_note}")


def test_criterion_5_structural_identities(case_i, case_i_resonant, case_ii, case_iii):
    lines = []
    for label, ns in (("case i", case_i), ("case i resonant", case_i_resonant),
                      ("case ii", case_ii), ("case iii", case_iii)):
        _structural_checks(label, ns.spec, ns.schrod, ns.section, lines)

    noncyclic = run_case("ii", tau=np.pi / 3)
    _structural_checks("case ii non-cyclic", noncyclic.spec, noncyclic.schrod,
                       noncyclic.section, lines)

    spec, psi0 = refutation_instance(7)
    schrod = propagate_frame(spec, psi0, spec.grid)
    section = build_section(PhaseAnchored(), schrod, spec)
    _structural_checks("generic 4-level", spec, schrod, section, lines)

    print()
    for line in lines:
        print(f"[PASS] criterion 5: {line}")


def test_criterion_6_trivial_shift():
    p = LambdaParams(omega0=SQRT3, delta=1.0, tau=np.pi / 2)
    spec, psi0, _ = case_setup("ii", p)
    grid = TimeGrid.uniform(p.tau, 4096)
    r_lambda = trivial_shift_check(spec, psi0, lambda t: p.delta, grid)
    assert r_lambda <= 1e-7

    rng = np.random.default_rng(12)
    const = Constant(random_hermitian(3, rng))
    psi0_r = random_frame(3, 2, rng)
    r_const = trivial_shift_check(const, psi0_r, lambda t: 0.3, TimeGrid.uniform(2.0, 4096))
    assert r_const <= 1e-7
    print(f"\n[PASS] criterion 6: trivial shift; lambda {r_lambda:.2e}, "
          f"random constant {r_const:.2e}")


def test_criterion_7_gauge_covariance(case_i, case_ii, case_iii):
    worst = 0.0
    for label, ns in (("i", case_i), ("ii", case_ii), ("iii", case_iii)):
        for seed in (0, 1, 2):
            rng = np.random.default_rng(seed)
            v = random_closed_gauge(ns.grid.times, 2, rng)
            moved_section = gauge_transform(ns.section, v)
            moved = separability_report(moved_section, moved_section.schrodinger, ns.spec)
            assert moved.classification == ns.report.classification
            dev = frobenius(moved.w_direct - v[0].conj().T @ ns.report.w_direct @ v[0])
            assert dev <= 1e-6
            worst = max(worst, dev)
    print(f"\n[PASS] criterion 7: gauge covariance on 3 seeds x 3 cases; "
          f"worst adjusted W deviation {worst:.2e}")


def test_criterion_8_second_order_convergence():
    # the Lambda pulse is piecewise constant, so the propagated frames are
    # exact to roundoff; the second-order route is the reconstruction
    # L(tau) W(tau) with W integrated from the finite-difference connection
    p = LambdaParams(omega0=SQRT3, delta=1.0, tau=np.pi / 2)
    spec, psi0, rule = case_setup("ii", p)

    def reconstructed_endpoint(steps):
        grid = TimeGrid.uniform(p.tau, steps)
        schrod = propagate_frame(spec, psi0, grid)
        section = build_section(rule, schrod, spec)
        gens = generator_path(section)
        return section_frames(section)[-1] @ solve_anandan(gens)[-1]

    ref = reconstructed_endpoint(4096 * 16)
    e_coarse = np.linalg.norm(reconstructed_endpoint(4096) - ref)
    e_fine = np.linalg.norm(reconstructed_endpoint(8192) - ref)
    ratio = e_coarse / e_fine
    assert ratio == pytest.approx(4.0, rel=0.10)
    print(f"\n[PASS] criterion 8: convergence ratio {ratio:.3f} "
          f"(errors {e_coarse:.2e} -> {e_fine:.2e})")


def test_criterion_9_non_abelian_composition():
    mats = []
    for w1, w2 in ((1.0, 0.0), (1 / np.sqrt(2), 1 / np.sqrt(2))):
        ns = run_case("ii", omega1=w1, omega2=w2)
        t = dark_bright_to_bare(ns.params)
        mats.append(t @ ns.report.time_evolution @ t.conj().T)
    norm = commutator_norm(mats[0], mats[1])
    assert norm > 0.1
    print(f"\n[PASS] criterion 9: non-Abelian composition; commutator norm {norm:.3f}")
