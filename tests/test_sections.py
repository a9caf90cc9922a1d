import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import run_case
from holosplit.config import _load_custom_section, matrix_to_json
from holosplit.dynamics import Constant, TimeGrid, propagate_frame
from holosplit.instances import (
    cosine_drive,
    random_closed_gauge,
    random_frame,
    random_hermitian,
    random_nonabelian_loop,
    refutation_instance,
)
from holosplit.lambda_system import LambdaParams
from holosplit.linalg import expm_skew, frobenius, overlaps, products, skew_part
from holosplit.sections import (
    Custom,
    Fixed,
    PhaseAnchored,
    SectionError,
    build_section,
    gauge_transform,
    w_path,
)

SQRT3 = np.sqrt(3.0)


def analytic_case_ii_column(p: LambdaParams, t: float) -> np.ndarray:
    """Exact phase-anchored bright column: e^{-i arg<b|e^{-iHt}|b>} e^{-iHt}|b>."""
    w, v = np.linalg.eigh(p.spec.matrix)
    u = (v * np.exp(-1j * w * t)) @ v.conj().T
    b = p.bright_state
    evolved = u @ b
    return np.exp(-1j * np.angle(b.conj() @ evolved)) * evolved


class TestBuildSection:
    def test_fixed_on_constant_subspace(self, case_i):
        frames = case_i.section.path.frames
        assert np.abs(frames - frames[0]).max() == 0.0
        assert case_i.section.in_phase_margin == pytest.approx(1.0, abs=1e-12)

    def test_fixed_rejects_moving_subspace(self, case_ii):
        with pytest.raises(SectionError, match="constant subspace"):
            build_section(Fixed(), case_ii.schrod, case_ii.spec)

    def test_rejects_dimension_mismatch(self, case_ii):
        # the F sandwich refuses a 2-level H against the 3-level frames
        with pytest.raises(ValueError, match="Hamiltonian dimension 2 does not match frame dimension 3"):
            build_section(PhaseAnchored(), case_ii.schrod, Constant(np.zeros((2, 2))))

    def test_phase_anchored_matches_analytic_column(self, case_ii):
        frames = case_ii.section.path.frames
        times = case_ii.grid.times
        for k in (1, 1024, 2048, 4096):
            ref = analytic_case_ii_column(case_ii.params, times[k])
            assert np.abs(frames[k][:, 1] - ref).max() <= 1e-8

    def test_phase_anchored_static_for_zero_hamiltonian(self):
        psi0 = np.eye(3)[:, :2].astype(complex)
        spec = Constant(np.zeros((3, 3)))
        s = propagate_frame(spec, psi0, TimeGrid.uniform(1.0, 16))
        sec = build_section(PhaseAnchored(), s, spec)
        assert np.abs(sec.path.frames - psi0).max() == 0.0
        assert sec.in_phase_margin == pytest.approx(1.0, abs=1e-12)

    def test_phase_anchored_anchor_collapse(self):
        # resonant drive sends <b|e^{-iHt}|b> through zero at phi = pi/2
        p = LambdaParams(omega0=1.0, delta=0.0, tau=np.pi)
        spec = p.spec
        psi0 = np.stack([p.dark_state, p.bright_state], axis=1)
        s = propagate_frame(spec, psi0, TimeGrid.uniform(np.pi, 4096))
        with pytest.raises(SectionError, match="collapse"):
            build_section(PhaseAnchored(), s, spec)

    def test_custom_passthrough_and_span_check(self, case_ii):
        sec = build_section(Custom(case_ii.section.path), case_ii.schrod, case_ii.spec)
        assert np.abs(sec.path.frames - case_ii.section.path.frames).max() == 0.0
        wrong = propagate_frame(case_ii.spec,
                                np.eye(3)[:, [0, 2]].astype(complex),
                                case_ii.grid)
        with pytest.raises(SectionError, match="span"):
            build_section(Custom(wrong), case_ii.schrod, case_ii.spec)

    def test_starts_at_schrodinger_frame(self, case_ii, case_iii):
        for ns in (case_ii, case_iii):
            assert np.abs(ns.section.path.initial - ns.schrod.initial).max() == 0.0


class TestOverlapPath:
    def test_identity_at_zero(self, case_iii):
        path = case_iii.section.path
        np.testing.assert_allclose(overlaps(path.initial, path.frames)[0], np.eye(2), atol=1e-14)

    def test_case_ii_formula_along_path(self, case_ii):
        o = overlaps(case_ii.section.path.initial, case_ii.section.path.frames)
        phi = case_ii.params.phidot * case_ii.grid.times
        ref = np.sqrt(1 - np.sin(case_ii.params.gamma) ** 2 * np.sin(phi) ** 2)
        assert np.abs(o[:, 1, 1] - ref).max() <= 1e-8
        assert np.abs(o[:, 0, 1]).max() <= 1e-12
        assert np.abs(o[:, 1, 0]).max() <= 1e-12

    def test_case_ii_cyclic_endpoint(self, case_ii):
        path = case_ii.section.path
        assert np.abs(overlaps(path.initial, path.frames)[-1] - np.eye(2)).max() <= 1e-7

    def test_anchored_diagonal_real_positive(self, case_ii, case_iii):
        for ns in (case_ii, case_iii):
            o = overlaps(ns.section.path.initial, ns.section.path.frames)
            diags = np.stack([o[:, j, j] for j in range(o.shape[1])], axis=1)
            assert np.abs(diags.imag).max() <= 1e-12
            assert diags.real.min() > 0


class TestWPath:
    def test_identity_at_zero(self, case_ii):
        np.testing.assert_allclose(w_path(case_ii.section)[0],
                                   np.eye(2), atol=1e-14)

    def test_case_ii_endpoint(self, case_ii):
        w_end = w_path(case_ii.section)[-1]
        np.testing.assert_allclose(w_end, np.diag([1.0, 1j]), atol=1e-8)

    def test_case_iii_endpoint_from_overlap_arithmetic(self, case_iii):
        # oracle: <psi2(0)|psi2(tau)> = cos^2(eta/2) e^{-i E1 tau}
        #         + sin^2(eta/2) e^{-i E2 tau} with E1 = 3, E2 = -1
        p = case_iii.params
        ov = (np.cos(p.eta / 2) ** 2 * np.exp(-1j * 3 * p.tau)
              + np.sin(p.eta / 2) ** 2 * np.exp(1j * p.tau))
        w22 = np.exp(1j * np.angle(ov))
        assert w22 == pytest.approx(1j, abs=1e-12)
        w_end = w_path(case_iii.section)[-1]
        np.testing.assert_allclose(w_end, np.diag([1.0, w22]), atol=1e-8)

    def test_unitary_everywhere(self, case_ii, case_iii):
        for ns in (case_ii, case_iii):
            w = w_path(ns.section)
            res = np.linalg.norm(np.einsum("tij,tik->tjk", w.conj(), w) - np.eye(2),
                                 axis=(1, 2))
            assert res.max() <= 1e-9

    def test_reconstructs_evolution_matrix(self, case_ii):
        o = overlaps(case_ii.section.path.initial, case_ii.section.path.frames)
        w = w_path(case_ii.section)
        u = overlaps(case_ii.schrod.initial, case_ii.schrod.frames)
        res = np.linalg.norm(u - np.einsum("tij,tjk->tik", o, w), axis=(1, 2))
        assert res.max() <= 1e-9


class TestGaugeTransform:
    def test_identity_gauge_is_noop(self, case_ii):
        v = np.broadcast_to(np.eye(2, dtype=complex), (len(case_ii.grid), 2, 2)).copy()
        out = gauge_transform(case_ii.section, v)
        assert np.abs(out.path.frames - case_ii.section.path.frames).max() == 0.0

    def test_constant_swap_conjugates_generators(self, case_iii):
        from holosplit.holonomy import connection_path, generator_path, ordered_factor

        swap = np.array([[0, 1], [1, 0]], dtype=complex)
        v = np.broadcast_to(swap, (len(case_iii.grid), 2, 2)).copy()
        moved = gauge_transform(case_iii.section, v)
        a0 = connection_path(case_iii.section)
        a1 = connection_path(moved)
        assert np.abs(a1 - np.einsum("ij,tjk,kl->til", swap, a0, swap)).max() <= 1e-9
        k0 = generator_path(case_iii.section).k_mats
        k1 = generator_path(moved).k_mats
        assert np.abs(k1 - np.einsum("ij,tjk,kl->til", swap, k0, swap)).max() <= 1e-12
        hol0 = ordered_factor(a0, case_iii.grid)
        hol1 = ordered_factor(a1, case_iii.grid)
        assert frobenius(hol1 - swap @ hol0 @ swap) <= 1e-9

    def test_diagonal_loop_keeps_endpoint_holonomy(self, case_ii):
        from holosplit.holonomy import connection_path, ordered_factor

        times = case_ii.grid.times
        phase = np.exp(2j * np.pi * times / case_ii.grid.tau)
        v = np.zeros((times.size, 2, 2), dtype=complex)
        v[:, 0, 0] = 1.0
        v[:, 1, 1] = phase
        moved = gauge_transform(case_ii.section, v)
        hol0 = ordered_factor(connection_path(case_ii.section), case_ii.grid)
        hol1 = ordered_factor(connection_path(moved), case_ii.grid)
        # V(0) = identity; the winding factor steepens the column derivative,
        # so the discretization floor is a few 1e-6 at 4096 steps
        assert frobenius(hol1 - hol0) <= 1e-5

    def test_rejects_non_unitary(self, case_ii):
        v = np.broadcast_to(np.diag([1.0, 2.0]).astype(complex),
                            (len(case_ii.grid), 2, 2)).copy()
        with pytest.raises(ValueError, match="unitary"):
            gauge_transform(case_ii.section, v)

    def test_rejects_open_path(self, case_ii):
        times = case_ii.grid.times
        phase = np.exp(1j * np.pi * times / case_ii.grid.tau)
        v = np.zeros((times.size, 2, 2), dtype=complex)
        v[:, 0, 0] = 1.0
        v[:, 1, 1] = phase
        with pytest.raises(ValueError, match="closed"):
            gauge_transform(case_ii.section, v)

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 10_000))
    def test_endpoint_covariance_any_closed_loop(self, seed):
        # W_bar(tau) = V(0)^dag W(tau) V(0) holds for arbitrary closed loops
        ns = run_case("iii")
        rng = np.random.default_rng(seed)
        v = random_nonabelian_loop(ns.grid.times, 2, rng)
        moved = gauge_transform(ns.section, v)
        w_bar = w_path(moved)[-1]
        w_ref = w_path(ns.section)[-1]
        assert frobenius(w_bar - v[0].conj().T @ w_ref @ v[0]) <= 1e-7


def _phase_anchored_frames(s):
    """The phase-anchored frames as an N x M stack, built directly: each
    Schrodinger column times exp(-i arg anchor)."""
    anchors = np.diagonal(overlaps(s[0], s), axis1=1, axis2=2)
    frames = s * np.exp(-1j * np.angle(anchors))[:, None, :]
    frames[0] = s[0]
    return frames


def _custom_from_file(tmp_path, schrod, frames):
    path = tmp_path / "section.json"
    path.write_text(json.dumps({"dimension": frames.shape[1], "times": schrod.grid.times.tolist(),
                                "matrices": matrix_to_json(frames)}))
    return Custom(_load_custom_section(path, schrod.grid, 1e-10))


@pytest.fixture(scope="module")
def v_path_runs(tmp_path_factory):
    """(label, section, the N x M frames the section stands for): every rule,
    a frame file, and a random closed gauge on each Lambda case."""
    tmp_path = tmp_path_factory.mktemp("v_path")
    runs = []
    for case in ("i", "ii", "iii"):
        ns = run_case(case)
        s = ns.schrod.frames
        frames = np.broadcast_to(s[0], s.shape) if case == "i" else _phase_anchored_frames(s)
        runs.append((f"lambda {case}", ns.section, frames))
        g = random_closed_gauge(ns.grid.times, 2, np.random.default_rng(0))
        runs.append((f"lambda {case} gauged", gauge_transform(ns.section, g), products(frames, g)))
    spec, psi0 = refutation_instance(7)
    schrod = propagate_frame(spec, psi0, spec.grid)
    frames = _phase_anchored_frames(schrod.frames)
    runs.append(("refutation 7", build_section(PhaseAnchored(), schrod, spec), frames))
    rule = _custom_from_file(tmp_path, schrod, frames)
    runs.append(("custom file", build_section(rule, schrod, spec), frames))
    return runs


class TestVPath:
    """A section is held as V(t) with L = S R V; the frames, W and O all
    follow from V to roundoff (at most 2e-15 on these runs)."""

    def test_v_is_unitary_and_starts_at_the_identity(self, v_path_runs):
        for label, sec, _ in v_path_runs:
            v = sec.v
            assert np.abs(overlaps(v, v) - np.eye(2)).max() <= 1e-14, label
            np.testing.assert_array_equal(v[0], np.eye(2), label)

    def test_s_v_is_the_section_frames(self, v_path_runs):
        for label, sec, frames in v_path_runs:
            s = sec.schrodinger.frames
            rs = s if sec.rotation is None else products(s, sec.rotation)
            assert np.abs(products(rs, sec.v) - frames).max() <= 1e-14, label
            assert np.abs(sec.path.frames - frames).max() <= 1e-14, label

    def test_w_is_v_dagger(self, v_path_runs):
        for label, sec, _ in v_path_runs:
            w = w_path(sec)
            np.testing.assert_array_equal(w, sec.v.conj().swapaxes(1, 2), label)

    def test_o_is_u_v(self, v_path_runs):
        for label, sec, frames in v_path_runs:
            s = sec.schrodinger.frames
            rs = s if sec.rotation is None else products(s, sec.rotation)
            u = overlaps(rs[0], rs)
            assert np.abs(sec.overlap - products(u, sec.v)).max() <= 1e-14, label
            assert np.abs(sec.overlap - overlaps(frames[0], frames)).max() <= 1e-14, label

    def test_gauge_composes_on_the_m_by_m_path(self, case_iii):
        g = random_closed_gauge(case_iii.grid.times, 2, np.random.default_rng(5))
        moved = gauge_transform(case_iii.section, g)
        np.testing.assert_array_equal(moved.rotation, g[0])
        np.testing.assert_array_equal(moved.v[1:], products(overlaps(g[0], case_iii.section.v), g)[1:])
        twice = gauge_transform(moved, g)
        np.testing.assert_array_equal(twice.rotation, g[0] @ g[0])
        assert np.abs(twice.path.frames - products(moved.path.frames, g)).max() <= 1e-14

    def test_gauge_rotates_f_once(self, case_iii):
        # F is against the frames S R: one rotation by V(0) per transform,
        # the operations the single-rotation formula takes, bit for bit
        g = random_closed_gauge(case_iii.grid.times, 2, np.random.default_rng(5))
        f = case_iii.section.f
        moved = gauge_transform(case_iii.section, g)
        np.testing.assert_array_equal(moved.f, skew_part(products(overlaps(g[0], f), g[0])))
        twice = gauge_transform(moved, g)
        r = twice.rotation
        assert np.abs(twice.f - skew_part(products(overlaps(r, f), r))).max() <= 1e-14
        assert not (f.flags.writeable or moved.f.flags.writeable)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_nonabelian_loop_is_closed_and_unitary(m):
    times = np.linspace(0.0, 2.0, 257)
    v = random_nonabelian_loop(times, m, np.random.default_rng(m))
    # reference: exp(x0) exp(s x1) with the same draws, exp(s x1) by eigh
    rng = np.random.default_rng(m)

    def skew():
        z = (rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))) / 2
        return 0.5 * (z - z.conj().T) / 2

    x0, x1 = skew(), skew()
    w, u = np.linalg.eigh(1j * x1)
    s = np.sin(np.pi * times / times[-1]) ** 2
    ref = expm_skew(x0) @ ((u * np.exp(-1j * np.outer(s, w))[:, None, :]) @ u.conj().T)
    assert np.abs(v - ref).max() <= 1e-14
    assert np.abs(v[-1] - v[0]).max() <= 1e-15
    assert np.abs(overlaps(v, v) - np.eye(m)).max() <= 1e-14


def test_w_unitarity_on_random_systems():
    rng = np.random.default_rng(17)
    for _ in range(3):
        n = 4
        grid = TimeGrid.uniform(1.5, 512)
        spec = cosine_drive(random_hermitian(n, rng), random_hermitian(n, rng), grid)
        s = propagate_frame(spec, random_frame(n, 2, rng), grid)
        sec = build_section(PhaseAnchored(), s, spec)
        w = w_path(sec)
        res = np.linalg.norm(np.einsum("tij,tik->tjk", w.conj(), w) - np.eye(2), axis=(1, 2))
        assert res.max() <= 1e-9
