import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from conftest import commutator_norm, dark_bright_to_bare, run_case
from holosplit.lambda_system import (
    LambdaParams,
    case_i_analytic,
    case_ii_analytic,
    case_iii_analytic,
    case_setup,
    eigensystem,
)
from holosplit.sections import Fixed, PhaseAnchored

SQRT3 = np.sqrt(3.0)


def params(**kw):
    defaults = dict(omega0=SQRT3, delta=1.0, tau=np.pi / 2)
    defaults.update(kw)
    return LambdaParams(**defaults)


@st.composite
def lambda_params(draw):
    omega0 = draw(st.floats(0.2, 4.0))
    delta = draw(st.floats(-3.0, 3.0))
    theta = draw(st.floats(0.0, np.pi / 2))
    phase = draw(st.floats(0.0, 2 * np.pi))
    w1 = np.cos(theta) * np.exp(1j * phase)
    w2 = np.sin(theta)
    return LambdaParams(omega0=omega0, delta=delta, tau=1.0,
                        omega1=complex(w1), omega2=complex(w2))


class TestParamValidation:
    @given(st.sampled_from(["omega0", "delta", "tau", "omega1", "omega2", "eta"]),
           st.sampled_from([np.nan, np.inf, -np.inf, complex(np.nan, 0.0)]))
    def test_rejects_non_finite_field(self, name, bad):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            params(**{name: bad})

    @pytest.mark.parametrize("name, bad, message", [
        ("tau", 0.0, "tau must be positive"),
        ("tau", -1.0, "tau must be positive"),
        ("eta", -0.1, r"eta must lie in \[0, pi\]"),
        ("eta", np.pi + 1e-12, r"eta must lie in \[0, pi\]"),
    ])
    def test_rejects_out_of_range_field(self, name, bad, message):
        with pytest.raises(ValueError, match=message):
            params(**{name: bad})


class TestLambdaHamiltonian:
    def test_single_transition_structure(self):
        h = params(omega0=1.0, delta=0.0).spec.matrix
        expected = np.zeros((3, 3), dtype=complex)
        expected[0, 2] = expected[2, 0] = 1.0
        np.testing.assert_allclose(h, expected, atol=1e-15)

    @settings(max_examples=40, deadline=None)
    @given(lambda_params())
    def test_dark_state_annihilated(self, p):
        h = p.spec.matrix
        d = p.dark_state
        assert np.abs(h @ d).max() <= 1e-12

    @settings(max_examples=200, deadline=None)
    @given(lambda_params())
    def test_spec_is_the_lambda_formula_exactly(self, p):
        # H = omega0 (|3><b| + |b><3|) + 2 delta |3><3|, |b> = (w1*, w2*, 0)
        expected = np.zeros((3, 3), dtype=complex)
        expected[0, 2] = p.omega0 * np.conj(p.omega1)
        expected[1, 2] = p.omega0 * np.conj(p.omega2)
        expected[2, 0] = p.omega0 * p.omega1
        expected[2, 1] = p.omega0 * p.omega2
        expected[2, 2] = 2.0 * p.delta
        h = p.spec.matrix
        np.testing.assert_array_equal(h, expected)
        assert np.array_equal(h, h.conj().T)

    def test_eigenvalues(self):
        h = params().spec.matrix
        np.testing.assert_allclose(np.sort(np.linalg.eigvalsh(h)), [-1.0, 0.0, 3.0],
                                   atol=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(lambda_params())
    def test_spectrum_closed_form(self, p):
        h = p.spec.matrix
        expected = np.sort([0.0, p.delta + p.phidot, p.delta - p.phidot])
        np.testing.assert_allclose(np.sort(np.linalg.eigvalsh(h)), expected, atol=1e-11)

    def test_rejects_unnormalized_lasers(self):
        with pytest.raises(ValueError):
            LambdaParams(omega0=1.0, delta=0.0, tau=1.0, omega1=1.0, omega2=0.5)


class TestEigensystem:
    def test_resonant_angle(self):
        p = params(omega0=2.0, delta=0.0)
        energies, _ = eigensystem(p)
        assert p.gamma == pytest.approx(np.pi / 2)
        np.testing.assert_allclose(energies, [0.0, 2.0, -2.0], atol=1e-14)

    def test_reference_angles(self):
        p = params()
        assert p.gamma == pytest.approx(np.pi / 3)
        assert p.phidot == pytest.approx(2.0)

    @settings(max_examples=40, deadline=None)
    @given(lambda_params())
    def test_eigen_relation(self, p):
        h = p.spec.matrix
        energies, vectors = eigensystem(p)
        for i in range(3):
            v = vectors[:, i]
            assert np.abs(h @ v - energies[i] * v).max() <= 1e-12
            assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)


class TestCaseIAnalytic:
    def test_zero_duration(self):
        np.testing.assert_allclose(case_i_analytic(params(tau=1e-300)), np.eye(2),
                                   atol=1e-12)

    def test_resonant_pi_pulse(self):
        u = case_i_analytic(params(omega0=1.0, delta=0.0, tau=np.pi))
        np.testing.assert_allclose(u, -np.eye(2), atol=1e-14)

    def test_detuned_quarter_period(self):
        u = case_i_analytic(params())
        np.testing.assert_allclose(u, 1j * np.eye(2), atol=1e-14)


class TestCaseIIAnalytic:
    def test_cyclic_overlap_is_identity(self):
        o, _ = case_ii_analytic(params())
        np.testing.assert_allclose(o, np.eye(2), atol=1e-12)

    def test_cyclic_holonomy_value(self):
        _, w = case_ii_analytic(params())
        np.testing.assert_allclose(w, np.diag([1.0, 1j]), atol=1e-10)

    def test_zero_duration(self):
        o, w = case_ii_analytic(params(tau=1e-300))
        np.testing.assert_allclose(o, np.eye(2), atol=1e-12)
        np.testing.assert_allclose(w, np.eye(2), atol=1e-12)


class TestCaseIIIAnalytic:
    def test_reduces_to_case_ii_when_eta_complements_gamma(self):
        p = params(eta=np.pi - np.pi / 3)
        ref = case_iii_analytic(p)
        assert abs(ref.k22(0.3)) <= 1e-12

    def test_constant_dynamical_rate(self):
        ref = case_iii_analytic(params(eta=np.pi / 3))
        for t in (0.0, 0.3, 1.0):
            assert ref.k22(t) == pytest.approx(-2j)

    def test_endpoint_factors(self):
        ref = case_iii_analytic(params(eta=np.pi / 3))
        np.testing.assert_allclose(ref.holonomic_factor, np.diag([1.0, -1j]), atol=1e-10)
        np.testing.assert_allclose(ref.dynamical_factor, np.diag([1.0, -1.0]), atol=1e-12)
        np.testing.assert_allclose(ref.w_final, np.diag([1.0, 1j]), atol=1e-10)

    def test_g_ratio_defined_away_from_zeros(self):
        ref = case_iii_analytic(params(eta=np.pi / 3))
        t = 0.4
        assert ref.g(t) == pytest.approx((ref.k22(t) / ref.a22(t)).real)
        with pytest.raises(ValueError, match="vanishes"):
            ref.g(0.0)


def _dense_phase(p: LambdaParams, c: float) -> complex:
    """exp(i arg) of the endpoint of cos(phi_t) + i c sin(phi_t), the arg
    continued from 0 along phi_t in [0, phi_tau] by np.unwrap at 64 samples
    per radian or more. np.unwrap's running sum rounds by 1e-9 at phi_tau =
    2e4, so each radian is unwrapped on its own (rows of 65 samples sharing
    their ends) and the row increments are summed exactly by math.fsum."""
    rows = int(np.ceil(p.phi_tau))
    ph = sliding_window_view(np.linspace(0.0, p.phi_tau, 64 * rows + 1), 65)[::64]
    arg = np.unwrap(np.angle(np.cos(ph) + 1j * c * np.sin(ph)), axis=1)
    return np.exp(1j * math.fsum(arg[:, -1] - arg[:, 0]))


class TestLongPulses:
    """The endpoint phases against a dense continuation of the arg, up to
    phi_tau = 2e4, where a 4,097-point curve steps by more than pi."""

    @pytest.mark.parametrize("tau", [np.pi / 2, 40.0, 1e4])
    @pytest.mark.parametrize("delta", [1.0, -1.0])
    @pytest.mark.parametrize("eta", [np.pi / 3, 0.5])
    def test_endpoint_phases(self, tau, delta, eta):
        p = params(tau=tau, delta=delta, eta=eta)
        cg, ce = np.cos(p.gamma), np.cos(p.eta)
        _, w = case_ii_analytic(p)
        w22 = np.conj(_dense_phase(p, cg)) * np.exp(-1j * p.phi_tau * cg)
        np.testing.assert_allclose(w, np.diag([1.0, w22]), rtol=0, atol=1e-10)
        ref = case_iii_analytic(p)
        g22 = _dense_phase(p, -ce) * np.exp(1j * p.phi_tau * ce)
        d22 = np.exp(-1j * (p.delta * p.tau + p.phi_tau * ce))
        np.testing.assert_allclose(ref.holonomic_factor, np.diag([1.0, g22]), rtol=0, atol=1e-10)
        np.testing.assert_allclose(ref.w_final, np.diag([1.0, g22 * d22]), rtol=0, atol=1e-10)


class TestCaseSetup:
    def test_case_i_frame(self):
        _, psi0, rule = case_setup("i", params(omega1=1.0, omega2=0.0))
        np.testing.assert_allclose(psi0[:, 0], [0, 0, 1], atol=1e-15)
        np.testing.assert_allclose(psi0[:, 1], [1, 0, 0], atol=1e-15)
        assert isinstance(rule, Fixed)

    def test_case_ii_dark_first(self):
        spec, psi0, rule = case_setup("ii", params())
        h = spec.matrix
        assert np.abs(h @ psi0[:, 0]).max() <= 1e-14
        assert isinstance(rule, PhaseAnchored)

    def test_case_iii_eta_zero_gives_first_eigenvector(self):
        p = params(eta=0.0)
        _, psi0, _ = case_setup("iii", p)
        _, vectors = eigensystem(p)
        np.testing.assert_allclose(psi0[:, 1], vectors[:, 1], atol=1e-14)

    def test_unknown_case(self):
        with pytest.raises(ValueError, match="unknown case"):
            case_setup("iv", params())


class TestPipelineAgreement:
    def test_case_i_endpoint(self, case_i):
        np.testing.assert_allclose(case_i.report.time_evolution,
                                   case_i_analytic(case_i.params), atol=1e-6)

    def test_case_ii_endpoints(self, case_ii):
        o_ref, w_ref = case_ii_analytic(case_ii.params)
        np.testing.assert_allclose(case_ii.report.overlap, o_ref, atol=1e-6)
        np.testing.assert_allclose(case_ii.report.w_direct, w_ref, atol=1e-6)
        np.testing.assert_allclose(case_ii.report.w_final, w_ref, atol=1e-6)

    def test_case_iii_endpoints(self, case_iii):
        ref = case_iii_analytic(case_iii.params)
        np.testing.assert_allclose(case_iii.report.holonomic_factor,
                                   ref.holonomic_factor, atol=1e-6)
        np.testing.assert_allclose(case_iii.report.dynamical_factor,
                                   ref.dynamical_factor, atol=1e-6)
        np.testing.assert_allclose(case_iii.report.w_direct, ref.w_final, atol=1e-6)

    def test_case_iii_generator_entries(self, case_iii):
        ref = case_iii_analytic(case_iii.params)
        a = case_iii.section.a
        times = case_iii.grid.times
        sample = slice(1, None, 512)
        expected = np.array([ref.a22(t) for t in times[sample]])
        # pointwise finite-difference floor peaks near the A22 extremum
        assert np.abs(a[sample, 1, 1] - expected).max() <= 1e-5
        k = case_iii.section.k
        assert np.abs(k[:, 1, 1] + 2j).max() <= 1e-12


class TestDarkStateProtection:
    def test_first_column_stays_dark(self, case_ii, case_iii):
        for ns in (case_ii, case_iii):
            d = ns.params.dark_state
            dev = np.abs(ns.schrod.frames[:, :, 0] - d[None, :]).max()
            assert dev <= 1e-9


class TestNonAbelianComposition:
    def test_two_pulse_holonomies_do_not_commute(self):
        mats = []
        for w1, w2 in ((1.0, 0.0), (1 / np.sqrt(2), 1 / np.sqrt(2))):
            ns = run_case("ii", omega1=w1, omega2=w2)
            t = dark_bright_to_bare(ns.params)
            mats.append(t @ ns.report.time_evolution @ t.conj().T)
        assert commutator_norm(mats[0], mats[1]) > 0.1
