"""Closed-form results for the driven three-level Lambda system.

Two transitions |1> <-> |3> and |2> <-> |3> are driven by a square pulse of
Rabi amplitude omega0 and common detuning delta, giving the rotating-frame
Hamiltonian H = omega0 (|3><b| + |b><3|) + 2 delta |3><3| with bright state
|b> = conj(omega1)|1> + conj(omega2)|2>. The dark state |d> decouples. With
gamma = atan2(omega0, delta) and precession angle phi_t = sqrt(delta^2 +
omega0^2) t, three initial-frame choices realize the separable cases:

  (i)  frame {|3>, |b>} with a fixed section: purely dynamical evolution;
  (ii) frame {|d>, |b>} with a phase-anchored section: purely holonomic;
  (iii) frame {|d>, cos(eta/2)|v1> + sin(eta/2)|v2>}: both factors nonzero
        but commuting (K(t) proportional to A(t) through a scalar g(t)).

These closed forms are the oracles the numerical pipeline is tested against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .dynamics import LambdaSystem, _require_finite
from .linalg import DEFAULT_TOL
from .sections import Fixed, PhaseAnchored, SectionRule

__all__ = [
    "CaseIIIAnalytic",
    "LambdaEigensystem",
    "LambdaParams",
    "case_i_analytic",
    "case_ii_analytic",
    "case_iii_analytic",
    "case_setup",
    "dark_bright_to_bare",
    "eigensystem",
]

_PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
_PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)

# internal resolution used to branch-continue arg() in the closed forms
_ARG_SAMPLES = 4097


@dataclass(frozen=True)
class LambdaParams:
    """Pulse parameters: Rabi amplitude omega0 > 0 (rad/s), common detuning
    delta (rad/s), laser parameters (omega1, omega2) on the unit circle of
    C^2, pulse duration tau > 0 (s), and the case-(iii) mixing angle eta."""

    omega0: float
    delta: float
    tau: float
    omega1: complex = 1.0
    omega2: complex = 0.0
    eta: float = 0.0

    def __post_init__(self):
        _require_finite(self, "omega0", "delta", "tau", "omega1", "omega2", "eta")
        if self.omega0 <= 0:
            raise ValueError("omega0 must be positive")
        if self.tau <= 0:
            raise ValueError("tau must be positive")
        norm = abs(self.omega1) ** 2 + abs(self.omega2) ** 2
        if abs(norm - 1.0) > DEFAULT_TOL.structure_tol:
            raise ValueError("laser parameters must satisfy |w1|^2+|w2|^2 = 1")
        if not 0.0 <= self.eta <= np.pi:
            raise ValueError("eta must lie in [0, pi]")

    @property
    def gamma(self) -> float:
        # atan2 covers delta <= 0 continuously; gamma in (0, pi)
        return float(np.arctan2(self.omega0, self.delta))

    @property
    def phidot(self) -> float:
        return float(np.hypot(self.delta, self.omega0))

    @property
    def phi_tau(self) -> float:
        return self.phidot * self.tau

    @property
    def spec(self) -> LambdaSystem:
        return LambdaSystem(self.omega0, self.delta, self.omega1, self.omega2)


@dataclass(frozen=True)
class LambdaEigensystem:
    gamma: float
    phidot: float
    energies: np.ndarray  # (E0, E1, E2) = (0, delta + phidot, delta - phidot)
    vectors: np.ndarray  # columns (v0, v1, v2); v0 is the dark state


def eigensystem(p: LambdaParams) -> LambdaEigensystem:
    """Exact eigensystem: E0 = 0 with the dark state, E1,2 = delta +- phidot
    with cos/sin(gamma/2) combinations of |3> and the bright state."""
    spec = p.spec
    b = spec.bright_state
    d = spec.dark_state
    e3 = np.array([0.0, 0.0, 1.0], dtype=complex)
    half = p.gamma / 2
    v1 = np.cos(half) * e3 + np.sin(half) * b
    v2 = -np.sin(half) * e3 + np.cos(half) * b
    energies = np.array([0.0, p.delta + p.phidot, p.delta - p.phidot])
    vectors = np.stack([d, v1, v2], axis=1)
    return LambdaEigensystem(p.gamma, p.phidot, energies, vectors)


def case_i_analytic(p: LambdaParams) -> np.ndarray:
    """Evolution matrix on the ordered frame {|3>, |b>}:
    exp(-i delta tau) exp(-i phi_tau (sin(gamma) X + cos(gamma) Z))."""
    phi = p.phi_tau
    axis = np.sin(p.gamma) * _PAULI_X + np.cos(p.gamma) * _PAULI_Z
    rot = np.cos(phi) * np.eye(2) - 1j * np.sin(phi) * axis
    return np.exp(-1j * p.delta * p.tau) * rot


def _continued_arg(re: np.ndarray, im: np.ndarray) -> float:
    """arg of the curve re(t) + i im(t), branch-continued from arg = 0."""
    return float(np.unwrap(np.angle(re + 1j * im))[-1])


def case_ii_analytic(p: LambdaParams) -> tuple[np.ndarray, np.ndarray]:
    """Overlap and frame-change endpoints for the dark/bright frame.

    O(0,tau) = diag(1, sqrt(1 - sin^2(gamma) sin^2(phi_tau))) and
    W(tau) = diag(1, exp(-i [beta(tau) + phi_tau cos(gamma)])) with beta the
    branch-continued arg of cos(phi_t) + i cos(gamma) sin(phi_t), i.e. the
    detuning-phase-stripped bright-state return amplitude. At cyclic points
    (phi_tau a multiple of pi) this coincides with the evolution produced by
    anchoring phases to the full return amplitude; away from them the two
    conventions differ by a known pure phase.
    """
    sg, cg = np.sin(p.gamma), np.cos(p.gamma)
    phi = p.phi_tau
    o22 = np.sqrt(max(0.0, 1.0 - sg**2 * np.sin(phi) ** 2))
    ph = np.linspace(0.0, phi, _ARG_SAMPLES)
    beta = _continued_arg(np.cos(ph), cg * np.sin(ph))
    w22 = np.exp(-1j * (beta + phi * cg))
    return np.diag([1.0, o22]).astype(complex), np.diag([1.0 + 0j, w22])


@dataclass(frozen=True)
class CaseIIIAnalytic:
    """Scalar 22-entries of the case-(iii) generators plus endpoint factors.

    a22 and k22 are the only nonzero generator entries on the frame
    {|d>, cos(eta/2)|v1> + sin(eta/2)|v2>}; g(t) = k22(t)/a22(t) is the
    dynamical-to-holonomic rate ratio, defined where a22 does not vanish.
    """

    a22: Callable[[float], complex]
    k22: Callable[[float], complex]
    g: Callable[[float], float]
    holonomic_factor: np.ndarray
    dynamical_factor: np.ndarray
    w_final: np.ndarray


def case_iii_analytic(p: LambdaParams) -> CaseIIIAnalytic:
    """Closed forms for the eigenstate-superposition frame.

    K22(t) = -i (delta + phidot cos(eta)) is constant; A22(t) follows from
    differentiating the anchored phase arg<psi_2(0)|psi_2(t)>, whose
    derivative is -phidot cos(eta) / (1 - sin^2(eta) sin^2(phi_t)) after
    stripping the common detuning phase. Both generators are diagonal, so
    the ordered factors commute and W(tau) is their plain product.
    """
    ce, se2 = np.cos(p.eta), np.sin(p.eta) ** 2
    phidot = p.phidot
    k_val = -1j * (p.delta + phidot * ce)

    def a22(t: float) -> complex:
        s2 = np.sin(phidot * t) ** 2
        zeta_dot = -phidot * ce / (1.0 - se2 * s2)
        return 1j * (zeta_dot + phidot * ce)

    def k22(t: float) -> complex:
        return k_val

    def g(t: float) -> float:
        a = a22(t)
        if abs(a) < 1e-12 * max(1.0, phidot):
            raise ValueError(f"holonomic rate vanishes at t = {t}; g undefined there")
        return float((k22(t) / a).real)

    ph = np.linspace(0.0, p.phi_tau, _ARG_SAMPLES)
    zeta_tau = _continued_arg(np.cos(ph), -ce * np.sin(ph))
    hol = np.diag([1.0 + 0j, np.exp(1j * (zeta_tau + p.phi_tau * ce))])
    dyn = np.diag([1.0 + 0j, np.exp(-1j * (p.delta * p.tau + p.phi_tau * ce))])
    return CaseIIIAnalytic(a22, k22, g, hol, dyn, hol @ dyn)


def case_setup(which: str, p: LambdaParams) -> tuple[LambdaSystem, np.ndarray, SectionRule]:
    """Hamiltonian spec, initial 2-frame and matching section rule for one of
    the three separable cases."""
    spec = p.spec
    b = spec.bright_state
    d = spec.dark_state
    e3 = np.array([0.0, 0.0, 1.0], dtype=complex)
    if which == "i":
        psi0 = np.stack([e3, b], axis=1)
        return spec, psi0, Fixed(psi0)
    if which == "ii":
        psi0 = np.stack([d, b], axis=1)
        return spec, psi0, PhaseAnchored()
    if which == "iii":
        es = eigensystem(p)
        mixed = np.cos(p.eta / 2) * es.vectors[:, 1] + np.sin(p.eta / 2) * es.vectors[:, 2]
        psi0 = np.stack([d, mixed], axis=1)
        return spec, psi0, PhaseAnchored()
    raise ValueError(f"unknown case {which!r}; expected 'i', 'ii' or 'iii'")


def dark_bright_to_bare(p: LambdaParams) -> np.ndarray:
    """Unitary basis change from the ordered frame {|d>, |b>} to the bare
    ground levels {|1>, |2>}; used to compose holonomies from pulses with
    different laser parameters."""
    spec = p.spec
    return np.stack([spec.dark_state[:2], spec.bright_state[:2]], axis=1)
