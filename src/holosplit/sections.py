"""Reference sections L(t), the frame-change matrix W(t), and gauge
transformations.

A section is a smooth choice of orthonormal frame spanning the same evolving
subspace as the Schrodinger frame S(t), with L(0) = S(0), so it is
L(t) = S(t) V(t) with V(t) an M x M unitary path and V(0) = I. A SectionPath
holds S, V and O(0,t) = L(0)^dag L(t) = U(t) V(t), U(t) = S(0)^dag S(t),
which each rule forms from the Schrodinger overlaps it already takes; W(t) =
L(t)^dag S(t) is V(t)^dag, so U = O W. It holds F = -i S^dag H S too, the
run's one sandwich of H, which a gauge transform rotates; everything after
build_section is M x M, and no N x M section frame is formed. W has
meaning only against the section's own evolution, so a function of a
section takes the section alone.
Subspace checks use the gap sqrt(2) ||b - a a^dag b||_F between orthonormal
frames (linalg.subspace_gap).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dynamics import FramePath, HamiltonianSpec, _chunks, _sandwich, hamiltonian_path
from .linalg import (
    DEFAULT_TOL,
    Tolerances,
    _time_last,
    frobenius,
    hermitian_part,
    overlaps,
    products,
    skew_part,
    subspace_gap,
)

__all__ = [
    "Custom",
    "Fixed",
    "InPhaseViolation",
    "PhaseAnchored",
    "SectionError",
    "SectionPath",
    "SectionRule",
    "build_section",
    "gauge_transform",
    "w_path",
]


class SectionError(ValueError):
    """A section rule's precondition failed for the given evolution."""


class InPhaseViolation(RuntimeError):
    """The endpoint overlap matrix is not positive within tolerance."""


@dataclass(frozen=True)
class Fixed:
    """Time-independent section L(t) = S(0); valid only when the subspace is
    constant. S(0) is the only frame that meets L(0) = S(0), so the rule has
    no fields."""


@dataclass(frozen=True)
class PhaseAnchored:
    """Column j of L(t) is exp(-i theta_j(t)) psi_j(t) with
    theta_j(t) = arg <psi_j(0)|psi_j(t)>, making the diagonal overlaps
    <phi_j(0)|phi_j(t)> real and positive."""


@dataclass(frozen=True)
class Custom:
    """User-supplied section; must span the Schrodinger subspace pointwise."""

    path: FramePath


SectionRule = Fixed | PhaseAnchored | Custom


@dataclass(frozen=True)
class SectionPath:
    """A section L(t) = S(t) R V(t) on the Schrodinger path S it was built
    on, held as M x M paths, with its in-phase diagnostics.

    schrodinger is S, the one evolution the section pairs with. v is V(t),
    unitary with V(0) = I. rotation is the constant unitary R by which a
    gauge transform moved L(0) (None, the identity, for every rule); the
    section pairs with the frames S(t) R, so W = V^dag. overlap is
    O(0,t) = L(0)^dag L(t) and f is F(t) = -i (S R)^dag H (S R) per grid
    point; v, overlap and f are read-only. in_phase_margin is the smallest
    eigenvalue of the Hermitian part of O(0,tau); overlap_asymmetry is the
    Frobenius norm of O(0,tau) - O(0,tau)^dag (zero for the Lambda-case
    sections, where O is Hermitian); min_intermediate_margin tracks the same
    eigenvalue bound over all interior grid points (reported, never
    enforced). The N x M frames L(t) are not held: they are S R V, and a
    Custom rule's are its path.
    """

    schrodinger: FramePath
    v: np.ndarray = field(repr=False)
    overlap: np.ndarray = field(repr=False)
    f: np.ndarray = field(repr=False)
    rule: SectionRule
    in_phase_margin: float
    overlap_asymmetry: float
    min_intermediate_margin: float
    rotation: np.ndarray | None = field(repr=False)


def _min_eigenvalues(herm: np.ndarray) -> np.ndarray:
    """Smallest eigenvalue of each matrix in a Hermitian stack (T, M, M):
    for M = 2 the closed form (a + d)/2 - hypot((a - d)/2, |b|), otherwise
    a batched eigvalsh."""
    if herm.shape[-1] == 2:
        a, d = herm[:, 0, 0].real, herm[:, 1, 1].real
        return (a + d) / 2 - np.hypot((a - d) / 2, np.abs(herm[:, 1, 0]))
    return np.linalg.eigvalsh(herm)[:, 0]


def _section(schrodinger: FramePath, rule: SectionRule, v: np.ndarray, o: np.ndarray, f: np.ndarray,
             rotation: np.ndarray | None = None) -> SectionPath:
    """A SectionPath with V(0) = I exactly, read-only V, O and F, and the
    in-phase diagnostics of O(0, t)."""
    v[0] = np.eye(v.shape[-1])
    v.flags.writeable = o.flags.writeable = f.flags.writeable = False
    mins = _min_eigenvalues(hermitian_part(o))
    asym = frobenius(o[-1] - o[-1].conj().T)
    return SectionPath(schrodinger, v, o, f, rule, float(mins[-1]), asym, float(mins.min()), rotation)


def build_section(rule: SectionRule, schrodinger: FramePath, spec: HamiltonianSpec, *,
                  tol: Tolerances = DEFAULT_TOL) -> SectionPath:
    """Construct the section L(t) = S(t) V(t) prescribed by rule for the
    given evolution: V = S^dag S(0) for a Fixed rule, diag(exp(-i arg
    <psi_j(0)|psi_j(t)>)) for PhaseAnchored, S^dag L for Custom. F =
    skew(-i S^dag H S) is the run's one sandwich of H: spec is sampled in
    chunks, each sandwiched between the Schrodinger frames while in cache.

    Raises SectionError when the rule's precondition fails: a Fixed rule on a
    moving subspace, a PhaseAnchored rule whose anchor overlap collapses, or
    a Custom path that does not span the Schrodinger subspace; ValueError,
    naming both dimensions, when spec's dimension is not the frames' N.
    """
    s = schrodinger.frames
    npts, m = s.shape[0], s.shape[2]
    f = _time_last((npts, m, m))
    for sl in _chunks(npts, schrodinger.n):
        f[sl] = _sandwich(hamiltonian_path(spec, schrodinger.grid.times[sl]), s[sl])

    if isinstance(rule, Fixed):
        drift = schrodinger.drift
        if drift > 10 * tol.structure_tol:
            raise SectionError(f"fixed section requires a constant subspace; projector moved by {drift:.3e}")
        s0 = schrodinger.initial
        gram = _time_last((npts, m, m))
        gram[...] = overlaps(s0, s0)
        return _section(schrodinger, rule, overlaps(s, s0), gram, f)

    if isinstance(rule, PhaseAnchored):
        u = overlaps(s[0], s)
        anchors = np.diagonal(u, axis1=1, axis2=2)
        weakest = float(np.abs(anchors).min())
        if weakest <= tol.positivity_tol:
            raise SectionError(
                f"anchor overlap collapsed to {weakest:.3e}; the phase-anchored "
                "section is singular for this evolution"
            )
        # exp(-i arg) is insensitive to the branch of arg, so no unwrap needed
        phases = np.exp(-1j * np.angle(anchors))
        phases[0] = 1.0
        v = np.multiply(phases[:, :, None], np.eye(m), out=_time_last((npts, m, m)))
        o = np.multiply(u, phases[:, None, :], out=_time_last((npts, m, m)))
        return _section(schrodinger, rule, v, o, f)

    if isinstance(rule, Custom):
        path = rule.path
        if not np.array_equal(path.grid.times, schrodinger.grid.times):
            raise SectionError("custom section grid differs from the evolution grid")
        if path.frames.shape != s.shape:
            raise SectionError("custom section shape does not match the evolution")
        gap = float(subspace_gap(path.frames, s).max())
        if gap > 10 * tol.structure_tol:
            raise SectionError(f"custom section does not span the evolving subspace (gap {gap:.3e})")
        if frobenius(path.initial - schrodinger.initial) > 10 * tol.structure_tol:
            raise SectionError("custom section must start at the Schrodinger frame")
        return _section(schrodinger, rule, overlaps(s, path.frames), overlaps(path.initial, path.frames), f)

    raise TypeError(f"not a section rule: {type(rule).__name__}")


def w_path(section: SectionPath) -> np.ndarray:
    """W(t_k) = L(t_k)^dag S(t_k) R = V(t_k)^dag per grid point, against the
    Schrodinger path the section holds; unitary, W(0) = identity."""
    return np.ascontiguousarray(section.v.conj().swapaxes(1, 2))


def gauge_transform(section: SectionPath, vpath: np.ndarray, *, tol: Tolerances = DEFAULT_TOL) -> SectionPath:
    """Change of section frame phi_k -> sum_j phi_j V_jk(t) per grid point.

    vpath must be a finite stack of unitaries, smooth along the grid, closed
    at the endpoint (V(tau) = V(0)). The transformed section pairs with the
    Schrodinger frames rotated by V(0), which restores L(0) = S(0): its
    rotation is the section's times V(0), its path V(0)^dag V_section(t) V(t)
    and its F V(0)^dag F_section(t) V(0), with no new sample of H.
    """
    g = np.asarray(vpath, dtype=complex)
    npts, m = section.v.shape[:2]
    if g.shape != (npts, m, m):
        raise ValueError(f"gauge path must have shape ({npts}, {m}, {m})")
    # a nan passes the checks below: nan > tol is False
    if not np.isfinite(g).all():
        raise ValueError("gauge path contains non-finite entries")
    unit_res = float(np.linalg.norm(overlaps(g, g) - np.eye(m), axis=(1, 2)).max())
    if unit_res > 10 * tol.structure_tol:
        raise ValueError(f"gauge path is not unitary (residual {unit_res:.3e})")
    if frobenius(g[-1] - g[0]) > 10 * tol.structure_tol:
        raise ValueError("gauge path is not closed: V(tau) differs from V(0)")
    g0 = g[0]
    out = _section(
        section.schrodinger, section.rule, products(overlaps(g0, section.v), g),
        products(overlaps(g0, section.overlap), g), skew_part(products(overlaps(g0, section.f), g0)),
        g0 if section.rotation is None else section.rotation @ g0,
    )
    if out.in_phase_margin <= tol.positivity_tol:
        raise InPhaseViolation(
            f"transformed section violates the in-phase condition (margin {out.in_phase_margin:.3e})"
        )
    return out
