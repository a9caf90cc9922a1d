"""Reference sections L(t), the frame-change matrix W(t), and gauge
transformations.

A section is a smooth choice of orthonormal frame spanning the same evolving
subspace as the Schrodinger frame S(t), with L(0) = S(0). The overlap matrix
O(0,t) = L(0)^dag L(t) and the unitary W(t) = L(t)^dag S(t) factor the
subspace time-evolution matrix as U(t) = O(0,t) W(t). Both, like the phase
anchors <psi_j(0)|psi_j(t)>, are one linalg.overlaps call each.

Subspace checks (a Fixed rule's drift, a Custom section's span, W's
precondition) use the gap sqrt(2) ||b - a a^dag b||_F between orthonormal
frames (linalg.subspace_gap); no N x N projector is formed. A Fixed rule
reads the drift FramePath.drift, which a path evaluates at most once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import FramePath, HamiltonianSpec
from .linalg import (
    DEFAULT_TOL,
    Tolerances,
    as_complex_matrix,
    frobenius,
    hermitian_part,
    overlaps,
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
    """Time-independent section; valid only when the subspace is constant.

    frame defaults to the initial Schrodinger frame. An explicit frame must
    coincide with it (the W(0) = identity initial condition).
    """

    frame: np.ndarray | None = None


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
    """A constructed section together with its in-phase diagnostics.

    in_phase_margin is the smallest eigenvalue of the Hermitian part of the
    endpoint overlap O(0,tau); overlap_asymmetry is the Frobenius norm of
    O(0,tau) - O(0,tau)^dag (zero for the Lambda-case sections, where O is
    Hermitian); min_intermediate_margin tracks the same eigenvalue bound
    over all interior grid points (reported, never enforced).
    """

    path: FramePath
    rule: SectionRule
    in_phase_margin: float
    overlap_asymmetry: float
    min_intermediate_margin: float


def _min_eigenvalues(herm: np.ndarray) -> np.ndarray:
    """Smallest eigenvalue of each matrix in a Hermitian stack (T, M, M):
    for M = 2 the closed form (a + d)/2 - hypot((a - d)/2, |b|), otherwise
    a batched eigvalsh."""
    if herm.shape[-1] == 2:
        a, d = herm[:, 0, 0].real, herm[:, 1, 1].real
        return (a + d) / 2 - np.hypot((a - d) / 2, np.abs(herm[:, 1, 0]))
    return np.linalg.eigvalsh(herm)[:, 0]


def _section(path: FramePath, rule: SectionRule) -> SectionPath:
    """Attach the in-phase diagnostics of the overlaps O(0, t) to a path."""
    o = overlaps(path.initial, path.frames)
    mins = _min_eigenvalues(hermitian_part(o))
    o_end = o[-1]
    asym = frobenius(o_end - o_end.conj().T)
    return SectionPath(path, rule, float(mins[-1]), asym, float(mins.min()))


def build_section(
    rule: SectionRule,
    schrodinger: FramePath,
    spec: HamiltonianSpec | None = None,
    *,
    tol: Tolerances = DEFAULT_TOL,
) -> SectionPath:
    """Construct the section L(t) prescribed by rule for the given evolution.

    Raises SectionError when the rule's precondition fails: a Fixed rule on a
    moving subspace, a PhaseAnchored rule whose anchor overlap collapses, or
    a Custom path that does not span the Schrodinger subspace.
    """
    s = schrodinger.frames
    npts = s.shape[0]

    if isinstance(rule, Fixed):
        drift = schrodinger.drift
        if drift > 10 * tol.structure_tol:
            raise SectionError(
                f"fixed section requires a constant subspace; projector moved by {drift:.3e}"
            )
        if rule.frame is None:
            frame = schrodinger.initial
        else:
            frame = as_complex_matrix(rule.frame)
            if frame.shape != schrodinger.initial.shape:
                raise SectionError("fixed frame shape does not match the evolution")
            if frobenius(frame - schrodinger.initial) > 10 * tol.structure_tol:
                raise SectionError("fixed frame must equal the initial Schrodinger frame")
        frames = np.broadcast_to(frame, (npts, *frame.shape)).copy()
        return _section(FramePath(schrodinger.grid, frames), rule)

    if isinstance(rule, PhaseAnchored):
        anchors = np.diagonal(overlaps(s[0], s), axis1=1, axis2=2)
        weakest = float(np.abs(anchors).min())
        if weakest <= tol.positivity_tol:
            raise SectionError(
                f"anchor overlap collapsed to {weakest:.3e}; the phase-anchored "
                "section is singular for this evolution"
            )
        # exp(-i arg) is insensitive to the branch of arg, so no unwrap needed
        frames = s * np.exp(-1j * np.angle(anchors))[:, None, :]
        frames[0] = s[0]
        return _section(FramePath(schrodinger.grid, frames), rule)

    if isinstance(rule, Custom):
        path = rule.path
        if not np.array_equal(path.grid.times, schrodinger.grid.times):
            raise SectionError("custom section grid differs from the evolution grid")
        if path.frames.shape != s.shape:
            raise SectionError("custom section shape does not match the evolution")
        gap = float(subspace_gap(path.frames, s).max())
        if gap > 10 * tol.structure_tol:
            raise SectionError(
                f"custom section does not span the evolving subspace (gap {gap:.3e})"
            )
        if frobenius(path.initial - schrodinger.initial) > 10 * tol.structure_tol:
            raise SectionError("custom section must start at the Schrodinger frame")
        return _section(path, rule)

    raise TypeError(f"not a section rule: {type(rule).__name__}")


def w_path(
    section: SectionPath,
    schrodinger: FramePath,
    *,
    tol: Tolerances = DEFAULT_TOL,
) -> np.ndarray:
    """W(t_k) = L(t_k)^dag S(t_k) per grid point; unitary, W(0) = identity."""
    if not np.array_equal(section.path.grid.times, schrodinger.grid.times):
        raise ValueError("section and Schrodinger paths use different grids")
    gap = float(subspace_gap(section.path.frames, schrodinger.frames).max())
    if gap > 10 * tol.structure_tol:
        raise ValueError(f"section and Schrodinger frames span different subspaces ({gap:.3e})")
    return overlaps(section.path.frames, schrodinger.frames)


def gauge_transform(
    section: SectionPath,
    vpath: np.ndarray,
    *,
    tol: Tolerances = DEFAULT_TOL,
) -> SectionPath:
    """Change of section frame phi_k -> sum_j phi_j V_jk(t) per grid point.

    vpath must be a stack of unitaries, smooth along the grid, closed at the
    endpoint (V(tau) = V(0)). When V(0) is not the identity the transformed
    section pairs with the Schrodinger path rotated by V(0), i.e. frames
    S(t) V(0), which restores the L(0) = S(0) initial condition.
    """
    v = np.asarray(vpath, dtype=complex)
    frames = section.path.frames
    npts, _, m = frames.shape
    if v.shape != (npts, m, m):
        raise ValueError(f"gauge path must have shape ({npts}, {m}, {m})")
    eye = np.eye(m)
    unit_res = float(np.linalg.norm(overlaps(v, v) - eye, axis=(1, 2)).max())
    if unit_res > 10 * tol.structure_tol:
        raise ValueError(f"gauge path is not unitary (residual {unit_res:.3e})")
    if frobenius(v[-1] - v[0]) > 10 * tol.structure_tol:
        raise ValueError("gauge path is not closed: V(tau) differs from V(0)")
    path = FramePath(section.path.grid, frames @ v, tol.structure_tol)
    out = _section(path, Custom(path))
    if out.in_phase_margin <= tol.positivity_tol:
        raise InPhaseViolation(
            f"transformed section violates the in-phase condition (margin {out.in_phase_margin:.3e})"
        )
    return out
