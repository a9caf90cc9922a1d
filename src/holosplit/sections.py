"""Reference sections L(t), the frame-change matrix W(t), and gauge
transformations.

A section is a smooth choice of orthonormal frame spanning the same evolving
subspace as the Schrodinger frame S(t), with L(0) = S(0), so it is
L(t) = S(t) V(t) with V(t) an M x M unitary path and V(0) = I. A SectionPath
holds S, V and O(0,t) = L(0)^dag L(t) = U(t) V(t), U(t) = S(0)^dag S(t),
which each rule forms from the Schrodinger overlaps it already takes; W(t) =
L(t)^dag S(t) is V(t)^dag, so U = O W. It holds F = -i S^dag H S too, the
run's one sandwich of H (for a Constant H taken once, at t = 0, as F is
conserved), which a gauge transform rotates, and what the
section forms once, in _section, shared by every rule and by
gauge_transform: the generators of W, the connection A (the np.gradient
difference of its step overlaps, which feeds the verdict, w_final and
solve_anandan) and K = V^dag F V, and the holonomic factor G = T exp int A,
the polar factor of the ordered product of the same step overlaps. That G
is exactly covariant under a closed gauge, G -> g(0)^dag G g(0), and its
second-order error is 3.3 times smaller than the ordered exponential of A.
Everything after build_section is M x M, and no N x M
section frame is formed. W, A and K have meaning only against the
section's own evolution, so a function of a section takes the section
alone.
Subspace checks use the gap sqrt(2) ||b - a a^dag b||_F between orthonormal
frames (linalg.subspace_gap). Each pass over the frame path (F, the step
overlaps, a Fixed or Custom V and gap) goes a dynamics._chunks chunk at a time.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dynamics import Constant, FramePath, HamiltonianSpec, _chunks, _frame_overlaps, _sandwich, hamiltonian_path
from .linalg import (
    DEFAULT_TOL,
    Tolerances,
    _time_last,
    frobenius,
    hermitian_part,
    loewdin_orthonormalize,
    ordered_products,
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
    point. a is the connection A_jk(t) = <dphi_j/dt|phi_k> and k the
    dynamical matrix K(t) = V^dag F V, the generators of dW/dt = (A + K) W,
    which the section forms once; g is the holonomic factor G = T exp int A,
    the polar factor of the adjoint step-overlap product L_T^dag L_{T-1}
    ... L_1^dag L_0 (exactly the identity for an unrotated Fixed section).
    v, overlap, f, a, k and g are read-only and f, a and k exactly
    anti-Hermitian. in_phase_margin is the smallest
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
    a: np.ndarray = field(repr=False)
    k: np.ndarray = field(repr=False)
    g: np.ndarray = field(repr=False)
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


def _connection(schrodinger: FramePath, rule: SectionRule, v: np.ndarray,
                rotation: np.ndarray | None) -> tuple[np.ndarray, np.ndarray]:
    """The connection A and the holonomic factor G = T exp int A, both from
    the M x M step overlaps Z_k = L_k^dag L_{k+1} = V_k^dag R^dag S_k^dag
    S_{k+1} R V_{k+1}.

    A_jk(t) = <dphi_j/dt|phi_k> per grid point is np.gradient's second-order
    difference of the section frames (edge_order=2 at the ends), with its
    weights on any grid; the j = k term is real times the identity and drops
    out of the anti-Hermitian part. G is the discrete parallel transport
    along the grid, the polar factor of Z_{T-1}^dag ... Z_0^dag = L_T^dag
    Pi_{T-1} ... Pi_1 L_0 with Pi_k = L_k L_k^dag: under L -> L g it becomes
    g(tau)^dag G g(0) exactly, on any grid. A Fixed section is constant, so
    its A is exactly zero and its G exactly the identity.

    Raises SectionError when the step-overlap product is numerically rank
    deficient, a grid too coarse to carry the subspace from step to step.
    """
    s, times = schrodinger.frames, schrodinger.grid.times
    n = times.size
    if n < 3:
        raise ValueError("connection needs a grid with at least 3 points")
    if isinstance(rule, Fixed) and rotation is None:
        return np.zeros_like(v), np.eye(v.shape[-1], dtype=complex)
    v = v if rotation is None else products(rotation, v)

    def step_overlaps(j, k):
        return products(overlaps(v[j], _frame_overlaps(s[j], s[k])), v[k])

    steps = step_overlaps(slice(0, n - 1), slice(1, n))
    g = _transport(steps)
    # z holds skew(L_j^dag L_k) for every step (k, k + 1) and ends for (0, 2)
    # and (n - 3, n - 1); skew(X^dag) = -skew(X)
    z, ends = skew_part(steps), skew_part(step_overlaps([0, n - 3], [2, n - 1]))
    del steps  # freed before A's stack, so a section's memory peak does not grow
    h = np.diff(times)
    h1, h2 = h[:-1, None, None], h[1:, None, None]
    a = _time_last((n, *z.shape[1:]))
    a[1:-1] = -h2 / (h1 * (h1 + h2)) * z[:-1] - h1 / (h2 * (h1 + h2)) * z[1:]
    a[0] = -(h[0] + h[1]) / (h[0] * h[1]) * z[0] + h[0] / (h[1] * (h[0] + h[1])) * ends[0]
    a[-1] = h[-1] / (h[-2] * (h[-2] + h[-1])) * ends[1] - (h[-2] + h[-1]) / (h[-2] * h[-1]) * z[-1]
    return a, g


def _transport(steps: np.ndarray) -> np.ndarray:
    """G = polar(Z_{T-1}^dag ... Z_0^dag) from the step overlaps Z_k, as the
    adjoint of the Loewdin factor of Z_0 ... Z_{T-1}: an M x M matrix is an
    M-column frame, and its Loewdin factor is its polar factor. The product
    is scaled to unit Frobenius norm first, which leaves the polar factor as
    it is and keeps a long coarse run from underflowing the Gram
    determinant."""
    prod = ordered_products(steps, "reverse")
    scale = frobenius(prod)
    if scale > 0.0:
        try:
            return np.ascontiguousarray(loewdin_orthonormalize(prod / scale).conj().T)
        except ValueError:  # Loewdin's rank check
            pass
    cosine = float(np.linalg.svd(steps, compute_uv=False).min())
    raise SectionError(
        f"the {steps.shape[0]}-step grid does not resolve the subspace: the ordered step-overlap "
        f"product is numerically rank deficient (smallest step cosine {cosine:.3e})"
    )


def _section(schrodinger: FramePath, rule: SectionRule, v: np.ndarray, o: np.ndarray, f: np.ndarray,
             rotation: np.ndarray | None = None) -> SectionPath:
    """A SectionPath with V(0) = I exactly, its generators A and K and its
    holonomic factor G, read-only V, O, F, A, K and G, and the in-phase
    diagnostics of O(0, t). Raises ValueError on a grid of fewer than 3
    points, where A is undefined, and SectionError on a grid that does not
    resolve the subspace (_transport)."""
    v[0] = np.eye(v.shape[-1])
    a, g = _connection(schrodinger, rule, v, rotation)
    k = skew_part(products(overlaps(v, f), v))
    for arr in (v, o, f, a, k, g):
        arr.flags.writeable = False
    mins = _min_eigenvalues(hermitian_part(o))
    asym = frobenius(o[-1] - o[-1].conj().T)
    return SectionPath(schrodinger, v, o, f, a, k, g, rule, float(mins[-1]), asym, float(mins.min()), rotation)


def build_section(rule: SectionRule, schrodinger: FramePath, spec: HamiltonianSpec, *,
                  tol: Tolerances = DEFAULT_TOL) -> SectionPath:
    """Construct the section L(t) = S(t) V(t) prescribed by rule for the
    given evolution: V = S^dag S(0) for a Fixed rule, diag(exp(-i arg
    <psi_j(0)|psi_j(t)>)) for PhaseAnchored, S^dag L for Custom. F =
    skew(-i S^dag H S) is the run's one sandwich of H: a Sampled spec is
    sampled in chunks, each sandwiched between the Schrodinger frames while
    in cache. For a Constant spec S(t) = exp(-iHt) S(0), and exp(-iHt)
    commutes with H, so F(t) = F(0) exactly: one sandwich at t = 0 fills
    every grid point. schrodinger must be the evolution of spec (as
    propagate_frame gives it); F is not checked against it.

    Raises SectionError when the rule's precondition fails: a Fixed rule on a
    moving subspace, a PhaseAnchored rule whose anchor overlap collapses, or
    a Custom path that does not span the Schrodinger subspace; also when the
    grid is too coarse for the section's step-overlap product to keep full
    rank, naming the step count and the smallest step cosine; ValueError,
    naming both dimensions, when spec's dimension is not the frames' N.
    """
    s, times = schrodinger.frames, schrodinger.grid.times
    npts, m = s.shape[0], s.shape[2]
    f = _time_last((npts, m, m))
    if isinstance(spec, Constant):
        f[...] = _sandwich(hamiltonian_path(spec, times[:1]), s[:1])
    else:
        for sl in _chunks(npts, schrodinger.n):
            f[sl] = _sandwich(hamiltonian_path(spec, times[sl]), s[sl])

    if isinstance(rule, Fixed):
        drift = schrodinger.drift
        if drift > 10 * tol.structure_tol:
            raise SectionError(f"fixed section requires a constant subspace; projector moved by {drift:.3e}")
        s0 = schrodinger.initial
        gram = _time_last((npts, m, m))
        gram[...] = overlaps(s0, s0)
        return _section(schrodinger, rule, _frame_overlaps(s, s0), gram, f)

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
        gap = max(float(subspace_gap(path.frames[sl], s[sl]).max()) for sl in _chunks(npts, schrodinger.n))
        if gap > 10 * tol.structure_tol:
            raise SectionError(f"custom section does not span the evolving subspace (gap {gap:.3e})")
        if frobenius(path.initial - schrodinger.initial) > 10 * tol.structure_tol:
            raise SectionError("custom section must start at the Schrodinger frame")
        return _section(schrodinger, rule, _frame_overlaps(s, path.frames), overlaps(path.initial, path.frames), f)

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
    and its F V(0)^dag F_section(t) V(0), with no new sample of H. It does
    not raise InPhaseViolation, which separability_report enforces: O(0,tau)
    -> V(0)^dag O(0,tau) V(0) leaves the in-phase margin as it is.
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
    return _section(
        section.schrodinger, section.rule, products(overlaps(g0, section.v), g),
        products(overlaps(g0, section.overlap), g), skew_part(products(overlaps(g0, section.f), g0)),
        g0 if section.rotation is None else section.rotation @ g0,
    )
