"""The Anandan equation, ordered exponential factors, and the
separability analysis of a section's generators.

The frame-change matrix obeys dW/dt = (A + K) W with the connection
A_jk = <dphi_j/dt|phi_k> and the dynamical matrix K_jk = -i<phi_j|H|phi_k>,
both anti-Hermitian. Its solution is a forward time-ordered exponential,
which factors as W = G D with dG/dt = A G and dD/dt = D F (F the generator
restricted to the Schrodinger frame); that product form is an identity and
holds whether or not A and K commute. A genuine split into holonomic and
dynamical forward-ordered factors additionally requires [A(t), K(t')] = 0
for all pairs of times. An exact bound on that commutator over every pair of
grid times decides the case_iii verdict; the report's max_commutator is the
magnitude from a sampled scan of the pairs. The case_i verdict reads the
path's drift, whose full sweep is skipped when one of the scanned frames
already shows the subspace moving.

With the section held as L = S V (sections), every generator is an M x M
path the section forms once: F = -i S^dag H S, the one sandwich of H,
K = V^dag F V, and A, the finite-difference connection from the section's
step overlaps L_j^dag L_k, which feeds the verdict, w_final and
solve_anandan. The holonomic factor G = T exp int A is the section's g, the
discrete parallel transport of the same step overlaps: exactly covariant
under a closed gauge, with a second-order error 3.3 times smaller than the
ordered exponential of A. The section holds the Schrodinger path it pairs
with and W = V^dag, so every function here takes the section alone, but
separability_report, which takes that path beside it and refuses any other.
decompose is the whole run: propagate, build the section, report. Every
ordered exponential, the Anandan path and the three other endpoint factors
alike, is one ordered_factor call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal

import numpy as np

from .dynamics import (
    FramePath,
    HamiltonianSpec,
    TimeGrid,
    dimension,
    propagate_frame,
)
from .linalg import (
    DEFAULT_TOL,
    Tolerances,
    frobenius,
    ordered_products,
    products,
    subspace_gap,
    unitary_stack,
)
from .sections import InPhaseViolation, SectionPath, SectionRule, build_section, w_path

__all__ = [
    "DecompositionReport",
    "decompose",
    "kw_wf_residual",
    "max_commutator_scan",
    "ordered_factor",
    "separability_report",
    "solve_anandan",
    "yu_tong_factors",
]

COMMUTATOR_SCAN_LIMIT = 64
# the values DecompositionReport.classification takes
VERDICTS = ("case_i", "case_ii", "case_iii", "non_separable")


@dataclass(frozen=True)
class DecompositionReport:
    """Endpoint factorization of the subspace evolution and its diagnostics.

    time_evolution = overlap @ w_direct reproduces S(0)^dag S(tau);
    separation_residual compares W(tau) against the forward-ordered
    holonomic and dynamical factors, product_residual against the G D
    product form (an identity, small on every run).
    """

    overlap: np.ndarray
    w_final: np.ndarray
    w_direct: np.ndarray
    holonomic_factor: np.ndarray
    dynamical_factor: np.ndarray
    g_factor: np.ndarray
    d_factor: np.ndarray
    max_commutator: float
    separation_residual: float
    product_residual: float
    classification: str
    time_evolution: np.ndarray
    in_phase_margin: float
    tau: float
    steps: int


def kw_wf_residual(section: SectionPath) -> float:
    """max_t || K(t) W(t) - W(t) F(t) ||_F with W = V^dag the section's, an
    exact identity up to roundoff."""
    w = w_path(section)
    return float(np.linalg.norm(products(section.k, w) - products(w, section.f), axis=(1, 2)).max())


def solve_anandan(section: SectionPath) -> np.ndarray:
    """Integrate dW/dt = (A + K) W with W(0) = identity; W at every grid
    point, the cumulative forward ordered_factor of A + K."""
    return ordered_factor(section.a + section.k, section.schrodinger.grid, cumulative=True)


def ordered_factor(
    mats: np.ndarray,
    grid: TimeGrid,
    direction: Literal["forward", "reverse"] = "forward",
    *,
    cumulative: bool = False,
) -> np.ndarray:
    """Time-ordered exponential of an anti-Hermitian generator path.

    forward solves dX/dt = m(t) X (later slices on the left), reverse solves
    dX/dt = X m(t) (later slices on the right); both start from the identity.
    There is one unitary slice exp(m_k dt_k) per step, with m_k the generator
    averaged over the step endpoints (midpoint rule, second order), and the
    slices are multiplied by the one pairing of linalg.ordered_products, so
    roundoff grows as O(log n) in the steps. Returns X(tau), or with
    cumulative=True X at every grid point, X(t0) the identity exactly; the
    last of those is X(tau) bit for bit.
    """
    mats = np.asarray(mats, dtype=complex)
    if mats.shape[0] != len(grid):
        raise ValueError("generator path length does not match the grid")
    mids = 0.5 * (mats[:-1] + mats[1:])
    mids *= 1j  # exactly Hermitian, and exp(-i (i m) dt) = exp(m dt)
    slices = unitary_stack(mids, np.diff(grid.times))
    if not cumulative:
        return ordered_products(slices, direction)
    out = np.empty_like(mats)
    out[0] = np.eye(mats.shape[1])
    ordered_products(slices, direction, cumulative=True, out=out[1:])
    return out


def yu_tong_factors(section: SectionPath) -> tuple[np.ndarray, np.ndarray]:
    """The auxiliary pair (G, D) with dG/dt = A G and dD/dt = D F.

    G is section.g, the discrete parallel transport of the section's step
    overlaps; D is the reverse-ordered factor of the Schrodinger-frame
    generator F rather than K, which is what makes the product form circular
    as a holonomic/dynamical split. G D equals W(tau) identically.
    """
    return section.g, ordered_factor(section.f, section.schrodinger.grid, "reverse")


def _scan_indices(npts: int) -> np.ndarray:
    """At most COMMUTATOR_SCAN_LIMIT evenly spread indices of range(npts),
    both ends included; strictly increasing after rounding, since the step is
    exactly 1 up to COMMUTATOR_SCAN_LIMIT points and above 1 beyond."""
    return np.linspace(0, npts - 1, min(COMMUTATOR_SCAN_LIMIT, npts)).round().astype(int)


def max_commutator_scan(a_mats: np.ndarray, k_mats: np.ndarray) -> float:
    """max over sampled (t, t') of ||[A(t), K(t')]||_F.

    The scan subsamples each axis to at most COMMUTATOR_SCAN_LIMIT points,
    always including both endpoints. It only fills the reported magnitude;
    the verdict comes from the exact bound over every grid pair.
    """
    idx = _scan_indices(a_mats.shape[0])
    # every sampled pair (t, t') at once: a[:, None] k[None] is A(t) K(t')
    a, k = a_mats[idx][:, None], k_mats[idx][None]
    return float(np.linalg.norm(products(a, k) - products(k, a), axis=(2, 3)).max())


def _commutator_bound(a_mats: np.ndarray, k_mats: np.ndarray) -> float:
    """Upper bound on ||[A(t), K(t')]||_F over every pair of grid times.

    SVDs of the stacked (T, M^2) paths give A(t) = sum_i w_ti s_i U_i and
    K(t') = sum_j x_t'j r_j V_j with Frobenius-orthonormal U_i, V_j, so by the
    triangle inequality every commutator is at most
    sum_ij (max_t |w_ti| s_i)(max_t' |x_t'j| r_j) ||[U_i, V_j]||_F. The bound
    does not grow with T and is exactly zero when the two spans commute.
    """

    def expand(mats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        npts, m, _ = mats.shape
        # the (M^2, T) rows: a view of a time-last stack, a small copy of a
        # C-order one
        rows = np.moveaxis(mats, 0, -1).reshape(m * m, npts)
        # the stack's right singular vectors are those of its R factor, an
        # SVD of at most M^2 x M^2 whatever T is; conj(vh) @ rows holds (w s)^T
        vh = np.linalg.svd(np.linalg.qr(rows.T, mode="r"))[2]
        return np.abs(vh.conj() @ rows).max(axis=1), vh.reshape(-1, m, m)

    ca, u = expand(a_mats)
    ck, v = expand(k_mats)
    comm = products(u[:, None], v[None]) - products(v[None], u[:, None])
    return float(ca @ np.linalg.norm(comm, axis=(2, 3)) @ ck)


def _constant_subspace(schrodinger: FramePath, tol: Tolerances) -> bool:
    """drift <= separation_tol, with the full sweep of drift taken only when
    no witness is found: a gap above tol on one of the _scan_indices frames.
    A drift already formed, by a Fixed section's precondition, is read as
    it is."""
    if "drift" not in vars(schrodinger):
        frames = schrodinger.frames
        if subspace_gap(schrodinger.initial, frames[_scan_indices(len(frames))]).max() > tol.separation_tol:
            return False
    return schrodinger.drift <= tol.separation_tol


def _classify(schrodinger: FramePath, a: np.ndarray, k: np.ndarray, tol: Tolerances) -> str:
    if _constant_subspace(schrodinger, tol):
        return "case_i"
    if float(np.linalg.norm(k, axis=(1, 2)).max()) <= tol.separation_tol:
        return "case_ii"
    if _commutator_bound(a, k) <= tol.separation_tol:
        return "case_iii"
    return "non_separable"


def separability_report(section: SectionPath, schrodinger: FramePath, spec: HamiltonianSpec,
                        tol: Tolerances = DEFAULT_TOL) -> DecompositionReport:
    """Full endpoint decomposition: overlap, W by two routes, all four
    ordered factors (G the section's g), the sampled commutator magnitude
    and the case classification.

    schrodinger must be section.schrodinger itself, the one path W = L^dag S
    is defined against; any other object, a copy of it included, raises
    ValueError. Raises InPhaseViolation when the endpoint overlap fails
    positivity. spec is kept for positional callers and read only for its
    dimension, refused (ValueError) unless it is the section's N.
    """
    if schrodinger is not section.schrodinger:
        raise ValueError(f"schrodinger (a {type(schrodinger).__name__} at {id(schrodinger):#x}) is not "
                         f"section.schrodinger (at {id(section.schrodinger):#x}), the path the section was built on")
    if section.in_phase_margin <= tol.positivity_tol:
        raise InPhaseViolation(f"in-phase margin {section.in_phase_margin:.3e} is not positive")
    if dimension(spec) != schrodinger.n:
        raise ValueError(f"Hamiltonian dimension {dimension(spec)} does not match frame dimension {schrodinger.n}")

    a, k, grid = section.a, section.k, schrodinger.grid
    w_direct, overlap = section.v[-1].conj().T, section.overlap[-1].copy()
    # the holonomic factor T exp(int A) is the G of the product form
    g, d = yu_tong_factors(section)
    dyn = ordered_factor(k, grid, "forward")
    return DecompositionReport(
        overlap=overlap,
        # the endpoint of solve_anandan, bit for bit
        w_final=ordered_factor(a + k, grid),
        w_direct=w_direct,
        holonomic_factor=g,
        dynamical_factor=dyn,
        g_factor=g,
        d_factor=d,
        max_commutator=max_commutator_scan(a, k),
        separation_residual=frobenius(w_direct - g @ dyn),
        product_residual=frobenius(w_direct - g @ d),
        classification=_classify(schrodinger, a, k, tol),
        time_evolution=overlap @ w_direct,
        in_phase_margin=section.in_phase_margin,
        tau=schrodinger.grid.tau,
        steps=schrodinger.grid.steps,
    )



def decompose(spec: HamiltonianSpec, psi0: np.ndarray, rule: SectionRule, grid: TimeGrid,
              tol: Tolerances = DEFAULT_TOL) -> tuple[SectionPath, DecompositionReport]:
    """One run: the Schrodinger path of psi0 under spec on grid, the section
    rule prescribes on it, and that section's separability report. The path
    is section.schrodinger."""
    schrod = propagate_frame(spec, psi0, grid, tol=tol)
    section = build_section(rule, schrod, spec, tol=tol)
    return section, separability_report(section, schrod, spec, tol)
