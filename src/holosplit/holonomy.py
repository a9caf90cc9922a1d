"""Connection and dynamical generators, the Anandan equation, ordered
exponential factors, and the separability analysis.

The frame-change matrix obeys dW/dt = (A + K) W with the connection
A_jk = <dphi_j/dt|phi_k> and the dynamical matrix K_jk = -i<phi_j|H|phi_k>,
both anti-Hermitian. Its solution is a forward time-ordered exponential,
which factors as W = G D with dG/dt = A G and dD/dt = D F (F the generator
restricted to the Schrodinger frame); that product form is an identity and
holds whether or not A and K commute. A genuine split into holonomic and
dynamical forward-ordered factors additionally requires [A(t), K(t')] = 0
for all pairs of times. An exact bound on that commutator over every pair of
grid times decides the case_iii verdict; the report's max_commutator is the
magnitude from a sampled scan of the pairs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Literal

import numpy as np

from .dynamics import (
    FramePath,
    HamiltonianSpec,
    TimeGrid,
    _chunks,
    _propagate,
    _sandwich,
    hamiltonian_path,
    propagate_frame,
)
from .linalg import (
    DEFAULT_TOL,
    Tolerances,
    frobenius,
    ordered_products,
    overlaps,
    skew_part,
    unitary_stack,
)
from .sections import InPhaseViolation, SectionPath, w_path

__all__ = [
    "DecompositionReport",
    "GeneratorPath",
    "connection_path",
    "generator_path",
    "kw_wf_residual",
    "max_commutator_scan",
    "ordered_factor",
    "separability_report",
    "solve_anandan",
    "trivial_shift_check",
    "yu_tong_factors",
]

COMMUTATOR_SCAN_LIMIT = 64
# the values DecompositionReport.classification takes
VERDICTS = ("case_i", "case_ii", "case_iii", "non_separable")


@dataclass(frozen=True)
class GeneratorPath:
    """Connection A(t), dynamical matrix K(t) and restricted generator F(t)
    sampled on a common grid; all anti-Hermitian M x M."""

    grid: TimeGrid
    a_mats: np.ndarray = field(repr=False)
    k_mats: np.ndarray = field(repr=False)
    f_mats: np.ndarray = field(repr=False)

    def __post_init__(self):
        npts = len(self.grid)
        for name in ("a_mats", "k_mats", "f_mats"):
            mats = np.asarray(getattr(self, name), dtype=complex)
            if mats.ndim != 3 or mats.shape[1] != mats.shape[2]:
                raise ValueError(f"{name} must be a stack of square matrices")
            if mats.shape[0] != npts:
                raise ValueError(f"{name} length does not match the grid")
            skew_res = np.linalg.norm(
                mats + mats.conj().swapaxes(1, 2), axis=(1, 2)
            ).max()
            if skew_res > 10 * DEFAULT_TOL.structure_tol:
                raise ValueError(f"{name} is not anti-Hermitian (residual {skew_res:.3e})")
            object.__setattr__(self, name, mats)


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


def connection_path(section: SectionPath) -> np.ndarray:
    """A_jk(t) = <dphi_j/dt|phi_k> per grid point, from second-order finite
    differences of the section columns (one-sided at the endpoints),
    projected exactly anti-Hermitian."""
    times = section.path.grid.times
    if times.size < 3:
        raise ValueError("connection needs a grid with at least 3 points")
    frames = section.path.frames
    dframes = np.gradient(frames, times, axis=0, edge_order=2)
    return skew_part(overlaps(dframes, frames))


def generator_path(
    section: SectionPath, schrodinger: FramePath, spec: HamiltonianSpec
) -> GeneratorPath:
    """Assemble A, K and F along the section's grid. H is sampled chunk by
    chunk, never whole, and each chunk is sandwiched between the section
    frames (K) and the Schrodinger frames (F) while it is in cache.
    This is the only place K_jk(t) = -i <phi_j(t)|H(t)|phi_k(t)> is formed."""
    sec, sch = section.path, schrodinger
    times = sec.grid.times
    if len(sch.grid) != times.size:
        raise ValueError("Schrodinger path length does not match the section grid")
    k_mats = np.empty((times.size, sec.m, sec.m), dtype=complex)
    f_mats = np.empty((times.size, sch.m, sch.m), dtype=complex)
    for sl in _chunks(times.size, sec.n):
        hams = hamiltonian_path(spec, times[sl])
        k_mats[sl] = _sandwich(hams, sec.frames[sl])
        f_mats[sl] = _sandwich(hams, sch.frames[sl])
    return GeneratorPath(
        grid=sec.grid,
        a_mats=connection_path(section),
        k_mats=k_mats,
        f_mats=f_mats,
    )


def kw_wf_residual(generators: GeneratorPath, w: np.ndarray) -> float:
    """max_t || K(t) W(t) - W(t) F(t) ||_F, an exact identity up to roundoff."""
    w = np.asarray(w, dtype=complex)
    if w.shape != generators.k_mats.shape:
        raise ValueError("W path does not match the generator grid")
    return float(np.linalg.norm(generators.k_mats @ w - w @ generators.f_mats, axis=(1, 2)).max())


def _midpoint_products(mats: np.ndarray, times: np.ndarray) -> np.ndarray:
    """exp(m_k dt_k) with m_k the step-averaged anti-Hermitian generator."""
    mids = 0.5 * (mats[:-1] + mats[1:])
    mids *= 1j  # exactly Hermitian, and exp(-i (i m) dt) = exp(m dt)
    return unitary_stack(mids, np.diff(times))


def solve_anandan(generators: GeneratorPath) -> np.ndarray:
    """Integrate dW/dt = (A + K) W with W(0) = identity.

    One unitary slice per step, generator averaged over the step endpoints
    (midpoint rule, second order); later slices multiply on the left. The
    path is the forward prefix scan of the slices (log-depth tree, see
    linalg.ordered_products). Returns W at every grid point.
    """
    gen = generators.a_mats + generators.k_mats
    slices = _midpoint_products(gen, generators.grid.times)
    out = np.empty_like(gen)
    out[0] = np.eye(gen.shape[1])
    out[1:] = ordered_products(slices, "forward", cumulative=True)
    return out


def ordered_factor(
    mats: np.ndarray,
    grid: TimeGrid,
    direction: Literal["forward", "reverse"] = "forward",
) -> np.ndarray:
    """Time-ordered exponential of an anti-Hermitian generator path.

    forward solves dX/dt = m(t) X (later slices on the left), reverse solves
    dX/dt = X m(t) (later slices on the right); both start from the identity.
    The midpoint slices are multiplied by pairwise tree reduction
    (linalg.ordered_products), so roundoff grows as O(log n) in the steps.
    """
    mats = np.asarray(mats, dtype=complex)
    if mats.shape[0] != len(grid):
        raise ValueError("generator path length does not match the grid")
    return ordered_products(_midpoint_products(mats, grid.times), direction)


def yu_tong_factors(generators: GeneratorPath) -> tuple[np.ndarray, np.ndarray]:
    """The auxiliary pair (G, D) with dG/dt = A G and dD/dt = D F.

    G D equals W(tau) identically; the D factor is reverse-ordered and is
    built from the Schrodinger-frame generator F rather than K, which is
    what makes the product form circular as a holonomic/dynamical split.
    """
    g = ordered_factor(generators.a_mats, generators.grid, "forward")
    d = ordered_factor(generators.f_mats, generators.grid, "reverse")
    return g, d


def max_commutator_scan(a_mats: np.ndarray, k_mats: np.ndarray) -> float:
    """max over sampled (t, t') of ||[A(t), K(t')]||_F.

    The scan subsamples each axis to at most COMMUTATOR_SCAN_LIMIT points,
    always including both endpoints. It only fills the reported magnitude;
    the verdict comes from the exact bound over every grid pair.
    """
    npts = a_mats.shape[0]
    idx = np.unique(np.linspace(0, npts - 1, min(COMMUTATOR_SCAN_LIMIT, npts)).round().astype(int))
    # every sampled pair (t, t') at once: a[:, None] @ k[None] is A(t) K(t')
    a, k = a_mats[idx][:, None], k_mats[idx][None]
    return float(np.linalg.norm(a @ k - k @ a, axis=(2, 3)).max())


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
        flat = mats.reshape(npts, m * m)
        # the stack's right singular vectors are those of its R factor, an
        # SVD of at most M^2 x M^2 whatever T is; flat @ vh^dag holds w s
        vh = np.linalg.svd(np.linalg.qr(flat, mode="r"))[2]
        return np.abs(flat @ vh.conj().T).max(axis=0), vh.reshape(-1, m, m)

    ca, u = expand(a_mats)
    ck, v = expand(k_mats)
    comm = u[:, None] @ v[None] - v[None] @ u[:, None]
    return float(ca @ np.linalg.norm(comm, axis=(2, 3)) @ ck)


def _classify(schrodinger: FramePath, generators: GeneratorPath, tol: Tolerances) -> str:
    if schrodinger.drift <= tol.separation_tol:
        return "case_i"
    if float(np.linalg.norm(generators.k_mats, axis=(1, 2)).max()) <= tol.separation_tol:
        return "case_ii"
    if _commutator_bound(generators.a_mats, generators.k_mats) <= tol.separation_tol:
        return "case_iii"
    return "non_separable"


def separability_report(
    section: SectionPath,
    schrodinger: FramePath,
    spec: HamiltonianSpec,
    tol: Tolerances = DEFAULT_TOL,
) -> DecompositionReport:
    """Full endpoint decomposition: overlap, W by two routes, all four
    ordered factors, the sampled commutator magnitude and the case
    classification.

    Raises InPhaseViolation when the endpoint overlap fails positivity.
    """
    if not np.array_equal(section.path.grid.times, schrodinger.grid.times):
        raise ValueError("section and Schrodinger paths use different grids")
    if section.in_phase_margin <= tol.positivity_tol:
        raise InPhaseViolation(
            f"in-phase margin {section.in_phase_margin:.3e} is not positive"
        )

    generators = generator_path(section, schrodinger, spec)
    w_direct = w_path(section, schrodinger, tol=tol)[-1]
    # only the endpoint of the Anandan solution is reported
    w_final = ordered_factor(generators.a_mats + generators.k_mats, generators.grid)
    overlap = overlaps(section.path.initial, section.path.final)

    # the holonomic factor T exp(int A) is the G of the product form
    g, d = yu_tong_factors(generators)
    dyn = ordered_factor(generators.k_mats, generators.grid, "forward")

    max_comm = max_commutator_scan(generators.a_mats, generators.k_mats)
    separation = frobenius(w_direct - g @ dyn)
    product = frobenius(w_direct - g @ d)
    classification = _classify(schrodinger, generators, tol)

    return DecompositionReport(
        overlap=overlap,
        w_final=w_final,
        w_direct=w_direct,
        holonomic_factor=g,
        dynamical_factor=dyn,
        g_factor=g,
        d_factor=d,
        max_commutator=max_comm,
        separation_residual=separation,
        product_residual=product,
        classification=classification,
        time_evolution=overlap @ w_direct,
        in_phase_margin=section.in_phase_margin,
        tau=section.path.grid.tau,
        steps=section.path.grid.steps,
    )


def trivial_shift_check(
    spec: HamiltonianSpec,
    psi0: np.ndarray,
    f_dot: Callable[[float], float],
    grid: TimeGrid,
) -> float:
    """Residual max_t ||W(t) - identity|| for a common-phase section.

    The section phi_j(t) = exp(i f(t)) psi_j(t), f(0) = 0, consists of
    solutions of the Schrodinger equation for the shifted Hamiltonian
    H(t) - df/dt; the frame-change matrix against that shifted evolution is
    therefore the identity. A commuting-but-nontrivial W cannot be produced
    this way, which is why [K(t), W(t)] = 0 forces W(t) = identity.
    """
    times = grid.times
    mids = 0.5 * (times[:-1] + times[1:])
    rates = np.array([float(f_dot(t)) for t in mids])

    base = propagate_frame(spec, psi0, grid)
    eye = np.eye(base.n)
    shifted_path = _propagate(
        lambda sl: hamiltonian_path(spec, mids[sl]) - rates[sl, None, None] * eye,
        np.asarray(psi0, dtype=complex),
        grid,
    )

    # accumulate f by the same midpoint quadrature the propagator applies,
    # so the phase relation between the two paths is exact per step
    f = np.concatenate([[0.0], np.cumsum(rates * np.diff(times))])
    section_frames = base.frames * np.exp(1j * f)[:, None, None]
    w = overlaps(section_frames, shifted_path.frames)
    return float(np.linalg.norm(w - np.eye(w.shape[1]), axis=(1, 2)).max())
