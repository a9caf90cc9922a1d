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

With the section held as L = S V (sections), every generator is an M x M
path formed once: F = -i S^dag H S, the one sandwich of H, is the section's
(build_section forms it), K is V^dag F V, and A is the finite-difference
connection from the section's step overlaps L_j^dag L_k. The section holds
the Schrodinger path it pairs with, so no function here takes one beside it
but separability_report, which refuses any other. Every ordered exponential,
the Anandan path and the four endpoint factors alike, is one ordered_factor
call.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Literal

import numpy as np

from .dynamics import (
    FramePath,
    HamiltonianSpec,
    TimeGrid,
    _propagate,
    dimension,
    hamiltonian_path,
    propagate_frame,
)
from .linalg import (
    DEFAULT_TOL,
    Tolerances,
    _time_last,
    frobenius,
    ordered_products,
    overlaps,
    products,
    skew_part,
    unitary_stack,
)
from .sections import Fixed, InPhaseViolation, SectionPath

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
        for name in ("a_mats", "k_mats", "f_mats"):
            mats = np.asarray(getattr(self, name), dtype=complex)
            if mats.ndim != 3 or mats.shape[1] != mats.shape[2]:
                raise ValueError(f"{name} must be a stack of square matrices")
            if mats.shape[0] != len(self.grid):
                raise ValueError(f"{name} length does not match the grid")
            skew_res = np.linalg.norm(mats + mats.conj().swapaxes(1, 2), axis=(1, 2)).max()
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
    """A_jk(t) = <dphi_j/dt|phi_k> per grid point: np.gradient's second-order
    difference of the section frames (edge_order=2 at the ends), with its
    weights on any grid, taken from the M x M step overlaps L_j^dag L_k =
    V_j^dag R^dag S_j^dag S_k R V_k; the j = k term is real times the
    identity and drops out of the anti-Hermitian part. A Fixed section is
    constant, so its connection is exactly zero."""
    s, times = section.schrodinger.frames, section.schrodinger.grid.times
    n = times.size
    if n < 3:
        raise ValueError("connection needs a grid with at least 3 points")
    if isinstance(section.rule, Fixed) and section.rotation is None:
        return np.zeros_like(section.v)
    v = section.v if section.rotation is None else products(section.rotation, section.v)

    def skew_overlaps(j, k):
        return skew_part(products(overlaps(v[j], overlaps(s[j], s[k])), v[k]))

    # z holds skew(L_j^dag L_k) for every step (k, k + 1) and ends for (0, 2)
    # and (n - 3, n - 1); skew(X^dag) = -skew(X)
    z, ends = skew_overlaps(slice(0, n - 1), slice(1, n)), skew_overlaps([0, n - 3], [2, n - 1])
    h = np.diff(times)
    h1, h2 = h[:-1, None, None], h[1:, None, None]
    a = _time_last((n, *z.shape[1:]))
    a[1:-1] = -h2 / (h1 * (h1 + h2)) * z[:-1] - h1 / (h2 * (h1 + h2)) * z[1:]
    a[0] = -(h[0] + h[1]) / (h[0] * h[1]) * z[0] + h[0] / (h[1] * (h[0] + h[1])) * ends[0]
    a[-1] = h[-1] / (h[-2] * (h[-2] + h[-1])) * ends[1] - (h[-2] + h[-1]) / (h[-2] * h[-1]) * z[-1]
    return a


def generator_path(section: SectionPath) -> GeneratorPath:
    """A, K and F along the section's grid, with no sample of H: F is the
    section's, K is V^dag F V per grid point, A is connection_path."""
    k_mats = skew_part(products(overlaps(section.v, section.f), section.v))
    return GeneratorPath(section.schrodinger.grid, connection_path(section), k_mats, section.f)


def kw_wf_residual(generators: GeneratorPath, w: np.ndarray) -> float:
    """max_t || K(t) W(t) - W(t) F(t) ||_F, an exact identity up to roundoff."""
    w = np.asarray(w, dtype=complex)
    if w.shape != generators.k_mats.shape:
        raise ValueError("W path does not match the generator grid")
    return float(np.linalg.norm(products(generators.k_mats, w) - products(w, generators.f_mats), axis=(1, 2)).max())


def solve_anandan(generators: GeneratorPath) -> np.ndarray:
    """Integrate dW/dt = (A + K) W with W(0) = identity; W at every grid
    point, the cumulative forward ordered_factor of A + K."""
    return ordered_factor(generators.a_mats + generators.k_mats, generators.grid, cumulative=True)


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
    # strictly increasing after rounding: the step is exactly 1 up to
    # COMMUTATOR_SCAN_LIMIT points and above 1 beyond
    idx = np.linspace(0, npts - 1, min(COMMUTATOR_SCAN_LIMIT, npts)).round().astype(int)
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
        # a view: a C-order stack reshapes as it is, a time-last one is the
        # transpose of its (M^2, T) buffer
        flat = (mats.reshape(npts, m * m) if mats.flags.c_contiguous
                else np.moveaxis(mats, 0, -1).reshape(m * m, npts).T)
        # the stack's right singular vectors are those of its R factor, an
        # SVD of at most M^2 x M^2 whatever T is; flat @ vh^dag holds w s
        vh = np.linalg.svd(np.linalg.qr(flat, mode="r"))[2]
        return np.abs(flat @ vh.conj().T).max(axis=0), vh.reshape(-1, m, m)

    ca, u = expand(a_mats)
    ck, v = expand(k_mats)
    comm = products(u[:, None], v[None]) - products(v[None], u[:, None])
    return float(ca @ np.linalg.norm(comm, axis=(2, 3)) @ ck)


def _classify(schrodinger: FramePath, generators: GeneratorPath, tol: Tolerances) -> str:
    if schrodinger.drift <= tol.separation_tol:
        return "case_i"
    if float(np.linalg.norm(generators.k_mats, axis=(1, 2)).max()) <= tol.separation_tol:
        return "case_ii"
    if _commutator_bound(generators.a_mats, generators.k_mats) <= tol.separation_tol:
        return "case_iii"
    return "non_separable"


def separability_report(section: SectionPath, schrodinger: FramePath, spec: HamiltonianSpec,
                        tol: Tolerances = DEFAULT_TOL) -> DecompositionReport:
    """Full endpoint decomposition: overlap, W by two routes, all four
    ordered factors, the sampled commutator magnitude and the case
    classification.

    schrodinger is the section's own path object, or a path on its grid
    that holds the frames S R the section pairs with (S its Schrodinger
    frames, R its rotation) within 10 structure_tol at every grid point;
    any other raises ValueError. Raises InPhaseViolation when the endpoint
    overlap fails positivity. spec is kept for positional callers and read
    only for its dimension, refused (ValueError) unless it is the section's N.
    """
    sch = section.schrodinger
    if schrodinger is not sch:
        if not np.array_equal(sch.grid.times, schrodinger.grid.times):
            raise ValueError(f"section and Schrodinger paths use different grids (lengths {len(sch.grid)}, "
                             f"{len(schrodinger.grid)})")
        if schrodinger.frames.shape != sch.frames.shape:
            raise ValueError(f"Schrodinger frames of shape {schrodinger.frames.shape}, section's {sch.frames.shape}")
        rs = sch.frames if section.rotation is None else products(sch.frames, section.rotation)
        dev = float(np.linalg.norm(schrodinger.frames - rs, axis=(1, 2)).max())
        if dev > 10 * tol.structure_tol:
            raise ValueError(f"Schrodinger frames deviate by {dev:.3e} from the frames S R the section pairs with")
    if section.in_phase_margin <= tol.positivity_tol:
        raise InPhaseViolation(f"in-phase margin {section.in_phase_margin:.3e} is not positive")
    if dimension(spec) != sch.n:
        raise ValueError(f"Hamiltonian dimension {dimension(spec)} does not match frame dimension {sch.n}")

    generators = generator_path(section)
    w_direct, overlap = section.v[-1].conj().T, section.overlap[-1].copy()
    # the holonomic factor T exp(int A) is the G of the product form
    g, d = yu_tong_factors(generators)
    dyn = ordered_factor(generators.k_mats, generators.grid, "forward")
    return DecompositionReport(
        overlap=overlap,
        # the endpoint of solve_anandan, bit for bit
        w_final=ordered_factor(generators.a_mats + generators.k_mats, generators.grid),
        w_direct=w_direct,
        holonomic_factor=g,
        dynamical_factor=dyn,
        g_factor=g,
        d_factor=d,
        max_commutator=max_commutator_scan(generators.a_mats, generators.k_mats),
        separation_residual=frobenius(w_direct - g @ dyn),
        product_residual=frobenius(w_direct - g @ d),
        classification=_classify(sch, generators, tol),
        time_evolution=overlap @ w_direct,
        in_phase_margin=section.in_phase_margin,
        tau=sch.grid.tau,
        steps=sch.grid.steps,
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
    shifted = _propagate(
        lambda sl: hamiltonian_path(spec, mids[sl]) - rates[sl, None, None] * eye,
        np.asarray(psi0, dtype=complex),
        grid,
    )

    # accumulate f by the same midpoint quadrature the propagator applies,
    # so the phase relation between the two paths is exact per step; the
    # section is V = exp(i f) I on the base frames, so W = V^dag S^dag S_shifted
    f = np.concatenate([[0.0], np.cumsum(rates * np.diff(times))])
    w = overlaps(base.frames, shifted) * np.exp(-1j * f)[:, None, None]
    return float(np.linalg.norm(w - np.eye(w.shape[1]), axis=(1, 2)).max())
