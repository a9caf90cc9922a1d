"""Time-dependent Hamiltonians and Schrodinger propagation of frames.

A frame is an N x M matrix of orthonormal columns spanning an M-dimensional
subspace. A Hamiltonian spec is a Constant H or a Sampled H(t); both store
the Hermitian part of their input after one shared check, and the Lambda
system of lambda_system is a Constant. The kernel is chosen from the spec
type and the frame's shape alone. A Constant H is diagonalized once,
H = V diag(E) V^dag, and every frame is V exp(-i E t_k) V^dag psi0 at the
grid's absolute times, exact up to roundoff on any grid. A Sampled H is
stepped: each step applies exp(-i H(t_mid) dt), with the Hamiltonian
evaluated at the step midpoint (second-order accurate). The midpoint
Hamiltonians are sampled in chunks of about 1 MiB and each chunk is stepped
while it is still in cache, so no stack of H over the whole grid is formed.
Below N = 10 each step's N x N unitary comes in full from
linalg.unitary_stack, the package's one exp(-i H dt) slice kernel, and is
multiplied onto the frame. From N = 10 on, the exponential acts on the N x M
frame directly as a truncated Taylor series, whose degree and substep count
are fixed once per chunk so the remainder stays below 2^-53 of the frame's
norm; no N x N eigh or slice is formed. Both stepping kernels give the same
step to roundoff. On every route the frames are computed without correction
and then orthonormalized symmetrically once, in one batched Loewdin pass
over the whole path; orthonormality holds to roundoff at every grid point.
Units: hbar = 1; times in s, frequencies in rad/s, both dimensionless in
code.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np

from .linalg import (
    DEFAULT_TOL,
    Tolerances,
    as_complex_matrix,
    frobenius,
    hermitian_part,
    loewdin_orthonormalize,
    overlaps,
    skew_part,
    subspace_gap,
    unitary_stack,
)

__all__ = [
    "Constant",
    "FramePath",
    "HamiltonianSpec",
    "Sampled",
    "TimeGrid",
    "dimension",
    "hamiltonian_path",
    "propagate_frame",
]


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class TimeGrid:
    """Strictly increasing sample times starting at 0, ending at tau."""

    times: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        if t.ndim != 1 or t.size < 2:
            raise ValueError("time grid needs at least 2 points")
        if not np.isfinite(t).all():
            raise ValueError("time grid contains non-finite times")
        if t[0] != 0.0:
            raise ValueError("time grid must start at 0")
        if not np.all(np.diff(t) > 0):
            raise ValueError("time grid must be strictly increasing")
        object.__setattr__(self, "times", _freeze(t))

    @classmethod
    def uniform(cls, tau: float, steps: int) -> "TimeGrid":
        # a boolean is not a count, and a fractional count would be truncated
        integral = isinstance(steps, numbers.Real) and float(steps).is_integer()
        if isinstance(steps, bool) or not integral:
            raise ValueError(f"steps must be an integral number, got {steps!r}")
        if steps < 1:
            raise ValueError("need at least one step")
        if not 0 < tau < np.inf:
            raise ValueError(f"tau must be positive and finite, got {tau!r}")
        return cls(np.linspace(0.0, float(tau), int(steps) + 1))

    @property
    def tau(self) -> float:
        return float(self.times[-1])

    @property
    def steps(self) -> int:
        return self.times.size - 1

    def __len__(self) -> int:
        return self.times.size


def _hermitian_samples(s: np.ndarray, structure_tol: float) -> np.ndarray:
    """hermitian_part of a (T, n, n) stack, rejected unless every sample has
    ||H - H^dag||_F <= structure_tol. Checked and built one chunk at a time,
    so only the stack, the result and one chunk are held at once."""
    out = np.empty_like(s)
    for sl in _chunks(s.shape[0], s.shape[1]):
        h = s[sl]
        if np.linalg.norm(h - h.conj().swapaxes(1, 2), axis=(1, 2)).max() > structure_tol:
            raise ValueError("Hamiltonian is not Hermitian within tolerance")
        out[sl] = hermitian_part(h)
    return out


@dataclass(frozen=True)
class Constant:
    """Time-independent Hamiltonian."""

    matrix: np.ndarray
    structure_tol: float = DEFAULT_TOL.structure_tol

    def __post_init__(self):
        h = as_complex_matrix(self.matrix)
        if h.shape[0] != h.shape[1]:
            raise ValueError("Hamiltonian must be square")
        h = _hermitian_samples(h[None], self.structure_tol)[0]
        object.__setattr__(self, "matrix", _freeze(h))


@dataclass(frozen=True)
class Sampled:
    """Hamiltonian given on a time grid; linear interpolation in between."""

    grid: TimeGrid
    samples: np.ndarray = field(repr=False)
    structure_tol: float = DEFAULT_TOL.structure_tol

    def __post_init__(self):
        s = np.asarray(self.samples, dtype=complex)
        if s.ndim != 3 or s.shape[1] != s.shape[2]:
            raise ValueError("samples must have shape (npoints, n, n)")
        if s.shape[0] != len(self.grid):
            raise ValueError("sample count must equal grid point count")
        if not np.isfinite(s).all():
            raise ValueError("samples contain non-finite entries")
        object.__setattr__(self, "samples", _freeze(_hermitian_samples(s, self.structure_tol)))


HamiltonianSpec = Constant | Sampled


def dimension(spec: HamiltonianSpec) -> int:
    if isinstance(spec, Constant):
        return spec.matrix.shape[0]
    if isinstance(spec, Sampled):
        return spec.samples.shape[1]
    raise TypeError(f"not a Hamiltonian spec: {type(spec).__name__}")


def _checked_times(spec: HamiltonianSpec, times) -> np.ndarray:
    """times as a float array, rejected unless it is 1-D, non-empty, finite
    and, for a Sampled spec, inside the sampled interval."""
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.size == 0:
        raise ValueError(f"times must be a non-empty 1-D array, got shape {times.shape}")
    if not np.isfinite(times).all():
        raise ValueError("times contains non-finite values")
    if isinstance(spec, Sampled):
        tg = spec.grid.times
        if times.min() < tg[0] or times.max() > tg[-1]:
            raise ValueError("requested time outside the sampled interval")
    return times


def hamiltonian_path(spec: HamiltonianSpec, times: np.ndarray) -> np.ndarray:
    """Stack of H(t) over the given times, shape (len(times), n, n)."""
    times = _checked_times(spec, times)
    if isinstance(spec, Constant):
        return np.broadcast_to(spec.matrix, (times.size, *spec.matrix.shape)).copy()
    if isinstance(spec, Sampled):
        tg = spec.grid.times
        hi = np.clip(np.searchsorted(tg, times, side="left"), 1, tg.size - 1)
        lo = hi - 1
        w = ((times - tg[lo]) / (tg[hi] - tg[lo]))[:, None, None]
        # (1 - w) s[lo] + w s[hi] in place: the fancy-indexed copies are the
        # only stack-sized temporaries
        out = spec.samples[lo]
        out *= 1.0 - w
        tmp = spec.samples[hi]
        tmp *= w
        out += tmp
        return out
    raise TypeError(f"not a Hamiltonian spec: {type(spec).__name__}")


@dataclass(frozen=True)
class FramePath:
    """Orthonormal N x M frame per grid point, stored as (npoints, N, M)."""

    grid: TimeGrid
    frames: np.ndarray = field(repr=False)
    structure_tol: float = DEFAULT_TOL.structure_tol

    def __post_init__(self):
        f = np.asarray(self.frames, dtype=complex)
        if f.ndim != 3:
            raise ValueError("frames must have shape (npoints, n, m)")
        if f.shape[0] != len(self.grid):
            raise ValueError("frame count must equal grid point count")
        if not np.isfinite(f).all():
            raise ValueError("frame path contains non-finite entries")
        residual = np.linalg.norm(overlaps(f, f) - np.eye(f.shape[2]), axis=(1, 2)).max()
        if residual > 10 * self.structure_tol:
            raise ValueError(f"columns not orthonormal (residual {residual:.3e})")
        object.__setattr__(self, "frames", _freeze(f))

    @property
    def n(self) -> int:
        return self.frames.shape[1]

    @property
    def m(self) -> int:
        return self.frames.shape[2]

    @property
    def initial(self) -> np.ndarray:
        return self.frames[0]

    @property
    def final(self) -> np.ndarray:
        return self.frames[-1]

    @cached_property
    def drift(self) -> float:
        """max_t ||S(0) S(0)^dag - S(t) S(t)^dag||_F, how far the spanned
        subspace moves; evaluated once per path, on first use."""
        return float(subspace_gap(self.initial, self.frames).max())


# bytes of (rows, n, n) complex Hamiltonians sampled and used at a time: a
# chunk and its interpolation temporary stay in a 2-4 MiB L2 cache, and the
# Python cost per chunk stays small against its work
_CHUNK_BYTES = 2**20


def _chunks(count: int, n: int) -> list[slice]:
    """Consecutive slices covering range(count), each of about _CHUNK_BYTES
    of n x n complex matrices (at least one row)."""
    rows = max(1, _CHUNK_BYTES // (16 * n * n))
    return [slice(a, min(a + rows, count)) for a in range(0, count, rows)]


# substep bound on ||B||_1 for the Taylor action; keeps every Taylor term of a
# substep below 1 in norm, so the sum loses no digits to cancellation
_TAYLOR_THETA = 0.5


def _taylor_plan(theta_max: float) -> tuple[int, int]:
    """Substeps s and degree p with theta = theta_max / s <= _TAYLOR_THETA and
    the Taylor remainder theta^(p+1) / (p+1)! e^theta <= 2^-53."""
    s = max(1, math.ceil(theta_max / _TAYLOR_THETA))
    theta = theta_max / s
    p, term = 1, theta * theta / 2
    while term * math.exp(theta) > 2.0**-53:
        p += 1
        term *= theta / (p + 1)
    return s, p


def _taylor_march(hams: np.ndarray, dts: np.ndarray, out: np.ndarray) -> None:
    """out[k+1] = exp(-i H_k dt_k) out[k] by the truncated-Taylor action of
    the exponential on the N x M frame (Al-Mohy & Higham, SIAM J. Sci.
    Comput. 33, 488 (2011)): s substeps of a degree-p polynomial in Horner
    form, each term one (N x N) @ (N x M) product, with s and p fixed once
    from the largest ||H_k dt_k||_1 of the given stack."""
    theta_max = float((np.abs(hams).sum(axis=1).max(axis=1) * dts).max())
    s, p = _taylor_plan(theta_max)
    prod, start = np.empty_like(out[0]), np.empty_like(out[0])
    for k in range(dts.size):
        h, y = hams[k], out[k + 1]
        c = -1j * dts[k] / s
        y[...] = out[k]
        for _ in range(s):
            start[...] = y
            # y = x + (c/1) H (x + (c/2) H (... (x + (c/p) H x))), x = start
            for j in range(p, 0, -1):
                np.matmul(h, y, out=prod)
                prod *= c / j
                np.add(start, prod, out=y)


def _propagate_constant(ham: np.ndarray, psi0: np.ndarray, grid: TimeGrid) -> FramePath:
    """V exp(-i E t_k) V^dag psi0 at every grid time, from one eigh of H."""
    w, v = np.linalg.eigh(ham)
    times = grid.times
    n, m = psi0.shape
    # frame(t)_ij = sum_l exp(-i w_l t) v_il (v^dag psi0)_lj: one
    # (T-1) x N by N x (N M) product
    modes = v[:, :, None] * overlaps(v, psi0)[None, :, :]
    out = np.empty((times.size, n, m), dtype=complex)
    out[0] = psi0
    phases = np.exp(-1j * np.outer(times[1:], w))
    out[1:] = (phases @ modes.transpose(1, 0, 2).reshape(n, n * m)).reshape(-1, n, m)
    out[1:] = loewdin_orthonormalize(out[1:])
    return FramePath(grid, out)


def _slice_march(hams: np.ndarray, dts: np.ndarray, out: np.ndarray) -> None:
    """out[k+1] = exp(-i H_k dt_k) out[k] with the full N x N unitaries from
    linalg.unitary_stack."""
    slices = unitary_stack(hams, dts)
    for k in range(dts.size):
        np.matmul(slices[k], out[k], out=out[k + 1])


def _propagate(
    hams: Callable[[slice], np.ndarray], psi0: np.ndarray, grid: TimeGrid
) -> FramePath:
    """Step psi0 over the grid; hams(sl) returns the midpoint Hamiltonians of
    the steps in sl, and is asked for one chunk of steps at a time."""
    dts = np.diff(grid.times)
    out = np.empty((grid.times.size, *psi0.shape), dtype=complex)
    out[0] = psi0
    # measured crossover: the batched eigh wins below N = 10 whatever M is
    march = _taylor_march if psi0.shape[0] >= 10 else _slice_march
    for sl in _chunks(dts.size, psi0.shape[0]):
        march(hams(sl), dts[sl], out[sl.start : sl.stop + 1])
    out[1:] = loewdin_orthonormalize(out[1:])
    return FramePath(grid, out)


def propagate_frame(
    spec: HamiltonianSpec,
    psi0,
    grid: TimeGrid,
    *,
    tol: Tolerances = DEFAULT_TOL,
) -> FramePath:
    """Solve the Schrodinger equation for each column of psi0 over the grid.

    A Constant spec is solved exactly: one eigh of H gives every frame as
    V exp(-i E t_k) V^dag psi0, on any grid. A Sampled spec is stepped with
    exp(-i H(t_mid) dt), H at the step midpoint, so the scheme is second
    order in dt. For N < 10 the step unitary comes from
    linalg.unitary_stack; for N >= 10 its action on the N x M frame comes
    from a truncated Taylor series with remainder below 2^-53, which needs
    only (N x N) @ (N x M) products. The two agree to roundoff. H is taken
    in chunks of about 1 MiB, and the Taylor degree and substep count are
    fixed once per chunk from that chunk's largest ||H dt||_1. psi0 must
    have at least one column and orthonormal columns; the returned path
    starts at psi0 exactly and keeps orthonormality at every grid point.
    """
    psi0 = np.asarray(psi0, dtype=complex)
    if psi0.ndim != 2:
        raise ValueError("psi0 must be an N x M matrix of column vectors")
    if psi0.shape[1] == 0:
        raise ValueError("psi0 has no columns; the subspace needs M >= 1")
    if not np.isfinite(psi0).all():
        raise ValueError("psi0 contains non-finite entries")
    n = dimension(spec)
    if psi0.shape[0] != n:
        raise ValueError(f"psi0 has dimension {psi0.shape[0]}, spec has {n}")
    if frobenius(overlaps(psi0, psi0) - np.eye(psi0.shape[1])) > 10 * tol.structure_tol:
        raise ValueError("psi0 columns are not orthonormal")
    if isinstance(spec, Constant):
        return _propagate_constant(spec.matrix, psi0, grid)
    times = grid.times
    # checked whole here, so a grid leaving the sampled interval fails
    # before the first step
    mids = _checked_times(spec, 0.5 * (times[:-1] + times[1:]))
    return _propagate(lambda sl: hamiltonian_path(spec, mids[sl]), psi0, grid)


def _sandwich(hams: np.ndarray, frames: np.ndarray) -> np.ndarray:
    """skew(-i F^dag H F) per grid point: the M x M generator of the
    evolution restricted to the span of each frame. The skew projection is
    exact; the Hermitian residual it removes is pure roundoff."""
    if hams.shape[1] != frames.shape[1]:
        raise ValueError(
            f"Hamiltonian dimension {hams.shape[1]} does not match frame dimension {frames.shape[1]}"
        )
    return skew_part(-1j * overlaps(frames, hams @ frames))
