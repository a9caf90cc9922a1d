"""Time-dependent Hamiltonians and Schrodinger propagation of frames.

A frame is an N x M matrix of orthonormal columns spanning an M-dimensional
subspace. Propagation applies exp(-i H(t_mid) dt) per step, with the
Hamiltonian evaluated at the step midpoint (second-order accurate), by one of
two kernels chosen from the frame's shape alone. Below N = 10 each step's
N x N unitary comes in full from linalg.unitary_stack, the package's one
exp(-i H dt) slice kernel, and is multiplied onto the frame. From N = 10 on,
the exponential acts on the N x M frame directly as a truncated Taylor
series, whose degree and substep count are fixed once per run so the
remainder stays below 2^-53 of the frame's norm; no N x N eigh or slice is
formed. Both kernels give the same step to roundoff, so the frames
are stepped without correction and then orthonormalized symmetrically once,
in one batched Loewdin pass over the whole path; orthonormality holds to
roundoff at every grid point. Units: hbar = 1; times in s, frequencies in
rad/s, both dimensionless in code.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .linalg import (
    DEFAULT_TOL,
    Tolerances,
    as_complex_matrix,
    frobenius,
    hermitian_part,
    loewdin_orthonormalize,
    skew_part,
    unitary_stack,
)

__all__ = [
    "Constant",
    "FramePath",
    "HamiltonianSpec",
    "LambdaSystem",
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


def _require_finite(obj, *names: str) -> None:
    """Reject NaN or infinite scalar fields, naming the first offender."""
    for name in names:
        value = getattr(obj, name)
        if not np.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")


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


@dataclass(frozen=True)
class Constant:
    """Time-independent Hamiltonian."""

    matrix: np.ndarray
    structure_tol: float = DEFAULT_TOL.structure_tol

    def __post_init__(self):
        h = as_complex_matrix(self.matrix)
        if h.shape[0] != h.shape[1]:
            raise ValueError("Hamiltonian must be square")
        if frobenius(h - h.conj().T) > self.structure_tol:
            raise ValueError("Hamiltonian is not Hermitian within tolerance")
        object.__setattr__(self, "matrix", _freeze(hermitian_part(h)))


@dataclass(frozen=True)
class LambdaSystem:
    """Three-level Lambda Hamiltonian in the rotating frame.

    H = omega0 (|3><b| + |b><3|) + 2 delta |3><3| on the fixed basis
    {|1>,|2>,|3>}, with bright state |b> = conj(omega1)|1> + conj(omega2)|2>.
    The laser parameters must satisfy |omega1|^2 + |omega2|^2 = 1.
    """

    omega0: float
    delta: float
    omega1: complex = 1.0
    omega2: complex = 0.0

    def __post_init__(self):
        _require_finite(self, "omega0", "delta", "omega1", "omega2")
        norm = abs(self.omega1) ** 2 + abs(self.omega2) ** 2
        if abs(norm - 1.0) > DEFAULT_TOL.structure_tol:
            raise ValueError("laser parameters must satisfy |w1|^2+|w2|^2 = 1")

    @property
    def bright_state(self) -> np.ndarray:
        return np.array([np.conj(self.omega1), np.conj(self.omega2), 0.0], dtype=complex)

    @property
    def dark_state(self) -> np.ndarray:
        return np.array([-self.omega2, self.omega1, 0.0], dtype=complex)

    @property
    def matrix(self) -> np.ndarray:
        b = self.bright_state
        e3 = np.array([0.0, 0.0, 1.0], dtype=complex)
        h = self.omega0 * (np.outer(e3, b.conj()) + np.outer(b, e3.conj()))
        h += 2.0 * self.delta * np.outer(e3, e3.conj())
        return h


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
        skew = s - s.conj().swapaxes(1, 2)
        if np.linalg.norm(skew, axis=(1, 2)).max() > self.structure_tol:
            raise ValueError("non-Hermitian sample in Hamiltonian data")
        object.__setattr__(self, "samples", _freeze(hermitian_part(s)))


HamiltonianSpec = Constant | LambdaSystem | Sampled


def dimension(spec: HamiltonianSpec) -> int:
    if isinstance(spec, Constant):
        return spec.matrix.shape[0]
    if isinstance(spec, LambdaSystem):
        return 3
    if isinstance(spec, Sampled):
        return spec.samples.shape[1]
    raise TypeError(f"not a Hamiltonian spec: {type(spec).__name__}")


def hamiltonian_path(spec: HamiltonianSpec, times: np.ndarray) -> np.ndarray:
    """Stack of H(t) over the given times, shape (len(times), n, n)."""
    times = np.asarray(times, dtype=float)
    if isinstance(spec, (Constant, LambdaSystem)):
        return np.broadcast_to(spec.matrix, (times.size, *spec.matrix.shape)).copy()
    if isinstance(spec, Sampled):
        tg = spec.grid.times
        if times.min() < tg[0] or times.max() > tg[-1]:
            raise ValueError("requested time outside the sampled interval")
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
        grams = np.einsum("tnj,tnk->tjk", f.conj(), f)
        eye = np.eye(f.shape[2])
        drift = np.linalg.norm(grams - eye, axis=(1, 2)).max()
        if drift > 10 * self.structure_tol:
            raise ValueError(f"columns not orthonormal (residual {drift:.3e})")
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
    from the largest ||H_k dt_k||_1."""
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


def _propagate(hams: np.ndarray, psi0: np.ndarray, grid: TimeGrid) -> FramePath:
    """Step psi0 over the grid with the stack of midpoint Hamiltonians."""
    dts = np.diff(grid.times)
    out = np.empty((grid.times.size, *psi0.shape), dtype=complex)
    out[0] = psi0
    # measured crossover: the batched eigh wins below N = 10 whatever M is
    if psi0.shape[0] >= 10:
        _taylor_march(hams, dts, out)
    else:
        slices = unitary_stack(hams, dts)
        for k in range(dts.size):
            np.matmul(slices[k], out[k], out=out[k + 1])
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

    Each step applies exp(-i H(t_mid) dt) with H at the step midpoint, so the
    scheme is second order in dt. For N < 10 the step unitary comes from
    linalg.unitary_stack (an eigh of H); for N >= 10 its action on the N x M
    frame comes from a truncated Taylor series with remainder below 2^-53,
    which needs only (N x N) @ (N x M) products. The two agree to roundoff. psi0 must have
    orthonormal columns; the returned path starts at psi0 exactly and keeps
    orthonormality at every grid point.
    """
    psi0 = np.asarray(psi0, dtype=complex)
    if psi0.ndim != 2:
        raise ValueError("psi0 must be an N x M matrix of column vectors")
    if not np.isfinite(psi0).all():
        raise ValueError("psi0 contains non-finite entries")
    n = dimension(spec)
    if psi0.shape[0] != n:
        raise ValueError(f"psi0 has dimension {psi0.shape[0]}, spec has {n}")
    gram = psi0.conj().T @ psi0
    if frobenius(gram - np.eye(psi0.shape[1])) > 10 * tol.structure_tol:
        raise ValueError("psi0 columns are not orthonormal")
    times = grid.times
    return _propagate(hamiltonian_path(spec, 0.5 * (times[:-1] + times[1:])), psi0, grid)


def _sandwich(hams: np.ndarray, frames: np.ndarray) -> np.ndarray:
    """skew(-i F^dag H F) per grid point: the M x M generator of the
    evolution restricted to the span of each frame. The skew projection is
    exact; the Hermitian residual it removes is pure roundoff."""
    if hams.shape[1] != frames.shape[1]:
        raise ValueError(
            f"Hamiltonian dimension {hams.shape[1]} does not match frame dimension {frames.shape[1]}"
        )
    return skew_part(-1j * (frames.conj().swapaxes(1, 2) @ (hams @ frames)))
