"""Time-dependent Hamiltonians and Schrodinger propagation of frames.

A frame is an N x M matrix of orthonormal columns spanning an M-dimensional
subspace. A Hamiltonian spec is a Constant H or a Sampled H(t); both store
the Hermitian part of their input after one shared check, and the Lambda
system of lambda_system is a Constant. H at sample times is a read-only
view of the samples, and H is sampled in chunks of about 1 MiB that are
used while they are in cache, so no stack of H over the whole grid is
formed. Both stepping kernels read the midpoint H of a chunk from the
Sampled spec itself. Below N = 20 the chunk's H are sampled as one stack
whose full slices are multiplied, for N = 3 to 5 in real arithmetic, as
the 2N x 2N real forms of exp(-i H dt). From N = 20 each midpoint H is
formed right before its step, in one N x N buffer, and the chunk's Taylor
degree is planned from the per-sample norms the spec caches, so each
sample is read once per step (scripts/march_crossover.py measures both
rules). propagate_frame picks its kernel from the spec type and the
frame's shape alone: exact for a Constant H, a second-order midpoint step
for a Sampled one, orthonormal to roundoff at every grid point either way.
Units: hbar = 1; times in s, frequencies in rad/s, both dimensionless in
code.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .linalg import (
    DEFAULT_TOL,
    Tolerances,
    _TAYLOR_THETA,
    _halved,
    _one_norms,
    _require_tolerance,
    _taylor_plan,
    _taylor_stack,
    _time_last,
    as_complex_matrix,
    frobenius,
    loewdin_orthonormalize,
    ordered_products,
    overlaps,
    products,
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
    """Strictly increasing sample times starting at 0, ending at tau; a
    read-only copy of the given times."""

    times: np.ndarray

    def __post_init__(self):
        t = np.array(self.times, dtype=float)
        if t.ndim != 1:
            raise ValueError(f"time grid must be a 1-D array, got shape {t.shape}")
        if t.size < 2:
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
    """hermitian_part of a (T, n, n) complex stack, bit for bit, rejected
    unless every sample has ||H - H^dag||_F <= structure_tol. One pass per
    chunk of about 1 MiB, while it is in cache: H^dag into the result's rows,
    H - H^dag into one reused scratch chunk for the norms, then H + H^dag
    halved in place. A NaN or inf entry gives a NaN or inf residual, so it
    fails the check, and only then is the stack's finiteness read: a
    non-finite entry anywhere is reported before a non-Hermitian sample."""
    out = np.empty(s.shape, complex)
    chunks = _chunks(s.shape[0], s.shape[1])
    scratch = np.empty_like(out[chunks[0]])
    for sl in chunks:
        h, o = s[sl], out[sl]
        np.conjugate(h.swapaxes(1, 2), out=o)
        # inf - inf and squares beyond the float range stay quiet: they fail
        # the check as NaN or inf
        with np.errstate(over="ignore", invalid="ignore"):
            f = np.subtract(h, o, out=scratch[: len(h)]).view(float)
            residual = np.sqrt(np.einsum("ijk,ijk->i", f, f).max())
        if not residual <= structure_tol:
            if not np.isfinite(s).all():
                raise ValueError("samples contain non-finite entries")
            raise ValueError("Hamiltonian is not Hermitian within tolerance")
        _halved(np.add(h, o, out=o))
    return out


@dataclass(frozen=True)
class Constant:
    """Time-independent Hamiltonian."""

    matrix: np.ndarray
    structure_tol: float = DEFAULT_TOL.structure_tol

    def __post_init__(self):
        _require_tolerance("structure_tol", self.structure_tol)
        h = as_complex_matrix(self.matrix)
        if h.shape[0] != h.shape[1]:
            raise ValueError("Hamiltonian must be square")
        h = _hermitian_samples(h[None], self.structure_tol)[0]
        object.__setattr__(self, "matrix", _freeze(h))


@dataclass(frozen=True)
class Sampled:
    """Hamiltonian given on a time grid; linear interpolation in between.

    The samples are stored as their Hermitian part, built and checked in
    one pass per chunk, which also rejects a NaN or inf entry. ||s_i||_1
    per sample is formed whole on first use, by a propagation from N = 20,
    which plans its Taylor degree from it, and then kept."""

    grid: TimeGrid
    samples: np.ndarray = field(repr=False)
    structure_tol: float = DEFAULT_TOL.structure_tol

    def __post_init__(self):
        _require_tolerance("structure_tol", self.structure_tol)
        s = np.asarray(self.samples, dtype=complex)
        if s.ndim != 3 or s.shape[1] != s.shape[2]:
            raise ValueError("samples must have shape (npoints, n, n)")
        if s.shape[0] != len(self.grid):
            raise ValueError("sample count must equal grid point count")
        object.__setattr__(self, "samples", _freeze(_hermitian_samples(s, self.structure_tol)))

    @cached_property
    def _norms(self) -> np.ndarray:
        """||s_i||_1 per sample, formed one chunk at a time; read-only."""
        s = self.samples
        norms = np.concatenate([_one_norms(s[sl]) for sl in _chunks(len(s), s.shape[1])])
        norms.flags.writeable = False
        return norms


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


def _rows(samples: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """samples[idx], a view when idx is one increasing arithmetic run."""
    step = idx[1] - idx[0] if idx.size > 1 else 1
    if step > 0 and (np.diff(idx) == step).all():
        return samples[idx[0] : idx[-1] + 1 : step]
    return samples[idx]


def _interpolation(tg: np.ndarray, times: np.ndarray) -> tuple:
    """lo, hi and w with H(t) = (1 - w) s[lo] + w s[hi] for samples s at tg,
    and the sample index of each time if every w is 0 or 1, else None."""
    hi = np.clip(np.searchsorted(tg, times, side="left"), 1, tg.size - 1)
    lo = hi - 1
    w = (times - tg[lo]) / (tg[hi] - tg[lo])
    on_samples = ((w == 0.0) | (w == 1.0)).all()
    return lo, hi, w, np.where(w == 0.0, lo, hi) if on_samples else None


def _blend(a: np.ndarray, b: np.ndarray, w, out=None, tmp=None) -> np.ndarray:
    """(1 - w) a + w b into out (new if None); tmp, if given, takes w b."""
    out = np.multiply(a, 1.0 - w, out=out)
    out += np.multiply(b, w, out=tmp)
    return out


def hamiltonian_path(spec: HamiltonianSpec, times: np.ndarray) -> np.ndarray:
    """Stack of H(t) over the given times, shape (len(times), n, n),
    read-only for every spec. For a Constant spec it is a broadcast view of
    spec.matrix; for a Sampled spec at sample times whose indices form one
    increasing arithmetic run it is a view of spec.samples."""
    times = _checked_times(spec, times)
    if isinstance(spec, Constant):
        return np.broadcast_to(spec.matrix, (times.size, *spec.matrix.shape))
    if isinstance(spec, Sampled):
        lo, hi, w, idx = _interpolation(spec.grid.times, times)
        if idx is not None:
            out = _rows(spec.samples, idx)
        else:
            # on the (re, im) views, s[hi] at w = 1; a gathered copy is
            # scaled in place, so at most two stacks are held
            a, b = (_rows(spec.samples, k).view(float) for k in (lo, hi))
            out = _blend(a, b, w[:, None, None], a if a.flags.writeable else None,
                         b if b.flags.writeable else None).view(complex)
        out.flags.writeable = False
        return out
    raise TypeError(f"not a Hamiltonian spec: {type(spec).__name__}")


@dataclass(frozen=True)
class FramePath:
    """Orthonormal N x M frame per grid point, stored as (npoints, N, M):
    a read-only view, not a copy, of a complex array passed in, so a later
    write to that array shows in the path."""

    grid: TimeGrid
    frames: np.ndarray = field(repr=False)
    structure_tol: float = DEFAULT_TOL.structure_tol

    def __post_init__(self):
        _require_tolerance("structure_tol", self.structure_tol)
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
        # a read-only view, so the caller's array stays writeable and
        # linalg._time_last frames stay time-last
        f = f.view()
        f.flags.writeable = False
        object.__setattr__(self, "frames", f)

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
        subspace moves; evaluated once per path, on first use: by a Fixed
        section's precondition, or by the case_i verdict when a strided
        scan of the frames finds no gap above separation_tol."""
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


def _taylor_march(spec: Sampled, times: np.ndarray, dts: np.ndarray, out: np.ndarray) -> None:
    """out[k+1] = exp(-i H_k dt_k) out[k], H_k the spec's H at times[k], by
    the truncated-Taylor action of the exponential on the N x M frame
    (Al-Mohy & Higham, SIAM J. Sci. Comput. 33, 488 (2011)): s substeps of a
    degree-p polynomial in Horner form, each term one (N x N) @ (N x M)
    product. s and p are planned from max_k dt_k ((1 - w_k) n_lo + w_k n_hi),
    n the spec's per-sample norms: at least max_k ||H_k dt_k||_1 by the
    triangle inequality, and equal to it when every time is a sample time,
    where a term of weight 0 adds exactly 0. Each H_k has the bits of
    hamiltonian_path(spec, times)[k]: a sample view when, as there, every w
    is 0 or 1, else blended into one N x N buffer right before its products."""
    lo, hi, w, idx = _interpolation(spec.grid.times, times)
    norms, samples = spec._norms, spec.samples
    s, p = _taylor_plan(float((dts * ((1.0 - w) * norms[lo] + w * norms[hi])).max()))
    if idx is None:
        f = samples.view(float)
        buf, tmp = np.empty((2, *f.shape[1:]))
        h = buf.view(complex)
    prod, start = np.empty_like(out[0]), np.empty_like(out[0])
    for k, (a, b, wk) in enumerate(zip(lo, hi, w)):
        if idx is None:
            _blend(f[a], f[b], wk, buf, tmp)
        else:
            h = samples[idx[k]]
        y = out[k + 1]
        c = -1j * dts[k] / s
        y[...] = out[k]
        for _ in range(s):
            start[...] = y
            # y = x + (c/1) H (x + (c/2) H (... (x + (c/p) H x))), x = start
            for j in range(p, 0, -1):
                np.matmul(h, y, out=prod)
                prod *= c / j
                np.add(start, prod, out=y)


def _propagate_constant(ham: np.ndarray, psi0: np.ndarray, grid: TimeGrid) -> np.ndarray:
    """V exp(-i E t_k) V^dag psi0 at every grid time, from one eigh of H."""
    w, v = np.linalg.eigh(ham)
    times = grid.times
    n, m = psi0.shape
    # frame(t)_ij = sum_l exp(-i w_l t) v_il (v^dag psi0)_lj: one
    # (T-1) x N by N x (N M) product
    modes = v[:, :, None] * overlaps(v, psi0)[None, :, :]
    out = _time_last((times.size, n, m))
    out[0] = psi0
    phases = np.exp(-1j * np.outer(times[1:], w))
    out[1:] = (phases @ modes.transpose(1, 0, 2).reshape(n, n * m)).reshape(-1, n, m)
    return out


# N whose slices are formed and multiplied as 2N x 2N real matrices: there
# their stacked products beat complex ones in every run measured, while from
# N = 6 the two are about even (scripts/march_crossover.py)
_REAL_SLICES = range(3, 6)


def _slice_march(hams: np.ndarray, dts: np.ndarray, out: np.ndarray) -> None:
    """out[k+1] = exp(-i H_k dt_k) ... exp(-i H_0 dt_0) out[0]: the forward
    prefix products of the full N x N unitaries of the stack hams, each
    applied to the frame out[0]. The slices are linalg.unitary_stack's, or
    for N in _REAL_SLICES, if no ||H dt||_1 exceeds linalg._TAYLOR_THETA,
    its Taylor polynomials in the real form G = dt [[Im H, Re H], [-Re H,
    Im H]] of -i H dt: then the frames are the two halves of
    P [Re out[0]; Im out[0]] for the prefix products P."""
    n = hams.shape[-1]
    theta = float((_one_norms(hams) * dts).max()) if n in _REAL_SLICES else np.inf
    if theta > _TAYLOR_THETA:
        out[1:] = products(ordered_products(unitary_stack(hams, dts), "forward", cumulative=True), out[0])
        return
    g = np.empty((dts.size, 2 * n, 2 * n))
    g[:, :n, :n] = g[:, n:, n:] = hams.imag
    g[:, :n, n:] = hams.real
    np.negative(hams.real, out=g[:, n:, :n])
    slices = _taylor_stack(g, dts[:, None, None], _taylor_plan(theta)[1])
    frames = products(ordered_products(slices, "forward", cumulative=True),
                      np.concatenate([out[0].real, out[0].imag]))
    out[1:].real, out[1:].imag = frames[:, :n], frames[:, n:]


def _propagate(spec: Sampled, psi0: np.ndarray, grid: TimeGrid) -> np.ndarray:
    """Step psi0 over the grid with the spec's H at each step midpoint, one
    chunk of steps at a time: below N = 20 the chunk's hamiltonian_path
    stack goes to _slice_march, from N = 20 _taylor_march reads the spec."""
    # checked whole here, so a grid leaving the sampled interval fails before
    # the first step
    mids = _checked_times(spec, 0.5 * (grid.times[:-1] + grid.times[1:]))
    dts = np.diff(grid.times)
    out = np.empty((grid.times.size, *psi0.shape), dtype=complex)
    out[0] = psi0
    # measured crossover (scripts/march_crossover.py): with Taylor slices,
    # ||H dt||_1 <= 1/2, the slice kernel wins below N = 20 whatever M is;
    # real slices are chunked as 2N complex levels, to keep the memory peak
    n = psi0.shape[0]
    for sl in _chunks(dts.size, 2 * n if n in _REAL_SLICES else n):
        frames = out[sl.start : sl.stop + 1]
        if n >= 20:
            _taylor_march(spec, mids[sl], dts[sl], frames)
        else:
            _slice_march(hamiltonian_path(spec, mids[sl]), dts[sl], frames)
    out[1:] = loewdin_orthonormalize(out[1:])
    return out


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
    order in dt. The kernels read H from the spec one chunk of about 1 MiB
    of steps at a time: below N = 20 by the prefix products of
    linalg.unitary_stack slices of the chunk's midpoint stack, for N = 3 to
    5 of their 2N x 2N real forms when ||H dt||_1 <= 1/2
    (scripts/march_crossover.py measures both rules); from N = 20 by a
    truncated Taylor action on the N x M frame with remainder below 2^-53,
    planned per chunk from a bound on its largest ||H dt||_1 that the
    spec's cached per-sample norms give, each midpoint H formed right before
    its step. All agree to roundoff, and their frames are orthonormalized
    once, by one batched Loewdin pass.
    psi0 must have at least one column and orthonormal columns; the
    returned path starts at psi0 exactly and keeps orthonormality at every
    grid point.
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
        frames = _propagate_constant(spec.matrix, psi0, grid)
    else:
        frames = _propagate(spec, psi0, grid)
    return FramePath(grid, frames, tol.structure_tol)


def _sandwich(hams: np.ndarray, frames: np.ndarray) -> np.ndarray:
    """skew(-i F^dag H F) per grid point: the M x M generator of the
    evolution restricted to the span of each frame. The skew projection is
    exact; the Hermitian residual it removes is pure roundoff."""
    if hams.shape[1] != frames.shape[1]:
        raise ValueError(
            f"Hamiltonian dimension {hams.shape[1]} does not match frame dimension {frames.shape[1]}"
        )
    return skew_part(-1j * overlaps(frames, products(hams, frames)))
