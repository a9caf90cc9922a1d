"""Dense complex linear algebra primitives used throughout the package.

Matrices are plain numpy arrays with dtype complex128 and are never mutated.
The Frobenius norm is the canonical matrix distance everywhere. Every
stacked product a @ b is one call of products, every frame overlap F^dag G
(Gram checks, U = S(0)^dag S(t), the step overlaps of a section, the F
sandwich, the subspace gaps) one call of overlaps = products(F^dag, G),
every unitary slice exp(-i H dt) one call of unitary_stack, and every
time-ordered product (the propagation steps below N = 20, the Anandan path,
the three endpoint factors built from generators and the step-overlap
product whose Loewdin factor is the holonomic factor G) the one pairing of
ordered_products. Each
kernel picks its method from the array shape (and unitary_stack from the
largest ||H dt||_1) alone; a stack of 2 x 2 matrices, the shape of every
M = 2 subspace quantity, takes closed forms.

Storage rule: a stack (T, r, c) of matrices with at most 4 rows, 4 columns
and 8 entries, the ones products sums entrywise, is allocated time-last
(_time_last), as a view of one C-order (r, c, T) buffer, so each entry's
series over the stack is one contiguous vector for those sums to read and
write. Shapes, indexing and values are those of a C-order stack; the
matrices that meet matmul stay C-order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Tolerances",
    "DEFAULT_TOL",
    "as_complex_matrix",
    "expm_skew",
    "frobenius",
    "hermitian_part",
    "loewdin_orthonormalize",
    "ordered_products",
    "overlaps",
    "products",
    "skew_part",
    "subspace_gap",
    "unitary_stack",
]


@dataclass(frozen=True)
class Tolerances:
    """Numerical thresholds shared by the whole pipeline.

    structure_tol bounds Hermiticity/unitarity residuals, positivity_tol is
    the threshold on the in-phase margin, and separation_tol is the
    classification threshold of the separability analysis.
    """

    structure_tol: float = 1e-10
    positivity_tol: float = 1e-9
    separation_tol: float = 1e-6

    def __post_init__(self):
        for name in ("structure_tol", "positivity_tol", "separation_tol"):
            _require_tolerance(name, getattr(self, name))


def _require_tolerance(name: str, value: float) -> None:
    """Reject a negative, NaN or infinite threshold; NaN fails every
    comparison and inf passes every one, so either would silently disable
    the check it guards."""
    if not 0 <= value < np.inf:
        raise ValueError(f"{name} must be non-negative and finite, got {value!r}")


DEFAULT_TOL = Tolerances()


def as_complex_matrix(a) -> np.ndarray:
    """Coerce to a 2d complex array, rejecting non-finite entries."""
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2:
        raise ValueError(f"expected a matrix, got array of shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError("matrix contains non-finite entries")
    return m


def _require_square(m: np.ndarray, name: str = "matrix") -> None:
    if m.shape[0] != m.shape[1]:
        raise ValueError(f"{name} must be square, got shape {m.shape}")


def frobenius(a) -> float:
    return float(np.linalg.norm(a))


def _halved(s: np.ndarray) -> np.ndarray:
    """s / 2 in place, one float part at a time: a complex division by 2,
    or a complex times 0.5, turns some -0.0 real parts into +0.0. s is a
    ufunc result in one dense block, in some axis order (time-last
    included), so its ravel in memory order is a view, scaled as floats."""
    s.ravel(order="K").view(s.real.dtype)[...] *= 0.5
    return s


def hermitian_part(a: np.ndarray) -> np.ndarray:
    return _halved(np.add(a, a.conj().swapaxes(-1, -2), order="K"))


def skew_part(a: np.ndarray) -> np.ndarray:
    return _halved(np.subtract(a, a.conj().swapaxes(-1, -2), order="K"))


def _time_last(shape: tuple[int, ...], dtype=complex) -> np.ndarray:
    """np.empty(shape, dtype) for a stack (..., r, c). When r, c <= 4 and
    r c <= 8, the bounds under which products sums the matrices entrywise
    as either operand, it is a view of one C-order (r, c, ...) buffer: each
    entry's series over the stack is one contiguous vector. Other matrices,
    which meet matmul, stay C-order."""
    r, c = shape[-2:]
    if max(r, c) > 4 or r * c > 8:
        return np.empty(shape, dtype)
    return np.empty(shape[-2:] + shape[:-2], dtype).transpose(*range(2, len(shape)), 0, 1)


def products(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b over the last two axes, (..., r, k) @ (..., k, c) -> (..., r, c),
    leading axes broadcast: for k <= 4 and r c <= 8 each entry is summed over
    the whole stack at once into a _time_last result, else one batched matmul.
    Entrywise/matmul time, one BLAS thread, stacks of 2048 and 16384
    (scripts/product_crossover.py), on time-last operands (C-order ones in
    brackets): 0.05, 0.06 (0.07, 0.15) at (r, k, c) = (2, 2, 2); 0.11, 0.12
    (0.15, 0.44) at (3, 3, 2); 0.21, 0.26 (0.30, 1.27) at (4, 4, 2); 0.75,
    2.2 (0.97, 3.9) at (4, 4, 4). So on C-order operands the (4, 4, 2) route
    assumes stacks of at most about 4096, the 4-level chunks of
    dynamics._CHUNK_BYTES. Stacks of 4 and 16 take 4-5 and about 2 times
    matmul's time at (2, 2, 2) on either layout, and keep this route:
    matmul's sums would move the bits of every ordered product, and a floor
    at 16 matrices saved nothing measurable on a 16384-step decompose."""
    (r, k), c = a.shape[-2:], b.shape[-1]
    if k != b.shape[-2]:
        raise ValueError(f"products needs a matching inner dimension, got shapes {a.shape} and {b.shape}")
    return _entrywise_products(a, b) if 0 < k <= 4 and r * c <= 8 else a @ b


def _entrywise_products(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    (r, k), c = a.shape[-2:], b.shape[-1]
    out = _time_last(np.broadcast_shapes(a.shape[:-2], b.shape[:-2]) + (r, c), np.result_type(a, b))
    for i in range(r):
        for j in range(c):
            acc = np.multiply(a[..., i, 0], b[..., 0, j], out=out[..., i, j])
            for l in range(1, k):
                acc += a[..., i, l] * b[..., l, j]
    return out


def overlaps(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a^dag b over the last two axes, (..., N, M) and (..., N, K) giving
    (..., M, K), leading axes broadcast: products(a^dag, b), which for N <= 4
    and M K <= 8 is bit for bit the sum of the N row outer products."""
    if a.shape[-2] != b.shape[-2]:
        raise ValueError(f"overlaps needs equal row counts, got shapes {a.shape} and {b.shape}")
    return products(a.conj().swapaxes(-1, -2), b)


def subspace_gap(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """||a a^dag - b b^dag||_F for orthonormal N x M frames of equal rank.

    Computed as sqrt(2) ||b - a (a^dag b)||_F, which costs O(N M^2) per
    frame and forms no N x N projector. a and b may be stacks (..., N, M)
    that broadcast against each other; one gap per broadcast frame pair.
    """
    return np.sqrt(2.0) * np.linalg.norm(b - products(a, overlaps(a, b)), axis=(-2, -1))


# bound on ||H dt||_1 for a Taylor (sub)step; keeps every Taylor term below 1
# in norm, so the sum loses no digits to cancellation
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


def _one_norms(hams: np.ndarray) -> np.ndarray:
    """||H_k||_1, the largest column sum of |H_k|, per matrix of a stack."""
    return np.abs(hams).sum(axis=1).max(axis=1)


def unitary_stack(hams: np.ndarray, dts: np.ndarray) -> np.ndarray:
    """exp(-i H_k dt_k) for a stack (n, m, m) of Hermitian H_k and n steps dt_k.

    The H_k must be exactly Hermitian. For m = 2 each slice is the
    Cayley-Hamilton form e^{-i tr(H) dt/2} (cos(theta) I - i dt
    (sin(theta)/theta) H0), H0 the traceless part of H and theta =
    dt ||H0||_2, for any H. Other m take one Horner Taylor polynomial per
    slice, its degree from _taylor_plan, if the largest |dt_k| ||H_k||_1 is
    at most _TAYLOR_THETA (dt = 0 gives I exactly), else V diag(exp(-i w
    dt)) V^dag from one batched eigh. Taylor reads every entry, the other two
    the diagonal and lower triangle. All are unitary to roundoff.
    """
    if hams.shape[-1] == 2:
        return _unitary_2x2(hams, dts)
    theta = float((_one_norms(hams) * np.abs(dts)).max(initial=0.0))
    if theta <= _TAYLOR_THETA:
        return _taylor_stack(hams, (-1j * dts)[:, None, None], _taylor_plan(theta)[1])
    w, v = np.linalg.eigh(hams)
    # scale v in place so no extra stack-sized temporary is allocated
    vh = v.conj().swapaxes(-1, -2)
    v *= np.exp(-1j * w * dts[:, None])[:, None, :]
    return products(v, vh)


def _taylor_stack(gens: np.ndarray, scale: np.ndarray, p: int) -> np.ndarray:
    """I + c G (I + (c/2) G (... (I + (c/p) G))) per slice of a stack G of
    generators, c the slice's scale: exp(-i H dt) to degree p for G = H and
    c = -i dt, in Horner form."""
    diag = np.arange(gens.shape[-1])
    out = gens * (scale / p)
    out[:, diag, diag] += 1.0
    for j in range(p - 1, 0, -1):
        out = products(gens, out)
        out *= scale / j
        out[:, diag, diag] += 1.0
    return out


def _unitary_2x2(hams: np.ndarray, dts: np.ndarray) -> np.ndarray:
    """unitary_stack for m = 2. H0 = H - tr(H)/2 I squares to
    (theta/dt)^2 I, so the exponential series of -i H0 dt sums to
    cos(theta) I - i dt (sin(theta)/theta) H0."""
    d0, d1, low = hams[:, 0, 0].real, hams[:, 1, 1].real, hams[:, 1, 0]
    half_gap = (d0 - d1) / 2
    theta = dts * np.hypot(half_gap, np.abs(low))
    phase = np.exp(-0.5j * (d0 + d1) * dts)
    cos = phase * np.cos(theta)
    # np.sinc(x) = sin(pi x)/(pi x), which is 1 at x = 0
    # explicit multiplies: from 256 KiB numpy's temporary elision would form
    # these products in place with the operands swapped, which changes the
    # bits of a slice with the length of its stack
    cross = np.multiply(phase, -1j * dts * np.sinc(theta / np.pi))
    out = _time_last((hams.shape[0], 2, 2))
    # the diagonal's shift is formed in place, in a row of out
    shift = np.multiply(cross, half_gap, out=out[:, 0, 0])
    np.subtract(cos, shift, out=out[:, 1, 1])
    shift += cos
    out[:, 1, 0] = cross * low
    np.multiply(cross, low.conj(), out=out[:, 0, 1])
    return out


def expm_skew(x) -> np.ndarray:
    """exp(x) for anti-Hermitian x, as unitary_stack of the Hermitian i*x.

    The result is unitary to roundoff, a property the holonomy identities
    downstream rely on. Inputs whose anti-Hermiticity residual exceeds
    DEFAULT_TOL.structure_tol are rejected; below it the skew part is taken
    first to suppress roundoff drift.
    """
    x = as_complex_matrix(x)
    _require_square(x)
    if frobenius(x + x.conj().T) > DEFAULT_TOL.structure_tol:
        raise ValueError("input is not anti-Hermitian within tolerance")
    return unitary_stack(hermitian_part(1j * skew_part(x))[None], np.ones(1))[0]


def loewdin_orthonormalize(frame: np.ndarray) -> np.ndarray:
    """Symmetric (Loewdin) orthonormalization of the columns of frame.

    Returns frame @ (frame^dag frame)^(-1/2). Unlike Gram-Schmidt this
    treats all columns on the same footing. frame may be a single N x M
    matrix or a stack (..., N, M), each orthonormalized on its own. For
    M = 2 the inverse square root of the Gram matrix G comes from the closed
    form sqrt(G) = (G + sqrt(det G) I) / sqrt(tr G + 2 sqrt(det G)); for
    other M from one batched eigh of G. A frame whose G has a non-positive
    determinant (M = 2) or eigenvalue is rejected as rank deficient.
    """
    if frame.shape[-1] == 2:
        return _loewdin_2(frame)
    w, v = np.linalg.eigh(hermitian_part(overlaps(frame, frame)))
    if w.min() <= 0.0:
        raise ValueError("frame is numerically rank deficient")
    inv_sqrt = products(v * (1.0 / np.sqrt(w))[..., None, :], v.conj().swapaxes(-1, -2))
    return products(frame, inv_sqrt)


def _loewdin_2(frame: np.ndarray) -> np.ndarray:
    """loewdin_orthonormalize for two columns c0, c1, column by column.

    With G the Gram matrix and s = sqrt(det G), sqrt(G) = (G + s I) /
    sqrt(tr G + 2 s) by Cayley-Hamilton, so G^(-1/2) = (adj(G) + s I) /
    (s sqrt(tr G + 2 s)), where adj swaps the diagonal and negates the
    off-diagonal entries.
    """
    c0, c1 = frame[..., 0], frame[..., 1]
    g00 = np.einsum("...n,...n->...", c0.conj(), c0).real
    g11 = np.einsum("...n,...n->...", c1.conj(), c1).real
    g10 = np.einsum("...n,...n->...", c1.conj(), c0)
    det = g00 * g11 - (g10.real**2 + g10.imag**2)
    if det.min() <= 0.0:
        raise ValueError("frame is numerically rank deficient")
    s = np.sqrt(det)
    scale = 1.0 / (s * np.sqrt(g00 + g11 + 2.0 * s))
    x00 = ((g11 + s) * scale)[..., None]
    x11 = ((g00 + s) * scale)[..., None]
    x10 = (-g10 * scale)[..., None]
    out = _time_last(frame.shape)
    out[..., 0] = c0 * x00 + c1 * x10
    out[..., 1] = c0 * x10.conj() + c1 * x11
    return out


def ordered_products(
    slices: np.ndarray,
    direction: str = "forward",
    cumulative: bool = False,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Time-ordered product of a stack (n, m, m) of slices, by one recursive
    pairing of adjacent slices (Blelloch 1990).

    "forward" puts later slices on the left, s[n-1] ... s[1] s[0];
    "reverse" puts them on the right, s[0] s[1] ... s[n-1]. Each level
    multiplies adjacent pairs in one products call, so the depth is
    O(log n) and roundoff grows as O(log n) rather than O(n).

    The full product is the pairs' product with an odd last slice combined
    on top; an empty stack gives the identity. With cumulative=True the
    result is the stack of all n prefix products, the k-th covering
    s[0] .. s[k], in O(n) matrix products: the odd positions are the pairs'
    prefixes and the even ones are filled in from them, the last by that
    same top combination, so the full product is the last prefix bit for bit.
    Each level is written in place into the one result stack: out, a stack
    of the slices' shape, if given, else a new one in the slices' layout.
    """
    slices = np.asarray(slices)
    if direction not in ("forward", "reverse"):
        raise ValueError(f"unknown ordering direction: {direction!r}")

    def combine(later, earlier):
        return products(later, earlier) if direction == "forward" else products(earlier, later)

    if cumulative:
        out = np.empty_like(slices) if out is None else out
        _prefix_scan(slices, out, combine)
        return out
    n = slices.shape[0]
    if n < 2:
        return slices[0].copy() if n else np.eye(slices.shape[-1], dtype=slices.dtype)
    even = n // 2 * 2
    inner = ordered_products(combine(slices[1:even:2], slices[0:even:2]), direction)
    return combine(slices[-1], inner) if even < n else inner


def _prefix_scan(s: np.ndarray, out: np.ndarray, combine) -> None:
    """out[k] = combine of s[0] .. s[k] for every k, in place if out is s:
    the pairs' prefixes fill the odd positions, then the even ones. Nested
    in ordered_products, it would leave a reference cycle per call."""
    n = s.shape[0]
    out[:1] = s[:1]
    if n > 1:
        odd = out[1 : n // 2 * 2 : 2]
        odd[...] = combine(s[1::2], s[0 : n // 2 * 2 : 2])
        _prefix_scan(odd, odd, combine)
        out[2::2] = combine(s[2::2], out[1 : n - 1 : 2])
