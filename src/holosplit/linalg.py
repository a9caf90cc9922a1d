"""Dense complex linear algebra primitives used throughout the package.

Matrices are plain numpy arrays with dtype complex128 and are never mutated.
The Frobenius norm is the canonical matrix distance everywhere. Every
stacked product a @ b is one call of products, every frame overlap F^dag G
(Gram checks, U = S(0)^dag S(t), the step overlaps of a section, the F
sandwich, the subspace gaps) one call of overlaps = products(F^dag, G),
every unitary slice exp(-i H dt) one call of unitary_stack, and every
time-ordered product (the propagation steps below N = 20, the Anandan path
and the four endpoint factors) the one pairing of ordered_products. Each
kernel picks its method from the array shape (and unitary_stack from the
largest ||H dt||_1) alone; a stack of 2 x 2 matrices, the shape of every
M = 2 subspace quantity, takes closed forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Tolerances",
    "DEFAULT_TOL",
    "as_complex_matrix",
    "commutator_norm",
    "expm_skew",
    "frobenius",
    "hermitian_part",
    "loewdin_orthonormalize",
    "ordered_products",
    "overlaps",
    "polar_decompose",
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
    """Reject a negative or NaN threshold; NaN fails every comparison, so it
    would silently disable the check it guards."""
    if not value >= 0:
        raise ValueError(f"{name} must be non-negative, got {value!r}")


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
    or a complex times 0.5, turns some -0.0 real parts into +0.0."""
    s.view(s.real.dtype)[...] *= 0.5
    return s


def hermitian_part(a: np.ndarray) -> np.ndarray:
    return _halved(np.add(a, a.conj().swapaxes(-1, -2), order="C"))


def skew_part(a: np.ndarray) -> np.ndarray:
    return _halved(np.subtract(a, a.conj().swapaxes(-1, -2), order="C"))


def products(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b over the last two axes, (..., r, k) @ (..., k, c) -> (..., r, c),
    leading axes broadcast: for k <= 4 and r c <= 8 each entry is summed over
    the whole stack at once, else one batched matmul. Entrywise/matmul time,
    one BLAS thread, stacks of 2048 and 16384 (scripts/product_crossover.py):
    0.10, 0.24 at (r, k, c) = (2, 2, 2); 0.20, 0.58 at (3, 3, 2); 0.36, 1.24
    at (4, 4, 2); 0.76, 2.87 at (4, 4, 4). So the (4, 4, 2) route assumes
    stacks of at most about 4096, the 4-level chunks of dynamics._CHUNK_BYTES."""
    (r, k), c = a.shape[-2:], b.shape[-1]
    if k != b.shape[-2]:
        raise ValueError(f"products needs a matching inner dimension, got shapes {a.shape} and {b.shape}")
    return _entrywise_products(a, b) if 0 < k <= 4 and r * c <= 8 else a @ b


def _entrywise_products(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    (r, k), c = a.shape[-2:], b.shape[-1]
    out = np.empty(np.broadcast_shapes(a.shape[:-2], b.shape[:-2]) + (r, c), np.result_type(a, b))
    for i in range(r):
        for j in range(c):
            acc = a[..., i, 0] * b[..., 0, j]
            for l in range(1, k):
                acc += a[..., i, l] * b[..., l, j]
            out[..., i, j] = acc
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
    theta = float((np.abs(hams).sum(axis=-2).max(axis=-1) * np.abs(dts)).max(initial=0.0))
    if theta <= _TAYLOR_THETA:
        # U = I + c H (I + (c/2) H (... (I + (c/p) H))), c = -i dt
        c = (-1j * dts)[:, None, None]
        p = _taylor_plan(theta)[1]
        diag = np.arange(hams.shape[-1])
        out = hams * (c / p)
        out[:, diag, diag] += 1.0
        for j in range(p - 1, 0, -1):
            out = products(hams, out)
            out *= c / j
            out[:, diag, diag] += 1.0
        return out
    w, v = np.linalg.eigh(hams)
    # scale v in place so no extra stack-sized temporary is allocated
    vh = v.conj().swapaxes(-1, -2)
    v *= np.exp(-1j * w * dts[:, None])[:, None, :]
    return products(v, vh)


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
    cross = phase * (-1j * dts * np.sinc(theta / np.pi))
    out = np.empty((hams.shape[0], 2, 2), dtype=complex)
    out[:, 0, 0] = cos + cross * half_gap
    out[:, 1, 1] = cos - cross * half_gap
    out[:, 1, 0] = cross * low
    out[:, 0, 1] = cross * low.conj()
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


def polar_decompose(u) -> tuple[np.ndarray, np.ndarray]:
    """Left polar factorization u = p @ q.

    p is Hermitian positive semidefinite and q unitary, obtained from the
    singular value decomposition u = x @ diag(s) @ yh as p = x s x^dag,
    q = x yh.
    """
    u = as_complex_matrix(u)
    _require_square(u)
    try:
        x, s, yh = np.linalg.svd(u)
    except np.linalg.LinAlgError as exc:
        raise ValueError(f"SVD of polar input failed: {exc}") from exc
    p = hermitian_part((x * s) @ x.conj().T)
    q = x @ yh
    return p, q


def commutator_norm(a, b) -> float:
    """Frobenius norm of the commutator a@b - b@a."""
    a = as_complex_matrix(a)
    b = as_complex_matrix(b)
    _require_square(a, "first argument")
    _require_square(b, "second argument")
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    return frobenius(a @ b - b @ a)


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
    out = np.empty(frame.shape, dtype=complex)
    out[..., 0] = c0 * x00 + c1 * x10
    out[..., 1] = c0 * x10.conj() + c1 * x11
    return out


def ordered_products(
    slices: np.ndarray,
    direction: str = "forward",
    cumulative: bool = False,
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
    """
    slices = np.asarray(slices)
    if direction not in ("forward", "reverse"):
        raise ValueError(f"unknown ordering direction: {direction!r}")

    def combine(later, earlier):
        return products(later, earlier) if direction == "forward" else products(earlier, later)

    n = slices.shape[0]
    if cumulative and n < 2:
        return slices.copy()
    if n < 2:
        return slices[0].copy() if n else np.eye(slices.shape[-1], dtype=slices.dtype)
    even = n // 2 * 2
    inner = ordered_products(combine(slices[1:even:2], slices[0:even:2]), direction, cumulative)
    if not cumulative:
        return combine(slices[-1], inner) if even < n else inner
    out = np.empty_like(slices)
    out[0] = slices[0]
    # out[2i+1] covers s[0] .. s[2i+1]
    out[1::2] = inner
    out[2::2] = combine(slices[2::2], out[1:n - 1:2])
    return out
