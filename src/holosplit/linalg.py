"""Dense complex linear algebra primitives used throughout the package.

Matrices are plain numpy arrays with dtype complex128 and are never mutated.
The Frobenius norm is the canonical matrix distance everywhere. Every frame
overlap F^dag G (Gram checks, W, O, the connection, the K/F sandwiches, the
subspace gaps) comes from the one primitive overlaps, and every unitary
slice exp(-i H dt), whether a propagation step or a factor of an ordered
exponential, from the one kernel unitary_stack. The kernels pick their
method from the array shape alone: a stack of 2 x 2 matrices, the shape of
every M = 2 subspace quantity, takes closed forms (Cayley-Hamilton for the
exponential, the 2 x 2 square-root formula for the Loewdin factor) that form
no eigenvectors, and any other size one batched eigh; an overlap of frames
with at most four rows is a sum of row outer products, of taller frames one
batched matmul.
"""

from __future__ import annotations

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
            # NaN fails every comparison, so it would silently disable a check
            if not getattr(self, name) >= 0:
                raise ValueError(f"{name} must be non-negative, got {getattr(self, name)!r}")


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


def hermitian_part(a: np.ndarray) -> np.ndarray:
    return (a + a.conj().swapaxes(-1, -2)) / 2


def skew_part(a: np.ndarray) -> np.ndarray:
    return (a - a.conj().swapaxes(-1, -2)) / 2


def overlaps(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a^dag b over the last two axes: (..., N, M) and (..., N, K) give
    (..., M, K), with the leading axes broadcast (one frame against a stack
    gives one overlap per frame). Up to N = 4 rows it sums the row outer
    products conj(a_n) b_n, measured up to 9x faster there than a matmul per
    frame; taller frames take one batched matmul (faster for stacks from
    N = 8 on)."""
    n = a.shape[-2]
    if n != b.shape[-2]:
        raise ValueError(f"overlaps needs equal row counts, got shapes {a.shape} and {b.shape}")
    if not 0 < n <= 4:
        return a.conj().swapaxes(-1, -2) @ b
    ac = a.conj()
    out = ac[..., 0, :, None] * b[..., 0, None, :]
    for i in range(1, n):
        out += ac[..., i, :, None] * b[..., i, None, :]
    return out


def subspace_gap(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """||a a^dag - b b^dag||_F for orthonormal N x M frames of equal rank.

    Computed as sqrt(2) ||b - a (a^dag b)||_F, which costs O(N M^2) per
    frame and forms no N x N projector. a and b may be stacks (..., N, M)
    that broadcast against each other; one gap per broadcast frame pair.
    """
    return np.sqrt(2.0) * np.linalg.norm(b - a @ overlaps(a, b), axis=(-2, -1))


def unitary_stack(hams: np.ndarray, dts: np.ndarray) -> np.ndarray:
    """exp(-i H_k dt_k) for a stack (n, m, m) of Hermitian H_k and n steps dt_k.

    The H_k must be exactly Hermitian: only their diagonal and lower triangle
    are read. For m = 2 each slice is the Cayley-Hamilton form
    e^{-i tr(H) dt/2} (cos(theta) I - i dt (sin(theta)/theta) H0), with H0 the
    traceless part of H and theta = dt ||H0||_2; diagonal and degenerate H
    need no special case. Otherwise each slice is V diag(exp(-i w dt)) V^dag
    from one batched eigh. Both are unitary to roundoff.
    """
    if hams.shape[-1] == 2:
        return _unitary_2x2(hams, dts)
    w, v = np.linalg.eigh(hams)
    # scale v in place so no extra stack-sized temporary is allocated
    vh = v.conj().swapaxes(-1, -2)
    v *= np.exp(-1j * w * dts[:, None])[:, None, :]
    return v @ vh


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


def expm_skew(x, *, structure_tol: float = DEFAULT_TOL.structure_tol) -> np.ndarray:
    """exp(x) for anti-Hermitian x, as unitary_stack of the Hermitian i*x.

    The result is unitary to roundoff, a property the holonomy identities
    downstream rely on. Inputs whose anti-Hermiticity residual exceeds
    structure_tol are rejected; below it the skew part is taken first to
    suppress roundoff drift.
    """
    x = as_complex_matrix(x)
    _require_square(x)
    if frobenius(x + x.conj().T) > structure_tol:
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
    inv_sqrt = (v * (1.0 / np.sqrt(w))[..., None, :]) @ v.conj().swapaxes(-1, -2)
    return frame @ inv_sqrt


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
    """Time-ordered product of a stack (n, m, m) of slices, by pairwise
    tree reduction (Blelloch 1990).

    "forward" puts later slices on the left, s[n-1] ... s[1] s[0];
    "reverse" puts them on the right, s[0] s[1] ... s[n-1]. Each level
    multiplies adjacent pairs in one batched matmul, so the depth is
    O(log n) and roundoff grows as O(log n) rather than O(n).

    With cumulative=True the result is the stack of all n prefix products,
    the k-th covering s[0] .. s[k], built by the same pairing in log depth
    and O(n) matrix products. Otherwise it is the single full product; an
    empty stack gives the identity.
    """
    slices = np.asarray(slices)
    if direction == "forward":
        def combine(later, earlier):
            return later @ earlier
    elif direction == "reverse":
        def combine(later, earlier):
            return earlier @ later
    else:
        raise ValueError(f"unknown ordering direction: {direction!r}")
    if cumulative:
        return _prefix_products(slices, combine)
    if slices.shape[0] == 0:
        return np.eye(slices.shape[-1], dtype=slices.dtype)
    acc = slices
    while acc.shape[0] > 1:
        even = acc.shape[0] // 2 * 2
        pairs = combine(acc[1:even:2], acc[0:even:2])
        acc = np.concatenate([pairs, acc[even:]]) if even < acc.shape[0] else pairs
    return acc[0].copy()


def _prefix_products(slices: np.ndarray, combine) -> np.ndarray:
    """Inclusive prefix products: pair adjacent slices, scan the pairs
    recursively, then fill in the even positions from the odd ones."""
    n = slices.shape[0]
    out = np.empty_like(slices)
    if n == 0:
        return out
    out[0] = slices[0]
    if n == 1:
        return out
    even = n // 2 * 2
    # out[2i+1] covers s[0] .. s[2i+1]
    out[1::2] = _prefix_products(combine(slices[1:even:2], slices[0:even:2]), combine)
    out[2::2] = combine(slices[2::2], out[1:n - 1:2])
    return out
