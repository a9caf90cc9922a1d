"""Seeded random instances: Hermitian pairs, frames, gauge loops and the
generic driven system used to exhibit the failure of holonomic/dynamical
separation."""

from __future__ import annotations

import numpy as np

from .dynamics import Sampled, TimeGrid
from .linalg import expm_skew, hermitian_part

__all__ = [
    "cosine_drive",
    "random_closed_gauge",
    "random_frame",
    "random_hermitian",
    "random_nonabelian_loop",
    "refutation_instance",
]


def random_hermitian(dim: int, rng: np.random.Generator, scale: float = 1.0) -> np.ndarray:
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return scale * hermitian_part(z / np.sqrt(2))


def random_frame(dim: int, m: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-ish random orthonormal N x M frame (QR with positive diagonal)."""
    z = rng.standard_normal((dim, m)) + 1j * rng.standard_normal((dim, m))
    q, r = np.linalg.qr(z)
    return q * np.sign(np.diag(r).real)


def cosine_drive(h0: np.ndarray, h1: np.ndarray, grid: TimeGrid) -> Sampled:
    """H(t) = h0 + cos(t) h1 sampled on the grid."""
    samples = h0[None, :, :] + np.cos(grid.times)[:, None, None] * h1[None, :, :]
    return Sampled(grid, samples)


def refutation_instance(
    seed: int,
    grid: TimeGrid | None = None,
    dim: int = 4,
    m: int = 2,
) -> tuple[Sampled, np.ndarray]:
    """A generic driven instance on which the G D product form holds while
    the forward-ordered holonomic/dynamical split fails.

    Returns a seeded Hamiltonian H(t) = H0 + cos(t) H1 sampled on the grid
    (default 4096 uniform steps over tau = 2) and a random initial frame.
    """
    if grid is None:
        grid = TimeGrid.uniform(2.0, 4096)
    rng = np.random.default_rng(seed)
    # scale keeps the 4096-step product-form residual safely below 1e-6
    # while leaving the separation failure at the 1e-1 level
    h0 = random_hermitian(dim, rng, scale=0.45)
    h1 = random_hermitian(dim, rng, scale=0.45)
    psi0 = random_frame(dim, m, rng)
    return cosine_drive(h0, h1, grid), psi0


def random_closed_gauge(
    times: np.ndarray, m: int, rng: np.random.Generator, strength: float = 0.7
) -> np.ndarray:
    """Closed gauge V(t) = V0, a random constant unitary held along the grid.

    Constant conjugation commutes with the generator structure pointwise, so
    under this family the separability verdict is invariant and every
    endpoint factor transforms exactly by V0-conjugation; that makes it the
    right family for covariance checks at tolerances below the finite
    difference floor. Winding time-dependent loops shift the connection by
    their own rate and contribute an O(dt^2) phase of their own; use
    random_nonabelian_loop to exercise those.
    """
    times = np.asarray(times, dtype=float)
    z = (rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))) / 2
    v0 = expm_skew(strength * (z - z.conj().T) / 2)
    return np.broadcast_to(v0, (times.size, m, m)).copy()


def random_nonabelian_loop(
    times: np.ndarray, m: int, rng: np.random.Generator, strength: float = 0.5
) -> np.ndarray:
    """Closed gauge loop V(t) = exp(X0) exp(s(t) X1) with s(0) = s(tau) = 0.

    Genuinely time dependent and non-commuting along the path; closed since
    the loop factor returns to the identity. Endpoint covariance of W holds
    for any such loop, the pointwise generator structure does not.
    """
    times = np.asarray(times, dtype=float)

    def skew(scale: float) -> np.ndarray:
        z = (rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))) / 2
        return scale * (z - z.conj().T) / 2

    x0, x1 = skew(strength), skew(strength)
    v0 = expm_skew(x0)
    s = np.sin(np.pi * times / times[-1]) ** 2
    w, v = np.linalg.eigh(1j * x1)
    loops = (v * np.exp(-1j * np.outer(s, w))[:, None, :]) @ v.conj().T
    return v0 @ loops
