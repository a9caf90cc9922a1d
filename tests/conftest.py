import functools
from types import SimpleNamespace

import numpy as np
import pytest

from holosplit import LambdaParams, case_setup, decompose, propagate_frame
from holosplit.dynamics import Sampled, TimeGrid, _propagate, hamiltonian_path
from holosplit.linalg import _require_square, as_complex_matrix, frobenius, hermitian_part, overlaps, products

SQRT3 = np.sqrt(3.0)


# oracles the tests check the package against; the package itself needs none
def polar_decompose(u) -> tuple[np.ndarray, np.ndarray]:
    """Left polar factorization u = p @ q.

    p is Hermitian positive semidefinite and q unitary, obtained from the
    singular value decomposition u = x @ diag(s) @ yh as p = x s x^dag,
    q = x yh.
    """
    u = as_complex_matrix(u)
    _require_square(u)
    x, s, yh = np.linalg.svd(u)
    return hermitian_part((x * s) @ x.conj().T), x @ yh


def commutator_norm(a, b) -> float:
    """Frobenius norm of the commutator a@b - b@a."""
    a = as_complex_matrix(a)
    b = as_complex_matrix(b)
    _require_square(a, "first argument")
    _require_square(b, "second argument")
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    return frobenius(a @ b - b @ a)


def dark_bright_to_bare(p: LambdaParams) -> np.ndarray:
    """Unitary basis change from the ordered frame {|d>, |b>} to the bare
    ground levels {|1>, |2>}; used to compose holonomies from pulses with
    different laser parameters."""
    return np.stack([p.dark_state[:2], p.bright_state[:2]], axis=1)


def section_frames(section) -> np.ndarray:
    """The N x M frames L = S R V a section stands for, formed from the M x M
    paths it holds (R the rotation of a gauge transform, else the identity)."""
    s = section.schrodinger.frames
    return products(s if section.rotation is None else products(s, section.rotation), section.v)


def midpoint_spec(grid, hams) -> Sampled:
    """A Sampled spec whose H at the k-th step midpoint of grid is hams[k],
    bit for bit if hams is exactly Hermitian: sampled at the midpoints and
    at the grid times, where it is 0, so every midpoint is a sample time."""
    times = grid.times
    sample_times = np.empty(2 * times.size - 1)
    sample_times[::2], sample_times[1::2] = times, 0.5 * (times[:-1] + times[1:])
    samples = np.zeros((sample_times.size, *hams.shape[1:]), dtype=complex)
    samples[1::2] = hams
    return Sampled(TimeGrid(sample_times), samples)


def trivial_shift_check(spec, psi0, f_dot, grid) -> float:
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
        midpoint_spec(grid, hamiltonian_path(spec, mids) - rates[:, None, None] * eye),
        np.asarray(psi0, dtype=complex),
        grid,
    )

    # accumulate f by the same midpoint quadrature the propagator applies,
    # so the phase relation between the two paths is exact per step; the
    # section is V = exp(i f) I on the base frames, so W = V^dag S^dag S_shifted
    f = np.concatenate([[0.0], np.cumsum(rates * np.diff(times))])
    w = overlaps(base.frames, shifted) * np.exp(-1j * f)[:, None, None]
    return float(np.linalg.norm(w - np.eye(w.shape[1]), axis=(1, 2)).max())


@functools.lru_cache(maxsize=32)
def _run_case_cached(which, omega0, delta, tau, eta, omega1, omega2, steps):
    p = LambdaParams(omega0=omega0, delta=delta, tau=tau,
                     omega1=omega1, omega2=omega2, eta=eta)
    spec, psi0, rule = case_setup(which, p)
    grid = TimeGrid.uniform(p.tau, steps)
    section, report = decompose(spec, psi0, rule, grid)
    return SimpleNamespace(params=p, spec=spec, psi0=psi0, rule=rule, grid=grid,
                           schrod=section.schrodinger, section=section, report=report)


def run_case(which, omega0=SQRT3, delta=1.0, tau=np.pi / 2, eta=np.pi / 3,
             omega1=1.0 + 0j, omega2=0.0 + 0j, steps=4096):
    """Full pipeline for a Lambda case; memoized across the whole session."""
    return _run_case_cached(which, float(omega0), float(delta), float(tau),
                            float(eta), complex(omega1), complex(omega2), int(steps))


@pytest.fixture(scope="session")
def case_i():
    return run_case("i")


@pytest.fixture(scope="session")
def case_i_resonant():
    return run_case("i", omega0=1.0, delta=0.0, tau=np.pi)


@pytest.fixture(scope="session")
def case_ii():
    return run_case("ii")


@pytest.fixture(scope="session")
def case_iii():
    return run_case("iii")
