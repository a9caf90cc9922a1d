import functools
from types import SimpleNamespace

import numpy as np
import pytest

from holosplit import (
    LambdaParams,
    build_section,
    case_setup,
    propagate_frame,
    separability_report,
)
from holosplit.dynamics import TimeGrid
from holosplit.linalg import _require_square, as_complex_matrix, frobenius, hermitian_part

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


@functools.lru_cache(maxsize=32)
def _run_case_cached(which, omega0, delta, tau, eta, omega1, omega2, steps):
    p = LambdaParams(omega0=omega0, delta=delta, tau=tau,
                     omega1=omega1, omega2=omega2, eta=eta)
    spec, psi0, rule = case_setup(which, p)
    grid = TimeGrid.uniform(p.tau, steps)
    schrod = propagate_frame(spec, psi0, grid)
    section = build_section(rule, schrod, spec)
    report = separability_report(section, schrod, spec)
    return SimpleNamespace(params=p, spec=spec, psi0=psi0, rule=rule, grid=grid,
                           schrod=schrod, section=section, report=report)


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
