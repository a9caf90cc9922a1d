import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from holosplit.dynamics import FramePath, TimeGrid, propagate_frame
from holosplit.linalg import (
    Tolerances,
    commutator_norm,
    expm_skew,
    frobenius,
    loewdin_orthonormalize,
    ordered_products,
    polar_decompose,
    subspace_gap,
    unitary_stack,
)
from holosplit.sections import Custom, _section, build_section

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)


def expm_series(x, terms=60):
    """Independent oracle: plain Taylor summation of the matrix exponential."""
    acc = np.eye(x.shape[0], dtype=complex)
    term = np.eye(x.shape[0], dtype=complex)
    for n in range(1, terms):
        term = term @ x / n
        acc = acc + term
    return acc


def random_skew(dim, rng, scale=1.0):
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return scale * (z - z.conj().T) / 2


@st.composite
def skew_matrices(draw, max_dim=8):
    dim = draw(st.integers(1, max_dim))
    re = draw(arrays(float, (dim, dim), elements=st.floats(-2, 2)))
    im = draw(arrays(float, (dim, dim), elements=st.floats(-2, 2)))
    z = re + 1j * im
    return (z - z.conj().T) / 2


class TestExpmSkew:
    def test_zero_gives_identity(self):
        np.testing.assert_array_equal(expm_skew(np.zeros((2, 2))), np.eye(2))

    def test_pi_pauli_x(self):
        got = expm_skew(-1j * np.pi * PAULI_X)
        np.testing.assert_allclose(got, -np.eye(2), atol=1e-14)

    def test_half_pi_pauli_z(self):
        got = expm_skew(-1j * (np.pi / 2) * PAULI_Z)
        np.testing.assert_allclose(got, np.diag([-1j, 1j]), atol=1e-14)

    def test_agrees_with_series_oracle(self):
        rng = np.random.default_rng(42)
        for dim in (2, 3, 5):
            x = random_skew(dim, rng)
            np.testing.assert_allclose(expm_skew(x), expm_series(x), atol=1e-12)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            expm_skew(np.zeros((2, 3)))

    def test_rejects_non_skew(self):
        with pytest.raises(ValueError, match="anti-Hermitian"):
            expm_skew(PAULI_X)

    @settings(max_examples=40, deadline=None)
    @given(skew_matrices())
    def test_output_unitary(self, x):
        q = expm_skew(x)
        assert frobenius(q.conj().T @ q - np.eye(x.shape[0])) <= 1e-9

    @settings(max_examples=40, deadline=None)
    @given(skew_matrices())
    def test_inverse_pairing(self, x):
        q = expm_skew(x) @ expm_skew(-x)
        assert frobenius(q - np.eye(x.shape[0])) <= 1e-9


class TestPolarDecompose:
    def test_unitary_input(self):
        u = expm_skew(random_skew(3, np.random.default_rng(0)))
        p, q = polar_decompose(u)
        np.testing.assert_allclose(p, np.eye(3), atol=1e-12)
        np.testing.assert_allclose(q, u, atol=1e-12)

    def test_positive_diagonal_input(self):
        u = np.diag([0.5, 1.0]).astype(complex)
        p, q = polar_decompose(u)
        np.testing.assert_allclose(p, np.diag([0.5, 1.0]), atol=1e-14)
        np.testing.assert_allclose(q, np.eye(2), atol=1e-14)

    def test_recovers_overlap_and_frame_change(self):
        # non-cyclic Lambda run: the evolution matrix U = O W is exactly the
        # left polar pair when O is positive definite
        from holosplit import (
            LambdaParams, case_setup, propagate_frame, build_section,
            w_path, u_matrix_path,
        )

        p = LambdaParams(omega0=np.sqrt(3), delta=1.0, tau=np.pi / 3)
        spec, psi0, rule = case_setup("ii", p)
        grid = TimeGrid.uniform(p.tau, 2048)
        s = propagate_frame(spec, psi0, grid)
        sec = build_section(rule, s, spec)
        pos, uni = polar_decompose(u_matrix_path(s)[-1])
        o_end = u_matrix_path(sec.path)[-1]
        w_end = w_path(sec, s)[-1]
        phi = p.phidot * p.tau
        ref = np.diag([1.0, np.sqrt(1 - np.sin(p.gamma) ** 2 * np.sin(phi) ** 2)])
        np.testing.assert_allclose(o_end, ref, atol=1e-10)
        np.testing.assert_allclose(pos, o_end, atol=1e-10)
        np.testing.assert_allclose(uni, w_end, atol=1e-10)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            polar_decompose(np.ones((2, 3)))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 6), st.integers(0, 10_000))
    def test_reconstruction_and_structure(self, dim, seed):
        rng = np.random.default_rng(seed)
        u = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        p, q = polar_decompose(u)
        assert frobenius(u - p @ q) <= 1e-9
        assert frobenius(q.conj().T @ q - np.eye(dim)) <= 1e-9
        assert np.linalg.eigvalsh(p).min() >= -1e-10


class TestUnitaryStack:
    @settings(max_examples=30, deadline=None)
    @given(st.integers(1, 5), st.integers(1, 6), st.integers(0, 10_000))
    def test_matches_series_and_is_unitary(self, dim, count, seed):
        rng = np.random.default_rng(seed)
        hams = np.array([1j * random_skew(dim, rng) for _ in range(count)])
        dts = rng.uniform(-2.0, 2.0, count)
        got = unitary_stack(hams, dts)
        for u, h, dt in zip(got, hams, dts):
            np.testing.assert_allclose(u, expm_series(-1j * h * dt), atol=1e-12)
            assert frobenius(u.conj().T @ u - np.eye(dim)) <= 1e-13


class TestMinEigenvalueHermitian:
    """The smallest eigenvalue of the Hermitian part of the endpoint overlap
    O(0, tau), which sections._section reports as in_phase_margin."""

    def test_identity(self):
        grid = TimeGrid.uniform(1.0, 4)
        frames = np.broadcast_to(np.eye(3)[:, :2], (len(grid), 3, 2)).astype(complex)
        path = FramePath(grid, frames)
        assert _section(path, Custom(path)).in_phase_margin == pytest.approx(1.0)

    def test_diagonal(self):
        # O(0, tau) = diag(1, 0.3): the second column tilts towards |3>
        end = np.zeros((3, 2), dtype=complex)
        end[0, 0], end[1, 1], end[2, 1] = 1.0, 0.3, np.sqrt(1 - 0.3**2)
        path = FramePath(TimeGrid.uniform(1.0, 1), np.stack([np.eye(3)[:, :2], end]))
        assert _section(path, Custom(path)).in_phase_margin == pytest.approx(0.3)

    def test_case_ii_overlap_value(self):
        # overlap diag(1, sqrt(1 - 3/4)) at sin(gamma) = sqrt(3)/2, phi = pi/2
        from holosplit.lambda_system import LambdaParams, case_setup

        p = LambdaParams(omega0=np.sqrt(3), delta=1.0, tau=np.pi / 4)
        spec, psi0, rule = case_setup("ii", p)
        s = propagate_frame(spec, psi0, TimeGrid.uniform(p.tau, 1024))
        assert build_section(rule, s, spec).in_phase_margin == pytest.approx(0.5, abs=1e-10)


class TestCommutatorNorm:
    def test_self_commutes(self):
        assert commutator_norm(PAULI_X, PAULI_X) == 0.0

    def test_pauli_x_z(self):
        assert commutator_norm(PAULI_X, PAULI_Z) == pytest.approx(2 * np.sqrt(2))

    def test_diagonal_pair(self):
        assert commutator_norm(np.diag([1.0, 2.0]), np.diag([3.0, -1.0])) == 0.0

    def test_rejects_mismatched(self):
        with pytest.raises(ValueError, match="mismatch"):
            commutator_norm(np.eye(2), np.eye(3))

    @settings(max_examples=30, deadline=None)
    @given(st.integers(1, 5), st.integers(0, 10_000), st.floats(-3, 3))
    def test_symmetric_and_identity_blind(self, dim, seed, scale):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        b = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        assert commutator_norm(a, b) == commutator_norm(b, a)
        assert commutator_norm(a, scale * np.eye(dim)) <= 1e-12 * max(1, abs(scale)) * frobenius(a)


@given(st.sampled_from(["structure_tol", "positivity_tol", "separation_tol"]),
       st.sampled_from([np.nan, -np.inf, -1e-12]))
def test_tolerances_reject_nan_and_negative(name, bad):
    with pytest.raises(ValueError, match=f"{name} must be non-negative"):
        Tolerances(**{name: bad})


def test_loewdin_orthonormalizes():
    rng = np.random.default_rng(1)
    f = rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3))
    q = loewdin_orthonormalize(f)
    np.testing.assert_allclose(q.conj().T @ q, np.eye(3), atol=1e-12)


def test_loewdin_stack_matches_single_frames():
    rng = np.random.default_rng(2)
    stack = rng.standard_normal((6, 5, 3)) + 1j * rng.standard_normal((6, 5, 3))
    q = loewdin_orthonormalize(stack)
    for k in range(stack.shape[0]):
        np.testing.assert_allclose(q[k], loewdin_orthonormalize(stack[k]), atol=1e-14)


def test_loewdin_stack_rejects_rank_deficient_member():
    stack = np.stack([np.eye(3)[:, :2], np.ones((3, 2))]).astype(complex)
    with pytest.raises(ValueError, match="rank deficient"):
        loewdin_orthonormalize(stack)


def sequential_products(slices, direction):
    """Reference: the left/right loop the tree reduction replaces."""
    acc = np.eye(slices.shape[1], dtype=complex)
    prefixes = []
    for s in slices:
        acc = s @ acc if direction == "forward" else acc @ s
        prefixes.append(acc)
    return np.array(prefixes)


class TestOrderedProducts:
    @pytest.mark.parametrize("direction", ["forward", "reverse"])
    @pytest.mark.parametrize("n", [1, 2, 3, 7, 16, 17, 1024, 1025])
    def test_matches_sequential_loop(self, n, direction):
        rng = np.random.default_rng(n)
        slices = np.array([expm_skew(random_skew(3, rng)) for _ in range(n)])
        ref = sequential_products(slices, direction)
        total = ordered_products(slices, direction)
        prefixes = ordered_products(slices, direction, cumulative=True)
        assert total.shape == (3, 3) and prefixes.shape == (n, 3, 3)
        assert np.abs(total - ref[-1]).max() <= 1e-13
        assert np.abs(prefixes - ref).max() <= 1e-13

    @pytest.mark.parametrize("direction", ["forward", "reverse"])
    def test_identity_slices_give_exact_identity(self, direction):
        slices = np.broadcast_to(np.eye(4, dtype=complex), (37, 4, 4))
        np.testing.assert_array_equal(ordered_products(slices, direction), np.eye(4))
        np.testing.assert_array_equal(
            ordered_products(slices, direction, cumulative=True), slices)

    def test_empty_stack_gives_identity(self):
        np.testing.assert_array_equal(
            ordered_products(np.zeros((0, 2, 2), dtype=complex)), np.eye(2))

    def test_rejects_unknown_direction(self):
        with pytest.raises(ValueError, match="direction"):
            ordered_products(np.zeros((2, 2, 2), dtype=complex), "sideways")


def random_frames(rng, shape, n, m):
    z = rng.standard_normal((*shape, n, m)) + 1j * rng.standard_normal((*shape, n, m))
    return np.linalg.qr(z)[0]


def projector_gap(a, b):
    """Reference: Frobenius distance of the N x N projector stacks."""
    pa = a @ a.conj().swapaxes(-1, -2)
    pb = b @ b.conj().swapaxes(-1, -2)
    return np.linalg.norm(pa - pb, axis=(-2, -1))


frame_dims = st.integers(1, 8).flatmap(lambda n: st.tuples(st.just(n), st.integers(1, n)))


class TestSubspaceGap:
    @settings(max_examples=50, deadline=None)
    @given(frame_dims, st.integers(1, 6), st.integers(0, 2**32 - 1))
    def test_matches_projector_formula(self, dims, npts, seed):
        n, m = dims
        rng = np.random.default_rng(seed)
        a, b = random_frames(rng, (npts,), n, m), random_frames(rng, (npts,), n, m)
        gap = subspace_gap(a, b)
        assert gap.shape == (npts,)
        assert np.abs(gap - projector_gap(a, b)).max() <= 1e-12

    @settings(max_examples=50, deadline=None)
    @given(frame_dims, st.integers(1, 6), st.integers(0, 2**32 - 1))
    def test_equal_span_pairs_vanish(self, dims, npts, seed):
        n, m = dims
        rng = np.random.default_rng(seed)
        a = random_frames(rng, (npts,), n, m)
        b = a @ random_frames(rng, (npts,), m, m)
        assert subspace_gap(a, b).max() <= 1e-12
        assert projector_gap(a, b).max() <= 1e-12

    @settings(max_examples=50, deadline=None)
    @given(frame_dims, st.integers(1, 6), st.integers(0, 2**32 - 1))
    def test_single_frame_broadcasts_over_stack(self, dims, npts, seed):
        n, m = dims
        rng = np.random.default_rng(seed)
        a0, b = random_frames(rng, (), n, m), random_frames(rng, (npts,), n, m)
        gap = subspace_gap(a0, b)
        assert gap.shape == (npts,)
        assert np.abs(gap - projector_gap(a0[None], b)).max() <= 1e-12
