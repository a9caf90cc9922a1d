import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from holosplit.dynamics import FramePath, TimeGrid, propagate_frame
from holosplit.instances import random_hermitian
from holosplit.linalg import (
    Tolerances,
    commutator_norm,
    expm_skew,
    frobenius,
    loewdin_orthonormalize,
    ordered_products,
    overlaps,
    polar_decompose,
    subspace_gap,
    unitary_stack,
)
from holosplit.sections import Custom, _min_eigenvalues, _section, build_section

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
            w_path,
        )

        p = LambdaParams(omega0=np.sqrt(3), delta=1.0, tau=np.pi / 3)
        spec, psi0, rule = case_setup("ii", p)
        grid = TimeGrid.uniform(p.tau, 2048)
        s = propagate_frame(spec, psi0, grid)
        sec = build_section(rule, s, spec)
        pos, uni = polar_decompose(overlaps(s.initial, s.frames)[-1])
        o_end = overlaps(sec.path.initial, sec.path.frames)[-1]
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


def eigh_unitary_stack(hams, dts):
    """Reference: V diag(exp(-i w dt)) V^dag from a batched eigh."""
    w, v = np.linalg.eigh(hams)
    return (v * np.exp(-1j * w * dts[:, None])[:, None, :]) @ v.conj().swapaxes(-1, -2)


def eigh_loewdin(frame):
    """Reference: frame @ (frame^dag frame)^(-1/2) from a batched eigh."""
    w, v = np.linalg.eigh(frame.conj().swapaxes(-1, -2) @ frame)
    if w.min() <= 0.0:
        raise ValueError("frame is numerically rank deficient")
    return frame @ ((v / np.sqrt(w)[..., None, :]) @ v.conj().swapaxes(-1, -2))


@st.composite
def hermitian_2x2_steps(draw):
    """A stack of 2 x 2 Hermitian H (random, diagonal, scalar, zero or nearly
    degenerate) and steps dt of either sign, with theta = |dt| times the
    half-gap of the eigenvalues drawn log-uniformly from 1e-9 to 4 pi."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kinds = draw(st.lists(st.sampled_from(["random", "diagonal", "scalar", "zero", "near"]),
                          min_size=1, max_size=8))
    hams, dts = [], []
    for kind in kinds:
        shift = rng.uniform(-3.0, 3.0) * np.eye(2)
        if kind == "random":
            h = random_hermitian(2, rng, 10 ** rng.uniform(-3.0, 2.0))
        elif kind == "diagonal":
            h = np.diag(rng.uniform(-5.0, 5.0, 2))
        elif kind == "scalar":
            h = shift
        elif kind == "zero":
            h = np.zeros((2, 2))
        else:
            h = shift + 10 ** rng.uniform(-8.0, -4.0) * random_hermitian(2, rng)
        half_gap = np.hypot((h[0, 0] - h[1, 1]).real / 2, abs(h[1, 0]))
        theta = 10 ** draw(st.floats(-9.0, np.log10(4 * np.pi)))
        sign = draw(st.sampled_from([-1.0, 1.0]))
        hams.append(h)
        dts.append(sign * theta / (half_gap if half_gap > 0 else 1.0))
    return np.array(hams, dtype=complex), np.array(dts)


@st.composite
def two_column_frames(draw):
    """A stack of N x 2 frames: near-orthonormal, or of full rank with column
    norms in [1/2, 2], orthogonal or equal-norm columns included."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n, count = draw(st.integers(2, 6)), draw(st.integers(1, 6))
    kind = draw(st.sampled_from(["near", "general", "orthogonal", "equal_norms"]))
    q = random_frames(rng, (count,), n, 2)
    if kind == "near":
        size = 10 ** draw(st.floats(-12.0, -3.0))
        return q + size * (rng.standard_normal(q.shape) + 1j * rng.standard_normal(q.shape))
    norms = np.exp(rng.uniform(np.log(0.5), np.log(2.0), (count, 1, 2)))
    if kind == "equal_norms":
        norms[..., 1] = norms[..., 0]
    frames = q * norms
    return frames if kind == "orthogonal" else frames @ random_frames(rng, (count,), 2, 2)


class TestTwoByTwoClosedForms:
    """The M = 2 closed forms against the eigh routes they replace."""

    @settings(max_examples=200, deadline=None)
    @given(hermitian_2x2_steps())
    def test_exponential_matches_eigh(self, stack):
        hams, dts = stack
        got = unitary_stack(hams, dts)
        scale = 1.0 + np.abs(dts) * np.abs(np.linalg.eigvalsh(hams)).max(axis=1)
        err = np.abs(got - eigh_unitary_stack(hams, dts)).max(axis=(1, 2))
        assert (err <= 1e-13 * scale).all()
        unitarity = np.linalg.norm(got.conj().swapaxes(1, 2) @ got - np.eye(2), axis=(1, 2))
        assert unitarity.max() <= 1e-14

    @settings(max_examples=200, deadline=None)
    @given(two_column_frames())
    def test_loewdin_matches_eigh(self, frames):
        got = loewdin_orthonormalize(frames)
        assert np.abs(got - eigh_loewdin(frames)).max() <= 1e-13
        np.testing.assert_array_equal(loewdin_orthonormalize(frames[0]), got[0])
        grams = got.conj().swapaxes(1, 2) @ got
        assert np.linalg.norm(grams - np.eye(2), axis=(1, 2)).max() <= 1e-14

    @settings(max_examples=200, deadline=None)
    @given(hermitian_2x2_steps())
    def test_min_eigenvalue_matches_eigvalsh(self, stack):
        hams, _ = stack
        err = np.abs(_min_eigenvalues(hams) - np.linalg.eigvalsh(hams)[:, 0])
        assert (err <= 1e-13 * np.abs(hams).max(axis=(1, 2))).all()

    @pytest.mark.parametrize("m", [2, 3])
    @pytest.mark.parametrize("kind", ["zero", "repeated", "doubled"])
    def test_rank_deficient_frames_raise(self, m, kind):
        col = random_frames(np.random.default_rng(3), (), 4, 1)[:, 0] * 3.7
        scales = {"zero": [1.0] + [0.0] * (m - 1), "repeated": [1.0] * m,
                  "doubled": [2.0**j for j in range(m)]}[kind]
        frame = np.column_stack([col * c for c in scales])
        stack = np.stack([np.eye(4, m, dtype=complex), frame])
        for route in (loewdin_orthonormalize, eigh_loewdin):
            with pytest.raises(ValueError, match="rank deficient"):
                route(stack)


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


class TestOverlaps:
    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 12), st.integers(1, 4), st.integers(1, 4), st.integers(1, 6),
           st.sampled_from(["stacks", "frame_vs_stack", "stack_vs_frame"]),
           st.integers(0, 2**32 - 1))
    def test_matches_explicit_sum(self, n, m, k, npts, layout, seed):
        rng = np.random.default_rng(seed)
        lead_a = () if layout == "frame_vs_stack" else (npts,)
        lead_b = () if layout == "stack_vs_frame" else (npts,)

        def draw(shape):
            z = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            return z * 10.0 ** rng.uniform(-3, 3)

        a, b = draw((*lead_a, n, m)), draw((*lead_b, n, k))
        got = overlaps(a, b)
        assert got.shape == (npts, m, k)
        # sum over n of conj(a_nj) b_nk, one term at a time
        want = np.zeros((npts, m, k), dtype=complex)
        for i in range(n):
            want += a.conj()[..., i, :, None] * b[..., i, None, :]
        scale = np.linalg.norm(a) * np.linalg.norm(b)
        assert np.abs(got - want).max() <= 1e-13 * scale

    @pytest.mark.parametrize("n", [3, 12])
    def test_rejects_unequal_row_counts(self, n):
        # the row sum would silently drop the extra row of the taller frame
        a, b = np.ones((5, n, 2)), np.ones((5, n + 1, 2))
        for x, y in ((a, b), (b, a)):
            with pytest.raises(ValueError, match="equal row counts"):
                overlaps(x, y)
