import gc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import commutator_norm, polar_decompose, section_frames
from holosplit.dynamics import Constant, FramePath, TimeGrid, propagate_frame
from holosplit.holonomy import generator_path, ordered_factor
from holosplit.instances import random_hermitian, refutation_instance
from holosplit.linalg import (
    _TAYLOR_THETA,
    Tolerances,
    _time_last,
    expm_skew,
    frobenius,
    hermitian_part,
    loewdin_orthonormalize,
    ordered_products,
    overlaps,
    products,
    skew_part,
    subspace_gap,
    unitary_stack,
)
from holosplit.sections import Custom, PhaseAnchored, _min_eigenvalues, build_section

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


def bits(x):
    return np.ascontiguousarray(x).view(np.int64)


def time_last_copy(x):
    """A copy of the stack x (T, r, c) held as a view of one C-order (r, c, T)
    buffer, the layout of linalg._time_last: x[:, i, j] is contiguous."""
    return np.moveaxis(np.moveaxis(x, 0, -1).copy(), -1, 0)


def exact_stack(part):
    """A (4, 3, 3) stack that part leaves unchanged, with -0.0 real parts
    above the diagonal (and below it too when Hermitian) beside imaginary
    parts of either sign."""
    rng = np.random.default_rng(6)
    a = np.zeros((4, 3, 3), dtype=complex)
    upper, diag = np.triu_indices(3, 1), np.diag_indices(3)
    q = rng.standard_normal((4, 3))
    a.real[:, upper[0], upper[1]] = -0.0
    a.imag[:, upper[0], upper[1]] = q
    if part is skew_part:
        a.imag[:, upper[1], upper[0]] = q
        a.imag[:, diag[0], diag[1]] = rng.standard_normal((4, 3))
    else:
        a.real[:, upper[1], upper[0]] = -0.0
        a.imag[:, upper[1], upper[0]] = -q
        a.real[:, diag[0], diag[1]] = rng.standard_normal((4, 3))
    return a


class TestHermitianAndSkewParts:
    @pytest.mark.parametrize("order", ["C", "F", "time-last"])
    def test_equal_to_halving_by_complex_division(self, order):
        # bit for bit wherever no part is zero
        rng = np.random.default_rng(5)
        a = rng.standard_normal((6, 4, 4)) + 1j * rng.standard_normal((6, 4, 4))
        a = time_last_copy(a) if order == "time-last" else np.asarray(a, order=order)
        at = a.conj().swapaxes(-1, -2)
        np.testing.assert_array_equal(bits(hermitian_part(a)), bits((a + at) / 2))
        np.testing.assert_array_equal(bits(skew_part(a)), bits((a - at) / 2))

    def test_exactly_skew_stack_is_unchanged(self):
        # off-diagonal real parts of -0.0 beside imaginary parts of either
        # sign; a complex division by 2 turned some of them into +0.0
        a = exact_stack(skew_part)
        np.testing.assert_array_equal(skew_part(a).view(np.int64), a.view(np.int64))

    @pytest.mark.parametrize("part, layout", [(skew_part, "time-last"), (hermitian_part, "C"),
                                              (hermitian_part, "time-last")])
    def test_exact_stack_is_unchanged_in_any_layout(self, part, layout):
        a = exact_stack(part)
        a = time_last_copy(a) if layout == "time-last" else a
        np.testing.assert_array_equal(bits(part(a)), bits(a))


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
        frames = section_frames(sec)
        o_end = overlaps(frames[0], frames)[-1]
        w_end = w_path(sec)[-1]
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
def hermitian_steps(draw):
    """A stack of m x m Hermitian H, m not 2, and steps dt of either sign, with
    theta = ||H dt||_1 drawn log-uniformly from 1e-9 to 2 _TAYLOR_THETA, so a
    stack takes either route."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m, count = draw(st.sampled_from([1, 3, 4, 5, 8])), draw(st.integers(1, 6))
    hams = np.array([random_hermitian(m, rng, 10 ** rng.uniform(-3.0, 2.0)) for _ in range(count)])
    theta = 10.0 ** np.array(draw(st.lists(st.floats(-9.0, np.log10(2 * _TAYLOR_THETA)),
                                           min_size=count, max_size=count)))
    signs = np.array(draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=count, max_size=count)))
    return hams, signs * theta / np.abs(hams).sum(axis=1).max(axis=1)


class TestTaylorSlices:
    """unitary_stack for m != 2: one Taylor polynomial per slice when every
    ||H dt||_1 is at most _TAYLOR_THETA, one batched eigh otherwise."""

    @settings(max_examples=200, deadline=None)
    @given(hermitian_steps())
    def test_matches_eigh_and_is_unitary(self, stack):
        hams, dts = stack
        got = unitary_stack(hams, dts)
        scale = 1.0 + np.abs(dts) * np.abs(np.linalg.eigvalsh(hams)).max(axis=1)
        err = np.abs(got - eigh_unitary_stack(hams, dts)).max(axis=(1, 2))
        assert (err <= 1e-14 * scale).all()
        unitarity = np.linalg.norm(got.conj().swapaxes(1, 2) @ got - np.eye(hams.shape[-1]), axis=(1, 2))
        assert unitarity.max() <= 1e-14

    @pytest.mark.parametrize("m", [1, 3, 4])
    def test_one_slice_above_the_bound_sends_the_stack_to_eigh(self, m):
        rng = np.random.default_rng(m)
        hams = np.array([random_hermitian(m, rng) for _ in range(4)])
        norms = np.abs(hams).sum(axis=1).max(axis=1)
        dts = np.array([0.0, 1e-3, -0.3, 1.01 * _TAYLOR_THETA]) / norms
        np.testing.assert_array_equal(unitary_stack(hams, dts), eigh_unitary_stack(hams, dts))
        # below the bound the same slices are Taylor polynomials
        taylor = unitary_stack(hams[:3], dts[:3])
        assert np.abs(taylor - eigh_unitary_stack(hams[:3], dts[:3])).max() <= 1e-14
        np.testing.assert_array_equal(taylor[0], np.eye(m))

    @pytest.mark.parametrize("m", [1, 3, 4, 8])
    def test_zero_step_gives_the_identity_exactly(self, m):
        rng = np.random.default_rng(m)
        hams = np.array([random_hermitian(m, rng, 100.0) for _ in range(3)])
        np.testing.assert_array_equal(unitary_stack(hams, np.zeros(3)), np.broadcast_to(np.eye(m), hams.shape))


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
    O(0, tau), which a section reports as in_phase_margin; a Custom section
    built on its own frames has V = I and O(0, t) = L(0)^dag L(t)."""

    def test_identity(self):
        grid = TimeGrid.uniform(1.0, 4)
        frames = np.broadcast_to(np.eye(3)[:, :2], (len(grid), 3, 2)).astype(complex)
        path = FramePath(grid, frames)
        zero = Constant(np.zeros((path.n, path.n)))
        assert build_section(Custom(path), path, zero).in_phase_margin == pytest.approx(1.0)

    def test_diagonal(self):
        # O(0, tau) = diag(1, 0.3): the second column tilts towards |3>
        end = np.zeros((3, 2), dtype=complex)
        end[0, 0], end[1, 1], end[2, 1] = 1.0, 0.3, np.sqrt(1 - 0.3**2)
        path = FramePath(TimeGrid.uniform(1.0, 1), np.stack([np.eye(3)[:, :2], end]))
        zero = Constant(np.zeros((path.n, path.n)))
        assert build_section(Custom(path), path, zero).in_phase_margin == pytest.approx(0.3)

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
        # one pairing serves both: the full product is the last prefix
        assert np.array_equal(total, prefixes[-1])
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

    @pytest.mark.parametrize("direction", ["forward", "reverse"])
    @pytest.mark.parametrize("n", [1, 2, 3, 7, 16, 17, 1024, 1025])
    @pytest.mark.parametrize("kind", ["complex_c_order", "time_last_2x2", "real_8x8"])
    def test_in_place_scan_gives_the_level_by_level_bits(self, kind, n, direction):
        rng = np.random.default_rng(n)
        if kind == "real_8x8":
            slices = rng.standard_normal((n, 8, 8)) / 3
        else:
            m = 3 if kind == "complex_c_order" else 2
            hams = np.array([random_hermitian(m, rng) for _ in range(n)])
            slices = unitary_stack(hams, np.full(n, 0.3))
            slices = np.ascontiguousarray(slices) if m == 3 else time_last_copy(slices)
        prefixes = ordered_products(slices, direction, cumulative=True)
        # the prefixes keep the slices' layout (one matrix has no time axis)
        assert prefixes.dtype == slices.dtype and (n == 1 or prefixes.strides == slices.strides)
        np.testing.assert_array_equal(bits(prefixes), bits(level_by_level_scan(slices, direction)))
        # a caller's C-order stack, behind a leading slot as in
        # holonomy.solve_anandan, takes the same bits
        given = np.empty((n + 1, *slices.shape[1:]), slices.dtype)
        assert ordered_products(slices, direction, cumulative=True, out=given[1:]).base is given
        np.testing.assert_array_equal(bits(given[1:]), bits(prefixes))

    @pytest.mark.parametrize("cumulative", [False, True])
    def test_leaves_no_garbage_for_the_cycle_collector(self, cumulative):
        # a cycle per call holds memory until the collector runs, which
        # shows in a run's peak
        slices = unitary_stack(np.array([random_hermitian(4, np.random.default_rng(k)) for k in range(9)]),
                               np.full(9, 0.3))
        gc.collect()
        gc.disable()
        try:
            ordered_products(slices, "forward", cumulative)
            assert gc.collect() == 0
        finally:
            gc.enable()


def level_by_level_scan(slices, direction):
    """Reference: the cumulative pairing with one fresh stack per level, the
    pairs' prefixes copied into its odd positions."""
    def combine(later, earlier):
        return products(later, earlier) if direction == "forward" else products(earlier, later)

    n = slices.shape[0]
    if n < 2:
        return slices.copy()
    even = n // 2 * 2
    inner = level_by_level_scan(combine(slices[1:even:2], slices[0:even:2]), direction)
    out = np.empty_like(slices)
    out[0] = slices[0]
    out[1::2] = inner
    out[2::2] = combine(slices[2::2], out[1 : n - 1 : 2])
    return out


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


def random_complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def row_outer_sum_overlaps(a, b):
    """The formula overlaps used for frames of at most four rows before it
    became products(a^dag, b): the row outer products conj(a_n) b_n summed
    one row at a time."""
    ac = a.conj()
    out = ac[..., 0, :, None] * b[..., 0, None, :]
    for i in range(1, a.shape[-2]):
        out += ac[..., i, :, None] * b[..., i, None, :]
    return out


class TestProducts:
    # both sides of the rule: entrywise sums when k <= 4 and r c <= 8
    @pytest.mark.parametrize("r, k, c", [(1, 1, 1), (2, 2, 2), (3, 2, 2), (3, 3, 2), (2, 4, 2),
                                         (4, 4, 2), (4, 4, 4), (64, 4, 4)])
    @pytest.mark.parametrize("count", [1, 9])
    def test_matches_matmul(self, r, k, c, count):
        rng = np.random.default_rng(100 * r + 10 * k + c)
        a, b = 1e3 * random_complex(rng, (count, r, k)), 1e-2 * random_complex(rng, (count, k, c))
        got = products(a, b)
        assert got.shape == (count, r, c)
        assert np.abs(got - a @ b).max() <= 1e-14 * np.abs(a).max() * np.abs(b).max()

    @pytest.mark.parametrize("shape_a, shape_b", [
        ((3, 2), (5, 2, 2)),
        ((5, 3, 2), (2, 2)),
        ((3, 2), (2, 2)),
        ((64, 1, 2, 2), (1, 64, 2, 2)),
        ((0, 2, 2), (0, 2, 2)),
        ((0, 2, 2), (2, 2)),
    ], ids=["matrix-stack", "stack-matrix", "matrix-matrix", "outer-pairs", "empty",
            "empty-matrix"])
    def test_broadcasts_like_matmul(self, shape_a, shape_b):
        rng = np.random.default_rng(3)
        a, b = random_complex(rng, shape_a), random_complex(rng, shape_b)
        got, want = products(a, b), a @ b
        assert got.shape == want.shape and got.dtype == want.dtype
        if want.size:
            assert np.abs(got - want).max() <= 1e-14 * np.abs(a).max() * np.abs(b).max()

    def test_mixed_real_and_complex_operands(self):
        rng = np.random.default_rng(5)
        a, b = rng.standard_normal((4, 2, 2)), random_complex(rng, (4, 2, 2))
        for x, y in ((a, b), (b, a), (a, a)):
            got = products(x, y)
            assert got.dtype == (x @ y).dtype
            np.testing.assert_allclose(got, x @ y, rtol=0, atol=1e-14 * np.abs(b).max() ** 2)

    @pytest.mark.parametrize("shape_a, shape_b", [((5, 2, 3), (5, 2, 2)), ((5, 8, 5), (5, 4, 8))])
    def test_rejects_mismatched_inner_dimension(self, shape_a, shape_b):
        with pytest.raises(ValueError, match="matching inner dimension"):
            products(np.ones(shape_a), np.ones(shape_b))

    @pytest.mark.parametrize("layout", ["stacks", "frame_vs_stack", "stack_vs_frame"])
    def test_overlaps_bit_identical_to_the_row_outer_sum(self, layout):
        rng = np.random.default_rng(8)
        lead_a = () if layout == "frame_vs_stack" else (6,)
        lead_b = () if layout == "stack_vs_frame" else (6,)
        for n in range(1, 5):
            for m, k in [(m, k) for m in range(1, 5) for k in range(1, 5) if m * k <= 8]:
                a, b = random_complex(rng, (*lead_a, n, m)), random_complex(rng, (*lead_b, n, k))
                np.testing.assert_array_equal(overlaps(a, b), row_outer_sum_overlaps(a, b))


# finite entries, signed zeros among them
signed_entries = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-4, 4, allow_subnormal=False))


def draw_stack(data, shape):
    z = np.empty(shape, dtype=complex)
    z.real = data.draw(arrays(float, shape, elements=signed_entries))
    z.imag = data.draw(arrays(float, shape, elements=signed_entries))
    return z


def is_time_last(x):
    return all(x[:, i, j].flags.c_contiguous for i in range(x.shape[1]) for j in range(x.shape[2]))


class TestTimeLastLayout:
    """Stacks of matrices with at most 4 rows, 4 columns and 8 entries, which
    products sums entrywise, are held time-last (linalg._time_last); every
    kernel gives the same bits on either layout of its operands."""

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_same_bits_on_c_order_and_time_last_operands(self, data):
        n = data.draw(st.integers(1, 12))
        r, k, c = data.draw(st.sampled_from(
            [(r, k, c) for r in range(1, 5) for k in range(1, 5) for c in range(1, 5) if r * c <= 8]))
        m = data.draw(st.integers(1, 2))
        direction = data.draw(st.sampled_from(["forward", "reverse"]))
        square = draw_stack(data, (n, k, k))
        hams = hermitian_part(draw_stack(data, (n, 2, 2)))
        dts = data.draw(arrays(float, n, elements=st.floats(-1, 1)))

        def same_bits(fn, *stacks):
            np.testing.assert_array_equal(bits(fn(*stacks)), bits(fn(*map(time_last_copy, stacks))))

        same_bits(products, draw_stack(data, (n, r, k)), draw_stack(data, (n, k, c)))
        same_bits(overlaps, draw_stack(data, (n, k, r)), draw_stack(data, (n, k, c)))
        same_bits(skew_part, square)
        same_bits(hermitian_part, square)
        same_bits(lambda h: unitary_stack(h, dts), hams)
        slices = draw_stack(data, (n, m, m))
        same_bits(lambda s: ordered_products(s, direction), slices)
        same_bits(lambda s: ordered_products(s, direction, cumulative=True), slices)

    def test_allocator_keeps_larger_matrices_c_order(self):
        for shape in [(5, 2, 2), (5, 4, 2), (5, 2, 4), (5, 4, 1), (3, 5, 2, 2)]:
            x = _time_last(shape)
            assert x.shape == shape and np.moveaxis(x, (-2, -1), (0, 1)).flags.c_contiguous
        # (8, 1) frames meet matmul as the overlaps' 8-row sum
        for shape in [(5, 3, 3), (5, 4, 4), (5, 64, 4), (5, 8, 1), (5, 1, 8)]:
            x = _time_last(shape)
            assert x.shape == shape and x.flags.c_contiguous

    @pytest.mark.parametrize("case", ["i", "ii", "iii", "refutation"])
    def test_pipeline_hands_on_time_last_stacks(self, case, request):
        # a C-order copy anywhere on the way fails this; a sampled run's
        # frames are C-order, as its propagation steps write them
        if case == "refutation":
            spec, psi0 = refutation_instance(7, TimeGrid.uniform(2.0, 256))
            schrod = propagate_frame(spec, psi0, spec.grid)
            section, frames = build_section(PhaseAnchored(), schrod, spec), {}
        else:
            run = request.getfixturevalue(f"case_{case}")
            section, frames = run.section, {"frames": run.schrod.frames}
        gens = generator_path(section)
        stacks = {**frames, "v": section.v, "overlap": section.overlap, "f": section.f,
                  "a_mats": gens.a_mats, "k_mats": gens.k_mats,
                  "ordered_factor": ordered_factor(gens.a_mats, gens.grid, cumulative=True)}
        assert [name for name, x in stacks.items() if not is_time_last(x)] == []
