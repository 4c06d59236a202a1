"""Tests for the matrix foundation: norms, inner products, spectral calculus."""

from unittest import mock

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nclab import (
    BranchFunction,
    apply_circle_function,
    circle_function_distance,
    clock_matrix,
    hs_inner,
    nth_root_branch,
    operator_norm,
    operators,
    random_unitary,
    shift_matrix,
    spectral_decompose,
    unitarity_defect,
)
from nclab.operators import (
    CUT_WINDOW,
    Orthonormalizer,
    _normalize_angles,
)


class TestOperatorNorm:
    def test_identity(self):
        assert operator_norm(np.eye(3)) == pytest.approx(1.0)

    def test_diagonal_moduli(self):
        assert operator_norm(np.diag([3, -4j])) == pytest.approx(4.0)

    def test_unitary_is_isometry(self):
        rng = np.random.default_rng(5)
        for dim in (2, 7, 16):
            u = random_unitary(dim, rng)
            assert abs(operator_norm(u) - 1.0) < 1e-12

    def test_zero_only_for_zero(self):
        assert operator_norm(np.zeros((4, 4))) == 0.0
        assert operator_norm(1e-30 * np.eye(4)) > 0.0

    def test_submultiplicative(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            a = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
            b = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
            assert operator_norm(a @ b) <= operator_norm(a) * operator_norm(b) * (1 + 1e-10)

    def test_rejects_nonfinite(self):
        bad = np.eye(2, dtype=complex)
        bad[0, 0] = np.nan
        with pytest.raises(ValueError, match="finite"):
            operator_norm(bad)

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError, match="square"):
            operator_norm(np.ones((2, 3)))


EPS = np.finfo(float).eps
# Moduli from 1e-30 to 1e30, and the same or an exact zero.
NONZERO_MODULI = st.floats(-30, 30).map(lambda e: 10.0**e)
MODULI = st.one_of(st.just(0.0), NONZERO_MODULI)


@st.composite
def monomial_matrices(draw, min_dim=1):
    """A random permutation times a diagonal of complex entries, some exactly 0."""
    q = draw(st.integers(min_dim, 64))
    perm = draw(st.permutations(range(q)))
    moduli = np.array(draw(st.lists(MODULI, min_size=q, max_size=q)))
    phases = np.array(draw(st.lists(st.floats(-np.pi, np.pi), min_size=q, max_size=q)))
    a = np.zeros((q, q), dtype=complex)
    a[np.arange(q), perm] = moduli * np.exp(1j * phases)
    return a, perm


class TestMonomialNorm:
    """operator_norm returns max |a_ij| on monomial matrices, without an SVD,
    and the SVD norm on any other matrix."""

    @settings(max_examples=100, deadline=None)
    @given(monomial_matrices())
    def test_monomial_matches_svd_norm(self, drawn):
        a, _ = drawn
        reference = np.linalg.norm(a, 2)
        with mock.patch("numpy.linalg.norm", wraps=np.linalg.norm) as svd_norm:
            value = operator_norm(a)
        svd_norm.assert_not_called()
        assert value == np.abs(a).max()
        assert abs(value - reference) <= 16 * EPS * reference

    @settings(max_examples=100, deadline=None)
    @given(monomial_matrices(min_dim=2), st.data())
    def test_one_extra_entry_takes_the_svd(self, drawn, data):
        a, perm = drawn
        q = len(a)
        # Entry j is made nonzero, and the extra one shares its column.
        j, i = data.draw(st.lists(st.integers(0, q - 1), min_size=2, max_size=2, unique=True))
        a[j, perm[j]] = data.draw(NONZERO_MODULI)
        a[i, perm[j]] = data.draw(NONZERO_MODULI) * np.exp(1j * data.draw(st.floats(-3, 3)))
        reference = np.linalg.norm(a, 2)
        with mock.patch("numpy.linalg.norm", wraps=np.linalg.norm) as svd_norm:
            value = operator_norm(a)
        svd_norm.assert_called_once()
        assert abs(value - reference) <= 16 * EPS * reference

    def test_clock_shift_relations_are_monomial(self):
        u, v = clock_matrix(3, 7), shift_matrix(7)
        diff = u @ v - np.exp(2j * np.pi * 3 / 7) * v @ u
        with mock.patch("numpy.linalg.norm", wraps=np.linalg.norm) as svd_norm:
            assert operator_norm(diff) == np.abs(diff).max()
            operator_norm(np.linalg.matrix_power(u, 7) - np.eye(7))
        svd_norm.assert_not_called()


class TestHsInner:
    def test_identity_trace(self):
        assert hs_inner(np.eye(2), np.eye(2)) == pytest.approx(2.0)

    def test_orthogonal_pauli_pair(self):
        z = np.diag([1.0, -1.0])
        x = np.array([[0, 1], [1, 0]], dtype=complex)
        assert hs_inner(z, x) == pytest.approx(0.0)

    def test_frobenius_square(self):
        a = np.array([[1, 2], [3, 4]], dtype=complex)
        assert hs_inner(a, a) == pytest.approx(30.0)

    def test_conjugate_symmetric(self):
        rng = np.random.default_rng(7)
        a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        b = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        assert hs_inner(a, b) == pytest.approx(np.conj(hs_inner(b, a)))

    def test_positive_definite(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            a = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
            val = hs_inner(a, a)
            assert abs(val.imag) < 1e-12
            assert val.real > 0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            hs_inner(np.eye(2), np.eye(3))


# Phases a diagonal draw repeats: both sides of the cut at +-pi, the window's
# edge, and the wraparound pair of test_wraparound_cluster.
EDGE_PHASES = st.sampled_from([np.pi, -np.pi, np.pi - CUT_WINDOW, -np.pi + 1e-10, 0.0])


@st.composite
def diagonal_unitaries(draw):
    """clock(p, q) for |p| <= 2**53, coprime or not, or a diagonal unitary
    whose entries repeat a few drawn phases."""
    q = draw(st.integers(1, 128))
    if draw(st.booleans()):
        return clock_matrix(draw(st.integers(-(2**53), 2**53)), q)
    phases = draw(st.lists(EDGE_PHASES | st.floats(-np.pi, np.pi), min_size=1, max_size=6))
    picks = draw(st.lists(st.integers(0, len(phases) - 1), min_size=q, max_size=q))
    return np.diag(np.exp(1j * np.array(phases)[picks]))


class TestDiagonalSchurForm:
    """A diagonal unitary is decomposed without Schur, bitwise as Schur's path
    decomposes it: the Schur path, forced, stays the reference."""

    @settings(max_examples=150, deadline=None)
    @given(diagonal_unitaries())
    @example(np.diag(np.exp(1j * np.array([np.pi, -np.pi + 1e-10, 0.0]))))
    @example(clock_matrix(2**53, 128))
    @example(clock_matrix(-(2**53), 96))
    def test_matches_the_schur_path(self, u):
        with mock.patch.object(scipy.linalg, "schur", wraps=scipy.linalg.schur) as schur:
            d = spectral_decompose(u)
            schur.assert_not_called()
            with mock.patch.object(operators, "_is_diagonal", return_value=False):
                reference = spectral_decompose(u)
            schur.assert_called_once()
        assert np.array_equal(d.angles, reference.angles)
        assert np.array_equal(d.vectors, reference.vectors)
        assert d.clusters == reference.clusters


class TestSpectralDecompose:
    def test_already_diagonal(self):
        d = spectral_decompose(np.diag([1.0, 1j, -1.0]))
        assert np.allclose(d.angles, [0.0, np.pi / 2, np.pi])
        # eigenvectors are the standard basis up to phase
        assert np.allclose(np.abs(d.vectors), np.eye(3))

    def test_rotation_angles(self):
        phi = np.pi / 3
        rot = np.array([[np.cos(phi), -np.sin(phi)], [np.sin(phi), np.cos(phi)]])
        d = spectral_decompose(rot)
        assert np.allclose(d.angles, [-phi, phi])

    def test_identity_single_cluster(self):
        d = spectral_decompose(np.eye(4))
        assert np.allclose(d.angles, 0.0)
        assert len(d.clusters) == 1
        assert sorted(d.clusters[0]) == [0, 1, 2, 3]

    def test_minus_pi_maps_to_plus_pi(self):
        d = spectral_decompose(np.diag([-1.0 + 0j]))
        assert d.angles[0] == pytest.approx(np.pi)

    @pytest.mark.parametrize(
        "u",
        [
            clock_matrix(1, 16),
            shift_matrix(8),
            shift_matrix(128),
            clock_matrix(1, 8),
            shift_matrix(16),
        ],
        ids=["clock16", "shift8", "shift128", "clock8", "shift16"],
    )
    def test_eigenvalue_minus_one_sits_at_plus_pi(self, u):
        # Roundoff puts -1 within an ulp of -pi for some of these and of +pi
        # for others; the principal square root must be +i for all of them.
        d = spectral_decompose(u)
        assert d.angles[-1] == np.pi
        v = d.vectors[:, -1]
        assert np.allclose(u @ v, -v, atol=1e-12)
        root = nth_root_branch(u, BranchFunction.principal(2))
        assert np.allclose(root @ v, 1j * v, atol=1e-12)

    def test_cut_window_edges(self):
        angles = np.array([-np.pi, -np.pi + CUT_WINDOW, np.pi - CUT_WINDOW, np.pi])
        assert np.all(_normalize_angles(angles) == np.pi)
        outside = np.array([-np.pi + 2 * CUT_WINDOW, np.pi - 2 * CUT_WINDOW, 0.0])
        assert np.array_equal(_normalize_angles(outside), outside)

    @pytest.mark.parametrize("p, q", [(13, 14), (13, 16), (83, 106)])
    def test_clock_minus_one_on_the_plus_pi_side(self, p, q):
        # A clock built as omega**k puts these -1 entries 10 to 81 ulps above -pi.
        d = spectral_decompose(clock_matrix(p, q))
        assert np.count_nonzero(d.angles == np.pi) == 1

    def test_every_even_clock_has_minus_one_at_pi(self):
        # p is odd, so entry q/2 is the -1 of clock(p, q).
        for q in range(2, 129, 2):
            for p in range(1, q, 2):
                if np.gcd(p, q) == 1:
                    angle = np.angle(clock_matrix(p, q)[q // 2, q // 2])
                    assert abs(angle - np.pi) <= np.spacing(np.pi)

    def test_reconstruction_random(self):
        rng = np.random.default_rng(9)
        for dim in (2, 3, 8, 33, 64):
            u = random_unitary(dim, rng)
            d = spectral_decompose(u)
            assert operator_norm(d.reconstruct() - u) < 1e-8
            assert operator_norm(d.vectors.conj().T @ d.vectors - np.eye(dim)) < 1e-8

    @pytest.mark.parametrize("dim", [2, 3, 8, 33, 64])
    def test_singleton_phase_convention(self, dim):
        # Each simple eigenvector's first entry of modulus >= 1e-10 is real and
        # positive, and v v† is the eigenprojection, here from numpy's eig.
        u = random_unitary(dim, np.random.default_rng(dim))
        d = spectral_decompose(u)
        values, vectors = np.linalg.eig(u)
        singles = [idx[0] for idx in d.clusters if len(idx) == 1]
        assert len(singles) == dim
        for j in singles:
            v = d.vectors[:, j]
            lead = v[np.flatnonzero(np.abs(v) >= 1e-10)[0]]
            assert lead.real > 0 and abs(lead.imag) <= EPS * lead.real
            w = vectors[:, np.argmin(np.abs(values - np.exp(1j * d.angles[j])))]
            w = w / np.linalg.norm(w)
            assert operator_norm(np.outer(v, v.conj()) - np.outer(w, w.conj())) < 1e-12

    def test_deterministic(self):
        rng = np.random.default_rng(10)
        u = random_unitary(12, rng)
        d1 = spectral_decompose(u)
        d2 = spectral_decompose(u.copy())
        assert np.array_equal(d1.angles, d2.angles)
        assert np.array_equal(d1.vectors, d2.vectors)

    def test_rejects_nonunitary(self):
        with pytest.raises(ValueError, match="not unitary"):
            spectral_decompose(2.0 * np.eye(3))

    def test_unitarity_defect_measured(self):
        assert unitarity_defect(np.eye(5)) == pytest.approx(0.0)
        assert unitarity_defect(1.1 * np.eye(2)) == pytest.approx(0.21)

    def test_wraparound_cluster(self):
        eps = 1e-10
        u = np.diag(np.exp(1j * np.array([np.pi, -np.pi + eps, 0.0])))
        d = spectral_decompose(u)
        cluster_sizes = sorted(len(c) for c in d.clusters)
        assert cluster_sizes == [1, 2]

    @pytest.mark.parametrize("q", [2, 3, 5])
    @pytest.mark.parametrize("seed", [None, 0, 1])
    def test_degenerate_basis_matches_qr_oracle(self, q, seed):
        # clock (x) I_3 in a rotated basis: every eigenvalue is threefold.
        dim = 3 * q
        w = np.eye(dim) if seed is None else random_unitary(dim, np.random.default_rng(seed))
        d = spectral_decompose(w @ np.kron(clock_matrix(1, q), np.eye(3)) @ w.conj().T)
        assert sorted(len(c) for c in d.clusters) == [3] * q
        for idx in d.clusters:
            vc = d.vectors[:, idx]
            proj = vc @ vc.conj().T
            ranks = [0] + [np.linalg.matrix_rank(proj[:, : j + 1], tol=1e-10) for j in range(dim)]
            cols = np.flatnonzero(np.diff(ranks))
            qmat, r = np.linalg.qr(proj[:, cols])
            qmat = qmat * (np.diag(r) / np.abs(np.diag(r)))  # phases with diag(R) > 0
            assert np.max(np.abs(vc - qmat)) < 1e-12


class TestOrthonormalizer:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        length=st.integers(1, 10),
        recipe=st.lists(st.sampled_from(["new", "repeat", "combine", "near", "zero"]), max_size=24),
        split=st.integers(0, 24),
        capacity=st.integers(1, 24),
    )
    # a row near the span of a row of its own block, both past the first block
    @example(seed=0, length=3, recipe=["new", "near"], split=1, capacity=3)
    def test_kept_rows_match_rank_oracle(self, seed, length, recipe, split, capacity):
        rng = np.random.default_rng(seed)
        rows = [rng.standard_normal(length) + 1j * rng.standard_normal(length)]
        for kind in recipe:
            if kind == "new":
                rows.append(rng.standard_normal(length) + 1j * rng.standard_normal(length))
            elif kind == "repeat":
                rows.append(rows[rng.integers(len(rows))])
            elif kind == "combine":
                rows.append(rng.standard_normal(len(rows)) @ np.array(rows))
            elif kind == "near":
                # about 1e-6 off the span so far: one orthogonalization pass
                # would leave it about 1e-10 from orthogonal to the kept rows
                noise = rng.standard_normal(length) + 1j * rng.standard_normal(length)
                rows.append(rng.standard_normal(len(rows)) @ np.array(rows) + 1e-6 * noise)
            else:
                rows.append(np.zeros(length))
        block = np.array(rows, dtype=complex)
        basis = Orthonormalizer(capacity, length, 1e-8)
        kept = np.concatenate([basis.extend(block[:split]), basis.extend(block[split:])])

        ranks = [0] + [np.linalg.matrix_rank(block[: i + 1]) for i in range(len(block))]
        expected = np.diff(ranks) > 0
        expected &= np.cumsum(expected) <= capacity
        assert np.array_equal(kept, expected)
        kept_rows = basis.basis
        assert np.max(np.abs(kept_rows.conj() @ kept_rows.T - np.eye(basis.count))) <= 1e-12
        # Every row lies in the span of the kept rows, up to the last one
        # kept when the capacity cuts the basis short.
        covered = block if ranks[-1] <= capacity else block[: np.flatnonzero(kept)[-1] + 1]
        remainder = covered - (covered @ kept_rows.conj().T) @ kept_rows
        assert np.max(np.linalg.norm(remainder, axis=1)) <= 1e-10 * max(
            1.0, np.max(np.linalg.norm(covered, axis=1))
        )


class TestApplyCircleFunction:
    def test_identity_function(self):
        rng = np.random.default_rng(11)
        u = random_unitary(9, rng)
        d = spectral_decompose(u)
        back = apply_circle_function(d, lambda a: np.exp(1j * a))
        assert operator_norm(back - u) < 1e-8

    def test_constant_function(self):
        d = spectral_decompose(np.diag([1j, -1j, 1.0]))
        out = apply_circle_function(d, lambda a: 2.5)
        assert np.allclose(out, 2.5 * np.eye(3))

    def test_principal_half_angle(self):
        d = spectral_decompose(np.diag([1.0, -1.0]))
        out = apply_circle_function(d, lambda a: np.exp(1j * a / 2))
        assert np.allclose(out, np.diag([1.0, 1j]))

    def test_pointwise_product(self):
        rng = np.random.default_rng(12)
        u = random_unitary(10, rng)
        d = spectral_decompose(u)
        g1 = lambda a: np.exp(2j * a)
        g2 = lambda a: 1.0 + 0.5 * np.cos(a)
        lhs = apply_circle_function(d, lambda a: g1(a) * g2(a))
        rhs = apply_circle_function(d, g1) @ apply_circle_function(d, g2)
        assert operator_norm(lhs - rhs) < 1e-9

    def test_rejects_nonfinite_values(self):
        d = spectral_decompose(np.diag([1.0, -1.0]))
        with pytest.raises(ValueError, match="finite"):
            apply_circle_function(d, lambda a: np.where(a != 0, 1.0, np.inf))


class TestCircleFunctionDistance:
    def test_function_of_u_is_close(self):
        rng = np.random.default_rng(13)
        u = random_unitary(8, rng)
        d = spectral_decompose(u)
        f = apply_circle_function(d, lambda a: np.exp(3j * a) + 0.2)
        assert circle_function_distance(d, f) < 1e-10

    def test_offdiagonal_on_degenerate_space(self):
        d = spectral_decompose(np.eye(2))
        x = np.array([[0, 1], [1, 0]], dtype=complex)
        assert circle_function_distance(d, x) == pytest.approx(1.0)

    def test_nonscalar_diagonal_on_degenerate_space(self):
        d = spectral_decompose(np.eye(2))
        assert circle_function_distance(d, np.diag([1.0, -1.0])) == pytest.approx(1.0)
