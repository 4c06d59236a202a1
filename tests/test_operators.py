"""Tests for the matrix foundation: norms, inner products, spectral calculus."""

import numpy as np
import pytest

from nclab import (
    apply_circle_function,
    circle_function_distance,
    hs_inner,
    operator_norm,
    random_unitary,
    spectral_decompose,
    unitarity_defect,
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

    def test_reconstruction_random(self):
        rng = np.random.default_rng(9)
        for dim in (2, 3, 8, 33, 64):
            u = random_unitary(dim, rng)
            d = spectral_decompose(u)
            assert operator_norm(d.reconstruct() - u) < 1e-8
            assert operator_norm(d.vectors.conj().T @ d.vectors - np.eye(dim)) < 1e-8

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
