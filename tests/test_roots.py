"""Tests for branch roots, general roots, and root residual reports."""

from bisect import bisect_right

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nclab import (
    BranchFunction,
    branch_quotient,
    clock_matrix,
    correction_unitary,
    general_root_search,
    nth_root_branch,
    operator_norm,
    random_unitary,
    root_residual,
    spectral_decompose,
)
from nclab.roots import TOL_ROOT


class TestBranchFunction:
    def test_principal_square_root_angles(self):
        b = BranchFunction.principal(2)
        assert b.root_angle(0.0) == pytest.approx(0.0)
        assert b.root_angle(np.pi) == pytest.approx(np.pi / 2)
        assert b.root_angle(-np.pi / 2) == pytest.approx(-np.pi / 4)

    def test_constant_branch(self):
        b = BranchFunction.constant(2, 1)
        assert b.root_angle(np.pi) == pytest.approx(3 * np.pi / 2)

    def test_power_identity_on_samples(self):
        rng = np.random.default_rng(20)
        for n in (2, 3, 4, 5):
            b = BranchFunction.random(n, rng)
            for a in rng.uniform(-np.pi, np.pi, size=50):
                z = np.exp(1j * a)
                assert abs(b.root_value(a) ** n - z) < 1e-12

    def test_boundary_belongs_to_starting_arc(self):
        b = BranchFunction(2, ((-np.pi, 0.5, 0), (0.5, np.pi, 1)))
        assert b.branch_index(0.5) == 1
        assert b.branch_index(0.5 - 1e-12) == 0

    def test_rejects_gap(self):
        with pytest.raises(ValueError, match="partition"):
            BranchFunction(2, ((-np.pi, 0.0, 0), (0.5, np.pi, 1)))

    def test_rejects_bad_index(self):
        with pytest.raises(ValueError, match="branch index"):
            BranchFunction.constant(2, 2)

    def test_rejects_order_one(self):
        with pytest.raises(ValueError, match="order"):
            BranchFunction.principal(1)

    def test_json_round_trip(self):
        b = BranchFunction.with_flipped_arc(3, -0.25, 1.5, k=2)
        again = BranchFunction.from_json(b.to_json())
        assert again == b

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 5),
        angles=st.lists(st.floats(-np.pi, np.pi), max_size=8),
    )
    def test_array_angles_match_scalar_angles(self, seed, n, angles):
        b = BranchFunction.random(n, np.random.default_rng(seed))
        starts = [s for s, _, _ in b.arcs]
        below = [np.nextafter(s, -np.inf) for s in starts]
        points = np.array(starts + below + [-np.pi, np.pi] + angles)
        assert np.array_equal(b.root_angle(points), [b.root_angle(float(a)) for a in points])
        for a in points:
            arc = b.arcs[bisect_right(starts, a) - 1]  # index -1 wraps across the cut
            assert b.branch_index(float(a)) == arc[2]

    def test_flipped_arc_localized(self):
        b = BranchFunction.with_flipped_arc(2, -0.1, 0.1)
        assert b.branch_index(0.0) == 1
        assert b.branch_index(1.0) == 0
        assert b.branch_index(np.pi) == 0


class TestNthRootBranch:
    def test_scalar_one(self):
        v = nth_root_branch(np.array([[1.0 + 0j]]), BranchFunction.principal(2))
        assert np.allclose(v, [[1.0]])

    def test_scalar_minus_one_both_branches(self):
        u = np.array([[-1.0 + 0j]])
        principal = nth_root_branch(u, BranchFunction.principal(2))
        flipped = nth_root_branch(u, BranchFunction.constant(2, 1))
        assert np.allclose(principal, [[1j]])
        assert np.allclose(flipped, [[-1j]])

    def test_clock_principal_half_angles(self):
        u = clock_matrix(1, 4)
        v = nth_root_branch(u, BranchFunction.principal(2))
        expected = np.diag([1, np.exp(1j * np.pi / 4), 1j, np.exp(-1j * np.pi / 4)])
        assert operator_norm(v - expected) < 1e-12

    def test_root_identity_random(self):
        rng = np.random.default_rng(21)
        for _ in range(15):
            dim = int(rng.integers(2, 65))
            n = int(rng.choice([2, 3, 4]))
            u = random_unitary(dim, rng)
            b = BranchFunction.random(n, rng)
            v = nth_root_branch(u, b)
            assert operator_norm(np.linalg.matrix_power(v, n) - u) < 1e-9

    def test_branch_roots_commute(self):
        rng = np.random.default_rng(22)
        u = random_unitary(12, rng)
        dec = spectral_decompose(u)
        v1 = nth_root_branch(u, BranchFunction.random(2, rng), dec=dec)
        v2 = nth_root_branch(u, BranchFunction.random(2, rng), dec=dec)
        assert operator_norm(v1 @ v2 - v2 @ v1) < 1e-9

    def test_branch_root_in_generated_algebra(self):
        rng = np.random.default_rng(23)
        u = random_unitary(10, rng)
        b = BranchFunction.random(3, rng)
        report = root_residual(nth_root_branch(u, b), u, 3)
        assert report.generated_algebra_residual <= TOL_ROOT

    def test_two_roots_differ_by_correction(self):
        rng = np.random.default_rng(24)
        u = random_unitary(16, rng)
        dec = spectral_decompose(u)
        xi = BranchFunction.random(2, rng)
        eta = BranchFunction.random(2, rng)
        lhs = nth_root_branch(u, xi, dec=dec) @ nth_root_branch(u, eta, dec=dec).conj().T
        w = correction_unitary(u, xi, eta, dec=dec)
        assert operator_norm(lhs - w) < 1e-9

    def test_correction_values_are_roots_of_unity(self):
        xi = BranchFunction.principal(3)
        eta = BranchFunction.constant(3, 2)
        g = branch_quotient(xi, eta)
        for a in np.linspace(-3.0, 3.0, 17):
            assert abs(g(a) ** 3 - 1.0) < 1e-12

    def test_quotient_rejects_unequal_orders(self):
        with pytest.raises(ValueError, match="orders differ"):
            branch_quotient(BranchFunction.principal(2), BranchFunction.principal(3))


class TestGeneralRootSearch:
    def test_exchange_mixer_on_identity(self):
        x = np.array([[0, 1], [1, 0]], dtype=complex)
        v = general_root_search(np.eye(2), 2, {0: x})
        assert np.allclose(v, x)
        assert np.allclose(v @ v, np.eye(2))

    def test_sign_mixer_on_identity(self):
        z = np.diag([1.0, -1.0]).astype(complex)
        v = general_root_search(np.eye(2), 2, {0: z})
        assert np.allclose(v, z)

    def test_rotation_mixer_on_minus_identity(self):
        rot = np.array([[0, -1], [1, 0]], dtype=complex)
        v = general_root_search(-np.eye(2), 2, {0: rot})
        assert operator_norm(v @ v - (-np.eye(2))) < 1e-12

    def test_default_is_principal(self):
        u = clock_matrix(1, 4)
        v = general_root_search(u, 2)
        assert operator_norm(v - nth_root_branch(u, BranchFunction.principal(2))) < 1e-12

    def test_wrong_block_dimension(self):
        with pytest.raises(ValueError, match="dimension"):
            general_root_search(np.eye(3), 2, {0: np.eye(2)})

    def test_wrong_block_power(self):
        z = np.diag([1.0, -1.0]).astype(complex)
        with pytest.raises(ValueError, match="deviates"):
            general_root_search(-np.eye(2), 2, {0: z})  # z**2 = I, not -I

    def test_unknown_cluster(self):
        with pytest.raises(ValueError, match="unknown clusters"):
            general_root_search(np.eye(2), 2, {3: np.eye(2)})

    def test_nonscalar_mixer_leaves_generated_algebra(self):
        x = np.array([[0, 1], [1, 0]], dtype=complex)
        v = general_root_search(np.eye(2), 2, {0: x})
        report = root_residual(v, np.eye(2), 2)
        assert report.generated_algebra_residual > TOL_ROOT
        assert report.generated_algebra_residual > 0.9


class TestRootResidual:
    def test_principal_clock_root(self):
        u = clock_matrix(1, 4)
        v = nth_root_branch(u, BranchFunction.principal(2))
        report = root_residual(v, u, 2)
        assert report.residual < 1e-12
        assert report.generated_algebra_residual <= TOL_ROOT

    def test_exchange_root_of_identity(self):
        x = np.array([[0, 1], [1, 0]], dtype=complex)
        report = root_residual(x, np.eye(2), 2)
        assert report.residual == 0.0
        assert report.generated_algebra_residual > TOL_ROOT

    def test_degenerate_order_one(self):
        rng = np.random.default_rng(25)
        u = random_unitary(6, rng)
        assert root_residual(u, u, 1).residual == 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            root_residual(np.eye(2), np.eye(3), 2)
