"""Tests for generated word-spans and the amplified branch-swap check."""

import tracemalloc

import numpy as np
import pytest

from nclab import (
    BranchFunction,
    TorusParams,
    amplification_iso_check,
    clock_matrix,
    clock_shift,
    correction_unitary,
    generate_span,
    membership_residual,
    power_membership_residuals,
)


class TestGenerateSpan:
    def test_identity_generator(self):
        span = generate_span([np.eye(3)], 5)
        assert span.span_dim == 1

    def test_pauli_pair_full_algebra(self):
        rep = clock_shift(TorusParams(1, 2))
        span = generate_span([rep.U, rep.V], 2)
        assert span.span_dim == 4

    def test_single_clock_diagonal_algebra(self):
        span = generate_span([clock_matrix(1, 5)], 4)
        assert span.span_dim == 5

    def test_basis_orthonormal(self):
        rep = clock_shift(TorusParams(1, 3))
        span = generate_span([rep.U, rep.V], 3)
        flat = span.basis.reshape(span.span_dim, -1)
        gram = flat.conj() @ flat.T
        assert np.max(np.abs(gram - np.eye(span.span_dim))) < 1e-10

    def test_idempotent_regeneration(self):
        rep = clock_shift(TorusParams(1, 2))
        span = generate_span([rep.U, rep.V], 2)
        again = generate_span(list(span.basis), 1)
        assert again.span_dim == span.span_dim

    def test_adjoint_closure(self):
        rep = clock_shift(TorusParams(1, 3))
        span = generate_span([rep.U, rep.V], 4)
        for b in span.basis:
            assert membership_residual(span, b.conj().T) < 1e-8

    @pytest.mark.parametrize("p, q", [(3, 16), (5, 32)])
    def test_clock_shift_words_span_all_matrices(self, p, q):
        # Schwinger (PNAS 1960): the q**2 words U^a V^b are pairwise
        # Hilbert-Schmidt orthogonal, so they span every q x q matrix.
        rep = clock_shift(TorusParams(p, q))
        span = generate_span([rep.U, rep.V], 2 * q)
        assert span.span_dim == q * q
        assert span.report()["residual_summary"]["max_basis_orthonormality_defect"] < 1e-12

    def test_monotone_and_stabilizing(self):
        rep = clock_shift(TorusParams(1, 4))
        dims = [generate_span([rep.U, rep.V], cap).span_dim for cap in range(1, 10)]
        assert all(a <= b for a, b in zip(dims, dims[1:]))
        assert dims[-1] == 16
        assert dims[-1] == dims[-2]  # stabilized at or before dim**2

    def test_word_budget(self):
        rng = np.random.default_rng(30)
        gens = [np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))[0]
                for _ in range(3)]
        with pytest.raises(ValueError, match="word budget"):
            generate_span(gens, 12, word_budget=10)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension"):
            generate_span([np.eye(2), np.eye(3)], 2)

    def test_report_shape(self):
        span = generate_span([clock_matrix(1, 3)], 2)
        report = span.report()
        assert report["span_dim"] == 3
        assert report["word_cap"] == 2
        assert report["residual_summary"]["max_generator_membership"] < 1e-10


    def test_report_allocates_less_than_half_the_basis(self):
        rep = clock_shift(TorusParams(3, 16))
        span = generate_span([rep.U, rep.V], 32)
        tracemalloc.start()
        try:
            summary = span.report()["residual_summary"]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < span.basis.nbytes / 2
        # The whole Gram matrix and whole-basis projections, as formed before.
        flat = span.basis.reshape(span.span_dim, -1)
        defect = np.max(np.abs(flat.conj() @ flat.T - np.eye(span.span_dim)))
        membership = max(
            np.linalg.norm(v - flat.T @ (flat.conj() @ v)) / max(1.0, np.linalg.norm(v))
            for v in (g.reshape(-1) for g in span.generators)
        )
        assert abs(summary["max_basis_orthonormality_defect"] - defect) <= 1e-15
        assert abs(summary["max_generator_membership"] - membership) <= 1e-15


class TestMembershipResidual:
    def test_basis_element(self):
        span = generate_span([clock_matrix(1, 5)], 4)
        for b in span.basis:
            assert membership_residual(span, b) < 1e-12

    def test_identity_in_span(self):
        span = generate_span([clock_matrix(1, 5)], 2)
        assert membership_residual(span, np.eye(5)) < 1e-10

    def test_offdiagonal_fully_outside_diagonal_span(self):
        span = generate_span([clock_matrix(1, 5)], 4)
        x = np.zeros((5, 5), dtype=complex)
        x[0, 1] = x[1, 0] = 1.0
        assert membership_residual(span, x) == pytest.approx(1.0)

    def test_dimension_mismatch(self):
        span = generate_span([np.eye(2)], 1)
        with pytest.raises(ValueError, match="mismatch"):
            membership_residual(span, np.eye(3))


class TestPowerMembership:
    def test_root_powers_escape_base_span(self):
        u = clock_matrix(1, 2)
        span = generate_span([u], 3)  # diagonal algebra of dim 2
        v = clock_shift(TorusParams(1, 2)).V  # exchange matrix, v**2 = I
        residuals = power_membership_residuals(span, v, 2)
        assert len(residuals) == 1
        assert residuals[0] > 0.9

    def test_branch_root_powers_stay_inside(self):
        u = clock_matrix(1, 4)
        span = generate_span([u], 4)
        v = np.diag(np.exp(1j * np.angle(np.diag(u)) / 2))
        residuals = power_membership_residuals(span, v, 2)
        assert max(residuals) < 1e-10


class TestAmplificationIso:
    def test_equal_branches_identity_map(self):
        u = clock_matrix(1, 3)
        xi = BranchFunction.principal(2)
        iso = amplification_iso_check([], u, xi, xi, 2, 3)
        assert iso.multiplicativity_residual < 1e-12
        assert iso.adjoint_residual < 1e-12
        assert iso.module_residual < 1e-12
        assert iso.span_dims_equal

    def test_flipped_branch_two_point_spectrum(self):
        # flip covers only the first eigenangle, so the correction is diag(-1, 1)
        u = np.diag(np.exp(1j * np.array([np.pi / 3, 5 * np.pi / 6])))
        xi = BranchFunction.principal(2)
        eta = BranchFunction.with_flipped_arc(2, 0.5, 1.5)
        w = correction_unitary(u, xi, eta)
        assert np.allclose(np.diag(w), [-1.0, 1.0])
        iso = amplification_iso_check([], u, xi, eta, 2, 3)
        assert iso.multiplicativity_residual < 1e-9
        assert iso.adjoint_residual < 1e-9
        assert iso.module_residual < 1e-9
        assert iso.domain_span_dim == iso.image_span_dim

    def test_noncommuting_base_module_still_compatible(self):
        rep = clock_shift(TorusParams(1, 2))
        xi = BranchFunction.principal(2)
        eta = BranchFunction.with_flipped_arc(2, -0.1, 0.1)
        iso = amplification_iso_check([rep.V], rep.U, xi, eta, 2, 3)
        # the word rewriting genuinely fails for a noncommuting base...
        assert iso.multiplicativity_residual > 0.01
        # ...but the left-module property survives: the correction only
        # touches the amplification leg
        assert iso.module_residual < 1e-8

    def test_word_count_counts_each_power_once(self):
        # clock(3, 11) has 11 distinct powers and words of length <= 5 reach
        # all of them; each is one base word, however roundoff splits equal
        # products of different letter orders.
        u = clock_matrix(3, 11)
        xi = BranchFunction.principal(2)
        eta = BranchFunction.with_flipped_arc(2, -0.1, 0.1)
        iso = amplification_iso_check([], u, xi, eta, 1, 5)
        assert iso.word_count == 2 * 2 * 1 * 11
        assert iso.span_dims_equal

    def test_correction_power_is_identity(self):
        u = clock_matrix(1, 5)
        xi = BranchFunction.principal(3)
        eta = BranchFunction.with_flipped_arc(3, -0.5, 1.0, k=2)
        iso = amplification_iso_check([], u, xi, eta, 2, 2)
        assert iso.correction_order_residual < 1e-12

    def test_word_calculus_oracle(self):
        u = clock_matrix(1, 4)
        xi = BranchFunction.principal(2)
        eta = BranchFunction.with_flipped_arc(2, -0.1, 0.1)
        iso = amplification_iso_check([], u, xi, eta, 2, 3)
        assert iso.word_calculus_residual < 1e-12

    def test_deterministic_given_seed(self):
        u = clock_matrix(1, 4)
        xi = BranchFunction.principal(2)
        eta = BranchFunction.with_flipped_arc(2, -0.1, 0.1)
        a = amplification_iso_check([], u, xi, eta, 2, 3, seed=5)
        b = amplification_iso_check([], u, xi, eta, 2, 3, seed=5)
        assert a == b

    def test_rejects_unequal_orders(self):
        with pytest.raises(ValueError, match="orders differ"):
            amplification_iso_check(
                [], np.eye(2), BranchFunction.principal(2), BranchFunction.principal(3), 2, 2
            )

    def test_rejects_bad_amplification(self):
        with pytest.raises(ValueError, match="amplification"):
            amplification_iso_check(
                [], np.eye(2), BranchFunction.principal(2), BranchFunction.principal(2), 0, 2
            )
