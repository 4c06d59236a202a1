"""Tests for generated word-spans and the amplified branch-swap check."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nclab import (
    BranchFunction,
    TorusParams,
    amplification_iso_check,
    clock_matrix,
    clock_shift,
    correction_unitary,
    generate_span,
    membership_residual,
    nth_root_branch,
    operator_norm,
    power_membership_residuals,
    random_unitary,
    spectral_decompose,
)
from nclab.operators import Orthonormalizer
from nclab.spans import (
    RANK_TOL,
    SVD_BLOCK,
    WORD_BUDGET,
    _word_levels,
    max_tensor_difference_bound,
)


def _kron3(a, b, c):
    return np.kron(np.kron(a, b), c)


def amplification_iso_oracle(
    A_generators, u, xi, eta, m, L, seed=0, max_a_words=24, max_pairs=200
) -> dict:
    """Brute-force reference for ``amplification_iso_check``: every word is
    the full three-leg Kronecker product (root and base word, correction
    power, matrix unit), and every residual is one ``operator_norm`` on it.
    Same words, same random draws, same span-dimension computation."""
    n = xi.n
    dim = u.shape[0]
    dec = spectral_decompose(u)
    xi_u = nth_root_branch(u, xi, dec=dec)
    eta_u = nth_root_branch(u, eta, dec=dec)
    w = correction_unitary(u, xi, eta, dec=dec)
    ident = np.eye(dim, dtype=complex)
    xi_pows, eta_pows, w_pows = [ident], [ident], [ident]
    for _ in range(n):
        xi_pows.append(xi_pows[-1] @ xi_u)
        eta_pows.append(eta_pows[-1] @ eta_u)
    for _ in range(2 * n):
        w_pows.append(w_pows[-1] @ w)
    u_pows = [ident, u]

    base = list(A_generators)
    alphabet = base + [u] + [g.conj().T for g in base] + [u.conj().T]
    word_basis = Orthonormalizer(max_a_words, dim * dim, RANK_TOL)
    a_words = np.concatenate(list(_word_levels(alphabet, L, word_basis, WORD_BUDGET)))
    units = [np.zeros((m, m), dtype=complex) for _ in range(m * m)]
    for i in range(m):
        for j in range(m):
            units[i * m + j][i, j] = 1.0
    eye_m = np.eye(m, dtype=complex)
    words = [
        (k, ai, j, x)
        for k in range(n)
        for ai in range(len(a_words))
        for j in range(n)
        for x in range(m * m)
    ]

    def domain_matrix(word):
        k, ai, j, x = word
        return _kron3(xi_pows[k] @ a_words[ai], w_pows[j], units[x])

    def image_matrix(word):
        k, ai, j, x = word
        return _kron3(eta_pows[k] @ a_words[ai], w_pows[k + j], units[x])

    def of_product(s, t, root_pows, twist):
        fold, k = divmod(s[0] + t[0], n)
        j = (s[2] + t[2]) % n
        a = u_pows[fold] @ a_words[s[1]] @ a_words[t[1]]
        return _kron3(root_pows[k] @ a, w_pows[twist * k + j], units[s[3]] @ units[t[3]])

    def image_of_adjoint(s):
        k, ai, j, x = s
        ka, ja = (n - k) % n, (n - j) % n
        a = a_words[ai].conj().T
        if k > 0:
            a = u.conj().T @ a
        return _kron3(eta_pows[ka] @ a, w_pows[ka + ja], units[x].conj().T)

    rng = np.random.default_rng(seed)
    total = len(words)
    if total * total <= max_pairs:
        pairs = [(s, t) for s in words for t in words]
    else:
        idx = rng.integers(0, total, size=(max_pairs, 2))
        pairs = [(words[i], words[j]) for i, j in idx]
    mult_res = calc_res = 0.0
    for s, t in pairs:
        ims, imt = image_matrix(s), image_matrix(t)
        ds, dt = domain_matrix(s), domain_matrix(t)
        mult_res = max(mult_res, operator_norm(of_product(s, t, eta_pows, 1) - ims @ imt))
        calc_res = max(calc_res, operator_norm(of_product(s, t, xi_pows, 0) - ds @ dt))
    sample_words = (
        words
        if len(words) <= max_pairs
        else [words[i] for i in rng.integers(0, total, size=max_pairs)]
    )
    adj_res = max(
        operator_norm(image_of_adjoint(s) - image_matrix(s).conj().T) for s in sample_words
    )
    module_res = 0.0
    acting = range(min(len(a_words), 8))
    for ai in acting:
        for s in sample_words[: max(1, max_pairs // len(acting))]:
            k, si, j, x = s
            lhs = _kron3(a_words[ai] @ eta_pows[k] @ a_words[si], w_pows[k + j], units[x])
            rhs = _kron3(a_words[ai], ident, eye_m) @ image_matrix(s)
            module_res = max(module_res, operator_norm(lhs - rhs))

    span_dims = []
    for root_pows, twist in ((xi_pows, 0), (eta_pows, 1)):
        roots = np.matmul(np.array(root_pows[:n])[:, None], a_words[None])
        twists = np.array([w_pows[twist * k : twist * k + n] for k in range(n)])
        legs = np.einsum("kaxy,kjzw->kajxyzw", roots, twists).reshape(n * len(a_words) * n, -1)
        legs_basis = Orthonormalizer(len(legs), legs.shape[1], RANK_TOL)
        span_dims.append(int(legs_basis.extend(legs).sum()) * m * m)
    return {
        "multiplicativity_residual": mult_res,
        "adjoint_residual": adj_res,
        "module_residual": module_res,
        "word_calculus_residual": calc_res,
        "domain_span_dim": span_dims[0],
        "image_span_dim": span_dims[1],
        "word_count": len(words),
        "pair_count": len(pairs),
    }


def two_leg_oracle(A_generators, u, xi, eta, m, L, seed=0, max_pairs=200) -> dict:
    """Two-leg reference for ``amplification_iso_check``: the matrix-unit leg
    factored out, every word the q**2-sized Kronecker product of its root
    leg and its correction power, and every residual one ``operator_norm``
    of a difference of such words, products of words taken as honest q**2-sized
    products.  Same words and random draws.

    Each residual entry is (honest, lower, scale) for the legs A, B, C, D of
    ||A (x) B - C (x) D||: lower = | ||A - C|| ||B|| - ||C|| ||B - D|| | and
    scale = ||A|| ||B|| + ||C|| ||D||.  Span dimensions come from the
    n * |a| * n span rows of q**4 entries."""
    n = xi.n
    dim = u.shape[0]
    dec = spectral_decompose(u)
    xi_u = nth_root_branch(u, xi, dec=dec)
    eta_u = nth_root_branch(u, eta, dec=dec)
    w = correction_unitary(u, xi, eta, dec=dec)
    ident = np.eye(dim, dtype=complex)
    xi_pows, eta_pows, w_pows = [ident], [ident], [ident]
    for _ in range(n):
        xi_pows.append(xi_pows[-1] @ xi_u)
        eta_pows.append(eta_pows[-1] @ eta_u)
    for _ in range(2 * n):
        w_pows.append(w_pows[-1] @ w)
    u_pows = [ident, u]
    base = list(A_generators)
    alphabet = base + [u] + [g.conj().T for g in base] + [u.conj().T]
    word_basis = Orthonormalizer(24, dim * dim, RANK_TOL)
    a_words = np.concatenate(list(_word_levels(alphabet, L, word_basis, WORD_BUDGET)))
    words = [(k, a, j, x) for k in range(n) for a in a_words for j in range(n) for x in range(m**2)]

    def legs(root_pows, twist, k, a, j):
        return root_pows[k] @ a, w_pows[twist * k + j]

    def product(s, t):
        fold, k = divmod(s[0] + t[0], n)
        return k, u_pows[fold] @ s[1] @ t[1], (s[2] + t[2]) % n

    def adjoint(s):
        k, a, j, _ = s
        return (n - k) % n, u.conj().T @ a.conj().T if k else a.conj().T, (n - j) % n

    def entry(lhs, rhs, rhs_legs):
        """(honest, lower, scale) for lhs = (A, B), rhs the honest q**2-sized
        matrix and rhs_legs = (C, D) the legs it stands for."""
        (a, b), (c, d) = lhs, rhs_legs
        honest = operator_norm(np.kron(a, b) - rhs)
        a_c, b_d = operator_norm(a - c), operator_norm(b - d)
        lower = abs(a_c * operator_norm(b) - operator_norm(c) * b_d)
        scale = operator_norm(a) * operator_norm(b) + operator_norm(c) * operator_norm(d)
        return honest, lower, scale

    rng = np.random.default_rng(seed)
    total = len(words)
    if total * total <= max_pairs:
        pairs = [(s, t) for s in words for t in words]
    else:
        idx = rng.integers(0, total, size=(max_pairs, 2))
        pairs = [(words[i], words[j]) for i, j in idx]
    linked = [(s, t) for s, t in pairs if s[3] % m == t[3] // m]

    def products(root_pows, twist):
        out = []
        for s, t in linked:
            (cs, ds), (ct, dt) = legs(root_pows, twist, *s[:3]), legs(root_pows, twist, *t[:3])
            rhs = np.kron(cs, ds) @ np.kron(ct, dt)
            out.append(entry(legs(root_pows, twist, *product(s, t)), rhs, (cs @ ct, ds @ dt)))
        return out

    sample_words = words
    if total > max_pairs:
        sample_words = [words[i] for i in rng.integers(0, total, size=max_pairs)]
    adjoints = []
    for s in sample_words:
        c, d = legs(eta_pows, 1, *s[:3])
        lhs = legs(eta_pows, 1, *adjoint(s))
        adjoints.append(entry(lhs, np.kron(c, d).conj().T, (c.conj().T, d.conj().T)))
    modules = []
    acting = a_words[:8]
    for g in acting:
        for k, b, j, _ in sample_words[: max(1, max_pairs // len(acting))]:
            c, d = legs(eta_pows, 1, k, b, j)
            rhs = np.kron(g, ident) @ np.kron(c, d)
            modules.append(entry(((g @ eta_pows[k]) @ b, d), rhs, (g @ c, d)))

    span_dims = []
    for root_pows, twist in ((xi_pows, 0), (eta_pows, 1)):
        rows = [np.kron(*legs(root_pows, twist, k, a, j)).ravel() for k, a, j, x in words if x == 0]
        span_dims.append(int(Orthonormalizer(len(rows), dim**4, RANK_TOL).extend(rows).sum()) * m * m)
    return {
        "multiplicativity_residual": products(eta_pows, 1),
        "adjoint_residual": adjoints,
        "module_residual": modules,
        "word_calculus_residual": products(xi_pows, 0),
        "domain_span_dim": span_dims[0],
        "image_span_dim": span_dims[1],
        "word_count": len(words),
        "pair_count": len(pairs),
    }


class TestMaxTensorDifferenceBound:
    @pytest.mark.parametrize("where", [0, SVD_BLOCK - 1, SVD_BLOCK + 3, 2 * SVD_BLOCK + 1])
    def test_largest_in_any_block(self, where):
        # B = D = I: each term is ||A - C||, and the largest sits in the first,
        # middle or last block.
        rng = np.random.default_rng(where)
        count = 2 * SVD_BLOCK + 2
        a = rng.standard_normal((count, 5, 5)) + 1j * rng.standard_normal((count, 5, 5))
        c = a + 1e-3 * rng.standard_normal((count, 5, 5))
        c[where] += np.eye(5)
        eye = np.broadcast_to(np.eye(5, dtype=complex), a.shape)
        expected = max(operator_norm(x - y) for x, y in zip(a, c))
        assert operator_norm(a[where] - c[where]) == expected
        bound = max_tensor_difference_bound(lambda i: (a[i], eye[i], c[i], eye[i]), count)
        assert abs(bound - expected) <= 1e-12

    def test_no_items(self):
        assert max_tensor_difference_bound(lambda i: pytest.fail("no legs to form"), 0) == 0.0

    def test_bounds_the_tensor_difference(self):
        rng = np.random.default_rng(7)
        a, b, c, d = rng.standard_normal((4, 20, 3, 3)) + 1j * rng.standard_normal((4, 20, 3, 3))
        terms = [
            operator_norm(a[i] - c[i]) * operator_norm(b[i])
            + operator_norm(c[i]) * operator_norm(b[i] - d[i])
            for i in range(20)
        ]
        bound = max_tensor_difference_bound(lambda i: (a[i], b[i], c[i], d[i]), 20)
        assert abs(bound - max(terms)) <= 1e-12 * max(terms)
        honest = max(operator_norm(np.kron(a[i], b[i]) - np.kron(c[i], d[i])) for i in range(20))
        assert honest <= bound


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

    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        q=st.integers(2, 4),
        m=st.integers(1, 3),
        n=st.sampled_from([2, 3]),
        L=st.integers(1, 3),
        noncommuting=st.booleans(),
        random_root=st.booleans(),
        max_pairs=st.sampled_from([7, 60, 200]),
    )
    @example(seed=1, q=3, m=1, n=3, L=1, noncommuting=False, random_root=False, max_pairs=800)
    @example(seed=2, q=4, m=3, n=3, L=3, noncommuting=True, random_root=False, max_pairs=60)
    @example(seed=3, q=4, m=2, n=2, L=2, noncommuting=True, random_root=True, max_pairs=60)
    def test_matches_brute_force_oracle(
        self, seed, q, m, n, L, noncommuting, random_root, max_pairs
    ):
        rng = np.random.default_rng(seed)
        rep = clock_shift(TorusParams(1, q))
        u = random_unitary(q, rng) if random_root else rep.U
        base = [rep.V] if noncommuting else []
        xi, eta = BranchFunction.random(n, rng), BranchFunction.random(n, rng)
        iso = amplification_iso_check(base, u, xi, eta, m, L, seed=seed, max_pairs=max_pairs)
        oracle = amplification_iso_oracle(base, u, xi, eta, m, L, seed=seed, max_pairs=max_pairs)
        for key, expected in oracle.items():
            if key.endswith("_residual"):
                assert abs(getattr(iso, key) - expected) <= 1e-12, key
            else:
                assert getattr(iso, key) == expected, key

    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        q=st.integers(2, 5),
        m=st.integers(1, 3),
        n=st.sampled_from([2, 3]),
        L=st.integers(1, 3),
        noncommuting=st.booleans(),
        random_root=st.booleans(),
        max_pairs=st.sampled_from([7, 60, 200]),
    )
    @example(seed=949170338, q=2, m=3, n=3, L=3, noncommuting=True, random_root=True, max_pairs=200)
    def test_two_leg_oracle_within_the_bounds(
        self, seed, q, m, n, L, noncommuting, random_root, max_pairs
    ):
        # Each honest two-leg residual lies in [lower, reported], widened by
        # 4 q**2 eps (||A|| ||B|| + ||C|| ||D||) for the roundoff of the oracle's
        # own q**2-sized products and norms: 2,500 random cases reached 1.38
        # q**2 eps (...) on either side (the example above reaches 0.875).
        rng = np.random.default_rng(seed)
        rep = clock_shift(TorusParams(1, q))
        u = random_unitary(q, rng) if random_root else rep.U
        base = [rep.V] if noncommuting else []
        xi, eta = BranchFunction.random(n, rng), BranchFunction.random(n, rng)
        iso = amplification_iso_check(base, u, xi, eta, m, L, seed=seed, max_pairs=max_pairs)
        oracle = two_leg_oracle(base, u, xi, eta, m, L, seed=seed, max_pairs=max_pairs)
        for key, expected in oracle.items():
            if not key.endswith("_residual"):
                assert getattr(iso, key) == expected, key
                continue
            reported = getattr(iso, key)
            for honest, lower, scale in expected:
                slack = 4 * q * q * np.finfo(float).eps * scale
                assert lower - slack <= honest <= reported + slack, key

    def test_amplified_working_set(self):
        # (q, m, L, n) = (12, 4, 4, 2): the three-leg words are 576 x 576, and
        # a stack of every pair's residuals would hold hundreds of MiB.
        u = clock_matrix(1, 12)
        xi = BranchFunction.principal(2)
        eta = BranchFunction.with_flipped_arc(2, -0.1, 0.1)
        tracemalloc.start()
        try:
            iso = amplification_iso_check([], u, xi, eta, 4, 4, seed=12)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20
        assert iso.pair_count == 200
        assert iso.span_dims_equal

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
