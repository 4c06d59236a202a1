"""Word-spans of operator algebras under the Hilbert-Schmidt inner product.

A generated span materializes the algebra spanned by all products of
generators, their adjoints, and the identity up to a word-length cap, as an
orthonormal matrix basis: one breadth-first search keeps each word that
extends the span, through ``operators.Orthonormalizer``.  Membership of any
operator is then an orthogonal projection.  On top of that sits the
amplification-isomorphism check, whose base words come from the same
search: two root branches of the same unitary differ by a correction
unitary whose powers twist the amplified word algebra, and the induced word
map is tested for multiplicativity, adjoint-compatibility,
module-compatibility, and span preservation.  The matrix-unit leg of an
amplified word factors out of every residual exactly (norm 1, or 0 for a
vanishing product of units, whose pairs are skipped), and the rest is
bounded by norms of q-by-q legs, since ||X (x) Y|| = ||X|| ||Y||.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .operators import (
    Orthonormalizer,
    as_operator,
    hs_norm,
    operator_norm,
    spectral_decompose,
)
from .roots import BranchFunction, correction_unitary, nth_root_branch

RANK_TOL = 1e-8
WORD_BUDGET = 200_000
# Capacity of the base-word basis of amplification_iso_check.
MAX_BASE_WORDS = 24
# Rows of the basis Gram matrix formed at a time by the orthonormality check.
GRAM_BLOCK_ROWS = 32
# Residuals per batched SVD in max_tensor_difference_bound.
SVD_BLOCK = 16


@dataclass
class GeneratedAlgebraSpan:
    """Orthonormalized span of generator words.

    ``basis`` holds span_dim matrices, pairwise orthonormal in the
    Hilbert-Schmidt inner product, spanning every enumerated word.
    """

    generators: list[np.ndarray]
    word_cap: int
    basis: np.ndarray
    span_dim: int
    dim: int

    def report(self) -> dict:
        gen_residuals = [membership_residual(self, g) for g in self.generators]
        return {
            "span_dim": self.span_dim,
            "word_cap": self.word_cap,
            "residual_summary": {
                "max_generator_membership": max(gen_residuals) if gen_residuals else 0.0,
                "max_basis_orthonormality_defect": self._orthonormality_defect(),
            },
        }

    def _orthonormality_defect(self) -> float:
        """max |<b_i, b_j> - delta_ij|, from the Gram matrix in blocks of rows."""
        flat = self.basis.reshape(self.span_dim, -1)
        defect = 0.0
        for start in range(0, self.span_dim, GRAM_BLOCK_ROWS):
            gram = flat[start : start + GRAM_BLOCK_ROWS].conj() @ flat.T
            rows = np.arange(len(gram))
            gram[rows, start + rows] -= 1.0
            defect = max(defect, float(np.max(np.abs(gram))))
        return defect


def _word_levels(alphabet, word_cap: int, basis: Orthonormalizer, word_budget: int):
    """Breadth-first levels of words, as stacked matrices: the identity, then
    each kept word times every letter, keeping the products that extend
    ``basis``.  Kept words span what all words span, at work proportional to
    the span dimension.  Stops after ``word_cap`` levels or once nothing new
    is kept.
    """
    letters = np.array(alphabet)
    dim = letters.shape[1]
    level = np.eye(dim, dtype=complex)[None]
    basis.extend(level.reshape(1, -1))
    yield level
    processed = 0
    for _ in range(word_cap):
        if not len(level) or basis.full:
            return
        processed += len(level) * len(letters)
        if processed > word_budget:
            raise ValueError(f"word budget exceeded: more than {word_budget} candidate words")
        candidates = np.matmul(level[:, None], letters[None]).reshape(-1, dim, dim)
        level = candidates[basis.extend(candidates.reshape(len(candidates), -1))]
        yield level


def generate_span(
    generators,
    word_cap: int,
    word_budget: int = WORD_BUDGET,
) -> GeneratedAlgebraSpan:
    """Span of all words of length <= ``word_cap`` over generators, their
    adjoints, and the identity.

    The words are those the breadth-first search reaches, in deterministic
    order: generators in the given order, then their adjoints.  One
    orthonormalizer of capacity dim**2 keeps each word that is independent
    of the words before it (remainder norm at least ``RANK_TOL``).  Raises
    ``ValueError`` once more than ``word_budget`` candidate words are formed.
    """
    generators = [as_operator(g) for g in generators]
    if not generators:
        raise ValueError("need at least one generator")
    dim = generators[0].shape[0]
    for g in generators:
        if g.shape[0] != dim:
            raise ValueError("generators must share one dimension")
    if word_cap < 1:
        raise ValueError("word cap must be at least 1")

    alphabet = generators + [g.conj().T for g in generators]
    basis = Orthonormalizer(dim * dim, dim * dim, RANK_TOL)
    for _ in _word_levels(alphabet, word_cap, basis, word_budget):
        pass

    span = GeneratedAlgebraSpan(
        generators=generators,
        word_cap=word_cap,
        basis=basis.basis.reshape(basis.count, dim, dim),
        span_dim=basis.count,
        dim=dim,
    )
    for i, g in enumerate(generators):
        res = membership_residual(span, g)
        if res > 1e-10:
            raise ArithmeticError(f"generator {i} escaped its own span: residual {res:.3e}")
    return span


def membership_residual(span: GeneratedAlgebraSpan, x) -> float:
    """Relative distance of ``x`` from the span: ||x - P(x)||_F / max(1, ||x||_F)."""
    x = as_operator(x)
    if x.shape[0] != span.dim:
        raise ValueError(f"dimension mismatch: {x.shape[0]} vs span dim {span.dim}")
    v = x.reshape(-1)
    flat = span.basis.reshape(span.span_dim, -1)
    residual = v - flat.T @ (flat @ v.conj()).conj()
    return float(np.linalg.norm(residual)) / max(1.0, hs_norm(x))


def power_membership_residuals(span: GeneratedAlgebraSpan, v, n: int) -> list[float]:
    """Membership residuals of v, v**2, ..., v**(n-1) against a base span.

    A soft numerical witness that the intermediate root powers lie outside
    the base algebra; large residuals are evidence, not proof.
    """
    v = as_operator(v)
    return [
        membership_residual(span, np.linalg.matrix_power(v, i)) for i in range(1, n)
    ]


def multiplier_membership_check(base_words, cover_ops, span) -> list[dict]:
    """Products of base elements with covering elements, tested against a span.

    For every pair (b, c) reports the span-membership residuals of b @ c and
    c @ b; small residuals mean the base algebra multiplies the covering
    span into itself.
    """
    base_words = [as_operator(b) for b in base_words]
    cover_ops = [as_operator(c) for c in cover_ops]
    for x in base_words + cover_ops:
        if x.shape[0] != span.dim:
            raise ValueError(f"dimension mismatch: {x.shape[0]} vs span dim {span.dim}")
    report = []
    for i, b in enumerate(base_words):
        for j, c in enumerate(cover_ops):
            report.append(
                {
                    "base_index": i,
                    "cover_index": j,
                    "left_residual": membership_residual(span, b @ c),
                    "right_residual": membership_residual(span, c @ b),
                }
            )
    return report


@dataclass
class AmplificationIsoReport:
    """Residuals of the branch-swap map on amplified words.

    The map rewrites every root factor from one branch to the other and
    multiplies the amplification leg by the matching power of the
    correction unitary; the four quantities quantify how far that word map
    is from a bijective adjoint-preserving algebra and module isomorphism.
    Each residual is a certified upper bound (``max_tensor_difference_bound``);
    ``pair_count`` also counts the skipped pairs, whose matrix units multiply
    to 0 (residual 0).
    """

    multiplicativity_residual: float
    adjoint_residual: float
    module_residual: float
    word_calculus_residual: float
    correction_order_residual: float
    domain_span_dim: int
    image_span_dim: int
    span_dims_equal: bool
    word_count: int
    pair_count: int


def max_tensor_difference_bound(legs, count: int) -> float:
    """max over i < count of ||A_i - C_i|| ||B_i|| + ||C_i|| ||B_i - D_i||, or 0
    for none: an upper bound on ||A_i (x) B_i - C_i (x) D_i||, since the
    difference is (A_i - C_i) (x) B_i + C_i (x) (B_i - D_i) and
    ||X (x) Y|| = ||X|| ||Y||.  ``legs(i)`` returns the stacks A, B, C, D for
    an index array ``i`` of ``SVD_BLOCK`` items at most; the four largest
    singular values of each block come from one batched SVD.
    """
    worst = 0.0
    for start in range(0, count, SVD_BLOCK):
        norms = _leg_norms(*legs(np.arange(start, min(start + SVD_BLOCK, count))))
        worst = max(worst, float(np.max(norms[0] * norms[1] + norms[2] * norms[3])))
    return worst


def _leg_norms(a, b, c, d) -> np.ndarray:
    # A function of its own, so that a block's legs are freed before the next is formed.
    return np.linalg.svd(np.stack([a - c, b, c, b - d]), compute_uv=False)[..., 0]


def _dagger(stack: np.ndarray) -> np.ndarray:
    return stack.conj().swapaxes(-1, -2)


def amplification_iso_check(
    A_generators,
    u,
    xi: BranchFunction,
    eta: BranchFunction,
    m: int,
    L: int,
    seed: int = 0,
    max_pairs: int = 200,
) -> AmplificationIsoReport:
    """Check the amplified isomorphism induced by swapping two root branches.

    Words carry a normal form (root power k < n, base word a, correction
    power j < n on the amplification leg, m-by-m matrix unit x); the map
    sends the k-th root power of the xi-branch root times a to the same
    power of the eta-branch root times a, twisting the amplification leg by
    the k-th power of the correction unitary w = (xi/eta)(u).

    Reported residuals:
      multiplicativity: T on the folded product of two words versus the
        matrix product of their images (folding uses root**n = u and
        w**n = I, so this is where those identities are exercised);
      adjoint: T on the folded formal adjoint versus the adjoint of the
        image;
      module: prepending a base word versus multiplying the image by it;
      word_calculus: the domain-side folding versus honest matrix products,
        the brute-force oracle for the normal form itself.

    A word is (root**k a) (x) w**(twist*k + j) (x) E_x, twist 0 on the domain
    and 1 on the image, held as index arrays k, a, j, x.  A residual is
    (A (x) B - C (x) D) (x) E with q-by-q root legs A, C and powers B, D of w,
    each side an honest product of legs, and E a unit or 0: E_x E_y = 0 when
    x % m != y // m, and such pairs are skipped.  As ||X (x) E|| = ||X|| ||E||,
    each residual is ``max_tensor_difference_bound`` of its legs.

    Span dimensions of domain and image words are compared for bijectivity.
    As w**n = I, the words span (sum_k root**k A) (x) W (x) M_m with
    W = span{w**j : j < n}: each dimension is two ranks of q*q-entry rows
    times m**2.  The amplification leg is sampled as correction powers
    tensor matrix units, the smallest truncation on which the correction acts.
    """
    if xi.n != eta.n:
        raise ValueError(f"branch orders differ: {xi.n} vs {eta.n}")
    if m < 1:
        raise ValueError("amplification size must be at least 1")
    if L < 1:
        raise ValueError("word cap must be at least 1")
    n = xi.n
    u = as_operator(u)
    dim = u.shape[0]
    dec = spectral_decompose(u)
    ident = np.eye(dim, dtype=complex)

    def powers(x, count):
        pows = [ident]
        for _ in range(count - 1):
            pows.append(pows[-1] @ x)
        return np.array(pows)

    xi_pows, eta_pows = (powers(nth_root_branch(u, f, dec=dec), n) for f in (xi, eta))
    w_pows = powers(correction_unitary(u, xi, eta, dec=dec), 2 * n + 1)
    u_pows = np.array([ident, u])

    base = [as_operator(g) for g in A_generators]
    if any(g.shape[0] != dim for g in base):
        raise ValueError("base generators must share the root unitary's dimension")
    alphabet = base + [u] + [g.conj().T for g in base] + [u.conj().T]
    word_basis = Orthonormalizer(MAX_BASE_WORDS, dim * dim, RANK_TOL)
    a_words = np.concatenate(list(_word_levels(alphabet, L, word_basis, WORD_BUDGET)))

    k, a, j, x = np.indices((n, len(a_words), n, m * m)).reshape(4, -1)
    total = len(k)
    rng = np.random.default_rng(seed)
    if total * total <= max_pairs:
        s, t = np.divmod(np.arange(total * total), total)
    else:
        s, t = rng.integers(0, total, size=(max_pairs, 2)).T
    linked = x[s] % m == x[t] // m
    pair_count, s, t = len(s), s[linked], t[linked]
    sample = rng.integers(0, total, size=max_pairs) if total > max_pairs else np.arange(total)
    acting = a_words[:8]
    module_words = sample[: max(1, max_pairs // len(acting))]
    actor, target = np.divmod(np.arange(len(acting) * len(module_words)), len(module_words))

    def product_legs(root_pows, twist, i):
        """Normal form of s t (root**n = u and w**n = I folded) against the product."""
        ks, kt, js, jt = k[s[i]], k[t[i]], j[s[i]], j[t[i]]
        a_s, a_t = a_words[a[s[i]]], a_words[a[t[i]]]
        fold, kst = np.divmod(ks + kt, n)
        return (
            root_pows[kst] @ (u_pows[fold] @ a_s @ a_t),
            w_pows[twist * kst + (js + jt) % n],
            (root_pows[ks] @ a_s) @ (root_pows[kt] @ a_t),
            w_pows[twist * ks + js] @ w_pows[twist * kt + jt],
        )

    def adjoint_legs(i):
        """Normal form of s† (u† folds into a† when k > 0) against the image's adjoint."""
        ks, js, a_s = k[sample[i]], j[sample[i]], a_words[a[sample[i]]]
        ka, ja = (n - ks) % n, (n - js) % n
        a_adj = _dagger(u_pows)[np.minimum(ks, 1)] @ _dagger(a_s)
        image = eta_pows[ks] @ a_s, w_pows[ks + js]
        return eta_pows[ka] @ a_adj, w_pows[ka + ja], *map(_dagger, image)

    def module_legs(i):
        """Image of the word g s against (g (x) I) times the image of s."""
        ws, g_i = module_words[target[i]], acting[actor[i]]
        root_b, a_b, w_pow = eta_pows[k[ws]], a_words[a[ws]], w_pows[k[ws] + j[ws]]
        return (g_i @ root_b) @ a_b, w_pow, g_i @ (root_b @ a_b), w_pow

    mult_res, calc_res = (
        max_tensor_difference_bound(partial(product_legs, root_pows, twist), len(s))
        for root_pows, twist in ((eta_pows, 1), (xi_pows, 0))
    )
    w_span = Orthonormalizer(n, dim * dim, RANK_TOL)
    w_span.extend(w_pows[:n].reshape(n, -1))
    span_dims = []
    for root_pows in (xi_pows, eta_pows):
        # Rank rows go in one root power at a time, n*|a| rows of q*q entries in all.
        rows = Orthonormalizer(n * len(a_words), dim * dim, RANK_TOL)
        for p in root_pows:
            rows.extend((p @ a_words).reshape(len(a_words), -1))
        span_dims.append(rows.count * w_span.count * m * m)
    dom_dim, img_dim = span_dims
    return AmplificationIsoReport(
        multiplicativity_residual=mult_res,
        adjoint_residual=max_tensor_difference_bound(adjoint_legs, len(sample)),
        module_residual=max_tensor_difference_bound(module_legs, len(actor)),
        word_calculus_residual=calc_res,
        correction_order_residual=operator_norm(w_pows[n] - ident),
        domain_span_dim=dom_dim,
        image_span_dim=img_dim,
        span_dims_equal=dom_dim == img_dim,
        word_count=total,
        pair_count=pair_count,
    )
