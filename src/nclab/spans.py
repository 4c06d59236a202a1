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
vanishing product of units, whose pairs are skipped), so each residual is
one operator norm at dimension q**2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .operators import (
    Orthonormalizer,
    as_operator,
    hs_norm,
    max_difference_norm,
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
    The matrix-unit leg factors out of each residual exactly; ``pair_count``
    also counts the skipped pairs, whose units multiply to 0 (residual 0).
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
    and 1 on the image.  Each residual is X (x) E with E a matrix unit or 0,
    and ||X (x) E|| = ||X|| ||E||, so it is the norm of the two-leg X, taken
    in batched SVDs.  E_x E_y is a unit when x % m == y // m and 0 otherwise;
    pairs where it is 0 have residual exactly 0 and are skipped.

    Span dimensions of domain and image words are compared for bijectivity.
    The amplification leg is sampled as correction powers tensor matrix
    units, the smallest truncation on which the correction acts.
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
    xi_u = nth_root_branch(u, xi, dec=dec)
    eta_u = nth_root_branch(u, eta, dec=dec)
    w = correction_unitary(u, xi, eta, dec=dec)

    ident = np.eye(dim, dtype=complex)
    xi_pows = [ident]
    eta_pows = [ident]
    w_pows = [ident]
    for _ in range(n):
        xi_pows.append(xi_pows[-1] @ xi_u)
        eta_pows.append(eta_pows[-1] @ eta_u)
    for _ in range(2 * n):
        w_pows.append(w_pows[-1] @ w)
    u_pows = [ident, u]
    correction_order_residual = operator_norm(w_pows[n] - ident)

    base = [as_operator(g) for g in A_generators]
    for g in base:
        if g.shape[0] != dim:
            raise ValueError("base generators must share the root unitary's dimension")
    alphabet = base + [u] + [g.conj().T for g in base] + [u.conj().T]
    word_basis = Orthonormalizer(MAX_BASE_WORDS, dim * dim, RANK_TOL)
    a_words = np.concatenate(list(_word_levels(alphabet, L, word_basis, WORD_BUDGET)))

    words = [(k, a, j, x) for k in range(n) for a in a_words for j in range(n) for x in range(m**2)]

    def word(root_pows, twist, k, a, j):
        """(root**k a) (x) w**(twist*k + j): the word (k, a, j, x) without its unit,
        a Kronecker product formed by broadcasting (np.kron's n-d setup dominates here)."""
        x, y = root_pows[k] @ a, w_pows[twist * k + j]
        return (x[:, None, :, None] * y[None, :, None, :]).reshape(dim * dim, dim * dim)

    def product(s, t):
        """Normal form of s t: root**n = u folds into the base word, w**n = I drops."""
        fold, k = divmod(s[0] + t[0], n)
        return k, u_pows[fold] @ s[1] @ t[1], (s[2] + t[2]) % n

    def adjoint(s):
        """Normal form of s†: root**(n-k), a† with u† folded in when k > 0, w**(n-j)."""
        k, a, j, _ = s
        return (n - k) % n, u.conj().T @ a.conj().T if k else a.conj().T, (n - j) % n

    rng = np.random.default_rng(seed)
    total = len(words)
    if total * total <= max_pairs:
        pairs = [(s, t) for s in words for t in words]
    else:
        idx = rng.integers(0, total, size=(max_pairs, 2))
        pairs = [(words[i], words[j]) for i, j in idx]
    linked = [(s, t) for s, t in pairs if s[3] % m == t[3] // m]

    def products(root_pows, twist):
        for s, t in linked:
            lhs = word(root_pows, twist, *product(s, t))
            yield lhs, word(root_pows, twist, *s[:3]) @ word(root_pows, twist, *t[:3])

    mult_res = max_difference_norm(products(eta_pows, 1))
    calc_res = max_difference_norm(products(xi_pows, 0))

    sample_words = words
    if total > max_pairs:
        sample_words = [words[i] for i in rng.integers(0, total, size=max_pairs)]
    adj_res = max_difference_norm(
        (word(eta_pows, 1, *adjoint(s)), word(eta_pows, 1, *s[:3]).conj().T) for s in sample_words
    )
    acting = [([a @ p for p in eta_pows], np.kron(a, ident)) for a in a_words[:8]]
    module_res = max_difference_norm(
        (word(a_eta_pows, 1, k, b, j), amplified @ word(eta_pows, 1, k, b, j))
        for a_eta_pows, amplified in acting
        for k, b, j, _ in sample_words[: max(1, max_pairs // len(acting))]
    )

    # The matrix-unit leg contributes a full m*m factor to both span dimensions.
    span_dims = []
    for root_pows, twist in ((xi_pows, 0), (eta_pows, 1)):
        legs = [word(root_pows, twist, k, a, j).ravel() for k, a, j, x in words if x == 0]
        legs_basis = Orthonormalizer(len(legs), dim**4, RANK_TOL)
        span_dims.append(int(legs_basis.extend(legs).sum()) * m * m)
    dom_dim, img_dim = span_dims

    return AmplificationIsoReport(
        multiplicativity_residual=mult_res,
        adjoint_residual=adj_res,
        module_residual=module_res,
        word_calculus_residual=calc_res,
        correction_order_residual=correction_order_residual,
        domain_span_dim=dom_dim,
        image_span_dim=img_dim,
        span_dims_equal=dom_dim == img_dim,
        word_count=len(words),
        pair_count=len(pairs),
    )
