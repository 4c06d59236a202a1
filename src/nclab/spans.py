"""Word-spans of operator algebras under the Hilbert-Schmidt inner product.

A generated span materializes the algebra spanned by all products of
generators, their adjoints, and the identity up to a word-length cap, as an
orthonormal matrix basis: one breadth-first search keeps each word that
extends the span, through ``operators.Orthonormalizer``.  Membership of any
operator is then an orthogonal projection.  On top of that sits the
amplification-isomorphism check: two root branches of the same unitary u
differ by a correction unitary whose powers twist the amplified word
algebra, and the induced word map is tested for multiplicativity,
adjoint-compatibility, module-compatibility, and span preservation.  The
matrix-unit leg of an amplified word factors out of every residual exactly
(norm 1, or 0 for a vanishing product of units, whose pairs are skipped).
Every other leg (root powers, base words u**a, correction powers) is a
function of u, held as the length-q vector of its eigenvalues in u's
eigenbasis V, and each residual is bounded by maxima over those vectors
times (1 + δ)**2, δ = ||V†V - I||, since ||X (x) Y|| = ||X|| ||Y||.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .operators import (
    CLUSTER_GAP,
    Orthonormalizer,
    as_operator,
    cluster_indices,
    hs_norm,
    spectral_decompose,
)
from .roots import BranchFunction, branch_quotient

RANK_TOL = 1e-8
WORD_BUDGET = 200_000
# Most base words u**a that amplification_iso_check takes.
MAX_BASE_WORDS = 24
# Rows of the basis Gram matrix formed at a time by the orthonormality check.
GRAM_BLOCK_ROWS = 32


@dataclass
class GeneratedAlgebraSpan:
    """Orthonormalized span of generator words.

    ``basis`` holds span_dim matrices, pairwise orthonormal in the
    Hilbert-Schmidt inner product, spanning every enumerated word.
    ``max_generator_membership`` is the largest membership residual of a
    generator, measured once when the span is built.
    """

    generators: list[np.ndarray]
    word_cap: int
    basis: np.ndarray
    span_dim: int
    dim: int
    max_generator_membership: float = 0.0

    def orthonormality_defect(self) -> float:
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
    The span records the largest membership residual of a generator.
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
    span.max_generator_membership = max(membership_residual(span, g) for g in generators)
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


@dataclass
class AmplificationIsoReport:
    """Residuals of the branch-swap map on amplified words.

    The map rewrites every root factor from one branch to the other and
    multiplies the amplification leg by the matching power of the
    correction unitary; the four quantities quantify how far that word map
    is from a bijective adjoint-preserving algebra and module isomorphism.
    Each residual is a certified upper bound (see ``amplification_iso_check``);
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
    word_count: int
    pair_count: int


def _tensor_difference_bound(a, b, c, d) -> float:
    """max over rows i of max|a_i - c_i| max|b_i| + max|c_i| max|b_i - d_i|,
    or 0 for no rows: each row holds the eigenvalues of one leg."""
    if not len(a):
        return 0.0
    sup = [np.abs(x).max(axis=1) for x in (a - c, b, c, b - d)]
    return float(np.max(sup[0] * sup[1] + sup[2] * sup[3]))


def amplification_iso_check(
    u,
    xi: BranchFunction,
    eta: BranchFunction,
    m: int,
    L: int,
    seed: int = 0,
    max_pairs: int = 200,
) -> AmplificationIsoReport:
    """Check the amplified isomorphism induced by swapping two root branches
    of the unitary ``u`` over the commutative base it generates.

    Words carry a normal form (root power k < n, base word u**a, correction
    power j < n on the amplification leg, m-by-m matrix unit x); the map
    sends the k-th root power of the xi-branch root times u**a to the same
    power of the eta-branch root times u**a, twisting the amplification leg
    by the k-th power of the correction unitary w = (xi/eta)(u).

    Reported residuals:
      multiplicativity: T on the folded product of two words versus the
        matrix product of their images (folding uses root**n = u and
        w**n = I, so this is where those identities are exercised);
      adjoint: T on the folded formal adjoint versus the adjoint of the
        image;
      module: prepending a base word versus multiplying the image by it;
      word_calculus: the domain-side folding versus honest products, the
        check of the normal form itself.

    A word is (root**k u**a) (x) w**(twist*k + j) (x) E_x, twist 0 on the
    domain and 1 on the image, held as index arrays k, a, j, x.  A residual is
    (A (x) B - C (x) D) (x) E with E a unit or 0: E_x E_y = 0 when
    x % m != y // m, and such pairs are skipped.  Every leg A, B, C, D is
    V diag(.) V† in the eigenbasis V of ``u``, so it is held as a length-q
    vector of eigenvalues: products are elementwise and adjoints conjugates.
    With ||X (x) Y|| = ||X|| ||Y|| and ||V diag(x) V†|| <= (1 + δ) max|x|,
    δ = ||V†V - I|| (exactly 0 on clock bases), each residual is
    (1 + δ)**2 max over items of max|a - c| max|b| + max|c| max|b - d|.
    The bound holds for the legs as functions of the decomposition, which
    reproduces ``u`` only within its reconstruction residual.

    The base words are u**a for a = 0, 1, -1, ..., L, -L, at most
    ``MAX_BASE_WORDS`` and at most one per distinct eigenvalue of u.  As
    w**n = I, the words span (sum_k root**k A) (x) W (x) M_m with
    W = span{w**j : j < n}, whose dimensions, compared for bijectivity, are
    counted: powers in a contiguous run of exponents span min(run, distinct
    values) dimensions (Vandermonde), and root**k u**a = root**(k + n a) runs
    over n*|a| exponents of the root values, clustered at ``CLUSTER_GAP / n``.
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
    dec = spectral_decompose(u)
    scale = 1.0 + dec.basis_defect
    lam = dec.eigenvalues()
    xi_pows, eta_pows = (f.root_value(dec.angles) ** np.arange(n)[:, None] for f in (xi, eta))
    w_pows = branch_quotient(xi, eta)(dec.angles) ** np.arange(2 * n + 1)[:, None]
    u_pows = lam ** np.arange(2)[:, None]

    # A contiguous run of at most MAX_BASE_WORDS exponents needs none past this.
    top = min(L, MAX_BASE_WORDS // 2)
    exponents = np.array([0] + [e * sign for e in range(1, top + 1) for sign in (1, -1)])
    a_words = lam ** exponents[: min(MAX_BASE_WORDS, len(dec.clusters)), None]

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

    def product_bound(root_pows, twist):
        """Normal form of s t (root**n = u and w**n = I folded) against the product."""
        ks, kt, js, jt = k[s], k[t], j[s], j[t]
        a_s, a_t = a_words[a[s]], a_words[a[t]]
        fold, kst = np.divmod(ks + kt, n)
        return _tensor_difference_bound(
            root_pows[kst] * (u_pows[fold] * a_s * a_t),
            w_pows[twist * kst + (js + jt) % n],
            (root_pows[ks] * a_s) * (root_pows[kt] * a_t),
            w_pows[twist * ks + js] * w_pows[twist * kt + jt],
        )

    # Normal form of s† (u† folds into a† when k > 0) against the image's adjoint.
    ks, js, a_s = k[sample], j[sample], a_words[a[sample]]
    ka, ja = (n - ks) % n, (n - js) % n
    a_adj = (u_pows[np.minimum(ks, 1)] * a_s).conj()
    adjoint_res = _tensor_difference_bound(
        eta_pows[ka] * a_adj, w_pows[ka + ja], (eta_pows[ks] * a_s).conj(), w_pows[ks + js].conj()
    )
    # Image of the word g s against (g (x) I) times the image of s.
    ws, g = module_words[target], acting[actor]
    root_b, a_b, w_pow = eta_pows[k[ws]], a_words[a[ws]], w_pows[k[ws] + j[ws]]
    module_res = _tensor_difference_bound((g * root_b) * a_b, w_pow, g * (root_b * a_b), w_pow)

    # The values of w are e^(2 pi i (b_xi - b_eta) / n), b the branch indices.
    w_rank = len(set((xi.branch_index(dec.angles) - eta.branch_index(dec.angles)) % n))
    span_dims = []
    for root_pows in (xi_pows, eta_pows):
        roots = len(cluster_indices(np.sort(np.angle(root_pows[1])), CLUSTER_GAP / n))
        span_dims.append(min(n * len(a_words), roots) * w_rank * m * m)
    dom_dim, img_dim = span_dims
    return AmplificationIsoReport(
        multiplicativity_residual=scale**2 * product_bound(eta_pows, 1),
        adjoint_residual=scale**2 * adjoint_res,
        module_residual=scale**2 * module_res,
        word_calculus_residual=scale**2 * product_bound(xi_pows, 0),
        correction_order_residual=scale * float(np.abs(w_pows[n] - 1).max()),
        domain_span_dim=dom_dim,
        image_span_dim=img_dim,
        word_count=total,
        pair_count=pair_count,
    )
