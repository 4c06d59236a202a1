"""Dense complex-matrix foundation: norms, inner products, and the spectral
calculus of unitaries.

Operators are plain square ``numpy`` arrays of ``complex128``.  Validation
helpers enforce the contracts (finite entries, unitarity within tolerance),
and :func:`spectral_decompose` produces a deterministic orthonormal
eigendecomposition on which every functional-calculus construction in the
package is built.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Freeing one untouched 1 MiB buffer raises glibc's dynamic mmap and trim
# thresholds past the levels**2 * q temporaries of
# towers.max_level_independence (a 220 KiB complex difference and its 110 KiB
# modulus at q = 32, depth 20), which would otherwise go back to the OS and
# fault in again on every call.  The scipy.linalg import does the same as a
# side effect, but it is imported only where Schur runs, and no CLI run
# reaches Schur.
np.empty(1 << 17)

# Tolerances of the spectral calculus.
TOL_UNITARY = 1e-10
TOL_SPECTRAL = 1e-8
CLUSTER_GAP = 1e-8

TWO_PI = 2.0 * np.pi
# Eigenangles within 4 ulps of the cut at +-pi are eigenvalue -1, which Schur
# places up to 1 ulp to either side; they become +pi.
CUT_WINDOW = 4 * np.spacing(np.pi)


def as_operator(a) -> np.ndarray:
    """Validate and return ``a`` as a square complex matrix.

    Raises ``ValueError`` for non-square shapes, empty matrices, or
    non-finite entries.
    """
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"operator must be a square matrix, got shape {a.shape}")
    if a.shape[0] < 1:
        raise ValueError("operator dimension must be at least 1")
    if not np.all(np.isfinite(a)):
        raise ValueError("operator entries must be finite")
    return a


def operator_norm(a) -> float:
    """Largest singular value of ``a``.

    A monomial matrix (at most one nonzero entry in each row and each column,
    a permutation times a diagonal) has singular values |a_ij| of its nonzero
    entries, so its norm is max |a_ij|, exactly and without an SVD.  Clock and
    shift relation differences such as ``U V - w V U`` and ``U**q - I`` are
    monomial with exact zeros off the pattern.  Any other matrix goes through
    the SVD; telling them apart costs one count of the nonzero entries.
    """
    a = as_operator(a)
    if np.count_nonzero(a) <= len(a):
        nonzero = a != 0
        if nonzero.sum(axis=0).max() <= 1 and nonzero.sum(axis=1).max() <= 1:
            return float(np.abs(a).max())
    return float(np.linalg.norm(a, 2))


def hs_norm(a) -> float:
    """Frobenius (Hilbert-Schmidt) norm of ``a``."""
    return float(np.linalg.norm(np.asarray(a, dtype=complex)))


def hs_inner(a, b) -> complex:
    """Hilbert-Schmidt inner product trace(a† b), conjugate-linear in ``a``."""
    a = as_operator(a)
    b = as_operator(b)
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape[0]} vs {b.shape[0]}")
    return complex(np.trace(a.conj().T @ b))


def unitarity_defect(u) -> float:
    """The measured distance ||u†u - I|| from exact unitarity."""
    u = as_operator(u)
    return operator_norm(u.conj().T @ u - np.eye(u.shape[0]))


def require_unitary(u, tol: float = TOL_UNITARY) -> np.ndarray:
    """Validate ``u`` as unitary within ``tol`` and return it as an array."""
    u = as_operator(u)
    defect = unitarity_defect(u)
    if defect > tol:
        raise ValueError(f"matrix is not unitary: defect {defect:.3e} exceeds {tol:.3e}")
    return u


def random_unitary(dim: int, rng) -> np.ndarray:
    """Haar-like random unitary: QR orthonormalization of a random complex matrix."""
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, _ = np.linalg.qr(a)
    return q


def _normalize_angles(angles: np.ndarray) -> np.ndarray:
    # Eigenvalue arguments live on (-pi, pi]; angles within CUT_WINDOW of the cut
    # become +pi, so roundoff cannot pick the sign of the principal root of -1.
    return np.where(np.pi - np.abs(angles) <= CUT_WINDOW, np.pi, angles)


def _cluster_indices(angles: np.ndarray, gap: float) -> list[list[int]]:
    """Group sorted angles into degeneracy clusters by circular distance."""
    n = len(angles)
    clusters: list[list[int]] = [[0]]
    for j in range(1, n):
        if angles[j] - angles[j - 1] < gap:
            clusters[-1].append(j)
        else:
            clusters.append([j])
    # Wraparound: the first and last clusters may meet across the +pi cut.
    if len(clusters) > 1:
        if (angles[clusters[0][0]] + TWO_PI) - angles[clusters[-1][-1]] < gap:
            clusters[0] = clusters.pop() + clusters[0]
    return clusters


@dataclass
class SpectralDecomposition:
    """Eigenangles on (-pi, pi] with an orthonormal eigenbasis of a unitary.

    ``angles`` (ascending from :func:`spectral_decompose`) label the columns
    of ``vectors``, the eigenvectors; ``clusters`` partitions the indices into
    degeneracy groups (angles closer than the clustering gap).
    """

    angles: np.ndarray
    vectors: np.ndarray
    clusters: list[list[int]]

    @property
    def dim(self) -> int:
        return len(self.angles)

    def eigenvalues(self) -> np.ndarray:
        return np.exp(1j * self.angles)

    def reconstruct(self) -> np.ndarray:
        """V diag(e^{i angle}) V†, the unitary this decomposition represents."""
        return (self.vectors * self.eigenvalues()) @ self.vectors.conj().T


class Orthonormalizer:
    """Orthonormal complex rows, grown block by block in a preallocated
    ``(capacity, length)`` array.  ``extend`` projects a block out of the kept
    rows by classical Gram-Schmidt applied twice (Giraud, Langou & Rozloznik,
    Numer. Math. 2005), then orthonormalizes the survivors in input order,
    rejecting remainders of norm below ``tol``, up to ``capacity`` rows.
    """

    def __init__(self, capacity: int, length: int, tol: float):
        self.rows = np.empty((capacity, length), dtype=complex)
        self.count = 0
        self.tol = tol

    @property
    def basis(self) -> np.ndarray:
        return self.rows[: self.count]

    @property
    def full(self) -> bool:
        return self.count == len(self.rows)

    def extend(self, block) -> np.ndarray:
        """Keep the independent rows of ``block``; returns the kept mask."""
        block = np.array(block, dtype=complex)
        if self.count:
            basis = self.basis
            for _ in range(2):
                # (conj(block) basis^T)^* = block basis^†: conjugates the block,
                # never a copy of every kept row.
                block -= (block.conj() @ basis.T).conj() @ basis
        norms = np.linalg.norm(block, axis=1)
        kept = np.zeros(len(block), dtype=bool)
        start = self.count
        for i in np.flatnonzero(norms >= self.tol):
            if self.full:
                break
            v = block[i]
            new = self.rows[start : self.count]
            for _ in range(2 if len(new) else 0):
                v = v - (new @ v.conj()).conj() @ new
            nrm = np.linalg.norm(v)
            if start and self.tol <= nrm < norms[i] / 2:
                # Cancellation against this block's rows magnifies what the
                # block passes left along the older rows: project them all out.
                for _ in range(2):
                    v = v - (self.basis @ v.conj()).conj() @ self.basis
                nrm = np.linalg.norm(v)
            if nrm >= self.tol:
                self.rows[self.count] = v / nrm
                self.count += 1
                kept[i] = True
        return kept


def _canonical_cluster_basis(vectors: np.ndarray, clusters: list[list[int]]) -> np.ndarray:
    """Replace each cluster's eigenbasis by one obtained deterministically:
    project the standard basis onto the eigenspace and orthonormalize in
    index order.  Fixes all eigenvector phase/rotation freedom.  Row j of
    ``vc.conj()`` is that projection of e_j in the orthonormal columns ``vc``.

    For a simple eigenvalue this is one phase fix, taken for every singleton
    cluster at once: the column times conj(v_j)/|v_j| for its first entry v_j
    of modulus at least 1e-10, which that entry then makes real and positive.
    """
    out = vectors.copy()
    singles = [idx[0] for idx in clusters if len(idx) == 1]
    cols = vectors[:, singles]
    lead = cols[np.argmax(np.abs(cols) >= 1e-10, axis=0), np.arange(len(singles))]
    out[:, singles] = cols * (lead.conj() / np.abs(lead))
    for idx in clusters:
        if len(idx) == 1:
            continue
        vc = vectors[:, idx]
        coords = Orthonormalizer(len(idx), len(idx), 1e-10)
        coords.extend(vc.conj())
        if not coords.full:
            raise ArithmeticError("failed to span a degenerate eigenspace deterministically")
        out[:, idx] = vc @ coords.rows.T
    return out


def _is_diagonal(u: np.ndarray) -> bool:
    """True when ``u`` has no nonzero entry off its diagonal."""
    return np.count_nonzero(u) == np.count_nonzero(np.diagonal(u))


def spectral_decompose(u) -> SpectralDecomposition:
    """Orthonormal eigendecomposition of a unitary.

    Uses the complex Schur form (diagonal for normal matrices) so the
    eigenbasis is orthonormal by construction, then sorts angles ascending
    and canonicalizes the basis within each degeneracy cluster against the
    standard basis.  A diagonal ``u``, such as every clock matrix, is its own
    Schur form: its eigenvalues are its diagonal and its Schur vectors the
    identity, with no call to Schur.  scipy is imported on the Schur path
    only, on the first non-diagonal input.  Rejects inputs whose unitarity
    defect exceeds ``TOL_UNITARY``; the output reproduces the input within
    ``TOL_SPECTRAL``.
    """
    u = require_unitary(u)
    if _is_diagonal(u):
        eig, z = np.diagonal(u), np.eye(len(u), dtype=complex)
    else:
        import scipy.linalg as la

        t, z = la.schur(u, output="complex")
        eig = np.diag(t)
    eig = eig / np.abs(eig)
    angles = _normalize_angles(np.angle(eig))
    order = np.argsort(angles, kind="stable")
    angles = angles[order]
    vectors = z[:, order]
    clusters = _cluster_indices(angles, CLUSTER_GAP)
    vectors = _canonical_cluster_basis(vectors, clusters)
    dec = SpectralDecomposition(angles=angles, vectors=vectors, clusters=clusters)
    residual = operator_norm(dec.reconstruct() - u)
    if residual > TOL_SPECTRAL:
        raise ArithmeticError(
            f"spectral reconstruction residual {residual:.3e} exceeds {TOL_SPECTRAL:.3e}"
        )
    return dec


def apply_circle_function(dec: SpectralDecomposition, g) -> np.ndarray:
    """Evaluate a circle function on a decomposed unitary: V diag(g(angle)) V†.

    ``g`` maps the array of eigenangles to an array of finite complex values
    of the same length, or to one finite scalar taken at every angle.
    """
    values = np.broadcast_to(np.asarray(g(dec.angles), dtype=complex), dec.angles.shape)
    if not np.all(np.isfinite(values)):
        raise ValueError("circle function is not finite on every eigenangle")
    return (dec.vectors * values) @ dec.vectors.conj().T


def circle_function_fit(dec: SpectralDecomposition, x) -> np.ndarray:
    """Best approximation of ``x`` by a function of the decomposed unitary.

    Hilbert-Schmidt projection of ``x`` onto the span of the cluster
    projections: one scalar per degeneracy cluster.
    """
    x = as_operator(x)
    if x.shape[0] != dec.dim:
        raise ValueError(f"dimension mismatch: {x.shape[0]} vs {dec.dim}")
    values = np.zeros(dec.dim, dtype=complex)
    for idx in dec.clusters:
        vc = dec.vectors[:, idx]
        block = vc.conj().T @ x @ vc
        values[idx] = np.trace(block) / len(idx)
    return (dec.vectors * values) @ dec.vectors.conj().T


def circle_function_distance(dec: SpectralDecomposition, x) -> float:
    """Relative distance from ``x`` to the algebra of functions of the unitary.

    Zero exactly when ``x`` commutes with every projection commuting with
    the decomposed unitary, i.e. when ``x`` is a circle function of it.
    """
    x = as_operator(x)
    fit = circle_function_fit(dec, x)
    return operator_norm(x - fit) / max(1.0, operator_norm(x))
