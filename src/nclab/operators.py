"""Dense complex-matrix foundation: norms and the spectral calculus of
unitaries.

Operators are plain square ``numpy`` arrays of ``complex128``.  Validation
helpers enforce the contracts (finite entries, unitarity within tolerance),
and :func:`spectral_decompose` produces a deterministic orthonormal
eigendecomposition on which every functional-calculus construction in the
package is built.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Tolerances of the spectral calculus.
TOL_UNITARY = 1e-10
TOL_SPECTRAL = 1e-8
CLUSTER_GAP = 1e-8

TWO_PI = 2.0 * np.pi
# Eigenangles within 4 ulps of the cut at +-pi are eigenvalue -1, which
# roundoff in a decomposition may place to either side; they become +pi.
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


def unitarity_defect(u) -> float:
    """The measured distance ||u†u - I|| from exact unitarity."""
    u = as_operator(u)
    return operator_norm(u.conj().T @ u - np.eye(u.shape[0]))


def _diagonal_unitarity_defect(d: np.ndarray) -> float:
    """||diag(d)† diag(d) - I|| = max | |d_i|**2 - 1 |, with no product."""
    return float(np.abs(d.real**2 + d.imag**2 - 1).max())


def _is_diagonal(u: np.ndarray) -> bool:
    """True when the square ``u`` has no nonzero entry off its diagonal.

    Row-major, the q**2 - 1 entries before the last are q - 1 rows of q + 1
    that each start on the diagonal; the rest of each row is off it, and a
    1 x 1 ``u`` leaves no row."""
    q = len(u)
    return not u.reshape(-1)[:-1].reshape(q - 1, q + 1)[:, 1:].any()


def _unitary_and_diagonal(u) -> tuple[np.ndarray, np.ndarray | None]:
    """``u`` validated as unitary within ``TOL_UNITARY``, and its diagonal, or
    None if ``u`` has a nonzero entry off it: the one test of "u is diagonal".
    Only a non-diagonal ``u`` takes the dense ||u†u - I||."""
    u = as_operator(u)
    diagonal = np.diagonal(u) if _is_diagonal(u) else None
    defect = unitarity_defect(u) if diagonal is None else _diagonal_unitarity_defect(diagonal)
    if defect > TOL_UNITARY:
        raise ValueError(f"matrix is not unitary: defect {defect:.3e} exceeds {TOL_UNITARY:.3e}")
    return u, diagonal


def require_unitary(u) -> np.ndarray:
    """Validate ``u`` as unitary within ``TOL_UNITARY`` and return it as an array."""
    return _unitary_and_diagonal(u)[0]


def random_unitary(dim: int, rng) -> np.ndarray:
    """Haar-like random unitary: QR orthonormalization of a random complex matrix."""
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, _ = np.linalg.qr(a)
    return q


def _normalize_angles(angles: np.ndarray) -> np.ndarray:
    # Eigenvalue arguments live on (-pi, pi]; angles within CUT_WINDOW of the cut
    # become +pi, so roundoff cannot pick the sign of the principal root of -1.
    return np.where(np.pi - np.abs(angles) <= CUT_WINDOW, np.pi, angles)


def cluster_indices(angles: np.ndarray, gap: float) -> list[list[int]]:
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
    ``basis_defect`` is δ = ||V†V - I||, the eigenvectors' roundoff from
    unitarity (0 on diagonal input), so ||V diag(x) V†|| is max|x| within 1 ± δ.
    ``permutation`` is σ when V is the permutation whose column i is e_σ(i),
    as on diagonal input, and None otherwise.
    """

    angles: np.ndarray
    vectors: np.ndarray
    clusters: list[list[int]]
    basis_defect: float
    permutation: np.ndarray | None = None

    @property
    def dim(self) -> int:
        return len(self.angles)

    def eigenvalues(self) -> np.ndarray:
        return np.exp(1j * self.angles)

    def reconstruct(self) -> np.ndarray:
        """V diag(e^{i angle}) V†, the unitary this decomposition represents."""
        return (self.vectors * self.eigenvalues()) @ self.vectors.conj().T

    def distance(self, values: np.ndarray, u: np.ndarray) -> float:
        """||V diag(values) V† - u|| for the unitary ``u`` that was decomposed: on
        a permutation σ, u and the difference are diagonal, so it is
        max |values_i - u_σ(i)σ(i)| with no q x q product; else the SVD."""
        if self.permutation is not None:
            return float(np.abs(values - np.diagonal(u)[self.permutation]).max())
        return operator_norm((self.vectors * values) @ self.vectors.conj().T - u)


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


def spectral_decompose(u) -> SpectralDecomposition:
    """Orthonormal eigendecomposition of a unitary.

    A diagonal ``u``, such as every clock matrix, is read off: its diagonal
    holds the eigenvalues.  Otherwise ``u`` is rotated so that the middle of
    the widest gap between its eigenangles sits at -1, and the eigenvectors
    are those of the Hermitian Cayley transform i(I - w)(I + w)^-1 of the
    rotated w, orthonormal by construction; each eigenvalue is the Rayleigh
    quotient v†uv.  Angles are then sorted ascending and the basis
    canonicalized within each degeneracy cluster against the standard basis.
    Rejects inputs whose unitarity defect exceeds ``TOL_UNITARY``; the output
    reproduces the input within ``TOL_SPECTRAL``.  On diagonal input that
    canonical basis is the permutation σ: the stable sort of the angles, each
    cluster's indices in ascending order.  V is built from σ, and every check
    is read off diagonals with no q x q product.
    """
    u, diagonal = _unitary_and_diagonal(u)
    eig = diagonal
    if diagonal is None:
        # Every eigenvalue of w is at least half the widest gap, >= pi/q, from
        # -1, which bounds how far the Cayley transform amplifies roundoff.
        a = np.sort(np.angle(np.linalg.eigvals(u)))
        gaps = np.diff(a, append=a[0] + TWO_PI)
        j = np.argmax(gaps)
        w = u * np.exp(1j * (np.pi - a[j] - gaps[j] / 2))
        eye = np.eye(len(u))
        h = 1j * np.linalg.solve(eye + w, eye - w)
        z = np.linalg.eigh((h + h.conj().T) / 2)[1]
        eig = np.einsum("ij,ij->j", z.conj(), u @ z)
    eig = eig / np.abs(eig)
    angles = _normalize_angles(np.angle(eig))
    order = np.argsort(angles, kind="stable")
    angles = angles[order]
    clusters = cluster_indices(angles, CLUSTER_GAP)
    if diagonal is None:
        vectors = _canonical_cluster_basis(z[:, order], clusters)
        dec = SpectralDecomposition(angles, vectors, clusters, unitarity_defect(vectors))
    else:
        for idx in clusters:
            if len(idx) > 1:
                order[idx] = np.sort(order[idx])
        vectors = np.zeros((len(u), len(u)), dtype=complex)
        vectors[order, np.arange(len(u))] = 1
        dec = SpectralDecomposition(angles, vectors, clusters, 0.0, order)
    residual = dec.distance(dec.eigenvalues(), u)
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
