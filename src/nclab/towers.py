"""Dyadic square-root towers over a base unitary and the embedding of
compactly supported line functions through them.

A tower is a sequence u_0, u_1, ..., u_L with u_k**2 = u_{k-1}.  A function
f supported in [-2**n, 2**n] embeds at any level >= n by evaluating
g(e^{i a}) = f(2**level * a / pi) on that level's unitary; with principal
branches the result is independent of the level, and a flipped branch
breaks that independence by a visible amount.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import groupby
from operator import attrgetter

import numpy as np

from .operators import (
    TWO_PI,
    SpectralDecomposition,
    apply_circle_function,
    spectral_decompose,
)
from .roots import BranchFunction

# Angle halving is exact; 48 stays because a principal level there is within
# pi * 2**-48 (1.1e-14) of I, the roundoff of a product at dimension 128.
MAX_TOWER_DEPTH = 48
_SMALLEST_NORMAL = np.finfo(float).tiny


@dataclass
class CompactFunction:
    """Piecewise-linear complex function on the line with compact support.

    Linear between ``breakpoints``, zero outside them; the support must be
    contained in [-2**support_exponent, 2**support_exponent] and the
    function must vanish at the support boundary so the zero extension is
    continuous.
    """

    support_exponent: int
    breakpoints: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        if self.support_exponent < 0:
            raise ValueError("support exponent must be nonnegative")
        self.breakpoints = np.asarray(self.breakpoints, dtype=float)
        self.values = np.asarray(self.values, dtype=complex)
        if self.breakpoints.ndim != 1 or self.breakpoints.shape != self.values.shape:
            raise ValueError("breakpoints and values must be 1-d arrays of equal length")
        if len(self.breakpoints) < 1:
            raise ValueError("need at least one breakpoint")
        if not np.all(np.diff(self.breakpoints) > 0):
            raise ValueError("breakpoints must be strictly increasing")
        if not (np.all(np.isfinite(self.breakpoints)) and np.all(np.isfinite(self.values))):
            raise ValueError("breakpoints and values must be finite")
        # np.interp takes each part's slope as rise * (1 / run) and returns inf
        # inside a segment where that is inf; NaN, from a zero rise, it mends.
        with np.errstate(over="ignore", invalid="ignore"):
            slopes = np.diff([self.values.real, self.values.imag]) * (1 / np.diff(self.breakpoints))
        steep = np.flatnonzero(np.isinf(slopes).any(axis=0))
        if len(steep):
            raise ValueError(f"segment {steep[0]} is too steep: its slope overflows")
        bound = 2.0 ** self.support_exponent
        if self.values[0] != 0 or self.values[-1] != 0:
            raise ValueError("function must vanish at its first and last breakpoints")
        outside = np.abs(self.breakpoints) > bound
        if np.any(self.values[outside] != 0):
            raise ValueError("values beyond the declared support bound must be zero")
        if abs(self(bound)) != 0 or abs(self(-bound)) != 0:
            raise ValueError("function must vanish at the support boundary")

    def __call__(self, x):
        return np.interp(x, self.breakpoints, self.values, left=0.0, right=0.0)

    @classmethod
    def zero(cls, support_exponent: int = 0) -> "CompactFunction":
        return cls(support_exponent, np.array([0.0]), np.array([0.0 + 0j]))

    @classmethod
    def hat(
        cls,
        center: float = 0.0,
        half_width: float = 1.0,
        height: complex = 1.0,
        support_exponent: int | None = None,
    ) -> "CompactFunction":
        """Triangular bump: ``height`` at ``center``, zero beyond ``half_width``."""
        if half_width <= 0:
            raise ValueError("half-width must be positive")
        reach = abs(center) + half_width
        if support_exponent is None:
            support_exponent = max(0, int(np.ceil(np.log2(reach))))
        if reach > 2.0 ** support_exponent:
            raise ValueError("hat exceeds the declared support bound")
        bps = np.array([center - half_width, center, center + half_width])
        vals = np.array([0.0, height, 0.0], dtype=complex)
        return cls(support_exponent, bps, vals)

    def sup_norm(self) -> float:
        # |affine segment| is convex, so the maximum sits at a breakpoint.
        return float(np.max(np.abs(self.values)))

    @classmethod
    def from_json(cls, data: dict) -> "CompactFunction":
        values = np.array([complex(re, im) for re, im in data["values"]])
        return cls(int(data["support_exponent"]), np.asarray(data["breakpoints"], float), values)


@dataclass
class RootTower:
    """Square-root tower u_0, u_1, ..., u_L with u_k**2 = u_{k-1}.

    No level is stored as a matrix.  All levels share the eigenvectors V of
    ``base``, the base's spectral decomposition; ``angles`` is one
    ``(depth + 1, q)`` array whose row k holds level k's eigenangles on
    (-pi, pi] in V's column order, and ``level(k)`` forms
    u_k = V diag(e^{i angles[k]}) V† on demand.  ``residuals[k-1]`` bounds
    ||u_k**2 - u_{k-1}|| (see :func:`build_tower`).
    """

    branches: list[BranchFunction]
    residuals: list[float]
    base: SpectralDecomposition
    angles: np.ndarray

    @property
    def depth(self) -> int:
        return len(self.angles) - 1

    @property
    def dim(self) -> int:
        return self.base.dim

    def level(self, k: int) -> np.ndarray:
        """Level k as a dense matrix, reconstructed from the shared eigenbasis."""
        return self.decomposition(k).reconstruct()

    def decomposition(self, k: int) -> SpectralDecomposition:
        """Level k on the shared eigenbasis: the base's vectors and clusters, level k's angles."""
        _require_level(self, k)
        return replace(self.base, angles=self.angles[k])


def build_tower(
    u,
    depth: int,
    branches: BranchFunction | list[BranchFunction],
) -> RootTower:
    """Iterate branch square roots ``depth`` times above the base unitary.

    ``branches`` is one square-root branch reused at every level or a list
    of length ``depth``; ``residuals`` records how far each level squares
    back onto the one below.  The base is decomposed once; a level's angles
    are its branch's root angles of the level below, folded into (-pi, pi].
    A principal branch (every arc index 0) maps θ ∈ (-pi, pi] to θ/2, which
    needs no fold, so a run of j principal levels above θ is θ/2**i for
    i = 1..j in one division (see :func:`_halvings`); only the other
    branches take a ``root_angle`` step per level.

    With μ_k = e^{i angles[k]}, D_k = diag(μ_k) and δ the base's ``basis_defect``,
    u_k**2 = V D_k**2 V† + V D_k (V†V - I) D_k V† and ||V X V†|| <= (1 + δ) ||X||.
    So ``base.distance(μ_1**2, u) + (1 + δ) δ`` bounds ||u_1**2 - u|| against the
    input u, and (1 + δ)(max |μ_k**2 - μ_{k-1}| + δ) bounds ||u_k**2 - u_{k-1}||
    for k >= 2; on a diagonal u (δ = 0) both are exact.  No level is formed.
    """
    if depth < 1:
        raise ValueError("tower depth must be at least 1")
    if depth > MAX_TOWER_DEPTH:
        raise ValueError(f"tower depth {depth} exceeds the supported {MAX_TOWER_DEPTH}")
    if isinstance(branches, BranchFunction):
        branches = [branches] * depth
    branches = list(branches)
    if len(branches) != depth:
        raise ValueError(f"need {depth} branches, got {len(branches)}")
    for b in branches:
        if b.n != 2:
            raise ValueError("tower branches must be square-root branches (order 2)")
    base = spectral_decompose(u)
    delta = base.basis_defect
    angles = np.empty((depth + 1, base.dim))
    angles[0] = base.angles
    k = 0
    for principal, run in groupby(branches, key=attrgetter("is_principal")):
        if principal:
            j = len(list(run))
            angles[k + 1 : k + j + 1] = _halvings(angles[k], j)
            k += j
        else:
            for b in run:
                a = b.root_angle(angles[k])
                k += 1
                angles[k] = np.where(a > np.pi, a - TWO_PI, a)
    mu = np.exp(1j * angles)
    first = base.distance(mu[1] * mu[1], u) + (1.0 + delta) * delta
    rest = (1.0 + delta) * (np.abs(mu[2:] * mu[2:] - mu[1:-1]).max(axis=1) + delta)
    return RootTower(branches, [first, *rest.tolist()], base, angles)


def _halvings(theta: np.ndarray, j: int) -> np.ndarray:
    """Rows theta / 2**i for i = 1..j, equal to halving theta j times.

    A quotient by a power of two is exact unless it falls below the smallest
    normal float.  There halving level by level rounds at every step and one
    division rounds once, and the two can differ in the last subnormal bit,
    so a run that reaches that range is halved level by level.
    """
    run = theta / 2.0 ** np.arange(1, j + 1)[:, None]
    deepest = np.abs(run[-1])
    if np.any((deepest < _SMALLEST_NORMAL) & (deepest > 0)):
        for i in range(1, j):
            run[i] = run[i - 1] / 2
    return run


def _require_level(tower: RootTower, k: int) -> None:
    if not 0 <= k <= tower.depth:
        raise ValueError(f"level {k} outside 0..{tower.depth}")


def _require_support(f: CompactFunction, level) -> None:
    if f.support_exponent > level:
        raise ValueError(
            f"support exceeds tower depth: support exponent {f.support_exponent} "
            f"needs level >= {f.support_exponent}, got {level}"
        )


def _arguments(tower: RootTower, levels) -> np.ndarray:
    """Rows 2**k * a / pi on level k's eigenangles a, for valid ``levels``."""
    return (2.0 ** np.asarray(levels) / np.pi)[:, None] * tower.angles[levels]


def _finite_values(f: CompactFunction, x: np.ndarray) -> np.ndarray:
    values = np.asarray(f(x), complex)
    if not np.isfinite(values).all():
        raise ValueError("circle function is not finite on every eigenangle")
    return values


def embed_compact_function(tower: RootTower, f: CompactFunction, level: int) -> np.ndarray:
    """Embed a compactly supported line function at a tower level.

    Evaluates g(e^{i a}) = f(2**level * a / pi) on the level unitary, the
    composite of rescaling the support into [-1, 1], wrapping [-1, 1] onto
    the circle, and functional calculus.
    """
    _require_support(f, level)
    decomposition = tower.decomposition(level)
    (values,) = _finite_values(f, _arguments(tower, [level]))
    return apply_circle_function(decomposition, lambda a: values)


def max_level_independence(tower: RootTower, functions, pairs) -> float:
    """(1 + δ) max |f_a(angle_i) - f_b(angle_i)| over the ``functions`` f (a
    sequence) and the level pairs (a, b) (a sequence of pairs or a (count, 2)
    integer array): a certified upper bound on max ||embed(f, a) - embed(f, b)||;
    0 for no pair or no function.

    A difference of levels is V diag(f_a - f_b) V† on the tower's shared
    eigenvectors V, whose norm lies within a factor 1 ± δ of the diagonal's
    maximum, δ = ||V†V - I|| being the base's ``basis_defect``.

    f_k is f evaluated on the row x_k = 2**k * angles[k] / pi, so two levels
    whose rows are bitwise equal differ by exactly 0.  The requested levels,
    sorted, split into runs wherever a row differs from the one before; a
    principal branch leaves the row as it was, since it halves the angles
    exactly and the scale doubles exactly.  So a tower has at most one run
    more than it has non-principal branches, unless its halvings reach
    subnormal angles (see :func:`_halvings`), whose rows differ and stay
    apart.  Each function is evaluated on one row per run and compared over
    the distinct pairs of runs that the level pairs name, so it costs q per
    run and per named pair of runs, not q per level pair.

    Raises the errors of ``embed_compact_function`` for the first function
    that has one.
    """
    pairs = np.asarray(pairs).reshape(-1, 2)
    if not len(pairs) or not len(functions):
        return 0.0
    # return_inverse keeps np.unique off the path that imports numpy.ma.
    levels, index = np.unique(pairs, return_inverse=True)
    # The first function's support is checked before the level range, as
    # embed_compact_function checks them.
    _require_support(functions[0], levels[0])
    if levels[-1] > tower.depth:
        _require_level(tower, levels[levels > tower.depth][0])
    x = _arguments(tower, levels)
    starts = np.concatenate(([True], (x[1:] != x[:-1]).any(axis=1)))
    run = np.add.accumulate(starts, dtype=np.intp) - 1
    a, b = run[index.reshape(-1, 2)].T
    runs = run[-1] + 1
    named = np.zeros((runs, runs), bool)
    named[np.minimum(a, b), np.maximum(a, b)] = True
    named.flat[:: runs + 1] = False
    first, second = np.nonzero(named)
    rows = x[starts]
    worst = 0.0
    for f in functions:
        _require_support(f, levels[0])
        values = _finite_values(f, rows)
        if len(first):
            worst = max(worst, np.abs(values[first] - values[second]).max())
    # Rounding is monotone, so scaling the maximum equals the maximum of the scaled.
    return float((1.0 + tower.base.basis_defect) * worst)


def level_independence_residual(
    tower: RootTower, f: CompactFunction, level_a: int, level_b: int
) -> float:
    """||embed(f, level_a) - embed(f, level_b)|| across two valid levels."""
    return max_level_independence(tower, [f], [(level_a, level_b)])
