"""n-th roots of unitaries.

A branch function is a piecewise-constant choice of root branch on the
circle: finitely many half-open arcs of (-pi, pi], each carrying an integer
branch index k, inducing the root map angle -> (angle + 2*pi*k) / n.  Every
such map satisfies root(z)**n == z on the whole circle, so applying it
through the spectral calculus yields an exact n-th root of any unitary.

Roots outside the functional calculus are reachable too: on a degenerate
eigenspace any unitary block whose n-th power is the eigenvalue times the
identity is a legitimate root block (:func:`general_root_search`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .operators import (
    TWO_PI,
    SpectralDecomposition,
    apply_circle_function,
    as_operator,
    circle_function_distance,
    operator_norm,
    require_unitary,
    spectral_decompose,
)

TOL_ROOT = 1e-9

_PARTITION_TOL = 1e-12


@dataclass(frozen=True)
class BranchFunction:
    """Piecewise-constant branch selector defining an n-th root on the circle.

    ``arcs`` lists (start, end, k): half-open arcs [start, end) running
    counterclockwise and partitioning (-pi, pi]; an angle on a boundary belongs
    to the arc starting there.  Angle methods take floats or arrays alike.
    ``is_principal`` is True when every arc has index 0, so that
    ``root_angle`` is angle / n.
    """

    n: int
    arcs: tuple[tuple[float, float, int], ...]
    _starts: np.ndarray = field(init=False, repr=False, compare=False)
    _indices: np.ndarray = field(init=False, repr=False, compare=False)
    is_principal: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.n < 2:
            raise ValueError(f"root order must be at least 2, got {self.n}")
        arcs = tuple((float(s), float(e), int(k)) for s, e, k in self.arcs)
        if not arcs:
            raise ValueError("branch function needs at least one arc")
        for s, e, k in arcs:
            if not (-np.pi <= s <= np.pi and -np.pi <= e <= np.pi):
                raise ValueError("arc boundaries must lie in [-pi, pi]")
            if not 0 <= k < self.n:
                raise ValueError(f"branch index {k} outside 0..{self.n - 1}")
        arcs = tuple(sorted(arcs, key=lambda a: a[0]))
        total = 0.0
        for i, (s, e, _) in enumerate(arcs):
            nxt = arcs[(i + 1) % len(arcs)][0]
            if abs((e - nxt) % TWO_PI) > _PARTITION_TOL and abs(
                (nxt - e) % TWO_PI
            ) > _PARTITION_TOL:
                raise ValueError("arcs do not partition the circle: gap or overlap detected")
            total += (e - s) % TWO_PI if len(arcs) > 1 else TWO_PI
        if abs(total - TWO_PI) > 1e-9:
            raise ValueError("arc lengths do not sum to the full circle")
        object.__setattr__(self, "arcs", arcs)
        object.__setattr__(self, "_starts", np.array([s for s, _, _ in arcs]))
        object.__setattr__(self, "_indices", np.array([k for _, _, k in arcs]))
        object.__setattr__(self, "is_principal", not any(k for _, _, k in arcs))

    @classmethod
    def principal(cls, n: int) -> "BranchFunction":
        """The branch with k = 0 everywhere: root angle = angle / n."""
        return cls(n, ((-np.pi, np.pi, 0),))

    @classmethod
    def constant(cls, n: int, k: int) -> "BranchFunction":
        """A single branch index on the whole circle."""
        return cls(n, ((-np.pi, np.pi, k),))

    @classmethod
    def with_flipped_arc(cls, n: int, start: float, end: float, k: int = 1) -> "BranchFunction":
        """Principal branch except index ``k`` on [start, end)."""
        if not -np.pi <= start < end <= np.pi:
            raise ValueError("flipped arc must satisfy -pi <= start < end <= pi")
        arcs = []
        if start > -np.pi:
            arcs.append((-np.pi, start, 0))
        arcs.append((start, end, k))
        if end < np.pi:
            arcs.append((end, np.pi, 0))
        return cls(n, tuple(arcs))

    @classmethod
    def random(cls, n: int, rng, max_arcs: int = 6) -> "BranchFunction":
        """Random piecewise-constant branch with up to ``max_arcs`` arcs."""
        count = int(rng.integers(1, max_arcs + 1))
        if count == 1:
            return cls.constant(n, int(rng.integers(0, n)))
        starts = np.sort(rng.uniform(-np.pi, np.pi, size=count))
        ks = rng.integers(0, n, size=count)
        arcs = []
        for i in range(count):
            end = starts[(i + 1) % count] if i + 1 < count else np.pi
            if i == 0 and starts[0] > -np.pi:
                arcs.append((-np.pi, starts[0], int(ks[-1])))
            arcs.append((float(starts[i]), float(end), int(ks[i])))
        return cls(n, tuple(arcs))

    def branch_index(self, angle):
        """Branch index at ``angle``: the arc with the largest start <= angle."""
        # Before the first start, position -1 wraps to the last arc across the +pi cut.
        return self._indices[np.searchsorted(self._starts, angle, side="right") - 1]

    def root_angle(self, angle):
        return (angle + TWO_PI * self.branch_index(angle)) / self.n

    def root_value(self, angle):
        return np.exp(1j * self.root_angle(angle))

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "arcs": [{"start": s, "end": e, "k": k} for s, e, k in self.arcs],
        }

    @classmethod
    def from_json(cls, data: dict) -> "BranchFunction":
        arcs = tuple((a["start"], a["end"], a["k"]) for a in data["arcs"])
        return cls(int(data["n"]), arcs)


@dataclass
class RootReport:
    """Residuals of a candidate n-th root.

    ``residual`` is ||v**n - u||; ``generated_algebra_residual`` is the
    distance from v to the circle functions of u (zero when v commutes with
    every projection commuting with u).
    """

    residual: float
    generated_algebra_residual: float


def nth_root_branch(
    u,
    branch: BranchFunction,
    dec: SpectralDecomposition | None = None,
) -> np.ndarray:
    """Evaluate the branch root on a unitary through its spectral decomposition.

    The result is unitary and satisfies ||result**n - u|| at roundoff scale.
    A precomputed decomposition of ``u`` may be supplied.
    """
    if dec is None:
        dec = spectral_decompose(u)
    return apply_circle_function(dec, branch.root_value)


def general_root_search(
    u,
    n: int,
    mixers: dict[int, np.ndarray] | None = None,
) -> np.ndarray:
    """n-th root of ``u`` with prescribed unitary blocks on degeneracy clusters.

    ``mixers`` maps cluster indices (ascending-angle order of the
    decomposition of ``u``) to unitary blocks; block ``M`` on a cluster with
    eigenvalue ``lam`` must satisfy M**n = lam * I within ``TOL_ROOT``.  Clusters
    without a mixer get the principal scalar root.  A non-scalar mixer
    produces a root lying outside the circle functions of ``u``.
    """
    if n < 1:
        raise ValueError("root order must be positive")
    mixers = dict(mixers or {})
    dec = spectral_decompose(u)
    unknown = set(mixers) - set(range(len(dec.clusters)))
    if unknown:
        raise ValueError(f"mixer refers to unknown clusters {sorted(unknown)}")
    root = np.zeros((dec.dim, dec.dim), dtype=complex)
    for c, idx in enumerate(dec.clusters):
        vc = dec.vectors[:, idx]
        angle = float(np.angle(np.mean(np.exp(1j * dec.angles[idx]))))
        lam = np.exp(1j * angle)
        if c in mixers:
            block = require_unitary(np.asarray(mixers[c], dtype=complex))
            if block.shape[0] != len(idx):
                raise ValueError(
                    f"mixer for cluster {c} has dimension {block.shape[0]}, "
                    f"expected {len(idx)}"
                )
            power = np.linalg.matrix_power(block, n)
            defect = operator_norm(power - lam * np.eye(len(idx)))
            if defect > TOL_ROOT:
                raise ValueError(
                    f"mixer for cluster {c}: n-th power deviates from the required "
                    f"scalar block by {defect:.3e}"
                )
        else:
            block = np.exp(1j * angle / n) * np.eye(len(idx))
        root += vc @ block @ vc.conj().T
    return root


def root_residual(v, u, n: int) -> RootReport:
    """Measure ||v**n - u|| and the distance of v from the circle functions of u."""
    v = as_operator(v)
    u = as_operator(u)
    if v.shape != u.shape:
        raise ValueError(f"dimension mismatch: {v.shape[0]} vs {u.shape[0]}")
    if n < 1:
        raise ValueError("root order must be positive")
    residual = operator_norm(np.linalg.matrix_power(v, n) - u)
    return RootReport(
        residual=residual,
        generated_algebra_residual=circle_function_distance(spectral_decompose(u), v),
    )


def branch_quotient(xi: BranchFunction, eta: BranchFunction):
    """Pointwise quotient of two root branches of equal order.

    Returns the circle function angle -> xi_root(angle) / eta_root(angle);
    its values are n-th roots of unity, and evaluating it on a unitary gives
    the correction relating the two branch roots.
    """
    if xi.n != eta.n:
        raise ValueError(f"branch orders differ: {xi.n} vs {eta.n}")
    return lambda angle: np.exp(1j * (xi.root_angle(angle) - eta.root_angle(angle)))


def correction_unitary(
    u,
    xi: BranchFunction,
    eta: BranchFunction,
    dec: SpectralDecomposition | None = None,
) -> np.ndarray:
    """Evaluate the branch quotient xi/eta on ``u``; its n-th power is I."""
    if dec is None:
        dec = spectral_decompose(u)
    return apply_circle_function(dec, branch_quotient(xi, eta))
