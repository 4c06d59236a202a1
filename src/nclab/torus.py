"""Clock-and-shift representations of the rational noncommutative torus,
the covering-generator products built from square-root towers over both
generators, and the parameter-halving tower that drives the noncommutativity
to zero.

Only rational angles theta = p/q are represented: they admit faithful
q-dimensional clock/shift models, while irrational angles have no
finite-dimensional faithful representation at all.

The torus relations are read from the structure of the generators: the
clock U = diag(d) is its diagonal d, and the shift V is the index roll
e_j -> e_{j+1}.  So U V - w V U has the entries d_i - w d_{i-1} at (i, i-1)
and no others, U**n = diag(d**n), and V**n is the roll by n mod q; no
residual forms a q x q array.  d**n is numpy's power: binary exponentiation
for |n| < 100, libm's cpow from there.  A representation keeps d and forms
the dense U and V only when they are read.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, pi, sin

import numpy as np

from .operators import operator_norm
from .towers import CompactFunction, RootTower, embed_compact_function


@dataclass(frozen=True)
class TorusParams:
    """Reduced rational rotation parameter theta = p/q with q >= 1."""

    p: int
    q: int

    def __post_init__(self):
        if self.q < 1:
            raise ValueError("denominator q must be at least 1")
        g = gcd(abs(self.p), self.q)
        if g > 1:
            object.__setattr__(self, "p", self.p // g)
            object.__setattr__(self, "q", self.q // g)

    @property
    def theta(self) -> float:
        return self.p / self.q

    @property
    def phase(self) -> float:
        """theta mod 1 from the exact fraction (p mod q) / q, which keeps the
        relation's phase exact at any p, where the float p / q loses it."""
        return self.p % self.q / self.q

    def halved(self) -> "TorusParams":
        return TorusParams(self.p, 2 * self.q)


@dataclass
class TorusRep:
    """Clock/shift pair satisfying U V = e^{2 pi i p/q} V U with U^q = V^q = I.
    It holds the clock's diagonal and forms the dense U and V on each read."""

    params: TorusParams
    clock_diagonal: np.ndarray
    commutation_residual: float
    clock_order_residual: float
    shift_order_residual: float

    @property
    def U(self) -> np.ndarray:
        return np.diag(self.clock_diagonal)

    @property
    def V(self) -> np.ndarray:
        return shift_matrix(self.params.q)


def _clock_diagonal(p: int, q: int) -> np.ndarray:
    """(1, w, w^2, ...) with w = e^{2 pi i p/q}.  Entry k takes its phase from
    the exact fraction ((p k) mod q) / q, so rounding does not compound along
    the diagonal and an entry -1 has angle exactly pi."""
    return np.exp(2j * np.pi * ((p % q) * np.arange(q) % q / q))


def clock_matrix(p: int, q: int) -> np.ndarray:
    """The clock diag(1, w, w^2, ...) with w = e^{2 pi i p/q}."""
    return np.diag(_clock_diagonal(p, q))


def shift_matrix(q: int) -> np.ndarray:
    """Cyclic shift e_j -> e_{j+1 mod q}."""
    return np.roll(np.eye(q, dtype=complex), 1, axis=0)


def _shift_relation_residual(d: np.ndarray, phase: float) -> float:
    """||diag(d) V - e^{2 pi i phase} V diag(d)|| for the cyclic shift V.

    The difference is monomial, with the entries d_i - w d_{i-1} at (i, i-1),
    so its norm is their largest modulus; d_{i-1} wraps around at i = 0."""
    return float(np.abs(d - np.exp(2j * np.pi * phase) * d[np.arange(len(d)) - 1]).max())


def _diagonal_order_residual(d: np.ndarray, n: int) -> float:
    """||diag(d)**n - I||, with d**n from numpy's elementwise power.  For
    |n| < 100 that is the binary exponentiation of np.linalg.matrix_power,
    bitwise; from n = 100 on numpy calls libm's cpow instead."""
    return float(np.abs(d**n - 1).max())


def _shift_order_residual(q: int, n: int) -> float:
    """||V**n - I|| for the q-dimensional cyclic shift V.

    V**n rolls the indices by n mod q, and its cycles all have the length
    L = q / gcd(n, q); V**n - I is normal with eigenvalues e^{2 pi i k/L} - 1,
    so its norm is 2 sin(pi floor(L/2) / L), exactly 0 when q divides n."""
    length = q // gcd(n, q)
    return 2 * sin(pi * (length // 2) / length)


def clock_shift(params: TorusParams) -> TorusRep:
    """The standard q-dimensional clock/shift representation of theta = p/q,
    with the residuals of its three relations (measured, not judged)."""
    q = params.q
    d = _clock_diagonal(params.p, q)
    return TorusRep(
        params=params,
        clock_diagonal=d,
        commutation_residual=_shift_relation_residual(d, params.phase),
        clock_order_residual=_diagonal_order_residual(d, q),
        shift_order_residual=_shift_order_residual(q, q),
    )


def covering_generator_products(
    clock_tower: RootTower,
    shift_tower: RootTower,
    f1: CompactFunction,
    f2: CompactFunction,
    level: int,
) -> tuple[np.ndarray, np.ndarray]:
    """The two mixed products of embedded functions over both generator towers.

    Returns (i_U(f1) @ i_V(f2), i_V(f1) @ i_U(f2)) at the given level; these
    generate the covering algebra of the torus and generically differ when
    the generators do not commute.
    """
    if clock_tower.dim != shift_tower.dim:
        raise ValueError(
            f"towers act on different dimensions: {clock_tower.dim} vs {shift_tower.dim}"
        )
    a1 = embed_compact_function(clock_tower, f1, level)
    a2 = embed_compact_function(shift_tower, f2, level)
    b1 = embed_compact_function(shift_tower, f1, level)
    b2 = embed_compact_function(clock_tower, f2, level)
    return a1 @ a2, b1 @ b2


@dataclass
class AnticommutingWitness:
    """Minimal exhibit of a square root that anticommutes with a generator."""

    u: np.ndarray
    u1: np.ndarray
    v: np.ndarray
    square_residual: float
    anticommute_residual: float


def anticommuting_root_example() -> AnticommutingWitness:
    """u = I, u1 = the exchange matrix, v = diag(1, -1).

    u1 squares to u exactly while anticommuting with v exactly, so this root
    of the identity generates a noncommutative covering algebra; the
    principal root (the identity itself) commutes instead.  All arithmetic
    is exact on integer matrices.
    """
    u = np.eye(2, dtype=complex)
    u1 = np.array([[0, 1], [1, 0]], dtype=complex)
    v = np.array([[1, 0], [0, -1]], dtype=complex)
    return AnticommutingWitness(
        u=u,
        u1=u1,
        v=v,
        square_residual=operator_norm(u1 @ u1 - u),
        anticommute_residual=operator_norm(u1 @ v + v @ u1),
    )


@dataclass
class ThetaHalvingReport:
    """Residuals of one parameter-halving step theta -> theta/2.

    The target representation at (p, 2q) supplies (u', v'); the image pair
    ((u')**2, v') must satisfy the source relation, and both image
    generators must have the source orders.
    """

    source: TorusParams
    target: TorusParams
    source_dim: int
    target_dim: int
    target_relation_residual: float
    image_relation_residual: float
    image_clock_order_residual: float
    image_shift_order_residual: float


def theta_halving_embedding(params: TorusParams) -> ThetaHalvingReport:
    """One step of the halving tower: represent theta/2 and measure how far
    the squared clock with the same shift is from the theta relations."""
    target = params.halved()
    d = _clock_diagonal(target.p, target.q)
    d2 = d * d
    return ThetaHalvingReport(
        source=params,
        target=target,
        source_dim=params.q,
        target_dim=target.q,
        target_relation_residual=_shift_relation_residual(d, target.phase),
        image_relation_residual=_shift_relation_residual(d2, params.phase),
        image_clock_order_residual=_diagonal_order_residual(d2, params.q),
        image_shift_order_residual=_shift_order_residual(target.q, 2 * params.q),
    )


def iterate_theta_halving(params: TorusParams, steps: int) -> list[ThetaHalvingReport]:
    """Repeatedly halve the rotation parameter, reporting every step."""
    if steps < 1:
        raise ValueError("need at least one halving step")
    reports = []
    current = params
    for _ in range(steps):
        report = theta_halving_embedding(current)
        reports.append(report)
        current = report.target
    return reports
