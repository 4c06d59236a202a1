"""Tests for square-root towers and compactly supported function embeddings."""

import copy
import json
import math
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from nclab import (
    BranchFunction,
    CompactFunction,
    apply_circle_function,
    build_tower,
    clock_matrix,
    embed_compact_function,
    generate_span,
    level_independence_residual,
    max_level_independence,
    membership_residual,
    nth_root_branch,
    operator_norm,
    operators,
    random_unitary,
    shift_matrix,
)
from nclab.operators import (
    TWO_PI,
    SpectralDecomposition,
    _diagonal_unitarity_defect,
    spectral_decompose,
    unitarity_defect,
)
from nclab.roots import TOL_ROOT
from nclab.towers import MAX_TOWER_DEPTH

PRINCIPAL = BranchFunction.principal(2)


def hat(center=0.0, half_width=1.0, height=1.0):
    return CompactFunction.hat(center, half_width, height, support_exponent=0)


class TestCompactFunction:
    def test_hat_evaluation(self):
        f = hat()
        assert f(0.0) == pytest.approx(1.0)
        assert f(0.5) == pytest.approx(0.5)
        assert f(1.0) == 0.0
        assert f(3.0) == 0.0

    def test_zero_function(self):
        f = CompactFunction.zero()
        assert f(0.3) == 0.0

    def test_rejects_nonzero_endpoints(self):
        with pytest.raises(ValueError, match="vanish"):
            CompactFunction(0, np.array([-1.0, 1.0]), np.array([0.0, 1.0]))

    def test_rejects_value_outside_support(self):
        with pytest.raises(ValueError, match="support"):
            CompactFunction(0, np.array([-3.0, 2.0, 3.0]), np.array([0.0, 1.0, 0.0]))

    def test_rejects_decreasing_breakpoints(self):
        with pytest.raises(ValueError, match="increasing"):
            CompactFunction(0, np.array([0.5, -0.5]), np.array([0.0, 0.0]))

    @pytest.mark.parametrize("unit", [1.0, 1j])
    def test_slope_at_the_overflow_limit(self, unit):
        # np.interp takes a slope as rise * (1 / run): over a run of 2**-30 a
        # rise of max * 2**-30 is the largest finite slope, one ulp more is inf.
        run = 2.0**-30
        rise = np.finfo(float).max * run
        breakpoints = np.array([-1.0, 0.0, run, 1.0])
        f = CompactFunction(0, breakpoints, np.array([0.0, 0.0, rise, 0.0]) * unit)
        x = np.concatenate([np.linspace(-1.0, 1.0, 101), np.linspace(0.0, run, 101)])
        assert np.all(np.isfinite(f(x)))
        steeper = np.array([0.0, 0.0, np.nextafter(rise, np.inf), 0.0]) * unit
        with pytest.raises(ValueError, match="segment 1 is too steep"):
            CompactFunction(0, breakpoints, steeper)

    def test_sup_norm(self):
        assert hat(height=3.0).sup_norm() == pytest.approx(3.0)

    def test_json_round_trip(self):
        f = hat(0.25, 0.5, height=1 + 2j)
        data = {
            "support_exponent": f.support_exponent,
            "breakpoints": f.breakpoints.tolist(),
            "values": [[v.real, v.imag] for v in f.values],
        }
        again = CompactFunction.from_json(json.loads(json.dumps(data)))
        assert np.array_equal(again.breakpoints, f.breakpoints)
        assert np.array_equal(again.values, f.values)
        assert again.support_exponent == f.support_exponent


class TestBuildTower:
    def test_fixed_point_of_principal(self):
        t = build_tower(np.array([[1.0 + 0j]]), 3, PRINCIPAL)
        for k in range(4):
            assert np.allclose(t.level(k), [[1.0]])

    def test_repeated_half_angle(self):
        t = build_tower(np.array([[-1.0 + 0j]]), 2, PRINCIPAL)
        assert np.allclose(t.level(1), [[1j]])
        assert np.allclose(t.level(2), [[np.exp(1j * np.pi / 4)]])

    def test_clock_three(self):
        t = build_tower(clock_matrix(1, 3), 1, PRINCIPAL)
        expected = np.diag([1, np.exp(1j * np.pi / 3), np.exp(-1j * np.pi / 3)])
        assert operator_norm(t.level(1) - expected) < 1e-12

    def test_squaring_residuals(self):
        t = build_tower(clock_matrix(1, 12), 20, PRINCIPAL)
        assert max(t.residuals) < 1e-9

    def test_documented_depth_limit(self):
        t = build_tower(clock_matrix(1, 128), MAX_TOWER_DEPTH, PRINCIPAL)
        assert max(t.residuals) <= TOL_ROOT
        assert level_independence_residual(t, hat(), 0, MAX_TOWER_DEPTH) <= 1e-12
        t = build_tower(shift_matrix(32), MAX_TOWER_DEPTH, PRINCIPAL)
        assert max(t.residuals) <= TOL_ROOT

    @pytest.mark.parametrize(
        "branches",
        [
            PRINCIPAL,
            BranchFunction.with_flipped_arc(2, -0.4, 1.1),
            [BranchFunction.random(2, np.random.default_rng(seed)) for seed in range(12)],
            [BranchFunction.random(2, np.random.default_rng(seed)) for seed in range(12, 24)],
        ],
        ids=["principal", "flipped-arc", "random-a", "random-b"],
    )
    def test_levels_match_rerooting_each_level(self, branches):
        # The reference re-decomposes every level.  A random base keeps the
        # eigenangles off the branch cut, where roundoff of that fresh
        # decomposition would pick the side of the cut.
        u = random_unitary(32, np.random.default_rng(5))
        t = build_tower(u, 12, branches)
        for k in range(1, 13):
            reference = nth_root_branch(t.level(k - 1), t.branches[k - 1])
            assert operator_norm(t.level(k) - reference) <= 1e-9

    def test_rejects_excessive_depth(self):
        with pytest.raises(ValueError, match="depth"):
            build_tower(np.eye(2), 49, PRINCIPAL)

    def test_rejects_wrong_branch_count(self):
        with pytest.raises(ValueError, match="branches"):
            build_tower(np.eye(2), 3, [PRINCIPAL, PRINCIPAL])

    def test_rejects_non_square_branch(self):
        with pytest.raises(ValueError, match="order 2"):
            build_tower(np.eye(2), 1, BranchFunction.principal(3))


def recursion_angles(tower):
    """The tower's angles by the per-level recursion: each level holds its
    branch's root angles of the level below, folded into (-pi, pi]."""
    angles = [tower.angles[0]]
    for b in tower.branches:
        a = b.root_angle(angles[-1])
        angles.append(np.where(a > np.pi, a - TWO_PI, a))
    return np.array(angles)


@st.composite
def mixed_branch_towers(draw):
    """A base, clock(p, q) or a random unitary with q <= 16, and depth 1..48
    branches in runs of principal, multi-arc all-index-0, flipped-arc and
    random branches."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    q = draw(st.integers(1, 16))
    if draw(st.booleans()):
        base = clock_matrix(draw(st.integers(-q, q)), q)
    else:
        base = random_unitary(q, rng)
    depth = draw(st.integers(1, MAX_TOWER_DEPTH))
    kinds = st.sampled_from(["principal", "index-0 arcs", "flipped", "random"])
    runs = draw(st.lists(st.tuples(kinds, st.integers(1, depth)), min_size=1, max_size=6))
    branches = []
    for kind, length in runs:
        if kind == "principal":
            branches += [PRINCIPAL] * length
        elif kind in ("index-0 arcs", "flipped"):
            start, end = np.sort(rng.uniform(-np.pi, np.pi, size=2))
            k = 0 if kind == "index-0 arcs" else 1
            branches += [BranchFunction.with_flipped_arc(2, start, end, k)] * length
        else:
            branches += [BranchFunction.random(2, rng) for _ in range(length)]
    return base, (branches + [PRINCIPAL] * depth)[:depth]


class TestPrincipalRuns:
    @settings(max_examples=60, deadline=None)
    @given(mixed_branch_towers())
    def test_match_the_per_level_recursion(self, case):
        base, branches = case
        tower = build_tower(base, len(branches), branches)
        assert np.array_equal(tower.angles, recursion_angles(tower))
        per_level_branches = [copy.copy(b) for b in branches]
        for b in per_level_branches:
            object.__setattr__(b, "is_principal", False)
        per_level = build_tower(base, len(branches), per_level_branches)
        assert np.array_equal(per_level.angles, tower.angles)
        assert per_level.residuals == tower.residuals

    def test_take_no_root_step(self, monkeypatch):
        calls = []
        root_angle = BranchFunction.root_angle

        def counted(branch, angle):
            calls.append(branch)
            return root_angle(branch, angle)

        monkeypatch.setattr(BranchFunction, "root_angle", counted)
        build_tower(clock_matrix(1, 32), 20, PRINCIPAL)
        assert calls == []
        flip = BranchFunction.with_flipped_arc(2, -0.1, 0.1)
        build_tower(clock_matrix(1, 32), 20, [flip] + [PRINCIPAL] * 19)
        assert calls == [flip]

    def test_subnormal_runs_match_halving_level_by_level(self):
        # Angles near 2**-1000 halved 48 times fall below the smallest normal
        # float, where one division by 2**k rounds once and k halvings round k
        # times: the two differ on these angles.
        theta = 2.0**-1000 * np.random.default_rng(0).uniform(1, 2, 16)
        tower = build_tower(np.diag(np.exp(1j * theta)), MAX_TOWER_DEPTH, PRINCIPAL)
        one_division = tower.angles[0] / 2.0 ** np.arange(MAX_TOWER_DEPTH + 1)[:, None]
        assert not np.array_equal(one_division, tower.angles)
        assert np.array_equal(tower.angles, recursion_angles(tower))


@st.composite
def bases_and_towers(draw):
    """A tower (depth <= 12, random branches) over clock(p, q) with |p| <= 2**53
    and q <= 128, over a random unitary of dimension <= 64, or over one moved
    off unitarity by 1e-12 per entry, within the unitarity tolerance, so that
    its decomposition reconstructs it only to about that."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["clock", "random", "nearly unitary"]))
    if kind == "clock":
        base = clock_matrix(draw(st.integers(-(2**53), 2**53)), draw(st.integers(1, 128)))
    else:
        q = draw(st.integers(1, 64))
        base = random_unitary(q, rng)
        if kind == "nearly unitary":
            base = base + 1e-12 * (rng.standard_normal((q, q)) + 1j * rng.standard_normal((q, q)))
    depth = draw(st.integers(1, 12))
    tower = build_tower(base, depth, [BranchFunction.random(2, rng) for _ in range(depth)])
    return kind, base, tower


class TestSquaringResiduals:
    @settings(max_examples=60, deadline=None)
    @given(bases_and_towers())
    def test_bound_the_honest_products(self, case):
        # ||L_k @ L_k - L_{k-1}|| with L_0 = u, the input, and L_k = level(k);
        # q eps covers the roundoff of the honest product.
        kind, below, tower = case
        slack = tower.dim * np.finfo(float).eps
        for k in range(1, tower.depth + 1):
            level = tower.level(k)
            assert operator_norm(level @ level - below) <= tower.residuals[k - 1] + slack, k
            if kind == "clock" and k >= 2:
                mu, mu_prev = (np.exp(1j * tower.angles[j]) for j in (k, k - 1))
                assert tower.residuals[k - 1] == np.abs(mu * mu - mu_prev).max()
            below = level

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 64), st.integers(0, 2**32 - 1))
    def test_first_level_is_the_honest_product_within_roundoff(self, q, seed):
        # Level 1 is certified as distance + (1 + δ) δ, not by the product
        # u_1 @ u_1; on a random unitary the two agree within 2 q eps.
        rng = np.random.default_rng(seed)
        u = random_unitary(q, rng)
        tower = build_tower(u, 1, BranchFunction.random(2, rng))
        level = tower.level(1)
        honest = operator_norm(level @ level - u)
        assert abs(tower.residuals[0] - honest) <= 2 * q * np.finfo(float).eps

    def test_no_level_reconstructed_beyond_the_first(self, monkeypatch):
        calls = []
        reconstruct = SpectralDecomposition.reconstruct

        def counted(dec):
            calls.append(dec)
            return reconstruct(dec)

        monkeypatch.setattr(SpectralDecomposition, "reconstruct", counted)
        t = build_tower(clock_matrix(1, 128), MAX_TOWER_DEPTH, PRINCIPAL)
        assert calls == []
        levels = range(t.depth + 1)
        max_level_independence(t, [hat()], [(a, b) for a in levels for b in levels])
        for k in levels:
            t.decomposition(k)
        assert calls == []


def exact_clock_angles(p, q, tower):
    """Level k's angles of a tower over clock(p, q), each π n / (q 2**(k-1)) with
    the integer n in (-q 2**(k-1), q 2**(k-1)] computed in Python integers, then
    rounded.  Column i of the base's permutation V is e_σ(i), whose eigenvalue
    is e^{2πi m/q} with m = p σ(i) mod q.  A branch index b below adds π b, and
    each level takes b from the tower's branch at the tower's angle below."""
    sigma = np.argmax(np.abs(tower.base.vectors), axis=0)
    den = q / 2
    numerators = [(p % q) * int(j) % q for j in sigma]
    numerators = [m - q if 2 * m > q else m for m in numerators]
    rows = [[math.pi * (n / den) for n in numerators]]
    for k in range(1, tower.depth + 1):
        den = q * 2 ** (k - 1)
        b = tower.branches[k - 1].branch_index(tower.angles[k - 1])
        numerators = [n + int(bi) * den for n, bi in zip(numerators, b)]
        numerators = [n - 2 * den if n > den else n for n in numerators]
        rows.append([math.pi * (n / den) for n in numerators])
    return np.array(rows)


@st.composite
def clock_towers(draw):
    """A tower of depth <= 48 over clock(p, q), |p| <= 2**53 and q <= 128, with
    principal or random branches; returns p, q and the tower."""
    p, q = draw(st.integers(-(2**53), 2**53)), draw(st.integers(1, 128))
    depth = draw(st.integers(1, MAX_TOWER_DEPTH))
    branches = PRINCIPAL
    if draw(st.booleans()):
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        branches = [BranchFunction.random(2, rng) for _ in range(depth)]
    return p, q, build_tower(clock_matrix(p, q), depth, branches)


class TestClockTowers:
    """On a clock base every angle is known exactly and every check is read off
    a diagonal; the dense formulas are the oracle."""

    @settings(max_examples=60, deadline=None)
    @given(clock_towers())
    def test_angles_are_the_exact_phases(self, case):
        # Level 0 carries np.angle's roundoff; each level halves the error
        # below and adds at most about two ulps of pi, so it stays near 4 ulps.
        # The distance is taken on the circle: at depth 48 and q = 128 a phase
        # lies within float resolution of the cut, and rounding may fold it.
        p, q, tower = case
        assert np.all((-np.pi < tower.angles) & (tower.angles <= np.pi))
        error = np.remainder(tower.angles - exact_clock_angles(p, q, tower) + np.pi, TWO_PI) - np.pi
        assert np.abs(error).max() <= 8 * np.spacing(np.pi)

    @settings(max_examples=60, deadline=None)
    @given(clock_towers())
    def test_closed_form_residuals_match_the_dense_formulas(self, case):
        p, q, tower = case
        u, base = clock_matrix(p, q), tower.base
        slack = q * np.finfo(float).eps
        assert abs(_diagonal_unitarity_defect(np.diagonal(u)) - unitarity_defect(u)) <= slack
        assert base.basis_defect == unitarity_defect(base.vectors) == 0.0
        dense = operator_norm(base.reconstruct() - u)
        assert abs(base.distance(base.eigenvalues(), u) - dense) <= slack
        level = tower.level(1)
        assert abs(tower.residuals[0] - operator_norm(level @ level - u)) <= slack

    @pytest.mark.parametrize("p, q", [(1, 128), (2, 8), (0, 5)])
    def test_decides_diagonal_once(self, p, q):
        # One scan of u, in spectral_decompose, and V built from σ alone, also
        # for the degenerate clusters of clock(2, 8) and clock(0, 5).
        with (
            mock.patch.object(operators, "_is_diagonal", wraps=operators._is_diagonal) as scan,
            mock.patch.object(operators, "_canonical_cluster_basis") as canonical,
        ):
            tower = build_tower(clock_matrix(p, q), MAX_TOWER_DEPTH, PRINCIPAL)
        assert scan.call_count == 1
        canonical.assert_not_called()
        assert tower.base.permutation is not None

    def test_validates_u_once(self, monkeypatch):
        # spectral_decompose is the one validation of u: one isfinite pass.
        spy = mock.Mock(wraps=operators.as_operator)
        for module in list(sys.modules.values()):
            if module.__name__.startswith("nclab") and hasattr(module, "as_operator"):
                monkeypatch.setattr(module, "as_operator", spy)
        build_tower(clock_matrix(1, 16), 3, PRINCIPAL)
        assert spy.call_count == 1

    def test_forms_no_dense_check(self, monkeypatch):
        def dense(*args):
            raise AssertionError("a q x q check on diagonal input")

        monkeypatch.setattr(operators, "unitarity_defect", dense)
        monkeypatch.setattr(SpectralDecomposition, "reconstruct", dense)
        monkeypatch.setattr(operators, "operator_norm", dense)
        u = clock_matrix(1, 128)
        assert spectral_decompose(u).basis_defect == 0.0
        assert max(build_tower(u, MAX_TOWER_DEPTH, PRINCIPAL).residuals) <= TOL_ROOT
        with pytest.raises(ValueError, match="matrix is not unitary"):
            build_tower(np.diag([1.0, 1.0 + 1e-9]), 1, PRINCIPAL)
        with pytest.raises(ValueError, match="finite"):
            build_tower(np.diag([1.0, np.nan]), 1, PRINCIPAL)


class TestEmbedCompactFunction:
    def test_zero_function(self):
        t = build_tower(clock_matrix(1, 4), 2, PRINCIPAL)
        assert operator_norm(embed_compact_function(t, CompactFunction.zero(), 1)) == 0.0

    def test_hat_on_diagonal_base(self):
        t = build_tower(np.diag([1.0 + 0j, -1.0]), 1, PRINCIPAL)
        out0 = embed_compact_function(t, hat(), 0)
        assert np.allclose(out0, np.diag([1.0, 0.0]))
        out1 = embed_compact_function(t, hat(), 1)
        assert np.allclose(out1, np.diag([1.0, 0.0]))

    def test_support_exceeding_level(self):
        t = build_tower(clock_matrix(1, 4), 2, PRINCIPAL)
        wide = CompactFunction.hat(0.0, 2.0, support_exponent=1)
        with pytest.raises(ValueError, match="support exceeds"):
            embed_compact_function(t, wide, 0)

    def test_linearity(self):
        t = build_tower(clock_matrix(1, 8), 3, PRINCIPAL)
        f, g = hat(0.25, 0.5), hat(-0.25, 0.5)
        x = np.union1d(f.breakpoints, g.breakpoints)
        lhs = embed_compact_function(t, CompactFunction(0, x, 2.0 * f(x) - 1j * g(x)), 2)
        rhs = 2.0 * embed_compact_function(t, f, 2) - 1j * embed_compact_function(t, g, 2)
        assert operator_norm(lhs - rhs) < 1e-10

    def test_multiplicativity_fixed_level(self):
        # f g sampled on the merged breakpoints and their midpoints: the
        # eigenangle arguments of clock(1,8) at level 1, multiples of 1/4,
        # land on that grid
        t = build_tower(clock_matrix(1, 8), 2, PRINCIPAL)
        f, g = hat(0.25, 0.25), hat(0.375, 0.375)
        merged = np.union1d(f.breakpoints, g.breakpoints)
        x = np.union1d(merged, (merged[:-1] + merged[1:]) / 2)
        lhs = embed_compact_function(t, f, 1) @ embed_compact_function(t, g, 1)
        rhs = embed_compact_function(t, CompactFunction(0, x, f(x) * g(x)), 1)
        assert operator_norm(lhs - rhs) < 1e-9

    def test_norm_contract(self):
        t = build_tower(clock_matrix(1, 16), 3, PRINCIPAL)
        for f in (hat(), hat(0.3, 0.5, height=2.5), hat(-0.7, 0.2, height=0.1)):
            assert operator_norm(embed_compact_function(t, f, 2)) <= f.sup_norm() + 1e-9


class TestLevelIndependence:
    def test_principal_towers_are_level_independent(self):
        t = build_tower(clock_matrix(1, 8), 3, PRINCIPAL)
        for a in range(4):
            for b in range(a + 1, 4):
                assert level_independence_residual(t, hat(), a, b) < 1e-10

    def test_flipped_branch_breaks_independence(self):
        # flip the arc around eigenangle 0 at the first level
        flip = BranchFunction.with_flipped_arc(2, -0.1, 0.1)
        t = build_tower(clock_matrix(1, 8), 2, [flip, PRINCIPAL])
        assert level_independence_residual(t, hat(), 0, 1) > 0.1

    def test_zero_function_any_levels(self):
        t = build_tower(clock_matrix(1, 4), 2, PRINCIPAL)
        assert level_independence_residual(t, CompactFunction.zero(), 0, 2) == 0.0


@st.composite
def towers_functions_and_pairs(draw):
    """A random tower (q <= 12, depth <= 6), a complex piecewise-linear function
    supported within it, and level pairs with a == b and a repeated pair."""
    q = draw(st.integers(1, 12))
    depth = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["principal", "flipped", "random"]))
    if kind == "principal":
        branches = PRINCIPAL
    elif kind == "flipped":
        start, end = np.sort(rng.uniform(-np.pi, np.pi, size=2))
        branches = [BranchFunction.with_flipped_arc(2, start, end)] + [PRINCIPAL] * (depth - 1)
    else:
        branches = [BranchFunction.random(2, rng) for _ in range(depth)]
    tower = build_tower(random_unitary(q, rng), depth, branches)
    f, pairs = draw(functions_and_pairs(depth))
    pairs += [pairs[0], (pairs[0][1], pairs[0][1])]
    return tower, f, pairs


@st.composite
def functions_and_pairs(draw, depth):
    """A complex piecewise-linear function supported within a depth-``depth``
    tower, and level pairs at which it embeds."""
    exponent = draw(st.integers(0, min(2, depth)))
    bound = 2.0**exponent
    knots = draw(st.lists(st.floats(-bound, bound), min_size=2, max_size=7, unique=True))
    # np.interp takes a slope as rise * (1 / run), so CompactFunction refuses a
    # run whose 1 / run, times a rise of up to 4, overflows.
    assume(np.diff(np.sort(knots)).min() >= 4 * np.finfo(float).tiny)
    parts = st.floats(-2, 2)
    inner = [complex(draw(parts), draw(parts)) for _ in range(len(knots) - 2)]
    f = CompactFunction(exponent, np.sort(knots), np.array([0j] + inner + [0j]))
    level = st.integers(exponent, depth)
    return f, draw(st.lists(st.tuples(level, level), min_size=1, max_size=40))


@st.composite
def bases_towers_functions_and_pairs(draw):
    """A tower (depth <= 6, random branches) over a random unitary, shift(q) or
    a degenerate clock(p, q) ⊗ I, optionally conjugated by a random unitary,
    of dimension <= 64; a function and level pairs as above."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["random", "shift", "clock x I"]))
    if kind == "random":
        base = random_unitary(draw(st.integers(1, 64)), rng)
    elif kind == "shift":
        base = shift_matrix(draw(st.integers(1, 64)))
    else:
        q = draw(st.integers(1, 16))
        base = np.kron(clock_matrix(draw(st.integers(1, q)), q), np.eye(draw(st.integers(2, 4))))
        if draw(st.booleans()):
            w = random_unitary(len(base), rng)
            base = w @ base @ w.conj().T
    depth = draw(st.integers(1, 6))
    tower = build_tower(base, depth, [BranchFunction.random(2, rng) for _ in range(depth)])
    f, pairs = draw(functions_and_pairs(depth))
    return tower, f, pairs


def embed_on_level(tower, f, level):
    scale = 2.0**level / np.pi
    return apply_circle_function(tower.decomposition(level), lambda a: f(scale * a))


class TestMaxLevelIndependence:
    @settings(max_examples=60, deadline=None)
    @given(towers_functions_and_pairs())
    def test_matches_largest_pairwise_norm(self, case):
        tower, f, pairs = case
        expected = max(
            operator_norm(embed_on_level(tower, f, a) - embed_on_level(tower, f, b))
            for a, b in pairs
        )
        assert abs(max_level_independence(tower, [f], pairs) - expected) <= 1e-12
        below = f.support_exponent - 1
        with pytest.raises(ValueError) as embed_error:
            embed_compact_function(tower, f, below)
        with pytest.raises(ValueError, match="support exceeds") as pair_error:
            max_level_independence(tower, [f], pairs + [(below, tower.depth)])
        assert str(pair_error.value) == str(embed_error.value)

    @settings(max_examples=60, deadline=None)
    @given(bases_towers_functions_and_pairs())
    def test_bounds_the_honest_norm_within_the_basis_defect(self, case):
        # ||V X V†|| lies in [(1 - δ) ||X||, (1 + δ) ||X||] for δ = ||V†V - I||.
        # The honest norm subtracts two computed embeddings of norm up to m, so
        # it carries roundoff of order q ε m whatever d is: levels that differ
        # by 1e-47 at m = 0.84 read 0.  m is floored at the smallest normal
        # float, below which the spacing of floats stops shrinking.
        tower, f, pairs = case
        delta = tower.base.basis_defect
        assert delta == unitarity_defect(tower.base.vectors)
        for a, b in pairs:
            fa, fb = (f(2.0**k / np.pi * tower.angles[k]) for k in (a, b))
            d = np.max(np.abs(fa - fb))
            m = max(np.max(np.abs(fa)), np.max(np.abs(fb)), np.finfo(float).tiny)
            slack = tower.dim * np.finfo(float).eps * m
            honest = operator_norm(embed_on_level(tower, f, a) - embed_on_level(tower, f, b))
            assert (1 - delta) * d - slack <= honest <= (1 + delta) * d + slack
            assert level_independence_residual(tower, f, a, b) == (1 + delta) * d

    @settings(max_examples=60, deadline=None)
    @given(towers_functions_and_pairs(), st.floats(-0.5, 0.5), st.floats(0.1, 0.5))
    def test_many_functions_take_the_largest(self, case, center, half_width):
        tower, f, pairs = case
        g = hat(center, half_width, height=1.5 - 0.5j)
        each = [max_level_independence(tower, [h], pairs) for h in (f, g)]
        assert max_level_independence(tower, [f, g], pairs) == max(each)

    def test_many_functions_raise_for_the_first_that_cannot_embed(self):
        t = build_tower(clock_matrix(1, 4), 3, PRINCIPAL)
        wide = [CompactFunction.hat(0.0, 2.0**e, support_exponent=e) for e in (2, 3)]
        with pytest.raises(ValueError, match="support exponent 2 needs level >= 2, got 1"):
            max_level_independence(t, [hat(), *wide], [(1, 3)])

    def test_basis_defect_vanishes_on_clock_bases(self):
        for p, q in [(1, 8), (3, 128), (5, 12)]:
            assert build_tower(clock_matrix(p, q), 3, PRINCIPAL).base.basis_defect == 0.0

    def test_many_repeated_pairs(self):
        flip = BranchFunction.with_flipped_arc(2, -0.1, 0.1)
        t = build_tower(clock_matrix(1, 8), 2, [flip, PRINCIPAL])
        worst = max_level_independence(t, [hat()], [(0, 0)] * 100 + [(0, 1)])
        assert worst > 0.1
        assert worst == level_independence_residual(t, hat(), 0, 1)

    def test_no_pairs(self):
        t = build_tower(clock_matrix(1, 4), 2, PRINCIPAL)
        assert max_level_independence(t, [hat(), hat(0.5, 0.25)], []) == 0.0

    def test_rejects_level_beyond_tower(self):
        t = build_tower(clock_matrix(1, 4), 2, PRINCIPAL)
        with pytest.raises(ValueError, match="outside"):
            max_level_independence(t, [hat()], [(0, 3)])


def pairwise_level_independence(tower, functions, pairs):
    """max_level_independence as one gather over every requested level pair,
    the form that comparing runs of equal rows replaced: its bitwise oracle."""
    pairs = np.asarray(pairs).reshape(-1, 2)
    if not len(pairs):
        return 0.0
    levels, index = np.unique(pairs, return_inverse=True)
    first, second = index.reshape(-1, 2).T
    worst = 0.0
    for f in functions:
        scales = 2.0**levels / np.pi
        values = f(scales[:, None] * tower.angles[levels])
        worst = max(worst, np.abs(values[first] - values[second]).max())
    return float((1.0 + tower.base.basis_defect) * worst)


class TestLevelRuns:
    @settings(max_examples=60, deadline=None)
    @given(mixed_branch_towers(), st.data())
    def test_equal_the_pairwise_gather(self, case, data):
        base, branches = case
        tower = build_tower(base, len(branches), branches)
        f, pairs = data.draw(functions_and_pairs(tower.depth))
        functions = [f, hat(0.25, 0.5, 1.5 - 0.5j)]
        low = f.support_exponent
        every = np.stack(np.triu_indices(tower.depth - low + 1, 1), axis=1) + low
        for chosen in (pairs, every):
            worst = max_level_independence(tower, functions, chosen)
            assert worst == pairwise_level_independence(tower, functions, chosen)

    def test_subnormal_rows_stay_apart(self):
        # Halved 48 times, angles near 2**-1000 turn subnormal and each row
        # rounds apart from the others (see TestPrincipalRuns).  The function
        # is linear on (0, 2**-996), where every row lies, so rows that differ
        # in their last bits give values that differ.
        theta = 2.0**-1000 * np.random.default_rng(0).uniform(1, 2, 16)
        tower = build_tower(np.diag(np.exp(1j * theta)), MAX_TOWER_DEPTH, PRINCIPAL)
        steep = CompactFunction(0, np.array([-1, 0, 2.0**-996, 1]), np.array([0, 0, 1, 0]))
        every = np.stack(np.triu_indices(MAX_TOWER_DEPTH + 1, 1), axis=1)
        worst = max_level_independence(tower, [steep], every)
        assert 0 < worst == pairwise_level_independence(tower, [steep], every)


class TestMultiplierMembership:
    """The base algebra multiplies the covering span into itself: b c and c b
    lie in the span for base words b and embedded functions c."""

    def _tower_span(self, q=8, level=2):
        u = clock_matrix(1, q)
        t = build_tower(u, level, PRINCIPAL)
        hats = [hat(c, 0.25) for c in (-0.5, 0.0, 0.5)]
        covers = [embed_compact_function(t, f, level) for f in hats]
        span = generate_span([u] + covers, 2)
        return u, covers, span

    @staticmethod
    def _residuals(base_words, covers, span):
        """The (left, right) membership residuals of b c and c b."""
        return [
            (membership_residual(span, b @ c), membership_residual(span, c @ b))
            for b in base_words
            for c in covers
        ]

    def test_identity_base(self):
        _, covers, span = self._tower_span()
        assert max(map(max, self._residuals([np.eye(8)], covers, span))) < 1e-9

    def test_base_unitary_multiplies_into_span(self):
        u, covers, span = self._tower_span()
        assert max(map(max, self._residuals([u, u.conj().T], covers, span))) < 1e-8

    def test_noncommuting_base_fails(self):
        u, covers, span = self._tower_span()
        v = shift_matrix(8)
        assert max(left for left, _ in self._residuals([v], covers, span)) > 0.01
