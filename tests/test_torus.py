"""Tests for clock/shift torus representations and the halving tower."""

import tracemalloc
from math import gcd

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from nclab import (
    BranchFunction,
    CompactFunction,
    TorusParams,
    anticommuting_root_example,
    build_tower,
    clock_shift,
    covering_generator_products,
    generate_span,
    iterate_theta_halving,
    operator_norm,
)
from nclab.torus import _clock_diagonal, _diagonal_order_residual, _shift_order_residual


class TestTorusParams:
    def test_reduction(self):
        p = TorusParams(2, 6)
        assert (p.p, p.q) == (1, 3)

    def test_trivial_point(self):
        assert TorusParams(0, 1).theta == 0.0

    def test_rejects_zero_denominator(self):
        with pytest.raises(ValueError, match="denominator"):
            TorusParams(1, 0)

    def test_phase_is_theta_mod_one(self):
        for p, q in [(1, 3), (2, 7), (5, 64)]:
            assert TorusParams(p, q).phase == TorusParams(p, q).theta
        assert TorusParams(-1, 3).phase == 2 / 3
        assert TorusParams(2**53 + 1, 4).phase == 1 / 4
        assert TorusParams(2**1100 + 1, 3).phase == 2 / 3


class TestClockShift:
    def test_commutative_point(self):
        rep = clock_shift(TorusParams(0, 1))
        assert np.allclose(rep.U, [[1.0]])
        assert np.allclose(rep.V, [[1.0]])

    def test_half_theta_anticommutes(self):
        rep = clock_shift(TorusParams(1, 2))
        assert np.allclose(rep.U, np.diag([1.0, -1.0]))
        assert np.allclose(rep.V, [[0, 1], [1, 0]])
        assert operator_norm(rep.U @ rep.V + rep.V @ rep.U) < 1e-12

    def test_third_theta_relation(self):
        rep = clock_shift(TorusParams(1, 3))
        assert rep.commutation_residual < 1e-12

    def test_relations_small_range(self):
        for q in range(1, 13):
            for p in range(q):
                if gcd(p, q) == 1 or (p, q) == (0, 1):
                    rep = clock_shift(TorusParams(p, q))
                    assert rep.commutation_residual < 1e-10
                    assert rep.clock_order_residual < 1e-10
                    assert rep.shift_order_residual < 1e-10

    def test_relations_at_large_numerators(self):
        # The float p / q loses the relation's phase from p ~ 2**20 on.
        for p in (2**20 + 1, 2**53 - 1, 2**1100 + 1):
            rep = clock_shift(TorusParams(p, 3))
            assert rep.commutation_residual < 1e-14
            (step,) = iterate_theta_halving(TorusParams(p, 3), 1)
            assert max(step.target_relation_residual, step.image_relation_residual) < 1e-14

    def test_full_matrix_span(self):
        for q in (2, 3, 5):
            rep = clock_shift(TorusParams(1, q))
            span = generate_span([rep.U, rep.V], 2 * q)
            assert span.span_dim == q * q


EPS = np.finfo(float).eps


def roundoff_bound(n: int) -> float:
    """A priori bound on a torus residual whose largest power is n.

    Each clock entry e^{2 pi i k/q} is within 11 eps of the unit-circle value
    it stands for: the angle 2 pi (k/q) takes three roundings (k/q, the
    float 2 pi and their product), at most 1.5 eps * 2 pi < 10 eps, and the
    complex exponential adds about 1 eps.  A power n multiplies the angle
    error by n, and its at most 2n complex multiplies add about 1.2 eps each,
    so a clock power is within about 14 n eps of its exact value, and a
    relation difference (n = 1 or 2) sums a few such errors.  32 (n + 1) eps
    covers all of them, for the structured residuals and the dense oracle
    alike."""
    return 32 * (n + 1) * EPS


def dense_pair(params: TorusParams) -> tuple[np.ndarray, np.ndarray]:
    """The clock and the shift of theta = p/q as full q x q matrices."""
    q = params.q
    u = np.diag(np.exp(2j * np.pi * ((params.p % q) * np.arange(q) % q / q)))
    v = np.roll(np.eye(q, dtype=complex), 1, axis=0)
    return u, v


def dense_relation(a, b, phase) -> float:
    return np.linalg.norm(a @ b - np.exp(2j * np.pi * phase) * b @ a, 2)


def dense_order(a, n) -> float:
    return np.linalg.norm(np.linalg.matrix_power(a, n) - np.eye(len(a)), 2)


def dense_clock_shift(params: TorusParams) -> tuple[float, float, float]:
    """The three residuals of clock_shift from dense products and SVD norms."""
    u, v = dense_pair(params)
    return (
        dense_relation(u, v, params.phase),
        dense_order(u, params.q),
        dense_order(v, params.q),
    )


def peak_bytes(function, *args) -> int:
    """The peak memory that tracemalloc sees during function(*args)."""
    tracemalloc.start()
    try:
        function(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def assert_within_roundoff(values, oracle, powers):
    for value, expected, n in zip(values, oracle, powers, strict=True):
        bound = roundoff_bound(n)
        assert value <= bound and expected <= bound
        assert abs(value - expected) <= bound


class TestStructuredResiduals:
    """The residuals read from the clock's diagonal and the shift's roll
    against honest dense products."""

    @settings(max_examples=60, deadline=None)
    @given(p=st.integers(-(2**53), 2**53), q=st.integers(1, 128))
    @example(p=1, q=63)
    @example(p=1, q=100)
    @example(p=1, q=128)
    @example(p=2**53 - 1, q=64)
    @example(p=-(2**53), q=63)
    def test_match_dense_oracle(self, p, q):
        assume(gcd(p, q) == 1)
        params = TorusParams(p, q)
        rep = clock_shift(params)
        oracle = dense_clock_shift(params)
        values = (rep.commutation_residual, rep.clock_order_residual, rep.shift_order_residual)
        assert_within_roundoff(values, oracle, (1, params.q, params.q))
        assert rep.shift_order_residual == 0.0 == oracle[2]
        dims, step_oracle = two_rep_halving_step(params)
        (step,) = iterate_theta_halving(params, 1)
        assert (step.source_dim, step.target_dim) == dims
        assert_within_roundoff(step_values(step), step_oracle, (1, 2, 2 * params.q, 2 * params.q))
        assert step.image_shift_order_residual == 0.0 == step_oracle[3]

    def test_shift_order_off_multiples(self):
        for q in (1, 2, 5, 6, 12):
            _, v = dense_pair(TorusParams(1, q))
            for n in range(1, 2 * q + 1):
                expected = dense_order(v, n)
                assert abs(_shift_order_residual(q, n) - expected) <= 4 * EPS

    def test_order_residual_is_the_matrix_power_below_100(self):
        # Below |n| = 100 numpy's power is the binary exponentiation of
        # matrix_power, bitwise; an elementwise squaring loop is not.
        def matrix_power_residual(d, n):
            power = np.linalg.matrix_power(d[:, None, None], n)[:, 0, 0]
            return float(np.abs(power - 1).max())

        for q in range(1, 100):
            for p in range(q):
                if gcd(p, q) != 1:
                    continue
                target = TorusParams(p, q).halved()
                halved = _clock_diagonal(target.p, target.q)
                for d in (_clock_diagonal(p, q), halved * halved):
                    assert _diagonal_order_residual(d, q, [0])[0] == matrix_power_residual(d, q)

    def test_clock_shift_allocates_no_square_array(self):
        # The torus kind reads only the residuals; U and V are formed on read.
        q = 128
        assert peak_bytes(clock_shift, TorusParams(1, q)) < 16 * q * q

    def test_halving_step_allocates_no_square_array(self):
        q = 128
        assert peak_bytes(iterate_theta_halving, TorusParams(1, q // 2), 1) < 16 * q * q

    def test_theta_tower_allocates_no_square_array(self):
        # Six steps from 1/2 stack the diagonals of dimensions 4, 8, ..., 128.
        q = 128
        assert peak_bytes(iterate_theta_halving, TorusParams(1, 2), 6) < 16 * q * q


class TestCoveringGeneratorProducts:
    def _towers(self, params):
        rep = clock_shift(params)
        b = BranchFunction.principal(2)
        return build_tower(rep.U, 2, b), build_tower(rep.V, 2, b)

    def test_zero_function_gives_zero(self):
        tu, tv = self._towers(TorusParams(1, 2))
        zero = CompactFunction.zero()
        f = CompactFunction.hat(0.0, 1.0, support_exponent=0)
        p1, p2 = covering_generator_products(tu, tv, zero, f, 1)
        assert operator_norm(p1) == 0.0
        assert operator_norm(p2) == 0.0

    def test_commutative_torus_products_commute(self):
        b = BranchFunction.principal(2)
        u = np.diag(np.exp(1j * np.array([0.3, 1.1, -2.0])))
        v = np.diag(np.exp(1j * np.array([-0.7, 0.4, 2.5])))
        tu, tv = build_tower(u, 1, b), build_tower(v, 1, b)
        f1 = CompactFunction.hat(0.1, 0.8, support_exponent=0)
        f2 = CompactFunction.hat(-0.2, 0.7, support_exponent=0)
        p1, p2 = covering_generator_products(tu, tv, f1, f2, 1)
        assert operator_norm(p1 @ p2 - p2 @ p1) < 1e-10

    def test_noncommutative_products_differ(self):
        tu, tv = self._towers(TorusParams(1, 2))
        f = CompactFunction.hat(0.0, 1.0, support_exponent=0)
        p1, p2 = covering_generator_products(tu, tv, f, f, 0)
        assert operator_norm(p1 - p2) > 0.01

    def test_dimension_mismatch(self):
        b = BranchFunction.principal(2)
        t2 = build_tower(np.eye(2), 1, b)
        t3 = build_tower(np.eye(3), 1, b)
        f = CompactFunction.hat(0.0, 1.0, support_exponent=0)
        with pytest.raises(ValueError, match="dimension"):
            covering_generator_products(t2, t3, f, f, 1)


class TestAnticommutingWitness:
    def test_exact_square(self):
        w = anticommuting_root_example()
        assert np.array_equal(w.u1 @ w.u1, w.u)
        assert w.square_residual == 0.0

    def test_exact_anticommutation(self):
        w = anticommuting_root_example()
        assert np.array_equal(w.u1 @ w.v + w.v @ w.u1, np.zeros((2, 2)))
        assert w.anticommute_residual == 0.0

    def test_principal_root_commutes_instead(self):
        w = anticommuting_root_example()
        principal = np.eye(2)  # the principal square root of the identity
        assert operator_norm(principal @ w.v - w.v @ principal) == 0.0


class TestThetaHalving:
    def test_third_to_sixth(self):
        (report,) = iterate_theta_halving(TorusParams(1, 3), 1)
        assert report.target == TorusParams(1, 6)
        assert report.target_dim == 6
        assert report.image_relation_residual < 1e-10
        assert report.image_clock_order_residual < 1e-10
        assert report.image_shift_order_residual < 1e-10

    def test_commutative_point(self):
        (report,) = iterate_theta_halving(TorusParams(0, 1), 1)
        assert report.image_relation_residual < 1e-12
        assert report.target_relation_residual < 1e-12

    def test_iterated_sequence(self):
        reports = iterate_theta_halving(TorusParams(1, 3), 3)
        visited = [reports[0].source] + [r.target for r in reports]
        assert [(t.p, t.q) for t in visited[:3]] == [(1, 3), (1, 6), (1, 12)]
        assert [r.source_dim for r in reports] == [3, 6, 12]
        assert all(r.image_relation_residual < 1e-9 for r in reports)

    def test_even_numerator_reduces(self):
        (report,) = iterate_theta_halving(TorusParams(2, 3), 1)
        assert report.target == TorusParams(1, 3)
        assert report.image_relation_residual < 1e-10

    def test_image_satisfies_source_relation(self):
        for p, q in [(1, 2), (1, 5), (3, 7), (2, 9)]:
            (report,) = iterate_theta_halving(TorusParams(p, q), 1)
            assert report.image_relation_residual < 1e-9

    def test_measures_past_the_cli_guard(self):
        # The library neither guards dimensions nor judges residuals: the
        # step to 130 > 128 is measured, and the CLI's checks decide.
        (report,) = iterate_theta_halving(TorusParams(1, 65), 1)
        assert report.target_dim == 130
        assert report.image_relation_residual < 1e-10

    @pytest.mark.parametrize(
        "p, q",
        [(p, q) for q in range(2, 17) for p in range(1, q) if gcd(p, q) == 1]
        + [(0, 1)]
        + [(2**53 - 1, q) for q in (3, 5, 16)],
    )
    def test_matches_two_rep_oracle(self, p, q):
        for report in iterate_theta_halving(TorusParams(p, q), 3):
            dims, oracle = two_rep_halving_step(report.source)
            assert (report.source_dim, report.target_dim) == dims
            powers = (1, 2, 2 * report.source.q, 2 * report.source.q)
            assert_within_roundoff(step_values(report), oracle, powers)

    def test_stacked_pass_is_bitwise_the_single_step(self):
        # Odd p doubles q at each step and even p does not; (1, 64) and
        # (3, 100) reach image clock orders n >= 100, where numpy's power
        # calls libm's cpow.
        cases = [(p, q, 4) for q in range(1, 13) for p in range(-q - 1, 2 * q + 2)]
        cases += [(1, 64, 2), (3, 100, 1), (2**53 - 1, 3, 5), (-(2**53), 5, 5)]
        for p, q, steps in cases:
            source = TorusParams(p, q)
            reports = iterate_theta_halving(source, steps)
            assert len(reports) == steps
            for report in reports:
                target = source.halved()
                assert (report.source, report.target) == (source, target)
                assert (report.source_dim, report.target_dim) == (source.q, target.q)
                assert step_values(report) == single_step_reference(source)
                source = target


def single_step_reference(params: TorusParams) -> tuple[float, float, float, float]:
    """One halving step measured alone, from its own clock diagonal, its own
    exp and one residual pass per relation: the stacked pass of
    iterate_theta_halving must reproduce these values bitwise."""
    target = params.halved()
    q = target.q
    d = np.exp(2j * np.pi * ((target.p % q) * np.arange(q) % q / q))
    d2 = d * d

    def relation(d, phase):
        return float(np.abs(d - np.exp(2j * np.pi * phase) * d[np.arange(len(d)) - 1]).max())

    return (
        relation(d, target.phase),
        relation(d2, params.phase),
        float(np.abs(d2**params.q - 1).max()),
        _shift_order_residual(q, 2 * params.q),
    )


def step_values(report) -> tuple[float, float, float, float]:
    return (
        report.target_relation_residual,
        report.image_relation_residual,
        report.image_clock_order_residual,
        report.image_shift_order_residual,
    )


def two_rep_halving_step(params: TorusParams) -> tuple[tuple[int, int], tuple[float, ...]]:
    """The halving step from two full clock/shift pairs, with every residual
    a dense product and an SVD norm: the reference for each step of
    iterate_theta_halving.  Returns the (source, target) dimensions and the
    four step residuals."""
    target = params.halved()
    source_u, _ = dense_pair(params)
    u, v = dense_pair(target)
    u2 = u @ u
    return (len(source_u), len(u)), (
        dense_relation(u, v, target.phase),
        dense_relation(u2, v, params.phase),
        dense_order(u2, params.q),
        dense_order(v, 2 * params.q),
    )
