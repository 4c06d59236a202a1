"""Acceptance suite: every criterion at its stated tolerance and runtime.

Each test prints one pass/fail line (run with ``pytest -s`` to see them all
even on success).
"""

import json
import time
from math import gcd

import numpy as np

from nclab import (
    BranchFunction,
    CompactFunction,
    TorusParams,
    amplification_iso_check,
    anticommuting_root_example,
    build_tower,
    clock_matrix,
    clock_shift,
    embed_compact_function,
    generate_span,
    iterate_theta_halving,
    level_independence_residual,
    multiplier_membership_check,
    nth_root_branch,
    operator_norm,
    random_unitary,
    shift_matrix,
)
from nclab.cli import main

PRINCIPAL = BranchFunction.principal(2)


def announce(number, passed, detail):
    status = "PASS" if passed else "FAIL"
    print(f"criterion {number}: {status} - {detail}")
    assert passed, f"criterion {number} failed: {detail}"


def test_criterion_1_root_identity():
    """50 seeded random unitaries, dim <= 64, n in {2,3,4}, random branches."""
    rng = np.random.default_rng(20260808)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(50):
        dim = int(rng.integers(2, 65))
        n = int(rng.choice([2, 3, 4]))
        u = random_unitary(dim, rng)
        branch = BranchFunction.random(n, rng)
        v = nth_root_branch(u, branch)
        worst = max(worst, operator_norm(np.linalg.matrix_power(v, n) - u))
    elapsed = time.perf_counter() - start
    announce(
        1,
        worst <= 1e-9 and elapsed <= 10.0,
        f"root identity worst residual {worst:.2e} (tol 1e-9), {elapsed:.2f}s (limit 10s)",
    )


def test_criterion_2_tower_consistency():
    """Principal towers of depth 20 over clock(1,q), q <= 16; 5-hat family."""
    start = time.perf_counter()
    hats = [
        CompactFunction.hat(c, 0.3, support_exponent=0) for c in np.linspace(-0.6, 0.6, 5)
    ]
    worst_square = 0.0
    worst_indep = 0.0
    for q in range(1, 17):
        tower = build_tower(clock_matrix(1, q), 20, PRINCIPAL)
        worst_square = max(worst_square, max(tower.residuals))
        for f in hats:
            embeds = [embed_compact_function(tower, f, lvl) for lvl in range(21)]
            for a in range(21):
                for b in range(a + 1, 21):
                    worst_indep = max(worst_indep, operator_norm(embeds[a] - embeds[b]))
    elapsed = time.perf_counter() - start
    announce(
        2,
        worst_square <= 1e-9 and worst_indep <= 1e-9 and elapsed <= 5.0,
        f"squaring {worst_square:.2e}, level independence {worst_indep:.2e} "
        f"(tol 1e-9), {elapsed:.2f}s (limit 5s)",
    )


def test_criterion_3_branch_sensitivity():
    """A flipped-branch tower must visibly break level independence."""
    start = time.perf_counter()
    flip = BranchFunction.with_flipped_arc(2, -0.1, 0.1)
    tower = build_tower(clock_matrix(1, 8), 2, [flip, PRINCIPAL])
    f = CompactFunction.hat(0.0, 1.0, support_exponent=0)
    violation = level_independence_residual(tower, f, 0, 1)
    elapsed = time.perf_counter() - start
    announce(
        3,
        violation >= 0.1 and elapsed <= 1.0,
        f"flipped-branch violation {violation:.3f} (needs >= 0.1), "
        f"{elapsed:.2f}s (limit 1s)",
    )


def test_criterion_4_anticommuting_witness():
    """The returned triple satisfies both identities exactly."""
    anticommuting_root_example()  # warm-up outside the timed window
    start = time.perf_counter()
    witness = anticommuting_root_example()
    elapsed = time.perf_counter() - start
    announce(
        4,
        witness.square_residual == 0.0
        and witness.anticommute_residual == 0.0
        and elapsed <= 1e-3,
        f"square {witness.square_residual}, anticommutator "
        f"{witness.anticommute_residual} (both exactly 0), {elapsed * 1e3:.3f}ms (limit 1ms)",
    )


def test_criterion_5_torus_relations():
    """All coprime (p,q) with q <= 64 at 1e-10."""
    start = time.perf_counter()
    worst = 0.0
    count = 0
    for q in range(1, 65):
        for p in range(q):
            if (p == 0 and q == 1) or gcd(p, q) == 1:
                rep = clock_shift(TorusParams(p, q))
                worst = max(
                    worst,
                    rep.commutation_residual,
                    rep.clock_order_residual,
                    rep.shift_order_residual,
                )
                count += 1
    elapsed = time.perf_counter() - start
    announce(
        5,
        worst <= 1e-10 and elapsed <= 5.0,
        f"{count} coprime pairs, worst residual {worst:.2e} (tol 1e-10), "
        f"{elapsed:.2f}s (limit 5s)",
    )


def test_criterion_6_theta_halving_tower():
    """Iterating (1,3): theta 1/3, 1/6, 1/12 at dims 3, 6, 12."""
    start = time.perf_counter()
    reports = iterate_theta_halving(TorusParams(1, 3), 3)
    visited = [reports[0].source] + [r.target for r in reports]
    thetas_ok = [(t.p, t.q) for t in visited[:3]] == [(1, 3), (1, 6), (1, 12)]
    dims_ok = [r.source_dim for r in reports] == [3, 6, 12]
    worst = max(r.image_relation_residual for r in reports)
    elapsed = time.perf_counter() - start
    announce(
        6,
        thetas_ok and dims_ok and worst <= 1e-9 and elapsed <= 1.0,
        f"theta sequence {[f'{t.p}/{t.q}' for t in visited[:3]]}, dims "
        f"{[r.source_dim for r in reports]}, worst image relation {worst:.2e} "
        f"(tol 1e-9), {elapsed:.2f}s (limit 1s)",
    )


def test_criterion_7_generated_algebra_spans():
    """Span dimensions: Pauli pair 4, clock-5 diagonal 5, full matrix q**2."""
    start = time.perf_counter()
    rep2 = clock_shift(TorusParams(1, 2))
    pauli_dim = generate_span([rep2.U, rep2.V], 2).span_dim
    clock5_dim = generate_span([clock_matrix(1, 5)], 4).span_dim
    full_ok = True
    for q in range(1, 9):
        for p in range(q):
            if (p == 0 and q == 1) or gcd(p, q) == 1:
                rep = clock_shift(TorusParams(p, q))
                dim = generate_span([rep.U, rep.V], 2 * q).span_dim
                full_ok = full_ok and dim == q * q
    elapsed = time.perf_counter() - start
    announce(
        7,
        pauli_dim == 4 and clock5_dim == 5 and full_ok and elapsed <= 10.0,
        f"pauli span {pauli_dim} (=4), clock-5 span {clock5_dim} (=5), "
        f"full q**2 spans {'ok' if full_ok else 'WRONG'}, {elapsed:.2f}s (limit 10s)",
    )


def test_criterion_8_amplification_map():
    """Branch-swap map on amplified words: dim <= 64, m <= 4, L <= 4, commutative base."""
    start = time.perf_counter()
    grid = [
        (2, 2, 3, 2),
        (3, 2, 3, 2),
        (4, 3, 4, 2),
        (5, 2, 3, 3),
        (6, 2, 4, 2),
        (7, 1, 3, 2),
        (8, 2, 3, 3),
        (8, 3, 4, 2),
        (16, 4, 4, 2),
        (32, 4, 4, 2),
        (64, 4, 4, 2),
    ]
    worst = 0.0
    worst_oracle = 0.0
    spans_ok = True
    counts_ok = True
    for q, m, L, n in grid:
        u = clock_matrix(1, q)
        xi = BranchFunction.principal(n)
        eta = BranchFunction.with_flipped_arc(n, -0.1, 0.1)  # flips eigenangle 0
        iso = amplification_iso_check([], u, xi, eta, m, L, seed=q)
        worst = max(
            worst,
            iso.multiplicativity_residual,
            iso.adjoint_residual,
            iso.module_residual,
        )
        worst_oracle = max(worst_oracle, iso.word_calculus_residual)
        spans_ok = spans_ok and iso.span_dims_equal
        # one base word per distinct power of u, at most 24
        counts_ok = counts_ok and iso.word_count == n * n * m * m * min(2 * L + 1, q, 24)
    elapsed = time.perf_counter() - start
    announce(
        8,
        worst <= 1e-8 and worst_oracle <= 1e-8 and spans_ok and counts_ok and elapsed <= 30.0,
        f"worst map residual {worst:.2e} (tol 1e-8), word-calculus oracle "
        f"{worst_oracle:.2e}, span dims {'equal' if spans_ok else 'UNEQUAL'}, "
        f"word counts {'ok' if counts_ok else 'WRONG'}, "
        f"{elapsed:.2f}s (limit 30s)",
    )


def test_criterion_9_multiplier_proxy():
    """Base words in the clock algebra stay inside the covering span; a
    noncommuting base element does not."""
    start = time.perf_counter()
    q = 16
    u = clock_matrix(1, q)
    tower = build_tower(u, 2, PRINCIPAL)
    hats = [CompactFunction.hat(c, 0.25, support_exponent=0) for c in (-0.5, 0.0, 0.5)]
    covers = [embed_compact_function(tower, f, 2) for f in hats]
    span = generate_span([u] + covers, 2)
    base_words = [np.eye(q), u, u.conj().T, u @ u]
    report = multiplier_membership_check(base_words, covers, span)
    worst = max(max(r["left_residual"], r["right_residual"]) for r in report)
    negative = multiplier_membership_check([shift_matrix(q)], covers, span)
    control = max(r["left_residual"] for r in negative)
    elapsed = time.perf_counter() - start
    announce(
        9,
        worst <= 1e-8 and control > 0.01 and elapsed <= 10.0,
        f"membership worst {worst:.2e} (tol 1e-8), negative control {control:.3f} "
        f"(needs > 0.01), {elapsed:.2f}s (limit 10s)",
    )


def test_criterion_10_cli_determinism(tmp_path):
    """Identical config + seed produce byte-identical reports modulo wall time."""
    config = {
        "seed": 17,
        "experiments": [
            {"kind": "anticommute_demo"},
            {"kind": "torus", "parameters": {"p": 1, "q": 5}},
            {"kind": "theta_tower", "parameters": {"p": 1, "q": 3, "steps": 3}},
            {"kind": "tower", "parameters": {"p": 1, "q": 8, "depth": 3}},
            {"kind": "span", "parameters": {"p": 1, "q": 2, "word_cap": 2,
                                            "expected_span_dim": 4}},
            {"kind": "lemma_iso", "parameters": {"p": 1, "q": 4, "n": 2, "m": 2,
                                                 "word_cap": 3}},
        ],
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    code1 = main(["run", str(cfg_path), "--out", str(out1)])
    code2 = main(["run", str(cfg_path), "--out", str(out2)])

    def strip_wall_time(text):
        report = json.loads(text)
        for entry in [report] + report["reports"]:
            del entry["wall_time_s"]
        return json.dumps(report, indent=2)

    text1, text2 = out1.read_text(), out2.read_text()
    identical = strip_wall_time(text1) == strip_wall_time(text2)
    announce(
        10,
        code1 == 0 and code2 == 0 and identical,
        f"exit codes ({code1}, {code2}), reports byte-identical after removing "
        f"wall-time keys: {identical}",
    )
