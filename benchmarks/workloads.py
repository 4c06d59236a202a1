"""Workload generators for the nclab benchmark.

Each generator turns a seed into one ``nclab run`` config.  The seed picks
rotation numerators p coprime to q and, for ``batch``, the parameters and
order of the mix; the amount of work per kind is fixed, so runs with
different seeds measure the same load.  ``tiny=True`` shrinks a workload to a
fraction of a second for the self-test.

Negative controls carry a name starting with ``NEGATIVE_CONTROL``: their
overridden checks are left out of the headroom metric, and the oracle expects
them to show the violation they were built to show.
"""

from __future__ import annotations

import math
import random

NEGATIVE_CONTROL = "negative-control"

PRINCIPAL_SQRT = {"n": 2, "arcs": [{"start": -math.pi, "end": math.pi, "k": 0}]}
# Square-root branch that flips eigenangle 0 onto the other sheet.
FLIPPED_SQRT = {
    "n": 2,
    "arcs": [
        {"start": -math.pi, "end": -0.1, "k": 0},
        {"start": -0.1, "end": 0.1, "k": 1},
        {"start": 0.1, "end": math.pi, "k": 0},
    ],
}
# A flipped-branch tower breaks level independence by an order-one amount;
# the override keeps its check green while the oracle asserts the violation.
FLIPPED_INDEPENDENCE_MIN = 0.1
FLIPPED_INDEPENDENCE_THRESHOLD = 4.0


def coprime_numerator(rng: random.Random, q: int) -> int:
    return rng.choice([p for p in range(1, q) if math.gcd(p, q) == 1])


def _tower(name, p, q, depth, hats, branches="principal", checks=None):
    exp = {
        "kind": "tower",
        "name": name,
        "parameters": {
            "p": p,
            "q": q,
            "depth": depth,
            "branches": branches,
            "functions": {"hat_family": {"count": hats}},
            "level_pairs": "all",
        },
    }
    if checks:
        exp["checks"] = checks
    return exp


def _span(name, p, q):
    return {
        "kind": "span",
        "name": name,
        "parameters": {"p": p, "q": q, "word_cap": 2 * q, "expected_span_dim": q * q},
    }


def _lemma_iso(name, p, q, m, word_cap, n):
    return {
        "kind": "lemma_iso",
        "name": name,
        "parameters": {
            "p": p, "q": q, "n": n, "m": m, "word_cap": word_cap,
            "flip_start": -0.1, "flip_end": 0.1,
        },
    }


def towers(seed: int, tiny: bool = False) -> dict:
    """Eleven principal depth-20 towers at q=32 plus one flipped tower.

    Exists to time the spectral path: every level is a branch square root
    (``roots`` over ``operators.spectral_decompose``) and every hat is
    embedded at all level pairs (``towers`` over
    ``operators.apply_circle_function``).  Stresses ``operators``, ``roots``
    and ``towers``; bypasses ``spans`` entirely, so a span-only change must
    leave it unmoved.  Depth stays at 20, the depth acceptance criterion 2
    certifies; deeper towers fail at seed.

    Every tower has the same size, so the CLI pool runs them two by two and
    each experiment shares the core with one of its own kind.  A ladder of
    sizes (q = 8, 32, 128) made the per-experiment times depend on which
    small tower happened to run beside the large one, and their median and
    tail varied by up to 0.3 of the median from run to run.  Twelve towers
    at q=32 give an invocation of about two seconds, short enough for many
    invocations in a run, and enough experiments in the quietest quarter of
    them for a p75 tail (see ``run.py``).
    """
    rng = random.Random(seed)
    q, principal, depth, hats = (8, 2, 4, 3) if tiny else (32, 11, 20, 5)
    exps = [
        _tower(f"tower-{i}-q{q}", coprime_numerator(rng, q), q, depth, hats)
        for i in range(principal)
    ]
    exps.append(
        _tower(
            f"{NEGATIVE_CONTROL}-flipped-tower-q{q}",
            coprime_numerator(rng, q),
            q,
            depth,
            hats,
            branches=[FLIPPED_SQRT] + [PRINCIPAL_SQRT] * (depth - 1),
            checks={"max_level_independence": FLIPPED_INDEPENDENCE_THRESHOLD},
        )
    )
    return {"seed": seed, "experiments": exps}


def batch(seed: int, tiny: bool = False) -> dict:
    """About a thousand small experiments of all six kinds, in seeded order.

    Exists to time per-call cost: every matrix has dimension <= 64, so the
    Python work around each numpy call sets the time, and a change that
    speeds up large matrices but costs per call shows here.  It touches every
    layer; ``torus.clock_shift`` holds the largest self time and the ``cli``
    layer (validation, dispatch, pool and JSON rendering) a few percent.  It
    is the only workload with enough experiments for a meaningful
    ``experiment_s_tail``, and the only one that runs spans (q <= 4) and the
    amplified branch-swap check.  The count of each kind is fixed; the seed
    picks numerators and the order.
    """
    rng = random.Random(seed)
    reps = 1 if tiny else 4
    exps = []
    # torus: up to 4 numerators per q <= 64 (every coprime one for small q).
    for q in range(2, 17 if tiny else 65):
        coprime = [p for p in range(1, q) if math.gcd(p, q) == 1]
        for p in rng.sample(coprime, min(reps, len(coprime))):
            exps.append({"kind": "torus", "name": f"torus-{p}-{q}",
                         "parameters": {"p": p, "q": q}})
    for i in range(10 * reps):
        for q in range(2, 9):
            p = coprime_numerator(rng, q)
            exps.append({"kind": "theta_tower", "name": f"theta-{i}-{p}-{q}",
                         "parameters": {"p": p, "q": q, "steps": 3}})
    for i in range(6 * reps):
        for q in range(2, 9):
            exps.append(_tower(f"tower-{i}-q{q}", coprime_numerator(rng, q), q, 3, 3))
    for i in range(12 * reps):
        for q in (2, 3, 4):
            exps.append(_span(f"span-{i}-q{q}", coprime_numerator(rng, q), q))
    for i in range(3 * reps):
        for q in (2, 3):
            exps.append(_lemma_iso(f"lemma-{i}-q{q}", coprime_numerator(rng, q), q, 1, 2, 2))
    for i in range(35 * reps):
        exps.append({"kind": "anticommute_demo", "name": f"anticommute-{i}"})
    rng.shuffle(exps)
    return {"seed": seed, "experiments": exps}


WORKLOADS = {"towers": towers, "batch": batch}
# Every invocation of these must give the same report as the first, byte for
# byte once wall_time_s is dropped: batch has the most experiments on the CLI
# pool, so it is where a parallelism change would first break config order.
DETERMINISM_GATED = ("batch",)
