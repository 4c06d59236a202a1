"""Closed-form oracle and report arithmetic for the nclab benchmark.

The oracle checks a report against values known without running nclab:
clock/shift word spans fill the full q x q matrix algebra (the words
U^a V^b are a Hilbert-Schmidt orthogonal basis, Schwinger 1960), the
branch-swap map is a bijection on spans, halving theta = p/q visits
p/(q 2^k) in lowest terms, and a flipped-branch tower breaks level
independence.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction

from workloads import FLIPPED_INDEPENDENCE_MIN, NEGATIVE_CONTROL


@dataclass
class Tally:
    """Checks and oracle comparisons attempted and failed, with reasons."""

    attempted: int = 0
    failed: int = 0
    reasons: list = field(default_factory=list)

    def expect(self, ok: bool, reason: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.reasons.append(reason)


def _oracle_one(tally: Tally, exp: dict, rep: dict) -> None:
    name = exp.get("name", "?")
    params = exp.get("parameters", {})
    details = rep.get("details", {})
    kind = exp["kind"]
    if kind == "span":
        q = params["q"]
        tally.expect(details.get("span_dim") == q * q,
                     f"{name}: span_dim {details.get('span_dim')} != q^2 = {q * q}")
    elif kind == "lemma_iso":
        dom, img = details.get("domain_span_dim"), details.get("image_span_dim")
        tally.expect(dom is not None and dom == img,
                     f"{name}: domain span dim {dom} != image span dim {img}")
    elif kind == "theta_tower":
        p, q = params["p"], params["q"]
        thetas = (Fraction(p, q * 2**k) for k in range(params.get("steps", 3) + 1))
        want = [f"{t.numerator}/{t.denominator}" for t in thetas]
        got = details.get("theta_sequence")
        tally.expect(got == want, f"{name}: theta sequence {got} != {want}")
    if name.startswith(NEGATIVE_CONTROL):
        indep = rep.get("residuals", {}).get("max_level_independence", 0.0)
        tally.expect(indep >= FLIPPED_INDEPENDENCE_MIN,
                     f"{name}: flipped-branch violation {indep} < {FLIPPED_INDEPENDENCE_MIN}")


def check_report(config: dict, exit_code: int, report: dict | None, tally: Tally) -> None:
    """Tally the CLI exit code, every configured check and the oracle."""
    tally.expect(exit_code == 0, f"nclab run exited with {exit_code}")
    if report is None:
        tally.expect(False, "no report was written")
        return
    exps, reps = config["experiments"], report.get("reports", [])
    tally.expect(len(reps) == len(exps), f"{len(reps)} reports for {len(exps)} experiments")
    for exp, rep in zip(exps, reps):
        tally.expect(rep.get("name") == exp.get("name") and rep.get("kind") == exp["kind"],
                     f"report {rep.get('name')} out of config order (expected {exp.get('name')})")
        for check in rep.get("checks", []):
            tally.expect(check.get("pass") is True,
                         f"{rep.get('name')}: check {check.get('name')} failed "
                         f"({check.get('value')} > {check.get('threshold')})")
        _oracle_one(tally, exp, rep)


def headroom_digits(report: dict) -> float:
    """min over checks with a positive threshold of log10(threshold / value).

    Negative controls are left out: their thresholds are overridden to pass.
    A value of exactly 0 has unbounded headroom and does not set the minimum;
    with no finite candidate the result is infinite.
    """
    best = math.inf
    for rep in report["reports"]:
        if rep["name"].startswith(NEGATIVE_CONTROL):
            continue
        for check in rep["checks"]:
            if check["threshold"] > 0 and check["value"] > 0:
                best = min(best, math.log10(check["threshold"] / check["value"]))
    return best


def _drop_key(obj, key: str):
    if isinstance(obj, dict):
        return {k: _drop_key(v, key) for k, v in obj.items() if k != key}
    if isinstance(obj, list):
        return [_drop_key(v, key) for v in obj]
    return obj


def deterministic_core(report: dict) -> str:
    """The report rendered the way the CLI renders it, with every
    ``wall_time_s`` dropped by key."""
    return json.dumps(_drop_key(report, "wall_time_s"), indent=2) + "\n"
