"""Configuration-driven experiment runner.

Reads a JSON experiment config, validates every experiment before the first
runs, and emits a machine-readable residual report (json), a flat table
(csv), or a human summary (text).  Exit code 0 means every configured check passed,
1 means some numerical check failed, 2 a config/schema problem, 3 an
unwritable output destination.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
import time
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, NamedTuple

import numpy as np

from . import __version__
from .roots import TOL_ROOT, BranchFunction
from .spans import MAX_BASE_WORDS, WORD_BUDGET, amplification_iso_check, generate_span
from .torus import (
    TOL_TORUS,
    TorusParams,
    anticommuting_root_example,
    clock_matrix,
    clock_shift,
    iterate_theta_halving,
)
from .towers import (
    MAX_TOWER_DEPTH,
    TOL_EMBED,
    CompactFunction,
    build_tower,
    max_level_independence,
)

DEFAULT_MAX_DIM = 128
# |p| <= 2**53, the range in which every integer is a float: the reported
# theta = p / q stays finite, and p survives readers that parse JSON numbers
# as doubles.
MAX_NUMERATOR = 2**53
# lemma_iso holds n*|a| rank rows of q**2 complex128 entries, 16 * n*|a| * q**2 bytes.
MAX_SPAN_BASIS_BYTES = 256 * 2**20
# generate_span's work grows as q**6: the full clock/shift algebra takes about
# 2 s at q = 32 on one core and 21 s at q = 48, so span stops at a few seconds.
MAX_SPAN_DIM = 32
TORUS_RESIDUALS = ("relation_residual", "clock_order_residual", "shift_order_residual")
# Residual fields of ThetaHalvingReport and AmplificationIsoReport, reported by name.
STEP_RESIDUALS = ("target_relation_residual", "image_relation_residual",
                  "image_clock_order_residual", "image_shift_order_residual")
ISO_RESIDUALS = ("multiplicativity_residual", "adjoint_residual", "module_residual",
                 "word_calculus_residual", "correction_order_residual")


class ConfigError(ValueError):
    """A config file failed schema validation."""


@dataclass
class ExperimentConfig:
    """A validated experiment; ``compute()`` returns the values of
    ``residuals``, in that order, and the report details."""

    kind: str
    name: str
    parameters: dict
    checks: dict
    seed: int
    residuals: tuple
    compute: Callable


def _read(obj: dict, key: str, where: str, default=None, integer=False, low=None, high=None):
    """``obj[key]``, or ``default`` if absent, as a finite number in [low, high],
    integral if ``integer``; ``ConfigError`` otherwise (strings, null, bools)."""
    if key not in obj:
        if default is None:
            raise ConfigError(f"{where} requires parameter '{key}'")
        return default
    value = obj[key]
    finite = isinstance(value, float) and np.isfinite(value)
    if not (finite or isinstance(value, int) and not isinstance(value, bool)):
        raise ConfigError(f"{where}: '{key}' must be a finite number, got {value!r}")
    if integer and value != int(value):
        raise ConfigError(f"{where}: '{key}' must be an integer, got {value!r}")
    value = int(value) if integer else float(value)
    if (low is not None and value < low) or (high is not None and value > high):
        bounds = f"at least {low}" if high is None else f"in {low}..{high}"
        raise ConfigError(f"{where}: '{key}' must be {bounds}, got {value!r}")
    return value


def _torus_params(params: dict, kind: str, max_dim: int) -> TorusParams:
    where = f"experiment kind '{kind}'"
    p = _read(params, "p", where, integer=True, low=-MAX_NUMERATOR, high=MAX_NUMERATOR)
    q = _read(params, "q", where, integer=True, low=1)
    if q > max_dim:
        raise ConfigError(f"{kind}: dimension {q} exceeds the maximum {max_dim}")
    return TorusParams(p, q)


def _branches_from_params(params: dict, depth: int) -> BranchFunction | list[BranchFunction]:
    choice = params.get("branches", "principal")
    if choice == "principal":
        return BranchFunction.principal(2)
    if not isinstance(choice, list):
        raise ConfigError("tower: 'branches' must be \"principal\" or a list of branch objects")
    if len(choice) != depth:
        raise ConfigError(f"tower: need {depth} branches, got {len(choice)}")
    try:
        branches = [BranchFunction.from_json(b) for b in choice]
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"tower: bad branch data: {exc}") from exc
    if any(b.n != 2 for b in branches):
        raise ConfigError("tower: every branch must be a square-root branch (n = 2)")
    return branches


@lru_cache(maxsize=16)
def _hat_family(count: int, spread: float, half_width: float) -> tuple[CompactFunction, ...]:
    """``count`` hats centered evenly on [-spread, spread], validated once per
    distinct family; the towers of a config share them and only read them."""
    centers = np.linspace(-spread, spread, count) if count > 1 else [0.0]
    return tuple(CompactFunction.hat(float(c), half_width, support_exponent=0) for c in centers)


def _functions_from_params(params: dict) -> list[CompactFunction]:
    choice = params.get("functions", {"hat_family": {}})
    if isinstance(choice, dict) and isinstance(choice.get("hat_family"), dict):
        fam = choice["hat_family"]
        count = _read(fam, "count", "tower: hat_family", 5, integer=True, low=1)
        spread = _read(fam, "max_center", "tower: hat_family", 0.6)
        half_width = _read(fam, "half_width", "tower: hat_family", 0.3)
        try:
            return list(_hat_family(count, spread, half_width))
        except ValueError as exc:
            raise ConfigError(f"tower: bad hat_family: {exc}") from exc
    if isinstance(choice, list) and choice:
        try:
            return [CompactFunction.from_json(f) for f in choice]
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"tower: bad function data: {exc}") from exc
    raise ConfigError("tower: 'functions' must be a non-empty list or {\"hat_family\": {...}}")


def _level_pairs_from_params(params: dict, min_level: int, depth: int) -> list[tuple[int, int]]:
    choice = params.get("level_pairs", "all")
    if choice == "all":
        return [(a, b) for a in range(min_level, depth + 1) for b in range(a + 1, depth + 1)]
    if not isinstance(choice, list) or not all(
        isinstance(pair, list)
        and len(pair) == 2
        and all(isinstance(k, int) and not isinstance(k, bool) for k in pair)
        for pair in choice
    ):
        raise ConfigError("tower: 'level_pairs' must be \"all\" or a list of integer pairs [a, b]")
    for a, b in choice:
        if not (min_level <= a <= depth and min_level <= b <= depth):
            raise ConfigError(f"tower: level pair ({a}, {b}) outside {min_level}..{depth}")
    return [(a, b) for a, b in choice]


# A reader takes (parameters, seed, max_dim), raises ConfigError for any input
# the computation would reject, and returns the residual names and the
# computation, which yields their values in order and the details.


def _read_anticommute(params: dict, seed: int, max_dim: int):
    def compute():
        witness = anticommuting_root_example()
        return [witness.square_residual, witness.anticommute_residual], {"dim": 2}

    return ("square_residual", "anticommute_residual"), compute


def _read_torus(params: dict, seed: int, max_dim: int):
    torus = _torus_params(params, "torus", max_dim)

    def compute():
        rep = clock_shift(torus, tol=np.inf)
        values = [rep.commutation_residual, rep.clock_order_residual, rep.shift_order_residual]
        return values, {"theta": torus.theta, "dim": torus.q}

    return TORUS_RESIDUALS, compute


def _read_theta_tower(params: dict, seed: int, max_dim: int):
    torus = _torus_params(params, "theta_tower", max_dim)
    steps = _read(params, "steps", "theta_tower", 3, integer=True, low=1)
    if torus.q == 1:
        # An integer theta is the commutative torus, and theta = 0 halves to
        # 0/1 at dimension 1 forever, which no dimension guard stops.
        raise ConfigError("theta_tower: p must not be a multiple of q")
    target = torus
    for _ in range(steps):
        target = target.halved()
        if target.q > max_dim:
            raise ConfigError(f"theta_tower: dimension {target.q} exceeds the maximum {max_dim}")

    def compute():
        reports = iterate_theta_halving(torus, steps, max_dim=max_dim, tol=np.inf)
        values = [getattr(rep, name) for rep in reports for name in STEP_RESIDUALS]
        values.append(max(r.image_relation_residual for r in reports))
        visited = [torus] + [r.target for r in reports]
        sequence = [f"{t.p}/{t.q}" for t in visited]
        return values, {"theta_sequence": sequence, "dims": [t.q for t in visited]}

    names = [f"step{i}_{name}" for i in range(steps) for name in STEP_RESIDUALS]
    return (*names, "max_image_relation_residual"), compute


def _read_tower(params: dict, seed: int, max_dim: int):
    torus = _torus_params(params, "tower", max_dim)
    depth = _read(params, "depth", "tower", 3, integer=True, low=1, high=MAX_TOWER_DEPTH)
    branches = _branches_from_params(params, depth)
    functions = _functions_from_params(params)
    min_level = max(f.support_exponent for f in functions)
    pairs = _level_pairs_from_params(params, min_level, depth)

    def compute():
        tower = build_tower(clock_matrix(torus.p, torus.q), depth, branches, tol_root=np.inf)
        max_indep = max(max_level_independence(tower, f, pairs) for f in functions)
        details = {"dim": torus.q, "depth": depth, "functions": len(functions), "pairs": len(pairs)}
        return [max(tower.residuals), max_indep], details

    return ("max_squaring_residual", "max_level_independence"), compute


def _read_span(params: dict, seed: int, max_dim: int):
    torus = _torus_params(params, "span", max_dim)
    if torus.q > MAX_SPAN_DIM:
        raise ConfigError(
            f"span: dimension {torus.q} exceeds the span limit {MAX_SPAN_DIM} "
            "(span time grows as q**6)"
        )
    word_cap = _read(params, "word_cap", "span", 2, integer=True, low=1)
    expected = None
    if "expected_span_dim" in params:
        expected = _read(params, "expected_span_dim", "span", integer=True, low=0)

    def compute():
        rep = clock_shift(torus)
        span = generate_span([rep.U, rep.V], word_cap)
        summary = span.report()["residual_summary"]
        values = [
            summary["max_generator_membership"],
            summary["max_basis_orthonormality_defect"],
            0 if expected is None else abs(span.span_dim - expected),
        ]
        return values, {"span_dim": span.span_dim, "word_cap": word_cap, "dim": torus.q}

    return ("max_generator_membership", "orthonormality_defect", "span_dim_error"), compute


def _read_lemma_iso(params: dict, seed: int, max_dim: int):
    torus = _torus_params(params, "lemma_iso", max_dim)
    n = _read(params, "n", "lemma_iso", 2, integer=True, low=1)
    m = _read(params, "m", "lemma_iso", 2, integer=True, low=1)
    word_cap = _read(params, "word_cap", "lemma_iso", 3, integer=True, low=1)
    flip_start = _read(params, "flip_start", "lemma_iso", 0.1)
    flip_end = _read(params, "flip_end", "lemma_iso", 1.2)
    flip_k = _read(params, "flip_k", "lemma_iso", 1, integer=True)
    try:
        xi = BranchFunction.principal(n)
        eta = BranchFunction.with_flipped_arc(n, flip_start, flip_end, flip_k)
    except ValueError as exc:
        raise ConfigError(f"lemma_iso: {exc}") from exc
    # The base words are powers u**k with |k| <= word_cap, at most q of them independent.
    base_words = min(2 * word_cap + 1, torus.q, MAX_BASE_WORDS)
    if 16 * n * base_words * torus.q**2 > MAX_SPAN_BASIS_BYTES:
        limit = MAX_SPAN_BASIS_BYTES >> 20
        raise ConfigError(f"lemma_iso: rank rows at q={torus.q}, n={n} exceed {limit} MiB")
    if n * n * base_words * m * m > WORD_BUDGET:
        raise ConfigError(f"lemma_iso: n={n}, m={m} give over {WORD_BUDGET} amplified words")

    def compute():
        u = clock_matrix(torus.p, torus.q)
        iso = amplification_iso_check([], u, xi, eta, m, word_cap, seed=seed)
        values = [getattr(iso, name) for name in ISO_RESIDUALS]
        values.append(abs(iso.domain_span_dim - iso.image_span_dim))
        counts = ("domain_span_dim", "image_span_dim", "word_count", "pair_count")
        return values, {k: getattr(iso, k) for k in counts}

    return (*ISO_RESIDUALS, "span_dim_mismatch"), compute


class Kind(NamedTuple):
    """An experiment kind: its default checks and its reader."""

    checks: dict
    read: Callable


KINDS = {
    "tower": Kind(
        {"max_squaring_residual": TOL_ROOT, "max_level_independence": TOL_EMBED}, _read_tower
    ),
    "torus": Kind(dict.fromkeys(TORUS_RESIDUALS, TOL_TORUS), _read_torus),
    "theta_tower": Kind({"max_image_relation_residual": 1e-9}, _read_theta_tower),
    "span": Kind({"span_dim_error": 0.0, "max_generator_membership": 1e-10}, _read_span),
    "lemma_iso": Kind(
        {**dict.fromkeys(ISO_RESIDUALS[:3], 1e-8), "span_dim_mismatch": 0.0}, _read_lemma_iso
    ),
    "anticommute_demo": Kind(
        {"square_residual": 0.0, "anticommute_residual": 0.0}, _read_anticommute
    ),
}


def parse_experiment(obj: dict, index: int, seed: int, max_dim: int) -> ExperimentConfig:
    if not isinstance(obj, dict):
        raise ConfigError(f"experiment {index} must be an object")
    kind = obj.get("kind")
    if kind not in KINDS:
        kinds = tuple(KINDS)
        raise ConfigError(f"experiment {index}: unknown kind {kind!r}; expected one of {kinds}")
    params = obj.get("parameters", {})
    if not isinstance(params, dict):
        raise ConfigError(f"experiment {index}: 'parameters' must be an object")
    user_checks = obj.get("checks", {})
    if not isinstance(user_checks, dict):
        raise ConfigError(f"experiment {index}: 'checks' must be an object")
    try:
        residuals, compute = KINDS[kind].read(params, seed, max_dim)
    except ConfigError as exc:
        raise ConfigError(f"experiment {index}: {exc}") from exc
    checks = dict(KINDS[kind].checks)
    checks.update({k: _read(user_checks, k, f"experiment {index} checks") for k in user_checks})
    unknown = [k for k in checks if k not in residuals]
    if unknown:
        raise ConfigError(
            f"experiment {index}: check '{unknown[0]}' does not match any residual "
            f"(available: {sorted(residuals)})"
        )
    name = str(obj.get("name", f"{kind}-{index}"))
    return ExperimentConfig(kind, name, params, checks, seed, residuals, compute)


def parse_config(
    data, seed_override: int | None = None, max_dim: int = DEFAULT_MAX_DIM
) -> tuple[list[ExperimentConfig], int]:
    """Accept a single experiment object, a list, or {"seed", "experiments"};
    every experiment is validated before any of them runs."""
    if isinstance(data, list):
        data = {"experiments": data}
    if not isinstance(data, dict):
        raise ConfigError("config must be a JSON object or list")
    if "experiments" in data:
        experiments = data["experiments"]
        if not isinstance(experiments, list) or not experiments:
            raise ConfigError("'experiments' must be a non-empty list")
    elif "kind" in data:
        experiments = [data]
    else:
        raise ConfigError("config needs 'experiments' or a top-level 'kind'")
    source = data if seed_override is None else {"seed": seed_override}
    seed = _read(source, "seed", "config", 0, integer=True, low=0)
    return [parse_experiment(e, i, seed, max_dim) for i, e in enumerate(experiments)], seed


def run_experiment(cfg: ExperimentConfig) -> dict:
    """Execute one parsed experiment and return its report entry."""
    start = time.perf_counter()
    values, details = cfg.compute()
    residuals = {k: float(v) for k, v in zip(cfg.residuals, values, strict=True)}
    checks = [
        {"name": k, "value": residuals[k], "threshold": t, "pass": residuals[k] <= t}
        for k, t in cfg.checks.items()
    ]
    return {
        "kind": cfg.kind,
        "name": cfg.name,
        "parameters": cfg.parameters,
        "seed": cfg.seed,
        "residuals": residuals,
        "details": details,
        "checks": checks,
        "pass": all(c["pass"] for c in checks),
        "wall_time_s": time.perf_counter() - start,
    }


def run_config(data, seed_override: int | None = None, max_dim: int = DEFAULT_MAX_DIM) -> dict:
    """Run every experiment in a parsed config; reports follow config order."""
    configs, seed = parse_config(data, seed_override, max_dim)
    start = time.perf_counter()
    reports = [run_experiment(c) for c in configs]
    return {
        "library_version": __version__,
        "seed": seed,
        "max_dim": max_dim,
        "pass": all(r["pass"] for r in reports),
        "reports": reports,
        "wall_time_s": time.perf_counter() - start,
    }


def render_json(report: dict) -> str:
    return json.dumps(report, indent=2) + "\n"


def render_csv(report: dict) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["experiment", "residual_name", "value", "threshold", "pass"])
    for rep in report["reports"]:
        checked = {c["name"]: c for c in rep["checks"]}
        for name, value in rep["residuals"].items():
            check = checked.get(name)
            threshold = "" if check is None else repr(check["threshold"])
            passed = "" if check is None else str(check["pass"]).lower()
            writer.writerow([rep["name"], name, repr(value), threshold, passed])
    return out.getvalue()


def render_text(report: dict) -> str:
    lines = [
        f"nclab {report['library_version']}  seed={report['seed']}  "
        f"overall={'PASS' if report['pass'] else 'FAIL'}"
    ]
    for rep in report["reports"]:
        lines.append(f"[{'PASS' if rep['pass'] else 'FAIL'}] {rep['name']} ({rep['kind']})")
        for check in rep["checks"]:
            verdict = "ok" if check["pass"] else "FAIL"
            lines.append(
                f"    {check['name']}: {check['value']:.3e} <= {check['threshold']:.3e} {verdict}"
            )
        unchecked = set(rep["residuals"]) - {c["name"] for c in rep["checks"]}
        for name in sorted(unchecked):
            lines.append(f"    {name}: {rep['residuals'][name]:.3e} (unchecked)")
    return "\n".join(lines) + "\n"


_RENDERERS = {"json": render_json, "csv": render_csv, "text": render_text}


def emit_report(report: dict, fmt: str = "json", out: str | None = None) -> str:
    """Render a report and write it to ``out`` (or stdout); returns the text."""
    if fmt not in _RENDERERS:
        raise ConfigError(f"unknown format {fmt!r}; expected one of {sorted(_RENDERERS)}")
    text = _RENDERERS[fmt](report)
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    return text


def _resolve_max_dim(cli_value: int | None) -> int:
    if cli_value is not None:
        return cli_value
    env = os.environ.get("NCLAB_MAX_DIM")
    if env is not None:
        try:
            return int(env)
        except ValueError as exc:
            raise ConfigError(f"NCLAB_MAX_DIM must be an integer, got {env!r}") from exc
    return DEFAULT_MAX_DIM


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nclab", description="run covering-construction experiments from a JSON config"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run experiments from a config file")
    run.add_argument("config", help="path to the JSON experiment config")
    run.add_argument("--format", choices=sorted(_RENDERERS), default="json")
    run.add_argument("--out", default=None, help="output path (default: stdout)")
    run.add_argument("--seed", type=int, default=None, help="override the config seed")
    run.add_argument(
        "--max-dim", type=int, default=None, help=f"dimension guard (default {DEFAULT_MAX_DIM})"
    )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        max_dim = _resolve_max_dim(args.max_dim)
        with open(args.config, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, ValueError) as exc:
        print(f"nclab: config error: {exc}", file=sys.stderr)
        return 2
    try:
        report = run_config(data, seed_override=args.seed, max_dim=max_dim)
    except ConfigError as exc:
        print(f"nclab: config error: {exc}", file=sys.stderr)
        return 2
    except (ArithmeticError, ValueError) as exc:
        print(f"nclab: numerical failure: {exc}", file=sys.stderr)
        return 1
    try:
        emit_report(report, args.format, args.out)
    except OSError as exc:
        print(f"nclab: cannot write report: {exc}", file=sys.stderr)
        return 3
    return 0 if report["pass"] else 1


if __name__ == "__main__":
    sys.exit(main())
