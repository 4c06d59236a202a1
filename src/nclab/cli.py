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
    TorusParams,
    anticommuting_root_example,
    clock_matrix,
    clock_shift,
    iterate_theta_halving,
    shift_matrix,
)
from .towers import MAX_TOWER_DEPTH, CompactFunction, build_tower, max_level_independence

DEFAULT_MAX_DIM = 128
# |p| <= 2**53, the range in which every integer is a float: the reported
# theta = p / q stays finite, and p survives readers that parse JSON numbers
# as doubles.
MAX_NUMERATOR = 2**53
# generate_span's work grows as q**6: the full clock/shift algebra takes about
# 2 s at q = 32 on one core and 21 s at q = 48, so span stops at a few seconds.
MAX_SPAN_DIM = 32
# Hats in a hat_family.  At q = 128 and depth 48, over all 1,128 level pairs,
# 256 hats take about 3 ms with principal branches and 6 ms with a flipped
# first level (the experiment alone, one core): max_level_independence
# evaluates each hat once per run of equal levels, not once per level pair.
MAX_HATS = 256
# A difference of two values of a function is at most twice its largest
# modulus, and (1 + δ) times that stays finite: no Infinity in the report.
MAX_FUNCTION_MODULUS = sys.float_info.max / 4
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


def _number(value, name: str, integer=False, low=None, high=None):
    """``value`` as a finite number in [low, high], integral if ``integer``;
    ``ConfigError`` calling it ``name`` otherwise (strings, null, bools,
    integers beyond the range of a float)."""
    # The bound fails for NaN and the infinities too.
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if not (number and abs(value) <= sys.float_info.max):
        raise ConfigError(f"{name} must be a finite number, got {value!r}")
    if integer and value != int(value):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    value = int(value) if integer else float(value)
    if (low is not None and value < low) or (high is not None and value > high):
        bounds = f"at least {low}" if high is None else f"in {low}..{high}"
        raise ConfigError(f"{name} must be {bounds}, got {value!r}")
    return value


def _read(obj: dict, key: str, where: str, default=None, integer=False, low=None, high=None):
    """``obj[key]``, or ``default`` if absent, under the rule of :func:`_number`."""
    if key not in obj:
        if default is None:
            raise ConfigError(f"{where} requires parameter '{key}'")
        return default
    return _number(obj[key], f"{where}: '{key}'", integer, low, high)


def _require_known(obj: dict, known: tuple, where: str) -> None:
    """``ConfigError`` naming the first key of ``obj`` that is not in ``known``."""
    unknown = [k for k in obj if k not in known]
    if unknown:
        raise ConfigError(f"{where}: unknown key {unknown[0]!r}; accepted: {list(known)}")


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
    branches = []
    for i, branch in enumerate(choice):
        where = f"tower: branch {i}"
        bad = f"{where}: bad branch data"
        try:
            # Every branch of an equal run is read, since under == true equals 1.
            _read(branch, "n", bad, integer=True)
            for j, arc in enumerate(branch["arcs"]):
                for key in ("start", "end", "k"):
                    _read(arc, key, f"{bad}: arc {j}", integer=key == "k")
            # A run of equal branch objects shares one validated BranchFunction.
            if i == 0 or branch != choice[i - 1]:
                built = BranchFunction.from_json(branch)
        except ConfigError:
            raise
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"{bad}: {exc}") from exc
        if built.n != 2:
            raise ConfigError(f"{where}: every branch must be a square-root branch (n = 2)")
        branches.append(built)
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
        _require_known(choice, ("hat_family",), "tower: functions")
        fam = choice["hat_family"]
        _require_known(fam, ("count", "max_center", "half_width"), "tower: hat_family")
        count = _read(fam, "count", "tower: hat_family", 5, integer=True, low=1, high=MAX_HATS)
        spread = _read(fam, "max_center", "tower: hat_family", 0.6)
        half_width = _read(fam, "half_width", "tower: hat_family", 0.3)
        try:
            return list(_hat_family(count, spread, half_width))
        except ValueError as exc:
            raise ConfigError(f"tower: bad hat_family: {exc}") from exc
    if isinstance(choice, list) and choice:
        functions = []
        for i, data in enumerate(choice):
            where = f"tower: function {i}"
            bad = f"{where}: bad function data"
            try:
                # A support beyond the deepest tower leaves no level pair to compare.
                _read(data, "support_exponent", bad, integer=True, low=0, high=MAX_TOWER_DEPTH)
                for j, x in enumerate(data["breakpoints"]):
                    _number(x, f"{bad}: breakpoint {j}")
                for j, value in enumerate(data["values"]):
                    for part in value:
                        _number(part, f"{bad}: value {j}")
                f = CompactFunction.from_json(data)
            except ConfigError:
                raise
            except (KeyError, TypeError, ValueError, OverflowError) as exc:
                raise ConfigError(f"{bad}: {exc}") from exc
            if f.sup_norm() > MAX_FUNCTION_MODULUS:
                raise ConfigError(
                    f"{where}: values must have modulus at most {MAX_FUNCTION_MODULUS:.3e}"
                )
            functions.append(f)
        return functions
    raise ConfigError("tower: 'functions' must be a non-empty list or {\"hat_family\": {...}}")


@lru_cache(maxsize=16)
def _all_pairs(min_level: int, depth: int) -> np.ndarray:
    """Every level pair a < b in min_level..depth as a read-only (count, 2)
    array, built once per distinct range; the towers of a config share it."""
    first, second = np.triu_indices(depth - min_level + 1, 1)
    pairs = np.stack([first, second], axis=1) + min_level
    pairs.flags.writeable = False
    return pairs


def _level_pairs_from_params(params: dict, min_level: int, depth: int) -> np.ndarray:
    choice = params.get("level_pairs", "all")
    if choice == [] or (choice == "all" and min_level >= depth):
        # A check over no pair would pass whatever the tower does.
        raise ConfigError(
            f"tower: no level pair between support exponent {min_level} and depth {depth}"
        )
    if choice == "all":
        return _all_pairs(min_level, depth)
    if not isinstance(choice, list) or not all(
        isinstance(pair, list)
        and len(pair) == 2
        and all(isinstance(k, int) and not isinstance(k, bool) for k in pair)
        for pair in choice
    ):
        raise ConfigError("tower: 'level_pairs' must be \"all\" or a list of integer pairs [a, b]")
    for a, b in choice:
        if a == b or not (min_level <= a <= depth and min_level <= b <= depth):
            # A level compared with itself would pass whatever the branches do.
            raise ConfigError(f"tower: level pair ({a}, {b}) equal or outside {min_level}..{depth}")
    # Repeats would cost memory in every check and change no residual.
    return np.array(list(dict.fromkeys((a, b) for a, b in choice)))


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
        rep = clock_shift(torus)
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
        reports = iterate_theta_halving(torus, steps)
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
        tower = build_tower(clock_matrix(torus.p, torus.q), depth, branches)
        max_indep = max_level_independence(tower, functions, pairs)
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
        span = generate_span([clock_matrix(torus.p, torus.q), shift_matrix(torus.q)], word_cap)
        values = [
            span.max_generator_membership,
            span.orthonormality_defect(),
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
    # The base words are powers u**k with |k| <= word_cap, one per distinct eigenvalue at most.
    # The word budget bounds memory too: the largest arrays index the words.
    base_words = min(2 * word_cap + 1, torus.q, MAX_BASE_WORDS)
    if n * n * base_words * m * m > WORD_BUDGET:
        raise ConfigError(f"lemma_iso: n={n}, m={m} give over {WORD_BUDGET} amplified words")

    def compute():
        u = clock_matrix(torus.p, torus.q)
        iso = amplification_iso_check(u, xi, eta, m, word_cap, seed=seed)
        values = [getattr(iso, name) for name in ISO_RESIDUALS]
        values.append(abs(iso.domain_span_dim - iso.image_span_dim))
        counts = ("domain_span_dim", "image_span_dim", "word_count", "pair_count")
        return values, {k: getattr(iso, k) for k in counts}

    return (*ISO_RESIDUALS, "span_dim_mismatch"), compute


class Kind(NamedTuple):
    """An experiment kind: its default checks, its reader and the parameter keys it reads.

    The library measures residuals and judges none of them; these default
    thresholds, or a config's overrides, are the only pass/fail decision."""

    checks: dict
    read: Callable
    parameters: tuple


KINDS = {
    "tower": Kind(
        {"max_squaring_residual": TOL_ROOT, "max_level_independence": 1e-9}, _read_tower,
        ("p", "q", "depth", "branches", "functions", "level_pairs"),
    ),
    "torus": Kind(dict.fromkeys(TORUS_RESIDUALS, 1e-10), _read_torus, ("p", "q")),
    "theta_tower": Kind(
        {"max_image_relation_residual": 1e-9}, _read_theta_tower, ("p", "q", "steps")
    ),
    "span": Kind(
        {"span_dim_error": 0.0, "max_generator_membership": 1e-10}, _read_span,
        ("p", "q", "word_cap", "expected_span_dim"),
    ),
    "lemma_iso": Kind(
        {**dict.fromkeys(ISO_RESIDUALS[:3], 1e-8), "span_dim_mismatch": 0.0}, _read_lemma_iso,
        ("p", "q", "n", "m", "word_cap", "flip_start", "flip_end", "flip_k"),
    ),
    "anticommute_demo": Kind(
        {"square_residual": 0.0, "anticommute_residual": 0.0}, _read_anticommute, ()
    ),
}


def parse_experiment(obj: dict, index: int, seed: int, max_dim: int) -> ExperimentConfig:
    if not isinstance(obj, dict):
        raise ConfigError(f"experiment {index} must be an object")
    _require_known(obj, ("kind", "name", "parameters", "checks"), f"experiment {index}")
    kind = obj.get("kind")
    if kind not in KINDS:
        kinds = tuple(KINDS)
        raise ConfigError(f"experiment {index}: unknown kind {kind!r}; expected one of {kinds}")
    params = obj.get("parameters", {})
    if not isinstance(params, dict):
        raise ConfigError(f"experiment {index}: 'parameters' must be an object")
    _require_known(params, KINDS[kind].parameters, f"experiment {index}: {kind} parameters")
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
        _require_known(data, ("seed", "experiments"), "config")
        experiments = data["experiments"]
        if not isinstance(experiments, list) or not experiments:
            raise ConfigError("'experiments' must be a non-empty list")
    elif "kind" in data:
        experiments = [{k: v for k, v in data.items() if k != "seed"}]
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
    """The report as one compact line; ``python -m json.tool`` indents it."""
    # Only a one-shot json.dumps without indent reaches CPython's C encoder:
    # indent=2, or json.dump streaming to a file, takes the pure-Python
    # _make_iterencode, about 3x slower on a batch report.
    return json.dumps(report) + "\n"


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
        "--max-dim", type=int, default=DEFAULT_MAX_DIM, help="dimension guard (default %(default)s)"
    )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, ValueError) as exc:
        print(f"nclab: config error: {exc}", file=sys.stderr)
        return 2
    try:
        report = run_config(data, seed_override=args.seed, max_dim=args.max_dim)
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
