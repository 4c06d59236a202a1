"""Self-test of the benchmark: workloads, oracle, tracer and metric names.

Run from the repository root with ``python3 -m pytest benchmarks -q``.  It
sits outside the tier-1 ``testpaths`` so the library's suite is unchanged.
"""

from __future__ import annotations

import copy
import json
from pathlib import Path

import pytest

import oracle
import run
import tracing
import workloads

cli = run.import_cli()


def _tiny_report(name: str, tmp_path: Path) -> tuple[dict, int, dict]:
    config = workloads.WORKLOADS[name](7, tiny=True)
    cfg, out = tmp_path / "config.json", tmp_path / "report.json"
    cfg.write_text(json.dumps(config))
    code = cli.main(["run", str(cfg), "--out", str(out)])
    return config, code, json.loads(out.read_text())


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_workload_parses_and_passes_oracle(name, tmp_path):
    config = workloads.WORKLOADS[name](7, tiny=True)
    parsed, seed = cli.parse_config(config)
    assert seed == 7 and len(parsed) == len(config["experiments"])
    config, code, report = _tiny_report(name, tmp_path)
    tally = oracle.Tally()
    oracle.check_report(config, code, report, tally)
    assert tally.failed == 0, tally.reasons
    assert tally.attempted > len(config["experiments"])
    assert oracle.headroom_digits(report) > 1.0


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_same_config(name):
    gen = workloads.WORKLOADS[name]
    assert gen(3) == gen(3)
    assert len(gen(3)["experiments"]) == len(gen(4)["experiments"])


def test_batch_covers_every_kind():
    kinds = {e["kind"] for e in workloads.batch(1)["experiments"]}
    assert kinds == set(cli.KINDS)
    assert 900 <= len(workloads.batch(1)["experiments"]) <= 1100


def _failures(config, code, report) -> oracle.Tally:
    tally = oracle.Tally()
    oracle.check_report(config, code, report, tally)
    return tally


def test_corrupted_reports_count_as_failures(tmp_path):
    config, code, report = _tiny_report("batch", tmp_path)
    assert _failures(config, code, report).failed == 0

    wrong_dim = copy.deepcopy(report)
    next(r for r in wrong_dim["reports"] if r["kind"] == "span")["details"]["span_dim"] -= 1
    assert _failures(config, code, wrong_dim).failed == 1

    failed_check = copy.deepcopy(report)
    next(r for r in failed_check["reports"] if r["checks"])["checks"][0]["pass"] = False
    assert _failures(config, code, failed_check).failed == 1

    assert _failures(config, 1, report).failed == 1
    assert _failures(config, 0, None).failed == 1

    reordered = copy.deepcopy(report)
    reordered["reports"].reverse()
    assert _failures(config, code, reordered).failed >= 2


def test_oracle_catches_lemma_theta_and_negative_control(tmp_path):
    config, code, report = _tiny_report("batch", tmp_path)
    bad = copy.deepcopy(report)
    lemma = next(r for r in bad["reports"] if r["kind"] == "lemma_iso")
    lemma["details"]["image_span_dim"] += 1
    assert _failures(config, code, bad).failed == 1

    config, code, report = _tiny_report("towers", tmp_path)
    bad = copy.deepcopy(report)
    control = [r for r in bad["reports"] if r["name"].startswith(workloads.NEGATIVE_CONTROL)]
    assert len(control) == 1
    control[0]["residuals"]["max_level_independence"] = 1e-12
    assert _failures(config, code, bad).failed == 1

    config = {"seed": 0, "experiments": [
        {"kind": "theta_tower", "name": "t", "parameters": {"p": 2, "q": 3, "steps": 2}}]}
    good = {"reports": [{"name": "t", "kind": "theta_tower", "checks": [],
                         "details": {"theta_sequence": ["2/3", "1/3", "1/6"]}}]}
    assert _failures(config, 0, good).failed == 0
    good["reports"][0]["details"]["theta_sequence"][2] = "2/12"
    assert _failures(config, 0, good).failed == 1


def test_deterministic_core_drops_wall_time_by_key(tmp_path):
    _, _, first = _tiny_report("batch", tmp_path)
    _, _, second = _tiny_report("batch", tmp_path)
    assert first["wall_time_s"] != second["wall_time_s"]
    assert oracle.deterministic_core(first) == oracle.deterministic_core(second)
    second["reports"][0]["residuals"]["extra"] = 0.0
    assert oracle.deterministic_core(first) != oracle.deterministic_core(second)


def test_headroom_skips_zero_values_and_negative_controls():
    report = {"reports": [
        {"name": "a", "checks": [{"value": 1e-12, "threshold": 1e-9},
                                 {"value": 0.0, "threshold": 1e-9},
                                 {"value": 0.5, "threshold": 0.0}]},
        {"name": workloads.NEGATIVE_CONTROL + "-x",
         "checks": [{"value": 1.0, "threshold": 4.0}]},
    ]}
    assert oracle.headroom_digits(report) == pytest.approx(3.0)


def test_self_times_subtract_children():
    spans = [
        tracing.Span(1, 0, "a", 1, 0.0, 10.0),
        tracing.Span(2, 1, "b", 1, 1.0, 4.0),
        tracing.Span(3, 1, "b", 1, 5.0, 6.0),
        tracing.Span(4, 2, "c", 1, 2.0, 3.0),
    ]
    assert tracing.self_times(spans) == {1: 6.0, 2: 2.0, 3: 1.0, 4: 1.0}


def test_tracer_sees_imported_names_and_restores_them(tmp_path):
    import nclab.operators
    import nclab.spans

    original = nclab.operators.spectral_decompose
    config = {"seed": 7, "experiments": [workloads._span(f"span-q{q}", 1, q) for q in (2, 3)]}
    cfg, out = tmp_path / "config.json", tmp_path / "report.json"
    cfg.write_text(json.dumps(config))
    with tracing.Tracer() as tracer:
        assert nclab.spans.spectral_decompose is not original
        assert cli.main(["run", str(cfg), "--out", str(out)]) == 0
    assert nclab.spans.spectral_decompose is original
    assert nclab.operators.spectral_decompose is original
    metrics = tracing.layer_metrics(tracer.spans)
    assert metrics["operators.spectral_decompose.calls"] == 0
    assert metrics["spans.generate_span.calls"] == len(config["experiments"])
    assert metrics["spans.span_dim_total"] == sum(
        e["parameters"]["q"] ** 2 for e in config["experiments"])
    assert metrics["cli.report_bytes"] == len(out.read_bytes())
    assert set(metrics) | {"trace_overhead_ratio"} == set(run.per_layer_units())


def test_towers_trace_never_reaches_spans(tmp_path):
    config = workloads.towers(7, tiny=True)
    cfg, out = tmp_path / "config.json", tmp_path / "report.json"
    cfg.write_text(json.dumps(config))
    with tracing.Tracer() as tracer:
        assert cli.main(["run", str(cfg), "--out", str(out)]) == 0
    metrics = tracing.layer_metrics(tracer.spans)
    assert metrics["spans.generate_span.calls"] == 0
    assert metrics["operators.spectral_decompose.calls"] > 0
    assert metrics["towers.build_tower.calls"] == len(config["experiments"])


def test_tail_percentile_keeps_ten_samples_beyond():
    assert run.tail_percentile(20) == 50.0
    assert run.tail_percentile(40) == 75.0
    assert run.tail_percentile(5000) == 99.5
    towers = len(workloads.towers(1)["experiments"]) * run.QUIET_FLOOR
    assert run.tail_percentile(towers) > 50.0
    for n in (20, 40, 100, 1000, 5000):
        assert n * (1 - run.tail_percentile(n) / 100) >= run.TAIL_BEYOND


def test_quiet_keeps_the_fastest_quarter():
    assert run.quiet([5.0, 1.0, 4.0, 2.0, 3.0, 9.0, 7.0, 8.0]) == [1.0, 2.0]
    assert run.quiet([3.0]) == [3.0]


def test_benchmark_json_matches_emitted_metrics():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
