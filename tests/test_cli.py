"""Tests for the experiment runner: config parsing, reports, exit codes."""

import contextlib
import csv
import io
import json
import re
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from nclab.cli import (
    KINDS,
    MAX_NUMERATOR,
    MAX_SPAN_DIM,
    ConfigError,
    emit_report,
    main,
    parse_config,
    render_csv,
    render_json,
    render_text,
    run_config,
    run_experiment,
)
from nclab.operators import TOL_SPECTRAL
from nclab.spans import WORD_BUDGET
from nclab.towers import MAX_TOWER_DEPTH

ROOT = Path(__file__).parents[1]

FLIPPED_BRANCH = {
    "n": 2,
    "arcs": [
        {"start": -np.pi, "end": -0.1, "k": 0},
        {"start": -0.1, "end": 0.1, "k": 1},
        {"start": 0.1, "end": np.pi, "k": 0},
    ],
}

PRINCIPAL_BRANCH = {"n": 2, "arcs": [{"start": -np.pi, "end": np.pi, "k": 0}]}

TORUS = {"p": 1, "q": 3}

# Malformed values where numbers go, each of which must be a config error.
MALFORMED = {
    "string p": {"kind": "torus", "parameters": {"p": "x", "q": 3}},
    "fractional p": {"kind": "torus", "parameters": {"p": 1.5, "q": 3}},
    "huge p": {"kind": "torus", "parameters": {"p": 2**1100 + 1, "q": 3}},
    "nan q": {"kind": "torus", "parameters": {"p": 1, "q": float("nan")}},
    "string threshold": {
        "kind": "torus",
        "parameters": TORUS,
        "checks": {"relation_residual": "abc"},
    },
    "string seed": {"seed": "a", "experiments": [{"kind": "anticommute_demo"}]},
    "negative seed": {"seed": -1, "experiments": [{"kind": "lemma_iso", "parameters": TORUS}]},
    "bool seed": {"seed": True, "experiments": [{"kind": "anticommute_demo"}]},
    "m zero": {"kind": "lemma_iso", "parameters": {**TORUS, "m": 0}},
    "lemma word_cap zero": {"kind": "lemma_iso", "parameters": {**TORUS, "word_cap": 0}},
    "span word_cap zero": {"kind": "span", "parameters": {"p": 1, "q": 2, "word_cap": 0}},
    "null steps": {"kind": "theta_tower", "parameters": {**TORUS, "steps": None}},
    "string depth": {"kind": "tower", "parameters": {**TORUS, "depth": "3"}},
    "depth beyond limit": {"kind": "tower", "parameters": {**TORUS, "depth": MAX_TOWER_DEPTH + 1}},
    "hat_family list": {"kind": "tower", "parameters": {**TORUS, "functions": {"hat_family": []}}},
    "hat count zero": {
        "kind": "tower",
        "parameters": {**TORUS, "functions": {"hat_family": {"count": 0}}},
    },
    "no functions": {"kind": "tower", "parameters": {**TORUS, "functions": []}},
    "cube-root tower branch": {
        "kind": "tower",
        "parameters": {**TORUS, "depth": 1, "branches": [{**PRINCIPAL_BRANCH, "n": 3}]},
    },
    "theta zero": {"kind": "theta_tower", "parameters": {"p": 0, "q": 3, "steps": 1000}},
    "integer theta": {"kind": "theta_tower", "parameters": {"p": 6, "q": 3}},
}

# A tower at the documented depth and dimension limits: seconds of work that a
# bad experiment after it must not cost.
DEEP_TOWER = {
    "kind": "tower",
    "parameters": {
        "p": 3,
        "q": 128,
        "depth": MAX_TOWER_DEPTH,
        "functions": {"hat_family": {"count": 5}},
        "level_pairs": "all",
    },
}
LATE_ERRORS = {
    "malformed parameter": ({"kind": "torus", "parameters": {"p": "x", "q": 3}}, "finite number"),
    "unknown check": (
        {"kind": "torus", "parameters": TORUS, "checks": {"nope": 1.0}},
        "does not match",
    ),
    "theta past max_dim": (
        {"kind": "theta_tower", "parameters": {"p": 1, "q": 3, "steps": 6}},
        "exceeds the maximum 128",
    ),
}

# Small parameters for each kind.
SMALL = {
    "tower": {"p": 1, "q": 4, "depth": 2},
    "torus": TORUS,
    "theta_tower": {**TORUS, "steps": 2},
    "span": {"p": 1, "q": 2},
    "lemma_iso": {"p": 1, "q": 2, "m": 1, "word_cap": 1},
    "anticommute_demo": {},
}

_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-2, 6),
    st.floats(-3.5, 3.5),
    st.sampled_from([float("nan"), float("inf"), 0.5, 2.0]),
    st.text(max_size=2),
)
_VALUES = st.recursive(
    _SCALARS,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(
        st.sampled_from(["hat_family", "count", "max_center", "half_width", "n", "arcs", "k"]),
        inner,
        max_size=3,
    ),
    max_leaves=6,
)
_PARAMETER_KEYS = [
    "p", "q", "n", "m", "word_cap", "steps", "depth", "branches", "functions",
    "level_pairs", "expected_span_dim", "flip_start", "flip_end", "flip_k",
]
_EXPERIMENTS = st.fixed_dictionaries(
    {"kind": st.sampled_from([*KINDS, "bogus"])},
    optional={
        "parameters": st.fixed_dictionaries(
            {"p": st.integers(-2, 6), "q": st.integers(1, 9)},
            optional={key: _VALUES for key in _PARAMETER_KEYS[2:]},
        )
        | st.dictionaries(st.sampled_from(_PARAMETER_KEYS), _VALUES, max_size=6)
        | _VALUES,
        "checks": st.dictionaries(st.text(max_size=3), _SCALARS, max_size=2) | _VALUES,
        "name": _SCALARS,
    },
)
_CONFIGS = st.one_of(
    _EXPERIMENTS,
    st.lists(_EXPERIMENTS, max_size=3),
    st.fixed_dictionaries(
        {}, optional={"seed": _SCALARS, "experiments": st.lists(_EXPERIMENTS, max_size=3) | _VALUES}
    ),
    _VALUES,
)


def write_config(tmp_path, data, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def readme_config():
    """The example config of the README."""
    readme = (ROOT / "README.md").read_text()
    return json.loads(re.search(r"```json\n(.*?)```", readme, re.S).group(1))


class TestParseConfig:
    def test_single_experiment_object(self):
        configs, seed = parse_config({"kind": "torus", "parameters": {"p": 1, "q": 3}})
        assert len(configs) == 1
        assert configs[0].kind == "torus"
        assert seed == 0

    def test_bare_list(self):
        configs, _ = parse_config([{"kind": "anticommute_demo"}])
        assert configs[0].kind == "anticommute_demo"

    def test_seed_override(self):
        _, seed = parse_config({"seed": 3, "experiments": [{"kind": "anticommute_demo"}]}, 9)
        assert seed == 9

    def test_unknown_kind(self):
        with pytest.raises(ConfigError, match="unknown kind"):
            parse_config({"kind": "bogus"})

    def test_empty_experiments(self):
        with pytest.raises(ConfigError, match="non-empty"):
            parse_config({"experiments": []})

    def test_default_checks_merged(self):
        configs, _ = parse_config(
            {"kind": "torus", "parameters": {"p": 1, "q": 3}, "checks": {"relation_residual": 1e-6}}
        )
        assert configs[0].checks["relation_residual"] == 1e-6
        assert "clock_order_residual" in configs[0].checks


class TestRunExperiment:
    def _run(self, kind, parameters, **kw):
        configs, _ = parse_config({"kind": kind, "parameters": parameters, **kw})
        return run_experiment(configs[0])

    def test_anticommute(self):
        report = self._run("anticommute_demo", {})
        assert report["pass"]
        assert report["residuals"]["square_residual"] == 0.0
        assert report["residuals"]["anticommute_residual"] == 0.0

    def test_torus(self):
        report = self._run("torus", {"p": 1, "q": 3})
        assert report["pass"]
        assert report["residuals"]["relation_residual"] < 1e-10

    def test_theta_tower_sequence(self):
        report = self._run("theta_tower", {"p": 1, "q": 3, "steps": 3})
        assert report["pass"]
        assert report["details"]["theta_sequence"][:3] == ["1/3", "1/6", "1/12"]
        assert report["details"]["dims"][:3] == [3, 6, 12]

    def test_tower_principal(self):
        report = self._run("tower", {"p": 1, "q": 8, "depth": 3})
        assert report["pass"]

    def test_tower_flipped_branch_fails(self):
        report = self._run(
            "tower",
            {"p": 1, "q": 8, "depth": 2, "branches": [FLIPPED_BRANCH, PRINCIPAL_BRANCH]},
        )
        assert not report["pass"]
        assert report["residuals"]["max_level_independence"] > 0.1

    def test_span(self):
        report = self._run("span", {"p": 1, "q": 2, "word_cap": 2, "expected_span_dim": 4})
        assert report["pass"]
        assert report["details"]["span_dim"] == 4

    def test_lemma_iso(self):
        report = self._run("lemma_iso", {"p": 1, "q": 4, "n": 2, "m": 2, "word_cap": 3})
        assert report["pass"]
        assert report["details"]["domain_span_dim"] == report["details"]["image_span_dim"]

    def test_unknown_check_name(self):
        with pytest.raises(ConfigError, match="does not match"):
            parse_config({"kind": "torus", "parameters": {"p": 1, "q": 2}, "checks": {"nope": 1.0}})

    @pytest.mark.parametrize("kind", KINDS)
    def test_default_checks_name_reported_residuals(self, kind):
        (cfg,), _ = parse_config({"kind": kind, "parameters": SMALL[kind]})
        assert set(KINDS[kind].checks) <= set(run_experiment(cfg)["residuals"])

    def test_theta_step_checks_follow_steps(self):
        report = self._run(
            "theta_tower", {**TORUS, "steps": 2}, checks={"step1_image_relation_residual": 1e-9}
        )
        assert [c["name"] for c in report["checks"]][-1] == "step1_image_relation_residual"
        assert report["pass"]
        with pytest.raises(ConfigError, match="does not match"):
            parse_config(
                {
                    "kind": "theta_tower",
                    "parameters": {**TORUS, "steps": 2},
                    "checks": {"step2_image_relation_residual": 1e-9},
                }
            )

    def test_missing_parameter(self):
        with pytest.raises(ConfigError, match="requires parameter"):
            self._run("torus", {"p": 1})

    def test_dimension_guard(self):
        with pytest.raises(ConfigError, match="exceeds"):
            parse_config({"kind": "torus", "parameters": {"p": 1, "q": 300}})

    def test_tower_at_documented_depth_limit(self):
        report = run_config(DEEP_TOWER)["reports"][0]
        assert report["pass"]
        assert report["details"]["pairs"] == 49 * 48 // 2
        assert report["residuals"]["max_squaring_residual"] <= 1e-13
        assert report["residuals"]["max_level_independence"] == 0.0

    def test_span_time_guard_at_its_limit(self):
        assert MAX_SPAN_DIM == 32
        parse_config({"kind": "span", "parameters": {"p": 1, "q": 32}})
        with pytest.raises(ConfigError, match="span limit 32"):
            parse_config({"kind": "span", "parameters": {"p": 1, "q": 33}})

    def test_lemma_iso_memory_guard_at_its_limit(self):
        # The word guard bounds memory too: at q=128 and word_cap 12 (|a| = 24
        # base words), n=91 gives 198,744 amplified words and n=92 203,136.
        assert 24 * 91**2 <= WORD_BUDGET < 24 * 92**2
        params = {"p": 1, "q": 128, "word_cap": 12, "m": 1}
        (cfg,), _ = parse_config({"kind": "lemma_iso", "parameters": {**params, "n": 91}})
        with pytest.raises(ConfigError, match="amplified words"):
            parse_config({"kind": "lemma_iso", "parameters": {**params, "n": 92}})
        tracemalloc.start()
        try:
            report = run_experiment(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # Index arrays of the words and n*|a| rank rows of q entries: 18 MiB.
        assert peak < 32 * 2**20
        assert report["details"]["word_count"] == 24 * 91**2

    def test_lemma_iso_word_guard_at_its_limit(self):
        # n=2 and 2 base words at q=2: 8 * m**2 amplified words.
        assert 8 * 158**2 <= WORD_BUDGET < 8 * 159**2
        params = {"p": 1, "q": 2, "word_cap": 1}
        parse_config({"kind": "lemma_iso", "parameters": {**params, "m": 158}})
        with pytest.raises(ConfigError, match="amplified words"):
            parse_config({"kind": "lemma_iso", "parameters": {**params, "m": 159}})


class TestRendering:
    def _report(self):
        return run_config(
            {
                "seed": 2,
                "experiments": [
                    {"kind": "anticommute_demo"},
                    {"kind": "torus", "parameters": {"p": 1, "q": 3}},
                ],
            }
        )

    def test_json_round_trip(self):
        report = self._report()
        assert json.loads(render_json(report)) == report

    def test_csv_row_per_residual(self):
        report = self._report()
        lines = render_csv(report).strip().splitlines()
        assert lines[0] == "experiment,residual_name,value,threshold,pass"
        residual_count = sum(len(r["residuals"]) for r in report["reports"])
        assert len(lines) - 1 == residual_count

    def test_csv_quotes_names(self):
        name = 'a,b "x"'
        report = run_config({"name": name, "kind": "torus", "parameters": {"p": 1, "q": 3}})
        rows = list(csv.reader(io.StringIO(render_csv(report))))
        assert all(len(row) == 5 for row in rows)
        assert [row[0] for row in rows[1:]] == [name] * (len(rows) - 1)

    def test_csv_header_only_for_empty(self):
        report = {"reports": []}
        lines = render_csv(report).strip().splitlines()
        assert lines == ["experiment,residual_name,value,threshold,pass"]

    def test_text_mentions_experiments(self):
        text = render_text(self._report())
        assert "anticommute_demo" in text
        assert "overall=PASS" in text

    def test_emit_to_file(self, tmp_path):
        out = tmp_path / "report.json"
        emit_report(self._report(), "json", str(out))
        assert json.loads(out.read_text())["pass"]

    def test_emit_unknown_format(self):
        with pytest.raises(ConfigError, match="unknown format"):
            emit_report(self._report(), "yaml")

    def test_report_order_follows_config(self):
        report = run_config(
            {
                "experiments": [
                    {"kind": "torus", "parameters": {"p": 1, "q": 5}},
                    {"kind": "anticommute_demo"},
                    {"kind": "span", "parameters": {"p": 1, "q": 2, "word_cap": 2}},
                ]
            }
        )
        assert [r["kind"] for r in report["reports"]] == ["torus", "anticommute_demo", "span"]


class TestMainExitCodes:
    def test_success_exit_zero(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"kind": "torus", "parameters": {"p": 1, "q": 3}})
        assert main(["run", cfg]) == 0
        assert json.loads(capsys.readouterr().out)["pass"]

    def test_numerical_failure_exit_one(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            {
                "kind": "tower",
                "parameters": {"p": 1, "q": 8, "depth": 2,
                               "branches": [FLIPPED_BRANCH, PRINCIPAL_BRANCH]},
            },
        )
        assert main(["run", cfg]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["reports"][0]["residuals"]["max_level_independence"] > 0.1

    def test_schema_violation_exit_two(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"kind": "bogus"})
        assert main(["run", cfg]) == 2
        assert "config error" in capsys.readouterr().err

    def test_lemma_iso_at_the_dimension_limit(self, tmp_path, capsys):
        """lemma_iso at q=128 with the default n=2, m=2, word_cap=3: 0.02 s and a
        4.4 MiB tracemalloc peak on one core."""
        cfg = write_config(tmp_path, {"kind": "lemma_iso", "parameters": {"p": 1, "q": 128}})
        tracemalloc.start()
        try:
            assert main(["run", cfg]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20
        details = json.loads(capsys.readouterr().out)["reports"][0]["details"]
        assert details["domain_span_dim"] == details["image_span_dim"] == 112

    def test_span_over_time_limit_exit_two(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"kind": "span", "parameters": {"p": 1, "q": 33}})
        start = time.perf_counter()
        assert main(["run", cfg]) == 2
        assert time.perf_counter() - start < 1.0
        assert "span limit" in capsys.readouterr().err

    @pytest.mark.parametrize("late", LATE_ERRORS.values(), ids=LATE_ERRORS.keys())
    def test_late_config_error_runs_nothing(self, tmp_path, capsys, late):
        experiment, message = late
        cfg = write_config(tmp_path, {"experiments": [DEEP_TOWER, experiment]})
        start = time.perf_counter()
        assert main(["run", cfg]) == 2
        assert time.perf_counter() - start < 1.0
        captured = capsys.readouterr()
        assert "experiment 1: " in captured.err and message in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("pairs", [[[1]], "x", [[1, 2, 3]], [[1, "a"]]])
    def test_malformed_level_pairs_exit_two(self, tmp_path, capsys, pairs):
        cfg = write_config(
            tmp_path, {"kind": "tower", "parameters": {"p": 1, "q": 4, "level_pairs": pairs}}
        )
        assert main(["run", cfg]) == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("config", MALFORMED.values(), ids=MALFORMED.keys())
    def test_malformed_parameters_exit_two(self, tmp_path, capsys, config):
        assert main(["run", write_config(tmp_path, config)]) == 2
        assert "config error" in capsys.readouterr().err

    @settings(max_examples=150, deadline=None)
    @given(config=_CONFIGS)
    def test_any_small_config_exits_cleanly(self, config):
        # An exception escaping main would print a traceback; every outcome
        # must instead be one of the documented exit codes.
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "config.json"
            path.write_text(json.dumps(config))
            args = ["run", str(path), "--max-dim", "8", "--out", str(Path(tmp) / "r.json")]
            with contextlib.redirect_stderr(io.StringIO()) as err:
                code = main(args)
        assert code in (0, 1, 2)
        assert "Traceback" not in err.getvalue()

    @pytest.mark.parametrize("kind", ["torus", "theta_tower"])
    @pytest.mark.parametrize("sign", [1, -1])
    def test_numerator_at_its_limit(self, tmp_path, capsys, kind, sign):
        assert MAX_NUMERATOR == 2**53
        at_limit = {"kind": kind, "parameters": {"p": sign * MAX_NUMERATOR, "q": 3}}
        assert main(["run", write_config(tmp_path, at_limit)]) == 0
        report = json.loads(capsys.readouterr().out)["reports"][0]
        assert max(report["residuals"].values()) < 1e-14
        beyond = {"kind": kind, "parameters": {"p": sign * (MAX_NUMERATOR + 1), "q": 3}}
        assert main(["run", write_config(tmp_path, beyond)]) == 2
        assert "'p' must be in" in capsys.readouterr().err

    def test_no_run_calls_schur(self, tmp_path, capsys, monkeypatch):
        # Every CLI kind decomposes a clock, which is diagonal: the README
        # config and the largest tower and lemma_iso runs never reach Schur.
        def schur(*args, **kwargs):
            raise AssertionError("Schur called on a CLI path")

        monkeypatch.setattr(scipy.linalg, "schur", schur)
        config = readme_config()
        lemma = {"kind": "lemma_iso", "parameters": {"p": 1, "q": 128}}
        for data in (config, DEEP_TOWER, lemma):
            assert main(["run", write_config(tmp_path, data), "--format", "csv"]) == 0

    def test_no_run_imports_scipy(self, tmp_path):
        # In a fresh interpreter: the README config and a depth-20 tower at
        # q = 32 leave scipy.linalg unloaded; the first non-diagonal
        # decomposition loads it and still reconstructs its input.
        script = """
import json, sys
sys.path.insert(0, sys.argv[1])
import numpy as np
from nclab.cli import main
from nclab.operators import operator_norm, random_unitary, spectral_decompose
codes = [main(["run", path, "--format", "csv"]) for path in sys.argv[2:]]
after_runs = "scipy.linalg" in sys.modules
u = random_unitary(4, np.random.default_rng(0))
residual = operator_norm(spectral_decompose(u).reconstruct() - u)
print(json.dumps([codes, after_runs, "scipy.linalg" in sys.modules, residual]))
"""
        config = readme_config()
        tower = {"kind": "tower", "parameters": {"p": 3, "q": 32, "depth": 20}}
        paths = [write_config(tmp_path, data, f"{i}.json") for i, data in enumerate((config, tower))]
        proc = subprocess.run([sys.executable, "-c", script, str(ROOT / "src"), *paths],
                              capture_output=True, text=True, timeout=120, check=True)
        codes, after_runs, after_schur, residual = json.loads(proc.stdout.splitlines()[-1])
        assert codes == [0, 0]
        assert not after_runs
        assert after_schur
        assert residual <= TOL_SPECTRAL

    def test_invalid_json_exit_two(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["run", str(path)]) == 2

    def test_unwritable_exit_three(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"kind": "anticommute_demo"})
        assert main(["run", cfg, "--out", str(tmp_path / "no-such-dir" / "x.json")]) == 3

    def test_env_max_dim(self, tmp_path, capsys, monkeypatch):
        cfg = write_config(tmp_path, {"kind": "torus", "parameters": {"p": 1, "q": 50}})
        monkeypatch.setenv("NCLAB_MAX_DIM", "10")
        assert main(["run", cfg]) == 2
        monkeypatch.setenv("NCLAB_MAX_DIM", "64")
        assert main(["run", cfg]) == 0

    def test_cli_flag_beats_env(self, tmp_path, capsys, monkeypatch):
        cfg = write_config(tmp_path, {"kind": "torus", "parameters": {"p": 1, "q": 50}})
        monkeypatch.setenv("NCLAB_MAX_DIM", "10")
        assert main(["run", cfg, "--max-dim", "64"]) == 0
