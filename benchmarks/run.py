#!/usr/bin/env python3
"""nclab benchmark: times ``nclab run`` end to end and, traced, layer by layer.

Usage, from the repository root:

    python3 benchmarks/run.py --workload towers --seed 1 --seconds 45 --trace 0

Every workload of BENCHMARK.json in turn, stopping at the first that fails:

    for w in towers batch; do
        python3 benchmarks/run.py --workload $w --seed 1 --seconds 45 --trace 0 || break
    done

The benchmark imports nclab from ``src/`` beside it, generates the workload
config from ``--seed`` (see ``workloads.py``), and drives the real CLI entry
point ``nclab.cli.main(["run", config, "--out", report])`` in this process
for ``--seconds`` seconds after one warm-up invocation.  The timings come
from the quietest quarter of the run (see ``untraced_run``).  Every report is
checked: the exit code, every configured check, and the closed-form oracle in
``oracle.py``.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; lines before it
give the same metrics by name with their units, the tail percentile used,
failures, and the environment.  The exit code is 0 only when nothing failed.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced invocations and reports the per-layer metrics of
``tracing.py``, plus ``trace_overhead_ratio``; the spans of the last traced
invocation are written to ``.bench_work/traces/<workload>.jsonl`` when the
run ends, one JSON row per span after a header row naming the fields.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

# The whole process runs on one core, pinned before numpy starts the BLAS
# threads so that they inherit it.  On two cores the CLI's two pool threads
# hand the GIL to each other across cores; each hand-off waits for the other
# core to wake, so an invocation took longer on two cores than on one (2.2 s
# against 1.7 s for towers) and its time followed the host's wake-up
# latency, not the program.  On one core wall time equals CPU time.
if hasattr(os, "sched_setaffinity"):
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

import numpy as np  # noqa: E402

import oracle  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

# Timed invocations per run at least, whatever --seconds says.
MIN_REPS = 16
# Share of a run's invocations, the fastest, that the timings are taken from.
QUIET_SHARE = 0.25
# The tail percentile of a workload is fixed from the quiet invocations of
# the floor (see tail_percentile), so it does not move with the machine's
# speed: four of them give p75 on towers (twelve experiments each) and p99.5
# on batch.
QUIET_FLOOR = int(MIN_REPS * QUIET_SHARE)
MIN_TRACED_PAIRS = 2
# Seconds reference_work takes on the host the timings are scaled to: the
# quiet-quarter median, rounded, on a 2-vCPU VM (OpenBLAS 0.3.31, numpy 2.4).
REFERENCE_HOST_S = 0.05
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.5, 99.9)
TAIL_BEYOND = 10

# Fresh interpreter to nclab.cli imported and the config parsed.
SETUP_SNIPPET = (
    "import json, sys\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import nclab.cli\n"
    "with open(sys.argv[2], encoding='utf-8') as fh:\n"
    "    nclab.cli.parse_config(json.load(fh))\n"
)

END_TO_END_UNITS = {
    "setup_s": "s",
    "report_s": "s",
    "experiment_s_p50": "s",
    "experiment_s_tail": "s",
    "peak_rss_mib": "MiB",
    "headroom_digits": "digits",
}


def per_layer_units() -> dict[str, str]:
    units = {}
    for name in tracing.traced_names():
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    units.update({
        "operators.operator_norm.work_d3": "count",
        "spans.span_dim_total": "count",
        "spans.iso_word_count": "count",
        "spans.iso_pair_count": "count",
        "cli.run_experiment.busy_s": "s",
        "cli.run_experiment.wait_s": "s",
        "cli.pool_busy_ratio": "ratio",
        "cli.report_bytes": "B",
        "trace_overhead_ratio": "ratio",
    })
    return units


def import_cli():
    """nclab.cli from this checkout's sources, never from an installed copy."""
    if not (SRC / "nclab" / "cli.py").is_file():
        raise SystemExit(f"benchmark: no nclab sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import nclab.cli

    if Path(nclab.cli.__file__).resolve().parent != (SRC / "nclab").resolve():
        raise SystemExit(f"benchmark: imported nclab from {nclab.cli.__file__}, not {SRC}")
    return nclab.cli


def blas_threads() -> dict[str, int] | None:
    """Thread count of every OpenBLAS loaded in this process, by library."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln and ".so" in ln})
    except OSError:
        return None
    names = [f"{pre}openblas_get_num_threads{suf}" for pre in ("scipy_", "") for suf in ("64_", "")]
    found = {}
    for path in libs:
        lib = ctypes.CDLL(path)
        fn = next((getattr(lib, n) for n in names if hasattr(lib, n)), None)
        if fn is not None:
            fn.restype = ctypes.c_int
            found[Path(path).name] = fn()
    return found


def environment() -> dict:
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        vendor = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        vendor = "unknown"
    return {
        "cpu_count": os.cpu_count(),
        "cpus_used": sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "blas": vendor,
        "blas_threads": blas_threads(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
    }


def measure_setup(cfg_path: Path) -> float:
    """Seconds from a fresh interpreter to nclab.cli imported and the config parsed."""
    cmd = [sys.executable, "-c", SETUP_SNIPPET, str(SRC), str(cfg_path)]
    start = time.perf_counter()
    subprocess.run(cmd, check=True, capture_output=True, timeout=120)
    return time.perf_counter() - start


def quiet(samples: list, key=None) -> list:
    """The fastest QUIET_SHARE of samples, at least one, ordered by ``key``.

    The machine is shared: a neighbour's load slows whole invocations for
    seconds at a time, and a median over a run still moves with how much of
    the run it covered.  The fastest quarter of a run is the part the
    neighbours left alone, and it repeats from run to run.
    """
    return sorted(samples, key=key)[:max(1, int(len(samples) * QUIET_SHARE))]


class Invoker:
    """Runs ``nclab run`` on the workload config and checks every report."""

    def __init__(self, cli, workload: str, config: dict, workdir: Path):
        self.cli = cli
        self.config = config
        self.cfg_path = workdir / "config.json"
        self.out_path = workdir / "report.json"
        self.cfg_path.write_text(json.dumps(config, indent=1), encoding="utf-8")
        self.tally = oracle.Tally()
        self.gate_determinism = workload in workloads.DETERMINISM_GATED
        self.first_core = None

    def __call__(self) -> tuple[float, dict | None]:
        self.out_path.unlink(missing_ok=True)
        start = time.perf_counter()
        try:
            code = self.cli.main(["run", str(self.cfg_path), "--out", str(self.out_path)])
        except Exception:  # a crash is a failed invocation, not a crashed benchmark
            traceback.print_exc()
            code = None
        elapsed = time.perf_counter() - start
        try:
            report = json.loads(self.out_path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            report = None
        oracle.check_report(self.config, code, report, self.tally)
        if self.gate_determinism and report is not None:
            core = oracle.deterministic_core(report)
            if self.first_core is None:
                self.first_core = core
            else:
                self.tally.expect(core == self.first_core,
                                  "report differs from the first beyond wall_time_s")
        return elapsed, report


def tail_percentile(samples_floor: int) -> float:
    """Highest ladder percentile with at least TAIL_BEYOND samples above it."""
    fitting = [p for p in TAIL_LADDER if samples_floor * (1 - p / 100) >= TAIL_BEYOND]
    return max(fitting, default=TAIL_LADDER[0])


def reference_work() -> float:
    """Seconds for a fixed mix of the kinds of work nclab does.

    Small complex Hermitian eigendecompositions and products, an
    interpreter-bound loop and JSON rendering, on one core like the
    invocations.  It never calls nclab, so a change to the program cannot
    move it; it moves with the speed the shared host gives this process.
    Its memory stays far below an invocation's, so ``peak_rss_mib`` is the
    program's.
    """
    rng = np.random.default_rng(0)
    a = rng.standard_normal((32, 32)) + 1j * rng.standard_normal((32, 32))
    herm = a + a.conj().T
    start = time.perf_counter()
    for _ in range(300):
        w, v = np.linalg.eigh(herm)
        (v * np.exp(1j * w)) @ v.conj().T
    total = 0
    for i in range(800_000):
        total += i % 7
    table = {str(i): [i * 0.5, "x"] for i in range(500)}
    for _ in range(40):
        json.dumps(table)
    return time.perf_counter() - start


def untraced_run(invoke: Invoker, seconds: float) -> tuple[dict, list[str]]:
    """Time invocations, each followed by one set-up measurement and one
    ``reference_work``, until the deadline.

    ``report_s`` and ``setup_s`` are the medians of the quiet (fastest)
    quarter of their samples; the experiment percentiles pool the
    per-experiment wall times of the quiet quarter of the invocations.  The
    host's speed drifts by a quarter over minutes, and every process on it
    with it, so each timing is then scaled by REFERENCE_HOST_S over the quiet
    median of ``reference_work``: seconds on a host as fast as the reference
    one.  The unscaled seconds are printed beside them.
    """
    measure_setup(invoke.cfg_path)  # warm-up: fills the bytecode cache
    invoke()  # warm-up: checked, not timed
    reference_work()
    runs, setups, refs, headroom = [], [], [], math.inf
    deadline = time.perf_counter() + seconds
    while len(runs) < MIN_REPS or time.perf_counter() < deadline:
        elapsed, report = invoke()
        exp_times = [] if report is None else [rep["wall_time_s"] for rep in report["reports"]]
        runs.append((elapsed, exp_times))
        if report is not None:
            headroom = min(headroom, oracle.headroom_digits(report))
        setups.append(measure_setup(invoke.cfg_path))
        refs.append(reference_work())
    invoke.tally.expect(math.isfinite(headroom), "no check with a positive threshold and value")
    quiet_runs, quiet_setups = quiet(runs, key=lambda run: run[0]), quiet(setups)
    exp_times = [t for _, times in quiet_runs for t in times]
    pct = tail_percentile(len(invoke.config["experiments"]) * QUIET_FLOOR)
    seconds_raw = {
        "setup_s": statistics.median(quiet_setups),
        "report_s": statistics.median(elapsed for elapsed, _ in quiet_runs),
        "experiment_s_p50": statistics.median(exp_times),
        "experiment_s_tail": float(np.percentile(exp_times, pct)),
    }
    slowdown = statistics.median(quiet(refs)) / REFERENCE_HOST_S
    metrics = {name: value / slowdown for name, value in seconds_raw.items()}
    metrics.update({
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "headroom_digits": headroom if math.isfinite(headroom) else 0.0,
    })
    notes = [
        f"host slowdown {slowdown:.6g}: reference work took {slowdown * REFERENCE_HOST_S:.6g} s "
        f"against {REFERENCE_HOST_S} s; unscaled seconds "
        + json.dumps({name: round(value, 6) for name, value in seconds_raw.items()}),
        f"report_s over the fastest {len(quiet_runs)} of {len(runs)} timed invocations",
        f"setup_s over the fastest {len(quiet_setups)} of {len(setups)} set-ups",
        f"experiment_s_tail is p{pct:g} of {len(exp_times)} experiment samples",
    ]
    return metrics, notes


def traced_run(invoke: Invoker, seconds: float, trace_path: Path) -> tuple[dict, list[str]]:
    invoke()  # warm-up: checked, not timed
    plain, traced, per_invocation = [], [], []
    deadline = time.perf_counter() + seconds
    while len(traced) < MIN_TRACED_PAIRS or time.perf_counter() < deadline:
        plain.append(invoke()[0])
        with tracing.Tracer() as tracer:
            traced.append(invoke()[0])
        per_invocation.append(tracing.layer_metrics(tracer.spans))
    trace_path.parent.mkdir(parents=True, exist_ok=True)
    with open(trace_path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(tracing.SPAN_FIELDS) + "\n")
        for span in tracer.spans:
            fh.write(json.dumps(tracing.span_row(span)) + "\n")
    metrics = tracing.median_metrics(per_invocation)
    metrics["trace_overhead_ratio"] = statistics.median(traced) / statistics.median(plain)
    notes = [
        f"per-layer metrics are medians over {len(traced)} traced invocations",
        f"{len(tracer.spans)} spans of the last one written to {trace_path.relative_to(ROOT)}",
    ]
    return metrics, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cli = import_cli()
    config = workloads.WORKLOADS[args.workload](args.seed)
    print("environment " + json.dumps(environment()), flush=True)
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        invoke = Invoker(cli, args.workload, config, workdir)
        if args.trace:
            trace_path = WORK / "traces" / f"{args.workload}.jsonl"
            metrics, notes = traced_run(invoke, args.seconds, trace_path)
            units = per_layer_units()
        else:
            metrics, notes = untraced_run(invoke, args.seconds)
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    tally = invoke.tally
    print(f"workload {args.workload}  seed {args.seed}  "
          f"{len(config['experiments'])} experiments per invocation")
    for name, unit in units.items():
        print(f"  {name:42s} {metrics[name]:.6g} {unit}")
    for note in notes:
        print(f"  ({note})")
    print(f"  check_fail_ratio {tally.failed / tally.attempted:.6g} "
          f"({tally.failed} of {tally.attempted} checks, invocations and oracle comparisons)")
    for reason in tally.reasons[:20]:
        print(f"  FAILED: {reason}")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result), flush=True)
    return 0 if tally.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
