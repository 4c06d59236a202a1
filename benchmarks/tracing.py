"""Outside-in tracing of nclab's layers.

``Tracer`` wraps each layer's public functions from the benchmark's own code:
it replaces the function in every ``nclab`` module namespace that holds it,
so calls through an import (``from .operators import operator_norm``) and
calls inside the defining module are both seen.  Spans (name, start, end,
parent, thread) stay in memory; ``layer_metrics`` derives self times, counts
and ratios from them after the run.
"""

from __future__ import annotations

import itertools
import statistics
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass

import numpy as np


def _work_d3(args, result):
    """Sigma d^3 for an SVD-based norm: rows * cols * min(rows, cols)."""
    shape = np.shape(args[0])
    if len(shape) != 2:
        return 0
    rows, cols = shape
    return rows * cols * min(rows, cols)


# Layer -> traced functions, each with an optional extractor of a count.
LAYERS = {
    "operators": {
        "spectral_decompose": None,
        "apply_circle_function": None,
        "operator_norm": _work_d3,
    },
    "roots": {"nth_root_branch": None, "correction_unitary": None},
    "towers": {
        "build_tower": None,
        "embed_compact_function": None,
        "level_independence_residual": None,
    },
    "torus": {"clock_shift": None, "iterate_theta_halving": None},
    "spans": {
        "generate_span": lambda args, result: result.span_dim,
        "membership_residual": None,
        "amplification_iso_check": lambda args, result: (result.word_count, result.pair_count),
    },
    "cli": {
        "parse_config": None,
        "run_config": None,
        "run_experiment": None,
        "emit_report": lambda args, result: len(result.encode("utf-8")),
    },
}


@dataclass(frozen=True)
class Span:
    id: int
    parent: int  # 0 for a root span of its thread
    name: str
    thread: int
    start: float
    end: float
    value: object = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Context manager that installs span-recording wrappers on nclab."""

    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, extract):
        def traced(*args, **kwargs):
            stack = self._local.__dict__.setdefault("stack", [])
            sid = next(self._ids)
            parent = stack[-1] if stack else 0
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                end = time.perf_counter()
                self.spans.append(Span(sid, parent, name, threading.get_ident(), start, end))
                raise
            finally:
                stack.pop()
            end = time.perf_counter()
            # Counts are extracted outside the span, so they cost the span nothing.
            value = extract(args, result) if extract is not None else None
            self.spans.append(Span(sid, parent, name, threading.get_ident(), start, end, value))
            return result

        return traced

    def __enter__(self):
        modules = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "nclab"]
        for layer, functions in LAYERS.items():
            home = sys.modules[f"nclab.{layer}"]
            for fname, extract in functions.items():
                original = getattr(home, fname)
                traced = self._wrap(f"{layer}.{fname}", original, extract)
                for mod in modules:
                    if mod.__dict__.get(fname) is original:
                        setattr(mod, fname, traced)
                        self._patched.append((mod, fname, original))
        return self

    def __exit__(self, *exc):
        for mod, fname, original in reversed(self._patched):
            setattr(mod, fname, original)
        self._patched.clear()
        return False


def traced_names() -> list[str]:
    return [f"{layer}.{fname}" for layer, fns in LAYERS.items() for fname in fns]


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the time its child spans cover.

    Children run in their parent's thread and nest inside it, so the time
    they cover is the sum of their durations.
    """
    covered = defaultdict(float)
    for s in spans:
        if s.parent:
            covered[s.parent] += s.duration
    return {s.id: s.duration - covered[s.id] for s in spans}


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics of one traced ``nclab run`` invocation."""
    own = self_times(spans)
    by_name = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)
    out = {}
    for name in traced_names():
        out[f"{name}.calls"] = len(by_name[name])
        out[f"{name}.self_s"] = sum(own[s.id] for s in by_name[name])
    norms = by_name["operators.operator_norm"]
    out["operators.operator_norm.work_d3"] = sum(s.value for s in norms)
    out["spans.span_dim_total"] = sum(s.value for s in by_name["spans.generate_span"])
    iso = by_name["spans.amplification_iso_check"]
    out["spans.iso_word_count"] = sum(s.value[0] for s in iso)
    out["spans.iso_pair_count"] = sum(s.value[1] for s in iso)

    experiments = by_name["cli.run_experiment"]
    busy = sum(s.duration for s in experiments)
    # The pool receives every experiment as soon as the config is parsed.
    parsed = max((s.end for s in by_name["cli.parse_config"]), default=0.0)
    run_time = sum(s.duration for s in by_name["cli.run_config"])
    workers = len({s.thread for s in experiments})
    out["cli.run_experiment.busy_s"] = busy
    out["cli.run_experiment.wait_s"] = sum(max(0.0, s.start - parsed) for s in experiments)
    out["cli.pool_busy_ratio"] = busy / (workers * run_time) if workers and run_time else 0.0
    out["cli.report_bytes"] = sum(s.value for s in by_name["cli.emit_report"])
    return out


def median_metrics(per_invocation: list[dict[str, float]]) -> dict[str, float]:
    """Per-metric low median over invocations: always an observed value."""
    return {k: statistics.median_low(m[k] for m in per_invocation) for k in per_invocation[0]}


SPAN_FIELDS = ("id", "parent", "name", "thread", "start", "end")


def span_row(s: Span) -> list:
    """One span as a row in the order of ``SPAN_FIELDS``."""
    return [s.id, s.parent, s.name, s.thread, s.start, s.end]
