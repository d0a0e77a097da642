"""Run a workload's tasks in passes and turn the passes into metrics.

A pass runs every task of the workload once.  A task that raises or misses
a gate is counted as failed and the pass goes on.  Untraced passes give the
end-to-end ``run_s``; traced passes, which run with the recording wrappers
of ``studies.trace_targets`` installed, give the per-layer metrics.

Untraced passes run under a ``speed.SpeedSampler``, and ``run_s`` is the
pass time scaled to a reference machine speed (see speed.py).
"""

from __future__ import annotations

import hashlib
import statistics
import time
import warnings
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import IntegrationWarning

import spans
import studies
from speed import SpeedSampler

# Per-layer metric -> (unit, better).  Times are self times summed over the
# spans of that name in one traced pass (config.parse_s: in the set-up).
# A layer a workload does not call reads 0 there.
PER_LAYER = {
    "characteristics.diff_transport_s": ("s", "lower"),
    "characteristics.grid_s": ("s", "lower"),
    "characteristics.point_s": ("s", "lower"),
    "characteristics.trace_s": ("s", "lower"),
    "characteristics.ivp_calls": ("count", "lower"),
    "characteristics.rhs_evals": ("count", "lower"),
    "steady.build_s": ("s", "lower"),
    "steady.tabulate_s": ("s", "lower"),
    "steady.quad_calls": ("count", "lower"),
    "steady.rhs_evals": ("count", "lower"),
    "steady.integration_warnings": ("count", "lower"),
    "degree_ode.integrate_s": ("s", "lower"),
    "degree_ode.rhs_evals": ("count", "lower"),
    "degree_ode.gf_eval_s": ("s", "lower"),
    "graphsim.run_s": ("s", "lower"),
    "graphsim.events": ("count", "lower"),
    "graphsim.events_per_s": ("1/s", "higher"),
    "graphsim.skipped": ("count", "lower"),
    "analysis.decay_norms_self_s": ("s", "lower"),
    "analysis.fit_s": ("s", "lower"),
    "config.parse_s": ("s", "lower"),
    "bench.wall_s": ("s", "lower"),
    "bench.kernel_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "trace.output_mismatches": ("count", "lower"),
    **{f"gate.{name}": ("1", "lower") for name in studies.BOUNDS},
}

_SPAN_METRICS = {
    "characteristics.diff_transport": "characteristics.diff_transport_s",
    "characteristics.grid": "characteristics.grid_s",
    "characteristics.point": "characteristics.point_s",
    "characteristics.trace": "characteristics.trace_s",
    "steady.build": "steady.build_s",
    "steady.tabulate": "steady.tabulate_s",
    "degree_ode.integrate": "degree_ode.integrate_s",
    "degree_ode.gf_eval": "degree_ode.gf_eval_s",
    "graphsim.run": "graphsim.run_s",
    "analysis.decay_norms": "analysis.decay_norms_self_s",
    "analysis.fit": "analysis.fit_s",
    "config.parse": "config.parse_s",
}


@dataclass
class Outcome:
    task: str
    error: str | None = None  # exception type when the task raised
    message: str = ""
    failures: list[str] = field(default_factory=list)  # gates and verdicts missed
    gates: dict[str, float] = field(default_factory=dict)
    digest: str | None = None
    integration_warnings: int = 0

    @property
    def failed(self) -> bool:
        return self.error is not None or bool(self.failures)


def digest(output: tuple) -> str:
    h = hashlib.sha256()
    for item in output:
        arr = np.asarray(item, dtype=float)
        h.update(repr(arr.shape).encode())
        h.update(arr.tobytes())
    return h.hexdigest()


def run_task(task: studies.Task, inputs: dict) -> Outcome:
    out = Outcome(task.name)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            check = task.fn(inputs)
        except Exception as exc:  # a failing task is counted, and the pass goes on
            out.error, out.message = type(exc).__name__, str(exc)
        else:
            out.failures = check.failures()
            out.gates = check.gates
            out.digest = digest(check.output)
    out.integration_warnings = sum(issubclass(w.category, IntegrationWarning) for w in caught)
    return out


@dataclass
class Pass:
    outcomes: list[Outcome]
    sampler: SpeedSampler
    first_span: int | None = None  # index of the pass span when traced


def run_pass(tasks, inputs: dict, tracer: spans.Tracer | None = None) -> Pass:
    span = tracer.span if tracer is not None else (lambda name: nullcontext())
    outcomes = []
    with SpeedSampler() as sampler, span("pass") as idx:
        for task in tasks:
            with span(f"task.{task.name}"):
                outcomes.append(run_task(task, inputs))
    return Pass(outcomes, sampler, idx)


def pass_metrics(p: Pass, tracer: spans.Tracer) -> dict[str, float]:
    """Per-layer metrics of one traced pass (without the whole-run ones)."""
    inside = spans.subtree(tracer.spans, p.first_span)
    own = spans.self_time_by_name(tracer.spans, inside)
    counts = spans.count_totals(tracer.spans, inside)
    m = {metric: own.get(name, 0.0) for name, metric in _SPAN_METRICS.items()}
    for key in ("characteristics.ivp_calls", "characteristics.rhs_evals", "steady.quad_calls",
                "steady.rhs_evals", "degree_ode.rhs_evals", "graphsim.events", "graphsim.skipped"):
        m[key] = counts.get(key, 0)
    m["graphsim.events_per_s"] = m["graphsim.events"] / m["graphsim.run_s"] if m["graphsim.run_s"] else 0.0
    m["steady.integration_warnings"] = sum(o.integration_warnings for o in p.outcomes)
    for name in studies.BOUNDS:
        m[f"gate.{name}"] = max((o.gates[name] for o in p.outcomes if name in o.gates), default=0.0)
    return m


def mismatches(passes: list[Pass]) -> int:
    """Tasks whose numbers differ from the first pass's (all passes share inputs)."""
    first = passes[0].outcomes
    return sum(o.digest != f.digest for p in passes[1:] for o, f in zip(p.outcomes, first))


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Set up once, then run passes for about ``seconds``; return a report."""
    tasks = studies.TASKS[workload]
    tracer = spans.Tracer()
    targets = studies.trace_targets() if trace else []
    with tracer.installed(targets), tracer.span("setup"):
        inputs = studies.build_inputs(workload, seed)

    plain: list[Pass] = []
    traced: list[Pass] = []
    start = time.perf_counter()
    while True:
        if trace and len(traced) < len(plain):
            with tracer.installed(targets):
                traced.append(run_pass(tasks, inputs, tracer))
            last = traced[-1]
        else:
            plain.append(run_pass(tasks, inputs))
            last = plain[-1]
        enough = bool(plain) and (bool(traced) or not trace)
        if enough and time.perf_counter() - start + last.sampler.work_s() > seconds:
            break

    everything = plain + traced
    outcomes = [o for p in everything for o in p.outcomes]
    report = {
        "attempted": len(outcomes),
        "failed": sum(o.failed for o in outcomes),
        # a task that raised gave no output to judge; a missed gate is wrong output
        "correct": not any(o.failures for o in outcomes) and mismatches(everything) == 0,
        "run_s": statistics.median(p.sampler.scaled_s() for p in plain),
        "passes": {
            f"{label}_{key}": [getattr(p.sampler, key)() for p in group]
            for label, group in (("untraced", plain), ("traced", traced))
            for key in ("scaled_s", "work_s")
        },
        "outcomes": [vars(o) for o in plain[0].outcomes],
    }
    if trace:
        per_pass = [pass_metrics(p, tracer) for p in traced]
        layer = {k: statistics.median_low(m[k] for m in per_pass) for k in per_pass[0]}
        setup_own = spans.self_time_by_name(tracer.spans, spans.subtree(tracer.spans, 0))
        layer["config.parse_s"] = setup_own.get("config.parse", 0.0)
        layer["bench.wall_s"] = statistics.median(p.sampler.work_s() for p in plain)
        layer["bench.kernel_s"] = statistics.median(k for p in plain for k in p.sampler.kernel_s())
        layer["trace.overhead_s"] = statistics.median(p.sampler.scaled_s() for p in traced) - report["run_s"]
        layer["trace.output_mismatches"] = mismatches(everything)
        report["per_layer"] = layer
        report["tasks"] = task_breakdown(traced[0], tracer)
        report["spans"] = [
            {"name": s.name, "start": s.start, "end": s.end, "parent": s.parent, "counts": s.counts}
            for s in tracer.spans
        ]
    return report


def task_breakdown(p: Pass, tracer: spans.Tracer) -> dict:
    """Self time per span name and counts, for each task span of one pass."""
    out = {}
    for i, s in enumerate(tracer.spans):
        if s.parent == p.first_span:
            inside = spans.subtree(tracer.spans, i)
            out[s.name.removeprefix("task.")] = {
                "seconds": s.duration,
                "self_s": spans.self_time_by_name(tracer.spans, inside),
                "counts": spans.count_totals(tracer.spans, inside),
            }
    return out
