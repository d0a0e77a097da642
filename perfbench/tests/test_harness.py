import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import scipy.integrate

import harness
import spans
import studies

REPO = Path(__file__).resolve().parents[2]


def _ok(inp):
    return studies.Check((1.0, [2.0, 3.0]), gates={"tv": 0.01})


def _raises(inp):
    raise TypeError("must be real number, not complex")


def _misses(inp):
    return studies.Check((0.0,), gates={"tv": 0.5}, verdicts={"bend": False})


def test_raising_task_is_counted_and_the_pass_goes_on():
    tasks = [studies.Task("a", _ok), studies.Task("b", _raises), studies.Task("c", _misses),
             studies.Task("d", _ok)]
    p = harness.run_pass(tasks, {})
    assert [o.task for o in p.outcomes] == ["a", "b", "c", "d"]
    assert [o.failed for o in p.outcomes] == [False, True, True, False]
    raised = p.outcomes[1]
    assert raised.error == "TypeError" and "complex" in raised.message and raised.digest is None
    assert p.outcomes[2].error is None and p.outcomes[2].failures == ["tv", "bend"]
    assert p.outcomes[0].digest == p.outcomes[3].digest


def test_measure_reports_failed_share_and_every_per_layer_metric(monkeypatch):
    tasks = (studies.Task("ok", _ok), studies.Task("raises", _raises))
    monkeypatch.setitem(studies.TASKS, "reference", tasks)
    monkeypatch.setattr(studies, "build_inputs", lambda workload, seed: {})
    plain = harness.measure("reference", 1, 0.0, trace=False)
    assert plain["attempted"] == 2 and plain["failed"] == 1
    assert plain["correct"]  # a raised task produced no output to judge
    traced = harness.measure("reference", 1, 0.0, trace=True)
    assert traced["attempted"] == 4 and traced["failed"] == 2
    assert set(traced["per_layer"]) == set(harness.PER_LAYER)
    assert traced["per_layer"]["gate.tv"] == 0.01
    assert traced["per_layer"]["trace.output_mismatches"] == 0


def _cheap_inputs():
    """Small versions of one task per workload, to compare traced and untraced numbers."""
    inp = studies.build_inputs("decay", 1)
    inp.update(studies.build_inputs("reference", 7))
    ens = studies.build_inputs("ensemble", 7)
    inp["sim_fig6"] = dataclasses.replace(ens["sim_fig6"], n_nodes=200, replicas=2)
    inp["trace_x"], inp["trace_t"] = inp["trace_x"][:50], inp["trace_t"][:50]
    inp["point_x"], inp["point_t"] = inp["point_x"][:3], inp["point_t"][:3]
    return inp


def test_traced_and_untraced_passes_give_identical_numbers():
    keep = {"fig6_geometric_algebraic", "oracle_grid_square", "trace_back_queries",
            "solve_at_queries", "criterion5_constants", "two_singularity_derivative", "fig6_erdos"}
    tasks = [t for w in studies.WORKLOADS for t in studies.TASKS[w] if t.name in keep]
    assert len(tasks) == len(keep)
    inputs = _cheap_inputs()
    plain = harness.run_pass(tasks, inputs)
    tracer = spans.Tracer()
    with tracer.installed(studies.trace_targets()):
        traced = harness.run_pass(tasks, inputs, tracer)
    assert [o.digest for o in plain.outcomes] == [o.digest for o in traced.outcomes]
    assert [o.error for o in plain.outcomes] == [o.error for o in traced.outcomes]
    m = harness.pass_metrics(traced, tracer)
    for key in ("characteristics.rhs_evals", "degree_ode.rhs_evals", "steady.quad_calls",
                "graphsim.events", "characteristics.trace_s", "analysis.decay_norms_self_s"):
        assert m[key] > 0, key
    # wrappers are gone again: untraced code runs unwrapped
    assert studies.characteristics.solve_ivp is scipy.integrate.solve_ivp


def test_benchmark_json_lists_the_metrics_the_benchmark_prints():
    import run

    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    assert {m["name"] for m in spec["end_to_end"]} == set(run.END_TO_END)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == harness.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(studies.WORKLOADS)


def test_refuses_to_run_without_the_package_sources(tmp_path):
    shutil.copytree(REPO / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "ensemble",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert "correct" not in done.stdout
