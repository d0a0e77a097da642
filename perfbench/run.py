"""degreeflow benchmark: one workload, one seed, one JSON line of metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload decay --seed 1 --seconds 25 --trace 0

With ``--trace 0`` it prints the end-to-end metrics (setup_s, run_s,
peak_rss_mb); with ``--trace 1`` the per-layer metrics of a traced pass.
The two times are scaled to a reference machine speed (speed.py), since
the speed of a shared machine drifts while the benchmark runs.
The last line of standard output is the result; a fuller report, with the
environment, every gate next to its bound and (traced) every span, is
written to perfbench/results/.  The package is imported from the
checkout's own src/ directory and nowhere else.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path

from speed import SpeedSampler

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RESULTS = ROOT / "perfbench" / "results"
SETUP_PROBES = 7
END_TO_END = {"setup_s": "s", "run_s": "s", "peak_rss_mb": "MiB"}


def import_package():
    """Import degreeflow from this checkout's src/, or exit without a result."""
    if not (SRC / "degreeflow" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no degreeflow sources in {SRC}; run it from a full checkout")
    sys.path.insert(0, str(SRC))
    import degreeflow

    found = Path(degreeflow.__file__).resolve().parent
    if found != SRC / "degreeflow":
        raise SystemExit(f"perfbench: imported degreeflow from {found}, expected {SRC / 'degreeflow'}")
    return degreeflow


def setup_probe(workload: str, seed: int) -> tuple[float, float]:
    """Scaled and unscaled time from before ``import degreeflow`` until the inputs are built."""
    with SpeedSampler(interval=0.05) as sampler:
        import_package()
        import studies

        studies.build_inputs(workload, seed)
    return sampler.scaled_s(), sampler.work_s()


def setup_seconds(workload: str, seed: int) -> list[tuple[float, float]]:
    """Set-up times of fresh interpreters, as every CLI invocation pays them."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    out = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120, check=False)
        if done.returncode != 0:
            raise SystemExit(f"perfbench: set-up probe failed:\n{done.stderr}")
        out.append(tuple(json.loads(done.stdout.strip().splitlines()[-1])))
    return out


def commit() -> str:
    """Commit of the checkout, read from .git without leaving the checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return "unknown (not a git checkout)"
    if not head.startswith("ref: "):
        return head
    ref = head[len("ref: "):]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return f"unknown ({ref})"


def environment(seed: int) -> dict:
    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "seed": seed,
        "commit": commit(),
    }


def gate_table(outcome: dict, bounds: dict) -> dict:
    return {k: {"measured": float(v), "bound": bounds[k], "ok": bool(v <= bounds[k])}
            for k, v in outcome["gates"].items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("decay", "reference", "ensemble"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if args.setup_probe:
        print(json.dumps(setup_probe(args.workload, args.seed)))
        return 0

    import_package()
    probes = [] if args.trace else setup_seconds(args.workload, args.seed)
    import harness
    import studies

    report = harness.measure(args.workload, args.seed, args.seconds, bool(args.trace))
    if args.trace:
        metrics = {k: {"value": v, "unit": harness.PER_LAYER[k][0]} for k, v in report["per_layer"].items()}
    else:
        values = {
            "setup_s": statistics.median(scaled for scaled, _ in probes),
            "run_s": report["run_s"],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}
    result = {"correct": report["correct"], "attempted": report["attempted"],
              "failed": report["failed"], "metrics": metrics}

    for o in report["outcomes"]:
        o["gates"] = gate_table(o, studies.BOUNDS)
    detail = {"workload": args.workload, "trace": args.trace, "seconds": args.seconds,
              "environment": environment(args.seed), "result": result,
              "setup_probes_scaled_and_work_s": probes, **{k: v for k, v in report.items() if k != "per_layer"}}
    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(detail, indent=1, default=float) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
