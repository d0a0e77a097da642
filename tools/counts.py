"""Print the solver counts of the benchmark's transports, master-equation oracles and ensembles.

Runs, with the package from the ``src`` directory next to this script:

- ``decay``'s four deviation grids, 41 x 51 to t = 5: FIG2 with
  geometric(3), FIG6 with geometric(3), FIG7 with h = x and FIG7 with
  h = x^2;
- ``reference``'s two 41 x 11 grids of ``perfbench/example.ini``, FIG2 with
  h = x^2 and with geometric(3);
- ``reference``'s 100 seeded points on FIG2 with h = x^2, as one batched
  ``solve_at`` and as 100 single calls (counts summed);
- one late query on x = 1, FIG2 with h = x^2 to t = 230, a lone curve
  whose coefficients are constant for most of its march;
- ``reference``'s three LSODA oracles on FIG2 with k_max = 200 and tol =
  1e-12: h = x^2 and geometric(3) to t = 1, and h = x^2 to t = 5;
- ``ensemble``'s two Gillespie ensembles of ``perfbench/example.ini``'s
  ``[mc]`` size (2000 nodes, 20 replicas, k_max = 60) at the sample times
  0, 0.05, 0.1, 0.2 and 0.5 with the seed argument: FIG2 on a degree-2
  ring and FIG6 on an Erdos-Renyi graph of mean degree 2.

Each march's stats are read from ``CharacteristicSolver.stats`` after
its call, since ``solve_difference_grid`` and ``solve_at`` return no
stats, and summed over the 100 single calls; each oracle's from
``DistributionTrajectory.stats``, and each ensemble's from its
``SimResult``, whose counts are summed over every worker process (a
wrapper around ``graphsim._draw`` sees only the calling process's share).
The counts depend on the arithmetic only, not on the machine's speed, so
two checkouts can be compared line by line where timings drift.  Next to the counts, each
transport's and each ensemble's output is fingerprinted: the first 12 hex
digits of a sha256 over the bytes of its arrays (a decay grid's D; G and
G_x of the other transports; an ensemble's mean and stderr),
so a change that must keep every bit shows whether it did.  Those bits
depend on the BLAS build and the CPU's SIMD paths, so a fingerprint is
compared only against the parent commit's on the same machine.  Needs
nothing beyond the standard library and the package's own dependencies.

Usage: python tools/counts.py [SEED]   (SEED defaults to 1, as perfbench/run.py --seed 1)

Prints one line per transport: ``<name> attempts <n> node_evals <n> steps <n> segments <n> sha256 <hex>``.
A march of one curve past t = 0 takes 30 node evaluations an attempt, any
other 14.  Then one line per oracle: ``<name> rhs_evals <n> jac_evals <n>
steps <n>``, LSODA's right-hand-side and Jacobian evaluations and its
accepted steps.  Last, one line per ensemble: ``<name> events <n> skips <n>
sha256 <hex>``, the events drawn and the placements skipped over all
replicas and processes.
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402  (the package's own dependency)

from degreeflow import InitialCondition, ProcessRates, config, graphsim  # noqa: E402
from degreeflow.characteristics import CharacteristicSolver, solve_grid  # noqa: E402
from degreeflow.degree_ode import integrate  # noqa: E402
from degreeflow.steady import steady_from_rates  # noqa: E402

FIG6 = ProcessRates(omega_r=0, omega_p=1, l_d=1, l_r=0, l_p=1, n_d=1, n_r=0, n_p=0, m=3)
FIG7 = ProcessRates(omega_r=1, omega_p=0, l_d=1, l_r=1, l_p=0, n_d=1, n_r=1, n_p=0, m=3)
EXAMPLE_INI = Path(__file__).resolve().parents[1] / "perfbench" / "example.ini"
ORACLE_K_MAX, ORACLE_TOL = 200, 1e-12  # perfbench's reference oracles
ENSEMBLE_TIMES = (0.0, 0.05, 0.1, 0.2, 0.5)  # perfbench's ensemble sample times


def _stratified(rng: np.random.Generator, n: int) -> np.ndarray:
    """perfbench's seeded draws: n values in (0, 1], one per stratum, in random order."""
    return rng.permutation((np.arange(n) + 1.0 - rng.random(n)) / n)


def _fingerprint(arrays) -> str:
    """The first 12 hex digits of the sha256 of the arrays' float64 bytes, in order."""
    digest = hashlib.sha256()
    for a in arrays:
        digest.update(np.ascontiguousarray(a, dtype=float).tobytes())
    return digest.hexdigest()[:12]


def main(argv: list[str]) -> int:
    seed = int(argv[1]) if len(argv) > 1 else 1
    cfg = config.parse_config(str(EXAMPLE_INI))
    fig2, square, geometric = cfg.rates, cfg.initial(), InitialCondition.geometric(3.0)
    linear = InitialCondition.polynomial([0, 1])
    rng = np.random.default_rng(seed)
    for _ in range(2):  # the reference workload's 1,000 trace_back points come first
        _stratified(rng, 1000)
    px, pt = 2.0 * _stratified(rng, 100) - 1.0, 5.0 * _stratified(rng, 100)
    xs, ts = np.linspace(-1.0, 1.0, 41), np.linspace(0.0, 5.0, 51)

    # each run returns its output arrays and the stats of its marches
    def decay(rates, h):
        def run():
            solver = CharacteristicSolver(rates, h)
            return [solver.solve_difference_grid(xs, ts, steady_from_rates(rates))], [solver.stats]

        return run

    def grid(x, t, h):
        def run():
            field = solve_grid(x, t, fig2, h)
            return [field.G, field.Gx], [field.stats]

        return run

    def points(batched):
        solver = CharacteristicSolver(fig2, h=square, t_max=5.0)
        if batched:
            return lambda: (solver.solve_at(px, pt), [solver.stats])

        def run():
            values, seen = [], []
            for x, t in zip(px.tolist(), pt.tolist()):
                values.append(solver.solve_at(x, t))
                seen.append(solver.stats)
            return np.array(values).T, seen

        return run

    runs = {
        "decay_fig2_geometric": decay(fig2, geometric),
        "decay_fig6_geometric": decay(FIG6, geometric),
        "decay_fig7_linear": decay(FIG7, linear),
        "decay_fig7_square": decay(FIG7, square),
        "reference_grid_square": grid(cfg.x_grid(), cfg.t_grid(), square),
        "reference_grid_geometric": grid(cfg.x_grid(), cfg.t_grid(), geometric),
        "points_batched": points(True),
        "points_single": points(False),
        "late_query_x1": grid([1.0], [0.0, 230.0], square),
    }
    for name, run in runs.items():
        arrays, seen = run()
        fingerprint = _fingerprint(arrays)
        total = {key: sum(st[key] for st in seen) for key in ("attempts", "node_evals", "steps", "segments")}
        print(name, " ".join(f"{key} {value}" for key, value in total.items()), "sha256", fingerprint)
    for name, h, t_end in (("oracle_square_t1", square, 1.0), ("oracle_geometric_t1", geometric, 1.0),
                           ("oracle_square_t5", square, 5.0)):
        stats = integrate(h.coefficients(ORACLE_K_MAX), fig2, t_end, tol=ORACLE_TOL).stats
        print(name, " ".join(f"{key} {stats[key]}" for key in ("rhs_evals", "jac_evals", "steps")))
    common = dict(n_nodes=cfg.mc_nodes, replicas=cfg.mc_replicas, k_max=cfg.mc_k_max, sample_times=ENSEMBLE_TIMES,
                  seed=seed, graph_degree=cfg.mc_graph_degree)
    for name, rates, graph in (("ensemble_fig2_ring", fig2, cfg.mc_graph), ("ensemble_fig6_erdos", FIG6, "erdos")):
        res = graphsim.run(graphsim.SimConfig(rates=rates, graph=graph, **common))
        print(name, "events", sum(res.events), "skips", sum(res.skips), "sha256", _fingerprint([res.mean, res.stderr]))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
