"""Command-line interface.

Subcommands: ``solve`` (PDE field on a grid), ``steady`` (stationary profile
and residuals), ``ode`` (truncated master-equation reference), ``mc``
(stochastic ensemble against the reference), and ``compare`` (field vs
stationary profile: norms, decay-law fit, bend detection, oracle deviation).
All numeric output files are CSV with 17-significant-digit floats and carry
the canonical config hash, so identical configurations reproduce identical
bytes.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import decay_norms, detect_bend, diff_norms, fit_rate
from .characteristics import solve_grid
from .config import ExperimentConfig, _parse_constants, parse_config
from .degree_ode import gf_eval, integrate
from .errors import DegreeFlowError, DomainError, NoSteadyStateError, ValidationError
from .graphsim import SimConfig, run
from .model import _RATE_FIELDS, Degeneracy, derive_riccati
from .riccati import solve_closed_form
from .steady import _away_from_singular, construct, explicit_constants, residual, steady_from_rates


def _fmt(v) -> str:
    return f"{float(v):.17g}"


def _write_csv(cfg: ExperimentConfig, name: str, header: list[str], rows) -> Path:
    """Write ``name`` into [output] dir, creating it, under the config hash; returns its path."""
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / name
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"# config_hash={cfg.hash}\n")
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")
    return path


def _steady_state(cfg: ExperimentConfig):
    """The stationary profile of [steady] constants when given, else of the rates."""
    if cfg.steady_constants is not None:
        return construct(explicit_constants(*cfg.steady_constants))
    return steady_from_rates(cfg.rates)


def _oracle(cfg: ExperimentConfig, t_end: float, histogram=None):
    """The master-equation reference on [0, t_end], or None when t_end is 0.

    It starts from [initial], or from ``histogram``, the ensemble's t = 0
    degree histogram up to [mc] k_max.  Either start must hold all of its
    mass but 1e-9 within its truncation: the mass beyond it has no place in
    the reference.
    """
    if histogram is None:
        p0 = cfg.initial().coefficients(cfg.oracle_k_max)
        source, beyond = "[initial]", f"[oracle] k_max = {cfg.oracle_k_max}; raise [oracle] k_max"
    else:
        p0 = np.zeros(cfg.oracle_k_max + 1)
        p0[: histogram.size] = histogram
        source, beyond = "the t = 0 histogram", f"[mc] k_max = {cfg.mc_k_max}; raise k_max"
    lost = 1.0 - float(p0.sum())
    if lost > 1e-9:
        raise ValidationError(f"{source} loses {lost:.3g} of its mass beyond {beyond}")
    if t_end == 0.0:
        return None
    return integrate(p0, cfg.rates, t_end, cfg.oracle_tol, cfg.oracle_mass_tol)


# -- subcommands -------------------------------------------------------------


def cmd_solve(cfg: ExperimentConfig) -> int:
    h = cfg.initial()
    x, t = cfg.x_grid(), cfg.t_grid()
    field = solve_grid(x, t, cfg.rates, h)
    rows = (
        (tj, xi, field.G[j, i], field.Gx[j, i])
        for j, tj in enumerate(t)
        for i, xi in enumerate(x)
    )
    path = _write_csv(cfg, "field.csv", ["t", "x", "G", "Gx"], rows)
    g = field.g
    _write_csv(cfg, "gmoment.csv", ["t", "g", "dg_dt"], ((tj, g(tj), g.derivative(tj)) for tj in t))
    print(f"solved field on {x.size} x {t.size} grid -> {path}")
    st = field.stats
    print(
        f"transport: {st['rhs_evals']} rhs evals, {st['steps']} steps, {st['segments']} segments, "
        f"flow {st['flow_rhs_evals']} rhs evals"
    )
    if np.any(x == 1.0):
        i1 = int(np.argmax(x == 1.0))
        closure = float(np.max(np.abs(field.Gx[:, i1] - g(t))))
        unit = float(np.max(np.abs(field.G[:, i1] - 1.0)))
        print(f"normalization max |G(1,t)-1| = {unit:.3e}")
        print(f"moment closure max |Gx(1,t)-g(t)| = {closure:.3e}")
    return 0


def cmd_steady(cfg: ExperimentConfig) -> int:
    state = _steady_state(cfg)
    constants = state.case.constants
    x = cfg.x_grid()
    values = state(x)
    res = np.full_like(x, np.nan)
    # the rates' constants are defined only when the first moment settles
    if constants.degeneracy is Degeneracy.REGULAR:
        ok = _away_from_singular(state.case, x)
        if np.any(ok):
            res[ok] = residual(state, constants, x[ok])
    path = _write_csv(cfg, "steady.csv", ["x", "g_star", "residual"], zip(x, values, res))
    print(f"case: {state.case.tag.value}")
    print(f"singular points: {list(state.case.singular_points)}")
    print(f"G*(1) = {state.value_at_one}")
    print(f"slope at 1 = {state.slope_at_one}")
    if state.value_at_ratio is not None:
        print(f"G*(c2/c1) = {state.value_at_ratio}")
    print(f"certified: {state.certified} ({state.note})")
    if np.any(np.isfinite(res)):
        print(f"max |residual| away from singular points = {np.nanmax(np.abs(res)):.3e}")
    print(f"wrote {path}")
    return 0


def cmd_ode(cfg: ExperimentConfig) -> int:
    h = cfg.initial()
    traj = _oracle(cfg, cfg.t_max)
    t = cfg.t_grid()
    rows = (
        (tj, k, dist.p[k])
        for tj in t
        for dist in (traj.at(float(tj)),)
        for k in range(dist.p.size)
    )
    path = _write_csv(cfg, "ode.csv", ["t", "k", "p"], rows)
    g0 = h.mean_degree
    g = solve_closed_form(derive_riccati(cfg.rates), g0) if g0 > 0.0 else None
    moments = []
    for tj in t:
        mu = traj.first_moment(float(tj))
        gv = g(float(tj)) if g is not None else float("nan")
        moments.append((tj, traj.mass(float(tj)), mu, gv, abs(mu - gv)))
    _write_csv(cfg, "ode_moments.csv", ["t", "mass", "first_moment", "g_closed", "gap"], moments)
    drift = max(abs(row[1] - 1.0) for row in moments)
    print(f"integrated master equation to t = {cfg.t_max} at k_max = {cfg.oracle_k_max}")
    st = traj.stats
    print(
        f"oracle: {st['rhs_evals']} rhs evals, {st['jac_evals']} jacobians, {st['steps']} steps, "
        f"tail weight p_K_max {st['tail_weight']:.3e}, "
        f"mass drift {st['mass_drift']:.3e} (mass_tol {cfg.oracle_mass_tol:.1e})"
    )
    print(f"max |mass - 1| on output grid = {drift:.3e}")
    if g is not None:
        print(f"max |first moment - closed form| = {max(row[4] for row in moments):.3e}")
    print(f"wrote {path}")
    return 0


def cmd_mc(cfg: ExperimentConfig) -> int:
    times = cfg.mc_sample_times
    if not times:
        raise ValidationError("[mc] sample_times must not be empty")
    if cfg.mc_k_max > cfg.oracle_k_max:
        raise ValidationError(
            f"[mc] k_max = {cfg.mc_k_max} exceeds [oracle] k_max = {cfg.oracle_k_max}"
        )
    # The reference starts from the ensemble's own t = 0 histogram, whatever
    # [initial] says; a t = 0 snapshot draws no random numbers.
    lead = 0 if times[0] == 0.0 else 1
    sim = SimConfig(
        rates=cfg.rates,
        n_nodes=cfg.mc_nodes,
        sample_times=(0.0,) * lead + times,
        seed=cfg.mc_seed,
        replicas=cfg.mc_replicas,
        graph=cfg.mc_graph,
        graph_degree=cfg.mc_graph_degree,
        k_max=cfg.mc_k_max,
    )
    result = run(sim)
    kk = cfg.mc_k_max + 1
    traj = _oracle(cfg, max(times), result.mean[0])
    rows = []
    tvs = []
    for j, tj in enumerate(times, start=lead):
        ref = traj.at(float(tj)).p[:kk] if tj > 0.0 else result.mean[0]
        mean = result.mean[j]
        # total variation with the truncated tails lumped into one bin
        tv = 0.5 * float(np.sum(np.abs(mean - ref))) + 0.5 * abs(
            (1.0 - mean.sum()) - (1.0 - ref.sum())
        )
        tvs.append(tv)
        for k in range(kk):
            rows.append((tj, k, mean[k], result.stderr[j, k], ref[k], tv))
    path = _write_csv(cfg, "mc.csv", ["t", "k", "mean", "stderr", "ode_p", "tv"], rows)
    print(
        f"simulated {cfg.mc_replicas} replicas of N = {cfg.mc_nodes} "
        f"({cfg.mc_graph} start, seed {cfg.mc_seed})"
    )
    for tj, tv in zip(times, tvs):
        print(f"t = {tj:g}: total variation vs reference = {tv:.4f}")
    # degree_counts drops the degrees beyond k_max from every snapshot
    dropped = max(0.0, 1.0 - float(result.mean[lead:].sum(axis=1).min()))
    print(f"histogram mass beyond [mc] k_max = {cfg.mc_k_max}: at most {dropped:.3g} over the sample times")
    if any(result.absorbed):
        print(f"absorbed replicas: {sum(result.absorbed)}/{cfg.mc_replicas}")
    if result.skipped:
        # each process is named by its rate in [rates]
        named = ", ".join(f"{name} {n}" for name, n in zip(_RATE_FIELDS, result.skips) if n)
        print(f"skipped placements: {result.skipped} ({named})")
    print(f"wrote {path}")
    return 0


def cmd_compare(cfg: ExperimentConfig) -> int:
    h = cfg.initial()
    x, t = cfg.x_grid(), cfg.t_grid()
    field = solve_grid(x, t, cfg.rates, h)
    state = _steady_state(cfg)
    # the transported deviation keeps its accuracy where a subtraction of
    # two fields bottoms out; it needs G* to solve the rates' own equation,
    # which explicit constants need not
    series = decay_norms(x, t, cfg.rates, h, state) if cfg.steady_constants is None else diff_norms(field, state)
    norms = _write_csv(
        cfg,
        "norms.csv",
        ["t", "sup_norm", "l2_norm", "argmax_x"],
        zip(series.times, series.sup_norm, series.l2_norm, series.argmax_x),
    )
    report: dict = {
        "config_hash": cfg.hash,
        "steady_case": state.case.tag.value,
        "certified": state.certified,
        "slope_at_one": state.slope_at_one,
    }
    window = (cfg.fit_t_min, cfg.fit_t_max if cfg.fit_t_max is not None else cfg.t_max)
    try:
        fit = fit_rate(series, window, cfg.fit_norm)
        report["fit"] = {
            "model": fit.model,
            "rate": fit.rate,
            "r_squared": fit.r_squared,
            "r2_exponential": fit.r2_exponential,
            "r2_algebraic": fit.r2_algebraic,
            "n_points": fit.n_points,
        }
        print(f"decay law ({cfg.fit_norm} norm, window {window}): {fit.model}, rate {fit.rate:.4f}, R^2 {fit.r_squared:.4f}")
    except (ValidationError, DomainError) as exc:
        report["fit"] = {"error": str(exc)}
        print(f"decay-law fit unavailable: {exc}")
    bend = detect_bend(series, boundary=float(x[0]), jump=cfg.bend_jump)
    report["bend_time"] = bend
    print(f"sup-norm maximizer bend: {bend}")
    try:
        traj = _oracle(cfg, cfg.t_max)
        dev = 0.0
        for j, tj in enumerate(t):
            ref = gf_eval(traj.at(float(tj)), x)
            dev = max(dev, float(np.max(np.abs(field.G[j] - ref))))
        report["oracle_max_abs_dev"] = dev
        print(f"max |G - oracle| on grid = {dev:.3e}")
    except DegreeFlowError as exc:
        report["oracle_max_abs_dev"] = None
        report["oracle_error"] = str(exc)
        print(f"oracle comparison unavailable: {exc}")
    fit_json = norms.with_name("fit.json")
    with open(fit_json, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {norms} and {fit_json}")
    return 0


# -- argument handling --------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors are invalid input (exit 1), not argparse's exit 2."""

    def error(self, message):
        raise ValidationError(f"{self.prog}: {message}")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="degreeflow",
        description="Degree-distribution dynamics of randomly evolving networks.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    common = _Parser(add_help=False)
    common.add_argument("--config", required=True, help="experiment INI file")
    common.add_argument("--out", help="output directory (overrides [output] dir)")
    common.add_argument("--seed", type=int, help="simulation seed (overrides [mc] seed)")
    common.add_argument("--kmax", type=int, help="truncation index (overrides [oracle] k_max)")
    common.add_argument(
        "--constants",
        help="explicit stationary constants c1,c2,c3,c4,m (overrides [steady] constants)",
    )
    for name, text in (
        ("solve", "solve the generating-function PDE on the configured grid"),
        ("steady", "construct the stationary profile and its residuals"),
        ("ode", "integrate the truncated master-equation reference"),
        ("mc", "run the stochastic ensemble against the reference"),
        ("compare", "compare the solved field against the stationary profile"),
    ):
        sub.add_parser(name, parents=[common], help=text)
    return parser


_HANDLERS = {
    "solve": cmd_solve,
    "steady": cmd_steady,
    "ode": cmd_ode,
    "mc": cmd_mc,
    "compare": cmd_compare,
}


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        cfg = parse_config(args.config)
        cfg = cfg.override(
            out_dir=args.out,
            mc_seed=args.seed,
            oracle_k_max=args.kmax,
            steady_constants=_parse_constants(args.constants) if args.constants else None,
        )
        return _HANDLERS[args.command](cfg)
    except (ValidationError, DomainError, OSError) as exc:
        # OSError: an input that cannot be read or an output that cannot be written
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NoSteadyStateError as exc:
        print(f"no steady state: {exc}", file=sys.stderr)
        return 3
    except DegreeFlowError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
