"""Command-line surface: subcommands, exit codes, reproducible files."""

import json
import re

import numpy as np
import pytest

from degreeflow import cli
from degreeflow.cli import main
from degreeflow.config import parse_config
from degreeflow.degree_ode import integrate
from degreeflow.errors import ValidationError

BASE = """\
[rates]
omega_r = 1
omega_p = 1
l_d = 1
l_r = 1
l_p = 0
n_d = 1
n_r = 1
n_p = 1
m = 3

[initial]
kind = polynomial
coeffs = 0, 0, 1

[grid]
x_min = -1
x_max = 1
x_points = 21
t_max = 0.5
t_points = 6

[mc]
nodes = 200
replicas = 2
seed = 7
sample_times = 0.05
k_max = 30

[output]
dir = {out}
"""


def _ini(tmp_path, body=BASE, name="exp.ini", outname="out"):
    out = tmp_path / outname
    path = tmp_path / name
    path.write_text(body.format(out=out))
    return str(path), out


def _load_csv(path):
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# config_hash=")
    data = np.genfromtxt(lines[2:], delimiter=",")
    return lines[0].split("=", 1)[1], lines[1].split(","), np.atleast_2d(data)


def test_solve_writes_field_and_moment(tmp_path, capsys):
    ini, out = _ini(tmp_path)
    assert main(["solve", "--config", ini]) == 0
    # the transport's counters on one line: one segment per output time after
    # t = 0, then the dense flow's count
    line = next(s for s in capsys.readouterr().out.splitlines() if s.startswith("transport:"))
    assert re.fullmatch(r"transport: \d+ rhs evals, \d+ steps, 5 segments, flow \d+ rhs evals", line)
    _, header, rows = _load_csv(out / "field.csv")
    assert header == ["t", "x", "G", "Gx"]
    assert rows.shape == (6 * 21, 4)
    # the x = 1 column stays normalized
    ones = rows[rows[:, 1] == 1.0]
    np.testing.assert_allclose(ones[:, 2], 1.0, atol=1e-9)
    _, mheader, mrows = _load_csv(out / "gmoment.csv")
    assert mheader == ["t", "g", "dg_dt"]
    assert mrows.shape == (6, 3)
    assert mrows[0, 1] == pytest.approx(2.0)


def test_solve_respects_out_flag(tmp_path):
    ini, _ = _ini(tmp_path)
    target = tmp_path / "elsewhere"
    assert main(["solve", "--config", ini, "--out", str(target)]) == 0
    assert (target / "field.csv").exists()


def test_config_hash_ignores_output_location(tmp_path):
    ini, out = _ini(tmp_path)
    a = tmp_path / "a"
    b = tmp_path / "b"
    assert main(["solve", "--config", ini, "--out", str(a)]) == 0
    assert main(["solve", "--config", ini, "--out", str(b)]) == 0
    assert (a / "field.csv").read_bytes() == (b / "field.csv").read_bytes()


def test_steady_with_explicit_constants(tmp_path, capsys):
    body = BASE.replace("x_points = 21", "x_points = 41")
    ini, out = _ini(tmp_path, body)
    code = main(["steady", "--config", ini, "--constants", "2,1,1,2,3"])
    assert code == 0
    _, header, rows = _load_csv(out / "steady.csv")
    assert header == ["x", "g_star", "residual"]
    at_half = rows[rows[:, 0] == 0.5][0]
    assert at_half[1] == pytest.approx(0.1, abs=1e-6)
    assert np.isnan(at_half[2])  # singular point: residual suppressed
    interior = rows[np.isfinite(rows[:, 2])]
    assert np.max(np.abs(interior[:, 2])) < 1e-6
    assert "two_singularity" in capsys.readouterr().out


def test_steady_from_rates_exit_codes(tmp_path, capsys):
    ini, out = _ini(tmp_path)
    assert main(["steady", "--config", ini]) == 0
    assert (out / "steady.csv").exists()
    # two-singularity rates with alpha ~ 33.7: an accurate profile or a
    # numerical failure, never a certified profile that misses its equation
    rates = ("omega_r = 0\nomega_p = 0\nl_d = 1.92\nl_r = 0\nl_p = 0.8\n"
             "n_d = 0\nn_r = 0.84\nn_p = 1.26\nm = 1\n")
    body = BASE[:BASE.index("omega_r")] + rates + BASE[BASE.index("\n[initial]"):]
    ini, _ = _ini(tmp_path, body, name="alpha34.ini", outname="alpha34")
    capsys.readouterr()
    code = main(["steady", "--config", ini])
    printed = capsys.readouterr().out
    assert code in (0, 2)
    if code == 0:
        line = next(ln for ln in printed.splitlines() if ln.startswith("max |residual|"))
        assert float(line.split("=")[1]) <= 1e-6


def test_divergent_rates_exit_code(tmp_path):
    body = BASE.replace("omega_r = 1", "omega_r = 0")
    body = body.replace("omega_p = 1", "omega_p = 0")
    body = body.replace("l_d = 1", "l_d = 0")
    body = body.replace("n_d = 1", "n_d = 0")
    body = body.replace("n_r = 1", "n_r = 0")
    body = body.replace("n_p = 1", "n_p = 0")
    body = body.replace("m = 3", "m = 0")
    body = body.replace("coeffs = 0, 0, 1", "coeffs = 0, 1")
    ini, _ = _ini(tmp_path, body)
    assert main(["steady", "--config", ini]) == 3


def test_invalid_config_exit_code(tmp_path, capsys):
    body = BASE.replace("omega_r = 1", "omega_r = -1")
    ini, _ = _ini(tmp_path, body)
    assert main(["steady", "--config", ini]) == 1
    assert "error:" in capsys.readouterr().err


def test_missing_config_exit_code(tmp_path, capsys):
    assert main(["solve", "--config", str(tmp_path / "nope.ini")]) == 1
    assert "error:" in capsys.readouterr().err


def test_ode_moment_columns(tmp_path, capsys):
    ini, out = _ini(tmp_path)
    assert main(["ode", "--config", ini]) == 0
    # the solver counters and the mass drift next to its bound, on one line
    line = next(s for s in capsys.readouterr().out.splitlines() if s.startswith("oracle:"))
    assert " rhs evals, " in line and " jacobians, " in line and " steps, " in line
    assert " tail weight p_K_max " in line
    assert line.endswith("(mass_tol 1.0e-06)")
    _, header, rows = _load_csv(out / "ode_moments.csv")
    assert header == ["t", "mass", "first_moment", "g_closed", "gap"]
    np.testing.assert_allclose(rows[:, 1], 1.0, atol=1e-8)
    assert np.max(rows[:, 4]) < 1e-6
    _, _, dist_rows = _load_csv(out / "ode.csv")
    assert dist_rows.shape[1] == 3


def test_initial_truncated_at_the_oracle_k_max_is_invalid_input(tmp_path, capsys):
    # a geometric [initial] with rho = 1.2 keeps 2.2e-2 of its mass beyond
    # [oracle] k_max = 20: the oracle cannot start from it, and the message
    # names [initial], the lost mass and the key to raise
    body = BASE.replace("kind = polynomial\ncoeffs = 0, 0, 1", "kind = geometric\nrho = 1.2")
    ini, out = _ini(tmp_path, body + "\n[oracle]\nk_max = 20\n")
    message = "[initial] loses 0.0217 of its mass beyond [oracle] k_max = 20; raise [oracle] k_max"
    assert main(["ode", "--config", ini]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    # compare reports its oracle as unavailable and still writes its norms
    assert main(["compare", "--config", ini]) == 0
    assert json.loads((out / "fit.json").read_text())["oracle_error"] == message


def test_mc_is_byte_reproducible(tmp_path):
    ini, _ = _ini(tmp_path)
    a = tmp_path / "ra"
    b = tmp_path / "rb"
    assert main(["mc", "--config", ini, "--out", str(a)]) == 0
    assert main(["mc", "--config", ini, "--out", str(b)]) == 0
    assert (a / "mc.csv").read_bytes() == (b / "mc.csv").read_bytes()


def test_mc_seed_changes_output(tmp_path):
    ini, _ = _ini(tmp_path)
    a = tmp_path / "sa"
    b = tmp_path / "sb"
    assert main(["mc", "--config", ini, "--out", str(a)]) == 0
    assert main(["mc", "--config", ini, "--out", str(b), "--seed", "8"]) == 0
    assert (a / "mc.csv").read_bytes() != (b / "mc.csv").read_bytes()


def test_mc_scores_against_the_ensemble_start(tmp_path, capsys):
    # an erdos start differs from [initial]; the reference must start from
    # the sampled graphs, not from h (scored against h, TV is about 0.23)
    body = BASE.replace("k_max = 30", "k_max = 30\ngraph = erdos\ngraph_degree = 2")
    body = body.replace("nodes = 200", "nodes = 1000").replace("replicas = 2", "replicas = 4")
    ini, out = _ini(tmp_path, body)
    assert main(["mc", "--config", ini]) == 0
    _, header, rows = _load_csv(out / "mc.csv")
    assert header == ["t", "k", "mean", "stderr", "ode_p", "tv"]
    np.testing.assert_array_equal(np.unique(rows[:, 0]), [0.05])  # configured times only
    assert np.max(rows[:, 5]) <= 0.05
    # a start whose degrees run past [mc] k_max cannot be a reference
    ini, _ = _ini(tmp_path, body.replace("k_max = 30", "k_max = 2"), name="short.ini")
    capsys.readouterr()
    assert main(["mc", "--config", ini]) == 1
    assert "raise k_max" in capsys.readouterr().err
    # nor can a reference truncated below the histogram
    ini, _ = _ini(tmp_path, body, name="kmax.ini")
    assert main(["mc", "--config", ini, "--kmax", "20"]) == 1
    assert capsys.readouterr().err.startswith("error:")
    ini, _ = _ini(tmp_path, body.replace("sample_times = 0.05", "sample_times ="), name="none.ini")
    assert main(["mc", "--config", ini]) == 1


def test_mc_scores_t_0_against_the_ensemble_start_itself(tmp_path, monkeypatch):
    # at t = 0 the reference is the ensemble's own histogram: ode_p equals
    # mean and tv is 0; with no later time the oracle is not integrated
    calls = []

    def counted(p0, rates, t_end, *args):
        calls.append(t_end)
        return integrate(p0, rates, t_end, *args)

    monkeypatch.setattr(cli, "integrate", counted)
    for times, integrated in (("0, 0.05", [0.05]), ("0", [])):
        calls.clear()
        ini, out = _ini(tmp_path, BASE.replace("sample_times = 0.05", f"sample_times = {times}"))
        assert main(["mc", "--config", ini]) == 0
        assert calls == integrated
        _, _, rows = _load_csv(out / "mc.csv")
        start = rows[rows[:, 0] == 0.0]
        assert start.shape[0] == 31  # [mc] k_max = 30
        np.testing.assert_array_equal(start[:, 4], start[:, 2])
        np.testing.assert_array_equal(start[:, 5], 0.0)
        later = rows[rows[:, 0] > 0.0]
        assert later.shape[0] == 31 * len(integrated) and np.all(later[:, 5] > 0.0)


def test_unwritable_out_exit_code(tmp_path, capsys):
    ini, _ = _ini(tmp_path)
    blocker = tmp_path / "file"
    blocker.write_text("")
    assert main(["solve", "--config", ini, "--out", str(blocker / "sub")]) == 1
    assert capsys.readouterr().err.startswith("error:")


def test_compare_report(tmp_path):
    ini, out = _ini(tmp_path)
    assert main(["compare", "--config", ini]) == 0
    report = json.loads((out / "fit.json").read_text())
    assert report["steady_case"] == "series_seeded"
    assert report["certified"] is True
    # the configured horizon ends before the default fit window opens
    assert "error" in report["fit"]
    assert report["oracle_max_abs_dev"] < 1e-6
    hash_line, _, _ = _load_csv(out / "norms.csv")
    assert report["config_hash"] == hash_line


def test_compare_fit_window(tmp_path):
    body = BASE.replace("t_max = 0.5", "t_max = 2.0")
    body = body.replace("t_points = 6", "t_points = 21")
    body += "\n[analysis]\nfit_t_min = 0.2\n"
    ini, out = _ini(tmp_path, body)
    assert main(["compare", "--config", ini]) == 0
    report = json.loads((out / "fit.json").read_text())
    assert report["fit"]["model"] in ("exponential", "algebraic")
    assert report["fit"]["n_points"] >= 5


def test_compare_fits_the_transported_deviation(tmp_path):
    # the README's decay case: subtracting G* from the solved field bottoms
    # out near 1e-10 and read as algebraic, rate -10.79; the transported
    # deviation gives criterion 7's exponential rate of -8.036
    body = BASE.replace("x_points = 21", "x_points = 11").replace("t_max = 0.5", "t_max = 5.0")
    body = body.replace("t_points = 6", "t_points = 51").replace("kind = polynomial\ncoeffs = 0, 0, 1",
                                                                  "kind = geometric\nrho = 3")
    ini, out = _ini(tmp_path, body)
    assert main(["compare", "--config", ini]) == 0
    fit = json.loads((out / "fit.json").read_text())["fit"]
    assert fit["model"] == "exponential"
    assert fit["rate"] == pytest.approx(-8.036, abs=1e-2)


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "degreeflow" in capsys.readouterr().out


def test_constants_flag_validation(tmp_path, capsys):
    ini, _ = _ini(tmp_path)
    assert main(["steady", "--config", ini, "--constants", "1,2,3"]) == 1
    capsys.readouterr()
    # command-line overrides are validated like values read from the file
    assert main(["ode", "--config", ini, "--kmax", "4"]) == 1
    assert capsys.readouterr().err.startswith("error:")
    assert main(["mc", "--config", ini, "--seed", "-5"]) == 1
    assert capsys.readouterr().err.startswith("error:")
    assert main(["steady", "--config", ini, "--constants", "2,1,1,nan,3"]) == 1
    assert capsys.readouterr().err.startswith("error:")


def test_usage_errors_are_invalid_input(tmp_path, capsys):
    # argparse's own exit code 2 would read as a numerical failure
    ini, _ = _ini(tmp_path)
    for argv in (["solve", "--config", ini, "--tol", "1e-8"], ["solve"], ["fit", "--config", ini], [],
                 ["ode", "--config", ini, "--kmax", "ten"]):
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith("error: degreeflow")
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--help"])
    assert exc.value.code == 0


def test_non_finite_config_values(tmp_path, capsys):
    # NaN passes a "<= 0" test: a NaN tolerance or t_max used to parse and
    # then hang in the oracle
    for key, body in (
        ("[oracle] tol", BASE + "\n[oracle]\ntol = nan\n"),
        ("[oracle] mass_tol", BASE + "\n[oracle]\nmass_tol = nan\n"),
        ("[oracle] tol", BASE + "\n[oracle]\ntol = inf\n"),
        ("[grid] t_max", BASE.replace("t_max = 0.5", "t_max = nan")),
        ("[grid] t_max", BASE.replace("t_max = 0.5", "t_max = inf")),
        ("[mc] sample_times", BASE.replace("sample_times = 0.05", "sample_times = 0.05, nan")),
        ("[mc] graph_degree", BASE.replace("k_max = 30", "k_max = 30\ngraph_degree = nan")),
        ("[analysis] bend_jump", BASE + "\n[analysis]\nbend_jump = nan\n"),
    ):
        ini, _ = _ini(tmp_path, body)
        with pytest.raises(ValidationError, match=re.escape(key)):
            parse_config(ini)
        for cmd in ("ode", "mc", "compare"):
            assert main([cmd, "--config", ini]) == 1
            assert capsys.readouterr().err.startswith("error:")


def test_parse_config_round_trip(tmp_path):
    ini, _ = _ini(tmp_path)
    cfg = parse_config(ini)
    assert cfg.rates.m == 3
    assert cfg.initial_kind == "polynomial"
    assert cfg.x_points == 21
    assert cfg.mc_seed == 7
    # hash is stable under relocation but sensitive to physics
    assert cfg.hash == cfg.override(out_dir="/somewhere").hash
    assert cfg.hash != cfg.override(oracle_tol=1e-9).hash


def test_unknown_sections_and_keys_are_invalid(tmp_path, capsys):
    # a misspelled key, a removed one and an unknown section are named, not ignored
    for body, named in ((BASE.replace("nodes = 200", "node = 200"), "[mc] node"),
                        (BASE + "\n[solver]\ntol = 1e-8\n", "[solver]"),
                        (BASE + "\n[steady]\nanchor = 0.7\n", "[steady] anchor"),
                        (BASE.replace("m = 3", "m = 3\nl_x = 1"), "[rates] l_x")):
        ini, _ = _ini(tmp_path, body)
        with pytest.raises(ValidationError, match=re.escape(named)):
            parse_config(ini)
        assert main(["solve", "--config", ini]) == 1
        assert named in capsys.readouterr().err


def test_parse_config_requires_rates(tmp_path):
    p = tmp_path / "norates.ini"
    p.write_text("[grid]\nx_points = 5\n")
    with pytest.raises(ValidationError):
        parse_config(str(p))


def test_mc_names_skipped_processes(tmp_path, capsys):
    # no link fits into the complete starting graph: l_r placements are skipped
    body = BASE.replace("l_r = 1", "l_r = 5").replace("nodes = 200", "nodes = 5")
    body = body.replace("k_max = 30", "k_max = 30\ngraph = erdos\ngraph_degree = 4")
    ini, _ = _ini(tmp_path, body)
    assert main(["mc", "--config", ini]) == 0
    line = next(s for s in capsys.readouterr().out.splitlines() if s.startswith("skipped"))
    assert line.startswith("skipped placements: ") and "(l_r " in line


def test_mc_reports_the_mass_beyond_k_max(tmp_path, capsys):
    # snapshots drop the degrees beyond [mc] k_max; the largest dropped
    # share over the sample times is printed, as read from mc.csv's means
    body = BASE.replace("k_max = 30", "k_max = 4").replace("sample_times = 0.05", "sample_times = 0.05, 0.2")
    ini, out = _ini(tmp_path, body)
    assert main(["mc", "--config", ini]) == 0
    line = next(s for s in capsys.readouterr().out.splitlines() if s.startswith("histogram mass"))
    match = re.fullmatch(r"histogram mass beyond \[mc\] k_max = 4: at most (\S+) over the sample times", line)
    _, _, rows = _load_csv(out / "mc.csv")
    dropped = max(1.0 - rows[rows[:, 0] == t, 2].sum() for t in (0.05, 0.2))
    assert match and dropped > 0.01
    assert float(match.group(1)) == pytest.approx(dropped, rel=1e-2)
