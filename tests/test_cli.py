import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from bpgm import SolverConfig, build_problem, parse_dgf, run_apgm, run_pgm, solver, torus_grid
from bpgm.analysis import EnvelopeCurve
from bpgm.cli import _build_problem_from_args, build_parser, main
from bpgm.objective import PROBLEM_TOKENS, eval_F, grad_potential, minimizer_density
from bpgm.solver import Trace
from bpgm.verify import FD_GRID_SIZES, CheckResult


def run_cli(*argv):
    return main(list(argv))


def test_run_writes_trace_and_reports_slope(tmp_path, capsys):
    out = tmp_path / "trace.csv"
    code = run_cli(
        "run", "--problem", "deconv1d", "--dgf", "p:2", "--grid-size", "60",
        "--iters", "3000", "--out", str(out),
    )
    assert code == 0
    text = capsys.readouterr().out
    assert f"wrote {out}" in text
    assert "fitted slope" in text and "theory" in text
    trace = Trace.read_csv(out)
    assert trace.meta["problem"] == "deconv1d"
    assert trace.meta["dgf"] == "p:2"
    assert trace.meta["reg"] == "nonneg_tv:0"
    assert trace.meta["seed"] == "0"
    assert int(trace.k[-1]) == 3000


def test_run_requires_iterations(tmp_path):
    code = run_cli(
        "run", "--problem", "deconv1d", "--dgf", "p:2",
        "--iters", "0", "--out", str(tmp_path / "t.csv"),
    )
    assert code == 1


def test_run_rejects_unknown_problem(tmp_path):
    with pytest.raises(SystemExit) as err:
        run_cli("run", "--problem", "gauss", "--dgf", "p:2", "--out", str(tmp_path / "t.csv"))
    assert err.value.code == 1


def test_run_requires_dgf_and_out(tmp_path):
    assert run_cli("run", "--problem", "deconv1d", "--out", str(tmp_path / "t.csv")) == 1
    assert run_cli("run", "--problem", "deconv1d", "--dgf", "p:2") == 1


def test_config_file_with_flag_precedence(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "problem = deconv1d\ndgf = ent\ngrid-size = 50\niters = 40\n# comment\n"
    )
    out1 = tmp_path / "a.csv"
    assert run_cli("run", "--config", str(cfg), "--out", str(out1)) == 0
    assert Trace.read_csv(out1).meta["iters"] == "40"
    out2 = tmp_path / "b.csv"
    assert run_cli("run", "--config", str(cfg), "--iters", "20", "--out", str(out2)) == 0
    assert Trace.read_csv(out2).meta["iters"] == "20"


def test_run_reads_plot_data_from_config(tmp_path):
    plot = tmp_path / "t.dat"
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        f"problem = deconv1d\ndgf = p:2\ngrid-size = 50\niters = 40\nplot-data = {plot}\n"
    )
    assert run_cli("run", "--config", str(cfg), "--out", str(tmp_path / "t.csv")) == 0
    assert plot.exists()


def test_config_file_rejects_bad_line(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("problem deconv1d\n")
    assert run_cli("run", "--config", str(cfg), "--out", str(tmp_path / "t.csv")) == 1


def run_cli_code(*argv):
    """Exit code of the CLI, whether main returns it or argparse exits."""
    try:
        return run_cli(*argv)
    except SystemExit as exc:
        return exc.code


def test_run_without_iters_is_usage_error(tmp_path, capsys):
    code = run_cli("run", "--problem", "deconv1d", "--dgf", "p:2", "--out", str(tmp_path / "t.csv"))
    assert code == 1
    assert "--iters" in capsys.readouterr().err


def test_config_file_rejects_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("problem = deconv1d\ndgf = p:2\niter = 40\n")
    assert run_cli_code("run", "--config", str(cfg), "--out", str(tmp_path / "t.csv")) == 1
    assert "iter" in capsys.readouterr().err.split("known:")[0]


# Positionals and parser internals are not settings; `iters` is a run
# option, so a run config is not a rates config.
@pytest.mark.parametrize("key", ("traces", "command", "func", "config", "iters"))
def test_rates_config_rejects_other_keys(tmp_path, key):
    cfg = tmp_path / "rates.cfg"
    cfg.write_text(f"fit-lo = 100\n{key} = 1\n")
    assert run_cli_code("rates", str(tmp_path / "t.csv"), "--config", str(cfg)) == 1


def test_config_value_is_cast_like_a_flag(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("problem = deconv1d\ndgf = p:2\niters = forty\n")
    assert run_cli_code("run", "--config", str(cfg), "--out", str(tmp_path / "t.csv")) == 1
    assert "--iters" in capsys.readouterr().err


def test_run_rejects_empty_dgf_tokens(tmp_path):
    code = run_cli(
        "run", "--problem", "deconv1d", "--dgf", ",", "--iters", "10",
        "--out", str(tmp_path / "t.csv"),
    )
    assert code == 1


def test_multi_dgf_fanout_placeholder(tmp_path):
    out = tmp_path / "tr_{dgf}.csv"
    code = run_cli(
        "run", "--problem", "deconv1d", "--dgf", "p:2,ent", "--grid-size", "50",
        "--iters", "30", "--out", str(out),
    )
    assert code == 0
    assert (tmp_path / "tr_p-2.csv").exists()
    assert (tmp_path / "tr_ent.csv").exists()


def test_single_dgf_placeholder(tmp_path):
    out = tmp_path / "pos_{dgf}.csv"
    code = run_cli(
        "run", "--problem", "deconv1d", "--dgf", "p:2", "--grid-size", "50",
        "--iters", "30", "--out", str(out),
    )
    assert code == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["pos_p-2.csv"]


def test_multi_dgf_fanout_suffix(tmp_path):
    out = tmp_path / "trace.csv"
    code = run_cli(
        "run", "--problem", "deconv1d", "--dgf", "p:2,hyp:0.01", "--grid-size", "50",
        "--iters", "30", "--out", str(out),
    )
    assert code == 0
    assert (tmp_path / "trace_p-2.csv").exists()
    assert (tmp_path / "trace_hyp-0.01.csv").exists()


def test_plot_data_emitter(tmp_path):
    out = tmp_path / "t.csv"
    plot = tmp_path / "t.dat"
    code = run_cli(
        "run", "--problem", "deconv1d", "--dgf", "p:2", "--grid-size", "50",
        "--iters", "100", "--out", str(out), "--plot-data", str(plot),
    )
    assert code == 0
    rows = [line.split() for line in plot.read_text().splitlines()]
    assert all(len(r) == 2 for r in rows)
    ks = np.array([int(r[0]) for r in rows])
    assert np.all(ks > 0)
    float(rows[0][1])  # parses


def test_rates_table_and_report(tmp_path, capsys):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    for out, dgf in ((a, "p:2"), (b, "ent")):
        run_cli(
            "run", "--problem", "deconv1d", "--dgf", dgf, "--grid-size", "60",
            "--iters", "3000", "--out", str(out),
        )
    capsys.readouterr()
    report = tmp_path / "rates.csv"
    code = run_cli(
        "rates", str(a), str(b), "--fit-lo", "100", "--out", str(report)
    )
    assert code == 0
    text = capsys.readouterr().out
    assert "fitted" in text and "theory" in text
    lines = report.read_text().splitlines()
    assert lines[0] == "trace,problem,dgf,method,fitted,theory,diff,r2"
    assert len(lines) == 3


def _theory_column(report):
    lines = report.read_text().splitlines()
    header = lines[0].split(",")
    return [float(line.split(",")[header.index("theory")]) for line in lines[1:]]


def test_rates_same_theory_for_library_and_cli_traces(tmp_path):
    cli_out, lib_out = tmp_path / "cli.csv", tmp_path / "lib.csv"
    assert run_cli(
        "run", "--problem", "deconv1d", "--dgf", "p:2", "--grid-size", "60",
        "--iters", "3000", "--out", str(cli_out),
    ) == 0
    problem = build_problem("deconv1d", grid_size=60)
    run_pgm(problem, parse_dgf("p:2"), SolverConfig(iters=3000)).write_csv(lib_out)
    report = tmp_path / "rates.csv"
    assert run_cli(
        "rates", str(lib_out), str(cli_out), "--fit-lo", "100", "--out", str(report)
    ) == 0
    assert _theory_column(report) == pytest.approx([-0.8, -0.8])


def test_rates_reads_dimension_from_trace(tmp_path):
    out = tmp_path / "d2.csv"
    problem = build_problem("deconv2d", grid_size=10)
    run_pgm(problem, parse_dgf("p:2"), SolverConfig(iters=300)).write_csv(out)
    report = tmp_path / "rates.csv"
    assert run_cli("rates", str(out), "--fit-lo", "10", "--out", str(report)) == 0
    # q = 4 (nonnegative, no TV weight) and d = 2: -q / ((p-1) d + q)
    assert _theory_column(report) == pytest.approx([-4.0 / 6.0])


def test_rates_rejects_trace_without_setting(tmp_path, capsys):
    out = tmp_path / "old.csv"
    trace = run_pgm(build_problem("deconv1d", grid_size=60), parse_dgf("p:2"),
                    SolverConfig(iters=3000))
    trace.meta.pop("setting", None)  # as in files written before the key existed
    trace.write_csv(out)
    assert run_cli("rates", str(out), "--fit-lo", "100") == 1
    assert "setting" in capsys.readouterr().err


def test_rates_reads_config(tmp_path):
    trace = tmp_path / "t.csv"
    run_pgm(build_problem("deconv1d", grid_size=60), parse_dgf("p:2"),
            SolverConfig(iters=3000)).write_csv(trace)
    by_flag, by_config, default = (tmp_path / n for n in ("flag.csv", "cfg.csv", "default.csv"))
    assert run_cli(
        "rates", str(trace), "--fit-lo", "2000", "--fit-hi", "2900", "--out", str(by_flag)
    ) == 0
    cfg = tmp_path / "rates.cfg"
    cfg.write_text(f"fit-lo = 2000\nfit-hi = 2900\nout = {by_config}\n")
    assert run_cli("rates", str(trace), "--config", str(cfg)) == 0
    assert by_config.read_text() == by_flag.read_text()
    assert run_cli("rates", str(trace), "--out", str(default)) == 0
    assert default.read_text() != by_flag.read_text()


def test_run_simplex_fits_and_rates(tmp_path, capsys):
    out = tmp_path / "s.csv"
    code = run_cli(
        "run", "--problem", "deconv1d", "--reg", "simplex", "--dgf", "p:2",
        "--grid-size", "60", "--iters", "3000", "--out", str(out),
    )
    assert code == 0
    assert "fitted slope" in capsys.readouterr().out
    assert run_cli("rates", str(out)) == 0


def test_rates_missing_file_is_runtime_error(tmp_path):
    assert run_cli("rates", str(tmp_path / "nope.csv")) == 2


def test_rates_empty_trace_is_usage_error(tmp_path):
    bad = tmp_path / "empty.csv"
    bad.write_text("k,F,gap,l1,linf_mirror,time_s\n")
    assert run_cli("rates", str(bad)) == 1


def _envelope_csv(path):
    EnvelopeCurve(np.array([1e-3]), np.array([0.1]), np.array([np.inf]), {"dgf": "p:2"}).write_csv(path)


@pytest.mark.parametrize("write", (
    lambda p: p.write_text("k,F,gap\n1,2,3\n"),
    lambda p: p.write_text("k,F,gap,l1,linf_mirror,time_s\n1,2,3,4,5,6\n2,2,3,4\n"),
    lambda p: p.write_text("k,F,gap,l1,linf_mirror,time_s\n1,2,x,4,5,6\n"),
    _envelope_csv,
), ids=("short", "ragged", "non-numeric", "envelope"))
def test_rates_rejects_malformed_trace(tmp_path, capsys, write):
    bad = tmp_path / "bad.csv"
    write(bad)
    assert run_cli("rates", str(bad)) == 1
    assert str(bad) in capsys.readouterr().err


def test_psi_subcommand(tmp_path, capsys):
    out = tmp_path / "env.csv"
    plot = tmp_path / "env.dat"
    code = run_cli(
        "psi", "--problem", "lb:I", "--dgf", "p:2", "--grid-size", "300",
        "--alpha-lo", "5e-4", "--alpha-hi", "1e-2", "--alpha-count", "12",
        "--out", str(out), "--plot-data", str(plot),
    )
    assert code == 0
    text = capsys.readouterr().out
    assert "alpha-exponent" in text and "predicted +0.500" in text
    assert out.exists() and plot.exists()
    header = out.read_text().splitlines()
    assert any(line == "alpha,psi_hat,eps_star" for line in header)


def test_psi_reads_config(tmp_path):
    by_flag, by_config = tmp_path / "flag.csv", tmp_path / "cfg.csv"
    common = ("psi", "--problem", "lb:I", "--dgf", "p:2", "--grid-size", "200")
    assert run_cli(
        *common, "--alpha-lo", "1e-3", "--alpha-hi", "1e-2", "--alpha-count", "10",
        "--eps-lo", "0.02", "--eps-hi", "0.1", "--eps-count", "5", "--out", str(by_flag),
    ) == 0
    cfg = tmp_path / "psi.cfg"
    cfg.write_text(
        "alpha-lo = 1e-3\nalpha-hi = 1e-2\nalpha-count = 10\n"
        f"eps-lo = 0.02\neps-hi = 0.1\neps-count = 5\nout = {by_config}\n"
        f"plot-data = {tmp_path / 'cfg.dat'}\n"
    )
    assert run_cli(*common, "--config", str(cfg)) == 0
    assert by_config.read_text() == by_flag.read_text()
    assert (tmp_path / "cfg.dat").exists()
    alphas = [float(line.split(",")[0]) for line in by_flag.read_text().splitlines()
              if line[0].isdigit()]
    assert alphas == pytest.approx(np.geomspace(1e-3, 1e-2, 10))


def _eps_star(path):
    rows = [line.split(",") for line in path.read_text().splitlines() if line[0].isdigit()]
    return {float(row[2]) for row in rows} - {math.inf}


def test_psi_eps_lo_alone_keeps_default_hi(tmp_path):
    out = tmp_path / "env.csv"
    assert run_cli(
        "psi", "--problem", "lb:II*", "--grid-size", "300", "--eps-lo", "0.05",
        "--out", str(out),
    ) == 0
    grid = torus_grid(1, 300)
    radii = set(np.geomspace(0.05, grid.diameter / 4.0, 30))
    eps_star = _eps_star(out)
    assert eps_star and eps_star <= radii


def test_psi_eps_count_alone_keeps_default_ends(tmp_path):
    out = tmp_path / "env.csv"
    assert run_cli(
        "psi", "--problem", "lb:II*", "--grid-size", "300", "--eps-count", "5",
        "--out", str(out),
    ) == 0
    grid = torus_grid(1, 300)
    radii = set(np.geomspace(3.0 * grid.spacing, grid.diameter / 4.0, 5))
    eps_star = _eps_star(out)
    assert eps_star and eps_star <= radii


def test_psi_relu_uses_exact_optimum(tmp_path, capsys):
    out = tmp_path / "e.csv"
    assert run_cli("psi", "--problem", "relu", "--out", str(out)) == 0
    assert "alpha-exponent" in capsys.readouterr().out
    rows = [line for line in out.read_text().splitlines() if line[0].isdigit()]
    assert len(rows) == 25


def test_run_relu_fits_against_exact_optimum(tmp_path, capsys):
    out = tmp_path / "relu.csv"
    code = run_cli(
        "run", "--problem", "relu", "--dgf", "p:2", "--iters", "2000", "--out", str(out),
    )
    assert code == 0
    text = capsys.readouterr().out
    assert "fitted slope" in text and "theory k^(-0.5)" in text
    assert float(Trace.read_csv(out).meta["inf_value"]) > 0.0


def test_run_relu_without_tv_weight_is_usage_error(tmp_path, capsys):
    code = run_cli(
        "run", "--problem", "relu", "--lam", "0", "--dgf", "p:2", "--iters", "10",
        "--k-bound", "10", "--out", str(tmp_path / "t.csv"),
    )
    assert code == 1
    assert "lam > 0" in capsys.readouterr().err


def _registered_problem(token):
    """A registered problem built as the CLI builds it, at its FD grid size."""
    args = build_parser()[0].parse_args(
        ["run", "--problem", token, "--grid-size", str(FD_GRID_SIZES[token])]
    )
    return _build_problem_from_args(args)


@pytest.mark.parametrize("token", PROBLEM_TOKENS)
def test_every_registered_problem_knows_its_optimum(token):
    problem = _registered_problem(token)
    assert problem.inf_value is not None and problem.mu_star is not None
    assert eval_F(problem, minimizer_density(problem)) == pytest.approx(
        problem.inf_value, rel=1e-14, abs=0.0
    )
    trace = run_apgm(problem, parse_dgf("p:2"), SolverConfig(iters=300, method="apgm"))
    assert np.min(trace.F) >= problem.inf_value - 1e-12


@pytest.mark.parametrize("token", PROBLEM_TOKENS)
def test_every_registered_problem_has_the_right_setting_tag(token):
    problem = _registered_problem(token)
    tag = problem.setting_tag
    assert tag in ("I", "I*", "II", "II*")
    # II exactly for C^2 features, starred exactly when the potential
    # vanishes at the minimizer.
    assert tag.startswith("II") == (problem.smooth.phi_lip_class == "gradient_lipschitz")
    pot = grad_potential(problem, minimizer_density(problem))
    assert tag.endswith("*") == (np.max(np.abs(pot)) <= 1e-10)


def _run_quietly(*argv):
    """run_cli with every warning an error, so none can reach stderr."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return run_cli(*argv)


def _traces_with_notes(tmp_path):
    """Two CLI runs that need notes: a run that hits the optimum exactly
    inside the fit window, and an APGM run past its norm bound."""
    exact, overrun = tmp_path / "exact.csv", tmp_path / "overrun.csv"
    codes = (
        _run_quietly(
            "run", "--problem", "lb:I", "--grid-size", "200", "--dgf", "hyp",
            "--iters", "3000", "--out", str(exact),
        ),
        _run_quietly(
            "run", "--problem", "deconv1d", "--grid-size", "60", "--method", "apgm",
            "--dgf", "p:2", "--step", "0.05", "--k-bound", "1e-3", "--iters", "200",
            "--out", str(overrun),
        ),
    )
    return codes, exact, overrun


def test_run_prints_notes_instead_of_warnings(tmp_path, capsys):
    codes, _, _ = _traces_with_notes(tmp_path)
    assert codes == (0, 0)
    captured = capsys.readouterr()
    assert "note: dropping 7 rows with non-positive or non-finite gap" in captured.out
    assert "exceeded the norm bound (1 > 0.001) at iteration 1;" in captured.out
    assert "Warning" not in captured.err


def test_rates_prints_notes_instead_of_warnings(tmp_path, capsys):
    _, exact, overrun = _traces_with_notes(tmp_path)
    capsys.readouterr()
    assert _run_quietly("rates", str(exact), str(overrun), "--fit-lo", "10") == 0
    captured = capsys.readouterr()
    assert "note: exact.csv: dropping 7 rows with non-positive" in captured.out
    assert (
        "note: overrun.csv: APGM prox sequence exceeded the norm bound at iteration 1"
        in captured.out
    )
    assert captured.err == ""


def test_psi_requires_out():
    assert run_cli("psi", "--problem", "lb:I", "--grid-size", "200") == 1


def test_run_nonfinite_gradient_exits_2(tmp_path, monkeypatch, capsys):
    # Record only the start and the end, so the divergence reaches the
    # prox step before any objective check.
    monkeypatch.setattr(solver, "record_schedule", lambda iters: (0, iters))
    out = tmp_path / "t.csv"
    code = run_cli(
        "run", "--problem", "deconv1d", "--reg", "tv:0.05", "--dgf", "p:2",
        "--grid-size", "300", "--iters", "2000", "--step", "50", "--out", str(out),
    )
    assert code == 2
    assert "(non-finite gradient)" in capsys.readouterr().out
    assert Trace.read_csv(out).meta["abort_reason"] == "gradient"


def test_verify_fast(capsys):
    assert run_cli("verify", "--fast") == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines[:-1]] == [
        "fd_gradient", "entropy_closed_form", "kkt_sweep", "pinsker_margins",
        "mirror_flow_square", "mirror_flow_diff", "gamma_bound",
    ]
    assert all(line.split()[1] == "PASS" for line in lines[:-1])
    assert lines[-1] == "7/7 checks passed"


def test_verify_failure_exits_3(monkeypatch, capsys):
    results = [
        CheckResult("good", True, "fine", {"x": 0.0}),
        CheckResult("bad", False, "measured 2 (<= 1)", {"x": 2.0}),
    ]
    monkeypatch.setattr("bpgm.cli.run_all_checks", lambda seed, fast: results)
    assert run_cli("verify", "--fast") == 3
    lines = capsys.readouterr().out.splitlines()
    assert lines == ["good  PASS  fine", "bad   FAIL  measured 2 (<= 1)", "1/2 checks passed"]


def test_repeat_runs_byte_identical_modulo_time(tmp_path):
    files = []
    for name in ("r1.csv", "r2.csv"):
        out = tmp_path / name
        run_cli(
            "run", "--problem", "deconv1d", "--dgf", "ent", "--grid-size", "60",
            "--iters", "500", "--out", str(out),
        )
        files.append(out)

    def strip_time(text):
        kept = []
        for line in text.splitlines():
            if line.startswith("#") or line.startswith("k,"):
                kept.append(line)
            else:
                kept.append(line.rsplit(",", 1)[0])
        return "\n".join(kept)

    a, b = (f.read_text() for f in files)
    assert strip_time(a) == strip_time(b)


def test_parallel_fanout_subprocess(tmp_path):
    out = tmp_path / "w_{dgf}.csv"
    env = dict(os.environ, BPGM_WORKERS="2")
    proc = subprocess.run(
        [
            sys.executable, "-m", "bpgm.cli", "run", "--problem", "deconv1d",
            "--dgf", "p:2,ent", "--grid-size", "50", "--iters", "30",
            "--out", str(out),
        ],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "w_p-2.csv").exists()
    assert (tmp_path / "w_ent.csv").exists()
