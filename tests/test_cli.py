import os
import subprocess
import sys

import numpy as np
import pytest

from bpgm import SolverConfig, build_problem, parse_dgf, run_pgm, solver
from bpgm.analysis import EnvelopeCurve
from bpgm.cli import main
from bpgm.solver import Trace


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
    text = capsys.readouterr().out
    assert "checks passed" in text


def test_inf_value_from_reference_trace(tmp_path):
    ref = tmp_path / "ref.csv"
    run_cli(
        "run", "--problem", "deconv1d", "--dgf", "p:2", "--grid-size", "60",
        "--lam", "0.3", "--reg", "tv:0.3", "--iters", "2000", "--out", str(ref),
    )
    out = tmp_path / "next.csv"
    code = run_cli(
        "run", "--problem", "deconv1d", "--dgf", "p:1.5", "--grid-size", "60",
        "--reg", "tv:0.3", "--iters", "200", "--inf-value-from", str(ref),
        "--out", str(out),
    )
    assert code == 0
    trace = Trace.read_csv(out)
    assert float(trace.meta["inf_value"]) > 0.0
    assert np.all(np.isfinite(trace.gap))


def test_inf_value_flags_are_exclusive(tmp_path):
    code = run_cli(
        "run", "--problem", "deconv1d", "--dgf", "p:2", "--iters", "10",
        "--inf-value", "0.0", "--inf-value-from", str(tmp_path / "x.csv"),
        "--out", str(tmp_path / "t.csv"),
    )
    assert code == 1


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
