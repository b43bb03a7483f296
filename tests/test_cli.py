import argparse
import math
import re
import shlex
import warnings
from pathlib import Path

import numpy as np
import pytest

from bpgm import SolverConfig, build_problem, parse_dgf, psi_envelope, run, solver
from bpgm.cli import _build_problem_from_args, _run_one, build_parser, main
from bpgm.objective import (
    PROBLEM_TABLE, PROBLEM_TOKENS, default_start, eval_F, exact_optimum, grad_potential,
    parse_regularizer,
)
from bpgm.solver import Trace
from bpgm.verify import CheckResult
from test_acceptance import strip_time
from test_objective import minimizer_density


def run_cli(*argv):
    return main(list(argv))


@pytest.mark.parametrize("reg", ("tv_ball:0.5", "tv_ball:0.25"))
@pytest.mark.parametrize("dgf", ("p:2", "hyp"))
def test_run_on_a_tv_ball_below_one_starts_feasible(tmp_path, capsys, reg, dgf):
    out = tmp_path / "t.csv"
    code = run_cli(
        "run", "--problem", "deconv1d", "--reg", reg, "--dgf", dgf, "--grid-size", "60",
        "--iters", "300", "--out", str(out),
    )
    assert code == 0, capsys.readouterr().err
    trace = Trace.read_csv(out)
    assert trace.meta["reg"] == reg
    assert np.all(trace.gap >= -1e-12)
    assert trace.l1[0] == pytest.approx(float(reg.split(":")[1]))


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
    assert run_cli_code("run", "--problem", "deconv1d", "--out", str(tmp_path / "t.csv")) == 1
    assert run_cli_code("run", "--problem", "deconv1d", "--dgf", "p:2") == 1


def test_config_file_with_flag_precedence(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "problem = deconv1d\ndgf = ent\ngrid-size = 50\niters = 40\n# comment\n"
    )
    out1 = tmp_path / "a.csv"
    assert run_cli("run", f"@{cfg}", "--out", str(out1)) == 0
    assert Trace.read_csv(out1).meta["iters"] == "40"
    out2 = tmp_path / "b.csv"
    assert run_cli("run", f"@{cfg}", "--iters", "20", "--out", str(out2)) == 0
    assert Trace.read_csv(out2).meta["iters"] == "20"


def test_config_file_rejects_bad_line(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("problem deconv1d\n")
    assert run_cli_code("run", f"@{cfg}", "--out", str(tmp_path / "t.csv")) == 1


def run_cli_code(*argv):
    """Exit code of the CLI, whether main returns it or argparse exits."""
    try:
        return run_cli(*argv)
    except SystemExit as exc:
        return exc.code


def test_run_without_iters_is_usage_error(tmp_path, capsys):
    code = run_cli_code("run", "--problem", "deconv1d", "--dgf", "p:2", "--out", str(tmp_path / "t.csv"))
    assert code == 1
    assert "--iters" in capsys.readouterr().err


def test_config_file_rejects_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("problem = deconv1d\ndgf = p:2\niter = 40\n")
    assert run_cli_code("run", f"@{cfg}", "--out", str(tmp_path / "t.csv")) == 1
    assert "iter" in capsys.readouterr().err.split("known:")[0]


# Positionals and parser internals are not settings; `iters` is a run
# option, so a run config is not a rates config.
@pytest.mark.parametrize("key", ("traces", "command", "func", "config", "iters"))
def test_rates_config_rejects_other_keys(tmp_path, key):
    cfg = tmp_path / "rates.cfg"
    cfg.write_text(f"fit-lo = 100\n{key} = 1\n")
    assert run_cli_code("rates", str(tmp_path / "t.csv"), f"@{cfg}") == 1


def test_config_value_is_cast_like_a_flag(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("problem = deconv1d\ndgf = p:2\niters = forty\n")
    assert run_cli_code("run", f"@{cfg}", "--out", str(tmp_path / "t.csv")) == 1
    assert "--iters" in capsys.readouterr().err


def test_settings_last_occurrence_wins(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("problem = deconv1d\ndgf = p:2\ngrid-size = 50\niters = 40\n")
    out = tmp_path / "t.csv"
    assert run_cli("run", "--iters", "20", f"@{cfg}", "--out", str(out)) == 0
    assert Trace.read_csv(out).meta["iters"] == "40"


# Options are never abbreviated, and the TV weight is part of --reg.
@pytest.mark.parametrize("extra", (("--iter", "40"), ("--iters", "40", "--lam", "0.1")))
def test_run_rejects_abbreviated_and_removed_options(tmp_path, capsys, extra):
    code = run_cli_code(
        "run", "--problem", "deconv1d", "--dgf", "p:2", "--grid-size", "50", *extra,
        "--out", str(tmp_path / "t.csv"),
    )
    assert code == 1
    assert extra[-2] in capsys.readouterr().err
    assert not (tmp_path / "t.csv").exists()


def _subparser(command):
    subparsers = next(
        a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    )
    return subparsers.choices[command]


def _options(command):
    return {
        option for action in _subparser(command)._actions for option in action.option_strings
    } - {"-h", "--help"}


@pytest.mark.parametrize("command", ("run", "psi"))
def test_problem_choices_are_the_problem_table_tokens(command):
    (problem,) = (a for a in _subparser(command)._actions if "--problem" in a.option_strings)
    assert tuple(problem.choices) == tuple(PROBLEM_TABLE)


def test_every_subcommand_has_exactly_its_options():
    assert _options("run") == {
        "--problem", "--dgf", "--method", "--iters", "--step", "--grid-size", "--reg",
        "--seed", "--out",
    }
    assert _options("psi") == {
        "--problem", "--dgf", "--grid-size", "--reg", "--seed", "--alpha-lo", "--alpha-hi",
        "--out",
    }
    assert _options("rates") == {"--fit-lo", "--fit-hi", "--out"}
    assert _options("verify") == {"--seed", "--fast"}


# The plot writers, the run fit window, the run norm bound and the psi
# sweep knobs are gone: the program derives their values.
@pytest.mark.parametrize("as_file", (False, True), ids=("flag", "file"))
@pytest.mark.parametrize("command, option, value", (
    ("run", "--plot-data", "t.dat"), ("run", "--k-bound", "10"),
    ("run", "--fit-lo", "100"), ("run", "--fit-hi", "1000"),
    ("psi", "--plot-data", "e.dat"), ("psi", "--eps-lo", "0.02"), ("psi", "--eps-hi", "0.1"),
    ("psi", "--eps-count", "5"), ("psi", "--alpha-count", "10"),
))
def test_removed_options_are_usage_errors(tmp_path, capsys, command, option, value, as_file):
    out = tmp_path / "t.csv"
    argv = [command, "--problem", "deconv1d", "--grid-size", "50", "--out", str(out)]
    if command == "run":
        argv += ["--dgf", "p:2", "--iters", "10"]
    if as_file:
        cfg = tmp_path / "removed.cfg"
        cfg.write_text(f"{option[2:]} = {value}\n")
        argv.append(f"@{cfg}")
    else:
        argv += [option, value]
    assert run_cli_code(*argv) == 1
    assert option in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("option, value", (
    ("--reg", "tv_ball:nan"), ("--reg", "tv_ball:inf"), ("--reg", "tv:nan"),
    ("--reg", "tv:inf"), ("--reg", "nonneg_tv:inf"), ("--dgf", "hyp:nan"),
    ("--dgf", "hyp:inf"), ("--step", "nan"), ("--step", "inf"),
))
def test_run_rejects_nonfinite_numbers(tmp_path, capsys, option, value):
    out = tmp_path / "t.csv"
    code = run_cli(
        "run", "--problem", "deconv1d", "--grid-size", "50", "--iters", "10",
        "--dgf", "p:2", option, value, "--out", str(out),
    )
    assert code == 1
    assert value in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ("run", "psi"))
def test_a_subnormal_hyperbolic_beta_is_a_usage_error_without_warning(tmp_path, capsys, command):
    out = tmp_path / "t.csv"
    argv = [command, "--problem", "deconv1d", "--dgf", "hyp:1e-320", "--grid-size", "20",
            "--out", str(out)]
    if command == "run":
        argv += ["--iters", "10"]
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        code = run_cli_code(*argv)
    assert code == 1 and not seen
    err = capsys.readouterr().err
    assert err.startswith("bpgm: bad dgf token 'hyp:1e-320'") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("problem", (
    ("--problem", "lb:I"), ("--problem", "deconv1d", "--reg", "tv_ball:1"),
), ids=("simplex", "tv_ball"))
def test_run_ends_a_dual_solve_that_overflows_as_a_labelled_abort(tmp_path, capsys, problem):
    """The dual level target m / beta overflows at hyp:1e-307 and m = 50:
    the mirror point is finite, the dual solve is not."""
    out = tmp_path / "t.csv"
    code = run_cli(
        "run", *problem, "--grid-size", "50", "--dgf", "hyp:1e-307", "--iters", "200",
        "--out", str(out),
    )
    assert code == 2
    assert "aborted at iteration 1 (non-finite dual)" in capsys.readouterr().out
    meta = Trace.read_csv(out).meta
    assert meta["abort_reason"] == "dual" and meta["aborted_at"] == "1"


# Extreme settings that parse: a one-point grid, steps far past the
# admissible one or below the smallest normal float, radii and weights at
# the ends of the float range, p next to 1, and the smallest accepted
# hyperbolic beta (which overflows the objective or the dual level).
@pytest.mark.parametrize("argv", (
    ("--problem", "lb:I", "--grid-size", "1"),
    ("--problem", "lb:I", "--grid-size", "1", "--method", "apgm"),
    ("--problem", "lb:I", "--dgf", "hyp", "--step", "1e300"),
    ("--problem", "lb:I", "--dgf", "p:1.2", "--step", "1e300"),
    ("--problem", "deconv1d", "--reg", "tv_ball:1", "--dgf", "hyp", "--step", "1e300"),
    ("--problem", "deconv1d", "--reg", "tv_ball:1", "--dgf", "p:1.2", "--step", "1e300"),
    ("--problem", "lb:I", "--step", "1e-320"),
    ("--problem", "deconv1d", "--reg", "tv_ball:1e-320"),
    ("--problem", "deconv1d", "--reg", "tv:1e308"),
    ("--problem", "deconv1d", "--reg", "tv_ball:1e308"),
    ("--problem", "deconv1d", "--dgf", "p:1.0000001"),
    ("--problem", "deconv1d", "--dgf", "hyp:5.56268464626801e-309"),
    ("--problem", "lb:I", "--dgf", "hyp:5.56268464626801e-309"),
), ids=lambda argv: " ".join(argv[1:]))
def test_run_takes_extreme_valid_settings(tmp_path, capsys, argv):
    argv = ["run", "--grid-size", "50", "--dgf", "p:2", *argv, "--iters", "200",
            "--out", str(tmp_path / "t.csv")]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run_cli(*argv)
    err = capsys.readouterr().err
    assert code in (0, 2), err
    assert "Traceback" not in err and "Warning" not in err


def test_run_checks_trace_directory_before_solving(tmp_path, monkeypatch, capsys):
    calls = []
    monkeypatch.setattr("bpgm.cli.run_solver", lambda *args: calls.append(args))
    out = tmp_path / "missing" / "x.csv"
    code = run_cli(
        "run", "--problem", "deconv1d", "--dgf", "p:2", "--iters", "10", "--out", str(out),
    )
    assert code == 2
    err = capsys.readouterr().err
    assert f"--out {out}" in err and ".tmp" not in err
    assert calls == []


def test_run_rejects_directory_out_before_solving(tmp_path, monkeypatch, capsys):
    calls = []
    monkeypatch.setattr("bpgm.cli.run_solver", lambda *args: calls.append(args))
    out = tmp_path / "adir"
    out.mkdir()
    code = run_cli(
        "run", "--problem", "deconv1d", "--dgf", "p:2", "--iters", "10", "--out", str(out),
    )
    assert code == 2
    assert f"--out {out}" in capsys.readouterr().err
    assert calls == []
    assert [p.name for p in tmp_path.iterdir()] == ["adir"]


def test_missing_settings_file_is_usage_error(tmp_path, capsys):
    missing = tmp_path / "missing.cfg"
    assert run_cli_code("run", f"@{missing}") == 1
    assert "No such file" in capsys.readouterr().err


def _readme_commands():
    """Every `bpgm` command in the README's sh blocks, as argv lists:
    continuations joined, `VAR=value` prefixes, comments and a trailing
    `&` dropped, and commands with `@FILE` words (tested above) skipped."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    lines = "".join(re.findall(r"```sh\n(.*?)```", text, flags=re.S)).replace("\\\n", " ")
    commands = []
    for line in lines.splitlines():
        words = shlex.split(line, comments=True)
        while words and re.match(r"\w+=", words[0]):
            words.pop(0)
        if words[-1:] == ["&"]:
            words.pop()
        if words[:1] == ["bpgm"] and not any(word.startswith("@") for word in words):
            commands.append(words[1:])
    return commands


def test_readme_commands_parse(capsys):
    commands = _readme_commands()
    assert {argv[0] for argv in commands} == {"run", "rates", "psi", "verify"}
    for argv in commands:
        try:
            build_parser().parse_args(argv)
        except SystemExit:
            pytest.fail(f"README command does not parse: bpgm {shlex.join(argv)}\n"
                        f"{capsys.readouterr().err}")


def test_run_rejects_entropy_on_signed_optimum(tmp_path, capsys):
    out = tmp_path / "r.csv"
    code = run_cli(
        "run", "--problem", "relu", "--grid-size", "200", "--dgf", "ent", "--method", "apgm",
        "--iters", "2000", "--out", str(out),
    )
    assert code == 1
    assert "signed dgf" in capsys.readouterr().err
    assert not out.exists()


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


def test_multi_dgf_needs_placeholder(tmp_path, capsys):
    out = tmp_path / "t.csv"
    code = run_cli(
        "run", "--problem", "deconv1d", "--dgf", "p:2,ent", "--grid-size", "50",
        "--iters", "30", "--out", str(out),
    )
    assert code == 1
    assert "{dgf}" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_multi_dgf_rejects_repeated_output_paths(tmp_path, monkeypatch, capsys):
    calls = []
    monkeypatch.setattr("bpgm.cli.run_solver", lambda *args: calls.append(args))
    code = run_cli(
        "run", "--problem", "deconv1d", "--dgf", "p:2,ent,p:2", "--grid-size", "50",
        "--iters", "30", "--out", str(tmp_path / "d_{dgf}.csv"),
    )
    assert code == 1
    assert "names one trace for two of the --dgf tokens" in capsys.readouterr().err
    assert calls == []
    assert list(tmp_path.iterdir()) == []


def test_multi_dgf_bad_token_runs_nothing(tmp_path):
    code = run_cli(
        "run", "--problem", "deconv1d", "--dgf", "p:2,p:3", "--grid-size", "50",
        "--iters", "30", "--out", str(tmp_path / "t_{dgf}.csv"),
    )
    assert code == 1
    assert list(tmp_path.iterdir()) == []


def test_multi_dgf_prints_finished_reports_before_a_failure(tmp_path, capsys):
    code = run_cli(
        "run", "--problem", "relu", "--grid-size", "100", "--dgf", "p:2,ent",
        "--iters", "200", "--out", str(tmp_path / "fan_{dgf}.csv"),
    )
    assert code == 1
    captured = capsys.readouterr()
    assert f"wrote {tmp_path / 'fan_p-2.csv'}" in captured.out
    assert "final F = " in captured.out
    assert "signed dgf" in captured.err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["fan_p-2.csv"]


def test_multi_dgf_builds_the_problem_once(tmp_path, monkeypatch):
    calls = []

    def counted(problem):
        calls.append(problem.name)
        return exact_optimum(problem)

    monkeypatch.setattr("bpgm.cli.exact_optimum", counted)
    code = run_cli(
        "run", "--problem", "relu", "--grid-size", "100", "--dgf", "p:2,hyp",
        "--iters", "50", "--out", str(tmp_path / "r_{dgf}.csv"),
    )
    assert code == 0
    assert len(calls) == 1


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
    assert lines[0] == "trace,problem,dgf,method,fitted,theory,diff,r2,aborted_at"
    assert len(lines) == 3


def test_rates_report_marks_an_aborted_trace(tmp_path, capsys):
    # The step-1.5 tv:0.05 run diverges: its objective turns non-finite
    # at iteration 514, and the fit over its records reads as a growth.
    aborted, finished = tmp_path / "aborted.csv", tmp_path / "finished.csv"
    codes = [
        run_cli(
            "run", "--problem", "deconv1d", "--reg", "tv:0.05", "--dgf", "p:2",
            "--step", step, "--iters", "2000", "--out", str(out),
        )
        for out, step in ((aborted, "1.5"), (finished, "0.5"))
    ]
    assert codes == [2, 0]
    capsys.readouterr()
    report = tmp_path / "rates.csv"
    assert run_cli(
        "rates", str(aborted), str(finished), "--fit-lo", "1", "--out", str(report)
    ) == 0
    header, *rows = (line.split(",") for line in report.read_text().splitlines())
    column = header.index("aborted_at")
    assert [row[column] for row in rows] == ["514", ""]
    assert float(rows[0][header.index("fitted")]) > 0


def test_rates_states_why_a_trace_cannot_be_fitted(tmp_path, capsys):
    # The run aborts at iteration 514, so the default window from 1e3 is empty.
    out = tmp_path / "ab.csv"
    assert run_cli(
        "run", "--problem", "deconv1d", "--reg", "tv:0.05", "--dgf", "p:2", "--step", "1.5",
        "--iters", "2000", "--out", str(out),
    ) == 2
    capsys.readouterr()
    assert run_cli("rates", str(out)) == 1
    assert capsys.readouterr().err.startswith(
        f"bpgm: {out}: aborted at iteration 514 (non-finite objective); need at least 10 "
    )


def test_a_trace_without_an_optimum_says_every_gap_is_nan(tmp_path, capsys):
    # relu has no closed form, and a library run does not call exact_optimum.
    problem = build_problem("relu", grid_size=200)
    out = tmp_path / "relu.csv"
    run(problem, parse_dgf("p:2"), SolverConfig(iters=2000)).write_csv(out)
    assert run_cli("rates", str(out)) == 1
    assert capsys.readouterr().err.startswith(
        f"bpgm: {out}: the run recorded no optimal value (inf_value is empty), so every gap "
        f"is nan; need at least 10 "
    )
    code, text = _run_one(problem, parse_dgf("p:2"), SolverConfig(iters=2000), out, 0)
    assert code == 0
    assert "note: the run recorded no optimal value (inf_value is empty)" in text


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
    run(problem, parse_dgf("p:2"), SolverConfig(iters=3000)).write_csv(lib_out)
    report = tmp_path / "rates.csv"
    assert run_cli(
        "rates", str(lib_out), str(cli_out), "--fit-lo", "100", "--out", str(report)
    ) == 0
    assert _theory_column(report) == pytest.approx([-0.8, -0.8])


def test_rates_reads_dimension_from_trace(tmp_path):
    out = tmp_path / "d2.csv"
    problem = build_problem("deconv2d", grid_size=10)
    run(problem, parse_dgf("p:2"), SolverConfig(iters=300)).write_csv(out)
    report = tmp_path / "rates.csv"
    assert run_cli("rates", str(out), "--fit-lo", "10", "--out", str(report)) == 0
    # q = 4 (nonnegative, no TV weight) and d = 2: -q / ((p-1) d + q)
    assert _theory_column(report) == pytest.approx([-4.0 / 6.0])


def test_rates_rejects_trace_without_setting(tmp_path, capsys):
    out = tmp_path / "old.csv"
    trace = run(build_problem("deconv1d", grid_size=60), parse_dgf("p:2"),
                SolverConfig(iters=3000))
    trace.meta.pop("setting", None)  # as in files written before the key existed
    trace.write_csv(out)
    assert run_cli("rates", str(out), "--fit-lo", "100") == 1
    assert "setting" in capsys.readouterr().err


def test_rates_reads_config(tmp_path):
    trace = tmp_path / "t.csv"
    run(build_problem("deconv1d", grid_size=60), parse_dgf("p:2"),
        SolverConfig(iters=3000)).write_csv(trace)
    by_flag, by_config, default = (tmp_path / n for n in ("flag.csv", "cfg.csv", "default.csv"))
    assert run_cli(
        "rates", str(trace), "--fit-lo", "2000", "--fit-hi", "2900", "--out", str(by_flag)
    ) == 0
    cfg = tmp_path / "rates.cfg"
    cfg.write_text(f"fit-lo = 2000\nfit-hi = 2900\nout = {by_config}\n")
    assert run_cli("rates", str(trace), f"@{cfg}") == 0
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


@pytest.mark.parametrize("lo, hi", (("2000", "100"), ("100", "100"), ("nan", "100")),
                         ids=("above", "equal", "nan"))
def test_rates_rejects_an_empty_fit_window(tmp_path, capsys, lo, hi):
    # Checked before any trace is read: the missing file would exit 2.
    code = run_cli("rates", str(tmp_path / "nope.csv"), "--fit-lo", lo, "--fit-hi", hi)
    assert code == 1
    captured = capsys.readouterr()
    assert "--fit-lo" in captured.err and "--fit-hi" in captured.err
    assert captured.out == ""


def _envelope_csv(path):
    assert run_cli("psi", "--problem", "lb:I", "--grid-size", "50", "--out", str(path)) == 0


@pytest.mark.parametrize("write", (
    lambda p: p.write_text("k,F,gap\n1,2,3\n"),
    lambda p: p.write_text("k,F,gap,l1,linf_mirror,time_s\n1,2,3,4,5,6\n2,2,3,4\n"),
    lambda p: p.write_text("k,F,gap,l1,linf_mirror,time_s\n1,2,x,4,5,6\n"),
    _envelope_csv,
    lambda p: p.write_text("# dim=1\nk,F,gap,l1,linf_mirror,time_s\n"),
    lambda p: p.write_text("k,F,gap,l1,linf_mirror,time_s\n1,2,3,4,5\n2,2,3,4,5\n"),
), ids=("short", "ragged", "non-numeric", "envelope", "header-only", "narrow"))
def test_rates_rejects_malformed_trace(tmp_path, capsys, write):
    # Every warning is an error: the reader must fail with a ValueError
    # that names the file, and nothing else.
    bad = tmp_path / "bad.csv"
    write(bad)
    assert _run_quietly("rates", str(bad)) == 1
    assert str(bad) in capsys.readouterr().err


def test_psi_subcommand(tmp_path, capsys):
    out = tmp_path / "env.csv"
    code = run_cli(
        "psi", "--problem", "lb:I", "--dgf", "p:2", "--grid-size", "300",
        "--alpha-lo", "5e-4", "--alpha-hi", "1e-2", "--out", str(out),
    )
    assert code == 0
    text = capsys.readouterr().out
    assert "alpha-exponent" in text and "predicted +0.500" in text
    header = out.read_text().splitlines()
    assert any(line == "alpha,psi_hat,eps_star" for line in header)


def test_psi_flat_envelope_fits_with_r2_one(tmp_path, capsys):
    # On three points f0 wins at every alpha, so psi_hat is 2/9 throughout.
    out = tmp_path / "env.csv"
    assert run_cli("psi", "--problem", "lb:I", "--grid-size", "3", "--out", str(out)) == 0
    psi_hat = np.loadtxt(out, delimiter=",", comments="#", skiprows=3, usecols=1)
    assert np.all(psi_hat == 2.0 / 9.0)
    assert re.search(r"alpha-exponent [+-]0\.000 \(r2 1\.0000\)", capsys.readouterr().out)


def test_psi_csv_layout_and_inf_radii(tmp_path):
    # The # metadata lines, the header, then one row per alpha of the
    # envelope as psi_envelope returns it; f0 wins at the 12 largest
    # alphas, whose radius is written as inf.
    out = tmp_path / "env.csv"
    code = run_cli(
        "psi", "--problem", "lb:I", "--grid-size", "50", "--alpha-lo", "1e-3",
        "--alpha-hi", "10", "--out", str(out),
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[:3] == ["# dgf=p:2", "# problem=lb:I", "alpha,psi_hat,eps_star"]
    rows = [line.split(",") for line in lines[3:]]
    alphas = np.geomspace(1e-3, 10, 25)
    problem = build_problem("lb:I", grid_size=50)
    psi_hat, eps_star = psi_envelope(problem, parse_dgf("p:2"), default_start(problem), alphas)
    assert rows == [[repr(float(v)) for v in row] for row in zip(alphas, psi_hat, eps_star)]
    assert [row[2] for row in rows[-12:]] == ["inf"] * 12
    assert "inf" not in {row[2] for row in rows[:-12]}


def test_run_prints_the_log_factor_of_an_entropy_rate(tmp_path, capsys):
    code = run_cli(
        "run", "--problem", "deconv1d", "--dgf", "ent,p:2", "--grid-size", "60",
        "--iters", "3000", "--out", str(tmp_path / "t-{dgf}.csv"),
    )
    assert code == 0
    theories = [line.split("; ")[-1] for line in capsys.readouterr().out.splitlines()
                if line.startswith("fitted slope")]
    assert theories == ["theory log(k) * k^(-1)", "theory k^(-0.8)"]


def test_psi_entropy_fit_is_raw(tmp_path, capsys):
    # No log correction is applied to the fitted alpha-exponent.
    code = run_cli(
        "psi", "--problem", "deconv1d", "--dgf", "ent", "--grid-size", "60",
        "--out", str(tmp_path / "env.csv"),
    )
    assert code == 0
    text = capsys.readouterr().out
    assert "predicted +1.000 up to a log factor (raw fit)" in text
    assert "log-corrected" not in text


def test_psi_overflowing_divergence_is_runtime_error(tmp_path, capsys):
    # A subnormal beta overflows every mollified divergence: a flat
    # envelope at F(f0) - inf F would describe no candidate.
    out = tmp_path / "e.csv"
    code = run_cli(
        "psi", "--problem", "deconv1d", "--dgf", "hyp:5.56268464626801e-309",
        "--grid-size", "20", "--out", str(out),
    )
    assert code == 2
    captured = capsys.readouterr()
    assert captured.err == (
        "bpgm: the hyp:5.56268464626801e-309 divergence of the candidate at radius 0.175 "
        "overflows\n"
    )
    assert captured.out == ""
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("lo, hi, option", (
    ("nan", "1e-2", "--alpha-lo"), ("inf", "1e-2", "--alpha-lo"), ("-1", "1e-2", "--alpha-lo"),
    ("0", "1e-2", "--alpha-lo"), ("1e-4", "nan", "--alpha-hi"), ("1e-4", "inf", "--alpha-hi"),
    ("1e-4", "-1", "--alpha-hi"), ("1e-4", "0", "--alpha-hi"), ("1e-2", "1e-2", "--alpha-lo"),
    ("1e-2", "1e-3", "--alpha-lo"),
))
def test_psi_rejects_bad_alpha_range(tmp_path, capsys, lo, hi, option):
    out = tmp_path / "e.csv"
    code = run_cli(
        "psi", "--problem", "lb:I", "--grid-size", "50", "--alpha-lo", lo, "--alpha-hi", hi,
        "--out", str(out),
    )
    assert code == 1
    captured = capsys.readouterr()
    assert option in captured.err and "Warning" not in captured.err
    assert captured.out == ""
    assert list(tmp_path.iterdir()) == []


def test_psi_reads_config(tmp_path):
    by_flag, by_config = tmp_path / "flag.csv", tmp_path / "cfg.csv"
    common = ("psi", "--problem", "lb:I", "--dgf", "p:2", "--grid-size", "200")
    assert run_cli(
        *common, "--alpha-lo", "1e-3", "--alpha-hi", "1e-2", "--out", str(by_flag),
    ) == 0
    cfg = tmp_path / "psi.cfg"
    cfg.write_text(f"alpha-lo = 1e-3\nalpha-hi = 1e-2\nout = {by_config}\n")
    assert run_cli(*common, f"@{cfg}") == 0
    assert by_config.read_text() == by_flag.read_text()
    alphas = [float(line.split(",")[0]) for line in by_flag.read_text().splitlines()
              if line[0].isdigit()]
    assert alphas == pytest.approx(np.geomspace(1e-3, 1e-2, 25))


# Grids that take the widened (coarse) sweep, and every token at its FD size.
@pytest.mark.parametrize("token, n", (
    ("deconv1d", 24), ("lb:I", 20), ("relu", 24), ("deconv2d", 16),
    *((token, fd_n) for token, (_, _, fd_n) in PROBLEM_TABLE.items()),
))
def test_psi_default_sweep_on_every_grid(tmp_path, token, n):
    out = tmp_path / "e.csv"
    assert run_cli("psi", "--problem", token, "--grid-size", str(n), "--out", str(out)) == 0
    assert out.exists()


def test_psi_on_a_small_tv_ball_stays_below_the_start_gap(tmp_path):
    # The envelope's f0 candidate bounds it by F(start) - inf, which is
    # finite only because the start on tv_ball:0.5 is feasible.
    out = tmp_path / "e.csv"
    assert run_cli(
        "psi", "--problem", "deconv1d", "--reg", "tv_ball:0.5", "--grid-size", "60",
        "--out", str(out),
    ) == 0
    problem = build_problem("deconv1d", grid_size=60, reg=parse_regularizer("tv_ball:0.5"))
    start_gap = eval_F(problem, default_start(problem)) - problem.inf_value
    assert math.isfinite(start_gap)
    psi_hat = [float(line.split(",")[1]) for line in out.read_text().splitlines()
               if line[0].isdigit()]
    assert len(psi_hat) == 25 and max(psi_hat) <= start_gap


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
        "run", "--problem", "relu", "--reg", "tv:0", "--dgf", "p:2", "--iters", "10",
        "--out", str(tmp_path / "t.csv"),
    )
    assert code == 1
    assert "lam > 0" in capsys.readouterr().err


def _registered_problem(token):
    """A registered problem built as the CLI builds it, at its FD grid size."""
    args = build_parser().parse_args([
        "run", "--problem", token, "--grid-size", str(PROBLEM_TABLE[token][2]),
        "--dgf", "p:2", "--iters", "1", "--out", "unused.csv",
    ])
    return _build_problem_from_args(args)


@pytest.mark.parametrize("token", PROBLEM_TOKENS)
def test_every_registered_problem_knows_its_optimum(token):
    problem = _registered_problem(token)
    assert problem.inf_value is not None and problem.mu_star is not None
    assert eval_F(problem, minimizer_density(problem)) == pytest.approx(
        problem.inf_value, rel=1e-14, abs=0.0
    )
    trace = run(problem, parse_dgf("p:2"), SolverConfig(iters=300, method="apgm"))
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
            "--dgf", "p:2", "--step", "5", "--iters", "200",
            "--out", str(overrun),
        ),
    )
    return codes, exact, overrun


def test_run_prints_notes_instead_of_warnings(tmp_path, capsys):
    codes, _, _ = _traces_with_notes(tmp_path)
    assert codes == (0, 0)
    captured = capsys.readouterr()
    assert "note: dropping 7 rows with non-positive or non-finite gap" in captured.out
    assert "exceeded the norm bound (8.64 > 3) at iteration 1;" in captured.out
    assert "Warning" not in captured.err


def test_rates_prints_notes_instead_of_warnings(tmp_path, capsys):
    _, exact, overrun = _traces_with_notes(tmp_path)
    capsys.readouterr()
    assert _run_quietly("rates", str(exact), str(overrun), "--fit-lo", "10") == 0
    captured = capsys.readouterr()
    assert "note: exact.csv: dropping 7 rows with non-positive" in captured.out
    assert (
        "note: overrun.csv: APGM prox sequence exceeded the norm bound (8.64 > 3) at "
        "iteration 1; the step-size guarantee is conditional on this bound" in captured.out
    )
    assert captured.err == ""


def test_psi_prints_dropped_rows_as_a_note(tmp_path, monkeypatch, capsys):
    def envelope(problem, dgf, f0, alphas):
        psi_hat = np.sqrt(alphas)
        psi_hat[:3] = 0.0
        return psi_hat, np.full(alphas.size, 0.1)

    monkeypatch.setattr("bpgm.cli.psi_envelope", envelope)
    out = tmp_path / "e.csv"
    assert _run_quietly("psi", "--problem", "lb:I", "--grid-size", "200", "--out", str(out)) == 0
    captured = capsys.readouterr()
    assert "alpha-exponent +0.500" in captured.out
    assert (
        "note: dropping 3 rows with non-positive or non-finite gap from the fit window"
        in captured.out.splitlines()
    )
    assert captured.err == ""


def _sparse_schedule(iters):
    """Records at k = 0..11 and at the end: a diverging run meets its
    non-finite gradient between records, and rates still has rows to fit."""
    return (*range(12), iters)


# (run arguments, record schedule or None, rates arguments)
_NOTED_RUNS = {
    "overrun": (
        ("--problem", "deconv1d", "--grid-size", "60", "--method", "apgm", "--dgf", "p:2",
         "--step", "5", "--iters", "200"), None, ("--fit-lo", "1")),
    "objective": (
        ("--problem", "deconv1d", "--reg", "tv:0.05", "--dgf", "p:2", "--step", "1.5",
         "--iters", "20000"), None, ("--fit-lo", "1")),
    "gradient": (
        ("--problem", "deconv1d", "--reg", "tv:0.05", "--dgf", "p:2", "--grid-size", "300",
         "--step", "50", "--iters", "2000"), _sparse_schedule, ("--fit-lo", "1")),
    "exact": (
        ("--problem", "lb:I", "--grid-size", "200", "--dgf", "hyp", "--iters", "3000"),
        None, ("--fit-lo", "1e3", "--fit-hi", "3000")),
}


@pytest.mark.parametrize("case", sorted(_NOTED_RUNS))
def test_rates_prints_every_note_of_run(tmp_path, monkeypatch, capsys, case):
    run_args, schedule, rates_args = _NOTED_RUNS[case]
    if schedule is not None:
        monkeypatch.setattr(solver, "record_schedule", schedule)
    out = tmp_path / f"{case}.csv"
    run_code = _run_quietly("run", *run_args, "--out", str(out))
    said = [
        line.removeprefix("note: ") for line in capsys.readouterr().out.splitlines()
        if line.startswith(("note: ", "aborted at "))
    ]
    assert said
    assert (run_code == 2) == (case in ("objective", "gradient"))
    if run_code == 2:
        assert said[0].endswith(f"(non-finite {case})")
    assert _run_quietly("rates", str(out), *rates_args) == 0
    printed = capsys.readouterr().out.splitlines()
    for sentence in said:
        assert f"note: {case}.csv: {sentence}" in printed


def test_psi_requires_out():
    assert run_cli_code("psi", "--problem", "lb:I", "--grid-size", "200") == 1


def test_run_names_an_empty_fit_window(tmp_path, capsys):
    # The window [1e3, iters] holds no k when iters < 1000.
    code = run_cli(
        "run", "--problem", "deconv1d", "--grid-size", "30", "--dgf", "p:2",
        "--iters", "500", "--out", str(tmp_path / "t.csv"),
    )
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == "no slope fit: the fit window [1000, 500] is empty"


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


def test_multi_dgf_traces_match_single_token_runs(tmp_path):
    # Also the CLI's determinism check: separate `bpgm run` calls write
    # the same trace up to the time_s column.
    common = ("run", "--problem", "deconv1d", "--grid-size", "50", "--iters", "300")
    assert run_cli(*common, "--dgf", "p:2,ent", "--out", str(tmp_path / "multi_{dgf}.csv")) == 0
    for token, name in (("p:2", "p-2"), ("ent", "ent")):
        single = tmp_path / f"single_{name}.csv"
        assert run_cli(*common, "--dgf", token, "--out", str(single)) == 0
        multi = tmp_path / f"multi_{name}.csv"
        assert strip_time(multi.read_text()) == strip_time(single.read_text())
