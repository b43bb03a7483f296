"""Command-line experiment runner.

Subcommands: run (solve + trace), rates (fit slopes of saved traces),
psi (envelope curves), verify (oracle suite).

run, rates and psi take an optional flat `key = value` file through
--config. Its keys are the subcommand's long option names, with `-` or
`_`; its values become that subcommand's argparse defaults, so they are
cast like flag values and explicit flags win. An unknown key, a value
that does not cast, or a missing required setting is a usage error.
Every effective value is echoed into the output metadata so a trace is
a complete record of its run.

Exit codes: 0 success, 1 usage, 2 runtime failure, 3 verification
failure. BPGM_WORKERS controls fan-out when `run` is given several
dgf tokens.
"""

import argparse
import math
import os
import sys
import warnings
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from .analysis import default_eps_grid, fit_loglog, psi_envelope, theoretical_exponent
from .dgf import parse_dgf
from .objective import PROBLEM_TOKENS, build_problem, exact_optimum, parse_regularizer
from .solver import SolverConfig, Trace, run as run_solver, write_atomic
from .verify import run_all_checks

class _Parser(argparse.ArgumentParser):
    """argparse with usage errors mapped to exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        sys.exit(1)


def _read_config_file(path):
    values = {}
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, sep, value = line.partition("=")
            if not sep:
                raise ValueError(f"bad config line (expected key=value): {line!r}")
            values[key.strip().replace("-", "_")] = value.strip()
    return values


def _config_defaults(command, path):
    """The config file at `path` as defaults for the `command` parser."""
    values = _read_config_file(path)
    keys = {
        action.dest for action in command._actions
        if action.option_strings and action.dest not in ("help", "config")
    }
    unknown = sorted(set(values) - keys)
    if unknown:
        raise ValueError(
            f"unknown config key(s) {', '.join(unknown)} in {path} for "
            f"'{command.prog}'; known: {', '.join(sorted(keys))}"
        )
    return values


def _require(args, *keys):
    missing = [f"--{key.replace('_', '-')}" for key in keys if getattr(args, key) is None]
    if missing:
        raise ValueError(f"no {', '.join(missing)} given (flag or config)")


def _build_problem_from_args(args):
    problem = build_problem(
        args.problem,
        grid_size=args.grid_size,
        reg=parse_regularizer(args.reg) if args.reg else None,
        lam=args.lam,
        seed=args.seed,
    )
    return problem if problem.inf_value is not None else exact_optimum(problem)


def _predicted_rate(meta, source):
    """Rate model of a trace from its `method`, `dgf`, `setting` and `dim` metadata."""
    missing = [key for key in ("setting", "dim") if not meta.get(key)]
    if missing:
        raise ValueError(
            f"trace {source} has no {' or '.join(missing)} metadata; "
            f"rates needs the problem's setting tag and dimension"
        )
    dgf = parse_dgf(meta["dgf"])
    return theoretical_exponent(meta["method"], dgf, meta["setting"], int(meta["dim"]))


def _noted(notes, label, fn, *args, **kwargs):
    """fn(*args, **kwargs); the warnings it raises go to `notes` as lines
    `note: <label><message>` instead of to stderr."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", RuntimeWarning)
        try:
            return fn(*args, **kwargs)
        finally:
            notes.extend(f"note: {label}{w.message}" for w in caught)


def _run_one(args):
    """One (problem, dgf) run; module-level for process-pool pickling."""
    problem = _build_problem_from_args(args)
    dgf = parse_dgf(args.dgf)
    config = SolverConfig(
        iters=args.iters, method=args.method, step=args.step, k_bound=args.k_bound
    )
    notes = []
    trace = _noted(notes, "", run_solver, problem, dgf, config)
    trace.meta["seed"] = str(args.seed)

    trace.write_csv(args.out)
    if args.plot_data:
        write_atomic(
            args.plot_data,
            (f"{int(k)} {float(g)!r}\n" for k, g in zip(trace.k, trace.gap) if k > 0),
        )

    lines = [f"wrote {args.out}"]
    if trace.aborted:
        lines.append(
            f"aborted at iteration {trace.meta['aborted_at']} "
            f"(non-finite {trace.meta['abort_reason']})"
        )
        return 2, "\n".join(lines + notes)
    final_F, final_gap = float(trace.F[-1]), float(trace.gap[-1])
    lines.append(f"final F = {final_F:.6e}, gap = {final_gap:.6e}")
    model = _predicted_rate(trace.meta, args.out)
    window = (args.fit_lo, float(config.iters) if args.fit_hi is None else args.fit_hi)
    try:
        # Raw fit: a log(k) factor in the theory does not move the
        # asymptotic log-log slope, so the comparison stays direct.
        slope, r2 = _noted(notes, "", fit_loglog, trace.k, trace.gap, window=window)
        lines.append(
            f"fitted slope {slope:+.3f} (r2 {r2:.4f}) over "
            f"k in [{window[0]:g}, {window[1]:g}]; theory {model.describe()}"
        )
    except ValueError as exc:
        lines.append(f"no slope fit: {exc}")
    return 0, "\n".join(lines + notes)


def cmd_run(args):
    _require(args, "problem", "dgf", "iters", "out")
    tokens = [t.strip() for t in args.dgf.split(",") if t.strip()]
    if not tokens:
        raise ValueError("no dgf token given (flag --dgf or config)")
    out = args.out
    jobs = []
    for token in tokens:
        if "{dgf}" in out:
            path = out.replace("{dgf}", token.replace(":", "-"))
        elif len(tokens) == 1:
            path = out
        else:
            root, ext = os.path.splitext(out)
            path = f"{root}_{token.replace(':', '-')}{ext or '.csv'}"
        jobs.append(argparse.Namespace(**{**vars(args), "dgf": token, "out": path}))

    workers = int(os.environ.get("BPGM_WORKERS", "1"))
    if workers > 1 and len(jobs) > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_run_one, jobs))
    else:
        results = [_run_one(job) for job in jobs]
    status = 0
    for code, text in results:
        print(text)
        status = max(status, code)
    return status


def cmd_rates(args):
    window = (args.fit_lo, args.fit_hi)
    rows = []
    notes = []
    for path in args.traces:
        trace = Trace.read_csv(path)
        model = _predicted_rate(trace.meta, path)
        label = f"{os.path.basename(path)}: "
        if trace.meta.get("k_bound_exceeded_at"):
            notes.append(
                f"note: {label}APGM prox sequence exceeded the norm bound at "
                f"iteration {trace.meta['k_bound_exceeded_at']}"
            )
        slope, r2 = _noted(notes, label, fit_loglog, trace.k, trace.gap, window=window)
        rows.append((path, trace.meta, slope, r2, model))
    header = f"{'trace':<40} {'fitted':>8} {'theory':>8} {'diff':>7} {'r2':>7}"
    print(header)
    print("-" * len(header))
    csv_lines = ["trace,problem,dgf,method,fitted,theory,diff,r2\n"]
    for path, meta, slope, r2, model in rows:
        diff = slope - model.exponent
        print(
            f"{os.path.basename(path):<40} {slope:>+8.3f} {model.exponent:>+8.3f} "
            f"{diff:>+7.3f} {r2:>7.4f}"
        )
        csv_lines.append(
            f"{path},{meta.get('problem', '')},{meta.get('dgf', '')},"
            f"{meta.get('method', '')},{slope!r},{model.exponent!r},{diff!r},{r2!r}\n"
        )
    for note in notes:
        print(note)
    if args.out:
        write_atomic(args.out, csv_lines)
        print(f"wrote {args.out}")
    return 0


def cmd_psi(args):
    _require(args, "problem", "out")
    problem = _build_problem_from_args(args)
    dgf = parse_dgf(args.dgf)
    alphas = np.geomspace(args.alpha_lo, args.alpha_hi, args.alpha_count)
    eps_grid = default_eps_grid(problem.grid, args.eps_count, args.eps_lo, args.eps_hi)
    f0 = np.ones(problem.grid.size)
    curve = psi_envelope(problem, dgf, f0, alphas, eps_grid=eps_grid)
    curve.write_csv(args.out)
    print(f"wrote {args.out}")
    if args.plot_data:
        write_atomic(
            args.plot_data,
            (f"{float(a)!r} {float(p)!r}\n" for a, p in zip(curve.alpha, curve.psi_hat)),
        )
    slope, r2 = fit_loglog(curve.alpha, curve.psi_hat, window=(0.0, math.inf))
    model = theoretical_exponent("pgm", dgf, problem.setting_tag, problem.grid.dim)
    predicted = -model.exponent
    log_note = " (log-corrected for entropies)" if model.log_factor else ""
    interior = np.sum(np.isfinite(curve.eps_star)) / len(curve.eps_star)
    print(
        f"alpha-exponent {slope:+.3f} (r2 {r2:.4f}); predicted {predicted:+.3f}"
        f"{log_note}; mollified candidates win at {interior:.0%} of alphas"
    )
    return 0


def cmd_verify(args):
    results = run_all_checks(seed=args.seed, fast=args.fast)
    width = max(len(r.name) for r in results)
    failed = 0
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"{r.name:<{width}}  {status}  {r.detail}")
        failed += 0 if r.passed else 1
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return 3 if failed else 0


def build_parser():
    """The `bpgm` parser and its subcommand parsers by name."""
    parser = _Parser(prog="bpgm", description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    config_help = "flat key=value file of option defaults; flags take precedence"

    run_p = sub.add_parser("run", help="solve a problem and write a trace CSV")
    run_p.add_argument("--problem", choices=PROBLEM_TOKENS)
    run_p.add_argument("--dgf", help="dgf token(s), comma separated: p:<v> | ent | hyp:<beta>")
    run_p.add_argument("--method", choices=("pgm", "apgm"), default="pgm")
    run_p.add_argument("--iters", type=int)
    run_p.add_argument("--step", type=float)
    run_p.add_argument("--k-bound", type=float)
    run_p.add_argument("--grid-size", type=int)
    run_p.add_argument("--reg", help="nonneg_tv:<lam> | simplex | tv:<lam> | tv_ball:<K>")
    run_p.add_argument("--lam", type=float)
    run_p.add_argument("--seed", type=int, default=0)
    run_p.add_argument("--fit-lo", type=float, default=1e3)
    run_p.add_argument("--fit-hi", type=float, help="default: --iters")
    run_p.add_argument("--out")
    run_p.add_argument("--plot-data", help="also write plain 'k gap' columns")
    run_p.add_argument("--config", help=config_help)
    run_p.set_defaults(func=cmd_run)

    rates_p = sub.add_parser("rates", help="fit rate slopes of saved traces")
    rates_p.add_argument("traces", nargs="+")
    rates_p.add_argument("--fit-lo", type=float, default=1e3)
    rates_p.add_argument("--fit-hi", type=float, default=math.inf)
    rates_p.add_argument("--out", help="machine-readable CSV report")
    rates_p.add_argument("--config", help=config_help)
    rates_p.set_defaults(func=cmd_rates)

    psi_p = sub.add_parser("psi", help="compute a suboptimality envelope curve")
    psi_p.add_argument("--problem", choices=PROBLEM_TOKENS)
    psi_p.add_argument("--dgf", default="p:2")
    psi_p.add_argument("--grid-size", type=int)
    psi_p.add_argument("--reg")
    psi_p.add_argument("--lam", type=float)
    psi_p.add_argument("--seed", type=int, default=0)
    psi_p.add_argument("--alpha-lo", type=float, default=1e-6)
    psi_p.add_argument("--alpha-hi", type=float, default=1e-2)
    psi_p.add_argument("--alpha-count", type=int, default=25)
    psi_p.add_argument("--eps-lo", type=float)
    psi_p.add_argument("--eps-hi", type=float)
    psi_p.add_argument("--eps-count", type=int, default=30)
    psi_p.add_argument("--out")
    psi_p.add_argument("--plot-data")
    psi_p.add_argument("--config", help=config_help)
    psi_p.set_defaults(func=cmd_psi)

    verify_p = sub.add_parser("verify", help="run the oracle suite")
    verify_p.add_argument("--seed", type=int, default=0)
    verify_p.add_argument("--fast", action="store_true", help="smaller sweeps (smoke test)")
    verify_p.set_defaults(func=cmd_verify)
    return parser, sub.choices


def main(argv=None):
    parser, commands = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "config", None):
            command = commands[args.command]
            command.set_defaults(**_config_defaults(command, args.config))
            args = parser.parse_args(argv)
        return args.func(args)
    except ValueError as exc:
        print(f"bpgm: {exc}", file=sys.stderr)
        return 1
    except (RuntimeError, OSError) as exc:
        print(f"bpgm: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
