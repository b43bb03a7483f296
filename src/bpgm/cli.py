"""Command-line experiment runner.

Subcommands: run (solve + trace), rates (fit slopes of saved traces),
psi (envelope curves), verify (oracle suite). Flags override an
optional flat key=value config file; every effective value is echoed
into the output metadata so a trace is a complete record of its run.

Exit codes: 0 success, 1 usage, 2 runtime failure, 3 verification
failure. BPGM_WORKERS controls fan-out when `run` is given several
dgf tokens.
"""

import argparse
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from .analysis import (
    classify_setting,
    fit_loglog,
    fit_rate,
    psi_envelope,
    setting_exponent,
    theoretical_exponent,
)
from .dgf import parse_dgf
from .objective import PROBLEM_TOKENS, build_problem, parse_regularizer
from .solver import SolverConfig, Trace, run as run_solver
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


def _effective(args, key, default=None, cast=None):
    """Flag value, else config-file value, else default."""
    value = getattr(args, key, None)
    if value is None:
        value = args._config_values.get(key, default)
    if value is not None and cast is not None:
        value = cast(value)
    return value


def _load_config(args):
    args._config_values = {}
    path = getattr(args, "config", None)
    if path:
        args._config_values = _read_config_file(path)


def _atomic_write_text(path, text):
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "w") as fh:
        fh.write(text)
    os.replace(tmp, path)


def _build_problem_from_args(args, dgf_token=None):
    problem_token = _effective(args, "problem")
    if problem_token is None:
        raise ValueError("no problem token given (flag --problem or config)")
    reg_token = _effective(args, "reg")
    reg = parse_regularizer(reg_token) if reg_token else None
    lam = _effective(args, "lam", cast=float)
    problem = build_problem(
        problem_token,
        grid_size=_effective(args, "grid_size", cast=int),
        reg=reg,
        lam=lam,
        seed=_effective(args, "seed", 0, cast=int),
    )
    inf_value = _effective(args, "inf_value", cast=float)
    inf_from = _effective(args, "inf_value_from")
    if inf_value is not None and inf_from:
        raise ValueError("give either --inf-value or --inf-value-from, not both")
    if inf_from:
        ref = Trace.read_csv(inf_from)
        inf_value = float(np.nanmin(ref.F))
    if inf_value is not None:
        problem = problem.with_inf_value(inf_value)
    return problem


def _run_one(args_dict):
    """One (problem, dgf) run; module-level for process-pool pickling."""
    args = argparse.Namespace(**args_dict)
    problem = _build_problem_from_args(args)
    dgf = parse_dgf(args.dgf)
    config = SolverConfig(
        iters=_effective(args, "iters", cast=int),
        method=_effective(args, "method", "pgm"),
        step=_effective(args, "step", cast=float),
        k_bound=_effective(args, "k_bound", cast=float),
    )
    trace = run_solver(problem, dgf, config)
    trace.meta["seed"] = str(_effective(args, "seed", 0, cast=int))

    out = args.out
    trace.write_csv(out)
    plot_data = _effective(args, "plot_data")
    if plot_data:
        lines = [
            f"{int(k)} {float(g)!r}\n" for k, g in zip(trace.k, trace.gap) if k > 0
        ]
        _atomic_write_text(plot_data, "".join(lines))

    lines = [f"wrote {out}"]
    if trace.aborted:
        lines.append(
            f"aborted at iteration {trace.meta['aborted_at']} "
            f"(non-finite {trace.meta['abort_reason']})"
        )
        return 2, "\n".join(lines)
    final_F, final_gap = float(trace.F[-1]), float(trace.gap[-1])
    lines.append(f"final F = {final_F:.6e}" + (
        f", gap = {final_gap:.6e}" if math.isfinite(final_gap) else ""
    ))
    if np.any(np.nan_to_num(trace.gap) > 0):
        q = classify_setting(problem)
        model = theoretical_exponent(config.method, dgf, q, problem.grid.dim)
        window = (
            _effective(args, "fit_lo", 1e3, cast=float),
            _effective(args, "fit_hi", float(config.iters), cast=float),
        )
        try:
            # Raw fit: a log(k) factor in the theory does not move the
            # asymptotic log-log slope, so the comparison stays direct.
            slope, r2 = fit_rate(trace, window=window)
            lines.append(
                f"fitted slope {slope:+.3f} (r2 {r2:.4f}) over "
                f"k in [{window[0]:g}, {window[1]:g}]; theory {model.describe()}"
            )
        except ValueError as exc:
            lines.append(f"no slope fit: {exc}")
    else:
        lines.append(
            "no reference optimum recorded; pass --inf-value or --inf-value-from "
            "to get gap columns and slope fits"
        )
    return 0, "\n".join(lines)


def cmd_run(args):
    _load_config(args)
    tokens = [t.strip() for t in _effective(args, "dgf", "").split(",") if t.strip()]
    if not tokens:
        raise ValueError("no dgf token given (flag --dgf or config)")
    out = _effective(args, "out")
    if out is None:
        raise ValueError("no output path given (flag --out or config)")
    jobs = []
    for token in tokens:
        if len(tokens) == 1:
            path = out
        elif "{dgf}" in out:
            path = out.replace("{dgf}", token.replace(":", "-"))
        else:
            root, ext = os.path.splitext(out)
            path = f"{root}_{token.replace(':', '-')}{ext or '.csv'}"
        job = dict(vars(args))
        job.pop("func", None)
        job["dgf"] = token
        job["out"] = path
        job["_config_values"] = args._config_values
        jobs.append(job)

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
    _load_config(args)
    if not args.traces:
        raise ValueError("no trace files given")
    window = (
        _effective(args, "fit_lo", 1e3, cast=float),
        _effective(args, "fit_hi", math.inf, cast=float),
    )
    out = _effective(args, "out")
    rows = []
    for path in args.traces:
        trace = Trace.read_csv(path)
        missing = [key for key in ("setting", "dim") if not trace.meta.get(key)]
        if missing:
            raise ValueError(
                f"trace {path} has no {' or '.join(missing)} metadata; "
                f"rates needs the problem's setting tag and dimension"
            )
        dgf = parse_dgf(trace.meta["dgf"])
        q = setting_exponent(trace.meta["setting"])
        model = theoretical_exponent(trace.meta["method"], dgf, q, int(trace.meta["dim"]))
        slope, r2 = fit_loglog(trace.k, trace.gap, window=window)
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
    if out:
        _atomic_write_text(out, "".join(csv_lines))
        print(f"wrote {out}")
    return 0


def cmd_psi(args):
    _load_config(args)
    problem = _build_problem_from_args(args)
    out = _effective(args, "out")
    if out is None:
        raise ValueError("no output path given (flag --out or config)")
    dgf = parse_dgf(_effective(args, "dgf", "p:2"))
    alphas = np.geomspace(
        _effective(args, "alpha_lo", 1e-6, cast=float),
        _effective(args, "alpha_hi", 1e-2, cast=float),
        _effective(args, "alpha_count", 25, cast=int),
    )
    eps_lo = _effective(args, "eps_lo", cast=float)
    eps_hi = _effective(args, "eps_hi", cast=float)
    eps_grid = None
    if eps_lo is not None and eps_hi is not None:
        eps_grid = np.geomspace(eps_lo, eps_hi, _effective(args, "eps_count", 30, cast=int))
    f0 = np.ones(problem.grid.size)
    curve = psi_envelope(problem, dgf, f0, alphas, eps_grid=eps_grid)
    curve.write_csv(out)
    print(f"wrote {out}")
    plot_data = _effective(args, "plot_data")
    if plot_data:
        _atomic_write_text(
            plot_data,
            "".join(
                f"{float(a)!r} {float(p)!r}\n" for a, p in zip(curve.alpha, curve.psi_hat)
            ),
        )
    slope, r2 = fit_loglog(curve.alpha, curve.psi_hat, window=(0.0, math.inf))
    q = classify_setting(problem)
    model = theoretical_exponent("pgm", dgf, q, problem.grid.dim)
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
    parser = _Parser(prog="bpgm", description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="solve a problem and write a trace CSV")
    run_p.add_argument("--problem", choices=PROBLEM_TOKENS)
    run_p.add_argument("--dgf", help="dgf token(s), comma separated: p:<v> | ent | hyp:<beta>")
    run_p.add_argument("--method", choices=("pgm", "apgm"))
    run_p.add_argument("--iters", type=int)
    run_p.add_argument("--step", type=float)
    run_p.add_argument("--k-bound", dest="k_bound", type=float)
    run_p.add_argument("--grid-size", dest="grid_size", type=int)
    run_p.add_argument("--reg", help="nonneg_tv:<lam> | simplex | tv:<lam> | tv_ball:<K>")
    run_p.add_argument("--lam", type=float)
    run_p.add_argument("--seed", type=int)
    run_p.add_argument("--inf-value", dest="inf_value", type=float)
    run_p.add_argument(
        "--inf-value-from",
        dest="inf_value_from",
        help="trace CSV whose minimum F serves as the reference optimum",
    )
    run_p.add_argument("--fit-lo", dest="fit_lo", type=float)
    run_p.add_argument("--fit-hi", dest="fit_hi", type=float)
    run_p.add_argument("--out")
    run_p.add_argument("--plot-data", dest="plot_data", help="also write plain 'k gap' columns")
    run_p.add_argument("--config", help="flat key=value file; flags take precedence")
    run_p.set_defaults(func=cmd_run)

    rates_p = sub.add_parser("rates", help="fit rate slopes of saved traces")
    rates_p.add_argument("traces", nargs="*")
    rates_p.add_argument("--fit-lo", dest="fit_lo", type=float)
    rates_p.add_argument("--fit-hi", dest="fit_hi", type=float)
    rates_p.add_argument("--out", help="machine-readable CSV report")
    rates_p.add_argument("--config")
    rates_p.set_defaults(func=cmd_rates)

    psi_p = sub.add_parser("psi", help="compute a suboptimality envelope curve")
    psi_p.add_argument("--problem", choices=PROBLEM_TOKENS)
    psi_p.add_argument("--dgf")
    psi_p.add_argument("--grid-size", dest="grid_size", type=int)
    psi_p.add_argument("--reg")
    psi_p.add_argument("--lam", type=float)
    psi_p.add_argument("--seed", type=int)
    psi_p.add_argument("--inf-value", dest="inf_value", type=float)
    psi_p.add_argument("--inf-value-from", dest="inf_value_from")
    psi_p.add_argument("--alpha-lo", dest="alpha_lo", type=float)
    psi_p.add_argument("--alpha-hi", dest="alpha_hi", type=float)
    psi_p.add_argument("--alpha-count", dest="alpha_count", type=int)
    psi_p.add_argument("--eps-lo", dest="eps_lo", type=float)
    psi_p.add_argument("--eps-hi", dest="eps_hi", type=float)
    psi_p.add_argument("--eps-count", dest="eps_count", type=int)
    psi_p.add_argument("--out")
    psi_p.add_argument("--plot-data", dest="plot_data")
    psi_p.add_argument("--config")
    psi_p.set_defaults(func=cmd_psi)

    verify_p = sub.add_parser("verify", help="run the oracle suite")
    verify_p.add_argument("--seed", type=int, default=0)
    verify_p.add_argument("--fast", action="store_true", help="smaller sweeps (smoke test)")
    verify_p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"bpgm: {exc}", file=sys.stderr)
        return 1
    except (RuntimeError, OSError) as exc:
        print(f"bpgm: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
