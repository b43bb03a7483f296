"""Command-line experiment runner.

Subcommands: run (solve + trace), rates (fit slopes of saved traces),
psi (envelope curves), verify (oracle suite).

Every setting is a long option. An `@FILE` argument stands for the
settings in FILE, read in its place: one `key = value` per line, keys
being long option names with `-` or `_`, blank lines and `#` lines
skipped (`bpgm run @run.cfg --iters 20`). The last occurrence of a
setting wins, so a flag after `@FILE` overrides the file. Options are
never abbreviated, so a misspelt key is an unknown option rather than
another one. Every effective value is echoed into the output metadata
so a trace is a complete record of its run.

Exit codes: 0 success, 1 usage, 2 runtime failure, 3 verification
failure.
"""

import argparse
import math
import os
import sys

import numpy as np

from .analysis import fit_loglog, psi_envelope, theoretical_exponent
from .dgf import parse_dgf
from .objective import (
    PROBLEM_TOKENS,
    build_problem,
    default_start,
    exact_optimum,
    parse_regularizer,
)
from .solver import SolverConfig, Trace, run as run_solver, write_atomic
from .verify import run_all_checks

class _Parser(argparse.ArgumentParser):
    """argparse with usage errors mapped to exit code 1, no abbreviated
    options, and `key = value` lines in `@FILE` settings files."""

    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, **kwargs)

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        sys.exit(1)

    def convert_arg_line_to_args(self, arg_line):
        line = arg_line.strip()
        if not line or line.startswith("#"):
            return []
        key, sep, value = line.partition("=")
        if not sep:
            self.error(f"bad settings line (expected key = value): {line!r}")
        return [f"--{key.strip().replace('_', '-')}={value.strip()}"]


def _build_problem_from_args(args):
    problem = build_problem(
        args.problem,
        grid_size=args.grid_size,
        reg=parse_regularizer(args.reg) if args.reg else None,
        seed=args.seed,
    )
    return problem if problem.inf_value is not None else exact_optimum(problem)


def _predicted_rate(meta):
    """Predicted exponent of a trace from its `method`, `dgf`, `setting` and `dim` metadata."""
    missing = [key for key in ("setting", "dim") if not meta.get(key)]
    if missing:
        raise ValueError(
            f"trace has no {' or '.join(missing)} metadata; "
            f"rates needs the problem's setting tag and dimension"
        )
    dgf = parse_dgf(meta["dgf"])
    return theoretical_exponent(meta["method"], dgf, meta["setting"], int(meta["dim"]))


def _fit(k, gap, window, label, notes):
    """(slope, r2) of the log-log fit of gap against k over `window`; the
    rows it dropped go to `notes` as a line `note: <label>dropping ...`."""
    slope, r2, dropped = fit_loglog(k, gap, window=window)
    if dropped:
        notes.append(
            f"note: {label}dropping {dropped} rows with non-positive or "
            f"non-finite gap from the fit window"
        )
    return slope, r2


def _caveats(meta):
    """What a trace's metadata says went wrong in its run, as sentences:
    where it aborted, where its APGM prox sequence left the norm bound,
    then whether it ran without an optimal value to take gaps against."""
    if "aborted_at" in meta:
        yield f"aborted at iteration {meta['aborted_at']} (non-finite {meta['abort_reason']})"
    if "k_bound_exceeded_at" in meta:
        seen = float(meta.get("k_bound_exceeded_l1", "nan"))
        yield (
            f"APGM prox sequence exceeded the norm bound ({seen:.3g} > "
            f"{float(meta['k_bound']):.3g}) at iteration {meta['k_bound_exceeded_at']}; "
            f"the step-size guarantee is conditional on this bound"
        )
    if meta.get("inf_value") == "":
        yield "the run recorded no optimal value (inf_value is empty), so every gap is nan"


def _report(trace, window, label, notes):
    """(slope, r2, theory) of a trace: its gap fitted over `window` and
    the exponent its metadata predicts. Every note of the trace goes to
    `notes` as a line `note: <label><sentence>`: its caveats, then the
    rows the fit dropped."""
    theory = _predicted_rate(trace.meta)
    notes.extend(f"note: {label}{sentence}" for sentence in _caveats(trace.meta))
    slope, r2 = _fit(trace.k, trace.gap, window, label, notes)
    return slope, r2, theory


def _run_one(problem, dgf, config, out, seed):
    """Solve `problem` under `dgf` and write the trace to `out`; returns
    the exit code (2 for an aborted run) and the report."""
    trace = run_solver(problem, dgf, config)
    trace.meta["seed"] = str(seed)
    trace.write_csv(out)

    lines = [f"wrote {out}"]
    if trace.aborted:
        # An aborted run gets no fit; its abort is the status line.
        abort, *caveats = _caveats(trace.meta)
        return 2, "\n".join([*lines, abort, *(f"note: {c}" for c in caveats)])
    lines.append(f"final F = {float(trace.F[-1]):.6e}, gap = {float(trace.gap[-1]):.6e}")
    window = (1e3, float(config.iters))
    notes = []
    try:
        # Raw fit: a log(k) factor in the theory does not move the
        # asymptotic log-log slope, so the comparison stays direct.
        slope, r2, theory = _report(trace, window, "", notes)
        log = "log(k) * " if dgf.p == 1.0 else ""
        lines.append(
            f"fitted slope {slope:+.3f} (r2 {r2:.4f}) over "
            f"k in [{window[0]:g}, {window[1]:g}]; theory {log}k^({theory:+.4g})"
        )
    except ValueError as exc:
        lines.append(f"no slope fit: {exc}")
    return 0, "\n".join(lines + notes)


def cmd_run(args):
    """Run the --dgf tokens in order on one problem. Every token and
    output path is checked before the first run, and each report prints
    as its run ends, so a later failure leaves the earlier ones shown."""
    tokens = [t.strip() for t in args.dgf.split(",") if t.strip()]
    if not tokens:
        raise ValueError("no dgf token given in --dgf")
    if len(tokens) > 1 and "{dgf}" not in args.out:
        raise ValueError(f"--out {args.out} needs {{dgf}} to name the trace of each dgf token")
    jobs = [(parse_dgf(t), args.out.replace("{dgf}", t.replace(":", "-"))) for t in tokens]
    outs = [out for _, out in jobs]
    if len(set(outs)) < len(outs):
        raise ValueError(f"--out {args.out} names one trace for two of the --dgf tokens")
    for out in outs:
        if os.path.isdir(out):
            raise OSError(f"--out {out} is a directory")
        if not os.path.isdir(os.path.dirname(out) or "."):
            raise OSError(f"--out {out}: {os.path.dirname(out)} is not a directory")
    config = SolverConfig(iters=args.iters, method=args.method, step=args.step)
    problem = _build_problem_from_args(args)
    status = 0
    for dgf, out in jobs:
        code, text = _run_one(problem, dgf, config, out, args.seed)
        print(text)
        status = max(status, code)
    return status


def cmd_rates(args):
    # Also catches nan, which would otherwise read as an empty window.
    if not args.fit_lo < args.fit_hi:
        raise ValueError(f"--fit-lo {args.fit_lo:g} must be below --fit-hi {args.fit_hi:g}")
    window = (args.fit_lo, args.fit_hi)
    rows, notes = [], []
    for path in args.traces:
        trace = Trace.read_csv(path)
        try:
            slope, r2, theory = _report(trace, window, f"{os.path.basename(path)}: ", notes)
        except ValueError as exc:
            # The caveats say why: an aborted run may leave no rows to fit.
            raise ValueError(f"{path}: " + "; ".join([*_caveats(trace.meta), str(exc)])) from None
        meta = trace.meta
        rows.append((path, meta.get("problem", ""), meta.get("dgf", ""), meta.get("method", ""),
                     slope, theory, slope - theory, r2, meta.get("aborted_at", "")))
    header = f"{'trace':<40} {'fitted':>8} {'theory':>8} {'diff':>7} {'r2':>7}"
    print(header)
    print("-" * len(header))
    for path, *_, slope, theory, diff, r2, _aborted in rows:
        name = os.path.basename(path)
        print(f"{name:<40} {slope:>+8.3f} {theory:>+8.3f} {diff:>+7.3f} {r2:>7.4f}")
    for note in notes:
        print(note)
    if args.out:
        header = ("trace", "problem", "dgf", "method", "fitted", "theory", "diff", "r2",
                  "aborted_at")
        write_atomic(args.out, rows, header=header)
        print(f"wrote {args.out}")
    return 0


def cmd_psi(args):
    for option, alpha in (("--alpha-lo", args.alpha_lo), ("--alpha-hi", args.alpha_hi)):
        if not (math.isfinite(alpha) and alpha > 0):
            raise ValueError(f"{option} must be finite and positive, got {alpha:g}")
    if not args.alpha_lo < args.alpha_hi:
        raise ValueError(
            f"--alpha-lo {args.alpha_lo:g} must be below --alpha-hi {args.alpha_hi:g}"
        )
    problem = _build_problem_from_args(args)
    dgf = parse_dgf(args.dgf)
    alphas = np.geomspace(args.alpha_lo, args.alpha_hi, 25)
    psi_hat, eps_star = psi_envelope(problem, dgf, default_start(problem), alphas)
    write_atomic(args.out, zip(alphas, psi_hat, eps_star),
                 meta={"problem": problem.name, "dgf": dgf.name},
                 header=("alpha", "psi_hat", "eps_star"))
    print(f"wrote {args.out}")
    notes = []
    slope, r2 = _fit(alphas, psi_hat, (0.0, math.inf), "", notes)
    predicted = -theoretical_exponent("pgm", dgf, problem.setting_tag, problem.grid.dim)
    # Raw fit, as in run and rates: a log factor does not move the slope.
    log_note = " up to a log factor (raw fit)" if dgf.p == 1.0 else ""
    interior = np.sum(np.isfinite(eps_star)) / len(eps_star)
    print(
        f"alpha-exponent {slope:+.3f} (r2 {r2:.4f}); predicted {predicted:+.3f}"
        f"{log_note}; mollified candidates win at {interior:.0%} of alphas"
    )
    for note in notes:
        print(note)
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
    """The `bpgm` argument parser."""
    parser = _Parser(prog="bpgm", description=__doc__.split("\n\n")[0], fromfile_prefix_chars="@")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="solve a problem and write a trace CSV")
    run_p.add_argument("--problem", choices=PROBLEM_TOKENS, required=True)
    run_p.add_argument("--dgf", required=True, help="comma-separated p:<v> | ent | hyp:<beta>")
    run_p.add_argument("--method", choices=("pgm", "apgm"), default="pgm")
    run_p.add_argument("--iters", type=int, required=True)
    run_p.add_argument("--step", type=float)
    run_p.add_argument("--grid-size", type=int)
    run_p.add_argument("--reg", help="nonneg_tv:<lam> | simplex | tv:<lam> | tv_ball:<K>")
    run_p.add_argument("--seed", type=int, default=0)
    run_p.add_argument("--out", required=True)
    run_p.set_defaults(func=cmd_run)

    rates_p = sub.add_parser("rates", help="fit rate slopes of saved traces")
    rates_p.add_argument("traces", nargs="+")
    rates_p.add_argument("--fit-lo", type=float, default=1e3)
    rates_p.add_argument("--fit-hi", type=float, default=math.inf)
    rates_p.add_argument("--out", help="machine-readable CSV report")
    rates_p.set_defaults(func=cmd_rates)

    psi_p = sub.add_parser("psi", help="compute a suboptimality envelope curve")
    psi_p.add_argument("--problem", choices=PROBLEM_TOKENS, required=True)
    psi_p.add_argument("--dgf", default="p:2")
    psi_p.add_argument("--grid-size", type=int)
    psi_p.add_argument("--reg")
    psi_p.add_argument("--seed", type=int, default=0)
    psi_p.add_argument("--alpha-lo", type=float, default=1e-6)
    psi_p.add_argument("--alpha-hi", type=float, default=1e-2)
    psi_p.add_argument("--out", required=True)
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
