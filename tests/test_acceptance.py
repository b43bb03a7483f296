"""Acceptance suite: the headline numerical claims at fixed tolerances.

Each test prints exactly one `criterion NN PASS/FAIL` line (run with
`pytest tests/test_acceptance.py -v -s` to see them live). Criteria
1-3 and 11 read the 15 rate traces of one table, `RATES`, each run once
and lazily by `_trace`: about 60 s of the module's 65 s on two cores.

Slope conventions: fits are raw least-squares slopes of log gap vs
log k over k in [1e3, 1e5]. For the entropy-family geometries the
theory carries a log(k) factor, which does not change the asymptotic
log-log slope, so the quoted targets are the plain exponents. Every gap
is taken against an exact optimum: a closed form, or for ReLU
regression the Lasso homotopy of `bpgm.objective.exact_optimum`. A fit
that drops a row of its window, for a zero or non-finite gap, fails its
criterion.
"""

import functools
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np

from bpgm import (
    SolverConfig,
    build_problem,
    eval_F,
    parse_dgf,
    psi_envelope,
    run,
    torus_grid,
)
from bpgm.analysis import fit_loglog
from bpgm.cli import _build_problem_from_args
from bpgm.objective import lb_problem
from bpgm.verify import (
    check_entropy_closed_form,
    check_fd_gradient,
    check_gamma_bound,
    check_kkt_sweep,
    check_mirror_flow,
    check_pinsker,
)

FIT_WINDOW = (1e3, 1e5)
TRACE_BUDGET_S = 300.0


class Rate(NamedTuple):
    """One acceptance trace: the slope of its gap over FIT_WINDOW is
    target +- tol, unless its final gap reached `floor` early. The
    problem is named by its build arguments, as `bpgm run` takes them: a
    problem token, a regularizer token (None for the token's default)
    and a seed."""

    criterion: int
    problem: str
    method: str
    dgf: str
    target: float
    tol: float
    step: float = None
    floor: float = None
    reg: str = None
    seed: int = 0

    @property
    def label(self):
        """The problem's token, with its regularizer and a nonzero seed."""
        reg = f"/{self.reg}" if self.reg else ""
        seed = f" seed {self.seed}" if self.seed else ""
        return f"{self.problem}{reg}{seed}"


RATES = (
    # 1: deconv1d at m = 300, exact recovery target.
    Rate(1, "deconv1d", "pgm", "p:2", -0.80, 0.10),
    Rate(1, "deconv1d", "pgm", "p:1.5", -0.89, 0.10),
    Rate(1, "deconv1d", "pgm", "ent", -1.0, 0.10),
    Rate(1, "deconv1d", "apgm", "p:2", -1.60, 0.15),
    # Accelerated entropy: a small step keeps the fit window asymptotic.
    # Larger steps enter a terminal superlinear phase (exact support
    # identification) before 1e5 iterations; that floor also counts.
    Rate(1, "deconv1d", "apgm", "ent", -2.0, 0.25, step=0.003, floor=1e-9),
    # 2: signed deconv1d under tv(0.05).
    Rate(2, "deconv1d", "pgm", "p:2", -2.0 / 3.0, 0.10, reg="tv:0.05"),
    Rate(2, "deconv1d", "pgm", "hyp", -1.0, 0.15, reg="tv:0.05"),
    # 3: the structured lower-bound family on the simplex at m = 2000.
    Rate(3, "lb:I", "pgm", "p:2", -0.5, 0.05),
    Rate(3, "lb:II", "pgm", "p:2", -2.0 / 3.0, 0.05),
    Rate(3, "lb:I*", "pgm", "p:2", -2.0 / 3.0, 0.07),
    Rate(3, "lb:II*", "pgm", "p:2", -0.8, 0.07),
    # Accelerated run on the distance cone: q = 1, d = 1, so the
    # doubled exponent is -2q/(d+q) = -1. A small step keeps the
    # iterates off the late collapse onto the single optimal cell.
    Rate(3, "lb:I", "apgm", "p:2", -1.0, 0.07, step=1e-3),
    # 11: soft, seed-0 targets. The slopes beat the worst-case q = 1
    # prediction: the data is better behaved than the bound assumes.
    Rate(11, "relu", "pgm", "hyp", -1.00, 0.15),
    Rate(11, "relu", "pgm", "p:1.5", -0.72, 0.15),
    Rate(11, "relu", "pgm", "p:2", -0.58, 0.15),
)


@functools.cache
def _problem(token, reg, seed):
    """The problem of a RATES row's build arguments, built once by
    `bpgm run`'s own builder: at its exact optimum when no closed form
    records one."""
    args = SimpleNamespace(problem=token, grid_size=None, reg=reg, seed=seed)
    return _build_problem_from_args(args)


@functools.cache
def _trace(rate):
    """The trace of one RATES row, run when a test first asks for it and
    shared by every later reader, so no reader may mutate it."""
    config = SolverConfig(iters=100_000, method=rate.method, step=rate.step)
    return run(_problem(rate.problem, rate.reg, rate.seed), parse_dgf(rate.dgf), config)


def _report(number, ok, detail):
    print(f"criterion {number:02d} {'PASS' if ok else 'FAIL'}: {detail}", flush=True)
    assert ok, detail


def _check_rates(number, prefix=""):
    """Fit every RATES row of criterion `number` and report them on one line."""
    parts, ok = [], True
    for rate in (r for r in RATES if r.criterion == number):
        trace = _trace(rate)
        slope, _, dropped = fit_loglog(trace.k, trace.gap, window=FIT_WINDOW)
        early = rate.floor is not None and trace.gap[-1] <= rate.floor
        in_time = trace.time_s[-1] <= TRACE_BUDGET_S
        ok &= (abs(slope - rate.target) <= rate.tol or early) and in_time and dropped == 0
        note = ", reached reference precision early" if early else ""
        note += f", {dropped} fit rows dropped" if dropped else ""
        label = f"{rate.method}/{rate.dgf} on {rate.label}"
        parts.append(f"{label} {slope:+.3f} (want {rate.target:+.3f}+-{rate.tol}{note})")
    _report(number, ok, prefix + "; ".join(parts))


def test_rates_deconv1d_nonneg():
    _check_rates(1)


def test_rates_deconv1d_signed():
    _check_rates(2)


def test_rates_structured_family():
    _check_rates(3)


def test_entropy_closed_form():
    r = check_entropy_closed_form()
    _report(4, r.passed, r.detail)


def test_kkt_sweep():
    r = check_kkt_sweep()
    _report(5, r.passed, r.detail)


def test_gradient_oracle():
    r = check_fd_gradient()
    _report(6, r.passed, r.detail)


def test_pinsker_property():
    r = check_pinsker()
    _report(7, r.passed, r.detail)


def test_gamma_sequence_bounds():
    r = check_gamma_bound()
    _report(8, r.passed, r.detail)


def test_envelope_exponents():
    grid = torus_grid(1, 300)
    dgf = parse_dgf("p:2")
    f0 = np.ones(grid.size)
    rows, ok = [], True
    for tag, lo, hi, target in (("II*", 1e-8, 1e-5, 0.8), ("I", 5e-4, 1e-2, 0.5)):
        problem = lb_problem(grid, tag)
        env = psi_envelope(problem, dgf, f0, np.geomspace(lo, hi, 25))
        slope, _, dropped = fit_loglog(env.alpha, env.psi_hat, window=(0.0, None))
        ok &= abs(slope - target) <= 0.1 and dropped == 0
        dropped_note = f", {dropped} fit rows dropped" if dropped else ""
        rows.append(
            f"lb:{tag} alpha-exponent {slope:+.3f} (want {target:+.1f}+-0.1{dropped_note})"
        )
        a, ps = env.alpha, env.psi_hat
        concave = all(
            ps[i] >= (1 - (a[i] - a[i - 1]) / (a[i + 1] - a[i - 1])) * ps[i - 1]
            + (a[i] - a[i - 1]) / (a[i + 1] - a[i - 1]) * ps[i + 1]
            - 1e-12
            for i in range(1, len(a) - 1)
        )
        # f0 is itself a candidate, so the cap holds with no slack
        cap = eval_F(problem, f0) - problem.inf_value
        bounded = bool(np.all(ps <= cap))
        ok &= concave and bounded
        rows.append(f"lb:{tag} concave {concave}, bounded by start gap {bounded}")
    _report(9, ok, "; ".join(rows))


def test_mirror_flow_equivalence():
    results = [check_mirror_flow(variant) for variant in ("square", "diff")]
    _report(
        10,
        all(r.passed for r in results),
        "; ".join(f"{r.name}: {r.detail}" for r in results),
    )


def test_relu_rates():
    _check_rates(11, f"exact inf {_problem('relu', None, 0).inf_value:.6f}; ")


def test_determinism(tmp_path):
    # Byte-identical traces apart from the wall-clock column.
    def strip_time(text):
        out = []
        for line in text.splitlines():
            if line.startswith("#") or line.startswith("k,"):
                out.append(line)
            else:
                out.append(line.rsplit(",", 1)[0])
        return "\n".join(out)

    texts = []
    for name in ("first.csv", "second.csv"):
        problem = build_problem("deconv1d", grid_size=60)
        trace = run(problem, parse_dgf("ent"), SolverConfig(iters=2000))
        path = tmp_path / name
        trace.write_csv(path)
        texts.append(path.read_text())
    ok = strip_time(texts[0]) == strip_time(texts[1])
    _report(12, ok, "repeated runs byte-identical up to the time_s column")
