"""Workloads of the bpgm benchmark and the checks run on every trace.

One operation is one trace through the public API:

    build_problem / deconv_problem / lb_problem
      -> run_pgm / run_apgm -> Trace.write_csv -> Trace.read_csv -> fit_rate

followed by the correctness checks in `check_trace`. A workload is a
fixed list of operations (one "pass"); the benchmark repeats passes
until its time is up. Inputs depend on the seed only through the ReLU
target noise and the KKT probe points, both drawn here.
"""

import json
import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

DEFAULT_SEED = 0
REFERENCE_FILE = Path(__file__).with_name("reference.json")

# Existing limits, none loosened: the KKT bound of acceptance criterion 5,
# and eval_F >= inf_value - 1e-12 from the objective tests.
KKT_TOL = 1e-8
ROUND_TOL = 1e-12
# Final F against the value recorded at the commit that defined the
# benchmark. Different OpenBLAS kernels move it by ~1e-13 relative; an
# exact dual solve in place of bisection may move it further, so the
# tolerance sits well above both and far below any change of method.
REF_RTOL = 1e-6
REF_ATOL = 1e-12
KKT_PROBES = 3
RELU_SAMPLES = 10


class CheckFailed(Exception):
    """An operation produced a wrong or incomplete result."""


@dataclass(frozen=True)
class Op:
    """One trace configuration of a workload.

    role "reference" marks the ReLU APGM run whose smallest F serves as
    the optimum estimate for the later ReLU traces of the same pass (the
    shape of acceptance criterion 11); role "vs_reference" marks those.
    """

    problem: str
    dgf: str
    method: str = "pgm"
    step: float = None
    role: str = None
    iters_factor: int = 1

    def label(self, iters):
        step = "" if self.step is None else f"@{self.step:g}"
        return f"{self.method}/{self.problem}/{self.dgf}{step}/{iters}"


@dataclass(frozen=True)
class Workload:
    """A fixed list of operations on problems built by `build`.

    Why each workload exists is recorded in BENCHMARK.json.
    """

    build: object      # (bpgm, sizes, seed) -> {problem key: Problem}
    sizes: dict        # grid points per axis, by problem family
    quick_sizes: dict
    iters: int
    quick_iters: int
    ops: tuple
    seeded: frozenset = frozenset()  # problem keys whose inputs depend on the seed

    def op_iters(self, op, quick):
        return (self.quick_iters if quick else self.iters) * op.iters_factor


def _deconv_small(bpgm, sizes, seed):
    m = sizes["deconv1d"]
    return {
        "deconv1d": bpgm.build_problem("deconv1d", grid_size=m),
        "deconv1d-tv": bpgm.deconv_problem(bpgm.torus_grid(1, m), bpgm.tv(0.05)),
    }


def _simplex_dual(bpgm, sizes, seed):
    problems = {
        f"lb:{tag}": bpgm.build_problem(f"lb:{tag}", grid_size=sizes["lb"])
        for tag in ("I", "I*", "II", "II*")
    }
    # The grid Dirac at the origin has L1 norm 1 and reproduces the
    # target exactly, so the optimum of the radius-1 ball problem is 0.
    ball = bpgm.deconv_problem(bpgm.torus_grid(1, sizes["deconv1d"]), bpgm.tv_ball(1.0))
    problems["deconv1d-ball"] = ball.with_inf_value(0.0)
    return problems


def relu_with_noise(bpgm, m, noise, lam=0.05):
    """ReLU regression whose target noise is given, not drawn by bpgm.

    Same data model as bpgm.relu_problem: targets |x_i| - 1/2 + noise_i,
    mean square loss, and the level-set norm hint F(1) / lam.
    """
    base = bpgm.build_problem("relu", grid_size=m, n_samples=len(noise), lam=lam)
    x = np.linspace(-1.0, 1.0, len(noise))
    smooth = bpgm.SmoothObjective(
        base.smooth.features,
        bpgm.objective.SquaredResidual(np.abs(x) - 0.5 + noise, scale=0.5),
        feature_weights=base.smooth.feature_weights,
        phi_lip_class=base.smooth.phi_lip_class,
    )
    problem = replace(base, smooth=smooth)
    return replace(problem, k_bound_hint=bpgm.eval_F(problem, np.ones(m)) / lam)


def _wide_grid(bpgm, sizes, seed):
    noise = np.random.default_rng(seed).uniform(-1.0, 1.0, RELU_SAMPLES)
    return {
        "relu": relu_with_noise(bpgm, sizes["relu"], noise),
        "deconv2d": bpgm.build_problem("deconv2d", grid_size=sizes["deconv2d"]),
    }


WORKLOADS = {
    "deconv_small": Workload(
        build=_deconv_small,
        sizes={"deconv1d": 300},
        quick_sizes={"deconv1d": 60},
        iters=4_000,
        quick_iters=300,
        ops=(
            Op("deconv1d", "p:2"),
            Op("deconv1d", "p:1.5"),
            Op("deconv1d", "ent"),
            Op("deconv1d", "p:2", "apgm"),
            Op("deconv1d", "ent", "apgm", step=0.003),
            Op("deconv1d-tv", "p:2"),
            Op("deconv1d-tv", "hyp"),
        ),
    ),
    "simplex_dual": Workload(
        build=_simplex_dual,
        sizes={"lb": 2000, "deconv1d": 300},
        quick_sizes={"lb": 200, "deconv1d": 60},
        iters=100,
        quick_iters=40,
        ops=(
            Op("lb:I", "p:2"),
            Op("lb:I*", "p:2"),
            Op("lb:II", "p:2"),
            Op("lb:II*", "p:2"),
            Op("lb:I", "p:2", "apgm", step=1e-3),
            Op("deconv1d-ball", "p:1.5"),
            Op("deconv1d-ball", "hyp"),
        ),
    ),
    "wide_grid": Workload(
        build=_wide_grid,
        sizes={"relu": 2000, "deconv2d": 60},
        quick_sizes={"relu": 200, "deconv2d": 12},
        iters=1_500,
        quick_iters=200,
        ops=(
            Op("relu", "hyp", "apgm", role="reference", iters_factor=2),
            Op("relu", "hyp", role="vs_reference"),
            Op("relu", "p:1.5", role="vs_reference"),
            Op("relu", "p:2", role="vs_reference"),
            Op("deconv2d", "p:1.5"),
            Op("deconv2d", "ent"),
        ),
        seeded=frozenset({"relu"}),
    ),
}


def build_problems(bpgm, workload, seed, quick):
    """Every problem of a workload, plus its parsed dgfs by token."""
    problems = workload.build(bpgm, workload.quick_sizes if quick else workload.sizes, seed)
    dgfs = {op.dgf: bpgm.parse_dgf(op.dgf) for op in workload.ops}
    return problems, dgfs


def load_reference(workload_name):
    if not REFERENCE_FILE.exists():
        return {}
    return json.loads(REFERENCE_FILE.read_text()).get(workload_name, {})


def kkt_worst(bpgm, problem, dgf, final_f, step, ts):
    """Largest prox KKT residual over steps taken from points between
    the uniform start and the final iterate, at fractions `ts` in [0, 1)."""
    w = problem.grid.weights
    f0 = np.ones(problem.grid.size)
    worst = 0.0
    for t in ts:
        f = (1.0 - t) * f0 + t * final_f
        state = bpgm.MirrorState.from_primal(dgf, problem.grid, f)
        grad = problem.smooth.gradient(w, f)
        nxt = bpgm.bregman_step(dgf, problem.reg, state, grad, step)
        worst = max(worst, bpgm.kkt_residual(dgf, problem.reg, state, nxt, grad, step).worst())
    return worst


def check_trace(trace, back, closed_form, reference_F):
    """Raise CheckFailed unless the trace and its CSV round trip are sound."""
    if trace.aborted:
        raise CheckFailed(f"trace aborted at iteration {trace.meta['aborted_at']}")
    if closed_form:
        lowest = float(np.min(trace.gap))
        if not lowest >= -ROUND_TOL:
            raise CheckFailed(f"gap {lowest!r} lies below the closed-form optimum")
    for col in ("k", "F", "gap", "l1", "linf_mirror", "time_s"):
        if not np.array_equal(getattr(trace, col), getattr(back, col), equal_nan=True):
            raise CheckFailed(f"CSV round trip changed column {col}")
    if reference_F is not None:
        if math.isnan(reference_F):
            raise CheckFailed("no reference final F recorded for this trace")
        final = float(trace.F[-1])
        if not abs(final - reference_F) <= REF_ATOL + REF_RTOL * abs(reference_F):
            raise CheckFailed(f"final F {final!r} differs from reference {reference_F!r}")


def fit_window(iters):
    # The last two decades, as in the acceptance fits, but stopping at
    # iters/2: the reference run's own gap reaches 0 at its best iterate.
    return (iters / 100.0, iters / 2.0)


def run_op(bpgm, op, problem, dgf, iters, csv_path, probe_ts, reference_F, relu_inf, hooks):
    """Run one operation; returns (result dict, relu_inf for later ops).

    hooks.span(name) brackets each layer call (a no-op when untraced).
    Raises CheckFailed or whatever the program raised.
    """
    if op.role == "vs_reference":
        if relu_inf is None:
            raise CheckFailed("no reference optimum: the reference run failed")
        problem = problem.with_inf_value(relu_inf)
    config = bpgm.SolverConfig(iters=iters, method=op.method, step=op.step)
    solve = bpgm.run_apgm if op.method == "apgm" else bpgm.run_pgm
    with hooks.span("solver.run", iters=iters) as span:
        trace = solve(problem, dgf, config)
    span.attrs["rows"] = len(trace.k)
    with hooks.span("solver.write_csv"):
        trace.write_csv(csv_path)
    with hooks.span("solver.read_csv"):
        back = bpgm.Trace.read_csv(csv_path)
    if op.role == "reference":
        relu_inf = float(np.min(back.F))
        back_fit = replace(back, gap=back.F - relu_inf)
    else:
        back_fit = back
    with hooks.span("analysis.fit_rate"):
        slope, _ = bpgm.fit_rate(back_fit, window=fit_window(iters))
    with hooks.span("check"):
        closed_form = problem.inf_value is not None and op.role is None
        check_trace(trace, back, closed_form, reference_F)
        step = float(trace.meta["step"])
        kkt = kkt_worst(bpgm, problem, dgf, trace.final_f, step, probe_ts)
        if not kkt <= KKT_TOL:
            raise CheckFailed(f"prox KKT residual {kkt:.3e} exceeds {KKT_TOL:g}")
        if not math.isfinite(slope):
            raise CheckFailed(f"fitted slope {slope!r} is not finite")
    result = {
        "iters": iters,
        "solve_s": span.seconds,
        "final_F": float(trace.F[-1]),
        "kkt": kkt,
        "rows": len(trace.k),
        "slope": slope,
    }
    return result, relu_inf
