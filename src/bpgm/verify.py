"""Independent oracles for the solver stack.

Each check_* function runs one oracle at fixed sizes, apart from the
run lengths and sample counts that `bpgm verify --fast` shrinks, holds
the measurement to its bound (written once, inside it) and returns a
CheckResult: `detail` states the measured value next to the bound and
`values` holds the measured numbers. A non-finite measurement fails
its check.

Nothing here reuses the formulas it checks: gradients are probed by
central differences, prox steps by explicit KKT multipliers, entropy
iterates by their closed form, divergence strong convexity by random
sampling, and the reparameterized-flow equivalences by comparing two
Euler integrators that never share code with the solvers.
"""

import math
from dataclasses import dataclass

import numpy as np

from .analysis import fit_loglog
from .dgf import EntropyDgf, HyperbolicDgf, PowerDgf, sc_constant
from .grid import torus_grid
from .objective import (
    PROBLEM_TABLE,
    build_problem,
    deconv_problem,
    default_start,
    eval_G,
    lb_problem,
    nonneg_tv,
    simplex,
    tv,
    tv_ball,
)
from .prox import MirrorState, bregman_step, kkt_residual
from .solver import SolverConfig, gamma_next, resolve_step, run


@dataclass
class CheckResult:
    """Outcome of one acceptance check; detail states the measured value
    next to the bound it was held to, values holds the measured numbers."""

    name: str
    passed: bool
    detail: str
    values: dict


def _fold(reduce, measured):
    """reduce (np.max or np.min) over the measurements, or NaN when any
    of them is not finite, so that no bound passes it."""
    a = np.asarray(measured, dtype=float)
    return float(reduce(a)) if np.all(np.isfinite(a)) else math.nan


def check_fd_gradient(problems=None, seed=0):
    """Potential against central differences on every registered problem.

    Probes (G(f + t d) - G(f - t d)) / (2 t) versus the pairing
    sum_j w_j d_j G'[f]_j along five random directions d at a random f
    near 1. `problems` maps names to problems (default: every registered
    token at its `PROBLEM_TABLE` finite-difference size); values holds
    the max relative error of each.
    """
    bound, t, n_dirs = 1e-5, 1e-5, 5
    if problems is None:
        problems = {
            token: build_problem(token, grid_size=n) for token, (_, _, n) in PROBLEM_TABLE.items()
        }
    errors = {}
    for name, problem in problems.items():
        rng = np.random.default_rng(seed)
        w = problem.grid.weights
        f = 1.0 + 0.3 * rng.standard_normal(problem.grid.size)
        grad = problem.smooth.gradient(w, f)
        errs = []
        for _ in range(n_dirs):
            d = rng.standard_normal(problem.grid.size)
            fd = (eval_G(problem, f + t * d) - eval_G(problem, f - t * d)) / (2.0 * t)
            predicted = float(np.sum(w * d * grad))
            errs.append(abs(fd - predicted) / max(abs(predicted), abs(fd), 1e-10))
        errors[name] = _fold(np.max, errs)
    worst = _fold(np.max, list(errors.values()))
    return CheckResult(
        "fd_gradient",
        worst <= bound,
        f"{len(problems)} problems, max rel err {worst:.3e} (<= {bound:g})",
        errors,
    )


def _log_normalized(weights, logs):
    c = float(np.max(logs))
    return logs - (c + np.log(float(np.sum(weights * np.exp(logs - c)))))


def check_entropy_closed_form(k_max=10_000):
    """Entropy PGM on the linear simplex problem vs f_k = exp(-k s Phi)/Z.

    The mirror update is additive, u_{k+1} = u_k - s Phi + const, so
    from f0 = 1 the normalized iterate is exactly the Gibbs density of
    k s Phi. Compares in log domain (immune to underflow of tiny
    entries) at geometric checkpoints, and fits the gap slope over
    [k_max/10, k_max], which the construction pins at -1, with no row
    of that window dropped for a zero or non-finite gap.

    The step s = 100/k_max ends the run at Gibbs width 1/(k_max s) =
    0.01, inside the continuum regime at m = 300 points; past
    that width the mass sits on a few cells and the gap decays
    exponentially instead. It also starts the fit window at k s = 10,
    where the width is already well below the domain size.
    """
    dev_bound, slope_tol, m = 1e-10, 0.05, 300
    grid = torus_grid(1, m)
    s = 100.0 / k_max
    problem = lb_problem(grid, "I")
    dgf = EntropyDgf()
    phi = problem.smooth.features[0]
    checkpoints = tuple(
        int(k) for k in np.unique(np.rint(np.geomspace(1, k_max, 9))) if k <= k_max
    )
    devs = []
    for k in checkpoints:
        trace = run(problem, dgf, SolverConfig(iters=k, step=s, record=(k,)))
        log_f = _log_normalized(grid.weights, trace.final_mirror)
        log_ref = _log_normalized(grid.weights, -k * s * phi)
        devs.append(float(np.max(np.abs(np.expm1(log_f - log_ref)))))
    dev = _fold(np.max, devs)
    trace = run(problem, dgf, SolverConfig(iters=k_max, step=s))
    slope, _, dropped = fit_loglog(trace.k, trace.gap, window=(k_max / 10.0, float(k_max)))
    dropped_note = f", {dropped} fit rows dropped (want 0)" if dropped else ""
    return CheckResult(
        "entropy_closed_form",
        dev <= dev_bound and abs(slope + 1.0) <= slope_tol and dropped == 0,
        f"max rel dev {dev:.3e} (<= {dev_bound:g}), "
        f"gap slope {slope:+.3f} (-1 +/- {slope_tol:g}){dropped_note}",
        {"max_rel_dev": dev, "gap_slope": slope, "dropped_rows": dropped,
         "checkpoints": checkpoints},
    )


def check_kkt_sweep(steps=1000, dgfs=None):
    """Max prox optimality residual over (dgf x regularizer) PGM runs.

    Twelve combinations by default: {p=2, entropy, hyperbolic} against
    the four regularizer rows, each stepped `steps` times on a small 1D
    deconvolution problem (m = 50) with the default admissible step.
    values maps (dgf name, regularizer kind) to the worst residual of
    that run.
    """
    bound = 1e-8
    if dgfs is None:
        dgfs = (PowerDgf(2.0), EntropyDgf(), HyperbolicDgf())
    grid = torus_grid(1, 50)
    residuals = {}
    for dgf in dgfs:
        for reg in (nonneg_tv(0.05), simplex(), tv(0.05), tv_ball(1.0)):
            problem = deconv_problem(grid, reg)
            f0 = default_start(problem)
            step, _ = resolve_step(problem, dgf, SolverConfig(iters=steps), f0)
            state = MirrorState.from_primal(dgf, grid, f0)
            measured = []
            for _ in range(steps):
                grad = problem.smooth.gradient(grid.weights, state.primal)
                nxt = bregman_step(dgf, reg, state, grad, step)
                report = kkt_residual(dgf, reg, state, nxt, grad, step)
                measured += [report.stationarity, report.comp_slack]
                state = nxt
            residuals[(dgf.name, reg.kind)] = _fold(np.max, measured)
    worst = _fold(np.max, list(residuals.values()))
    return CheckResult(
        "kkt_sweep",
        len(residuals) == 12 and worst <= bound,
        f"{len(residuals)} dgf x regularizer combinations (want 12), "
        f"max residual {worst:.3e} (<= {bound:g})",
        residuals,
    )


def check_pinsker(dgfs=None, n_samples=1000, seed=0):
    """Worst margin D(f, g) - c(K) ||f - g||_L1^2 over random pairs.

    Pairs of densities on m = 100 points are drawn with L1 norms spread
    over (0, K], K = 1; entropy gets nonnegative samples. A correct
    strong-convexity constant keeps every margin above -1e-12. Default:
    four dgfs; values maps each dgf name to its worst margin.
    """
    bound, K, m = -1e-12, 1.0, 100
    if dgfs is None:
        dgfs = (PowerDgf(2.0), PowerDgf(1.5), EntropyDgf(), HyperbolicDgf())
    w = torus_grid(1, m).weights
    margins = []
    for dgf in dgfs:
        rng = np.random.default_rng(seed)
        c = sc_constant(dgf, K)
        samples = []
        for _ in range(n_samples):
            pair = []
            for _ in range(2):
                raw = rng.standard_normal(m)
                if dgf.domain == "nonnegative":
                    raw = np.abs(raw)
                norm = float(np.sum(w * np.abs(raw)))
                pair.append(raw * (K * rng.uniform(0.05, 1.0) / norm))
            f, g = pair
            l1 = float(np.sum(w * np.abs(f - g)))
            samples.append(dgf.divergence_values(w, f, g) - c * l1**2)
        margins.append((dgf.name, _fold(np.min, samples)))
    worst = _fold(np.min, [margin for _, margin in margins])
    return CheckResult(
        "pinsker_margins",
        worst >= bound,
        f"{len(dgfs)} dgfs x {n_samples} pairs, worst margin {worst:.3e} (>= {bound:g})",
        dict(margins),
    )


def _euler_gap(problem, step, horizon, variant):
    """Sup gap of the two Euler trajectories at the horizon; NaN on blow-up."""
    smooth, w = problem.smooth, problem.grid.weights
    n = int(round(horizon / step))
    m = problem.grid.size
    if variant == "square":
        # (a) L2 gradient flow of f -> F(f^2), reported as h = f^2
        # (b) entropy mirror flow of 4F
        f = np.ones(m)
        u = np.zeros(m)
        for _ in range(n):
            f = f - step * 2.0 * f * smooth.gradient(w, f**2)
            u = u - step * 4.0 * smooth.gradient(w, np.exp(u))
        h_gd, h_mf = f**2, np.exp(u)
    else:
        # (a) joint flow of (f, g) for F(f^2 - g^2), h = f^2 - g^2
        # (b) hyperbolic mirror flow of 4F with beta = 2 f0 g0
        f0, g0 = 1.25, 0.75
        beta = 2.0 * f0 * g0
        f, g = np.full(m, f0), np.full(m, g0)
        u = np.full(m, math.asinh((f0**2 - g0**2) / beta))
        for _ in range(n):
            grad = smooth.gradient(w, f**2 - g**2)
            f, g = f - step * 2.0 * f * grad, g + step * 2.0 * g * grad
            u = u - step * 4.0 * smooth.gradient(w, beta * np.sinh(u))
        h_gd, h_mf = f**2 - g**2, beta * np.sinh(u)
    for h in (h_gd, h_mf):
        if not np.all(np.isfinite(h)) or np.max(np.abs(h)) > 1e6:
            return math.nan
    return float(np.max(np.abs(h_gd - h_mf)))


def check_mirror_flow(variant):
    """First-order agreement of reparameterized gradient flow and mirror flow.

    In continuous time the squared parameterization follows the entropy
    mirror flow of 4F exactly (and the difference-of-squares one the
    hyperbolic flow with beta = 2 f0 g0); with explicit Euler the
    trajectory gap at horizon 1 is O(step), so halving the step should
    roughly halve the gap: their ratio should be near 2. A trajectory
    that blows up fails the check.
    """
    if variant not in ("square", "diff"):
        raise ValueError(f"unknown variant {variant!r}")
    lo, hi, step, horizon = 1.5, 2.5, 1e-3, 1.0
    name = f"mirror_flow_{variant}"
    # The flows follow the smooth part of lb:II*, G(f) = (1/2) (integral
    # of Phi~ f)^2 with the C^2 blended feature; _euler_gap never reads
    # the regularizer.
    problem = lb_problem(torus_grid(1, 200), "II*")
    values = {}
    for key, s in (("gap_step", step), ("gap_half", step / 2.0)):
        with np.errstate(over="ignore", invalid="ignore"):
            values[key] = _euler_gap(problem, s, horizon, variant)
        if math.isnan(values[key]):
            return CheckResult(name, False, f"flow blow-up at step {s:g}", values)
    ratio = values["gap_step"] / values["gap_half"]
    return CheckResult(
        name, lo <= ratio <= hi, f"gap ratio {ratio:.3f} (in [{lo:g}, {hi:g}])", values
    )


def check_gamma_bound(k_max=1_000_000):
    """0 < gamma_k <= min(1, 2/(k+2)), exactly, for every k <= k_max."""
    gamma, worst = 1.0, 0.0
    for k in range(k_max + 1):
        if not 0.0 < gamma <= 1.0:
            worst = math.inf
            break
        worst = max(worst, gamma - 2.0 / (k + 2))
        gamma = gamma_next(gamma)
    return CheckResult(
        "gamma_bound",
        worst <= 0.0,
        f"max (gamma_k - 2/(k+2)) = {worst:.3e} over k <= {k_max:g} (<= 0)",
        {"max_excess": worst},
    )


def run_all_checks(seed=0, fast=False):
    """Every oracle check; the `verify` command body.

    fast=True shrinks the expensive sweeps (for smoke testing); the
    acceptance thresholds are only meaningful at full size.
    """
    return [
        check_fd_gradient(seed=seed),
        check_entropy_closed_form(k_max=1000 if fast else 10_000),
        check_kkt_sweep(steps=100 if fast else 1000),
        check_pinsker(n_samples=100 if fast else 1000, seed=seed),
        check_mirror_flow("square"),
        check_mirror_flow("diff"),
        check_gamma_bound(10_000 if fast else 1_000_000),
    ]
