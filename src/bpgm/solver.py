"""PGM and APGM drivers over Bregman geometries, with iteration traces.

Both methods take forward gradient steps on the smooth part and Bregman
proximal steps on the regularizer. The accelerated variant maintains
the prox sequence h_k next to the averaged iterate f_k:

    g_k     = (1 - gamma_k) f_k + gamma_k h_k
    h_{k+1} = prox at h_k with gradient G'[g_k], divergence weight gamma_k / s
    f_{k+1} = (1 - gamma_k) f_k + gamma_k h_{k+1}

with gamma_0 = 1 and gamma_{k+1} solving gamma^2 = (1 - gamma) gamma_k^2.
Convex combinations happen in the primal; only h lives in mirror
coordinates. Traces record the suboptimality gap on a geometric
schedule and serialize to CSV with a '#' metadata preamble.
"""

import math
import os
import time
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import dgf as dgf_mod
from .objective import FEAS_TOL, density_values, eval_F
from .prox import MirrorState, bregman_step

TRACE_COLUMNS = ("k", "F", "gap", "l1", "linf_mirror", "time_s")


def write_atomic(path, lines, meta=None, header=None):
    """Write text lines to path through a temp file and a rename.

    Readers never see a partial file. meta, if given, goes first as
    sorted `# key=value` lines, then the comma-joined header columns.
    """
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "w") as fh:
        if meta:
            fh.writelines(f"# {key}={meta[key]}\n" for key in sorted(meta))
        if header:
            fh.write(",".join(header) + "\n")
        fh.writelines(lines)
    os.replace(tmp, path)


@dataclass
class SolverConfig:
    """Run parameters; step and k_bound are derived when omitted.

    step defaults to the admissible step (K + beta)^(p-2) / (phi_sup^2
    Lip(grad R)) and to 1.0 for linear objectives. k_bound is the a
    priori L1 bound entering the step size; it defaults from the
    regularizer (simplex: 1, tv_ball: K, TV weight lam > 0: F(f0)/lam)
    or from the problem's recorded hint.
    """

    iters: int
    method: str = "pgm"
    step: float = None
    k_bound: float = None
    record: tuple = None  # iteration indices; default geometric

    def __post_init__(self):
        if self.method not in ("pgm", "apgm"):
            raise ValueError(f"unknown method {self.method!r}")
        if self.iters < 1:
            raise ValueError(f"need at least one iteration, got {self.iters}")
        if self.step is not None and self.step <= 0:
            raise ValueError(f"step must be positive, got {self.step}")


@dataclass
class Trace:
    """Recorded iteration history plus the final iterate.

    gap is F - inf_value when the problem knows its optimal value, nan
    otherwise. linf_mirror tracks the sup norm of the mirror state of
    the prox sequence. final_f / final_mirror hold the last iterate
    (not serialized).
    """

    meta: dict
    k: np.ndarray
    F: np.ndarray
    gap: np.ndarray
    l1: np.ndarray
    linf_mirror: np.ndarray
    time_s: np.ndarray
    final_f: np.ndarray = field(default=None, repr=False)
    final_mirror: np.ndarray = field(default=None, repr=False)

    @property
    def aborted(self):
        return "aborted_at" in self.meta

    def write_csv(self, path):
        """Atomically write the trace: metadata preamble, header, rows."""
        rows = (
            f"{int(k)},{float(F)!r},{float(gap)!r},{float(l1)!r},{float(lm)!r},{float(t)!r}\n"
            for k, F, gap, l1, lm, t in zip(
                self.k, self.F, self.gap, self.l1, self.linf_mirror, self.time_s
            )
        )
        write_atomic(path, rows, meta=self.meta, header=TRACE_COLUMNS)

    @classmethod
    def read_csv(cls, path):
        """Read a file written by write_csv; anything else is a ValueError."""
        meta, header, rows = {}, None, []
        with open(path) as fh:
            for number, line in enumerate(fh, 1):
                line = line.strip()
                if not line:
                    continue
                if line.startswith("#"):
                    key, _, value = line.lstrip("# ").partition("=")
                    meta[key] = value
                    continue
                fields = line.split(",")
                if header is None:
                    header = tuple(fields)
                    if header != TRACE_COLUMNS:
                        raise ValueError(
                            f"{path} is not a trace file: header {line!r}, "
                            f"expected {','.join(TRACE_COLUMNS)!r}"
                        )
                elif len(fields) != len(TRACE_COLUMNS):
                    raise ValueError(
                        f"trace file {path}, line {number}: {len(fields)} columns, "
                        f"expected {len(TRACE_COLUMNS)}"
                    )
                else:
                    try:
                        rows.append([float(x) for x in fields])
                    except ValueError:
                        raise ValueError(
                            f"trace file {path}, line {number}: non-numeric field in {line!r}"
                        ) from None
        if not rows:
            raise ValueError(f"trace file {path} contains no data rows")
        cols = np.array(rows).T
        return cls(meta, cols[0].astype(int), *cols[1:])


def gamma_next(gamma):
    """Next extrapolation weight: the positive root of g^2 = (1-g) gamma^2.

    Algebraically 0.5 * (sqrt(gamma^4 + 4 gamma^2) - gamma^2), computed
    in the cancellation-free rationalized form.
    """
    if not 0.0 < gamma <= 1.0:
        raise ValueError(f"gamma must lie in (0, 1], got {gamma}")
    return 2.0 * gamma / (gamma + math.sqrt(gamma * gamma + 4.0))


def record_schedule(iters, per_decade=100):
    """Geometric iteration checkpoints: ~per_decade points per decade."""
    if iters < 1:
        raise ValueError(f"iters must be >= 1, got {iters}")
    count = max(2, int(per_decade * math.log10(iters)) + 1)
    ks = np.unique(np.rint(np.geomspace(1.0, float(iters), count)).astype(int))
    return tuple(np.concatenate([[0], ks]))


def default_k_bound(problem, f0):
    """A priori L1 bound on the iterates, from the regularizer if it
    constrains the norm, else from a TV level set, else the problem hint."""
    reg = problem.reg
    if reg.kind == "simplex":
        return 1.0
    if reg.kind == "tv_ball":
        return reg.radius
    if reg.lam > 0:
        return eval_F(problem, f0) / reg.lam
    if problem.k_bound_hint is not None:
        return problem.k_bound_hint
    raise ValueError(
        f"problem {problem.name} does not bound the iterate norm; "
        f"pass an explicit k_bound in the solver config"
    )


def resolve_step(problem, dgf, config, f0):
    """(step, k_bound) for a run, applying the documented defaults."""
    k_bound = config.k_bound
    if k_bound is None:
        k_bound = default_k_bound(problem, f0)
    step = config.step
    if step is None:
        step = dgf_mod.step_size(
            dgf, k_bound, problem.smooth.phi_sup, problem.smooth.lip_grad
        )
        if math.isinf(step):
            step = 1.0  # linear objective: every step is admissible
    return float(step), float(k_bound)


def _base_meta(problem, dgf, config, step, k_bound):
    return {
        "problem": problem.name,
        "reg": problem.reg.token,
        "setting": problem.setting_tag or "",
        "dim": str(problem.grid.dim),
        "dgf": dgf.name,
        "method": config.method,
        "step": repr(step),
        "iters": str(config.iters),
        "k_bound": repr(k_bound),
        "grid_kind": problem.grid.kind,
        "grid_m": str(problem.grid.size),
        "inf_value": repr(problem.inf_value) if problem.inf_value is not None else "",
    }


def _run(problem, dgf, config, f0, accelerated):
    grid = problem.grid
    f0 = np.ones(grid.size) if f0 is None else density_values(problem, f0)
    if problem.reg.violation(grid.weights, f0) > FEAS_TOL:
        raise ValueError("initial density is infeasible for the regularizer")
    step, k_bound = resolve_step(problem, dgf, config, f0)
    schedule = config.record if config.record is not None else record_schedule(config.iters)
    record_set = {int(k) for k in schedule}

    meta = _base_meta(problem, dgf, config, step, k_bound)
    inf_value = problem.inf_value
    smooth, reg, w = problem.smooth, problem.reg, grid.weights

    state = MirrorState.from_primal(dgf, grid, f0)
    f = f0.copy()
    gamma = 1.0
    warned = False

    rows = {name: [] for name in TRACE_COLUMNS}
    t0 = time.perf_counter()

    def record(k):
        value = eval_F(problem, f)
        rows["k"].append(k)
        rows["F"].append(value)
        rows["gap"].append(value - inf_value if inf_value is not None else math.nan)
        rows["l1"].append(float(np.sum(w * np.abs(f))))
        rows["linf_mirror"].append(state.linf_mirror())
        rows["time_s"].append(time.perf_counter() - t0)
        return math.isfinite(value)

    # A diverging run overflows; it is stopped and labelled below instead
    # of warning on the way.
    with np.errstate(all="ignore"):
        if 0 in record_set:
            record(0)
        for k in range(config.iters):
            g = (1.0 - gamma) * f + gamma * state.primal if accelerated else f
            grad = smooth.gradient(w, g)
            try:
                state = bregman_step(dgf, reg, state, grad, step / gamma)
            except ValueError:
                if np.all(np.isfinite(grad)):
                    raise
                meta["aborted_at"], meta["abort_reason"] = str(k + 1), "gradient"
                break
            if accelerated:
                f = (1.0 - gamma) * f + gamma * state.primal
                gamma = gamma_next(gamma)
            else:
                f = state.primal
            if k + 1 in record_set:
                ok = record(k + 1)
                if accelerated and not warned:
                    h_l1 = state.l1()
                    if h_l1 > k_bound * (1.0 + 1e-9):
                        warnings.warn(
                            f"APGM prox sequence exceeded the norm bound "
                            f"({h_l1:.3g} > {k_bound:.3g}) at iteration {k + 1}; "
                            f"the step-size guarantee is conditional on this bound",
                            RuntimeWarning,
                        )
                        meta["k_bound_exceeded_at"] = str(k + 1)
                        warned = True
                if not ok:
                    meta["aborted_at"], meta["abort_reason"] = str(k + 1), "objective"
                    break

    return Trace(
        meta,
        np.array(rows["k"], dtype=int),
        np.array(rows["F"]),
        np.array(rows["gap"]),
        np.array(rows["l1"]),
        np.array(rows["linf_mirror"]),
        np.array(rows["time_s"]),
        final_f=f,
        final_mirror=state.u.copy(),
    )


def run_pgm(problem, dgf, config, f0=None):
    """Proximal gradient method from f0 (default uniform); see _run."""
    if config.method != "pgm":
        raise ValueError(f"config.method is {config.method!r}, expected 'pgm'")
    return _run(problem, dgf, config, f0, accelerated=False)


def run_apgm(problem, dgf, config, f0=None):
    """Accelerated proximal gradient method from f0 = h0 (default uniform)."""
    if config.method != "apgm":
        raise ValueError(f"config.method is {config.method!r}, expected 'apgm'")
    return _run(problem, dgf, config, f0, accelerated=True)


def run(problem, dgf, config, f0=None):
    """Dispatch on config.method."""
    if config.method == "apgm":
        return run_apgm(problem, dgf, config, f0)
    return run_pgm(problem, dgf, config, f0)
