"""The PGM and APGM run loop over Bregman geometries, with iteration traces.

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

import contextlib
import functools
import math
import os
import time
from dataclasses import dataclass, field

import numpy as np

from .dgf import sc_constant
from .objective import FEAS_TOL, default_start, density_values, eval_F
from .prox import MirrorState, bregman_step

TRACE_COLUMNS = ("k", "F", "gap", "l1", "linf_mirror", "time_s")


def write_atomic(path, rows, meta=None, header=None):
    """Write CSV rows to path through a temp file and a rename.

    Readers never see a partial file. meta, if given, goes first as
    sorted `# key=value` lines, then the comma-joined header columns,
    then one comma-joined line per row of values: floats as repr, which
    reads back bit for bit, and ints and strings as they are. A failed
    write or rename removes the temp file and re-raises.
    """
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, "w") as fh:
            if meta:
                fh.writelines(f"# {key}={meta[key]}\n" for key in sorted(meta))
            if header:
                fh.write(",".join(header) + "\n")
            fh.writelines(
                ",".join([repr(float(v)) if isinstance(v, float) else str(v) for v in row]) + "\n"
                for row in rows
            )
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


@dataclass
class SolverConfig:
    """Run parameters: iteration count, method ("pgm" or "apgm"), step
    and the iterations to record.

    step, when omitted, is the admissible step that `resolve_step`
    derives from the problem and the dgf. record defaults to the
    geometric `record_schedule(iters)`.
    """

    iters: int
    method: str = "pgm"
    step: float = None
    record: tuple = None  # iteration indices; default geometric

    def __post_init__(self):
        if self.method not in ("pgm", "apgm"):
            raise ValueError(f"unknown method {self.method!r}")
        if isinstance(self.iters, bool) or not isinstance(self.iters, (int, np.integer)):
            raise ValueError(f"iters must be an integer, got {self.iters!r}")
        if self.iters < 1:
            raise ValueError(f"need at least one iteration, got {self.iters}")
        if self.record is not None and not all(0 <= k <= self.iters and k == int(k)
                                               for k in self.record):
            raise ValueError(f"record must hold integers in [0, {self.iters}], got {self.record}")
        if self.step is not None and not (math.isfinite(self.step) and self.step > 0):
            raise ValueError(f"step must be finite and positive, got {self.step}")


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
        columns = (getattr(self, name).tolist() for name in TRACE_COLUMNS)
        write_atomic(path, zip(*columns), meta=self.meta, header=TRACE_COLUMNS)

    @classmethod
    def read_csv(cls, path):
        """Read a file written by write_csv; anything else is a ValueError."""
        with open(path) as fh:
            lines = [line.strip() for line in fh if line.strip()]
        meta = dict(line.lstrip("# ").partition("=")[::2] for line in lines if line[0] == "#")
        body = [line for line in lines if line[0] != "#"]
        if not body or tuple(body[0].split(",")) != TRACE_COLUMNS:
            raise ValueError(
                f"{path} is not a trace file: header {body[0] if body else ''!r}, "
                f"expected {','.join(TRACE_COLUMNS)!r}"
            )
        # Checked here: loadtxt only warns on an empty input.
        if len(body) == 1:
            raise ValueError(f"trace file {path} contains no data rows")
        try:
            rows = np.loadtxt(body[1:], delimiter=",", ndmin=2)
        except ValueError as exc:
            raise ValueError(f"trace file {path}: {exc}") from None
        if rows.shape[1] != len(TRACE_COLUMNS):
            raise ValueError(
                f"trace file {path}: {rows.shape[1]} columns, expected {len(TRACE_COLUMNS)}"
            )
        return cls.from_rows(meta, rows)

    @classmethod
    def from_rows(cls, meta, rows, **final):
        """A trace from rows of values in TRACE_COLUMNS order, with k as
        int; `final` passes final_f and final_mirror through."""
        cols = np.asarray(rows, dtype=float).reshape(len(rows), len(TRACE_COLUMNS)).T
        return cls(meta, cols[0].astype(int), *cols[1:], **final)


def gamma_next(gamma):
    """Next extrapolation weight: the positive root of g^2 = (1-g) gamma^2.

    Algebraically 0.5 * (sqrt(gamma^4 + 4 gamma^2) - gamma^2), computed
    in the cancellation-free rationalized form.
    """
    if not 0.0 < gamma <= 1.0:
        raise ValueError(f"gamma must lie in (0, 1], got {gamma}")
    return 2.0 * gamma / (gamma + math.sqrt(gamma * gamma + 4.0))


@functools.lru_cache(maxsize=16)
def record_schedule(iters):
    """Geometric iteration checkpoints: about 100 points per decade,
    computed once per iters (the tuple is immutable)."""
    if iters < 1:
        raise ValueError(f"iters must be >= 1, got {iters}")
    count = max(2, int(100 * math.log10(iters)) + 1)
    ks = np.unique(np.rint(np.geomspace(1.0, float(iters), count)).astype(int))
    return tuple(np.concatenate([[0], ks]))


def resolve_step(problem, dgf, config, f0):
    """(step, k_bound) of a run from f0.

    k_bound is the a-priori L1 bound K on the iterates: 1 on the
    simplex, the radius on a TV ball, F(f0)/lam under a TV weight
    lam > 0 (descent keeps lam ||f_k|| <= F(f0)), else the problem's
    k_bound_hint. step is config.step or the admissible step
    2 c(K) / (phi_sup^2 Lip(grad R)) = (K + beta)^(p-2) / (phi_sup^2
    Lip(grad R)), with c(K) from `sc_constant` and phi_sup bounding the
    feature norm; a linear objective admits any step and gets 1.0.
    """
    reg = problem.reg
    if reg.kind == "simplex":
        k_bound = 1.0
    elif reg.kind == "tv_ball":
        k_bound = reg.radius
    elif reg.lam > 0:
        k_bound = eval_F(problem, f0) / reg.lam
    elif problem.k_bound_hint is not None:
        k_bound = problem.k_bound_hint
    else:
        raise ValueError(
            f"problem {problem.name} does not bound the iterate norm; "
            f"give it a k_bound_hint"
        )
    step = config.step
    if step is None:
        smooth = problem.smooth
        c, phi_sup, lip = sc_constant(dgf, k_bound), smooth.phi_sup, smooth.lip_grad
        # A linear (or constant) smooth part admits every step.
        step = 2.0 * c / (phi_sup**2 * lip) if phi_sup * lip > 0 else 1.0
    return float(step), float(k_bound)


def run(problem, dgf, config, f0=None):
    """PGM, or APGM when config.method is "apgm", from f0 = h0 (default
    `default_start`); returns the Trace of the run."""
    if dgf.domain == "nonnegative" and any(weight < 0 for _, weight in problem.mu_star or ()):
        raise ValueError(
            f"the optimum of {problem.name} has negative weight, which {dgf.name} cannot "
            f"reach on nonnegative densities; use a signed dgf (hyp, p:<v>)"
        )
    grid = problem.grid
    f0 = default_start(problem) if f0 is None else density_values(problem, f0)
    # Checked here: violation reads a nan as feasible on tv, which has no
    # constraint, and a +inf entry as feasible on nonneg_tv and tv.
    if not np.isfinite(f0).all():
        raise ValueError("initial density must be finite")
    if not problem.reg.violation(grid.weights, f0) <= FEAS_TOL:
        raise ValueError("initial density is infeasible for the regularizer")
    step, k_bound = resolve_step(problem, dgf, config, f0)
    schedule = config.record if config.record is not None else record_schedule(config.iters)
    record_set = {int(k) for k in schedule}
    accelerated = config.method == "apgm"

    inf_value = problem.inf_value
    meta = {
        "problem": problem.name,
        "reg": problem.reg.token,
        "setting": problem.setting_tag or "",
        "dim": str(grid.dim),
        "dgf": dgf.name,
        "method": config.method,
        "step": repr(step),
        "iters": str(config.iters),
        "k_bound": repr(k_bound),
        "grid_m": str(grid.size),
        "inf_value": repr(inf_value) if inf_value is not None else "",
    }
    smooth, reg, w = problem.smooth, problem.reg, grid.weights
    # A linear smooth part (Lip(grad R) = 0) has the same potential at every f.
    linear = smooth.lip_grad == 0

    state = MirrorState.from_primal(dgf, grid, f0)
    f = f0.copy()
    gamma = 1.0

    rows = []
    t0 = time.perf_counter()

    def record(k):
        value = eval_F(problem, f)
        gap = value - inf_value if inf_value is not None else math.nan
        l1, linf = float(np.add.reduce(w * np.abs(f))), state.linf_mirror()
        rows.append((k, value, gap, l1, linf, time.perf_counter() - t0))
        return math.isfinite(value)

    # A diverging run overflows; it is stopped and labelled below instead
    # of warning on the way.
    with np.errstate(all="ignore"):
        if 0 in record_set:
            record(0)
        grad = smooth.gradient(w, f) if linear else None
        for k in range(config.iters):
            if accelerated:
                fade = (1.0 - gamma) * f
            if not linear:
                grad = smooth.gradient(w, fade + gamma * state.primal if accelerated else f)
            s_eff = step / gamma
            try:
                state = bregman_step(dgf, reg, state, grad, s_eff)
            except ValueError:
                if not np.isfinite(grad).all():
                    reason = "gradient"
                elif not np.isfinite(state.u - s_eff * grad).all():
                    reason = "mirror"
                else:  # all that is left to fail is the dual solve
                    reason = "dual"
                meta["aborted_at"], meta["abort_reason"] = str(k + 1), reason
                break
            if accelerated:
                fade += gamma * state.primal
                f, gamma = fade, gamma_next(gamma)
            else:
                f = state.primal
            if k + 1 in record_set:
                ok = record(k + 1)
                # The step-size guarantee of APGM assumes ||h_k||_L1 <= K.
                if accelerated and "k_bound_exceeded_at" not in meta:
                    h_l1 = state.l1()
                    if h_l1 > k_bound * (1.0 + 1e-9):
                        meta["k_bound_exceeded_at"] = str(k + 1)
                        meta["k_bound_exceeded_l1"] = repr(h_l1)
                if not ok:
                    meta["aborted_at"], meta["abort_reason"] = str(k + 1), "objective"
                    break

    return Trace.from_rows(meta, rows, final_f=f, final_mirror=state.u.copy())


def run_pgm(problem, dgf, config, f0=None):
    """`run` with config.method checked to be "pgm" (perfbench calls it)."""
    if config.method != "pgm":
        raise ValueError(f"config.method is {config.method!r}, expected 'pgm'")
    return run(problem, dgf, config, f0)


def run_apgm(problem, dgf, config, f0=None):
    """`run` with config.method checked to be "apgm" (perfbench calls it)."""
    if config.method != "apgm":
        raise ValueError(f"config.method is {config.method!r}, expected 'apgm'")
    return run(problem, dgf, config, f0)
