"""Rate analysis: mollified candidates, the suboptimality envelope,
theoretical exponents and log-log slope fitting.

The envelope

    psi_hat(alpha) = min_candidates [ F(f_eps) - inf F + alpha * D(f_eps, f0) ]

is evaluated over the box-kernel mollifications f_eps of the known
sparse minimizer (plus f0 itself as the alpha-independent candidate),
which is exactly the candidate family behind the convergence-rate upper
bounds: its alpha-exponent reveals the structure exponent q of the
problem. Fitted trace slopes are compared against the predicted
exponents -q/((p-1)d + q) (PGM) and -2q/((p-1)d + q) (APGM) for the
power geometries, and -1 / -2 with a log factor for the entropies.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .dgf import EntropyDgf, HyperbolicDgf, PowerDgf, parse_dgf
from .grid import Density, ball_mass, dist_to_point
from .objective import density_values, eval_F, grad_potential, minimizer_density
from .solver import SolverConfig, run_apgm, write_atomic


@dataclass(frozen=True)
class RateModel:
    """Predicted asymptotic log-log slope for one (method, dgf, q, d)."""

    method: str
    dgf_name: str
    p: float
    q: int
    d: int
    exponent: float
    log_factor: bool

    def describe(self):
        log = "log(k) * " if self.log_factor else ""
        return f"{log}k^({self.exponent:+.4g})"


def theoretical_exponent(method, dgf, q, d):
    """Rate model from the upper-bound table.

    Power dgf: exponent -q/((p-1)d + q), doubled for APGM. Entropy and
    hyperbolic: -1 (PGM) / -2 (APGM) with a log(k) factor, dimension
    free.
    """
    if method not in ("pgm", "apgm"):
        raise ValueError(f"unknown method {method!r}")
    if q not in (1, 2, 4):
        raise ValueError(f"structure exponent q must be 1, 2 or 4, got {q}")
    if d < 1:
        raise ValueError(f"dimension must be >= 1, got {d}")
    accel = 2 if method == "apgm" else 1
    if isinstance(dgf, PowerDgf):
        exponent = -accel * q / ((dgf.p - 1.0) * d + q)
        return RateModel(method, dgf.name, dgf.p, q, d, exponent, False)
    if isinstance(dgf, (EntropyDgf, HyperbolicDgf)):
        return RateModel(method, dgf.name, dgf.p, q, d, -float(accel), True)
    raise ValueError(f"unsupported dgf {dgf!r}")


_TAG_TO_Q = {"I": 1, "I*": 2, "II": 2, "II*": 4}


def setting_exponent(tag):
    """Structure exponent q of a setting tag (I, I*, II or II*)."""
    try:
        return _TAG_TO_Q[tag]
    except KeyError:
        raise ValueError(f"unknown setting tag {tag!r}") from None


def classify_setting(problem, tol=1e-10):
    """Structure exponent q of a problem.

    Uses the recorded setting tag when present; otherwise combines the
    feature smoothness class with a numerical check of whether the
    potential vanishes at the known minimizer. Raises when neither
    route is available, reporting both candidate values.
    """
    if problem.setting_tag is not None:
        return setting_exponent(problem.setting_tag)
    smooth_phi = problem.smooth.phi_lip_class == "gradient_lipschitz"
    candidates = (2, 4) if smooth_phi else (1, 2)
    if not problem.mu_star:
        raise ValueError(
            f"cannot classify {problem.name}: no setting tag and no minimizer "
            f"to test the potential at; candidates are q={candidates[0]} "
            f"(potential nonzero at the minimizer) or q={candidates[1]} (vanishing)"
        )
    gnorm = float(np.max(np.abs(grad_potential(problem, minimizer_density(problem)))))
    star = gnorm <= tol
    return candidates[1] if star else candidates[0]


def mollify(problem, eps):
    """Box-kernel mollification of the problem's sparse minimizer.

    Each atom (point, weight) spreads uniformly over the closed
    geodesic ball of radius eps, normalized by the ball's reference
    mass, so total signed mass is conserved exactly.
    """
    if not problem.mu_star:
        raise ValueError(f"problem {problem.name} has no recorded minimizer")
    grid = problem.grid
    if eps <= grid.spacing:
        raise ValueError(
            f"mollification radius {eps} must exceed the grid spacing "
            f"{grid.spacing}"
        )
    values = np.zeros(grid.size)
    for point, weight in problem.mu_star:
        inside = dist_to_point(grid, point) <= eps
        values[inside] += weight / ball_mass(grid, point, eps)
    return Density(grid, values)


def default_eps_grid(grid, count=30):
    """Log-spaced mollification radii from 3 spacings to diameter/4."""
    lo = 3.0 * grid.spacing
    hi = grid.diameter / 4.0
    if lo >= hi:
        raise ValueError(
            f"grid too coarse for a mollification sweep (spacing {grid.spacing})"
        )
    return np.geomspace(lo, hi, count)


@dataclass
class EnvelopeCurve:
    """The computed envelope: psi_hat and the minimizing radius per alpha.

    eps_star is inf for the alpha values where the starting density f0
    itself beats every mollified candidate.
    """

    alpha: np.ndarray
    psi_hat: np.ndarray
    eps_star: np.ndarray
    meta: dict

    def write_csv(self, path):
        write_atomic(
            path,
            (
                f"{float(a)!r},{float(p)!r},{float(e)!r}\n"
                for a, p, e in zip(self.alpha, self.psi_hat, self.eps_star)
            ),
            meta=self.meta,
            header=("alpha", "psi_hat", "eps_star"),
        )


def psi_envelope(problem, dgf, f0, alpha_grid, eps_grid=None):
    """Envelope of gap + alpha * divergence over the mollified family.

    f0 always participates as a candidate with zero divergence, which
    keeps the envelope bounded by F(f0) - inf F for every alpha.
    """
    if problem.inf_value is None:
        raise ValueError(
            f"problem {problem.name} has no optimal value; attach one "
            f"(closed form or converged reference) before computing the envelope"
        )
    if eps_grid is None:
        eps_grid = default_eps_grid(problem.grid)
    f0 = density_values(problem, f0)
    w = problem.grid.weights
    gaps = [eval_F(problem, f0) - problem.inf_value]
    divs = [0.0]
    radii = [math.inf]
    for eps in eps_grid:
        f_eps = mollify(problem, eps).values
        gaps.append(eval_F(problem, f_eps) - problem.inf_value)
        divs.append(dgf.divergence_values(w, f_eps, f0))
        radii.append(float(eps))
    gaps, divs, radii = np.array(gaps), np.array(divs), np.array(radii)

    alpha_grid = np.asarray(alpha_grid, dtype=float)
    objective = gaps[None, :] + alpha_grid[:, None] * divs[None, :]
    best = np.argmin(objective, axis=1)
    curve = EnvelopeCurve(
        alpha=alpha_grid,
        psi_hat=objective[np.arange(len(alpha_grid)), best],
        eps_star=radii[best],
        meta={"problem": problem.name, "dgf": dgf.name},
    )
    return curve


def fit_loglog(k, gap, window=(1e3, None), strip_log=False):
    """Least-squares slope of log gap (optionally log(gap/log k)) vs log k.

    Rows outside the window, with non-positive gap, or non-finite are
    dropped (with a warning when that truncates the window); at least
    10 surviving rows are required.
    """
    k = np.asarray(k, dtype=float)
    gap = np.asarray(gap, dtype=float)
    lo, hi = window
    lo = 0.0 if lo is None else lo
    hi = math.inf if hi is None else hi
    # log k needs k > 0; log log k needs k > 1
    keep = (k > (1.0 if strip_log else 0.0)) & (k >= lo) & (k <= hi)
    usable = keep & (gap > 0) & np.isfinite(gap)
    if np.any(keep & ~usable):
        warnings.warn(
            f"dropping {int(np.sum(keep & ~usable))} rows with non-positive "
            f"or non-finite gap from the fit window",
            RuntimeWarning,
        )
    if np.sum(usable) < 10:
        raise ValueError(
            f"need at least 10 recorded rows with positive gap in the window, "
            f"have {int(np.sum(usable))}"
        )
    x = np.log(k[usable])
    y = np.log(gap[usable])
    if strip_log:
        y = y - np.log(np.log(k[usable]))
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - float(np.sum(resid**2)) / ss_tot
    return float(slope), r2


def fit_rate(trace, window=(1e3, None), strip_log=False):
    """Slope and r^2 of a trace's suboptimality gap."""
    return fit_loglog(trace.k, trace.gap, window=window, strip_log=strip_log)


def reference_inf(problem, iters, dgf_token="hyp:0.001", step=None):
    """High-accuracy reference for the optimal value: long APGM run.

    Returns the smallest objective value seen along the run. Use ~10x
    the benchmark budget; cache the result, the run is the expensive
    part.
    """
    dgf = parse_dgf(dgf_token)
    config = SolverConfig(iters=iters, method="apgm", step=step)
    trace = run_apgm(problem, dgf, config)
    return float(np.min(trace.F))
