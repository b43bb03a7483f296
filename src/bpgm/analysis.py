"""Rate analysis: mollified candidates, the suboptimality envelope,
theoretical exponents and log-log slope fitting.

The envelope

    psi_hat(alpha) = min_candidates [ F(f_eps) - inf F + alpha * D(f_eps, f0) ]

is evaluated over the box-kernel mollifications f_eps of the known
sparse minimizer (plus f0 itself as the alpha-independent candidate),
which is exactly the candidate family behind the convergence-rate upper
bounds: its alpha-exponent reveals the structure exponent q of the
problem. Fitted trace slopes are compared against the one predicted
exponent -a q/((p-1)d + q), a = 1 for PGM and 2 for APGM, with q from
the problem's setting tag and p from the dgf; the entropies (p = 1)
get the dimension-free -a with a log factor.
"""

import math

import numpy as np

from .grid import dist_to_point
from .objective import SETTING_Q, density_values, eval_F


def theoretical_exponent(method, dgf, setting, d):
    """Predicted asymptotic log-log slope of the gap of `method` in the
    geometry of `dgf` on a problem with setting tag `setting` (I, I*, II
    or II*) in dimension d.

    The exponent is -a q / ((p-1) d + q) with a = 1 (PGM) or 2 (APGM), q
    the structure exponent of the tag and p the dgf's exponent; at p = 1
    (entropies) it is the dimension-free -a, and the rate carries a
    log(k) factor.
    """
    if method not in ("pgm", "apgm"):
        raise ValueError(f"unknown method {method!r}")
    if setting not in SETTING_Q:
        raise ValueError(f"unknown setting tag {setting!r}")
    if d < 1:
        raise ValueError(f"dimension must be >= 1, got {d}")
    a = 2 if method == "apgm" else 1
    q = SETTING_Q[setting]
    return -a * q / ((dgf.p - 1.0) * d + q)


def mollify(problem, eps):
    """Box-kernel mollification of the problem's sparse minimizer, as a
    value array on the problem grid.

    Each atom (point, weight) spreads uniformly over the closed
    geodesic ball of radius eps, normalized by the ball's reference
    mass (its point count over m), so total signed mass is conserved
    exactly. No ball is empty: eps exceeds the spacing h, and every
    point of T^d lies within h sqrt(d) / 2 <= h (d <= 3) of the lattice.
    """
    if problem.mu_star is None:
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
        values[inside] += weight / (np.count_nonzero(inside) / grid.size)
    return values


def default_eps_grid(grid):
    """30 log-spaced mollification radii from 3.5 h to (floor(D n / 4) + 1/2) h,
    about 3 spacings to a quarter of the diameter (spacing h = 1/n,
    diameter D).

    No lattice point lies on the boundary of an end ball: a squared
    lattice distance is an integer multiple of h^2, and no squared end
    radius is. On a grid too coarse for that sweep (floor(D n / 4) <= 3)
    the top radius squared is the largest half-integer multiple of h^2
    below D^2 = d n^2 h^2 / 4, and the bottom radius is 3.5 h or, where
    that is lower, the root mean square of h and the top radius. Every
    radius lies above h and below D.
    """
    h, diameter = grid.spacing, grid.diameter
    # D n / 4 is exact where it is an integer (d = 1); D / 4h may round below.
    lo, hi = 3.5 * h, (math.floor(diameter * grid.n / 4.0) + 0.5) * h
    if lo >= hi:
        top = (grid.dim * grid.n**2 - 3) // 4 + 0.5
        if top < 1.5:
            raise ValueError(
                f"empty mollification sweep: no radius between the grid spacing "
                f"{h} and the diameter {diameter}"
            )
        lo, hi = min(lo, h * math.sqrt((top + 1.0) / 2.0)), h * math.sqrt(top)
    return np.geomspace(lo, hi, 30)


def psi_envelope(problem, dgf, f0, alpha_grid):
    """(psi_hat, eps_star): the envelope of gap + alpha * divergence
    over the mollified family, at the radii of `default_eps_grid`, and
    its minimizing radius, one of each per alpha of `alpha_grid`.

    f0 always participates as a candidate with zero divergence, which
    keeps the envelope bounded by F(f0) - inf F for every alpha; eps_star
    is inf where f0 beats every mollified candidate. A divergence that
    overflows (a tiny hyperbolic beta) is a RuntimeError naming the dgf
    and the radius: an infinite candidate would drop out of the envelope
    unseen.
    """
    if problem.inf_value is None:
        raise ValueError(
            f"problem {problem.name} has no optimal value; attach one "
            f"(closed form or exact_optimum) before computing the envelope"
        )
    f0 = density_values(problem, f0)
    w = problem.grid.weights
    gaps = [eval_F(problem, f0) - problem.inf_value]
    divs = [0.0]
    radii = [math.inf]
    for eps in default_eps_grid(problem.grid):
        f_eps = mollify(problem, eps)
        gaps.append(eval_F(problem, f_eps) - problem.inf_value)
        try:
            with np.errstate(over="raise"):
                divs.append(dgf.divergence_values(w, f_eps, f0))
        except FloatingPointError:
            raise RuntimeError(
                f"the {dgf.name} divergence of the candidate at radius {eps:.6g} overflows"
            ) from None
        radii.append(float(eps))
    gaps, divs, radii = np.array(gaps), np.array(divs), np.array(radii)

    alpha_grid = np.asarray(alpha_grid, dtype=float)
    objective = gaps[None, :] + alpha_grid[:, None] * divs[None, :]
    best = np.argmin(objective, axis=1)
    return objective[np.arange(len(alpha_grid)), best], radii[best]


def fit_loglog(k, gap, window):
    """Least-squares slope of log gap vs log k, its r^2, and the number
    of rows in the window dropped for a non-positive or non-finite gap.

    window is the pair (lo, hi) of floats, hi possibly inf; rows with k
    outside [lo, hi] are ignored, and at least 10 usable rows are
    required. A series whose fitted logs are all equal has r^2 = 1.
    """
    k = np.asarray(k, dtype=float)
    gap = np.asarray(gap, dtype=float)
    lo, hi = window
    if not lo <= hi:
        raise ValueError(f"the fit window [{lo:g}, {hi:g}] is empty")
    keep = (k > 0.0) & (k >= lo) & (k <= hi)
    usable = keep & (gap > 0) & np.isfinite(gap)
    if np.sum(usable) < 10:
        raise ValueError(
            f"need at least 10 recorded rows with positive gap in the window, "
            f"have {int(np.sum(usable))}"
        )
    x = np.log(k[usable])
    y = np.log(gap[usable])
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    # Equal logs are tested as such: their mean can round an ulp away
    # from them, which leaves ss_tot tiny but not zero.
    r2 = 1.0 if np.all(y == y[0]) else 1.0 - float(np.sum(resid**2)) / ss_tot
    return float(slope), r2, int(np.sum(keep & ~usable))


def fit_rate(trace, window):
    """Slope and r^2 of a trace's suboptimality gap, as fit_loglog fits
    them; the count of dropped rows is left out."""
    return fit_loglog(trace.k, trace.gap, window=window)[:2]
