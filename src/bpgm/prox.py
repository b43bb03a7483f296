"""Closed-form Bregman proximal updates and their optimality residuals.

One proximal step solves

    min_h  <grad, h - h_prev> + H(h) + (1/s) D(h, h_prev)

over densities on the grid. In mirror coordinates u = eta'(h) the
unconstrained part is the additive update v = u - s * grad. The
regularizer then subtracts one scalar kappa from v and maps the result
back: a plain shift (entropy, whose domain is already nonnegative), a
shift clamped at eta'(0) = 0 (sign constraint) or a soft threshold
(TV). For the TV weight kappa = s * lam; for the mass and norm
constraints kappa is the dual shift of solve_kappa, closed form for
entropy and found by bisection for the signed dgfs.

All updates satisfy the first-order optimality condition

    grad + (u_next - u_prev) / s + phi = 0,   phi in dH(h_next),

exactly up to the root-finder tolerance; kkt_residual reconstructs phi
and measures the violation, which doubles as a solver self-check.
"""

import math
from dataclasses import dataclass

import numpy as np

_KAPPA_TOL = 1e-12
_MAX_BISECT = 200


@dataclass
class MirrorState:
    """Mirror-coordinate representation of a density iterate.

    u holds eta'(h) per grid point; primal is the materialized density.
    Finite mirror values certify the iterate (clamped points store
    eta'(0) = 0 for signed dgfs).
    """

    dgf: object
    grid: object
    u: np.ndarray
    primal: np.ndarray

    @classmethod
    def from_primal(cls, dgf, grid, f):
        f = np.asarray(f, dtype=float)
        return cls(dgf, grid, np.asarray(dgf.eta_prime(f)), f)

    def l1(self):
        return float(np.sum(self.grid.weights * np.abs(self.primal)))

    def linf_mirror(self):
        return float(np.max(np.abs(self.u)))


def soft_threshold(a, kappa):
    """Shrink toward zero: sign(a) * max(|a| - kappa, 0)."""
    if np.any(np.asarray(kappa) < 0):
        raise ValueError("threshold must be nonnegative")
    a = np.asarray(a, dtype=float)
    return np.sign(a) * np.maximum(np.abs(a) - kappa, 0.0)


def _mass(dgf, weights, a, kappa):
    """sum_j w_j eta'^{-1}((a_j - kappa)_+) for a signed dgf."""
    return float(np.sum(weights * dgf.eta_prime_inv(np.maximum(a - kappa, 0.0))))


def _bisect(fun, lo, hi, target):
    """Bisect decreasing `fun` to fun(kappa) = target; returns kappa."""
    for _ in range(_MAX_BISECT):
        mid = 0.5 * (lo + hi)
        res = fun(mid) - target
        if abs(res) <= _KAPPA_TOL * max(1.0, abs(target)):
            return mid
        if res > 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= _KAPPA_TOL * max(1.0, abs(mid)):
            break
    return 0.5 * (lo + hi)


def solve_kappa(dgf, weights, a, target):
    """The dual shift kappa with sum_j w_j eta'^{-1}((a_j - kappa)_+) = target.

    Both constrained prox rows reduce to this scalar equation: the
    simplex with a = v and target 1, the TV ball with a = |v| (signed
    dgfs, whose odd eta'^{-1} turns the L1 norm of the thresholded
    primal into this sum) or a = v (entropy) and target K, kappa then
    clipped at 0. For entropy the clamp is void and
    kappa = log(sum_j w_j e^{a_j} / target) in closed form.
    """
    if target <= 0:
        raise ValueError(f"dual target must be positive, got {target}")
    a = np.asarray(a, dtype=float)
    if dgf.domain == "nonnegative":
        # Zero densities sit at a = -inf and drop out of the sum.
        c = float(np.max(a))
        kappa = c + np.log(float(np.sum(weights * np.exp(a - c))) / target)
    else:
        # The weights sum to 1 and the clamped mirror map is increasing,
        # so the sum is >= target once every a - kappa >= eta'(target)
        # and <= target once every a - kappa <= eta'(target).
        t = float(dgf.eta_prime(target))
        lo, hi = float(np.min(a)) - t, float(np.max(a)) - t
        kappa = math.nan
        if math.isfinite(lo) and math.isfinite(hi):
            kappa = _bisect(lambda k: _mass(dgf, weights, a, k), lo, hi, target)
    if not math.isfinite(kappa):
        raise ValueError("mirror point must be finite for the dual search")
    return kappa


def bregman_step(dgf, reg, state, grad, s_eff):
    """One Bregman proximal step with effective step s_eff.

    For PGM s_eff is the step s; for APGM it is s / gamma_k (the prox
    with divergence weight gamma_k / s). Returns the next MirrorState.
    """
    if s_eff <= 0:
        raise ValueError(f"effective step must be positive, got {s_eff}")
    grad = np.asarray(grad, dtype=float)
    if not np.all(np.isfinite(grad)):
        raise ValueError("gradient contains non-finite entries")
    w = state.grid.weights
    v = state.u - s_eff * grad
    signed = dgf.domain == "signed"

    if reg.kind in ("nonneg_tv", "tv"):
        kappa = s_eff * reg.lam
    elif reg.kind == "simplex":
        kappa = solve_kappa(dgf, w, v, 1.0)
    elif reg.kind == "tv_ball":
        kappa = max(0.0, solve_kappa(dgf, w, np.abs(v) if signed else v, reg.radius))
    else:
        raise ValueError(f"unknown regularizer kind {reg.kind!r}")

    if not signed:
        u_next = v - kappa
    elif reg.kind in ("tv", "tv_ball"):
        u_next = soft_threshold(v, kappa)
    else:
        u_next = np.maximum(v - kappa, 0.0)
    return MirrorState(dgf, state.grid, u_next, np.asarray(dgf.eta_prime_inv(u_next)))


@dataclass
class KktReport:
    """Violation of the prox optimality condition.

    stationarity: sup-norm distance of the implied multiplier from the
    admissible subdifferential of H at the new point; comp_slack: the
    complementary-slackness residual of the constraint part of the
    multiplier, |sum_j w_j phi^c_j h_j| relative to max(1, ||h||_L1)
    for the clamp rows and |rho (K - ||h||_L1)| for the TV ball.
    """

    stationarity: float
    comp_slack: float

    def worst(self):
        return max(self.stationarity, self.comp_slack)


def kkt_residual(dgf, reg, state_prev, state_next, grad, s):
    """Check grad + (u_next - u_prev)/s + phi = 0 for admissible phi.

    Mirrors bregman_step: one scalar per row and one of two multiplier
    shapes. Clamp rows (nonneg_tv with c = lam, simplex with c = max r
    on the support): phi = c on the support, phi <= c off it. Threshold
    rows (tv with rho = lam, tv_ball with rho the median of r sign(h)
    on the support when the ball is active, else 0): phi = rho sign(h)
    on the support, |phi| <= rho off it.
    """
    if state_prev.grid is not state_next.grid:
        raise ValueError("states must share a grid")
    w = state_next.grid.weights
    h = state_next.primal
    # The multiplier that would make the step exactly optimal:
    r = -np.asarray(grad, dtype=float) - (state_next.u - state_prev.u) / s
    clamp = reg.kind in ("nonneg_tv", "simplex")
    on = h > 0 if clamp else h != 0
    l1 = float(np.sum(w * np.abs(h)))

    if reg.kind in ("nonneg_tv", "tv"):
        c = reg.lam
    elif reg.kind == "simplex":
        c = float(np.max(r[on]))
    elif reg.kind == "tv_ball":
        active = l1 >= reg.radius - 1e-9 and np.any(on)
        c = max(0.0, float(np.median(r[on] * np.sign(h[on])))) if active else 0.0
    else:
        raise ValueError(f"unknown regularizer kind {reg.kind!r}")

    if clamp:
        dev = (np.abs(r[on] - c), np.maximum(r[~on] - c, 0.0))
        slack = abs(float(np.sum(w * np.minimum(r - c, 0.0) * h))) / max(1.0, l1)
    else:
        dev = (np.abs(r[on] - c * np.sign(h[on])), np.abs(r[~on]) - c)
        slack = abs(c * (reg.radius - l1)) if reg.kind == "tv_ball" else 0.0
    return KktReport(float(np.max(np.concatenate(dev), initial=0.0)), slack)
