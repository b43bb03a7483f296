"""Closed-form Bregman proximal updates and their optimality residuals.

One proximal step solves

    min_h  <grad, h - h_prev> + H(h) + (1/s) D(h, h_prev)

over densities on the grid. In mirror coordinates u = eta'(h) the
unconstrained part is the additive update v = u - s * grad; the
regularizer then acts by shrinkage (TV weight), clamping (sign
constraint, finite for signed dgfs since eta'(0) = 0) or a scalar dual
shift kappa (mass / norm constraints), found by bisection.

All updates satisfy the first-order optimality condition

    grad + (u_next - u_prev) / s + phi = 0,   phi in dH(h_next),

exactly up to the root-finder tolerance; kkt_residual reconstructs phi
and measures the violation, which doubles as a solver self-check.
"""

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


def _clamped_inv(dgf, u):
    """Primal of mirror values u with negative part clamped to zero."""
    if dgf.domain == "signed":
        return dgf.eta_prime_inv(np.maximum(u, 0.0))
    return dgf.eta_prime_inv(u)


def _mass(dgf, weights, v, kappa):
    """Total mass of the (clamped) primal at shifted mirror point."""
    return float(np.sum(weights * _clamped_inv(dgf, v - kappa)))


def _l1_after_threshold(dgf, weights, v, kappa):
    if dgf.domain == "signed":
        primal = dgf.eta_prime_inv(soft_threshold(v, kappa))
        return float(np.sum(weights * np.abs(primal)))
    return _mass(dgf, weights, v, kappa)


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


def solve_kappa(dgf, weights, v, target_kind, K=1.0):
    """Dual shift for the mass / norm constrained prox rows.

    target_kind "mass_eq_1": kappa with mass of the clamped primal at
    v - kappa equal to 1. target_kind "l1_le_K": the smallest
    kappa >= 0 making the thresholded primal's L1 norm at most K
    (0 when already feasible).
    """
    v = np.asarray(v, dtype=float)
    if not np.all(np.isfinite(v)):
        raise ValueError("mirror point must be finite for the dual search")
    if target_kind == "mass_eq_1":
        # The weights sum to 1 and the clamped mirror map is increasing,
        # so the mass is >= 1 once every v - kappa >= eta'(1) and <= 1
        # once every v - kappa <= eta'(1).
        one = float(dgf.eta_prime(1.0))
        lo, hi = float(np.min(v)) - one, float(np.max(v)) - one
        return _bisect(lambda k: _mass(dgf, weights, v, k), lo, hi, 1.0)
    if target_kind == "l1_le_K":
        if K <= 0:
            raise ValueError(f"norm bound must be positive, got {K}")
        if _l1_after_threshold(dgf, weights, v, 0.0) <= K:
            return 0.0
        # At this kappa every |primal| is at most K, hence so is the L1 norm.
        hi = float(np.max(np.abs(v))) - float(dgf.eta_prime(K))
        return _bisect(lambda k: _l1_after_threshold(dgf, weights, v, k), 0.0, hi, K)
    raise ValueError(f"unknown target_kind {target_kind!r}")


def _entropy_normalizer(weights, v):
    """log sum_j w_j e^{v_j}, the closed-form simplex shift for entropy."""
    c = float(np.max(v))
    return c + np.log(float(np.sum(weights * np.exp(v - c))))


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

    if reg.kind == "nonneg_tv":
        shifted = v - s_eff * reg.lam
        u_next = np.maximum(shifted, 0.0) if signed else shifted
    elif reg.kind == "simplex":
        if signed:
            kappa = solve_kappa(dgf, w, v, "mass_eq_1")
            u_next = np.maximum(v - kappa, 0.0)
        else:
            u_next = v - _entropy_normalizer(w, v)
    elif reg.kind == "tv":
        u_next = soft_threshold(v, s_eff * reg.lam) if signed else v - s_eff * reg.lam
    elif reg.kind == "tv_ball":
        kappa = solve_kappa(dgf, w, v, "l1_le_K", K=reg.radius)
        u_next = soft_threshold(v, kappa) if signed else v - kappa
    else:
        raise ValueError(f"unknown regularizer kind {reg.kind!r}")

    return MirrorState(dgf, state.grid, u_next, np.asarray(dgf.eta_prime_inv(u_next)))


@dataclass
class KktReport:
    """Violation of the prox optimality condition.

    stationarity: sup-norm distance of the implied multiplier from the
    admissible subdifferential of H at the new point; comp_slack: the
    complementary-slackness residual |sum_j w_j phi^c_j h_j| of the
    constraint part of the multiplier.
    """

    stationarity: float
    comp_slack: float

    def worst(self):
        return max(self.stationarity, self.comp_slack)


def kkt_residual(dgf, reg, state_prev, state_next, grad, s):
    """Check grad + (u_next - u_prev)/s + phi = 0 for admissible phi."""
    if state_prev.grid is not state_next.grid:
        raise ValueError("states must share a grid")
    w = state_next.grid.weights
    h = state_next.primal
    # The multiplier that would make the step exactly optimal:
    r = -np.asarray(grad, dtype=float) - (state_next.u - state_prev.u) / s

    if reg.kind == "nonneg_tv":
        # phi = lam + nu with nu in d(indicator of h >= 0)
        support = h > 0
        stat = 0.0
        if np.any(support):
            stat = float(np.max(np.abs(r[support] - reg.lam)))
        off = ~support
        if np.any(off):
            stat = max(stat, float(np.max(np.maximum(r[off] - reg.lam, 0.0))))
        slack = abs(float(np.sum(w * np.minimum(r - reg.lam, 0.0) * h)))
        return KktReport(stat, slack)

    if reg.kind == "simplex":
        # phi = c + nu: constant on the support, <= c elsewhere.
        support = h > 0
        c = float(np.max(r[support]))
        stat = float(np.max(np.abs(r[support] - c)))
        off = ~support
        if np.any(off):
            stat = max(stat, float(np.max(np.maximum(r[off] - c, 0.0))))
        slack = abs(float(np.sum(w * np.minimum(r - c, 0.0) * h)))
        return KktReport(stat, slack)

    if reg.kind == "tv":
        sgn = np.sign(h)
        on = sgn != 0
        stat = 0.0
        if np.any(on):
            stat = float(np.max(np.abs(r[on] - reg.lam * sgn[on])))
        if np.any(~on):
            stat = max(stat, float(np.max(np.abs(r[~on])) - reg.lam), 0.0)
        return KktReport(stat, 0.0)

    if reg.kind == "tv_ball":
        l1 = float(np.sum(w * np.abs(h)))
        on = h != 0
        if l1 < reg.radius - 1e-9 or not np.any(on):
            rho = 0.0
        else:
            rho = max(0.0, float(np.median(r[on] * np.sign(h[on]))))
        stat = 0.0
        if np.any(on):
            stat = float(np.max(np.abs(r[on] - rho * np.sign(h[on]))))
        if np.any(~on):
            stat = max(stat, float(np.max(np.abs(r[~on])) - rho), 0.0)
        slack = abs(rho * (reg.radius - l1))
        return KktReport(stat, slack)

    raise ValueError(f"unknown regularizer kind {reg.kind!r}")
