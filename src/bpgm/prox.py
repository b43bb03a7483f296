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
entropy and found by a monotone Newton iteration for the signed dgfs.

All updates satisfy the first-order optimality condition

    grad + (u_next - u_prev) / s + phi = 0,   phi in dH(h_next),

up to rounding; kkt_residual reconstructs phi and measures the
violation, which doubles as a solver self-check.
"""

import math
from dataclasses import dataclass

import numpy as np


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


def solve_kappa(dgf, weights, a, target):
    """The dual shift kappa with sum_j w_j eta'^{-1}((a_j - kappa)_+) = target.

    Both constrained prox rows reduce to this scalar equation: the
    simplex with a = v and target 1, the TV ball with a = |v| (signed
    dgfs, whose odd eta'^{-1} turns the L1 norm of the thresholded
    primal into this sum) or a = v (entropy) and target K, kappa then
    clipped at 0. For entropy the clamp is void and
    kappa = log(sum_j w_j e^{a_j} / target) in closed form.

    For the signed dgfs M(kappa), the sum above, is decreasing and
    convex, since eta'^{-1} is increasing and convex on [0, inf) with
    eta'^{-1}(0) = 0. So Newton's method, with slope
    -sum_{a > kappa} w / eta''(eta'^{-1}(a - kappa)), climbs to the root
    monotonically from any point left of it. It starts at the larger of
    two lower bounds: min a - eta'(target), where every term is at least
    target (the weights sum to 1), and a_j - eta'(target / w_j) at the
    largest a_j, where that term alone is target. It stops once an
    update no longer increases kappa: the iterates are increasing floats
    bounded by the root, so the loop needs no tolerance and no cap.
    """
    if target <= 0:
        raise ValueError(f"dual target must be positive, got {target}")
    a = np.asarray(a, dtype=float)
    if dgf.domain == "nonnegative":
        # Zero densities sit at a = -inf and drop out of the sum.
        c = float(np.max(a))
        kappa = c + np.log(float(np.sum(weights * np.exp(a - c))) / target)
    elif math.isfinite(lo := float(np.min(a))):
        # A -inf entry would drop out of the sum unnoticed, so it fails here.
        top = int(np.argmax(a))
        kappa = max(lo - float(dgf.eta_prime(target)),
                    float(a[top] - dgf.eta_prime(target / weights[top])))
        while True:
            on = a > kappa
            w, h = weights[on], dgf.eta_prime_inv(a[on] - kappa)
            excess = float(np.sum(w * h)) - target
            # At or past the root the update cannot increase kappa.
            if excess <= 0.0:
                break
            step = excess / float(np.sum(w / dgf.eta_second(h)))
            if kappa + step <= kappa:
                break
            kappa += step
    else:
        kappa = math.nan
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
    else:  # tv_ball
        kappa = max(0.0, solve_kappa(dgf, w, np.abs(v) if signed else v, reg.radius))

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
    else:  # tv_ball
        active = l1 >= reg.radius - 1e-9 and np.any(on)
        c = max(0.0, float(np.median(r[on] * np.sign(h[on])))) if active else 0.0

    if clamp:
        dev = (np.abs(r[on] - c), np.maximum(r[~on] - c, 0.0))
        slack = abs(float(np.sum(w * np.minimum(r - c, 0.0) * h))) / max(1.0, l1)
    else:
        dev = (np.abs(r[on] - c * np.sign(h[on])), np.abs(r[~on]) - c)
        slack = abs(c * (reg.radius - l1)) if reg.kind == "tv_ball" else 0.0
    return KktReport(float(np.max(np.concatenate(dev), initial=0.0)), slack)
