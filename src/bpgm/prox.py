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
entropy; for the signed dgfs it is warm-started from the previous step's
shift and filtered to the entries still above kappa, then found in
closed form on that live set (p:2, p:1.5, hyp: Dgf.live_root) when the
live set is the support of the root, and by monotone Newton otherwise.
The grid's weights are all one cell weight w = 1/m, so a pass needs only
a few sums over the live shifts x: a Newton pass the sums of
eta'^{-1}(x) and of its derivative, which Dgf.mass_and_slope returns in
one call (at p = 2: sum x and the count).

All updates satisfy the first-order optimality condition

    grad + (u_next - u_prev) / s + phi = 0,   phi in dH(h_next),

up to rounding; kkt_residual reconstructs phi and measures the
violation, which doubles as a solver self-check.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np


@dataclass
class MirrorState:
    """Mirror-coordinate representation of a density iterate.

    u holds eta'(h) per grid point; primal is the materialized density.
    Finite mirror values certify the iterate (clamped points store
    eta'(0) = 0 for signed dgfs). kappa is the scalar shift of the
    bregman_step that produced the state (s lam for the TV weight, the
    dual shift for the constraints), which the next constrained step
    starts its dual solve from; -inf on a state not made by a step.
    """

    grid: object
    u: np.ndarray
    primal: np.ndarray
    kappa: float = -math.inf

    @classmethod
    def from_primal(cls, dgf, grid, f):
        f = np.asarray(f, dtype=float)
        return cls(grid, np.asarray(dgf.eta_prime(f)), f)

    # Direct ufunc reductions: the same reduce as np.sum / np.max, without
    # the Python dispatch wrappers, on every record.
    def l1(self):
        return float(np.add.reduce(self.grid.weights * np.abs(self.primal)))

    def linf_mirror(self):
        return float(np.maximum.reduce(np.abs(self.u)))


@functools.lru_cache(maxsize=64)
def _cold_shifts(dgf, target, size):
    """(eta'(target), eta'(target / w)) with w = 1 / size: the run-invariant
    part of solve_kappa's cold start, computed once per (dgf, target, size).
    Dgfs are never changed after construction, so identity is a safe key."""
    return float(dgf.eta_prime(target)), float(dgf.eta_prime(target / (1.0 / size)))


def solve_kappa(dgf, a, target, start=None, floor=-math.inf):
    """max(floor, kappa) for the dual shift kappa with
    w sum_j eta'^{-1}((a_j - kappa)_+) = target, where a has one entry
    per grid point and w = 1/a.size is the grid's cell weight.

    Both constrained prox rows reduce to this scalar equation: the
    simplex with a = v and target 1, the TV ball with a = |v| (signed
    dgfs, whose odd eta'^{-1} turns the L1 norm of the thresholded
    primal into this sum) or a = v (entropy) and target K, with floor 0
    (an inactive ball leaves v unshifted). For entropy the clamp is void and
    kappa = log(w sum_j e^{a_j} / target) in closed form.

    For the signed dgfs each pass first tries a closed form. Its live set
    is the entries a_j > kappa, with shifts x = a_live - kappa; where every
    term stays positive, sum_live eta'^{-1}(x_j - delta) = target / w is
    solved in closed form by dgf.live_root (p:2, p:1.5 and hyp; None for
    other powers). kappa + delta is the root exactly when the entries of
    a above it are the live ones: min x > delta when delta >= 0, and no
    further entry of a above kappa + delta when delta < 0. The pass then
    ends the solve, whatever the hint; from the previous step's shift the
    live set is almost always the final support, so a warm-started solve
    is one pass. A negative delta with kappa at or below the floor ends
    it too: the root lies left of kappa, so the floor is the answer.
    Otherwise, and for the powers without a closed form, the pass is a
    Newton pass as below.

    For the signed dgfs M(kappa), the sum above, is decreasing and
    convex, since eta'^{-1} is increasing and convex on [0, inf) with
    eta'^{-1}(0) = 0. So Newton's method, with slope
    -w sum_{a > kappa} d/dx eta'^{-1}(a - kappa), climbs to the root
    monotonically from any point left of it; one dgf.mass_and_slope call
    per pass gives both sums. The cold start is the larger of two lower
    bounds: min a - eta'(target), where every term is at least target
    (m w = 1), and max a - eta'(target / w), where that term alone is
    target. It stops once an update no longer increases kappa: the
    iterates are increasing floats bounded by the root, so the loop
    needs no tolerance and no cap.

    Each pass keeps only the entries with a_j > kappa (the filtering
    step of Michelot's algorithm, see Condat 2016, "Fast projection onto
    the simplex and the l1 ball"). kappa only grows, so an entry that
    drops out contributes 0 to every later sum; the kept entries stay in
    order, so every sum, and kappa, is the one the unfiltered loop gets.

    `start` is an optional warm start. bregman_step passes
    max(kappa_prev, floor), with kappa_prev the shift of the previous
    step, which moves little from one step to the next (Condat's
    warm-started filter). The hint is used only when it is finite and
    above the cold start; that guard keeps a far-left hint, which the
    cold start already beats, from costing precision or overflowing
    eta'^{-1}. A hint whose first pass finds M >= target lies left of
    the root, and Newton climbs from it as from the cold start. A hint
    with M < target lies right of the root, where the filter may have
    dropped live entries: the loop restarts on the full array from one
    tangent step, kappa = hint + excess / (w slope), raised to the cold
    start and the floor. M is convex, so its tangent at the hint lies
    below it and crosses target at or left of the root. With no live
    entry (slope 0) the restart is from max(cold, floor). A bad hint so
    costs one pass and never gives a wrong kappa. A hint right of the
    root and at or below the floor ends the solve at the floor: on an
    inactive ball, where the previous shift was 0, each solve is one pass.
    """
    if not 0.0 < target < math.inf:
        raise ValueError(f"dual target must be finite and positive, got {target}")
    a = np.asarray(a, dtype=float)
    if not a.size:
        raise ValueError("the dual search needs at least one entry")
    weight = 1.0 / a.size
    if dgf.domain == "nonnegative":
        # Zero densities sit at a = -inf and drop out of the sum.
        c = float(np.maximum.reduce(a))
        kappa = c + np.log(weight * float(np.add.reduce(np.exp(a - c))) / target)
    elif math.isfinite(lo := float(np.minimum.reduce(a))):
        # A -inf entry would drop out of the sum unnoticed, so it fails here.
        near, far = _cold_shifts(dgf, target, a.size)
        cold = max(lo - near, float(np.maximum.reduce(a)) - far)
        hinted = start is not None and cold < start < math.inf
        kappa, live = (float(start) if hinted else cold), a
        level = target / weight
        while True:
            live = live[live > kappa]
            x = live - kappa
            shift = dgf.live_root(x, level) if live.size else None
            if shift is not None:
                # kappa + shift is the root when the entries of a above it
                # are the live ones. A negative shift at or below the floor
                # puts the root below the floor, whatever the support.
                if shift >= 0.0:
                    exact = np.minimum.reduce(x) > shift
                else:
                    exact = kappa <= floor or np.count_nonzero(a > kappa + shift) == live.size
                if exact:
                    kappa += shift
                    break
            mass, slope = dgf.mass_and_slope(x)
            excess = weight * mass - target
            if hinted:
                hinted = False
                if excess < 0.0:
                    if kappa <= floor:  # the root lies below the floor
                        break
                    # Right of the root: restart on the full array from the
                    # tangent's zero, which lies at or left of the root.
                    tangent = kappa + excess / (weight * slope) if slope else -math.inf
                    kappa, live = max(tangent, cold, floor), a
                    continue
            # At or past the root the update cannot increase kappa.
            if excess <= 0.0:
                break
            step = excess / (weight * slope)
            if kappa + step <= kappa:
                break
            kappa += step
    else:
        kappa = math.nan
    if not math.isfinite(kappa):
        raise ValueError("mirror point must be finite for the dual search")
    return max(kappa, floor)


def bregman_step(dgf, reg, state, grad, s_eff):
    """One Bregman proximal step with effective step s_eff.

    For PGM s_eff is the step s; for APGM it is s / gamma_k (the prox
    with divergence weight gamma_k / s). grad is a float array. Returns
    the next MirrorState, which keeps the shift kappa of this step.
    """
    if not s_eff > 0:
        raise ValueError(f"effective step must be positive, got {s_eff}")
    # Not grad @ grad: finite entries above 1e154 would overflow it.
    if not np.logical_and.reduce(np.isfinite(grad)):
        raise ValueError("gradient contains non-finite entries")
    v = s_eff * grad
    np.subtract(state.u, v, out=v)
    signed = dgf.domain == "signed"

    if reg.kind in ("nonneg_tv", "tv"):
        kappa = s_eff * reg.lam
    else:
        # On a signed dgf the ball's dual solve reads |v|.
        ball = reg.kind == "tv_ball"
        a = np.abs(v) if ball and signed else v
        target, floor = (reg.radius, 0.0) if ball else (1.0, -math.inf)
        start = max(state.kappa, floor) if signed else None
        kappa = solve_kappa(dgf, a, target, start, floor=floor)

    if signed and reg.kind in ("tv", "tv_ball"):
        # Soft threshold v - clip(v, -kappa, kappa), kappa >= 0 (s * lam or
        # solve_kappa's floor 0): the values of sign(v) max(|v| - kappa, 0)
        # in three passes, with +0.0 in the dead zone when kappa > 0.
        u_next = np.maximum(v, -kappa)
        np.minimum(u_next, kappa, out=u_next)
        np.subtract(v, u_next, out=u_next)
    else:
        if kappa:  # v - 0.0 is v, bit for bit
            np.subtract(v, kappa, out=v)
        u_next = np.maximum(v, 0.0, out=v) if signed else v
    return MirrorState(state.grid, u_next, dgf.eta_prime_inv(u_next), kappa)


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
