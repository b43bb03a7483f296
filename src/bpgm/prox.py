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
shift, and each pass over the entries still above kappa takes one
Dgf.dual_step: the closed-form root on that live set (p:2, hyp, and p:1.5
where it exists), which ends the solve when the live set is its support,
or else a Newton step. The grid has one cell weight w = 1/m, so a
step needs only a few sums over the live shifts.

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

    # A direct ufunc reduction: the same reduce as np.max, without the
    # Python dispatch wrapper, on every record.
    def linf_mirror(self):
        return float(np.maximum.reduce(np.abs(self.u)))


@functools.lru_cache(maxsize=64)
def _cold_shifts(dgf, target, size):
    """(eta'(target), eta'(target / w)) with w = 1 / size: the run-invariant
    part of solve_kappa's cold start, computed once per (dgf, target, size).
    Dgfs are never changed after construction, so identity is a safe key.
    A finite level target / w whose eta' overflows (hyp with a tiny beta)
    has no dual shift that float sums can reach: ValueError."""
    level = target / (1.0 / size)
    with np.errstate(over="ignore"):
        near, far = float(dgf.eta_prime(target)), float(dgf.eta_prime(level))
    if far == math.inf and level < math.inf:
        raise ValueError(f"the dual level {level!r} overflows the mirror map of {dgf.name}")
    return near, far


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

    For the signed dgfs M(kappa), the sum above, is decreasing and
    convex, since eta'^{-1} is increasing and convex on [0, inf) with
    eta'^{-1}(0) = 0. Each pass keeps the live entries a_j > kappa (the
    filtering step of Michelot's algorithm, see Condat 2016, "Fast
    projection onto the simplex and the l1 ball") and takes one
    dgf.dual_step on their shifts a_live - kappa. Its delta has the sign
    of M(kappa) - target, and kappa + delta never lies right of the root.
    When the step is an exact closed form and every live entry stays
    above kappa + delta, that is the root: from the previous step's
    shift this is almost always the first pass. Otherwise the next pass
    starts at kappa + delta. The loop also stops once a step no longer
    increases kappa: the iterates are increasing floats bounded by the
    root, so it needs no tolerance and no cap. The cold start is the
    larger of two lower bounds: min a - eta'(target), where every term is
    at least target (m w = 1), and max a - eta'(target / w), where that
    term alone is target.

    `start` is an optional warm start. bregman_step passes
    max(kappa_prev, floor), with kappa_prev the shift of the previous
    step, which moves little from one step to the next (Condat's
    warm-started filter). The hint is used only when it is finite and
    above the cold start; that guard keeps a far-left hint, which the
    cold start already beats, from costing precision or overflowing
    eta'^{-1}. A hint with a negative first step lies right of the root,
    where the filter may have dropped live entries, so that pass filters
    the full array at max(kappa + delta, cold, floor) instead, a point
    left of the root or at the floor (no live entry gives delta = -inf);
    an exact step that finds no new entry there ends the solve as above.
    A hint right of the root and at or below the floor ends the solve at
    the floor: on an inactive ball, where the previous shift was 0, each
    solve is one pass. A bad hint so costs one pass and never gives a
    wrong kappa.
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
        kappa = float(start) if hinted else cold
        live, level = a[a > kappa], target / weight
        while True:
            delta, exact = dgf.dual_step(live - kappa, level) if live.size else (-math.inf, False)
            if delta < 0.0:
                # kappa lies right of the root: a hint, or the root to rounding.
                if not hinted or kappa <= floor:
                    break
                nxt, kept = max(kappa + delta, cold, floor), a
            else:  # a nan step falls through to a nan kappa
                nxt, kept = kappa + delta, live
                if nxt <= kappa:
                    break
            hinted = False
            kept = kept[kept > nxt]
            if exact and kept.size == live.size:
                kappa = nxt
                break
            kappa, live = nxt, kept
    else:
        kappa = math.nan
    if not math.isfinite(kappa):
        raise ValueError("the dual search needs a finite mirror point and finite sums")
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
        floor = 0.0 if ball else -math.inf
        start = max(state.kappa, floor) if signed else None
        kappa = solve_kappa(dgf, a, reg.radius, start, floor=floor)

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
