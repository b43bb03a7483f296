"""Smooth objectives G(f) = R(sum_j w_j f_j Phi(theta_j)) and problem library.

A SmoothObjective pairs a linear feature map (an M x m matrix A whose
columns are the feature vectors Phi(theta_j) in a weighted inner-product
space) with an outer function R. Its gradient potential is the grid
function

    G'[f](theta_j) = <grad R(z), Phi(theta_j)>,   z = A (w * f),

which drives all the proximal gradient updates. A is stored whole (one
matvec each way) or, when it factors by axis of a tensor grid, as its
per-axis Kronecker factors, applied one axis at a time.

Concrete problems:

  * sparse deconvolution against a real Dirichlet kernel of order 2,
    target y = phi(. - 0), on T^1, T^2 or T^3: the trigonometric-moment
    model of Candes & Fernandez-Granda 2014, "Towards a mathematical
    theory of super-resolution". Its feature map is the Kronecker power
    of a 5 x n real half spectrum per axis, with feature weights
    (1, 2, 2, 2, 2) per axis and sup ||Phi|| = 5^(d/2), sqrt(5) per axis;
  * four lower-bound constructions on the simplex (linear or quadratic
    outer, kinked or smoothed distance feature);
  * one-hidden-layer ReLU regression with neurons on S^1, the torus T^1
    scaled by 2 pi.
"""

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from .dgf import number_token
from .grid import dist_to_point, torus_grid

TWO_PI = 2.0 * np.pi


class SquaredResidual:
    """R(z) = scale * sum_i omega_i (z_i - y_i)^2 on (R^M, <.,.>_omega).

    The gradient in the omega-weighted inner product is
    2 * scale * (z - y), hence Lip(grad R) = 2 * scale.
    """

    def __init__(self, target, scale=1.0):
        self.target = np.asarray(target, dtype=float)
        self.scale = float(scale)
        self.lip_grad = 2.0 * self.scale

    def value(self, z, omega):
        d = z - self.target
        return self.scale * float(np.add.reduce(omega * (d * d)))

    def grad(self, z):
        return 2.0 * self.scale * (z - self.target)


class LinearForm:
    """R(z) = <c, z>_omega; gradient is the constant c, Lip(grad R) = 0."""

    def __init__(self, coef):
        self.coef = np.asarray(coef, dtype=float)
        self.lip_grad = 0.0

    def value(self, z, omega):
        return float(np.add.reduce(omega * self.coef * z))

    def grad(self, z):
        return self.coef


class SmoothObjective:
    """G(f) = R(A (w f)) for a feature matrix A and outer function R.

    A is given either whole, as one (M, m) matrix, or factored by axis,
    as a tuple of per-axis matrices (M_i, n_i) whose Kronecker product
    A_1 x ... x A_d it is, on a grid whose m = n_1 ... n_d points are
    ordered with the first axis slowest (as `torus_grid` orders them).
    A whole matrix costs one matvec each way; a factored one is applied
    one axis at a time, (A_i X).T per axis with X = x.reshape(n_i, -1)
    (X^T A_i for the adjoint, X with M_i rows), and is never formed:
    `features` materializes it on first read. `weights` is the grid's
    cell weight 1/m.

    Parameters
    ----------
    features : ndarray, shape (M, m), or tuple of ndarrays (M_i, n_i)
        Feature evaluations; column j of A is Phi(theta_j) in coordinates
        of the feature space.
    outer : SquaredResidual or LinearForm
    feature_weights : ndarray, shape (M,), optional
        Inner-product weights of the feature space (default all ones);
        for factored features a tuple of per-axis weights (M_i,), whose
        Kronecker product is the weight vector.
    phi_lip_class : str
        "lipschitz" or "gradient_lipschitz"; how smooth theta -> Phi(theta)
        is. Problems on "gradient_lipschitz" features are in setting II or
        II*, the others in I or I*.
    """

    def __init__(self, features, outer, feature_weights=None, phi_lip_class="lipschitz"):
        factored = isinstance(features, tuple)
        factors = features if factored else (features,)
        factors = tuple(np.asarray(a, dtype=float) for a in factors)
        if not factors or any(a.ndim != 2 for a in factors):
            raise ValueError("features must be an (M, m) matrix or a tuple of them")
        if feature_weights is None:
            feature_weights = tuple(np.ones(a.shape[0]) for a in factors)
        elif not factored:
            feature_weights = (feature_weights,)
        axis_weights = tuple(np.asarray(w, dtype=float) for w in feature_weights)
        if len(axis_weights) != len(factors) or any(
            w.shape != (a.shape[0],) for w, a in zip(axis_weights, factors)
        ):
            raise ValueError("feature_weights must have shape (M,), one per factor")
        if phi_lip_class not in ("lipschitz", "gradient_lipschitz"):
            raise ValueError(f"unknown phi_lip_class {phi_lip_class!r}")
        self.factors = factors
        self.outer = outer
        self.phi_lip_class = phi_lip_class
        self.feature_weights = functools.reduce(np.kron, axis_weights)
        # One factor stays a plain matvec: through the axis loops it gives
        # bit-identical results but costs 0.4-1.8 us more per call, which
        # took 4-10 % off the deconv_small benchmark's iterations per
        # second on a 2-core x86 VM. Both directions go through np.dot:
        # the BLAS call of @, without matmul's dispatch (1.2 against
        # 6.9 us for the adjoint r A at M = 1, m = 2000, the lb:* shape).
        self._matrix = factors[0] if len(factors) == 1 else None
        # sup_j ||Phi(theta_j)|| in the weighted norm; the squared column
        # norms of a Kronecker product are the products of the per-axis ones.
        self.phi_sup = math.prod(
            math.sqrt(float(np.max(np.sum(w[:, None] * a**2, axis=0))))
            for w, a in zip(axis_weights, factors)
        )

    @functools.cached_property
    def features(self):
        """The (M, m) feature matrix, formed on first read when factored."""
        return functools.reduce(np.kron, self.factors)

    @property
    def lip_grad(self):
        return self.outer.lip_grad

    def moments(self, weights, f):
        x = weights * f
        if self._matrix is not None:
            return np.dot(self._matrix, x)
        # Each pass contracts the leading axis and moves the result to the
        # back, so after all d the axes are back in order.
        for a in self.factors:
            x = np.dot(a, x.reshape(a.shape[1], -1)).T
        return x.ravel()

    def value(self, weights, f):
        return self.outer.value(self.moments(weights, f), self.feature_weights)

    def gradient(self, weights, f):
        """The potential G'[f] evaluated at every grid point, shape (m,)."""
        r = self.feature_weights * self.outer.grad(self.moments(weights, f))
        if self._matrix is not None:
            return np.dot(r, self._matrix)
        # X^T A_i writes C order, so no pass copies and ravel is free. For
        # the deconvolution factors (M_i = 5) it has the bits of (A_i^T X).T.
        for a in self.factors:
            r = np.dot(r.reshape(a.shape[0], -1).T, a)
        return r.ravel()


# ---------------------------------------------------------------------------
# Regularizers (Table of admissible H terms: sign/mass constraints and TV)

_REG_KINDS = ("nonneg_tv", "simplex", "tv", "tv_ball")

# Constraint violation up to which a density still counts as feasible.
FEAS_TOL = 1e-9


@dataclass(frozen=True)
class Regularizer:
    """Convex regularizer H(f), one of four kinds.

    nonneg_tv : lam * ||f||_L1 + indicator(f >= 0)
    simplex   : indicator(f >= 0, mass(f) = 1)
    tv        : lam * ||f||_L1 on signed densities
    tv_ball   : indicator(||f||_L1 <= radius)
    """

    kind: str
    lam: float = 0.0
    radius: float = 1.0

    def __post_init__(self):
        if self.kind not in _REG_KINDS:
            raise ValueError(f"unknown regularizer kind {self.kind!r}")
        for name, value in (("TV weight", self.lam), ("TV ball radius", self.radius)):
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.lam < 0:
            raise ValueError(f"TV weight must be nonnegative, got {self.lam}")
        if self.kind == "tv_ball" and self.radius <= 0:
            raise ValueError(f"TV ball radius must be positive, got {self.radius}")
        # A field the kind never reads keeps its default, so that the
        # token, the prox step and the closed forms see one regularizer.
        if self.kind != "tv_ball" and self.radius != 1.0:
            raise ValueError(f"{self.kind} has no radius, got radius={self.radius}")
        if self.kind in ("simplex", "tv_ball") and self.lam != 0.0:
            raise ValueError(f"{self.kind} has no TV weight, got lam={self.lam}")

    @property
    def token(self):
        """The parse_regularizer token of this regularizer, exact in lam / radius."""
        if self.kind == "simplex":
            return "simplex"
        if self.kind == "tv_ball":
            return f"tv_ball:{number_token(self.radius)}"
        return f"{self.kind}:{number_token(self.lam)}"

    def violation(self, weights, f):
        """Distance to the feasible set (0 when feasible), nan when a nan
        entry makes it undefined; so callers test `not violation <= tol`.
        tv has no constraint: its violation is always 0, and its value,
        so F, is nan at a nan density."""
        # The nan of a nan entry propagates: max(x, 0.0) returns x when x
        # is nan, and 0.0 - min(f, 0.0) is >= 0 without a max.
        if self.kind == "nonneg_tv":
            return 0.0 - float(np.minimum.reduce(f, initial=0.0))
        if self.kind == "simplex":
            neg = 0.0 - float(np.minimum.reduce(f, initial=0.0))
            mass_err = abs(float(np.add.reduce(weights * f)) - 1.0)
            return max(mass_err, neg)
        if self.kind == "tv_ball":
            return max(float(np.add.reduce(weights * np.abs(f))) - self.radius, 0.0)
        return 0.0  # tv: no constraint

    def value(self, weights, f):
        if not self.violation(weights, f) <= FEAS_TOL:
            return math.inf
        if self.kind in ("nonneg_tv", "tv") and self.lam > 0:
            return self.lam * float(np.add.reduce(weights * np.abs(f)))
        return 0.0


def nonneg_tv(lam=0.0):
    return Regularizer("nonneg_tv", lam=lam)


def simplex():
    return Regularizer("simplex")


def tv(lam):
    return Regularizer("tv", lam=lam)


def tv_ball(radius):
    return Regularizer("tv_ball", radius=radius)


def parse_regularizer(token):
    """Parse "nonneg_tv:<lam>" | "simplex" | "tv:<lam>" | "tv_ball:<K>"."""
    head, sep, tail = token.strip().partition(":")
    try:
        if head == "simplex" and not sep:
            return simplex()
        if head == "nonneg_tv":
            return nonneg_tv(float(tail) if sep else 0.0)
        if head == "tv" and sep:
            return tv(float(tail))
        if head == "tv_ball" and sep:
            return tv_ball(float(tail))
    except ValueError as exc:
        raise ValueError(f"bad regularizer token {token!r}: {exc}") from None
    raise ValueError(
        f"bad regularizer token {token!r}; expected 'nonneg_tv:<lam>', "
        f"'simplex', 'tv:<lam>' or 'tv_ball:<K>'"
    )


# ---------------------------------------------------------------------------
# Problems

# Structure exponent q of each setting tag: Lipschitz (I) or
# gradient-Lipschitz (II) features, starred when the potential vanishes
# at the minimizer.
SETTING_Q = {"I": 1, "I*": 2, "II": 2, "II*": 4}


@dataclass(frozen=True)
class Problem:
    """A composite objective F = G + H on a fixed grid.

    inf_value, if set, is the optimal value of the discretized problem
    (closed form, or solved by exact_optimum); mu_star describes a known
    sparse minimizer as (point, weight) atoms. setting_tag, if set, is a
    key of SETTING_Q.
    k_bound_hint is an a-priori bound on sup_k ||f_k||_L1 along the
    iterations. `solver.resolve_step` reads it for the default step when
    the regularizer bounds neither the norm nor, by a TV weight, the
    level set; it is the way to give a custom problem its bound.
    """

    name: str
    grid: object
    smooth: SmoothObjective
    reg: Regularizer
    inf_value: float = None
    mu_star: tuple = None
    setting_tag: str = None
    k_bound_hint: float = None

    def with_inf_value(self, value):
        return replace(self, inf_value=float(value))


def default_start(problem):
    """The density a run or an envelope starts from when none is given.

    The constant 1, except on a TV ball of radius K < 1, where it is the
    constant K: its L1 norm is then K, so the start is feasible.
    """
    reg = problem.reg
    level = reg.radius if reg.kind == "tv_ball" and reg.radius < 1.0 else 1.0
    return np.full(problem.grid.size, level)


def density_values(problem, f):
    """Density f as a float value array on the problem grid.

    Raises ValueError when f does not have one value per grid point.
    """
    f = np.asarray(f, dtype=float)
    if f.shape != (problem.grid.size,):
        raise ValueError(
            f"density shape {f.shape} does not match grid size {problem.grid.size}"
        )
    return f


def eval_G(problem, f):
    """Smooth part G(f)."""
    return problem.smooth.value(problem.grid.weights, density_values(problem, f))


def eval_F(problem, f):
    """Full objective F(f) = G(f) + H(f); inf when f is infeasible."""
    values, w = density_values(problem, f), problem.grid.weights
    h = problem.reg.value(w, values)
    if math.isinf(h):
        return math.inf
    return problem.smooth.value(w, values) + h


def grad_potential(problem, f):
    """The potential G'[f] on the grid, shape (m,)."""
    return problem.smooth.gradient(problem.grid.weights, density_values(problem, f))


# -- deconvolution ----------------------------------------------------------

def _fourier_rows(axis):
    """Real half spectrum of the order-2 kernel on one torus axis, (5, n).

    Rows cos(2 pi k x) for k = 0, 1, 2 and -sin(2 pi k x) for k = 1, 2 at
    the axis coordinates x: the real and imaginary parts of the moment
    at frequency k, whose conjugate is the moment at -k. So with weights
    (1, 2, 2, 2, 2) and target (1, 1, 1, 0, 0) the weighted squared
    residual of these five real moments is the plain squared residual of
    the five complex moments k = -2..2 against the kernel's unit
    spectrum. Each column has weighted squared norm
    1 + 2 (cos^2 + sin^2) + 2 (cos^2 + sin^2) = 5.
    """
    phase = TWO_PI * np.outer(np.arange(1, 3), axis)
    return np.concatenate([np.ones((1, axis.size)), np.cos(phase), -np.sin(phase)])


_HALF_SPECTRUM_WEIGHTS = np.array([1.0, 2.0, 2.0, 2.0, 2.0])
_HALF_SPECTRUM_TARGET = np.array([1.0, 1.0, 1.0, 0.0, 0.0])


def deconv_problem(grid, reg):
    """Sparse deconvolution: recover delta_0 from y = phi(. - 0).

    G(f) = || phi * f - y ||^2 in L2 of the empirical measure. The kernel
    has unit Fourier coefficients on exactly the frequencies {-2..2}^d,
    so by discrete Parseval (the grid resolves them for n >= 5 per axis)
    G is the squared residual of the 5^d complex moments
    m_k = sum_j w_j f_j e^{-2 pi i k . theta_j} against 1. Both the
    frequency set and the grid factor by axis, and so does G: its feature
    map is the Kronecker power of the per-axis half spectrum
    `_fourier_rows`, a 5 x n matrix, with feature weights
    (1, 2, 2, 2, 2) and target (1, 1, 1, 0, 0) raised to the same
    Kronecker power. The moments and the gradient are contracted one
    axis at a time, at O(5 n^d) per axis, and the 5^d x n^d matrix is
    never formed. Lip(grad R) = 2 and ||Phi||_inf = 5^(d/2), the product
    of the per-axis column norms sqrt(5). Every row has a closed-form
    optimum, attained at a multiple of delta_0:

    - nonneg_tv:lam and tv:lam: a = max(0, 1 - lam / (2 * 5^d)); the
      potential at a * delta_0 is 2(a - 1) phi. For a > 0 it equals
      -lam * phi / 5^d, which meets the TV subdifferential bound with
      equality only at the origin; for lam >= 2 * 5^d the zero density
      is optimal, since |G'[0]| = 2 |phi| <= 2 * 5^d <= lam;
    - simplex (radius 1) and tv_ball:K: a = min(K, 1); the potential
      2(a - 1) phi vanishes for a = 1, and for a = K < 1 puts its
      largest modulus at the origin (|phi| <= 5^d = phi(0)), where the
      whole L1 budget sits.

    In both cases inf = 5^d (1 - a)^2 + lam * a at a * delta_0, with
    lam = 0 for the constrained rows. The potential there vanishes, and
    the problem is tagged II* rather than II, exactly when lam = 0 and
    a = 1.
    """
    if grid.n < 5:
        raise ValueError("need at least 5 points per axis to resolve the kernel")
    rows = _fourier_rows(np.arange(grid.n) / grid.n)
    peak = float(5**grid.dim)
    # Moments of y = phi(. - 0): per axis, cosine rows 1 and sine rows 0.
    target = functools.reduce(np.kron, [_HALF_SPECTRUM_TARGET] * grid.dim)
    smooth = SmoothObjective(
        (rows,) * grid.dim,
        SquaredResidual(target),
        feature_weights=(_HALF_SPECTRUM_WEIGHTS,) * grid.dim,
        phi_lip_class="gradient_lipschitz",
    )
    if reg.kind in ("nonneg_tv", "tv"):
        lam, amplitude = reg.lam, max(0.0, 1.0 - reg.lam / (2.0 * peak))
    else:
        lam, amplitude = 0.0, min(reg.radius, 1.0)
    return Problem(
        name=f"deconv{grid.dim}d",
        grid=grid,
        smooth=smooth,
        reg=reg,
        inf_value=peak * (1.0 - amplitude) ** 2 + lam * amplitude,
        mu_star=((np.zeros(grid.dim), amplitude),),
        setting_tag="II*" if lam == 0.0 and amplitude == 1.0 else "II",
        # Descent from f0 = 1 keeps the L1 norm below 1 + sqrt(F(1)):
        # total Fourier mass of the residual bounds the signal part.
        k_bound_hint=1.0 + math.sqrt(peak - 1.0),
    )


# -- lower-bound constructions ---------------------------------------------

def smoothed_square_dist(grid, center):
    """C^2 feature: dist^2 near `center`, blended to the constant 0.26.

    Equal to dist(center, .)^2 for dist <= 0.4, a quintic smootherstep
    blend on [0.4, 0.5], and 0.26 (> 1/4) beyond; twice continuously
    differentiable across both joints.
    """
    r = dist_to_point(grid, center)
    t = np.clip((r - 0.4) / 0.1, 0.0, 1.0)
    s = t**3 * (10.0 + t * (-15.0 + 6.0 * t))
    return (1.0 - s) * r**2 + s * 0.26


def lb_problem(grid, setting):
    """Rate lower-bound constructions on the probability simplex.

    The feature is the distance to the origin (settings I, I*) or its
    C^2 smoothing (II, II*); the outer function is linear (I, II) or
    half-square (I*, II*), making the potential vanish at the minimizer
    delta_0 in the starred settings. The optimum is 0, attained at the
    origin (a grid point).
    """
    if setting not in SETTING_Q:
        raise ValueError(f"unknown setting {setting!r}, expected one of {tuple(SETTING_Q)}")
    origin = np.zeros(grid.dim)
    if setting in ("I", "I*"):
        phi = dist_to_point(grid, origin)
        lip_class = "lipschitz"
    else:
        phi = smoothed_square_dist(grid, origin)
        lip_class = "gradient_lipschitz"
    features = phi.reshape(1, -1)
    if setting in ("I", "II"):
        outer = LinearForm(np.ones(1))
    else:
        outer = SquaredResidual(np.zeros(1), scale=0.5)
    smooth = SmoothObjective(features, outer, phi_lip_class=lip_class)
    return Problem(
        name=f"lb:{setting}",
        grid=grid,
        smooth=smooth,
        reg=simplex(),
        inf_value=0.0,
        mu_star=((origin, 1.0),),
        setting_tag=setting,
    )


# -- two-layer ReLU regression ---------------------------------------------

def relu_problem(grid, n=10, lam=0.05, seed=0):
    """One-hidden-layer ReLU net trained by measure-space TV regression.

    Neurons live on S^1 as directions (cos t, sin t): the point j / m of
    the 1D torus grid is the angle t = 2 pi j / m, and sample i
    contributes the feature (x_i cos t + sin t)_+. The atoms of an
    optimum (`exact_optimum`) are torus coordinates t / (2 pi). Targets
    are y_i = |x_i| - 1/2 plus uniform noise on [-1, 1] drawn from `seed`.
    R is the mean square loss (1/n) sum_i (y_i - z_i)^2 / 2, so
    Lip(grad R) = 1 in the empirical inner product.
    """
    if grid.dim != 1:
        raise ValueError(f"ReLU neurons live on a 1D torus grid, got dim={grid.dim}")
    if n < 2:
        raise ValueError(f"need at least 2 samples, got n={n}")
    x = np.linspace(-1.0, 1.0, n)
    noise = np.random.default_rng(seed).uniform(-1.0, 1.0, n)
    y = np.abs(x) - 0.5 + noise
    # From the index: 2 pi times the coordinate j / m rounds differently.
    angles = TWO_PI * np.arange(grid.size) / grid.size
    features = np.maximum(np.outer(x, np.cos(angles)) + np.sin(angles), 0.0)
    smooth = SmoothObjective(
        features,
        SquaredResidual(y, scale=0.5),
        feature_weights=np.full(n, 1.0 / n),
        phi_lip_class="lipschitz",
    )
    problem = Problem(
        name="relu",
        grid=grid,
        smooth=smooth,
        reg=tv(lam),
        setting_tag="I",
    )
    if lam > 0:
        # Level-set bound: lam ||f_k|| <= F(f_k) <= F(f0) under descent.
        hint = eval_F(problem, default_start(problem)) / lam
        problem = replace(problem, k_bound_hint=hint)
    return problem


# Join knots this close (relative) to the next knot tie with it: a tied
# column left out comes out up to 3e-12 above the new mu one knot later.
_TIE_RTOL = 1e-12


def exact_optimum(problem):
    """The problem with its exact optimum recorded, by the Lasso homotopy.

    Applies to a SquaredResidual smooth part under tv:lam with lam > 0.
    In g = w f, with the feature rows and the target scaled by
    sqrt(2 scale omega), G + H = 1/2 ||B g - z||^2 + lam ||g||_1. The
    homotopy (Osborne, Presnell & Turlach 2000; Efron et al. 2004) lowers
    mu from max |B^T z|, where g = 0, to lam. Between knots the active
    coefficients solve B_A^T B_A g_A = B_A^T z - mu s_A, affine in mu;
    the next knot is the largest mu below the current one at which an
    inactive correlation reaches +-mu (join) or an active coefficient
    reaches 0 (leave). Inactive columns whose join knots tie the next
    knot within rounding join with it; the columns that changed at a knot
    are barred from the opposite event at the next one, else rounding
    makes the path cycle. The atoms of mu_star are the pairs (grid point, g_j).

    Raises ValueError for another outer or regularizer or for lam = 0,
    and RuntimeError when the path stalls (10 m knots short of lam), the
    active Gram matrix is singular or the end point misses the Lasso
    bound max |B^T (z - B g)| <= lam (1 + 1e-9).
    """
    smooth, lam = problem.smooth, problem.reg.lam
    if not isinstance(smooth.outer, SquaredResidual) or problem.reg.kind != "tv" or lam <= 0:
        raise ValueError(
            f"no exact solve for {problem.name} under {problem.reg.token}: it needs "
            f"a squared residual under tv:<lam> with lam > 0"
        )
    row_scale = np.sqrt(2.0 * smooth.outer.scale * smooth.feature_weights)
    B, z = row_scale[:, None] * smooth.features, row_scale * smooth.outer.target
    m = problem.grid.size
    mu, active, signs, joined, left = math.inf, [], [], [], None
    for _ in range(10 * m):
        B_A = B[:, active]
        try:
            u, v = np.linalg.solve(B_A.T @ B_A, np.stack([B_A.T @ z, signs], axis=1)).T
        except np.linalg.LinAlgError:
            raise RuntimeError(f"singular active Gram matrix at mu = {mu!r}") from None
        # Below mu, g_A = u - t v and the correlations are p + t q.
        p, q = B.T @ (z - B_A @ u), B.T @ (B_A @ v)
        with np.errstate(divide="ignore", invalid="ignore"):
            join, leave = np.stack([p / (1.0 - q), -p / (1.0 + q)]), u / v
        join[:, active] = -np.inf
        if left is not None:
            join[:, left] = -np.inf
        leave[[active.index(j) for j in joined]] = -np.inf
        knots = np.concatenate([join.ravel(), leave])
        knots[~(knots < mu)] = -np.inf
        k = int(np.argmax(knots))
        if knots[k] <= lam:
            break
        mu = float(knots[k])
        if k < 2 * m:
            tied = np.flatnonzero(knots[: 2 * m] >= mu * (1.0 - _TIE_RTOL))
            joined, left = [int(t) % m for t in tied], None
            active += joined
            signs += [1.0 - 2.0 * (int(t) // m) for t in tied]
        else:
            joined, left = [], active.pop(k - 2 * m)
            signs.pop(k - 2 * m)
    else:
        raise RuntimeError(f"Lasso homotopy stalled at mu = {mu!r} after {10 * m} knots")
    g = np.zeros(m)
    g[active] = u - lam * v
    if not (worst := float(np.abs(B.T @ (z - B @ g)).max())) <= lam * (1.0 + 1e-9):
        raise RuntimeError(f"Lasso homotopy end point has correlation {worst!r} > lam = {lam!r}")
    atoms = tuple((problem.grid.points[j], float(g[j])) for j in np.flatnonzero(g))
    return replace(problem, inf_value=eval_F(problem, g / problem.grid.weights), mu_star=atoms)


# -- CLI problem registry ---------------------------------------------------

# token: (dimension, default points per axis, points per axis of the
# finite-difference gradient check).
PROBLEM_TABLE = {
    "deconv1d": (1, 300, 50), "deconv2d": (2, 60, 8), "deconv3d": (3, 20, 6),
    "lb:I": (1, 2000, 100), "lb:I*": (1, 2000, 100), "lb:II": (1, 2000, 100),
    "lb:II*": (1, 2000, 100), "relu": (1, 2000, 200),
}

PROBLEM_TOKENS = tuple(PROBLEM_TABLE)


def build_problem(token, grid_size=None, reg=None, lam=None, seed=0, n_samples=10):
    """Build a problem from its CLI token with documented defaults.

    The problem lives on the torus of the token's `PROBLEM_TABLE`
    dimension, with grid_size points per axis; None selects the token's
    default there (300 for deconv1d, 60 for deconv2d, 20 for deconv3d,
    2000 for relu and the lower-bound settings). `reg` overrides the
    default regularizer where the problem admits a choice; `lam` sets
    the weight of the default one instead (nonneg_tv for deconvolution,
    tv for relu), so it goes with neither `reg` nor a lower-bound token.
    """
    if token not in PROBLEM_TABLE:
        raise ValueError(f"unknown problem token {token!r}, expected one of {PROBLEM_TOKENS}")
    if lam is not None and (reg is not None or token.startswith("lb:")):
        raise ValueError(
            "lam sets the TV weight of the default regularizer only; give the "
            "weight in reg (lower-bound problems have none)"
        )
    dim, default_n, _ = PROBLEM_TABLE[token]
    grid = torus_grid(dim, default_n if grid_size is None else grid_size)
    if token.startswith("deconv"):
        if reg is None:
            reg = nonneg_tv(0.0 if lam is None else lam)
        return deconv_problem(grid, reg)
    if token.startswith("lb:"):
        if reg is not None and reg.kind != "simplex":
            raise ValueError("lower-bound problems are fixed to the simplex")
        return lb_problem(grid, token[3:])
    # relu
    if reg is not None and reg.kind != "tv":
        raise ValueError("relu regression uses a signed TV regularizer")
    if lam is None:
        lam = reg.lam if reg is not None else 0.05
    return relu_problem(grid, n=n_samples, lam=lam, seed=seed)
