"""Smooth objectives G(f) = R(sum_j w_j f_j Phi(theta_j)) and problem library.

A SmoothObjective pairs a linear feature map (an M x m matrix A whose
columns are the feature vectors Phi(theta_j) in a weighted inner-product
space) with an outer function R. Its gradient potential is the grid
function

    G'[f](theta_j) = <grad R(z), Phi(theta_j)>,   z = A (w * f),

which drives all the proximal gradient updates.

Concrete problems:

  * sparse deconvolution against a real Dirichlet kernel of order 2,
    target y = phi(. - 0), on T^1 or T^2;
  * four lower-bound constructions on the simplex (linear or quadratic
    outer, kinked or smoothed distance feature);
  * one-hidden-layer ReLU regression with neurons on S^1.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from .grid import circle_grid, dirac_density, dist_to_point, torus_grid

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
        return self.scale * float(np.sum(omega * (z - self.target) ** 2))

    def grad(self, z):
        return 2.0 * self.scale * (z - self.target)


class LinearForm:
    """R(z) = <c, z>_omega; gradient is the constant c, Lip(grad R) = 0."""

    def __init__(self, coef):
        self.coef = np.asarray(coef, dtype=float)
        self.lip_grad = 0.0

    def value(self, z, omega):
        return float(np.sum(omega * self.coef * z))

    def grad(self, z):
        return np.broadcast_to(self.coef, z.shape)


class SmoothObjective:
    """G(f) = R(A (w f)) for a feature matrix A and outer function R.

    Parameters
    ----------
    features : ndarray, shape (M, m)
        Feature evaluations; column j is Phi(theta_j) in coordinates of
        the feature space.
    outer : SquaredResidual or LinearForm
    feature_weights : ndarray, shape (M,), optional
        Inner-product weights of the feature space (default all ones).
    phi_lip_class : str
        "lipschitz" or "gradient_lipschitz"; how smooth theta -> Phi(theta)
        is. Problems on "gradient_lipschitz" features are in setting II or
        II*, the others in I or I*.
    """

    def __init__(self, features, outer, feature_weights=None, phi_lip_class="lipschitz"):
        self.features = np.asarray(features, dtype=float)
        if self.features.ndim != 2:
            raise ValueError("features must be an (M, m) matrix")
        self.outer = outer
        if feature_weights is None:
            feature_weights = np.ones(self.features.shape[0])
        self.feature_weights = np.asarray(feature_weights, dtype=float)
        if self.feature_weights.shape != (self.features.shape[0],):
            raise ValueError("feature_weights must have shape (M,)")
        if phi_lip_class not in ("lipschitz", "gradient_lipschitz"):
            raise ValueError(f"unknown phi_lip_class {phi_lip_class!r}")
        self.phi_lip_class = phi_lip_class
        # sup_j ||Phi(theta_j)|| in the weighted norm
        self.phi_sup = float(
            np.sqrt(np.max(np.sum(self.feature_weights[:, None] * self.features**2, axis=0)))
        )

    @property
    def lip_grad(self):
        return self.outer.lip_grad

    def moments(self, weights, f):
        return self.features @ (weights * f)

    def value(self, weights, f):
        return self.outer.value(self.moments(weights, f), self.feature_weights)

    def gradient(self, weights, f):
        """The potential G'[f] evaluated at every grid point, shape (m,)."""
        r = self.outer.grad(self.moments(weights, f))
        return self.features.T @ (self.feature_weights * r)


# ---------------------------------------------------------------------------
# Regularizers (Table of admissible H terms: sign/mass constraints and TV)

_REG_KINDS = ("nonneg_tv", "simplex", "tv", "tv_ball")

# Constraint violation up to which a density still counts as feasible.
FEAS_TOL = 1e-9


def _number_token(x):
    """Shortest of ':g' and repr that parses back to exactly x."""
    short = f"{x:g}"
    return short if float(short) == x else repr(float(x))


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
        if self.lam < 0:
            raise ValueError(f"TV weight must be nonnegative, got {self.lam}")
        if self.kind == "tv_ball" and self.radius <= 0:
            raise ValueError(f"TV ball radius must be positive, got {self.radius}")

    @property
    def token(self):
        """The parse_regularizer token of this regularizer, exact in lam / radius."""
        if self.kind == "simplex":
            return "simplex"
        if self.kind == "tv_ball":
            return f"tv_ball:{_number_token(self.radius)}"
        return f"{self.kind}:{_number_token(self.lam)}"

    def violation(self, weights, f):
        """Distance to the feasible set (0 when feasible)."""
        if self.kind == "nonneg_tv":
            return float(max(0.0, -np.min(f, initial=0.0)))
        if self.kind == "simplex":
            neg = max(0.0, -float(np.min(f, initial=0.0)))
            mass_err = abs(float(np.sum(weights * f)) - 1.0)
            return max(neg, mass_err)
        if self.kind == "tv_ball":
            return max(0.0, float(np.sum(weights * np.abs(f))) - self.radius)
        return 0.0  # tv: no constraint

    def value(self, weights, f):
        if self.violation(weights, f) > FEAS_TOL:
            return math.inf
        if self.kind in ("nonneg_tv", "tv") and self.lam > 0:
            return self.lam * float(np.sum(weights * np.abs(f)))
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

@dataclass(frozen=True)
class Problem:
    """A composite objective F = G + H on a fixed grid.

    inf_value, if set, is the optimal value of the discretized problem
    (closed form, or solved by exact_optimum); mu_star describes a known
    sparse minimizer as (point, weight) atoms.
    k_bound_hint is an a-priori bound on sup_k ||f_k||_L1 along the
    iterations, used for default step sizes when the regularizer itself
    does not bound the norm.
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
    values = density_values(problem, f)
    h = problem.reg.value(problem.grid.weights, values)
    if math.isinf(h):
        return math.inf
    return problem.smooth.value(problem.grid.weights, values) + h


def grad_potential(problem, f):
    """The potential G'[f] on the grid, shape (m,)."""
    return problem.smooth.gradient(problem.grid.weights, density_values(problem, f))


def minimizer_density(problem):
    """Value array of the known sparse minimizer mu_star on the grid, if any.

    An empty mu_star records the zero density.
    """
    if problem.mu_star is None:
        raise ValueError(f"problem {problem.name} has no recorded minimizer")
    return sum(
        (dirac_density(problem.grid, point, weight) for point, weight in problem.mu_star),
        np.zeros(problem.grid.size),
    )


# -- deconvolution ----------------------------------------------------------

def dirichlet_kernel(grid, theta):
    """Order-2 real Dirichlet kernel phi at coordinate offsets theta.

    phi(theta) = prod_i (1 + 2 cos(2 pi theta_i) + 2 cos(4 pi theta_i));
    phi(0) = 5^d and integral(phi) = 1.
    """
    theta = np.asarray(theta, dtype=float)
    if grid.kind != "torus":
        raise ValueError("Dirichlet kernel lives on the torus")
    per_axis = 1.0 + 2.0 * np.cos(TWO_PI * theta) + 2.0 * np.cos(2.0 * TWO_PI * theta)
    return np.prod(per_axis, axis=-1)


def _fourier_rows(grid):
    """Real Fourier feature matrix of the order-2 kernel on a torus grid.

    One cosine and one sine row per frequency k in {-2..2}^d. Because
    the kernel has unit Fourier coefficients on exactly this set, the
    L2 residual of the circulant convolution equals the plain squared
    residual of these 2 * 5^d moments (discrete Parseval; the grid
    resolves all frequencies involved for n >= 5 per axis).
    """
    freqs = np.array(
        np.meshgrid(*([np.arange(-2, 3)] * grid.dim), indexing="ij")
    ).reshape(grid.dim, -1).T  # (5^d, d)
    phase = TWO_PI * (freqs @ grid.points.T)  # (5^d, m)
    return np.concatenate([np.cos(phase), -np.sin(phase)], axis=0)


def deconv_problem(grid, reg):
    """Sparse deconvolution: recover delta_0 from y = phi(. - 0).

    G(f) = || phi * f - y ||^2 in L2 of the empirical measure, with
    Lip(grad R) = 2 and ||Phi||_inf = 5^(d/2). Every row has a closed-form
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
    lam = 0 for the constrained rows.

    The grid Dirac at 0 attains value 0 exactly wherever it is feasible
    with H = 0: nonneg_tv and tv with lam = 0, simplex, and tv_ball with
    radius >= 1.
    """
    if grid.kind != "torus":
        raise ValueError("deconvolution is defined on a torus grid")
    if grid.spacing > 1.0 / 5.0:
        raise ValueError("need at least 5 points per axis to resolve the kernel")
    features = _fourier_rows(grid)
    n_freq = 5**grid.dim
    peak = float(n_freq)
    # Moments of y = phi(. - 0): cosine rows 1, sine rows 0.
    target = np.concatenate([np.ones(n_freq), np.zeros(n_freq)])
    smooth = SmoothObjective(
        features, SquaredResidual(target), phi_lip_class="gradient_lipschitz"
    )
    origin = np.zeros(grid.dim)
    # The grid Dirac at the origin reproduces y (G = 0), so the potential
    # vanishes at the minimizer (II*) exactly when that Dirac is
    # feasible with H = 0.
    exact = reg.value(grid.weights, dirac_density(grid, origin)) == 0.0
    if reg.kind in ("nonneg_tv", "tv"):
        lam, amplitude = reg.lam, max(0.0, 1.0 - reg.lam / (2.0 * peak))
    else:
        lam, amplitude = 0.0, min(reg.radius, 1.0)
    name = f"deconv{grid.dim}d"
    return Problem(
        name=name,
        grid=grid,
        smooth=smooth,
        reg=reg,
        inf_value=peak * (1.0 - amplitude) ** 2 + lam * amplitude,
        mu_star=((origin, amplitude),),
        setting_tag="II*" if exact else "II",
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


_LB_SETTINGS = ("I", "I*", "II", "II*")


def lb_problem(grid, setting):
    """Rate lower-bound constructions on the probability simplex.

    The feature is the distance to the origin (settings I, I*) or its
    C^2 smoothing (II, II*); the outer function is linear (I, II) or
    half-square (I*, II*), making the potential vanish at the minimizer
    delta_0 in the starred settings. The optimum is 0, attained at the
    origin (a grid point).
    """
    if grid.kind != "torus":
        raise ValueError("lower-bound constructions are defined on a torus grid")
    if setting not in _LB_SETTINGS:
        raise ValueError(f"unknown setting {setting!r}, expected one of {_LB_SETTINGS}")
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

    Neurons live on S^1 as directions (cos t, sin t); sample i
    contributes the feature (x_i cos t + sin t)_+. Targets are
    y_i = |x_i| - 1/2 plus uniform noise on [-1, 1] drawn from `seed`.
    R is the mean square loss (1/n) sum_i (y_i - z_i)^2 / 2, so
    Lip(grad R) = 1 in the empirical inner product.
    """
    if grid.kind != "circle":
        raise ValueError("ReLU neurons live on a circle grid")
    if n < 2:
        raise ValueError(f"need at least 2 samples, got n={n}")
    x = np.linspace(-1.0, 1.0, n)
    noise = np.random.default_rng(seed).uniform(-1.0, 1.0, n)
    y = np.abs(x) - 0.5 + noise
    angles = grid.points[:, 0]
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
        f0 = np.ones(grid.size)
        hint = eval_F(problem, f0) / lam
        problem = replace(problem, k_bound_hint=hint)
    return problem


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
    reaches 0 (leave). The column that changed at a knot is barred from
    the opposite event at the next one, else rounding makes the path
    cycle. The atoms of mu_star are the pairs (grid point, g_j).

    Raises ValueError for another outer or regularizer or for lam = 0,
    and RuntimeError when the path stalls (10 m knots short of lam) or
    the active Gram matrix is singular.
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
    mu, active, signs, barred = math.inf, [], [], None
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
        if barred in active:
            leave[active.index(barred)] = -np.inf
        elif barred is not None:
            join[:, barred] = -np.inf
        knots = np.concatenate([join.ravel(), leave])
        knots[~(knots < mu)] = -np.inf
        k = int(np.argmax(knots))
        if knots[k] <= lam:
            break
        mu = float(knots[k])
        if k < 2 * m:
            side, barred = divmod(k, m)
            active.append(barred)
            signs.append(1.0 - 2.0 * side)
        else:
            barred = active.pop(k - 2 * m)
            signs.pop(k - 2 * m)
    else:
        raise RuntimeError(f"Lasso homotopy stalled at mu = {mu!r} after {10 * m} knots")
    g = np.zeros(m)
    g[active] = u - lam * v
    atoms = tuple((problem.grid.points[j], float(g[j])) for j in np.flatnonzero(g))
    return replace(problem, inf_value=eval_F(problem, g / problem.grid.weights), mu_star=atoms)


# -- CLI problem registry ---------------------------------------------------

PROBLEM_TOKENS = ("deconv1d", "deconv2d", "lb:I", "lb:I*", "lb:II", "lb:II*", "relu")

_DEFAULT_AXIS_POINTS = {"deconv1d": 300, "deconv2d": 60, "relu": 2000}


def build_problem(token, grid_size=None, reg=None, lam=None, seed=0, n_samples=10):
    """Build a problem from its CLI token with documented defaults.

    grid_size is the number of points per axis (300 for deconv1d, 60
    for deconv2d, 2000 for relu and the lower-bound settings). `reg`
    overrides the default regularizer where the problem admits a
    choice; `lam` is a shorthand to override only the TV weight.
    """
    if token not in PROBLEM_TOKENS:
        raise ValueError(f"unknown problem token {token!r}, expected one of {PROBLEM_TOKENS}")
    if token.startswith("deconv"):
        dim = int(token[len("deconv") : -1])
        n = grid_size or _DEFAULT_AXIS_POINTS[token]
        if reg is None:
            reg = nonneg_tv(0.0 if lam is None else lam)
        elif lam is not None and reg.kind in ("nonneg_tv", "tv"):
            reg = replace(reg, lam=lam)
        return deconv_problem(torus_grid(dim, n), reg)
    if token.startswith("lb:"):
        n = grid_size or 2000
        if reg is not None and reg.kind != "simplex":
            raise ValueError("lower-bound problems are fixed to the simplex")
        return lb_problem(torus_grid(1, n), token[3:])
    # relu
    m = grid_size or _DEFAULT_AXIS_POINTS["relu"]
    if reg is not None and reg.kind != "tv":
        raise ValueError("relu regression uses a signed TV regularizer")
    if lam is None:
        lam = reg.lam if reg is not None else 0.05
    return relu_problem(circle_grid(m), n=n_samples, lam=lam, seed=seed)
