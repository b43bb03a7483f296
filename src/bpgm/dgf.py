"""Distance-generating functions for mirror/Bregman proximal steps.

Each Dgf is a superlinear convex function eta on R (or R_+) applied
pointwise; the induced Bregman divergence between densities f, g on a
grid with weights w is

    D(f, g) = sum_j w_j * (eta(f_j) - eta(g_j) - eta'(g_j) (f_j - g_j)).

Three families are provided:

  power(p):    eta(s) = |s|^p / (p (p-1)),  1 < p <= 2, signed domain
  entropy:     eta(s) = s log s - s + 1,    nonnegative domain
  hyperbolic:  eta(s) = s asinh(s/beta) - sqrt(s^2 + beta^2) + beta,
               beta > 0, signed domain ("signed entropy")

Every family is (p, beta)-strongly convex relative to the L1 norm on
bounded sets: D(f, g) >= c(K) * ||f - g||_L1^2 with
c(K) = (K + beta)^(p-2) / 2 whenever ||f||_L1, ||g||_L1 <= K
(entropy additionally needs f, g >= 0, which its domain enforces).
"""

import math

import numpy as np

DEFAULT_BETA = 1e-3


def number_token(x):
    """x as dgf names and regularizer tokens write it: the ':g' form when
    that parses back to exactly x, else repr."""
    short = f"{x:g}"
    return short if float(short) == x else repr(float(x))


class Dgf:
    """Base distance-generating function.

    Subclasses set `name`, `domain` ("signed" or "nonnegative") and the
    relative-strong-convexity parameters `p` (exponent) and `beta`
    (offset), and implement eta, eta_prime, eta_prime_inv as numpy
    ufunc-style maps. The signed families also implement dual_step, the
    one step of a pass of prox.solve_kappa.
    """

    name = None
    domain = None
    p = None
    beta = None

    def eta(self, s):
        raise NotImplementedError

    def eta_prime(self, s):
        raise NotImplementedError

    def eta_prime_inv(self, u):
        """Inverse of eta_prime (the mirror map back to densities)."""
        raise NotImplementedError

    def dual_step(self, x, level):
        """(delta, exact): a step toward the delta with
        sum_j eta'^{-1}((x_j - delta)_+) = level, never past it.

        x is a nonempty array of shifts x > 0, the live entries a_j - kappa
        of a dual pass, and level > 0. The closed forms (p:2, hyp, and
        p:1.5 while its root lies below every shift) solve the sum with
        eta'^{-1} extended oddly below 0 (exact true): that sum is at most
        the clamped one, so delta is a lower bound, and the root itself
        when the entries above delta are the live ones. Other powers give
        the Newton step, the zero of the clamped sum's tangent, which lies
        left of the root since the sum is convex (exact false).
        """
        raise NotImplementedError

    def divergence_values(self, weights, f, g):
        """Bregman divergence between raw value arrays on shared weights."""
        f = np.asarray(f, dtype=float)
        g = np.asarray(g, dtype=float)
        terms = self.eta(f) - self.eta(g) - self.eta_prime(g) * (f - g)
        return float(np.sum(weights * terms))

    def __repr__(self):
        return f"{type(self).__name__}({self.name})"


class PowerDgf(Dgf):
    """Power family eta(s) = |s|^p / (p (p-1)) on the signed domain.

    Parameters
    ----------
    p : float
        Exponent in (1, 2]. p = 2 gives the Euclidean half-square
        (eta_prime is the identity); p < 2 strengthens curvature near 0.
    """

    domain = "signed"
    beta = 0.0

    def __init__(self, p):
        if not 1.0 < p <= 2.0:
            raise ValueError(f"power exponent must lie in (1, 2], got {p}")
        self.p = float(p)
        self.name = f"p:{number_token(self.p)}"

    def eta(self, s):
        s = np.asarray(s, dtype=float)
        return np.abs(s) ** self.p / (self.p * (self.p - 1.0))

    def eta_prime(self, s):
        s = np.asarray(s, dtype=float)
        return np.sign(s) * np.abs(s) ** (self.p - 1.0) / (self.p - 1.0)

    # At p = 2 the mirror map is the identity; the closed form equals the
    # general formula sign(u) ((p-1)|u|)^(1/(p-1)) bit for bit on finite
    # input (adding 0.0 turns -0.0 into 0.0, as sign(u) * |u| does). For
    # p < 2 copysign gives that formula's bits in one pass fewer, up to
    # the sign of a zero.
    def eta_prime_inv(self, u):
        if self.p == 2.0:
            return np.asarray(u, dtype=float) + 0.0
        u = np.asarray(u, dtype=float)
        return np.copysign(((self.p - 1.0) * np.abs(u)) ** (1.0 / (self.p - 1.0)), u)

    def dual_step(self, x, level):
        if self.p == 2.0:
            # Michelot's step: sum (x_j - delta) = level.
            return (float(np.add.reduce(x)) - level) / x.size, True
        # Powers of t = (p-1) x, never h / t: a subnormal x rounds t to 0.
        t = (self.p - 1.0) * x
        if self.p == 1.5:
            # sum ((x_j - delta) / 2)^2 = level is n e^2 - 2 T e + Q - level = 0
            # in e = delta / 2, with T and Q the sums of t = x / 2 and of t^2.
            # The smaller root, in the form without cancellation (T > 0):
            # e = (Q - level) / (T + sqrt(T^2 - n (Q - level))).
            total, excess = float(np.add.reduce(t)), float(np.dot(t, t)) - level
            disc = total * total - x.size * excess
            if disc >= 0.0:
                e = excess / (total + math.sqrt(disc))
                if e < np.minimum.reduce(t):
                    return 2.0 * e, True
            # Else the tangent: the sum is Q and its slope T.
            return excess / total, False
        q = 1.0 / (self.p - 1.0)
        mass, slope = float(np.add.reduce(t**q)), float(np.add.reduce(t ** (q - 1.0)))
        # A zero slope means every term underflowed: the tangent is flat.
        return ((mass - level) / slope if slope else -math.inf), False


class EntropyDgf(Dgf):
    """Shannon entropy eta(s) = s log s - s + 1 on the nonnegative domain."""

    name = "ent"
    domain = "nonnegative"
    p = 1.0
    beta = 0.0

    def eta(self, s):
        s = np.asarray(s, dtype=float)
        if np.any(s < 0):
            raise ValueError("entropy dgf is only defined for s >= 0")
        with np.errstate(divide="ignore", invalid="ignore"):
            slogs = np.where(s > 0, s * np.log(s), 0.0)
        return slogs - s + 1.0

    def eta_prime(self, s):
        s = np.asarray(s, dtype=float)
        if np.any(s < 0):
            raise ValueError("entropy dgf is only defined for s >= 0")
        with np.errstate(divide="ignore"):
            return np.log(s)  # -inf at s = 0 is the correct limit

    def eta_prime_inv(self, u):
        return np.exp(np.asarray(u, dtype=float))

    def divergence_values(self, weights, f, g):
        # f log(f/g) - f + g with 0 log 0 = 0; infinite when f > 0, g = 0.
        f = np.asarray(f, dtype=float)
        g = np.asarray(g, dtype=float)
        if np.any(f < 0) or np.any(g < 0):
            raise ValueError("entropy divergence needs nonnegative densities")
        if np.any((f > 0) & (g == 0)):
            return math.inf
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(f > 0, f * (np.log(f) - np.log(g)), 0.0)
        return float(np.sum(weights * (ratio - f + g)))


class HyperbolicDgf(Dgf):
    """Hyperbolic entropy on the signed domain.

    eta(s) = s asinh(s/beta) - sqrt(s^2 + beta^2) + beta behaves like
    |s| log(|s|/beta) for |s| >> beta and like s^2 / (2 beta) near 0,
    so it plays the role of an entropy for signed densities. Smaller
    beta means a closer match to entropy and a harder-curved origin.
    """

    domain = "signed"
    p = 1.0

    def __init__(self, beta=DEFAULT_BETA):
        self.beta = float(beta)
        # eta' divides by beta, so 1 / beta must be finite too.
        if not (0.0 < self.beta < math.inf and 1.0 / self.beta < math.inf):
            raise ValueError(
                f"hyperbolic offset beta must be positive with a finite 1/beta, got {beta}"
            )
        self.name = f"hyp:{number_token(self.beta)}"

    def eta(self, s):
        s = np.asarray(s, dtype=float)
        b = self.beta
        return s * np.arcsinh(s / b) - np.sqrt(s**2 + b**2) + b

    def eta_prime(self, s):
        return np.arcsinh(np.asarray(s, dtype=float) / self.beta)

    def eta_prime_inv(self, u):
        return self.beta * np.sinh(np.asarray(u, dtype=float))

    def dual_step(self, x, level):
        # sum sinh(x_j - delta) = c with c = level / beta is, in z = e^delta,
        # N z^2 + 2 c z - P = 0 with P = sum e^x and N = sum e^-x: two sums of
        # positive terms (from sinh and cosh sums N would cancel). The
        # positive root is z = P / (c + sqrt(c^2 + N P)); hypot keeps c^2
        # from overflowing. In prox.solve_kappa every x is at most
        # eta'(level) = asinh(c), so e^x <= 2 c + 1.
        c = level / self.beta
        e = np.exp(x)
        pos, neg = float(np.add.reduce(e)), float(np.add.reduce(np.divide(1.0, e, out=e)))
        return math.log(pos / (c + math.hypot(c, math.sqrt(neg * pos)))), True


def sc_constant(dgf, k_bound):
    """Relative strong convexity constant c(K) = (K + beta)^(p-2) / 2.

    Valid for densities whose L1 norms stay within `k_bound` (and, for
    entropy, are nonnegative).
    """
    if k_bound <= 0:
        raise ValueError(f"norm bound must be positive, got {k_bound}")
    return 0.5 * (k_bound + dgf.beta) ** (dgf.p - 2.0)


def parse_dgf(token):
    """Parse a dgf token: "p:<exponent>", "ent", "hyp" or "hyp:<beta>"."""
    token = token.strip()
    if token == "ent":
        return EntropyDgf()
    if token == "hyp":
        return HyperbolicDgf()
    head, sep, tail = token.partition(":")
    family = {"p": PowerDgf, "hyp": HyperbolicDgf}.get(head)
    if family is not None and sep:
        try:
            return family(float(tail))
        except ValueError as exc:
            raise ValueError(f"bad dgf token {token!r}: {exc}") from None
    raise ValueError(
        f"bad dgf token {token!r}; expected 'p:<exponent>', 'ent' or 'hyp:<beta>'"
    )
