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
    ufunc-style maps. The signed families also implement mass_and_slope,
    the two sums one Newton pass of prox.solve_kappa needs, and p:2,
    p:1.5 and hyp give the same pass's live-set root in closed form
    (live_root).
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

    def mass_and_slope(self, x):
        """(sum eta'^{-1}(x), sum d/dx eta'^{-1}(x)) for shifts x > 0."""
        raise NotImplementedError

    def live_root(self, x, level):
        """The delta with sum_j eta'^{-1}(x_j - delta) = level, taken as if
        every x_j > delta, in closed form; None where the family has none.

        x is a nonempty array of shifts x > 0 and level > 0 is finite.
        The caller checks that every x_j > delta holds, which makes delta
        the exact root of the clamped sum on the support x.
        """
        return None

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

    def mass_and_slope(self, x):
        if self.p == 2.0:
            return float(np.add.reduce(x)), float(x.size)
        # Powers of t = (p-1) x, never h / t: a subnormal x rounds t to 0.
        t = (self.p - 1.0) * x
        q = 1.0 / (self.p - 1.0)
        return float(np.add.reduce(t**q)), float(np.add.reduce(t ** (q - 1.0)))

    def live_root(self, x, level):
        if self.p == 2.0:
            # sum (x_j - delta) = level.
            return (float(np.add.reduce(x)) - level) / x.size
        if self.p != 1.5:
            return None
        # sum ((x_j - delta) / 2)^2 = level is n e^2 - 2 T e + Q - level = 0 in
        # e = delta / 2, with T and Q the sums of t = x / 2 and of t^2. The
        # smaller root, the one below every t_j, in the form without
        # cancellation (T > 0): e = (Q - level) / (T + sqrt(T^2 - n (Q - level))).
        t = 0.5 * x
        total, excess = float(np.add.reduce(t)), float(np.dot(t, t)) - level
        disc = total * total - x.size * excess
        if not disc >= 0.0:  # the unclamped sum stays above level
            return None
        return 2.0 * excess / (total + math.sqrt(disc))


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
        if not (math.isfinite(beta) and beta > 0):
            raise ValueError(f"hyperbolic offset beta must be finite and positive, got {beta}")
        self.beta = float(beta)
        self.name = f"hyp:{number_token(self.beta)}"

    def eta(self, s):
        s = np.asarray(s, dtype=float)
        b = self.beta
        return s * np.arcsinh(s / b) - np.sqrt(s**2 + b**2) + b

    def eta_prime(self, s):
        return np.arcsinh(np.asarray(s, dtype=float) / self.beta)

    def eta_prime_inv(self, u):
        return self.beta * np.sinh(np.asarray(u, dtype=float))

    def mass_and_slope(self, x):
        sinh, cosh = np.add.reduce(np.sinh(x)), np.add.reduce(np.cosh(x))
        return self.beta * float(sinh), self.beta * float(cosh)

    def live_root(self, x, level):
        # sum sinh(x_j - delta) = c with c = level / beta is, in z = e^delta,
        # N z^2 + 2 c z - P = 0 with P = sum e^x and N = sum e^-x: two sums of
        # positive terms (from sinh and cosh sums N would cancel). The
        # positive root is z = P / (c + sqrt(c^2 + N P)). In prox.solve_kappa
        # every x is at most eta'(level) = asinh(c), so e^x <= 2 c + 1; the
        # bound on c keeps P, N P and c^2 finite for any feasible size.
        c = level / self.beta
        if not c <= 1e150:
            return None
        e = np.exp(x)
        pos, neg = float(np.add.reduce(e)), float(np.add.reduce(np.divide(1.0, e, out=e)))
        return math.log(pos / (c + math.sqrt(c * c + neg * pos)))


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
