import math
import warnings

import hypothesis.extra.numpy as hnp
import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import example, given, settings

from bpgm import (
    EntropyDgf,
    HyperbolicDgf,
    PowerDgf,
    parse_dgf,
    sc_constant,
    torus_grid,
)


def test_power_p2_is_half_square():
    d = PowerDgf(2.0)
    s = np.array([-2.0, 0.0, 3.0])
    assert np.allclose(d.eta(s), s**2 / 2.0)
    assert np.allclose(d.eta_prime(s), s)
    # Michelot's step: (1 - delta) + (5 - delta) = 4.
    assert d.dual_step(np.array([1.0, 5.0]), 4.0) == (1.0, True)


def test_power_p15_hand_values():
    d = PowerDgf(1.5)
    # |s|^p / (p (p-1)) with p = 3/2
    assert d.eta(np.array([4.0]))[0] == pytest.approx(8.0 / 0.75)
    assert d.eta_prime(np.array([4.0]))[0] == pytest.approx(4.0)
    assert d.eta_prime(np.array([-4.0]))[0] == pytest.approx(-4.0)


@pytest.mark.parametrize("p", [1.0, 0.5, 2.5, -1.0])
def test_power_rejects_bad_exponent(p):
    with pytest.raises(ValueError):
        PowerDgf(p)


@pytest.mark.parametrize("token", ["p:2", "p:1.5", "hyp", "hyp:0.5"])
def test_prime_inverse_roundtrip_signed(token):
    d = parse_dgf(token)
    rng = np.random.default_rng(3)
    s = rng.uniform(-5.0, 5.0, 200)
    assert np.allclose(d.eta_prime_inv(d.eta_prime(s)), s, atol=1e-10)


def test_entropy_prime_inverse_roundtrip():
    d = EntropyDgf()
    s = np.geomspace(1e-8, 50.0, 100)
    assert np.allclose(d.eta_prime_inv(d.eta_prime(s)), s, rtol=1e-12)


def test_entropy_values():
    d = EntropyDgf()
    assert d.eta(np.array([1.0]))[0] == 0.0
    assert d.eta(np.array([0.0]))[0] == pytest.approx(1.0)  # s log s - s + 1 at 0
    with pytest.raises(ValueError):
        d.eta(np.array([-0.1]))


def test_hyperbolic_values():
    d = HyperbolicDgf(1.0)
    assert d.eta(np.array([0.0]))[0] == 0.0
    assert d.eta_prime(np.array([0.0]))[0] == 0.0
    # eta' = asinh(s / beta), inverse beta sinh(u)
    assert d.eta_prime_inv(np.array([1.0]))[0] == pytest.approx(1.1752011936438014)


def test_hyperbolic_rejects_a_beta_whose_reciprocal_overflows():
    """eta'(s) = asinh(s / beta) overflows at s = 1 when 1 / beta does, so
    such a beta is rejected like a non-finite one, without a warning. The
    next float above 1 / max float is accepted."""
    tiny = 1.0 / np.finfo(float).max
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for beta in (1e-320, 5e-324, tiny):
            with pytest.raises(ValueError, match="finite 1/beta"):
                HyperbolicDgf(beta)
            with pytest.raises(ValueError, match="bad dgf token"):
                parse_dgf(f"hyp:{beta!r}")
        smallest = HyperbolicDgf(float(np.nextafter(tiny, 1.0)))
        assert math.isfinite(smallest.eta_prime(np.array([1.0]))[0])


def test_dual_step_sign_is_the_sign_of_the_excess():
    """solve_kappa reads a negative step as a kappa right of the root:
    delta > 0 when sum eta'^{-1}(x) is above the level, < 0 below it."""
    x = np.random.default_rng(0).uniform(1e-6, 3.0, 50)
    for d in (PowerDgf(2.0), PowerDgf(1.5), PowerDgf(1.2), HyperbolicDgf()):
        mass = float(np.sum(d.eta_prime_inv(x)))
        for level, sign in ((0.5 * mass, 1.0), (2.0 * mass, -1.0)):
            assert np.sign(d.dual_step(x, level)[0]) == sign, d.name


def _newton_step(d, x, level):
    """(sum eta'^{-1}(x) - level) / slope, with the slope of the sum a
    central difference of eta_prime_inv at each shift, of relative step
    1e-6 (absolute 1e-306 below 1e-300)."""
    h = 1e-6 * np.maximum(x, 1e-300)
    slope = np.sum((d.eta_prime_inv(x + h) - d.eta_prime_inv(x - h)) / (2 * h))
    return (np.sum(d.eta_prime_inv(x)) - level) / slope


@settings(max_examples=200, deadline=None)
@given(
    p=st.sampled_from([1.2, 1.8]),
    mag=st.floats(1e-2, 30.0),
    level=st.floats(0.1, 1e3),
)
def test_newton_step_matches_central_difference(p, mag, level):
    """Powers without a closed form step to the zero of the tangent,
    checked at one shift against a central difference of eta_prime_inv
    to 1e-6 relative."""
    d = PowerDgf(p)
    delta, exact = d.dual_step(np.array([mag]), level)
    assert not exact
    assert delta == pytest.approx(_newton_step(d, np.array([mag]), level), rel=1e-6)


@settings(max_examples=300, deadline=None)
@given(
    p=st.sampled_from([1.2, 1.8]),
    x=hnp.arrays(float, st.integers(1, 40), elements=st.floats(1e-6, 30.0)),
    level=st.floats(0.1, 1e3),
)
@example(p=1.2, x=np.array([1.0, 5e-324]), level=1.0)
@example(p=1.8, x=np.array([1.0, 5e-324]), level=1.0)
@example(p=1.2, x=np.array([5e-324]), level=1.0)
@example(p=1.8, x=np.array([5e-324]), level=1.0)
def test_newton_step_matches_eta_prime_inv_sums(p, x, level):
    """Oracle: the Newton step is (sum eta'^{-1}(x) - level) / slope, the
    slope a central difference of that sum, without a warning, also
    beside a subnormal shift. On subnormal shifts alone the slope is
    lost to underflow or nearly so, and the step lies far left (-inf
    where the tangent is flat), never at nan."""
    d = PowerDgf(p)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        delta, exact = d.dual_step(x, level)
    assert not exact
    if x.max() < 1e-300:
        assert delta < -level
    else:
        assert delta == pytest.approx(_newton_step(d, x, level), rel=1e-6)


@pytest.mark.parametrize("p", [1.2, 1.8])
def test_dual_step_is_a_newton_step_without_a_closed_form(p):
    # eta'^{-1}(x) = t^q and its slope t^(q-1), with t = (p-1) x, q = 1/(p-1).
    t, q = (p - 1.0) * np.array([1.0, 2.0]), 1.0 / (p - 1.0)
    want = (np.sum(t**q) - 3.0) / np.sum(t ** (q - 1.0))
    assert PowerDgf(p).dual_step(np.array([1.0, 2.0]), 3.0) == (pytest.approx(want, rel=1e-15), False)


@settings(max_examples=400, deadline=None)
@given(
    token=st.sampled_from(["p:2", "p:1.5", "hyp:0.001", "hyp:0.5"]),
    x=hnp.arrays(float, st.integers(1, 40), elements=st.floats(
        0.0, 30.0, exclude_min=True, allow_subnormal=True)),
    target=st.floats(0.1, 50.0),
    extra=st.integers(0, 2000),
)
@example(token="p:1.5", x=np.array([1.0, 30.0]), target=0.1, extra=0)
@example(token="hyp", x=np.array([5e-324]), target=1.0, extra=0)
def test_dual_step_closed_forms_meet_the_level(token, x, target, extra):
    """The closed-form step of a dual pass, at the level target / w it is
    called with (w = 1/m, the cell weight of m >= x.size grid points).
    Where every x_j > delta, sum eta'^{-1}(x_j - delta) meets the level
    to 1e-12 relative. p:1.5 takes the Newton step only where the sum
    at delta = min x is still at or above the level, so its quadratic
    has no root below every shift."""
    d = parse_dgf(token)
    level = target / (1.0 / (x.size + extra))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        delta, exact = d.dual_step(x, level)
    if not exact:
        assert token == "p:1.5"
        assert np.sum(d.eta_prime_inv(x - x.min())) >= level * (1.0 - 1e-12)
        assert delta == pytest.approx(_newton_step(d, x, level), rel=1e-6)
    elif delta < x.min():
        assert abs(np.sum(d.eta_prime_inv(x - delta)) - level) <= 1e-12 * level


def test_bregman_entropy_constant_densities():
    g = torus_grid(1, 300)
    f = np.full(300, 2.0)
    u = np.ones(g.size)
    # integral of 2 log 2 - 2 + 1
    assert EntropyDgf().divergence_values(g.weights, f, u) == pytest.approx(2.0 * math.log(2.0) - 1.0)


def test_bregman_power2_is_half_l2():
    g = torus_grid(1, 64)
    rng = np.random.default_rng(1)
    a = rng.standard_normal(64)
    b = rng.standard_normal(64)
    expect = 0.5 * np.sum(g.weights * (a - b) ** 2)
    assert PowerDgf(2.0).divergence_values(g.weights, a, b) == pytest.approx(expect, rel=1e-12)


@pytest.mark.parametrize("token", ["p:2", "p:1.5", "ent", "hyp", "hyp:0.01"])
def test_bregman_nonnegative_and_zero_at_equality(token):
    d = parse_dgf(token)
    g = torus_grid(1, 40)
    rng = np.random.default_rng(7)
    for _ in range(20):
        a, b = rng.standard_normal(40), rng.standard_normal(40)
        if d.domain == "nonnegative":
            a, b = np.abs(a), np.abs(b) + 1e-12
        assert d.divergence_values(g.weights, a, b) >= -1e-12
        assert d.divergence_values(g.weights, a, a) == pytest.approx(0.0, abs=1e-12)


def test_entropy_divergence_infinite_outside_support():
    g = torus_grid(1, 4)
    f = np.array([1.0, 1.0, 1.0, 1.0])
    h = np.array([0.0, 2.0, 1.0, 1.0])
    assert EntropyDgf().divergence_values(g.weights, f, h) == math.inf


def test_sc_constant_values():
    assert sc_constant(PowerDgf(2.0), 7.0) == pytest.approx(0.5)
    assert sc_constant(HyperbolicDgf(0.1), 1.0) == pytest.approx(1.0 / 2.2)
    assert sc_constant(EntropyDgf(), 4.0) == pytest.approx(1.0 / 8.0)
    with pytest.raises(ValueError):
        sc_constant(PowerDgf(2.0), 0.0)


def test_parse_dgf_tokens():
    assert parse_dgf("p:2").p == 2.0
    assert parse_dgf("ent").name == "ent"
    assert parse_dgf("hyp").beta == pytest.approx(1e-3)
    assert parse_dgf("hyp:0.5").beta == 0.5
    for bad in ("q:2", "p:", "p:abc", "", "hyp:x"):
        with pytest.raises(ValueError):
            parse_dgf(bad)


def test_dgf_names_keep_their_short_form():
    names = [parse_dgf(t).name for t in ("p:2", "p:1.5", "hyp", "hyp:0.001", "ent")]
    assert names == ["p:2", "p:1.5", "hyp:0.001", "hyp:0.001", "ent"]
    assert parse_dgf("p:1.23456789").name == "p:1.23456789"


@settings(max_examples=200, deadline=None)
@given(
    p=st.floats(1.0, 2.0, exclude_min=True),
    beta=st.floats(1e-12, 1e6, allow_nan=False, allow_infinity=False),
)
def test_dgf_names_parse_back_to_the_same_parameters(p, beta):
    assert parse_dgf(PowerDgf(p).name).p == p
    assert parse_dgf(HyperbolicDgf(beta).name).beta == beta
