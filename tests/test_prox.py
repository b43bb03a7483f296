import decimal
import warnings
from decimal import Decimal

import hypothesis.extra.numpy as hnp
import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import assume, example, given, settings

from bpgm import (
    MirrorState,
    PowerDgf,
    SolverConfig,
    bregman_step,
    build_problem,
    kkt_residual,
    nonneg_tv,
    parse_dgf,
    parse_regularizer,
    run,
    simplex,
    solve_kappa,
    torus_grid,
    tv,
    tv_ball,
)
from bpgm import solver

DGF_TOKENS = ("p:2", "ent", "hyp")
REGS = {
    "nonneg_tv": nonneg_tv(0.05),
    "simplex": simplex(),
    "tv": tv(0.05),
    "tv_ball": tv_ball(1.0),
}


def _soft_threshold(a, kappa):
    """Shrink toward zero: sign(a) * max(|a| - kappa, 0), kappa >= 0."""
    return np.sign(a) * np.maximum(np.abs(a) - kappa, 0.0)


def test_soft_threshold_hand_values():
    assert _soft_threshold(np.array([0.5]), 0.2)[0] == pytest.approx(0.3)
    assert _soft_threshold(np.array([-0.5]), 0.2)[0] == pytest.approx(-0.3)
    assert _soft_threshold(np.array([-0.1]), 0.2)[0] == 0.0
    assert _soft_threshold(np.array([0.0]), 0.0)[0] == 0.0
    # The p:2 tv row shrinks v = u - s grad by kappa = s lam = 0.5 * 0.4.
    grid = torus_grid(1, 4)
    u = np.array([0.5, -0.5, -0.1, 0.0])
    state = MirrorState(grid, u, u.copy())
    nxt = bregman_step(parse_dgf("p:2"), tv(0.4), state, np.zeros(4), 0.5)
    assert nxt.u == pytest.approx([0.3, -0.3, 0.0, 0.0])
    assert np.array_equal(nxt.primal, nxt.u)


def test_solve_kappa_mass_hand_case():
    # p=2: primal is max(v - kappa, 0); v = (2, 0), weights 1/2 each
    # already has mass 1 at kappa = 0
    d = parse_dgf("p:2")
    kappa = solve_kappa(d, np.array([2.0, 0.0]), 1.0)
    assert kappa == pytest.approx(0.0, abs=1e-10)


def test_solve_kappa_mass_shifts():
    d = parse_dgf("p:2")
    # v = (4, 2): mass at kappa is ((4-k) + (2-k))/2 = 3 - k
    kappa = solve_kappa(d, np.array([4.0, 2.0]), 1.0)
    assert kappa == pytest.approx(2.0, abs=1e-9)


@pytest.mark.parametrize("token", DGF_TOKENS)
def test_solve_kappa_mass_property(token):
    d = parse_dgf(token)
    g = torus_grid(1, 50)
    rng = np.random.default_rng(4)
    for _ in range(20):
        v = rng.standard_normal(50) * 3.0
        kappa = solve_kappa(d, v, 1.0)
        assert _row_mass(d, g.weights, v, kappa) == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("token", DGF_TOKENS)
def test_solve_kappa_norm_bound(token):
    d = parse_dgf(token)
    g = torus_grid(1, 50)
    rng = np.random.default_rng(8)
    for _ in range(20):
        v = rng.standard_normal(50) * 5.0
        if d.domain == "nonnegative":
            v = np.abs(v)
        a = np.abs(v) if d.domain == "signed" else v
        kappa = max(0.0, solve_kappa(d, a, 0.5))
        assert _ball_l1(d, g.weights, v, kappa) <= 0.5 + 1e-8


def test_bregman_step_ball_already_feasible():
    # v = u when the gradient vanishes; an L1 norm of 0.01 lies inside
    # the unit ball, so the step leaves the mirror point untouched.
    g = torus_grid(1, 10)
    for token in DGF_TOKENS:
        d = parse_dgf(token)
        state = MirrorState.from_primal(d, g, np.full(10, 0.01))
        nxt = bregman_step(d, tv_ball(1.0), state, np.zeros(10), 0.1)
        assert np.array_equal(nxt.u, state.u)


def test_solve_kappa_entropy_closed_form():
    # Both rows: mass 1 (simplex) and an active norm bound K (TV ball).
    d = parse_dgf("ent")
    g = torus_grid(1, 50)
    rng = np.random.default_rng(12)
    for _ in range(20):
        v = rng.standard_normal(50) * 10.0
        for target in (1.0, 0.5, 3.0):
            kappa = solve_kappa(d, v, target)
            assert _row_mass(d, g.weights, v, kappa) == pytest.approx(target, abs=1e-12)
    # A zero density (mirror value -inf) drops out of the sum.
    v = np.array([-np.inf, 0.0, 1.0, 2.0])
    kappa = solve_kappa(d, v, 1.0)
    assert kappa == pytest.approx(np.log((1.0 + np.e + np.e**2) / 4.0), abs=1e-15)


def test_solve_kappa_input_validation():
    d = parse_dgf("p:2")
    for token, bad in (("p:2", np.inf), ("p:2", -np.inf), ("hyp", np.nan),
                       ("ent", np.inf), ("ent", np.nan)):
        with np.errstate(invalid="ignore"), pytest.raises(ValueError):
            solve_kappa(parse_dgf(token), np.array([bad, 0, 0, 0]), 1.0)
    for target in (-1.0, 0.0, np.nan, np.inf):
        for token in ("p:2", "hyp", "ent"):
            with pytest.raises(ValueError, match="finite and positive, got"):
                solve_kappa(parse_dgf(token), np.zeros(4), target)
    with pytest.raises(ValueError, match="at least one entry"):
        solve_kappa(d, np.zeros(0), 1.0)


def _random_state(dgf, grid, rng):
    f = rng.standard_normal(grid.size)
    if dgf.domain == "nonnegative":
        f = np.abs(f) + 1e-3
    return MirrorState.from_primal(dgf, grid, f)


def _prox_objective(dgf, reg, grid, state, grad, s_eff, f):
    w = grid.weights
    lin = float(np.sum(w * grad * f))
    h = reg.value(w, f)
    div = dgf.divergence_values(w, f, state.primal)
    return lin + h + div / s_eff


@pytest.mark.parametrize("token", DGF_TOKENS)
@pytest.mark.parametrize("reg_kind", sorted(REGS))
def test_prox_point_beats_feasible_perturbations(token, reg_kind):
    """The returned point must minimize the prox objective; random
    feasible competitors in its neighborhood cannot do better."""
    dgf = parse_dgf(token)
    reg = REGS[reg_kind]
    grid = torus_grid(1, 30)
    w = grid.weights
    rng = np.random.default_rng(17)
    state = _random_state(dgf, grid, rng)
    grad = rng.standard_normal(30)
    s_eff = 0.3
    nxt = bregman_step(dgf, reg, state, grad, s_eff)
    assert reg.violation(w, nxt.primal) <= 1e-8
    base = _prox_objective(dgf, reg, grid, state, grad, s_eff, nxt.primal)
    for scale in (1e-2, 1e-4):
        for _ in range(50):
            cand = nxt.primal + scale * rng.standard_normal(30)
            if dgf.domain == "nonnegative":
                cand = np.abs(cand)
            if reg_kind == "simplex":
                if dgf.domain == "signed":
                    cand = np.maximum(cand, 0.0)
                cand = cand / float(np.sum(w * cand))
            elif reg_kind == "tv_ball":
                l1 = float(np.sum(w * np.abs(cand)))
                if l1 > reg.radius:
                    cand = cand * (reg.radius / l1)
            elif reg_kind == "nonneg_tv":
                cand = np.maximum(cand, 0.0)
            trial = _prox_objective(dgf, reg, grid, state, grad, s_eff, cand)
            assert trial >= base - 1e-10


@pytest.mark.parametrize("token", DGF_TOKENS)
@pytest.mark.parametrize("reg_kind", sorted(REGS))
def test_prox_feasibility_invariants(token, reg_kind):
    dgf = parse_dgf(token)
    reg = REGS[reg_kind]
    grid = torus_grid(1, 40)
    w = grid.weights
    rng = np.random.default_rng(23)
    state = MirrorState.from_primal(dgf, grid, np.ones(40))
    for _ in range(30):
        grad = rng.standard_normal(40) * 2.0
        state = bregman_step(dgf, reg, state, grad, 0.2)
        f = state.primal
        assert np.all(np.isfinite(f))
        if reg_kind == "simplex":
            assert float(np.sum(w * f)) == pytest.approx(1.0, abs=1e-9)
            assert np.all(f >= -1e-12)
        if reg_kind == "tv_ball":
            assert float(np.sum(w * np.abs(f))) <= reg.radius + 1e-8
        if reg_kind == "nonneg_tv" or dgf.domain == "nonnegative":
            assert np.all(f >= -1e-12)


def test_bregman_step_validation():
    dgf = parse_dgf("p:2")
    grid = torus_grid(1, 8)
    state = MirrorState.from_primal(dgf, grid, np.ones(8))
    with pytest.raises(ValueError):
        bregman_step(dgf, tv(0.1), state, np.zeros(8), 0.0)
    with pytest.raises(ValueError):
        bregman_step(dgf, tv(0.1), state, np.full(8, np.nan), 0.1)
    # nan <= 0 is False: a nan step must fail the positivity check too.
    with pytest.raises(ValueError, match="effective step must be positive, got nan"):
        bregman_step(dgf, tv(0.1), state, np.zeros(8), np.nan)


_EDGE_FLOATS = (0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 1.7976931348623157e308,
                -1.7976931348623157e308)


@settings(max_examples=300, deadline=None)
@given(
    v=hnp.arrays(float, st.integers(1, 40), elements=st.one_of(
        st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=True),
        st.sampled_from(_EDGE_FLOATS),
    )),
    kappa=st.one_of(st.sampled_from((0.0, 5e-324, 1.0, 1.7976931348623157e308)),
                    st.floats(0.0, 1e300, allow_subnormal=True)),
)
def test_soft_threshold_of_the_tv_row_equals_the_sign_form(v, kappa):
    """The tv row thresholds as v - clip(v, -kappa, kappa): in value the
    sign(v) max(|v| - kappa, 0) of _soft_threshold, with no floating-point
    warning. For kappa > 0 the dead zone |v| <= kappa comes out +0.0; at
    kappa = 0 the threshold is the identity, bit for bit. u = v, grad = 0
    and s = 1 make the row's mirror point v and its threshold kappa = lam."""
    state = MirrorState(torus_grid(1, len(v)), v, v.copy())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        u = bregman_step(parse_dgf("p:2"), tv(kappa), state, np.zeros(len(v)), 1.0).u
    assert np.array_equal(u, _soft_threshold(v, kappa))
    if kappa > 0:
        assert np.all(u[np.abs(v) <= kappa].view(np.int64) == 0)
    else:
        assert _same_bits(u, v)


@pytest.mark.parametrize("token", DGF_TOKENS)
@pytest.mark.parametrize("reg_kind", sorted(REGS))
def test_kkt_residual_small_on_true_steps(token, reg_kind):
    dgf = parse_dgf(token)
    reg = REGS[reg_kind]
    grid = torus_grid(1, 40)
    rng = np.random.default_rng(31)
    state = MirrorState.from_primal(dgf, grid, np.ones(40))
    s = 0.15
    for _ in range(10):
        grad = rng.standard_normal(40)
        nxt = bregman_step(dgf, reg, state, grad, s)
        report = kkt_residual(dgf, reg, state, nxt, grad, s)
        assert report.worst() <= 1e-8
        state = nxt


def test_kkt_residual_detects_corrupted_step():
    """Perturbing the prox output must push the residual above the
    acceptance threshold; otherwise the check has no teeth."""
    dgf = parse_dgf("p:2")
    reg = tv(0.05)
    grid = torus_grid(1, 40)
    rng = np.random.default_rng(37)
    state = MirrorState.from_primal(dgf, grid, np.ones(40))
    grad = rng.standard_normal(40)
    nxt = bregman_step(dgf, reg, state, grad, 0.15)
    bad_u = nxt.u + 1e-3 * rng.standard_normal(40)
    bad = MirrorState(grid, bad_u, dgf.eta_prime_inv(bad_u))
    assert kkt_residual(dgf, reg, state, bad, grad, 0.15).worst() > 1e-5


def test_kkt_report_worst():
    from bpgm.prox import KktReport

    assert KktReport(1e-3, 1e-6).worst() == 1e-3
    assert KktReport(0.0, 2e-4).worst() == 2e-4


def _row_mass(dgf, weights, a, kappa):
    """sum_j w_j eta'^{-1}(a_j - kappa), clamped at eta'(0) = 0 for signed dgfs."""
    shifted = a - kappa
    if dgf.domain == "signed":
        shifted = np.maximum(shifted, 0.0)
    return float(np.sum(weights * dgf.eta_prime_inv(shifted)))


def _ball_l1(dgf, weights, v, kappa):
    """L1 norm of the TV-ball row's primal at dual shift kappa."""
    thr = _soft_threshold(v, kappa) if dgf.domain == "signed" else v - kappa
    return float(np.sum(weights * np.abs(dgf.eta_prime_inv(thr))))


_KAPPA_TOL = 1e-12


def _meets_target(fun, kappa, target, floor=-np.inf):
    """fun (decreasing) crosses target within _KAPPA_TOL of kappa."""
    eps = 2.0 * _KAPPA_TOL * max(1.0, abs(kappa))
    slack = _KAPPA_TOL * max(1.0, target)
    return (
        fun(max(kappa - eps, floor)) >= target - slack
        and fun(kappa + eps) <= target + slack
    )


_SIGNED_DGFS = [parse_dgf(t) for t in ("p:2", "p:1.5", "hyp:0.001", "hyp:0.5")]
_mirror_points = hnp.arrays(
    float,
    st.integers(1, 40),
    elements=st.floats(-30.0, 30.0, allow_nan=False, allow_infinity=False),
)


@settings(max_examples=60, deadline=None)
@given(v=_mirror_points, dgf=st.sampled_from(_SIGNED_DGFS))
def test_solve_kappa_mass_meets_target(v, dgf):
    w = torus_grid(1, len(v)).weights
    kappa = solve_kappa(dgf, v, 1.0)
    assert _meets_target(lambda k: _row_mass(dgf, w, v, k), kappa, 1.0)


@settings(max_examples=60, deadline=None)
@given(
    v=_mirror_points,
    dgf=st.sampled_from(_SIGNED_DGFS + [parse_dgf("ent")]),
    K=st.floats(0.1, 10.0),
)
# The L1 norm at kappa = 0 rounds 1.4e-17 above K = mass(0).
@example(v=np.full(5, 0.109375), dgf=_SIGNED_DGFS[0], K=0.109375)
def test_solve_kappa_norm_meets_target(v, dgf, K):
    w = torus_grid(1, len(v)).weights
    l1 = lambda k: _ball_l1(dgf, w, v, k)  # noqa: E731
    a = np.abs(v) if dgf.domain == "signed" else v
    kappa = max(0.0, solve_kappa(dgf, a, K))
    if kappa == 0.0:
        assert l1(0.0) <= K + _KAPPA_TOL * max(1.0, K)
    else:
        assert _meets_target(l1, kappa, K, floor=0.0)


@settings(max_examples=300, deadline=None)
@given(
    v=_mirror_points,
    dgf=st.sampled_from(_SIGNED_DGFS),
    ball=st.booleans(),
    K=st.floats(0.1, 50.0),
)
def test_solve_kappa_residual(v, dgf, ball, K):
    """The dual equation holds to rounding: M(kappa) = target for both
    shapes, a = v with target 1 and a = |v| with target K."""
    a, target = (np.abs(v), K) if ball else (v, 1.0)
    w = torus_grid(1, len(v)).weights
    kappa = solve_kappa(dgf, a, target)
    assert abs(_row_mass(dgf, w, a, kappa) - target) <= 1e-12 * max(1.0, target)


def _counting(dgf):
    """A copy of `dgf` that counts its dual passes (dual_step calls) and
    mirror maps (eta_prime_inv calls) in `calls`."""
    base = type(dgf)

    class Counting(base):
        def eta_prime_inv(self, u):
            self.calls += 1
            return base.eta_prime_inv(self, u)

        def dual_step(self, x, level):
            self.calls += 1
            return base.dual_step(self, x, level)

    copy = Counting.__new__(Counting)
    copy.__dict__.update(dgf.__dict__)
    copy.calls = 0
    return copy


# The dual_step calls of the worst cold solve over the 200 inputs below.
_COLD_CALLS = {"p:2": 6, "p:1.5": 9, "hyp:0.001": 3, "hyp:0.5": 4}


@pytest.mark.parametrize("dgf", _SIGNED_DGFS, ids=lambda d: d.name)
def test_solve_kappa_step_count(dgf):
    """A cold solve from the two lower bounds needs few dual passes on
    wide and long inputs, one dual_step each: a closed form drops the
    entries below its root on every pass that does not end the solve,
    and p:1.5's Newton steps converge quadratically. Started at
    min a - eta'(target) alone, Newton on the hyperbolic rows would need
    up to 62 passes on the same inputs."""
    counted = _counting(dgf)
    rng = np.random.default_rng(41)
    worst = 0
    for i in range(200):
        m = int(rng.integers(1, 2001))
        scale = 30.0 * rng.uniform()
        if i % 4 == 0:
            v = rng.uniform(-scale, scale, m)
        elif i % 4 == 1:
            v = np.clip(scale * rng.standard_normal(m) / 3.0, -30.0, 30.0)
        elif i % 4 == 2:
            # A few spikes on a flat floor.
            v = np.full(m, -scale)
            v[rng.integers(0, m, 3)] = rng.uniform(-scale, 30.0, 3)
        else:
            v = np.round(rng.uniform(-scale, scale, m), 1)  # ties
        ball = (i // 4) % 2 == 1
        a, target = (np.abs(v), rng.uniform(0.1, 50.0)) if ball else (v, 1.0)
        counted.calls = 0
        solve_kappa(counted, a, target)
        worst = max(worst, counted.calls)
    assert worst <= _COLD_CALLS[dgf.name]


def _exact_kappa(dgf, weight, a, target):
    """The root of weight * sum_j eta'^{-1}((a_j - kappa)_+) = target in
    40-digit decimal arithmetic, rounded to a float: monotone Newton from
    the larger of min a - eta'(target) and max a - eta'(target / weight),
    both left of the root, until a step moves kappa by less than 1e-30."""
    with decimal.localcontext() as ctx:
        ctx.prec = 40
        one, w, t = Decimal(1), Decimal(weight), Decimal(target)
        values = [Decimal(x) for x in a]
        if dgf.p == 1.0:  # hyp: eta'^{-1}(u) = beta sinh u, eta'(s) = asinh(s / beta)
            beta = Decimal(dgf.beta)

            def eta_prime(s):
                return (s / beta + ((s / beta) ** 2 + one).sqrt()).ln()

            def sums(x):
                up = x.exp()
                return beta * (up - one / up) / 2, beta * (up + one / up) / 2
        else:  # eta'^{-1}(u) = (r u)^(1 / r), eta'(s) = s^r / r, r = p - 1
            r = Decimal(dgf.p) - one

            def eta_prime(s):
                return s**r / r

            def sums(x):
                h = (r * x) ** (one / r)
                return h, h / (r * x)

        kappa = max(min(values) - eta_prime(t), max(values) - eta_prime(t / w))
        while True:
            mass = slope = Decimal(0)
            for x in values:
                if x > kappa:
                    h, dh = sums(x - kappa)
                    mass, slope = mass + h, slope + dh
            step = (w * mass - t) / (w * slope)
            kappa += step
            if step <= Decimal("1e-30") * max(one, abs(kappa)):
                return float(kappa)


@st.composite
def _hinted_rows(draw):
    """A signed dgf, a row (a, target) of either shape, and a start hint
    left of its root, right of it, at it, far outside it or not finite."""
    v = draw(_mirror_points)
    dgf = draw(st.sampled_from(_SIGNED_DGFS))
    ball = draw(st.booleans())
    a, target = (np.abs(v), draw(st.floats(0.1, 50.0))) if ball else (v, 1.0)
    w = 1 / len(v)  # the cell weight; _row_mass applies it term by term
    root = _exact_kappa(dgf, w, a, target)
    where = draw(st.sampled_from(("left", "right", "root", "far_left", "far_right", "odd")))
    offset = draw(st.floats(1e-12, 10.0))
    hint = {
        "left": root - offset,
        "right": root + offset,
        "root": root,
        "far_left": root - 1e6 * offset,
        "far_right": root + 1e6 * offset,
        "odd": draw(st.sampled_from((None, np.nan, np.inf, -np.inf))),
    }[where]
    return dgf, w, a, target, hint, root


@settings(max_examples=400, deadline=None)
@given(row=_hinted_rows())
def test_solve_kappa_any_hint_meets_residual_and_cold_loop(row):
    """Whatever the start hint, and with none, the residual bound holds
    and kappa matches the 40-digit root to 1e-12."""
    dgf, w, a, target, hint, root = row
    for kappa in (solve_kappa(dgf, a, target, hint), solve_kappa(dgf, a, target)):
        assert abs(_row_mass(dgf, w, a, kappa) - target) <= 1e-12 * max(1.0, target)
        assert abs(kappa - root) <= 1e-12 * max(1.0, abs(root))


@settings(max_examples=300, deadline=None)
@given(row=_hinted_rows())
def test_solve_kappa_floor_is_max_of_floor_and_root(row):
    """With floor 0, as for the TV ball, kappa is max(0, root) to 1e-12,
    from any hint and with none."""
    dgf, w, a, target, hint, root = row
    for kappa in (solve_kappa(dgf, a, target, hint, floor=0.0),
                  solve_kappa(dgf, a, target, floor=0.0)):
        assert abs(kappa - max(0.0, root)) <= 1e-12 * max(1.0, abs(root))


def test_solve_kappa_floor_ends_an_inactive_solve_in_one_pass():
    # M(0) = 0.5 <= K = 1: the root is negative, so a hint right of it
    # and at or below the floor ends the solve after its one pass. From a
    # hint above the floor every entry is live, so that pass's closed-form
    # root is exact, and it lies below the floor.
    counted = _counting(parse_dgf("hyp"))
    a = np.full(4, float(counted.eta_prime(0.5)))
    for hint in (-0.01, 0.0, 0.3):
        counted.calls = 0
        assert solve_kappa(counted, a, 1.0, hint, floor=0.0) == 0.0
        assert counted.calls == 1


@settings(max_examples=200, deadline=None)
@given(
    v=hnp.arrays(float, st.integers(1, 40), elements=st.floats(-800.0, 800.0)),
    dgf=st.sampled_from(_SIGNED_DGFS + [parse_dgf("p:1.2")]),
    ball=st.booleans(),
    K=st.floats(0.1, 50.0),
    hint=st.one_of(st.none(), st.floats(-800.0, 800.0)),
)
def test_solve_kappa_takes_wide_rows_without_warning(v, dgf, ball, K, hint):
    """Mirror points up to |800|, where e^a alone overflows: every live
    shift is at most eta'(target / w), since kappa never drops below the
    cold start, so neither a closed form nor a Newton pass overflows."""
    a, target = (np.abs(v), K) if ball else (v, 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        kappa = solve_kappa(dgf, a, target, hint)
    w = 1 / len(v)
    assert abs(_row_mass(dgf, w, a, kappa) - target) <= 1e-12 * max(1.0, target)


@st.composite
def _dual_points(draw):
    """A signed dgf, a row (a, target) of either shape, its root, and a
    kappa left or right of the root with at least one entry above it."""
    v = draw(_mirror_points)
    dgf = draw(st.sampled_from([parse_dgf(t) for t in ("p:2", "p:1.5", "p:1.2", "hyp", "hyp:0.5")]))
    ball = draw(st.booleans())
    a, target = (np.abs(v), draw(st.floats(0.1, 50.0))) if ball else (v, 1.0)
    w = 1 / len(v)
    root = _exact_kappa(dgf, w, a, target)
    top = float(np.max(a))
    if draw(st.booleans()):
        kappa = root - draw(st.floats(0.0, 10.0))
    else:
        kappa = root + draw(st.floats(0.0, 1.0, exclude_max=True)) * (top - root)
    assume(kappa < top)
    return dgf, w, a, target, root, kappa


@settings(max_examples=400, deadline=None)
@given(row=_dual_points())
def test_dual_step_never_lands_right_of_the_root(row):
    """From any kappa, left or right of the root, kappa + delta lies at
    or left of it (to rounding): each closed form solves the sum with
    eta'^{-1} extended oddly, which is at most the clamped sum, and the
    Newton step is the zero of a tangent of the convex clamped sum. So
    solve_kappa may take every step and restart from a hint's step."""
    dgf, w, a, target, root, kappa = row
    live = a[a > kappa]
    delta, _ = dgf.dual_step(live - kappa, target / w)
    assert kappa + delta <= root + 1e-12 * max(1.0, abs(root))


@pytest.mark.parametrize("token", ("p:2", "p:1.5", "hyp"))
def test_solve_kappa_cold_start_is_computed_once_per_dgf_target_and_size(token):
    """The two eta' values of the cold start depend on (dgf, target, m)
    alone: repeated solves make at most two eta_prime calls for each."""
    base = type(parse_dgf(token))

    class Counting(base):
        def eta_prime(self, s):
            self.calls += 1
            return base.eta_prime(self, s)

    dgf = Counting.__new__(Counting)
    dgf.__dict__.update(parse_dgf(token).__dict__)
    dgf.calls = 0
    rng = np.random.default_rng(17)
    for seen, (target, m) in enumerate(((1.0, 300), (0.5, 300), (1.0, 40)), start=1):
        for hint in (None, -1e3, None, 0.0):
            solve_kappa(dgf, rng.standard_normal(m), target, hint)
        assert dgf.calls <= 2 * seen


_finite_arrays = hnp.arrays(
    float,
    st.integers(0, 50),
    elements=st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=True),
)


def _same_bits(x, y):
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    return x.shape == y.shape and np.array_equal(x.view(np.int64), y.view(np.int64))


@settings(max_examples=200, deadline=None)
@given(u=_finite_arrays)
@example(u=np.array([0.0, -0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.0]))
def test_power_two_closed_forms_match_general_formula(u):
    d = PowerDgf(2)
    p = 2.0
    general_inv = np.sign(u) * ((p - 1.0) * np.abs(u)) ** (1.0 / (p - 1.0))
    out = d.eta_prime_inv(u)
    assert _same_bits(out, general_inv)
    assert out is not u and not np.shares_memory(out, u)
    # The dual step over positive shifts x is the Newton step of the
    # general mirror map, whose slope ((p-1) x)^((2-p)/(p-1)) is 1.
    x = np.abs(u[u != 0])
    if x.size:
        with np.errstate(over="ignore"):
            mass = np.sum(((p - 1.0) * x) ** (1.0 / (p - 1.0)))
            slope = np.sum(((p - 1.0) * x) ** ((2.0 - p) / (p - 1.0)))
            delta, exact = d.dual_step(x, 1.0)
        assert exact and _same_bits(delta, (mass - 1.0) / slope)


@settings(max_examples=200, deadline=None)
@given(u=_finite_arrays, p=st.sampled_from((1.2, 1.5, 1.8)))
@example(u=np.array([0.0, -0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.0]), p=1.2)
def test_power_mirror_inverse_matches_the_sign_formula(u, p):
    # copysign in place of sign(u) * ...: the same bits at every nonzero u,
    # and the same value (up to the sign of a zero) elsewhere.
    with np.errstate(over="ignore"):
        want = np.sign(u) * ((p - 1.0) * np.abs(u)) ** (1.0 / (p - 1.0))
        out = PowerDgf(p).eta_prime_inv(u)
    assert _same_bits(out[u != 0], want[u != 0])
    assert np.array_equal(out, want)


# Mirror-map calls per step over 2000 PGM iterations, and their bounds.
# The counts are deterministic. Each step is one dual pass, whose
# closed-form root is almost always exact on the live set at the previous
# shift, and the final mirror map: 2.009, 2.0085, 2.0065, 2.0045, 2.0005
# and 2.0065 calls on the first six rows, where Newton from the previous
# shift made 2.973, 3.212, 2.909, 3.187, 4.790 and 4.230. The radius-50
# ball is never active: every shift is 0, so the hint lies at the floor
# and each step is one dual pass and the final mirror map, 2 calls. p:1.2
# has no closed form, so its solves are Newton steps from the previous
# shift, about 3.6 a step.
@pytest.mark.parametrize("token, grid_size, reg, dgf_token, bound", (
    pytest.param("lb:I", 2000, None, "p:2", 2.009, id="lb:I-p:2"),
    pytest.param("lb:I*", 2000, None, "p:2", 2.0085, id="lb:I*-p:2"),
    pytest.param("lb:II", 2000, None, "p:2", 2.0065, id="lb:II-p:2"),
    pytest.param("lb:II*", 2000, None, "p:2", 2.0045, id="lb:II*-p:2"),
    pytest.param("deconv1d", 300, "tv_ball:1", "hyp", 2.0005, id="deconv1d-tv_ball:1-hyp"),
    pytest.param("deconv1d", 300, "tv_ball:1", "p:1.5", 2.0065, id="deconv1d-tv_ball:1-p:1.5"),
    pytest.param("deconv1d", 300, "tv_ball:50", "p:2", 2.0, id="deconv1d-tv_ball:50-p:2"),
    pytest.param("deconv1d", 300, "tv_ball:50", "hyp", 2.0, id="deconv1d-tv_ball:50-hyp"),
    pytest.param("deconv1d", 300, "tv_ball:50", "p:1.5", 2.0, id="deconv1d-tv_ball:50-p:1.5"),
    pytest.param("lb:I*", 2000, None, "p:1.2", 4.6035, id="lb:I*-p:1.2"),
    pytest.param("lb:II", 2000, None, "p:1.2", 4.5905, id="lb:II-p:1.2"),
    pytest.param("deconv1d", 300, "tv_ball:1", "p:1.2", 4.5835, id="deconv1d-tv_ball:1-p:1.2"),
))
def test_dual_solve_pass_count(token, grid_size, reg, dgf_token, bound):
    problem = build_problem(
        token, grid_size=grid_size, reg=parse_regularizer(reg) if reg else None
    )
    counted = _counting(parse_dgf(dgf_token))
    run(problem, counted, SolverConfig(iters=2000))
    assert counted.calls / 2000 <= bound


@pytest.mark.parametrize("token, reg, dgf_token, method, step", (
    ("lb:I", None, "p:2", "pgm", None),
    ("lb:II*", None, "p:2", "pgm", None),
    ("lb:I", None, "p:2", "apgm", 1e-3),
    ("deconv1d", "tv_ball:1", "p:1.5", "pgm", None),
    ("deconv1d", "tv_ball:1", "hyp", "pgm", None),
    ("deconv1d", "tv_ball:0.5", "hyp", "apgm", None),
))
def test_warm_started_run_matches_cold_solves(monkeypatch, token, reg, dgf_token, method, step):
    """Starting each dual solve from the previous shift moves F only at
    rounding level: a reference run whose every step gets its state
    rebuilt without kappa, so every solve starts cold, agrees to 1e-10."""
    problem = build_problem(token, reg=parse_regularizer(reg) if reg else None)
    dgf = parse_dgf(dgf_token)
    config = SolverConfig(iters=2000, method=method, step=step)
    warm = run(problem, dgf, config)

    def cold_step(dgf, reg, state, grad, s_eff):
        return bregman_step(dgf, reg, MirrorState(state.grid, state.u, state.primal), grad, s_eff)

    monkeypatch.setattr(solver, "bregman_step", cold_step)
    cold = run(problem, dgf, config)
    assert np.array_equal(warm.k, cold.k)
    assert np.all(np.abs(warm.F - cold.F) <= 1e-10 * np.abs(cold.F))


_KKT_DGFS = [parse_dgf(t) for t in ("p:2", "p:1.5", "ent", "hyp")]
_KKT_REGS = [
    parse_regularizer(t)
    for t in ("nonneg_tv:0", "nonneg_tv:0.05", "simplex", "tv:0.05", "tv_ball:0.3", "tv_ball:1",
              "tv_ball:50")
]


@st.composite
def _prox_inputs(draw):
    m = draw(st.integers(2, 60))
    wide = hnp.arrays(
        float, m, elements=st.floats(-30.0, 30.0, allow_nan=False, allow_infinity=False)
    )
    return draw(wide), draw(wide), draw(st.floats(1e-3, 10.0))


@settings(max_examples=700, deadline=None)
@given(
    dgf=st.sampled_from(_KKT_DGFS),
    reg=st.sampled_from(_KKT_REGS),
    inputs=_prox_inputs(),
)
# A large multiplier, rho = kappa / s = 3123: comp_slack = rho |K - ||h||_1|
# stays below 1e-8 only when ||h||_1 meets K to 3e-12.
@example(dgf=_KKT_DGFS[0], reg=_KKT_REGS[4],
         inputs=(np.array([25.0, 1.0]), np.zeros(2), 0.0078125))
def test_prox_step_meets_kkt_for_every_row(dgf, reg, inputs):
    """Complementary slackness of the clamp rows is relative to the
    primal scale, so entropy and hyperbolic densities near e^300 do not
    inflate it; the ball rows rely on an exact dual solve."""
    u, grad, s = inputs
    grid = torus_grid(1, len(u))
    state = MirrorState(grid, u, dgf.eta_prime_inv(u))
    nxt = bregman_step(dgf, reg, state, grad, s)
    assert kkt_residual(dgf, reg, state, nxt, grad, s).worst() <= 1e-8


_STEP_REGS = list(REGS.values())


@st.composite
def _step_inputs(draw, grad_elements):
    """A mirror point u in [-5, 5]^m (finite, so every dgf has its density
    there) and a gradient of the same length."""
    m = draw(st.integers(1, 30))
    u = draw(hnp.arrays(float, m, elements=st.floats(-5.0, 5.0)))
    return u, draw(hnp.arrays(float, m, elements=grad_elements))


@settings(max_examples=200, deadline=None)
@given(
    dgf=st.sampled_from(_KKT_DGFS),
    reg=st.sampled_from(_STEP_REGS),
    inputs=_step_inputs(st.floats(-1e3, 1e3)),
    bad=st.sampled_from((np.nan, np.inf, -np.inf)),
    data=st.data(),
)
def test_bregman_step_rejects_a_nonfinite_gradient_entry(dgf, reg, inputs, bad, data):
    u, grad = inputs
    grad[data.draw(st.integers(0, len(grad) - 1))] = bad
    state = MirrorState(torus_grid(1, len(u)), u, dgf.eta_prime_inv(u))
    with pytest.raises(ValueError, match="non-finite"):
        bregman_step(dgf, reg, state, grad, 0.1)


def _reference_step(dgf, reg, state, grad, s):
    """(u, primal) of the prox step from the closed forms: the mirror
    update v = u - s grad, one scalar kappa (s lam for the TV weight, the
    dual shift for the constraints, started from max(state.kappa, floor),
    the previous step's shift), then a shift, a clamp or a soft threshold
    by kappa."""
    v = state.u - s * grad
    signed = dgf.domain == "signed"
    if reg.kind in ("nonneg_tv", "tv"):
        kappa = s * reg.lam
    else:
        ball = reg.kind == "tv_ball"
        a = np.abs(v) if ball and signed else v
        target, floor = (reg.radius, 0.0) if ball else (1.0, -np.inf)
        start = max(state.kappa, floor) if signed else None
        kappa = solve_kappa(dgf, a, target, start, floor=floor)
    if not signed:
        u = v - kappa
    elif reg.kind in ("tv", "tv_ball"):
        u = _soft_threshold(v, kappa)
    else:
        u = np.maximum(v - kappa, 0.0)
    return u, dgf.eta_prime_inv(u)


@settings(max_examples=300, deadline=None)
@given(
    dgf=st.sampled_from(_KKT_DGFS),
    reg=st.sampled_from(_STEP_REGS),
    inputs=_step_inputs(st.floats(-1e300, 1e300)),
)
def test_bregman_step_takes_huge_finite_gradients_without_warning(dgf, reg, inputs):
    # The finite check must not square the gradient: entries above 1e154
    # would overflow a dot product. s = 1e-299 keeps |s grad| <= 10, so
    # the rest of the step is finite arithmetic.
    u, grad = inputs
    s = 1e-299
    state = MirrorState(torus_grid(1, len(u)), u, dgf.eta_prime_inv(u))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        nxt = bregman_step(dgf, reg, state, grad, s)
    u_ref, primal_ref = _reference_step(dgf, reg, state, grad, s)
    assert np.array_equal(nxt.u, u_ref)
    assert np.array_equal(nxt.primal, primal_ref)
