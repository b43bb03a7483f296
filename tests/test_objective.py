import math
import tracemalloc
from dataclasses import replace

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from bpgm import (
    Problem,
    Regularizer,
    SolverConfig,
    build_problem,
    deconv_problem,
    eval_F,
    eval_G,
    grad_potential,
    lb_problem,
    nonneg_tv,
    parse_dgf,
    parse_regularizer,
    relu_problem,
    run,
    simplex,
    torus_grid,
    tv,
    tv_ball,
)
from bpgm.grid import geodesic_dist
from bpgm.solver import resolve_step
from bpgm.objective import (
    FEAS_TOL,
    PROBLEM_TABLE,
    PROBLEM_TOKENS,
    LinearForm,
    SmoothObjective,
    SquaredResidual,
    default_start,
    exact_optimum,
    smoothed_square_dist,
)


def minimizer_density(problem):
    """Value array of the known sparse minimizer mu_star on the grid, if any.

    Every atom sits on a lattice point (the origin, or a point of
    exact_optimum), which carries weight / w; an empty mu_star records
    the zero density.
    """
    if problem.mu_star is None:
        raise ValueError(f"problem {problem.name} has no recorded minimizer")
    grid = problem.grid
    values = np.zeros(grid.size)
    for point, weight in problem.mu_star:
        (j,) = np.flatnonzero(np.all(grid.points == point, axis=1))
        values[j] += weight / grid.weights
    return values


def _dirichlet_kernel(theta):
    """Order-2 real Dirichlet kernel phi at coordinate offsets theta (last axis):
    prod_i (1 + 2 cos(2 pi theta_i) + 2 cos(4 pi theta_i))."""
    per_axis = 1.0 + 2.0 * np.cos(2.0 * np.pi * theta) + 2.0 * np.cos(4.0 * np.pi * theta)
    return np.prod(per_axis, axis=-1)


def test_dirichlet_kernel_peak_and_mass():
    for dim, n in ((1, 30), (2, 8)):
        g = torus_grid(dim, n)
        assert _dirichlet_kernel(np.zeros((1, dim)))[0] == pytest.approx(5.0**dim)
        # trigonometric polynomial of degree 2: the quadrature is exact
        values = _dirichlet_kernel(g.points)
        assert np.sum(g.weights * values) == pytest.approx(1.0, abs=1e-12)


def test_deconv_objective_equals_direct_convolution():
    """The Fourier-moment objective must equal the L2 norm of the
    convolved residual computed by brute-force quadrature."""
    g = torus_grid(1, 8)
    problem = deconv_problem(g, nonneg_tv(0.0))
    rng = np.random.default_rng(5)
    f = np.abs(rng.standard_normal(8))
    delta = np.zeros(8)
    delta[0] = 1.0 / g.weights
    offsets = g.points[:, None, :] - g.points[None, :, :]
    kernel = _dirichlet_kernel(offsets)  # kernel[i, j] = phi(x_i - x_j)
    conv = kernel @ (g.weights * (f - delta))
    direct = float(np.sum(g.weights * conv**2))
    assert eval_G(problem, f) == pytest.approx(direct, rel=1e-12)


def test_deconv_objective_at_uniform():
    # integral of (1 - phi)^2 = 1 - 2 + phi(0)
    g1 = torus_grid(1, 300)
    assert eval_G(deconv_problem(g1, nonneg_tv(0.0)), np.ones(300)) == pytest.approx(4.0)
    g2 = torus_grid(2, 12)
    assert eval_G(deconv_problem(g2, nonneg_tv(0.0)), np.ones(144)) == pytest.approx(24.0)


def test_deconv_closed_form_optimum():
    g = torus_grid(1, 300)
    lam = 0.3
    problem = deconv_problem(g, nonneg_tv(lam))
    assert problem.inf_value == pytest.approx(lam - lam**2 / 20.0)
    mu = minimizer_density(problem)
    assert np.sum(g.weights * mu) == pytest.approx(1.0 - lam / 10.0)
    assert eval_F(problem, mu) == pytest.approx(problem.inf_value, abs=1e-12)


@pytest.mark.parametrize("kind", ("nonneg_tv", "tv"))
@pytest.mark.parametrize("lam", (12.0, 20.0))
def test_deconv_heavy_tv_weight_optimum_is_zero(kind, lam):
    # lam >= 2 * 5^d: |G'[0]| = 2 |phi| <= lam, so the zero density is
    # optimal with value G(0) = 5^d, and the amplitude clips at 0.
    problem = deconv_problem(torus_grid(1, 60), parse_regularizer(f"{kind}:{lam:g}"))
    ((_, amplitude),) = problem.mu_star
    assert amplitude == 0.0
    assert problem.inf_value == 5.0
    assert eval_F(problem, minimizer_density(problem)) == problem.inf_value
    trace = run(problem, parse_dgf("p:2"), SolverConfig(iters=500, method="apgm"))
    assert not trace.aborted
    assert np.min(trace.F) >= problem.inf_value - 1e-12


@pytest.mark.parametrize("dim, n", ((1, 60), (2, 12)))
@pytest.mark.parametrize(
    "reg", (simplex(), tv_ball(0.25), tv_ball(0.5), tv_ball(1.0), tv_ball(2.0)),
    ids=lambda reg: reg.token,
)
def test_deconv_constrained_rows_know_their_optimum(dim, n, reg):
    # a * delta_0 with a = min(K, 1) (simplex: K = 1) is optimal, with
    # value 5^d (1 - a)^2; a run from a feasible start stays above it.
    problem = deconv_problem(torus_grid(dim, n), reg)
    a = min(reg.radius, 1.0)
    assert problem.inf_value == 5.0**dim * (1.0 - a) ** 2
    mu = minimizer_density(problem)
    assert np.sum(problem.grid.weights * mu) == pytest.approx(a)
    assert eval_F(problem, mu) == pytest.approx(problem.inf_value, rel=1e-12, abs=1e-14)
    f0 = np.full(problem.grid.size, a)
    trace = run(problem, parse_dgf("p:2"), SolverConfig(iters=300, method="apgm"), f0=f0)
    assert not trace.aborted
    assert np.min(trace.F) >= problem.inf_value - 1e-12
    assert trace.gap[-1] < trace.gap[0]


def test_deconv_closed_form_is_a_lower_bound():
    g = torus_grid(1, 100)
    problem = deconv_problem(g, tv(0.05))
    rng = np.random.default_rng(11)
    for _ in range(25):
        f = rng.standard_normal(100)
        assert eval_F(problem, f) >= problem.inf_value - 1e-12


def test_setting_tags_from_regularization():
    g = torus_grid(1, 60)
    assert deconv_problem(g, nonneg_tv(0.0)).setting_tag == "II*"
    assert deconv_problem(g, nonneg_tv(0.2)).setting_tag == "II"
    assert deconv_problem(g, tv(0.05)).setting_tag == "II"
    # (regularizer, weight of the Dirac minimizer at the origin, tag):
    # II* exactly when the unit Dirac is optimal with H = 0. A radius
    # within FEAS_TOL below 1 still leaves the potential 2 (a - 1) phi.
    cases = (
        (nonneg_tv(0.0), 1.0, "II*"),
        (simplex(), 1.0, "II*"),
        (tv(0.0), 1.0, "II*"),
        (tv_ball(1.0), 1.0, "II*"),
        (tv_ball(2.0), 1.0, "II*"),
        (tv_ball(0.5), 0.5, "II"),
        (tv_ball(0.9999999999), 0.9999999999, "II"),
        (nonneg_tv(0.2), 1.0 - 0.2 / 10.0, "II"),
        (tv(0.05), 1.0 - 0.05 / 10.0, "II"),
    )
    for reg, weight, tag in cases:
        problem = deconv_problem(g, reg)
        assert problem.setting_tag == tag, reg.token
        # Starred exactly when the potential vanishes at the minimizer.
        at_minimizer = replace(problem, mu_star=((np.zeros(1), weight),))
        pot = grad_potential(at_minimizer, minimizer_density(at_minimizer))
        assert tag.endswith("*") == (np.max(np.abs(pot)) <= 1e-10), reg.token


def test_potential_vanishes_at_exact_recovery():
    # lam = 0: the minimizer reproduces the observation exactly, so the
    # potential, not just its integral against mu*, is identically zero
    g = torus_grid(1, 50)
    problem = deconv_problem(g, nonneg_tv(0.0))
    pot = grad_potential(problem, minimizer_density(problem))
    assert np.max(np.abs(pot)) <= 1e-10


def test_gradient_matches_finite_differences():
    g = torus_grid(1, 40)
    problem = deconv_problem(g, nonneg_tv(0.1))
    rng = np.random.default_rng(2)
    f = np.abs(rng.standard_normal(40))
    grad = grad_potential(problem, f)
    for _ in range(5):
        v = rng.standard_normal(40)
        t = 1e-6
        fd = (eval_G(problem, f + t * v) - eval_G(problem, f - t * v)) / (2 * t)
        assert fd == pytest.approx(float(np.sum(g.weights * grad * v)), rel=1e-6)


def test_smoothness_upper_bound():
    # G(g) <= G(f) + <G'[f], g - f> + (L/2) ||g - f||_1^2
    g = torus_grid(1, 30)
    problem = deconv_problem(g, nonneg_tv(0.0))
    lip = problem.smooth.phi_sup**2 * problem.smooth.lip_grad
    rng = np.random.default_rng(9)
    for _ in range(30):
        f, h = rng.standard_normal(30), rng.standard_normal(30)
        lin = float(np.sum(g.weights * grad_potential(problem, f) * (h - f)))
        l1 = float(np.sum(g.weights * np.abs(h - f)))
        assert eval_G(problem, h) <= eval_G(problem, f) + lin + 0.5 * lip * l1**2 + 1e-10


def test_phi_sup_deconv():
    g = torus_grid(1, 45)
    problem = deconv_problem(g, nonneg_tv(0.0))
    assert problem.smooth.phi_sup == pytest.approx(math.sqrt(5.0))
    assert problem.smooth.lip_grad == pytest.approx(2.0)


@settings(max_examples=60, deadline=None)
@given(dim=st.integers(1, 3), n=st.integers(5, 12), seed=st.integers(0, 2**32 - 1))
def test_factored_fourier_operator_matches_its_matrix(dim, n, seed):
    """The axis-by-axis contractions agree with the materialized Kronecker
    matrix, the contraction by the transposed factors is the adjoint in
    the weighted feature inner product, and sup ||Phi|| is 5^(d/2)."""
    grid = torus_grid(dim, n)
    smooth = deconv_problem(grid, nonneg_tv(0.0)).smooth
    assert len(smooth.factors) == dim
    dense = SmoothObjective(
        smooth.features, smooth.outer, smooth.feature_weights, smooth.phi_lip_class
    )
    rng = np.random.default_rng(seed)
    w, f = grid.weights, rng.standard_normal(grid.size)

    def close(x, y):
        return np.max(np.abs(x - y)) <= 1e-12 * np.max(np.abs(y))

    assert close(smooth.moments(w, f), dense.moments(w, f))
    assert close(smooth.gradient(w, f), dense.gradient(w, f))
    assert smooth.value(w, f) == pytest.approx(dense.value(w, f), rel=1e-12)

    # <A x, r>_omega = <x, A^T (omega r)>: with R(z) = <r, z>_omega the
    # value at unit weights is the left side and the gradient A^T (omega r).
    r = rng.standard_normal(5**dim)
    pairing = SmoothObjective(
        smooth.factors, LinearForm(r), feature_weights=(np.array([1.0, 2, 2, 2, 2]),) * dim
    )
    ones = np.ones(grid.size)
    assert np.array_equal(pairing.feature_weights, smooth.feature_weights)
    left, right = pairing.value(ones, f), float(f @ pairing.gradient(ones, f))
    assert left == pytest.approx(right, rel=1e-12, abs=1e-12 * np.sum(np.abs(f)))

    assert smooth.phi_sup == pytest.approx(5.0 ** (dim / 2), rel=1e-15)


@settings(max_examples=200, deadline=None)
@given(
    M=st.integers(1, 12),
    m=st.integers(1, 500),
    order=st.sampled_from("CF"),
    linear=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_one_factor_gradient_is_the_adjoint_matvec_bit_for_bit(M, m, order, linear, seed):
    """A one-factor gradient, computed as np.dot(r, A), has the bits of
    A.T @ (fw * outer.grad(A @ (w * f))) in either memory layout."""
    rng = np.random.default_rng(seed)
    A = np.asarray(rng.standard_normal((M, m)), order=order)
    fw = rng.uniform(0.5, 2.0, M)
    y = rng.standard_normal(M)
    outer = LinearForm(y) if linear else SquaredResidual(y, scale=rng.uniform(0.1, 2.0))
    w, f = np.full(m, 1.0 / m), rng.standard_normal(m)
    want = A.T @ (fw * outer.grad(A @ (w * f)))
    got = SmoothObjective(A, outer, feature_weights=fw).gradient(w, f)
    assert got.tobytes() == want.tobytes()


def _contract_by_matmul(factors, x):
    """The contraction the smooth part used before np.dot and the C-order
    adjoint, kept as an oracle: one factor is a plain a @ x; more go axis
    by axis as (A_i @ X).T, then a copying ravel."""
    if len(factors) == 1:
        return factors[0] @ x
    for a in factors:
        x = (a @ x.reshape(a.shape[1], -1)).T
    return x.ravel()


@settings(max_examples=60, deadline=None)
@given(dim=st.integers(1, 3), n=st.integers(5, 40), seed=st.integers(0, 2**32 - 1))
def test_kronecker_adjoint_keeps_the_bits_of_the_matmul_contraction(dim, n, seed):
    """On the deconvolution factors (M_i = 5) the moments and the gradient
    are the oracle's contractions by A_i and by A_i^T, bit for bit."""
    smooth = deconv_problem(torus_grid(dim, n), nonneg_tv(0.0)).smooth
    w, f = 1.0 / n**dim, np.random.default_rng(seed).standard_normal(n**dim)
    z = _contract_by_matmul(smooth.factors, w * f)
    r = smooth.feature_weights * smooth.outer.grad(z)
    want = _contract_by_matmul(tuple(a.T for a in smooth.factors), r)
    assert smooth.moments(w, f).tobytes() == z.tobytes()
    assert smooth.gradient(w, f).tobytes() == want.tobytes()


@settings(max_examples=100, deadline=None)
@given(
    shape=st.lists(st.tuples(st.integers(1, 8), st.integers(1, 12)), min_size=2, max_size=3),
    seed=st.integers(0, 2**32 - 1),
)
def test_kronecker_adjoint_matches_the_matmul_contraction(shape, seed):
    """On other factor shapes the adjoint agrees with the oracle to 1e-12
    relative: BLAS may sum a product of two other layouts differently."""
    rng = np.random.default_rng(seed)
    factors = tuple(rng.standard_normal(mn) for mn in shape)
    r = rng.standard_normal(math.prod(m for m, _ in shape))
    f = np.ones(math.prod(n for _, n in shape))
    got = SmoothObjective(factors, LinearForm(r)).gradient(1.0, f)
    want = _contract_by_matmul(tuple(a.T for a in factors), r)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want), initial=1.0)


def test_deconv3d_builds_without_the_dense_matrix():
    # The dense 250 x 64000 feature matrix alone took 128 MB.
    tracemalloc.start()
    try:
        problem = deconv_problem(torus_grid(3, 40), nonneg_tv(0.0))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20
    assert eval_G(problem, minimizer_density(problem)) == pytest.approx(0.0, abs=1e-9)


def test_smoothed_square_dist_blend():
    g = torus_grid(1, 2000)
    phi = smoothed_square_dist(g, np.zeros(1))
    r = geodesic_dist(g.points, np.zeros(1))
    inner = r <= 0.4 - 1e-9
    assert np.allclose(phi[inner], r[inner] ** 2)
    assert phi[np.argmin(np.abs(r - 0.5))] == pytest.approx(0.26, abs=1e-6)
    # C^2 blend: the discrete second derivative is bounded and moves by
    # O(h) between neighbors; a C^1-only joint would jump by O(1) there
    order = np.argsort(g.points[:, 0])
    second = np.diff(phi[order], 2) / g.spacing**2
    assert np.max(np.abs(second)) < 60.0
    assert np.max(np.abs(np.diff(second))) < 5.0


def test_lb_problems_know_their_optimum():
    g = torus_grid(1, 200)
    for tag in ("I", "II", "I*", "II*"):
        problem = lb_problem(g, tag)
        assert problem.inf_value == 0.0
        mu = minimizer_density(problem)
        assert eval_F(problem, mu) == pytest.approx(0.0, abs=1e-14)
        assert eval_F(problem, np.ones(200)) > 0.0
    with pytest.raises(ValueError):
        lb_problem(g, "III")


def test_relu_problem_seeded():
    a = build_problem("relu", seed=0)
    b = build_problem("relu", seed=0)
    c = build_problem("relu", seed=1)
    ya = a.smooth.outer.target
    assert np.array_equal(ya, b.smooth.outer.target)
    assert not np.array_equal(ya, c.smooth.outer.target)
    assert ya.shape == (10,)
    assert a.smooth.lip_grad == pytest.approx(1.0)
    assert np.all(a.smooth.features >= 0.0)


def test_relu_rejects_negative_tv_weight():
    with pytest.raises(ValueError, match="TV weight must be nonnegative, got -1"):
        relu_problem(torus_grid(1, 50), lam=-1)


def test_relu_rejects_a_2d_grid():
    with pytest.raises(ValueError, match="1D torus grid, got dim=2"):
        relu_problem(torus_grid(2, 10))


def test_relu_norm_bound_hint():
    problem = relu_problem(torus_grid(1, 100), lam=0.05, seed=0)
    f0 = np.ones(100)
    _, k_bound = resolve_step(problem, parse_dgf("hyp"), SolverConfig(iters=1), f0)
    assert k_bound == eval_F(problem, f0) / 0.05
    assert problem.k_bound_hint == k_bound


@pytest.mark.parametrize(
    "dim, n, lam",
    ((1, 300, 0.05), (1, 300, 1.0), (1, 300, 12.0), (2, 12, 0.05),
     (1, 60, 0.5), (1, 300, 3.0), (2, 10, 0.5), (2, 12, 10.0)),
)
def test_exact_optimum_matches_deconv_closed_form(dim, n, lam):
    # An independent oracle: the tv rows of deconvolution have a closed
    # form, and the Lasso homotopy on the materialized Kronecker features
    # reproduces it only if the half-spectrum weights are right.
    problem = deconv_problem(torus_grid(dim, n), tv(lam))
    solved = exact_optimum(replace(problem, inf_value=None, mu_star=None))
    assert solved.inf_value == pytest.approx(problem.inf_value, rel=1e-12)
    assert eval_F(solved, minimizer_density(solved)) == solved.inf_value


def _midpoint_spike(n, lam=0.05):
    """deconv1d under tv:lam whose target is the moments of delta at
    x0 = h/2, which lies as far from grid point 0 as from grid point 1."""
    base = deconv_problem(torus_grid(1, n), tv(lam))
    a = np.pi / n  # 2 pi x0
    target = np.array([1.0, np.cos(a), np.cos(2.0 * a), -np.sin(a), -np.sin(2.0 * a)])
    smooth = SmoothObjective(
        base.smooth.factors,
        SquaredResidual(target),
        feature_weights=(base.smooth.feature_weights,),
        phi_lip_class=base.smooth.phi_lip_class,
    )
    return replace(base, smooth=smooth, inf_value=None, mu_star=None)


@pytest.mark.parametrize("n", (100, 200, 400))
def test_exact_optimum_splits_a_midpoint_spike_evenly(n):
    # Columns 0 and 1 start with equal correlations. Joined one at a
    # time, the path ended on atoms {0, 2} at n = 200 and 400, 0.11 % and
    # 0.025 % over the Lasso bound.
    lam = 0.05
    solved = exact_optimum(_midpoint_spike(n, lam))
    f = minimizer_density(solved)
    assert np.flatnonzero(f).tolist() == [0, 1]
    assert f[1] == pytest.approx(f[0], rel=1e-9)
    assert np.max(np.abs(grad_potential(solved, f))) <= lam * (1.0 + 1e-9)
    assert eval_F(solved, f) == solved.inf_value


def test_exact_optimum_rejects_an_end_point_off_the_lasso_bound(monkeypatch):
    # Without the tie rule the n = 800 path ends 0.006 % over the bound.
    monkeypatch.setattr("bpgm.objective._TIE_RTOL", 0.0)
    with pytest.raises(RuntimeError, match="correlation .* > lam"):
        exact_optimum(_midpoint_spike(800))


@pytest.mark.parametrize("m", (200, 2000))
@pytest.mark.parametrize("lam", (0.01, 0.05, 0.2))
@pytest.mark.parametrize("seed", range(4))
def test_exact_optimum_meets_lasso_kkt(seed, lam, m):
    # G'[f*] = -lam sign(f*) on the support and |G'[f*]| <= lam off it.
    problem = exact_optimum(relu_problem(torus_grid(1, m), lam=lam, seed=seed))
    f = minimizer_density(problem)
    potential = grad_potential(problem, f)
    support = f != 0.0
    assert len(problem.mu_star) == np.count_nonzero(support)
    assert np.all(np.abs(potential[support] + lam * np.sign(f[support])) <= 1e-10)
    assert np.all(np.abs(potential[~support]) <= lam * (1.0 + 1e-10))
    assert eval_F(problem, f) == problem.inf_value


def test_exact_optimum_relu_seed0_value():
    problem = exact_optimum(build_problem("relu", seed=0))
    assert problem.inf_value == pytest.approx(0.1901142265891132, rel=1e-12)
    weights = sorted(weight for _, weight in problem.mu_star)
    assert weights == pytest.approx([-0.0910, 0.6235], abs=1e-4)


def test_exact_optimum_is_below_apgm():
    problem = exact_optimum(relu_problem(torus_grid(1, 200), seed=0))
    trace = run(problem, parse_dgf("hyp"), SolverConfig(iters=3000, method="apgm"))
    assert not trace.aborted
    assert np.min(trace.F) >= problem.inf_value - 1e-12


@pytest.mark.parametrize("problem", (
    relu_problem(torus_grid(1, 50), lam=0.0),
    deconv_problem(torus_grid(1, 60), nonneg_tv(0.05)),
    deconv_problem(torus_grid(1, 60), tv_ball(0.5)),
    lb_problem(torus_grid(1, 60), "I*"),
), ids=("lam-0", "nonneg_tv", "tv_ball", "lb"))
def test_exact_optimum_rejects_other_problems(problem):
    with pytest.raises(ValueError):
        exact_optimum(problem)


def test_exact_optimum_singular_gram_is_runtime_error(monkeypatch):
    def singular(*args):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(np.linalg, "solve", singular)
    with pytest.raises(RuntimeError, match="singular"):
        exact_optimum(relu_problem(torus_grid(1, 50), seed=0))


def test_regularizer_violation_and_value():
    g = torus_grid(1, 10)
    w = g.weights
    f = np.full(10, 2.0)
    assert simplex().violation(w, f) > 0
    assert simplex().value(w, np.ones(10)) == 0.0
    assert simplex().value(w, f) == math.inf
    assert nonneg_tv(0.5).value(w, np.ones(10)) == pytest.approx(0.5)
    assert nonneg_tv(0.0).violation(w, -f) > 0
    assert tv(2.0).value(w, -np.ones(10)) == pytest.approx(2.0)
    assert tv_ball(1.0).violation(w, f) == pytest.approx(1.0)
    assert tv_ball(3.0).violation(w, f) == 0.0


@pytest.mark.parametrize("reg", ("nonneg_tv:0", "nonneg_tv:0.1", "simplex", "tv_ball:1"))
def test_a_nan_density_is_infeasible_on_constrained_rows(reg):
    # Python's max(0.0, nan) is 0.0: a violation clamped that way calls the
    # density feasible, and F comes out nan instead of inf.
    problem = build_problem("deconv1d", grid_size=20, reg=parse_regularizer(reg))
    f = default_start(problem)
    f[7] = math.nan
    assert not problem.reg.violation(problem.grid.weights, f) <= FEAS_TOL
    assert problem.reg.value(problem.grid.weights, f) == math.inf
    assert eval_F(problem, f) == math.inf


def test_a_nan_density_has_nan_F_on_the_unconstrained_tv_row():
    problem = build_problem("deconv1d", grid_size=20, reg=parse_regularizer("tv:0.1"))
    f = default_start(problem)
    f[7] = math.nan
    assert problem.reg.violation(problem.grid.weights, f) == 0.0
    assert math.isnan(eval_F(problem, f))


def test_eval_F_infeasible_is_infinite():
    g = torus_grid(1, 20)
    problem = deconv_problem(g, simplex())
    assert eval_F(problem, np.full(20, 2.0)) == math.inf
    assert math.isfinite(eval_F(problem, np.ones(20)))


def test_parse_regularizer_tokens():
    assert parse_regularizer("nonneg_tv:0.3").lam == pytest.approx(0.3)
    assert parse_regularizer("simplex").kind == "simplex"
    assert parse_regularizer("tv:0.05").kind == "tv"
    assert parse_regularizer("tv_ball:2").radius == pytest.approx(2.0)
    for bad in ("l2:1", "tv", "tv_ball:-1", "simplex:3"):
        with pytest.raises(ValueError):
            parse_regularizer(bad)


@pytest.mark.parametrize(
    "reg",
    [nonneg_tv(0.123456789), simplex(), tv(0.123456789), tv_ball(1.23456789), tv(1e-20)],
)
def test_regularizer_token_round_trips(reg):
    assert parse_regularizer(reg.token) == reg


@pytest.mark.parametrize("kind, fields", (
    ("nonneg_tv", {"radius": 0.5}), ("simplex", {"radius": 0.5}), ("tv", {"radius": 2.0}),
    ("simplex", {"lam": 0.1}), ("tv_ball", {"lam": 0.1}),
))
def test_regularizer_rejects_a_field_its_kind_never_reads(kind, fields):
    # Regularizer("simplex", radius=0.5) would record an optimum of mass
    # 0.5 while its prox step and violation enforce mass 1.
    with pytest.raises(ValueError, match=f"{kind} has no"):
        Regularizer(kind, **fields)


_REG_FIELD = st.one_of(st.just(0.0), st.just(1.0), st.floats())


@settings(max_examples=300, deadline=None)
@given(
    kind=st.sampled_from(("nonneg_tv", "simplex", "tv", "tv_ball")),
    lam=_REG_FIELD,
    radius=_REG_FIELD,
)
def test_every_accepted_regularizer_round_trips_through_its_token(kind, lam, radius):
    try:
        reg = Regularizer(kind, lam=lam, radius=radius)
    except ValueError:
        return
    assert parse_regularizer(reg.token) == reg


@st.composite
def _fd_problem_and_regularizer(draw):
    """A PROBLEM_TABLE token and a regularizer it accepts: any row on
    deconvolution (radii on both sides of 1, TV weights from 0 to above
    2 * 5^d, where the optimum is the zero density), the simplex on lb:*
    and a positive TV weight on relu."""
    token = draw(st.sampled_from(PROBLEM_TOKENS))
    if token.startswith("lb:"):
        return token, simplex()
    if token == "relu":
        return token, tv(draw(st.floats(0.0, 10.0, exclude_min=True)))
    peak = 5.0 ** PROBLEM_TABLE[token][0]
    lam = draw(st.one_of(st.just(0.0), st.floats(0.0, 3.0 * peak)))
    radius = draw(st.one_of(st.sampled_from((1.0, 0.9999999999)), st.floats(1e-3, 4.0)))
    return token, draw(st.sampled_from((nonneg_tv(lam), simplex(), tv(lam), tv_ball(radius))))


@settings(max_examples=200, deadline=None)
@given(case=_fd_problem_and_regularizer())
def test_every_row_starts_feasible_inside_its_norm_bound(case):
    # default_start, resolve_step and deconv_problem read the L1 level
    # from `radius` and the TV weight from `lam`, whatever the kind.
    token, reg = case
    problem = build_problem(token, grid_size=PROBLEM_TABLE[token][2], reg=reg)
    f0, w = default_start(problem), problem.grid.weights
    assert problem.reg.violation(w, f0) <= FEAS_TOL
    args = (problem, parse_dgf("p:2"), SolverConfig(iters=1), f0)
    if reg.lam > 0 and math.isinf(float(eval_F(problem, f0)) / reg.lam):
        # A subnormal TV weight overflows K = F(f0)/lam: no bound to start inside.
        with pytest.raises(ValueError, match="norm bound K .* is inf"):
            resolve_step(*args)
        return
    _, k_bound = resolve_step(*args)
    assert np.sum(w * np.abs(f0)) <= k_bound * (1.0 + 1e-12)
    if token.startswith("deconv"):
        ((_, amplitude),) = problem.mu_star
        assert eval_F(problem, minimizer_density(problem)) == pytest.approx(
            problem.inf_value, rel=1e-12, abs=1e-12
        )
        assert (problem.setting_tag == "II*") == (reg.lam == 0.0 and amplitude == 1.0)


def test_regularizer_token_short_form():
    assert nonneg_tv(0.0).token == "nonneg_tv:0"
    assert tv(0.05).token == "tv:0.05"
    assert tv_ball(2.0).token == "tv_ball:2"
    assert simplex().token == "simplex"


def test_build_problem_tokens_and_defaults():
    p = build_problem("deconv1d")
    assert p.grid.size == 300 and p.reg.kind == "nonneg_tv"
    p = build_problem("deconv2d", grid_size=6)
    assert p.grid.size == 36 and p.grid.dim == 2
    p = build_problem("lb:II*")
    assert p.grid.size == 2000 and p.setting_tag == "II*"
    with pytest.raises(ValueError):
        build_problem("gaussian")
    with pytest.raises(ValueError):
        build_problem("relu", reg=simplex())


@pytest.mark.parametrize("token", PROBLEM_TOKENS)
def test_every_table_row_builds_on_a_grid_of_its_dimension(token):
    dim, default_n, fd_n = PROBLEM_TABLE[token]
    for grid_size, n in ((None, default_n), (fd_n, fd_n)):
        problem = build_problem(token, grid_size=grid_size)
        # A deconvolution problem names the dimension it was built in.
        assert problem.name == token
        assert (problem.grid.dim, problem.grid.n) == (dim, n)


def test_building_deconv2d_leaves_the_lattice_points_unbuilt():
    # Grid.points caches its (m, d) array in the instance dict on first read.
    assert "points" not in vars(build_problem("deconv2d").grid)


@pytest.mark.parametrize("token", PROBLEM_TOKENS)
def test_build_problem_grid_size_zero_is_not_the_default(token):
    with pytest.raises(ValueError, match="at least one point"):
        build_problem(token, grid_size=0)


@pytest.mark.parametrize("token, reg", (
    ("lb:I", None), ("deconv1d", simplex()), ("relu", tv(0.05)),
), ids=("lb", "deconv-reg", "relu-reg"))
def test_build_problem_lam_only_sets_the_default_weight(token, reg):
    with pytest.raises(ValueError, match="lam sets the TV weight"):
        build_problem(token, grid_size=20, reg=reg, lam=0.5)


def test_problem_with_inf_value_copies():
    p = build_problem("relu", seed=0)
    assert p.inf_value is None
    q = p.with_inf_value(0.2)
    assert q.inf_value == 0.2 and p.inf_value is None
    assert isinstance(q, Problem)
