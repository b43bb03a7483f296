import math
from dataclasses import replace

import numpy as np
import pytest

from bpgm import (
    Problem,
    SolverConfig,
    build_problem,
    circle_grid,
    deconv_problem,
    dirac_density,
    eval_F,
    eval_G,
    grad_potential,
    lb_problem,
    nonneg_tv,
    parse_dgf,
    parse_regularizer,
    relu_problem,
    run_apgm,
    simplex,
    torus_grid,
    tv,
    tv_ball,
)
from bpgm.grid import geodesic_dist
from bpgm.solver import resolve_step
from bpgm.objective import (
    dirichlet_kernel,
    exact_optimum,
    minimizer_density,
    smoothed_square_dist,
)


def test_dirichlet_kernel_peak_and_mass():
    for dim, n in ((1, 30), (2, 8)):
        g = torus_grid(dim, n)
        assert dirichlet_kernel(g, np.zeros((1, dim)))[0] == pytest.approx(5.0**dim)
        # trigonometric polynomial of degree 2: the quadrature is exact
        values = dirichlet_kernel(g, g.points)
        assert np.sum(g.weights * values) == pytest.approx(1.0, abs=1e-12)


def test_deconv_objective_equals_direct_convolution():
    """The Fourier-moment objective must equal the L2 norm of the
    convolved residual computed by brute-force quadrature."""
    g = torus_grid(1, 8)
    problem = deconv_problem(g, nonneg_tv(0.0))
    rng = np.random.default_rng(5)
    f = np.abs(rng.standard_normal(8))
    delta = dirac_density(g, np.zeros(1))
    offsets = g.points[:, None, :] - g.points[None, :, :]
    kernel = dirichlet_kernel(g, offsets)  # kernel[i, j] = phi(x_i - x_j)
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
    trace = run_apgm(problem, parse_dgf("p:2"), SolverConfig(iters=500, method="apgm"))
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
    trace = run_apgm(problem, parse_dgf("p:2"), SolverConfig(iters=300, method="apgm"), f0=f0)
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
    # II* exactly when the unit Dirac is feasible with value 0.
    cases = (
        (nonneg_tv(0.0), 1.0, "II*"),
        (simplex(), 1.0, "II*"),
        (tv(0.0), 1.0, "II*"),
        (tv_ball(1.0), 1.0, "II*"),
        (tv_ball(2.0), 1.0, "II*"),
        (tv_ball(0.5), 0.5, "II"),
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


def test_smoothed_square_dist_blend():
    g = torus_grid(1, 2000)
    phi = smoothed_square_dist(g, np.zeros(1))
    r = geodesic_dist(g, g.points, np.zeros(1))
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
        relu_problem(circle_grid(50), lam=-1)


def test_relu_norm_bound_hint():
    problem = relu_problem(circle_grid(100), lam=0.05, seed=0)
    f0 = np.ones(100)
    _, k_bound = resolve_step(problem, parse_dgf("hyp"), SolverConfig(iters=1), f0)
    assert k_bound == eval_F(problem, f0) / 0.05
    assert problem.k_bound_hint == k_bound


@pytest.mark.parametrize(
    "dim, n, lam", ((1, 300, 0.05), (1, 300, 1.0), (1, 300, 12.0), (2, 12, 0.05))
)
def test_exact_optimum_matches_deconv_closed_form(dim, n, lam):
    # An independent oracle: the tv rows of deconvolution have a closed form.
    problem = deconv_problem(torus_grid(dim, n), tv(lam))
    solved = exact_optimum(replace(problem, inf_value=None, mu_star=None))
    assert solved.inf_value == pytest.approx(problem.inf_value, rel=1e-12)
    assert eval_F(solved, minimizer_density(solved)) == solved.inf_value


@pytest.mark.parametrize("m", (200, 2000))
@pytest.mark.parametrize("lam", (0.01, 0.05, 0.2))
@pytest.mark.parametrize("seed", range(4))
def test_exact_optimum_meets_lasso_kkt(seed, lam, m):
    # G'[f*] = -lam sign(f*) on the support and |G'[f*]| <= lam off it.
    problem = exact_optimum(relu_problem(circle_grid(m), lam=lam, seed=seed))
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
    problem = exact_optimum(relu_problem(circle_grid(200), seed=0))
    trace = run_apgm(problem, parse_dgf("hyp"), SolverConfig(iters=3000, method="apgm"))
    assert not trace.aborted
    assert np.min(trace.F) >= problem.inf_value - 1e-12


@pytest.mark.parametrize("problem", (
    relu_problem(circle_grid(50), lam=0.0),
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
        exact_optimum(relu_problem(circle_grid(50), seed=0))


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


def test_problem_with_inf_value_copies():
    p = build_problem("relu", seed=0)
    assert p.inf_value is None
    q = p.with_inf_value(0.2)
    assert q.inf_value == 0.2 and p.inf_value is None
    assert isinstance(q, Problem)
