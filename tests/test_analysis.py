import math
from dataclasses import replace

import numpy as np
import pytest

from bpgm import (
    SolverConfig,
    build_problem,
    eval_F,
    fit_rate,
    lb_problem,
    mollify,
    parse_dgf,
    psi_envelope,
    run,
    theoretical_exponent,
    torus_grid,
)
from bpgm.analysis import default_eps_grid, fit_loglog
from bpgm.grid import dist_to_point
from bpgm.objective import SETTING_Q


# The setting tags of each structure exponent q.
TAGS_OF_Q = {q: tuple(tag for tag in SETTING_Q if SETTING_Q[tag] == q) for q in SETTING_Q.values()}


@pytest.mark.parametrize(
    "method,token,q,d,expect",
    [
        ("pgm", "p:2", 4, 1, -0.8),
        ("pgm", "p:2", 1, 1, -0.5),
        ("pgm", "p:1.5", 2, 2, -2.0 / 3.0),
        ("pgm", "p:2", 2, 1, -2.0 / 3.0),
        ("apgm", "p:2", 4, 1, -1.6),
        ("apgm", "p:2", 1, 1, -1.0),
        ("apgm", "p:1.5", 1, 2, -1.0),
    ],
)
def test_power_exponent_table(method, token, q, d, expect):
    for tag in TAGS_OF_Q[q]:
        exponent = theoretical_exponent(method, parse_dgf(token), tag, d)
        assert type(exponent) is float
        assert exponent == pytest.approx(expect)


def test_entropy_exponents_dimension_free():
    for d in (1, 2, 3):
        for tag in ("I", "I*", "II", "II*"):
            for token in ("ent", "hyp", "hyp:0.5"):
                dgf = parse_dgf(token)
                assert dgf.p == 1.0  # the log(k) factor of the rate
                assert theoretical_exponent("pgm", dgf, tag, d) == -1.0
                assert theoretical_exponent("apgm", dgf, tag, d) == -2.0


def test_theoretical_exponent_validation():
    d = parse_dgf("p:2")
    with pytest.raises(ValueError):
        theoretical_exponent("sgd", d, "II", 1)
    with pytest.raises(ValueError):
        theoretical_exponent("pgm", d, "III", 1)
    with pytest.raises(ValueError):
        theoretical_exponent("pgm", d, None, 1)
    with pytest.raises(ValueError):
        theoretical_exponent("pgm", d, "II", 0)


def test_mollify_conserves_mass():
    problem = build_problem("deconv1d", grid_size=300, lam=0.3)
    w = problem.grid.weights
    for eps in (0.01, 0.05, 0.2):
        f = mollify(problem, eps)
        assert float(np.sum(w * f)) == pytest.approx(0.97, abs=1e-12)
        assert np.all(f >= 0.0)


def test_mollify_rejects_subgrid_radius():
    problem = build_problem("deconv1d", grid_size=100)
    with pytest.raises(ValueError):
        mollify(problem, 0.005)


def test_mollify_support_width():
    problem = build_problem("deconv1d", grid_size=300)
    f = mollify(problem, 0.1)
    # closed ball of radius 0.1 on a 1/300 grid: 61 cells
    assert np.count_nonzero(f) == 61


@pytest.mark.parametrize("tag,expect,tol", [("II*", 4.0, 0.5), ("I", 1.0, 0.2)])
def test_mollified_gap_scales_with_structure_exponent(tag, expect, tol):
    # F(f_eps) - inf ~ eps^q is the mechanism behind every rate here
    problem = lb_problem(torus_grid(1, 2000), tag)
    eps = np.geomspace(0.02, 0.2, 12)
    gaps = [eval_F(problem, mollify(problem, e)) for e in eps]
    slope = np.polyfit(np.log(eps), np.log(gaps), 1)[0]
    assert slope == pytest.approx(expect, abs=tol)


def test_default_eps_grid_range():
    g = torus_grid(1, 300)
    eps = default_eps_grid(g)
    assert len(eps) == 30
    assert eps[0] == pytest.approx(3.5 * g.spacing)
    # floor(D n / 4) = 37 spacings, plus one half: D / 4 at n = 300.
    assert eps[-1] == pytest.approx(37.5 * g.spacing)
    assert eps[-1] == pytest.approx(g.diameter / 4.0)
    # No radius lies above h and at most D on these grids.
    for empty in (torus_grid(1, 1), torus_grid(1, 2), torus_grid(2, 1), torus_grid(3, 1)):
        with pytest.raises(ValueError, match="empty mollification sweep"):
            default_eps_grid(empty)
    # floor(D n / 4) <= 3 on these grids, so the defaults widen: the top
    # radius lies within one spacing below the diameter.
    for coarse in (
        torus_grid(1, 3), torus_grid(2, 2), torus_grid(3, 2),
        torus_grid(1, 8), torus_grid(1, 24), torus_grid(1, 31),
        torus_grid(2, 4), torus_grid(2, 16), torus_grid(2, 22),
    ):
        eps = default_eps_grid(coarse)
        assert np.all(eps > coarse.spacing) and np.all(np.diff(eps) > 0)
        assert coarse.diameter - coarse.spacing < eps[-1] < coarse.diameter


_SWEPT_GRIDS = [(1, 100), (1, 300), (1, 2000), (2, 30), (2, 60), (3, 20), (3, 24)]
_COARSE_GRIDS = [(1, 16), (1, 20), (1, 24), (1, 30), (2, 8), (2, 16), (2, 20), (3, 6), (3, 8)]


@pytest.mark.parametrize("dim,n", _SWEPT_GRIDS + _COARSE_GRIDS)
def test_default_eps_grid_avoids_lattice_distances(dim, n):
    # A radius equal to the distance between two lattice points puts
    # points on its ball's boundary, where rounding decides membership.
    # The measured margins are 2.5e-3 h or more on the swept grids; on
    # the coarse ones 1.6e-2 h or more at the ends and 4.5e-5 h inside.
    grid = torus_grid(dim, n)
    dist = dist_to_point(grid, np.zeros(dim))
    eps = default_eps_grid(grid)
    assert np.min(np.abs(dist[:, None] - eps[None, :])) > 1e-6 * grid.spacing


def test_psi_envelope_matches_brute_force():
    problem = lb_problem(torus_grid(1, 300), "I")
    dgf = parse_dgf("p:2")
    f0 = np.ones(problem.grid.size)
    alphas = np.geomspace(1e-4, 1e-1, 7)
    psi_hat, _ = psi_envelope(problem, dgf, f0, alphas)

    w = problem.grid.weights
    cands = [(eval_F(problem, f0) - problem.inf_value, 0.0)]
    for e in default_eps_grid(problem.grid):
        fe = mollify(problem, e)
        gap = eval_F(problem, fe) - problem.inf_value
        div = dgf.divergence_values(w, fe, f0)
        cands.append((gap, div))
    for i, a in enumerate(alphas):
        brute = min(gap + a * div for gap, div in cands)
        assert psi_hat[i] == pytest.approx(brute, rel=1e-12)


def test_psi_envelope_concave_and_bounded():
    problem = lb_problem(torus_grid(1, 300), "II*")
    dgf = parse_dgf("p:2")
    f0 = np.ones(problem.grid.size)
    a = np.geomspace(1e-8, 1e-2, 40)
    ps, eps_star = psi_envelope(problem, dgf, f0, a)
    assert ps.shape == eps_star.shape == a.shape
    assert np.all(np.diff(ps) >= -1e-15)  # nondecreasing in alpha
    for i in range(1, len(a) - 1):
        t = (a[i] - a[i - 1]) / (a[i + 1] - a[i - 1])
        assert ps[i] >= (1 - t) * ps[i - 1] + t * ps[i + 1] - 1e-12
    cap = eval_F(problem, f0) - problem.inf_value
    assert np.all(ps <= cap + 1e-15)
    finite = np.isfinite(eps_star)
    assert np.all(np.diff(eps_star[finite]) >= -1e-12)


def test_psi_envelope_requires_inf_value():
    problem = build_problem("relu", seed=0)
    with pytest.raises(ValueError):
        psi_envelope(
            problem,
            parse_dgf("p:2"),
            np.ones(problem.grid.size),
            np.array([1e-3, 1e-2]),
        )


def test_mollify_needs_a_recorded_minimizer():
    # An optimal value alone does not say where to mollify.
    problem = replace(build_problem("deconv1d", grid_size=60), mu_star=None)
    assert problem.inf_value is not None
    with pytest.raises(ValueError, match="no recorded minimizer"):
        mollify(problem, 0.1)
    with pytest.raises(ValueError, match="no recorded minimizer"):
        psi_envelope(problem, parse_dgf("p:2"), np.ones(60), np.array([1e-3, 1e-2]))


def test_psi_envelope_overflowing_divergence_is_runtime_error():
    # At a subnormal beta, s / beta overflows for every s above 1. An inf
    # divergence would drop its candidate unseen, leaving f0 the winner.
    problem = build_problem("deconv1d", grid_size=20)
    dgf = parse_dgf("hyp:5.56268464626801e-309")
    with pytest.raises(RuntimeError, match=r"hyp:5\.56268464626801e-309 .* radius 0\.175 overflows"):
        psi_envelope(problem, dgf, np.ones(20), np.array([1e-3, 1e-2]))


def test_fit_loglog_exact_power():
    k = np.geomspace(1, 1e5, 400)
    slope, r2, dropped = fit_loglog(k, 3.0 * k**-0.8, window=(1e2, math.inf))
    assert slope == pytest.approx(-0.8, abs=1e-9)
    assert r2 == pytest.approx(1.0)
    assert dropped == 0


def test_fit_loglog_log_factor_both_ways():
    k = np.geomspace(10, 1e5, 500)
    logk_over_k = np.log(k) / k
    raw, _, _ = fit_loglog(k, logk_over_k, window=(1e3, math.inf))
    # the log factor flattens the raw slope by about 1/log k
    assert raw == pytest.approx(-0.9, abs=0.02)


def test_fit_loglog_drops_bad_rows():
    k = np.geomspace(1, 1e4, 100)
    gap = 1.0 / k
    gap[-3:] = 0.0
    gap[-5] = math.nan
    slope, _, dropped = fit_loglog(k, gap, window=(10.0, math.inf))
    assert slope == pytest.approx(-1.0, abs=1e-6)
    # Rows left of the window are ignored, not dropped.
    assert dropped == 4


def test_fit_loglog_needs_enough_rows():
    k = np.array([1.0, 10.0, 100.0])
    with pytest.raises(ValueError):
        fit_loglog(k, 1.0 / k, window=(0.0, math.inf))


def test_fit_loglog_flat_series_has_r2_one():
    # The mean of these 25 equal logs rounds an ulp away from them.
    y = np.log(np.full(25, 2.0 / 9.0))
    assert y.mean() != y[0]
    slope, r2, dropped = fit_loglog(
        np.geomspace(1e-3, 1.0, 25), np.full(25, 2.0 / 9.0), window=(0.0, math.inf)
    )
    assert r2 == 1.0 and dropped == 0
    assert slope == pytest.approx(0.0, abs=1e-12)


def test_fit_loglog_names_an_empty_window():
    k = np.geomspace(1, 1e4, 100)
    with pytest.raises(ValueError, match=r"the fit window \[1000, 500\] is empty"):
        fit_loglog(k, 1.0 / k, window=(1e3, 500.0))


def test_fit_rate_on_synthetic_trace():
    problem = build_problem("deconv1d", grid_size=60)
    trace = run(problem, parse_dgf("p:2"), SolverConfig(iters=3000))
    slope, r2 = fit_rate(trace, window=(100.0, math.inf))
    assert -1.2 < slope < -0.4
    assert r2 > 0.9
