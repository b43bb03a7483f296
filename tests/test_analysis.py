import math

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
    run_pgm,
    theoretical_exponent,
    torus_grid,
)
from bpgm.analysis import EnvelopeCurve, default_eps_grid, fit_loglog


# The setting tags of each structure exponent q in the paper's rate table.
TAGS_OF_Q = {1: ("I",), 2: ("I*", "II"), 4: ("II*",)}


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
        model = theoretical_exponent(method, parse_dgf(token), tag, d)
        assert model.exponent == pytest.approx(expect)
        assert not model.log_factor


def test_entropy_exponents_dimension_free():
    for d in (1, 2, 3):
        for tag in ("I", "I*", "II", "II*"):
            for token in ("ent", "hyp", "hyp:0.5"):
                m = theoretical_exponent("pgm", parse_dgf(token), tag, d)
                assert (m.exponent, m.log_factor) == (-1.0, True)
                m = theoretical_exponent("apgm", parse_dgf(token), tag, d)
                assert (m.exponent, m.log_factor) == (-2.0, True)
                assert "log" in m.describe()


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
    assert eps[0] == pytest.approx(3.0 * g.spacing)
    assert eps[-1] == pytest.approx(g.diameter / 4.0)
    with pytest.raises(ValueError):
        default_eps_grid(torus_grid(1, 8))


def test_psi_envelope_matches_brute_force():
    problem = lb_problem(torus_grid(1, 300), "I")
    dgf = parse_dgf("p:2")
    f0 = np.ones(problem.grid.size)
    alphas = np.geomspace(1e-4, 1e-1, 7)
    eps_grid = np.geomspace(0.02, 0.12, 9)
    env = psi_envelope(problem, dgf, f0, alphas, eps_grid=eps_grid)

    w = problem.grid.weights
    cands = [(eval_F(problem, f0) - problem.inf_value, 0.0)]
    for e in eps_grid:
        fe = mollify(problem, e)
        gap = eval_F(problem, fe) - problem.inf_value
        div = dgf.divergence_values(w, fe, f0)
        cands.append((gap, div))
    for i, a in enumerate(alphas):
        brute = min(gap + a * div for gap, div in cands)
        assert env.psi_hat[i] == pytest.approx(brute, rel=1e-12)


def test_psi_envelope_concave_and_bounded():
    problem = lb_problem(torus_grid(1, 300), "II*")
    dgf = parse_dgf("p:2")
    f0 = np.ones(problem.grid.size)
    alphas = np.geomspace(1e-8, 1e-2, 40)
    env = psi_envelope(problem, dgf, f0, alphas)
    a, ps = env.alpha, env.psi_hat
    assert np.all(np.diff(ps) >= -1e-15)  # nondecreasing in alpha
    for i in range(1, len(a) - 1):
        t = (a[i] - a[i - 1]) / (a[i + 1] - a[i - 1])
        assert ps[i] >= (1 - t) * ps[i - 1] + t * ps[i + 1] - 1e-12
    cap = eval_F(problem, f0) - problem.inf_value
    assert np.all(ps <= cap + 1e-15)
    finite = np.isfinite(env.eps_star)
    assert np.all(np.diff(env.eps_star[finite]) >= -1e-12)


def test_psi_envelope_requires_inf_value():
    problem = build_problem("relu", seed=0)
    with pytest.raises(ValueError):
        psi_envelope(
            problem,
            parse_dgf("p:2"),
            np.ones(problem.grid.size),
            np.array([1e-3, 1e-2]),
        )


def test_envelope_csv(tmp_path):
    curve = EnvelopeCurve(
        alpha=np.array([1e-3, 1e-2]),
        psi_hat=np.array([0.1, 0.2]),
        eps_star=np.array([0.05, math.inf]),
        meta={"problem": "lb:I"},
    )
    path = tmp_path / "env.csv"
    curve.write_csv(path)
    text = path.read_text()
    assert text.startswith("# problem=lb:I\n")
    assert "alpha,psi_hat,eps_star" in text
    assert "inf" in text.splitlines()[-1]


def test_fit_loglog_exact_power():
    k = np.geomspace(1, 1e5, 400)
    slope, r2 = fit_loglog(k, 3.0 * k**-0.8, window=(1e2, None))
    assert slope == pytest.approx(-0.8, abs=1e-9)
    assert r2 == pytest.approx(1.0)


def test_fit_loglog_log_factor_both_ways():
    k = np.geomspace(10, 1e5, 500)
    logk_over_k = np.log(k) / k
    raw, _ = fit_loglog(k, logk_over_k, window=(1e3, None))
    # the log factor flattens the raw slope by about 1/log k
    assert raw == pytest.approx(-0.9, abs=0.02)


def test_fit_loglog_drops_bad_rows():
    k = np.geomspace(1, 1e4, 100)
    gap = 1.0 / k
    gap[-3:] = 0.0
    with pytest.warns(RuntimeWarning, match="dropping"):
        slope, _ = fit_loglog(k, gap, window=(10.0, None))
    assert slope == pytest.approx(-1.0, abs=1e-6)


def test_fit_loglog_needs_enough_rows():
    k = np.array([1.0, 10.0, 100.0])
    with pytest.raises(ValueError):
        fit_loglog(k, 1.0 / k)


def test_fit_rate_on_synthetic_trace():
    problem = build_problem("deconv1d", grid_size=60)
    trace = run_pgm(problem, parse_dgf("p:2"), SolverConfig(iters=3000))
    slope, r2 = fit_rate(trace, window=(100.0, None))
    assert -1.2 < slope < -0.4
    assert r2 > 0.9
