import math
import warnings

import numpy as np
import pytest

from bpgm import (
    SolverConfig,
    Trace,
    bregman_div,
    build_problem,
    deconv_problem,
    eval_F,
    gamma_next,
    mollify,
    nonneg_tv,
    parse_dgf,
    run,
    run_apgm,
    run_pgm,
    simplex,
    torus_grid,
    tv,
    tv_ball,
    uniform_density,
)
from bpgm.grid import Density, dist_to_point
from bpgm.objective import LinearForm, Problem, SmoothObjective
from bpgm.solver import default_k_bound, record_schedule, resolve_step


def test_gamma_sequence_first_values():
    g1 = gamma_next(1.0)
    assert g1 == pytest.approx((math.sqrt(5.0) - 1.0) / 2.0, rel=1e-15)
    g2 = gamma_next(g1)
    # g2 solves g^2 = (1 - g) g1^2
    assert g2**2 == pytest.approx((1.0 - g2) * g1**2, rel=1e-14)


def test_gamma_recursion_identity():
    rng = np.random.default_rng(0)
    for g in rng.uniform(1e-6, 1.0, 100):
        nxt = gamma_next(g)
        assert 0.0 < nxt < g
        assert nxt**2 == pytest.approx((1.0 - nxt) * g**2, rel=1e-13)


def test_gamma_upper_bound_short():
    gamma, k = 1.0, 0
    while k <= 10_000:
        assert gamma <= 2.0 / (k + 2)
        gamma = gamma_next(gamma)
        k += 1


def test_gamma_domain():
    for bad in (0.0, -0.5, 1.5):
        with pytest.raises(ValueError):
            gamma_next(bad)


def test_record_schedule_shape():
    sched = record_schedule(100_000)
    assert sched[0] == 0 and sched[1] == 1 and sched[-1] == 100_000
    assert np.all(np.diff(sched) > 0)
    # about 100 points per decade, so an 1e5 run stays compact
    assert 300 <= len(sched) <= 600
    assert list(record_schedule(3)) == [0, 1, 2, 3]


def test_default_k_bound_paths():
    g = torus_grid(1, 50)
    f0 = np.ones(50)
    assert default_k_bound(deconv_problem(g, simplex()), f0) == 1.0
    assert default_k_bound(deconv_problem(g, tv_ball(2.5)), f0) == 2.5
    p = deconv_problem(g, tv(0.5))
    assert default_k_bound(p, f0) == pytest.approx(eval_F(p, f0) / 0.5)
    # lam = 0 falls back to the recorded hint 1 + sqrt(phi(0) - 1)
    assert default_k_bound(deconv_problem(g, nonneg_tv(0.0)), f0) == pytest.approx(3.0)
    bare = Problem(
        name="bare",
        grid=g,
        smooth=deconv_problem(g, tv(0.0)).smooth,
        reg=tv(0.0),
    )
    with pytest.raises(ValueError):
        default_k_bound(bare, f0)


def test_resolve_step_values():
    g = torus_grid(1, 50)
    f0 = np.ones(50)
    p = deconv_problem(g, nonneg_tv(0.0))
    step, k_bound = resolve_step(p, parse_dgf("p:2"), SolverConfig(iters=1), f0)
    assert (step, k_bound) == (pytest.approx(0.1), pytest.approx(3.0))
    # entropy scales the step by 1 / K
    step, _ = resolve_step(p, parse_dgf("ent"), SolverConfig(iters=1), f0)
    assert step == pytest.approx(1.0 / 30.0)
    # linear objectives admit any step; the default is 1
    from bpgm import lb_problem

    step, _ = resolve_step(lb_problem(g, "I"), parse_dgf("p:2"), SolverConfig(iters=1), f0)
    assert step == 1.0
    explicit = SolverConfig(iters=1, step=0.25, k_bound=7.0)
    assert resolve_step(p, parse_dgf("p:2"), explicit, f0) == (0.25, 7.0)


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(iters=0)
    with pytest.raises(ValueError):
        SolverConfig(iters=10, method="fista")
    with pytest.raises(ValueError):
        SolverConfig(iters=10, step=-0.1)


def test_pgm_descends_monotonically():
    problem = build_problem("deconv1d", grid_size=60)
    trace = run_pgm(problem, parse_dgf("p:2"), SolverConfig(iters=500))
    assert np.all(np.diff(trace.F) <= 1e-12)
    assert trace.gap[-1] < trace.gap[0]


def test_iterates_stay_feasible():
    problem = build_problem("deconv1d", grid_size=60)
    for token in ("p:2", "ent"):
        trace = run_pgm(problem, parse_dgf(token), SolverConfig(iters=200))
        assert np.all(trace.final_f >= -1e-12)
    problem = deconv_problem(torus_grid(1, 60), simplex())
    trace = run_pgm(problem, parse_dgf("ent"), SolverConfig(iters=200))
    assert float(np.sum(problem.grid.weights * trace.final_f)) == pytest.approx(1.0, abs=1e-9)


def test_pgm_guarantee_against_mollified_reference():
    """Telescoped three-point bound: for any feasible f*,
    F(f_k) - F(f*) <= D(f*, f0) / (s k)."""
    problem = build_problem("deconv1d", grid_size=300)
    dgf = parse_dgf("p:2")
    config = SolverConfig(iters=2000)
    trace = run_pgm(problem, dgf, config)
    s = float(trace.meta["step"])
    f0 = uniform_density(problem.grid)
    for eps in (0.02, 0.1):
        ref = mollify(problem, eps)
        div = bregman_div(dgf, ref, f0)
        ref_gap = eval_F(problem, ref.values) - problem.inf_value
        for i, k in enumerate(trace.k):
            if k == 0:
                continue
            assert trace.gap[i] <= ref_gap + div / (s * k) + 1e-8


def test_apgm_beats_pgm_on_smooth_problem():
    problem = build_problem("deconv1d", grid_size=300)
    dgf = parse_dgf("p:2")
    pgm = run_pgm(problem, dgf, SolverConfig(iters=1000))
    apgm = run_apgm(problem, dgf, SolverConfig(iters=1000, method="apgm"))
    assert apgm.gap[-1] < pgm.gap[-1] / 10.0


def test_apgm_iterates_are_convex_combinations():
    # the reported sequence f_k mixes prox points with nonnegative
    # weights, so it inherits their sign constraint
    problem = build_problem("deconv1d", grid_size=80)
    trace = run_apgm(problem, parse_dgf("p:1.5"), SolverConfig(iters=300, method="apgm"))
    assert np.all(trace.final_f >= -1e-12)
    assert np.all(np.isfinite(trace.final_f))


def test_apgm_warns_when_norm_bound_fails():
    problem = build_problem("deconv1d", grid_size=60)
    config = SolverConfig(iters=200, method="apgm", step=0.05, k_bound=1e-3)
    with pytest.warns(RuntimeWarning, match="norm bound"):
        trace = run_apgm(problem, parse_dgf("p:2"), config)
    assert "k_bound_exceeded_at" in trace.meta
    assert not trace.aborted


def _blowup_problem(m=100):
    # linear objective pushing mass upward without any bound: the
    # entropy iterates overflow after a few thousand steps
    g = torus_grid(1, m)
    phi = dist_to_point(g, np.zeros(1))
    smooth = SmoothObjective(phi.reshape(1, -1), LinearForm(np.array([-1.0])))
    return Problem(name="blowup", grid=g, smooth=smooth, reg=tv(0.0))


def test_run_aborts_on_nonfinite_objective():
    problem = _blowup_problem()
    config = SolverConfig(iters=4000, step=1.0, k_bound=1.0)
    with warnings.catch_warnings():
        # the run is supposed to overflow; that is the point
        warnings.simplefilter("ignore", RuntimeWarning)
        trace = run_pgm(problem, parse_dgf("ent"), config)
    assert trace.aborted and trace.meta["abort_reason"] == "objective"
    k_abort = int(trace.meta["aborted_at"])
    assert 0 < k_abort <= 4000
    assert trace.k[-1] == k_abort
    assert not math.isfinite(trace.F[-1])
    assert np.all(np.isfinite(trace.F[:-1]))


@pytest.mark.parametrize("method", ("pgm", "apgm"))
def test_run_aborts_on_nonfinite_gradient(method):
    # Step 50 diverges; with no record point before the end the objective
    # check never sees it, and the prox step meets a non-finite gradient.
    problem = deconv_problem(torus_grid(1, 300), tv(0.05))
    config = SolverConfig(iters=2000, method=method, step=50, record=(0, 2000))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        trace = run(problem, parse_dgf("p:2"), config)
    assert trace.aborted and trace.meta["abort_reason"] == "gradient"
    assert 0 < int(trace.meta["aborted_at"]) < 2000
    assert list(trace.k) == [0]


@pytest.mark.parametrize("method", ("pgm", "apgm"))
@pytest.mark.parametrize("reg", (nonneg_tv(0.0), tv(0.05), simplex(), tv_ball(1.0)),
                         ids=lambda reg: reg.token)
@pytest.mark.parametrize("token", ("p:2", "p:1.5", "hyp", "ent"))
def test_diverging_runs_end_labelled(token, reg, method):
    # Step 1e4 is far past the admissible step; whichever way a row
    # fails, the run must end as a labelled trace, not an exception or
    # a stray numpy warning.
    problem = deconv_problem(torus_grid(1, 60), reg)
    config = SolverConfig(iters=200, method=method, step=1e4, record=(0, 200))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        warnings.filterwarnings("ignore", "APGM prox sequence exceeded", RuntimeWarning)
        trace = run(problem, parse_dgf(token), config)
    assert not trace.aborted or trace.meta["abort_reason"] in ("gradient", "objective")


def test_start_density_from_another_grid_is_rejected():
    problem = build_problem("relu", grid_size=50)
    f0 = uniform_density(torus_grid(1, 50))
    with pytest.raises(ValueError, match="grid"):
        run_pgm(problem, parse_dgf("hyp"), SolverConfig(iters=5), f0=f0)


def test_trace_meta_records_setting():
    trace = run_pgm(build_problem("deconv2d", grid_size=6), parse_dgf("p:2"), SolverConfig(iters=2))
    assert (trace.meta["reg"], trace.meta["setting"], trace.meta["dim"]) == (
        "nonneg_tv:0", "II*", "2",
    )


def test_tiny_step_barely_moves():
    problem = build_problem("deconv1d", grid_size=50)
    trace = run_pgm(
        problem, parse_dgf("p:2"), SolverConfig(iters=2, step=1e-9, record=(1, 2))
    )
    assert np.max(np.abs(trace.final_f - 1.0)) < 1e-6


def test_custom_record_schedule():
    problem = build_problem("deconv1d", grid_size=50)
    trace = run_pgm(problem, parse_dgf("p:2"), SolverConfig(iters=10, record=(0, 3, 10)))
    assert list(trace.k) == [0, 3, 10]
    assert trace.F[0] == pytest.approx(eval_F(problem, np.ones(50)))


def test_run_dispatch():
    problem = build_problem("deconv1d", grid_size=50)
    t1 = run(problem, parse_dgf("p:2"), SolverConfig(iters=20, method="apgm"))
    assert t1.meta["method"] == "apgm"
    with pytest.raises(ValueError):
        run_pgm(problem, parse_dgf("p:2"), SolverConfig(iters=5, method="apgm"))
    with pytest.raises(ValueError):
        run_pgm(problem, parse_dgf("p:2"), SolverConfig(iters=5), f0=-np.ones(50))


def test_trace_csv_round_trip(tmp_path):
    problem = build_problem("deconv1d", grid_size=50)
    trace = run_pgm(problem, parse_dgf("hyp"), SolverConfig(iters=50))
    path = tmp_path / "trace.csv"
    trace.write_csv(path)
    back = Trace.read_csv(path)
    assert back.meta == {k: str(v) for k, v in trace.meta.items()}
    assert np.array_equal(back.k, trace.k)
    # repr round-trip keeps every float bit
    assert np.array_equal(back.F, trace.F)
    assert np.array_equal(back.gap, trace.gap)
    assert np.array_equal(back.linf_mirror, trace.linf_mirror)


def test_trace_read_rejects_empty(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("# problem=deconv1d\nk,F,gap,l1,linf_mirror,time_s\n")
    with pytest.raises(ValueError):
        Trace.read_csv(path)


def _strip_time(text):
    lines = []
    for line in text.splitlines():
        if line.startswith("#") or line.startswith("k,"):
            lines.append(line)
        else:
            lines.append(line.rsplit(",", 1)[0])
    return "\n".join(lines)


def test_repeated_runs_identical_up_to_wall_clock(tmp_path):
    problem = build_problem("deconv1d", grid_size=60)
    config = SolverConfig(iters=300)
    paths = []
    for name in ("a.csv", "b.csv"):
        trace = run_pgm(problem, parse_dgf("ent"), config)
        p = tmp_path / name
        trace.write_csv(p)
        paths.append(p)
    a, b = (p.read_text() for p in paths)
    assert _strip_time(a) == _strip_time(b)


def test_density_initial_point():
    problem = build_problem("deconv1d", grid_size=50)
    f0 = Density(problem.grid, np.full(50, 0.5))
    trace = run_pgm(problem, parse_dgf("p:2"), SolverConfig(iters=5, record=(0,)))
    trace2 = run_pgm(problem, parse_dgf("p:2"), SolverConfig(iters=5, record=(0,)), f0=f0)
    assert trace.F[0] != trace2.F[0]
