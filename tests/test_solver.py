import math
import warnings
from dataclasses import replace

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from bpgm import (
    MirrorState,
    SolverConfig,
    Trace,
    bregman_step,
    build_problem,
    deconv_problem,
    eval_F,
    gamma_next,
    mollify,
    nonneg_tv,
    parse_dgf,
    parse_regularizer,
    run,
    run_apgm,
    run_pgm,
    simplex,
    torus_grid,
    tv,
    tv_ball,
)
from bpgm.grid import dist_to_point
from bpgm.objective import (
    LinearForm,
    Problem,
    SmoothObjective,
    SquaredResidual,
    default_start,
    exact_optimum,
)
from bpgm.solver import TRACE_COLUMNS, record_schedule, resolve_step, write_atomic


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


def _k_bound(problem, f0):
    return resolve_step(problem, parse_dgf("p:2"), SolverConfig(iters=1), f0)[1]


def test_resolve_step_k_bound_paths():
    g = torus_grid(1, 50)
    f0 = np.ones(50)
    assert _k_bound(deconv_problem(g, simplex()), f0) == 1.0
    assert _k_bound(deconv_problem(g, tv_ball(2.5)), f0) == 2.5
    p = deconv_problem(g, tv(0.5))
    assert _k_bound(p, f0) == pytest.approx(eval_F(p, f0) / 0.5)
    # lam = 0 falls back to the recorded hint 1 + sqrt(phi(0) - 1)
    assert _k_bound(deconv_problem(g, nonneg_tv(0.0)), f0) == pytest.approx(3.0)
    bare = Problem(
        name="bare",
        grid=g,
        smooth=deconv_problem(g, tv(0.0)).smooth,
        reg=tv(0.0),
    )
    with pytest.raises(ValueError, match="give it a k_bound_hint"):
        _k_bound(bare, f0)
    # the hint is the one override of a problem's bound
    assert _k_bound(replace(bare, k_bound_hint=7.0), f0) == 7.0


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
    explicit = SolverConfig(iters=1, step=0.25)
    assert resolve_step(p, parse_dgf("p:2"), explicit, f0) == (0.25, pytest.approx(3.0))


def _scaled_problem(phi_sup, lip_grad, k_bound):
    # one feature of constant value phi_sup, so ||Phi||_inf = phi_sup
    g = torus_grid(1, 10)
    outer = SquaredResidual(np.zeros(1), scale=lip_grad / 2.0)
    smooth = SmoothObjective(np.full((1, 10), phi_sup), outer)
    return Problem(name="scaled", grid=g, smooth=smooth, reg=tv(0.0), k_bound_hint=k_bound)


def test_resolve_step_admissible_step_values():
    # (K + beta)^(p-2) / (phi_sup^2 lip_grad)
    f0 = np.ones(10)
    config = SolverConfig(iters=1)
    step, _ = resolve_step(_scaled_problem(2.0, 2.0, 3.0), parse_dgf("p:2"), config, f0)
    assert step == pytest.approx(1.0 / 8.0)
    step, _ = resolve_step(_scaled_problem(1.0, 1.0, 2.0), parse_dgf("ent"), config, f0)
    assert step == pytest.approx(0.5)
    step, _ = resolve_step(_scaled_problem(1.0, 0.0, 1.0), parse_dgf("p:2"), config, f0)
    assert step == 1.0
    with pytest.raises(ValueError, match="norm bound must be positive"):
        resolve_step(_scaled_problem(1.0, 1.0, 0.0), parse_dgf("p:2"), config, f0)


@pytest.mark.parametrize("reg, level", (
    (nonneg_tv(0.0), 1.0), (simplex(), 1.0), (tv(0.05), 1.0), (tv_ball(2.5), 1.0),
    (tv_ball(1.0), 1.0), (tv_ball(0.5), 0.5), (tv_ball(0.25), 0.25),
))
def test_default_start_is_feasible_on_every_row(reg, level):
    problem = deconv_problem(torus_grid(1, 50), reg)
    f0 = default_start(problem)
    assert np.array_equal(f0, np.full(50, level))
    assert math.isfinite(eval_F(problem, f0))
    trace = run(problem, parse_dgf("p:2"), SolverConfig(iters=3))
    assert trace.F[0] == eval_F(problem, f0)


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(iters=0)
    with pytest.raises(ValueError):
        SolverConfig(iters=10, method="fista")
    for bad in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="step must be finite and positive"):
            SolverConfig(iters=10, step=bad)
    with pytest.raises(ValueError):
        SolverConfig(iters=10, step=-0.1)
    for bad in (100.0, np.float64(100), "100", True):
        with pytest.raises(ValueError, match="iters must be an integer"):
            SolverConfig(iters=bad)
    for bad in ((0, 10, 1000), (-1, 5), (51,), (0, math.nan), (0, 2.5)):
        with pytest.raises(ValueError, match=r"record must hold integers in \[0, 50\]"):
            SolverConfig(iters=50, record=bad)
    for iters in (50, np.int64(50), np.int32(50)):
        assert SolverConfig(iters=iters, record=(0, 10, 50)).iters == 50


def test_pgm_descends_monotonically():
    problem = build_problem("deconv1d", grid_size=60)
    trace = run(problem, parse_dgf("p:2"), SolverConfig(iters=500))
    assert np.all(np.diff(trace.F) <= 1e-12)
    assert trace.gap[-1] < trace.gap[0]


def test_iterates_stay_feasible():
    problem = build_problem("deconv1d", grid_size=60)
    for token in ("p:2", "ent"):
        trace = run(problem, parse_dgf(token), SolverConfig(iters=200))
        assert np.all(trace.final_f >= -1e-12)
    problem = deconv_problem(torus_grid(1, 60), simplex())
    trace = run(problem, parse_dgf("ent"), SolverConfig(iters=200))
    assert float(np.sum(problem.grid.weights * trace.final_f)) == pytest.approx(1.0, abs=1e-9)


def test_pgm_guarantee_against_mollified_reference():
    """Telescoped three-point bound: for any feasible f*,
    F(f_k) - F(f*) <= D(f*, f0) / (s k)."""
    problem = build_problem("deconv1d", grid_size=300)
    dgf = parse_dgf("p:2")
    config = SolverConfig(iters=2000)
    trace = run(problem, dgf, config)
    s = float(trace.meta["step"])
    f0 = np.ones(problem.grid.size)
    for eps in (0.02, 0.1):
        ref = mollify(problem, eps)
        div = dgf.divergence_values(problem.grid.weights, ref, f0)
        ref_gap = eval_F(problem, ref) - problem.inf_value
        for i, k in enumerate(trace.k):
            if k == 0:
                continue
            assert trace.gap[i] <= ref_gap + div / (s * k) + 1e-8


def test_apgm_beats_pgm_on_smooth_problem():
    problem = build_problem("deconv1d", grid_size=300)
    dgf = parse_dgf("p:2")
    pgm = run(problem, dgf, SolverConfig(iters=1000))
    apgm = run(problem, dgf, SolverConfig(iters=1000, method="apgm"))
    assert apgm.gap[-1] < pgm.gap[-1] / 10.0


def test_apgm_iterates_are_convex_combinations():
    # the reported sequence f_k mixes prox points with nonnegative
    # weights, so it inherits their sign constraint
    problem = build_problem("deconv1d", grid_size=80)
    trace = run(problem, parse_dgf("p:1.5"), SolverConfig(iters=300, method="apgm"))
    assert np.all(trace.final_f >= -1e-12)
    assert np.all(np.isfinite(trace.final_f))


def test_apgm_records_when_norm_bound_fails():
    problem = replace(build_problem("deconv1d", grid_size=60), k_bound_hint=1e-3)
    config = SolverConfig(iters=200, method="apgm", step=0.05)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        trace = run(problem, parse_dgf("p:2"), config)
    k = int(trace.meta["k_bound_exceeded_at"])
    assert k in trace.k
    assert float(trace.meta["k_bound_exceeded_l1"]) > float(trace.meta["k_bound"]) == 1e-3
    assert not trace.aborted


def _blowup_problem(m=100):
    # linear objective pushing mass upward without any bound: the
    # entropy iterates overflow after a few thousand steps
    g = torus_grid(1, m)
    phi = dist_to_point(g, np.zeros(1))
    smooth = SmoothObjective(phi.reshape(1, -1), LinearForm(np.array([-1.0])))
    return Problem(name="blowup", grid=g, smooth=smooth, reg=tv(0.0), k_bound_hint=1.0)


def test_run_aborts_on_nonfinite_objective():
    problem = _blowup_problem()
    config = SolverConfig(iters=4000, step=1.0)
    with warnings.catch_warnings():
        # the run is supposed to overflow; that is the point
        warnings.simplefilter("ignore", RuntimeWarning)
        trace = run(problem, parse_dgf("ent"), config)
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


@pytest.mark.parametrize("method, step", (
    pytest.param("pgm", 1e4, id="pgm"),
    pytest.param("apgm", 1e4, id="apgm"),
    pytest.param("pgm", 1e308, id="pgm-1e308"),
    pytest.param("apgm", 1e308, id="apgm-1e308"),
))
@pytest.mark.parametrize("reg", (nonneg_tv(0.0), tv(0.05), simplex(), tv_ball(1.0)),
                         ids=lambda reg: reg.token)
@pytest.mark.parametrize("token", ("p:2", "p:1.5", "hyp", "ent"))
def test_diverging_runs_end_labelled(token, reg, method, step, tmp_path):
    # Steps 1e4 and 1e308 are far past the admissible step; whichever way
    # a row fails, the run must end as a labelled trace that reads back,
    # not an exception or a stray numpy warning.
    problem = deconv_problem(torus_grid(1, 60), reg)
    config = SolverConfig(iters=200, method=method, step=step, record=(0, 200))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        trace = run(problem, parse_dgf(token), config)
        trace.write_csv(tmp_path / "t.csv")
        back = Trace.read_csv(tmp_path / "t.csv")
    assert back.meta == trace.meta
    assert not trace.aborted or trace.meta["abort_reason"] in ("gradient", "mirror", "objective")


def _reference_run(problem, dgf, config):
    """PGM or APGM as a plain loop over public pieces: the smooth
    gradient at every step, bregman_step and gamma_next, with the
    objective (smooth.value + reg.value) and the norms of each record
    point taken with the grid's cell weight, by np.sum and np.max. The gap
    is compared only when the problem knows its optimal value."""
    grid, w = problem.grid, problem.grid.weights
    f0 = default_start(problem)
    step, _ = resolve_step(problem, dgf, config, f0)
    accelerated = config.method == "apgm"
    state, f, gamma = MirrorState.from_primal(dgf, grid, f0), f0.copy(), 1.0
    schedule = set(record_schedule(config.iters))
    cols = {"F": [], "l1": [], "linf_mirror": []}
    if problem.inf_value is not None:
        cols["gap"] = []

    def record():
        value = problem.smooth.value(w, f) + problem.reg.value(w, f)
        assert value == eval_F(problem, f)
        cols["F"].append(value)
        if "gap" in cols:
            cols["gap"].append(value - problem.inf_value)
        cols["l1"].append(float(np.sum(w * np.abs(f))))
        cols["linf_mirror"].append(float(np.max(np.abs(state.u))))

    record()
    for k in range(config.iters):
        g = (1.0 - gamma) * f + gamma * state.primal if accelerated else f
        grad = problem.smooth.gradient(w, g)
        state = bregman_step(dgf, problem.reg, state, grad, step / gamma)
        if accelerated:
            f = (1.0 - gamma) * f + gamma * state.primal
            gamma = gamma_next(gamma)
        else:
            f = state.primal
        if k + 1 in schedule:
            record()
    return f, state.u, cols


@pytest.mark.parametrize("method", ("pgm", "apgm"))
@pytest.mark.parametrize("token, reg, dgf_token", (
    ("deconv1d", "nonneg_tv:0", "p:2"),
    ("deconv1d", "nonneg_tv:0", "ent"),
    ("deconv1d", "tv:0.05", "p:2"),
    ("deconv1d", "tv:0.05", "hyp"),
    ("deconv1d", "tv_ball:1", "p:1.5"),
    ("lb:I", None, "p:2"),
    ("lb:II*", None, "p:2"),
    ("deconv2d", None, "p:1.5"),
    ("relu", None, "p:1.5"),
))
def test_run_equals_a_reference_loop_bit_for_bit(token, reg, dgf_token, method):
    # The lb:I row has a linear smooth part, whose potential run takes once.
    problem = build_problem(token, reg=parse_regularizer(reg) if reg else None)
    dgf = parse_dgf(dgf_token)
    config = SolverConfig(iters=300, method=method)
    trace = run(problem, dgf, config)
    f, u, cols = _reference_run(problem, dgf, config)
    assert not trace.aborted
    assert np.array_equal(trace.final_f, f)
    assert np.array_equal(trace.final_mirror, u)
    for name, column in cols.items():
        assert np.array_equal(getattr(trace, name), column), name


@pytest.mark.parametrize("reg", ("nonneg_tv:0", "simplex", "tv:0.05", "tv_ball:1"))
def test_nonfinite_start_density_is_rejected(reg):
    # The feasibility check alone lets a nan through on tv, which has no
    # constraint, and a +inf through on nonneg_tv and tv.
    problem = build_problem("deconv1d", grid_size=50, reg=parse_regularizer(reg))
    for bad in (np.nan, np.inf):
        f0 = default_start(problem)
        f0[7] = bad
        with pytest.raises(ValueError, match="initial density must be finite"):
            run(problem, parse_dgf("p:2"), SolverConfig(iters=5), f0=f0)


def test_entropy_is_rejected_on_a_signed_optimum():
    problem = exact_optimum(build_problem("relu", grid_size=200))
    assert min(weight for _, weight in problem.mu_star) < 0
    with pytest.raises(ValueError, match="signed dgf"):
        run(problem, parse_dgf("ent"), SolverConfig(iters=10))


def test_start_density_of_wrong_shape_is_rejected():
    problem = build_problem("relu", grid_size=50)
    f0 = np.ones(49)
    with pytest.raises(ValueError, match="does not match grid size 50"):
        run(problem, parse_dgf("hyp"), SolverConfig(iters=5), f0=f0)


def test_trace_meta_records_setting():
    trace = run(build_problem("deconv2d", grid_size=6), parse_dgf("p:2"), SolverConfig(iters=2))
    assert (trace.meta["reg"], trace.meta["setting"], trace.meta["dim"]) == (
        "nonneg_tv:0", "II*", "2",
    )


def test_tiny_step_barely_moves():
    problem = build_problem("deconv1d", grid_size=50)
    trace = run(
        problem, parse_dgf("p:2"), SolverConfig(iters=2, step=1e-9, record=(1, 2))
    )
    assert np.max(np.abs(trace.final_f - 1.0)) < 1e-6


def test_custom_record_schedule():
    problem = build_problem("deconv1d", grid_size=50)
    trace = run(problem, parse_dgf("p:2"), SolverConfig(iters=10, record=(0, 3, 10)))
    assert list(trace.k) == [0, 3, 10]
    assert trace.F[0] == pytest.approx(eval_F(problem, np.ones(50)))


def test_run_dispatch():
    problem = build_problem("deconv1d", grid_size=50)
    t1 = run(problem, parse_dgf("p:2"), SolverConfig(iters=20, method="apgm"))
    assert t1.meta["method"] == "apgm"
    with pytest.raises(ValueError):
        run_pgm(problem, parse_dgf("p:2"), SolverConfig(iters=5, method="apgm"))
    with pytest.raises(ValueError):
        run(problem, parse_dgf("p:2"), SolverConfig(iters=5), f0=-np.ones(50))


@pytest.mark.parametrize("reg", ("tv_ball:1", "tv:0.05"), ids=("constrained", "unconstrained"))
@pytest.mark.parametrize("method, alias", (("pgm", run_pgm), ("apgm", run_apgm)))
def test_run_and_its_checked_aliases_give_one_trace(reg, method, alias):
    problem = build_problem("deconv1d", grid_size=60, reg=parse_regularizer(reg))
    config = SolverConfig(iters=200, method=method)
    a, b = run(problem, parse_dgf("hyp"), config), alias(problem, parse_dgf("hyp"), config)
    assert a.meta == b.meta and a.meta["method"] == method
    for name in (*TRACE_COLUMNS[:-1], "final_f", "final_mirror"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name


def test_run_that_records_nothing_has_empty_columns(tmp_path):
    # Step 1e308 overflows the first mirror point, before record point 10.
    problem = build_problem("deconv1d", grid_size=60, reg=simplex())
    config = SolverConfig(iters=20, step=1e308, record=(10,))
    trace = run(problem, parse_dgf("p:2"), config)
    assert trace.meta["aborted_at"] == "1" and trace.meta["abort_reason"] == "mirror"
    for name in TRACE_COLUMNS:
        assert getattr(trace, name).shape == (0,), name
    assert trace.k.dtype.kind == "i"
    path = tmp_path / "t.csv"
    trace.write_csv(path)
    with pytest.raises(ValueError, match="no data rows"):
        Trace.read_csv(path)


def test_trace_csv_round_trip(tmp_path):
    problem = build_problem("deconv1d", grid_size=50)
    trace = run(problem, parse_dgf("hyp"), SolverConfig(iters=50))
    path = tmp_path / "trace.csv"
    trace.write_csv(path)
    back = Trace.read_csv(path)
    assert back.meta == {k: str(v) for k, v in trace.meta.items()}
    assert np.array_equal(back.k, trace.k)
    # repr round-trip keeps every float bit
    assert np.array_equal(back.F, trace.F)
    assert np.array_equal(back.gap, trace.gap)
    assert np.array_equal(back.linf_mirror, trace.linf_mirror)


_any_float = st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)


def _same_bits(a, b):
    """Equal bit for bit, except that every nan reads back as nan."""
    nan = np.isnan(a)
    return np.array_equal(nan, np.isnan(b)) and np.array_equal(
        a[~nan].view(np.uint64), b[~nan].view(np.uint64)
    )


@settings(max_examples=60, deadline=None)
@given(
    rows=st.lists(
        st.tuples(st.integers(0, 2**53), *[_any_float] * (len(TRACE_COLUMNS) - 1)),
        min_size=1, max_size=20,
    ),
    meta=st.dictionaries(
        st.text("abcdefghijklmnopqrstuvwxyz_", min_size=1, max_size=12),
        _any_float.map(repr),
        max_size=5,
    ),
)
def test_trace_csv_round_trip_keeps_every_bit(tmp_path_factory, rows, meta):
    # from_rows is the constructor both run and read_csv use.
    trace = Trace.from_rows(meta, rows)
    assert trace.k.dtype.kind == "i" and trace.k.tolist() == [row[0] for row in rows]
    for i, name in enumerate(TRACE_COLUMNS[1:], 1):
        assert _same_bits(getattr(trace, name), np.array([row[i] for row in rows])), name
    path = tmp_path_factory.mktemp("trace") / "t.csv"
    trace.write_csv(path)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        back = Trace.read_csv(path)
    assert back.meta == meta
    assert np.array_equal(back.k, trace.k)
    for name in TRACE_COLUMNS[1:]:
        assert _same_bits(getattr(back, name), getattr(trace, name)), name


def test_write_atomic_removes_temp_file_on_failure(tmp_path):
    target = tmp_path / "adir"
    target.mkdir()
    with pytest.raises(OSError):
        write_atomic(target, [(1,)])
    assert [p.name for p in tmp_path.iterdir()] == ["adir"]

    def rows():
        yield (1,)
        raise RuntimeError("disk full")

    with pytest.raises(RuntimeError, match="disk full"):
        write_atomic(tmp_path / "t.csv", rows())
    assert [p.name for p in tmp_path.iterdir()] == ["adir"]


def test_write_atomic_formats_value_rows(tmp_path):
    path = tmp_path / "t.csv"
    write_atomic(path, [(3, "a:b", 0.1, np.float64(1e-300), math.nan)],
                 meta={"z": "1", "a": "x"}, header=("k", "s", "v", "w", "n"))
    assert path.read_text() == "# a=x\n# z=1\nk,s,v,w,n\n3,a:b,0.1,1e-300,nan\n"


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
        trace = run(problem, parse_dgf("ent"), config)
        p = tmp_path / name
        trace.write_csv(p)
        paths.append(p)
    a, b = (p.read_text() for p in paths)
    assert _strip_time(a) == _strip_time(b)


def test_density_initial_point():
    problem = build_problem("deconv1d", grid_size=50)
    f0 = np.full(50, 0.5)
    trace = run(problem, parse_dgf("p:2"), SolverConfig(iters=5, record=(0,)))
    trace2 = run(problem, parse_dgf("p:2"), SolverConfig(iters=5, record=(0,)), f0=f0)
    assert trace.F[0] != trace2.F[0]
