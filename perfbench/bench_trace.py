"""Spans and counters for the traced benchmark run, recorded from outside bpgm.

Coarse layer calls (solver.run, solver.write_csv, solver.read_csv,
analysis.fit_rate, check) become spans with name, start, end, parent
and trace id (the pass number). Calls inside the iteration loop happen
millions of times per run, so instead of one span each they are summed
into the enclosing span: `children` hold calls whose time is subtracted
for self time (gradient, prox step, eval_F), `counters` hold counts and
times that overlap them (mirror-map calls inside a prox step, record
durations). Everything stays in memory and is written out at the end.

The patches touch only names bpgm looks up at call time: the
`bregman_step` and `eval_F` that bpgm.solver imported, each problem's
`smooth.gradient`, `MirrorState.linf_mirror` (called once per record,
after eval_F) and `eta_prime_inv` through a subclass of each dgf.
"""

import statistics
from contextlib import contextmanager
from time import perf_counter

import numpy as np

# Every prox row and dgf that some workload uses; a workload reports all
# of them, probing the rows it does not run itself.
PROX_ROWS = (
    "p-2.nonneg_tv", "p-1.5.nonneg_tv", "ent.nonneg_tv",
    "p-2.tv", "p-1.5.tv", "hyp-0.001.tv",
    "p-2.simplex", "p-1.5.tv_ball", "hyp-0.001.tv_ball",
)
DGFS = ("p-2", "p-1.5", "ent", "hyp-0.001")
PROBE_STEPS = 40
# Regularizer of each row kind when it is probed outside a workload.
PROBE_REGS = {"nonneg_tv": "nonneg_tv:0", "tv": "tv:0.05", "simplex": "simplex", "tv_ball": "tv_ball:1"}


def metric_token(dgf_name):
    return dgf_name.replace(":", "-")


class Span:
    __slots__ = ("name", "start", "end", "parent", "trace_id", "attrs", "children", "counters")

    def __init__(self, name, parent, trace_id, attrs):
        self.name, self.parent, self.trace_id, self.attrs = name, parent, trace_id, attrs
        self.children, self.counters = {}, {}
        self.start = self.end = perf_counter()

    @property
    def seconds(self):
        return self.end - self.start

    def as_dict(self):
        return {
            "name": self.name, "start": self.start, "end": self.end, "parent": self.parent,
            "trace_id": self.trace_id, **self.attrs,
            "children": self.children, "counters": self.counters,
        }


class Tracer:
    """Times every span; keeps spans only while `active`."""

    def __init__(self):
        self.spans = []
        self.active = False
        self.trace_id = 0
        self.record_start = 0.0
        self._stack = []

    @contextmanager
    def span(self, name, **attrs):
        if not self.active:
            span = Span(name, None, self.trace_id, attrs)
            try:
                yield span
            finally:
                span.end = perf_counter()
            return
        parent = self._stack[-1] if self._stack else None
        span = Span(name, parent, self.trace_id, attrs)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            yield span
        finally:
            span.end = perf_counter()
            self._stack.pop()

    def _add(self, kind, name, amount):
        if self._stack:
            table = getattr(self.spans[self._stack[-1]], kind)
            acc = table.setdefault(name, [0, 0.0])
            acc[0] += 1
            acc[1] += amount

    def child(self, name, seconds):
        self._add("children", name, seconds)

    def count(self, name, amount):
        self._add("counters", name, amount)


def counting_dgf(dgf, tracer):
    """A copy of `dgf` whose mirror map counts and times its calls."""
    base = type(dgf)
    key = "dgf.mirror_inv." + metric_token(dgf.name)

    class CountingDgf(base):
        def eta_prime_inv(self, u):
            t0 = perf_counter()
            out = base.eta_prime_inv(self, u)
            tracer.count(key, perf_counter() - t0)
            self.mirror_evals += 1
            return out

    copy = CountingDgf.__new__(CountingDgf)
    copy.__dict__.update(dgf.__dict__)
    copy.mirror_evals = 0
    return copy


@contextmanager
def instrument(tracer, bpgm, problems, dgfs):
    """Patch the layer boundaries; yields counting copies of `dgfs`."""
    solver, mirror_state = bpgm.solver, bpgm.prox.MirrorState
    step, eval_F, linf = solver.bregman_step, solver.eval_F, mirror_state.linf_mirror

    def traced_step(dgf, reg, state, grad, s_eff):
        before = dgf.mirror_evals
        t0 = perf_counter()
        out = step(dgf, reg, state, grad, s_eff)
        row = f"{metric_token(dgf.name)}.{reg.kind}"
        tracer.child("prox.step." + row, perf_counter() - t0)
        tracer.count("prox.mirror_evals." + row, dgf.mirror_evals - before)
        return out

    def traced_eval_F(problem, f):
        t0 = perf_counter()
        out = eval_F(problem, f)
        tracer.child("objective.eval_F", perf_counter() - t0)
        tracer.record_start = t0
        return out

    def traced_linf(state):
        out = linf(state)
        tracer.count("solver.record", perf_counter() - tracer.record_start)
        return out

    def traced_gradient(smooth):
        gradient = smooth.gradient
        size = float(smooth.features.size)

        def wrapper(weights, f):
            t0 = perf_counter()
            out = gradient(weights, f)
            tracer.child("objective.gradient", perf_counter() - t0)
            tracer.count("objective.gradient_mxm", size)
            return out

        return wrapper

    smooths = {id(p.smooth): p.smooth for p in problems.values()}
    solver.bregman_step, solver.eval_F = traced_step, traced_eval_F
    mirror_state.linf_mirror = traced_linf
    for smooth in smooths.values():
        smooth.gradient = traced_gradient(smooth)
    try:
        yield {token: counting_dgf(dgf, tracer) for token, dgf in dgfs.items()}
    finally:
        solver.bregman_step, solver.eval_F = step, eval_F
        mirror_state.linf_mirror = linf
        for smooth in smooths.values():
            del smooth.gradient


def probe_rows(tracer, bpgm, rows, m):
    """Step each prox row PROBE_STEPS times on a 1D deconvolution problem
    with m points, inside an active instrument(); returns the worst KKT."""
    worst = 0.0
    for row in rows:
        token, kind = row.rsplit(".", 1)
        dgf_token = token.replace("-", ":", 1)
        problem = bpgm.deconv_problem(bpgm.torus_grid(1, m), bpgm.parse_regularizer(PROBE_REGS[kind]))
        with instrument(tracer, bpgm, {"probe": problem}, {dgf_token: bpgm.parse_dgf(dgf_token)}) as dgfs:
            dgf = dgfs[dgf_token]
            f0 = np.ones(m)
            step, _ = bpgm.solver.resolve_step(problem, dgf, bpgm.SolverConfig(iters=PROBE_STEPS), f0)
            state = bpgm.MirrorState.from_primal(dgf, problem.grid, f0)
            with tracer.span("probe", row=row):
                for _ in range(PROBE_STEPS):
                    grad = problem.smooth.gradient(problem.grid.weights, state.primal)
                    nxt = bpgm.solver.bregman_step(dgf, problem.reg, state, grad, step)
                    kkt = bpgm.kkt_residual(dgf, problem.reg, state, nxt, grad, step).worst()
                    worst = max(worst, kkt)
                    state = nxt
    return worst


def sum_by_name(spans, kind, prefix=""):
    """{name: [calls, total]} summed over spans, for names with `prefix`."""
    out = {}
    for span in spans:
        for name, (calls, total) in getattr(span, kind).items():
            if name.startswith(prefix):
                acc = out.setdefault(name[len(prefix):], [0, 0.0])
                acc[0] += calls
                acc[1] += total
    return out


def unused_rows(tracer):
    """PROX_ROWS that no solver run of the traced passes stepped."""
    runs = [s for s in tracer.spans if s.name == "solver.run"]
    used = sum_by_name(runs, "children", "prox.step.")
    return [row for row in PROX_ROWS if row not in used]


def _per_call_us(acc):
    calls, seconds = acc
    return seconds / calls * 1e6


def layer_metrics(tracer, passes, kkt_max, overhead_s):
    """Per-layer metrics from the spans of `passes` traced passes (and probes)."""
    spans = tracer.spans
    runs = [s for s in spans if s.name == "solver.run"]
    probes = [s for s in spans if s.name == "probe"]
    run_s = sum(s.seconds for s in runs)
    iters = sum(s.attrs["iters"] for s in runs)
    children = sum_by_name(runs, "children")
    counters = sum_by_name(runs, "counters")
    grad, evalF = children["objective.gradient"], children["objective.eval_F"]
    prox = sum_by_name(runs, "children", "prox.step.")
    evals = sum_by_name(runs, "counters", "prox.mirror_evals.")
    mirror = sum_by_name(runs, "counters", "dgf.mirror_inv.")
    probe_prox = sum_by_name(probes, "children", "prox.step.")
    probe_mirror = sum_by_name(probes, "counters", "dgf.mirror_inv.")
    prox_s = sum(acc[1] for acc in prox.values())
    dual_s = sum(prox[row][1] for row in prox if evals[row][1] > evals[row][0])
    mirror_s = sum(acc[1] for acc in mirror.values())
    self_s = run_s - grad[1] - evalF[1] - prox_s
    mxm = counters["objective.gradient_mxm"][1]

    def by_span(name):
        return [s.seconds * 1e6 for s in spans if s.name == name]

    metrics = {
        "objective.gradient_us": (_per_call_us(grad), "us"),
        "objective.gradient_calls": (grad[0] / passes, "count"),
        # Computed from the M x m feature matrix: two matvecs, each reading it once.
        "objective.gradient_flops": (4.0 * mxm / passes, "flop"),
        "objective.gradient_bytes": (16.0 * mxm / passes, "B"),
        "objective.gradient_share_pct": (100.0 * grad[1] / run_s, "%"),
        "objective.eval_F_us": (_per_call_us(evalF), "us"),
        "objective.eval_F_share_pct": (100.0 * evalF[1] / run_s, "%"),
    }
    for row in PROX_ROWS:
        acc = prox.get(row) or probe_prox[row]
        metrics[f"prox.step_us.{row}"] = (_per_call_us(acc), "us")
    metrics.update({
        "prox.mirror_evals_per_step": (
            sum(a[1] for a in evals.values()) / sum(a[0] for a in evals.values()), "count"),
        "prox.kkt_max": (kkt_max, "1"),
        "prox.share_pct": (100.0 * prox_s / run_s, "%"),
        "prox.dual_share_pct": (100.0 * dual_s / run_s, "%"),
    })
    for dgf in DGFS:
        acc = mirror.get(dgf) or probe_mirror[dgf]
        metrics[f"dgf.mirror_inv_us.{dgf}"] = (_per_call_us(acc), "us")
    metrics.update({
        "dgf.mirror_inv_share_pct": (100.0 * mirror_s / run_s, "%"),
        "solver.self_us_per_iter": (self_s / iters * 1e6, "us"),
        "solver.self_share_pct": (100.0 * self_s / run_s, "%"),
        "solver.records": (counters["solver.record"][0] / passes, "count"),
        "solver.record_us": (_per_call_us(counters["solver.record"]), "us"),
        "solver.write_csv_us": (statistics.median(by_span("solver.write_csv")), "us"),
        "solver.read_csv_us": (statistics.median(by_span("solver.read_csv")), "us"),
        "solver.csv_rows": (sum(s.attrs["rows"] for s in runs) / passes, "count"),
        "analysis.fit_rate_us": (statistics.median(by_span("analysis.fit_rate")), "us"),
        "trace.overhead_s": (overhead_s, "s"),
    })
    return metrics
