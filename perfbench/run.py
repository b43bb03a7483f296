"""bpgm benchmark: how fast rate traces come out, and whether they are right.

    python3 perfbench/run.py --workload deconv_small --seed 0 --seconds 30 --trace 0

Run from anywhere; it imports bpgm from the `src` directory next to
this one and nowhere else. One process, BLAS and OpenMP pinned to one
thread. After a repeated set-up (import bpgm, build the workload's
problems, parse its dgfs) it runs passes over the workload's traces
until --seconds have elapsed; each trace is solved, written to CSV,
read back, fitted and checked (bench_workloads.py).

--trace 0 prints the end-to-end metrics. --trace 1 alternates untraced
and traced passes and prints per-layer metrics (bench_trace.py); the
difference of their median pass times is the tracing overhead.
--quick shrinks grids and iteration counts for a smoke test.
--write-reference records the final F of every trace at seed 0 into
reference.json, the values later runs are checked against.

The last line of output is one JSON object: correct, attempted,
failed and metrics (value and unit). Before it come a table of the
metrics, the sample counts and the environment block; a report with
per-trace results (and, traced, every span) goes to .perfbench_out/.
Exit codes: 0 ran (check "correct"), 1 the metrics disagree with
BENCHMARK.json, 2 usage error or bpgm could not be imported.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import importlib
import json
import platform
import resource
import statistics
import sys
import tempfile
import traceback
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

import numpy as np

import bench_trace
import bench_workloads as bw

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 5
WARMUP_ITERS = 20


def import_bpgm():
    """Import bpgm afresh from SRC; refuse any other copy."""
    for name in [n for n in sys.modules if n == "bpgm" or n.startswith("bpgm.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    module = importlib.import_module("bpgm")
    if Path(module.__file__).resolve().parent != SRC / "bpgm":
        raise ImportError(f"bpgm imported from {module.__file__}, not from {SRC}")
    return module


def setup(workload, seed, quick):
    """Import bpgm, build the workload's problems and parse its dgfs; timed."""
    t0 = perf_counter()
    bpgm = import_bpgm()
    problems, dgfs = bw.build_problems(bpgm, workload, seed, quick)
    return perf_counter() - t0, bpgm, problems, dgfs


def upper_quartile(values):
    """The statistic of every end-to-end time. A shared 2-core VM host
    runs in a steady contended state interrupted by erratic faster
    stretches whose share varies from run to run; the median of a run
    flips between the two, while its upper quartile stays on the steady
    state (about 5% run-to-run spread against 10-17% for the median)."""
    values = list(values)
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=4, method="inclusive")[2]


def environment(args):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    digest = hashlib.sha256()
    for path in sorted((SRC / "bpgm").glob("*.py")):
        digest.update(path.name.encode() + path.read_bytes())
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind, size = ((index / f).read_text().strip() for f in ("level", "type", "size"))
        except OSError:
            continue
        caches[f"L{level}{'' if kind == 'Unified' else kind[0].lower()}"] = size
    head = ROOT / ".git" / "HEAD"
    commit = None
    if head.exists():
        ref = head.read_text().strip()
        target = ROOT / ".git" / ref[5:] if ref.startswith("ref: ") else None
        commit = target.read_text().strip() if target and target.exists() else ref
    return {
        "commit": commit,
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "threads": {v: os.environ[v] for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "caches": caches,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "quick": args.quick,
    }


def run_pass(bpgm, workload, problems, dgfs, ctx):
    """One pass over the workload's operations; returns per-op records."""
    records, relu_inf = [], None
    for i, op in enumerate(workload.ops):
        iters = workload.op_iters(op, ctx["quick"])
        label = op.label(iters)
        seeded = op.problem in workload.seeded
        reference_F = None
        if ctx["check_reference"] and (not seeded or ctx["seed"] == bw.DEFAULT_SEED):
            reference_F = ctx["reference"].get(label, float("nan"))
        record = {"label": label, "iters": iters}
        t0 = perf_counter()
        try:
            with ctx["tracer"].span("op", label=label):
                result, relu_inf = bw.run_op(
                    bpgm, op, problems[op.problem], dgfs[op.dgf], iters,
                    ctx["tmp"] / f"trace{i}.csv", ctx["probe_rng"].uniform(0.0, 1.0, bw.KKT_PROBES),
                    reference_F, relu_inf, ctx["tracer"],
                )
            record.update(result)
        except Exception as exc:  # any failure of one trace is counted, not fatal
            record["error"] = "".join(traceback.format_exception_only(type(exc), exc)).strip()
        record["op_s"] = perf_counter() - t0
        records.append(record)
    return records


def end_to_end(passes, setup_times):
    solve_s, op_s, iters = {}, {}, {}
    for r in (r for p in passes for r in p["ops"]):
        op_s.setdefault(r["label"], []).append(r["op_s"])
        if "solve_s" in r:
            solve_s.setdefault(r["label"], []).append(r["solve_s"])
            iters[r["label"]] = r["iters"]
    per_trace = [upper_quartile(v) for v in op_s.values()]
    return {
        "iters_per_s": (sum(iters.values()) / sum(upper_quartile(v) for v in solve_s.values()), "1/s"),
        "workload_s": (upper_quartile(p["seconds"] for p in passes), "s"),
        "trace_s_p50": (statistics.median(per_trace), "s"),
        "trace_s_max": (max(per_trace), "s"),
        "setup_s": (upper_quartile(setup_times), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def contract_errors(metrics, trace):
    """Differences between the printed metrics and BENCHMARK.json's list."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {name: unit for name, (_, unit) in metrics.items()}
    errors = [f"missing metric {n}" for n in wanted if n not in got]
    errors += [f"metric {n} not in BENCHMARK.json" for n in got if n not in wanted]
    errors += [f"metric {n} has unit {got[n]}, BENCHMARK.json says {u}"
               for n, u in wanted.items() if n in got and got[n] != u]
    return errors


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(bw.WORKLOADS))
    parser.add_argument("--seed", type=int, default=bw.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.write_reference and (args.quick or args.seed != bw.DEFAULT_SEED or args.trace):
        parser.error(f"--write-reference needs the full workload, --trace 0 and seed {bw.DEFAULT_SEED}")
    return args


def main(argv=None):
    args = parse_args(argv)
    workload = bw.WORKLOADS[args.workload]
    try:
        setup_times = [setup(workload, args.seed, args.quick)[0] for _ in range(SETUP_REPEATS - 1)]
        seconds, bpgm, problems, dgfs = setup(workload, args.seed, args.quick)
        setup_times.append(seconds)
    except ImportError as exc:
        print(f"perfbench: cannot import bpgm from {SRC}: {exc}", file=sys.stderr)
        return 2

    for op in workload.ops:  # warm-up: first calls, lazy imports, allocator
        config = bpgm.SolverConfig(iters=WARMUP_ITERS, method=op.method, step=op.step)
        try:
            bpgm.run(problems[op.problem], dgfs[op.dgf], config)
        except Exception:  # the same trace fails again in the passes, where it is counted
            pass

    tracer = bench_trace.Tracer()
    OUT.mkdir(exist_ok=True)
    ctx = {
        "quick": args.quick,
        "seed": args.seed,
        "check_reference": not (args.quick or args.write_reference),
        "reference": bw.load_reference(args.workload),
        "probe_rng": np.random.default_rng([args.seed, 1]),
        "tracer": tracer,
    }
    passes = []
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        ctx["tmp"] = Path(tmp)
        start = perf_counter()
        while True:
            traced = bool(args.trace) and len(passes) % 2 == 1
            tracer.active, tracer.trace_id = traced, len(passes)
            patch = bench_trace.instrument(tracer, bpgm, problems, dgfs) if traced else nullcontext()
            t0 = perf_counter()
            with patch as counting:
                ops = run_pass(bpgm, workload, problems, counting or dgfs, ctx)
            passes.append({"traced": traced, "seconds": perf_counter() - t0, "ops": ops})
            # One more set-up after every pass samples it across the run;
            # its objects are dropped, the passes keep using the first ones.
            setup_times.append(setup(workload, args.seed, args.quick)[0])
            enough = len(passes) >= (2 if args.trace else 1)
            if enough and perf_counter() - start >= args.seconds:
                break
        tracer.active = False

    untraced = [p for p in passes if not p["traced"]]
    if args.trace:
        traced = [p for p in passes if p["traced"]]
        kkt = max(r.get("kkt", 0.0) for p in passes for r in p["ops"])
        unused = bench_trace.unused_rows(tracer)
        tracer.active, tracer.trace_id = True, len(passes)
        size = max(p.grid.size for p in problems.values())
        kkt = max(kkt, bench_trace.probe_rows(tracer, bpgm, unused, size))
        tracer.active = False
        overhead = (statistics.median(p["seconds"] for p in traced)
                    - statistics.median(p["seconds"] for p in untraced))
        metrics = bench_trace.layer_metrics(tracer, len(traced), kkt, overhead)
    else:
        metrics = end_to_end(untraced, setup_times)

    errors = contract_errors(metrics, args.trace)
    if errors:
        print("perfbench: " + "; ".join(errors), file=sys.stderr)
        return 1

    ops = [r for p in passes for r in p["ops"]]
    failed = [r for r in ops if "error" in r]
    env = environment(args)
    report = {"environment": env, "metrics": metrics, "passes": passes}
    if args.trace:
        report["spans"] = [s.as_dict() for s in tracer.spans]
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-quick' if args.quick else ''}.json"
    (OUT / name).write_text(json.dumps(report, indent=1, default=float))

    if args.write_reference and not failed:
        table = json.loads(bw.REFERENCE_FILE.read_text()) if bw.REFERENCE_FILE.exists() else {}
        table[args.workload] = {r["label"]: r["final_F"] for r in passes[0]["ops"]}
        bw.REFERENCE_FILE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")

    n_labels = len(workload.ops)
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{len(passes)} passes ({len(untraced)} untraced) x {n_labels} traces = {len(ops)} "
          f"operations; times are upper quartiles over passes, trace_s_* then "
          f"the median and max over the {n_labels} traces; "
          f"fail_ratio {len(failed)}/{len(ops)} = {len(failed) / len(ops):g}")
    for r in failed:
        print(f"  FAILED {r['label']}: {r['error']}")
    for metric, (value, unit) in metrics.items():
        print(f"  {metric:34s} {value:16.6g} {unit}")
    print("environment " + json.dumps(env))
    print(json.dumps({
        "correct": not failed,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
