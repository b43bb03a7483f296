"""In-process A/B timing of one perfbench workload against a git revision.

    python3 bench/ab.py wide_grid --rounds 12 --rev HEAD

Exports `src/bpgm` of `rev` with `git archive` into a temporary
directory and imports it next to the working tree's `src/bpgm`, under
the package names `bpgm_rev` and `bpgm_work`. Both build the problems of
the workload from perfbench/bench_workloads.py (read, never edited), at
its full sizes and seed 0. Each round then solves every operation of the
workload once per side, the side that goes first alternating by round,
so both sides see the same host state.

Per operation it prints the median and minimum microseconds per
iteration of each side, the rounds the working tree won, and whether
the two traces agree bit for bit (every column of `solver.TRACE_COLUMNS`
that both sides record, except time_s, and the final iterate and
mirror; zeros compare equal whatever their sign). A column that only
one side records, and the metadata keys whose values differ between
the sides, are printed on lines of their own. When the traces do not
agree, it also prints the largest relative |dF| and |dgap| over
the recorded points, which tells a change at rounding level (1e-13)
apart from a wrong one. The last
line is the ratio rev / work of the summed median op times, which
weights each operation by its iterations; above 1 the working tree is
faster.

A diagnostic only: a speed claim rests on alternating
`perfbench/run.py` processes, whose timings include set-up, CSV I/O and
checks. BLAS runs on one thread, as in perfbench.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import importlib.util
import io
import math
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path
from time import perf_counter

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

import bench_workloads as bw


def export_tree(rev, dest):
    """Write src/bpgm of git revision `rev` under dest; returns its path."""
    out = subprocess.run(
        ["git", "archive", "--format=tar", rev, "src/bpgm"],
        cwd=ROOT, capture_output=True, check=True,
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(out)) as tar:
        tar.extractall(dest, filter="data")
    return Path(dest) / "src" / "bpgm"


def import_package(name, path):
    """Import the package directory `path` as the top-level module `name`."""
    spec = importlib.util.spec_from_file_location(
        name, path / "__init__.py", submodule_search_locations=[str(path)]
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


class Side:
    """One bpgm tree with the workload's problems built by it."""

    def __init__(self, name, bpgm, workload):
        self.name, self.bpgm = name, bpgm
        self.problems, self.dgfs = bw.build_problems(bpgm, workload, bw.DEFAULT_SEED, False)
        self.relu_inf = None

    def solve(self, op, iters):
        """(seconds, trace) of one operation, timed around the solver only."""
        problem = self.problems[op.problem]
        if op.role == "vs_reference":
            problem = problem.with_inf_value(self.relu_inf)
        config = self.bpgm.SolverConfig(iters=iters, method=op.method, step=op.step)
        t0 = perf_counter()
        trace = self.bpgm.run(problem, self.dgfs[op.dgf], config)
        seconds = perf_counter() - t0
        if op.role == "reference":
            self.relu_inf = float(np.min(trace.F))
        return seconds, trace


def same_trace(a, b, columns):
    """Bit-for-bit equal `columns` and final arrays, with -0.0 == 0.0
    (array_equal) in the final arrays and nan == nan in the columns.
    Metadata is left out; `meta_diff` reports it."""
    return all(
        np.array_equal(getattr(a, col), getattr(b, col), equal_nan=True) for col in columns
    ) and np.array_equal(a.final_f, b.final_f) and np.array_equal(a.final_mirror, b.final_mirror)


def meta_diff(a, b):
    """The set of metadata keys whose values differ between traces a and
    b, a key present on one side only included."""
    return {key for key in a.meta.keys() | b.meta.keys() if a.meta.get(key) != b.meta.get(key)}


def max_rel_diff(a, b):
    """max |a - b| / |b| over the entries where both are finite (0.0 when
    none are); inf when a and b are finite at different entries."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    finite = np.isfinite(a)
    if a.shape != b.shape or not np.array_equal(finite, np.isfinite(b)):
        return math.inf
    with np.errstate(divide="ignore", invalid="ignore"):
        rel = np.abs(a[finite] - b[finite]) / np.abs(b[finite])
    # 0 / 0 is an agreement at zero; x / 0 is inf.
    return float(np.max(np.nan_to_num(rel, nan=0.0), initial=0.0))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workload", choices=sorted(bw.WORKLOADS))
    parser.add_argument("--rounds", type=int, default=12)
    parser.add_argument("--rev", default="HEAD", help="git revision to compare against")
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    workload = bw.WORKLOADS[args.workload]

    with tempfile.TemporaryDirectory() as tmp:
        rev = Side("rev", import_package("bpgm_rev", export_tree(args.rev, tmp)), workload)
        work = Side("work", import_package("bpgm_work", ROOT / "src" / "bpgm"), workload)
        rev_cols, work_cols = rev.bpgm.solver.TRACE_COLUMNS, work.bpgm.solver.TRACE_COLUMNS
        columns = [col for col in work_cols if col in rev_cols and col != "time_s"]
        one_side = sorted(set(rev_cols) ^ set(work_cols))
        times = {(side.name, i): [] for side in (rev, work) for i in range(len(workload.ops))}
        same = [True] * len(workload.ops)
        meta_keys = set()
        drift = [(0.0, 0.0)] * len(workload.ops)
        for r in range(args.rounds):
            order = (rev, work) if r % 2 == 0 else (work, rev)
            for i, op in enumerate(workload.ops):
                iters = workload.op_iters(op, False)
                traces = {}
                for side in order:
                    seconds, traces[side.name] = side.solve(op, iters)
                    times[side.name, i].append(1e6 * seconds / iters)
                rev_t, work_t = traces["rev"], traces["work"]
                same[i] = same[i] and same_trace(rev_t, work_t, columns)
                meta_keys |= meta_diff(rev_t, work_t)
                drift[i] = tuple(max(d, max_rel_diff(getattr(work_t, col), getattr(rev_t, col)))
                                 for d, col in zip(drift[i], ("F", "gap")))

    print(f"{'op':<34}{'rev med':>9}{'min':>8}{'work med':>10}{'min':>8}{'won':>7}  same")
    totals = {"rev": 0.0, "work": 0.0}
    for i, op in enumerate(workload.ops):
        iters = workload.op_iters(op, False)
        a, b = times["rev", i], times["work", i]
        won = sum(y < x for x, y in zip(a, b))
        for name, us in (("rev", a), ("work", b)):
            totals[name] += statistics.median(us) * iters
        print(f"{op.label(iters):<34}{statistics.median(a):9.1f}{min(a):8.1f}"
              f"{statistics.median(b):10.1f}{min(b):8.1f}{won:>4}/{args.rounds:<2}  {same[i]}"
              + ("" if same[i] else "  max rel |dF| {:.1e}, |dgap| {:.1e}".format(*drift[i])))
    print(f"trace columns on one side only: {', '.join(one_side) or 'none'}")
    print(f"metadata keys that differ: {', '.join(sorted(meta_keys)) or 'none'}")
    print(f"ratio {args.rev} / work, by iterations: {totals['rev'] / totals['work']:.3f}")


if __name__ == "__main__":
    main()
