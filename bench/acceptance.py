"""End-to-end timings of the acceptance rate traces, written to BENCH_acceptance.json.

    OPENBLAS_NUM_THREADS=1 python3 bench/acceptance.py

Runs every row of `RATES` in tests/test_acceptance.py once, through that
module's own `_trace(row)` (the trace bank criteria 1-3 and 11 read), and
writes BENCH_acceptance.json at the repository root with:

- per row: its iterations, trace time (the last `time_s`) and
  microseconds per iteration;
- per criterion: the summed trace time of its rows;
- the environment: `git describe` when available, the Python and numpy
  versions, OPENBLAS_NUM_THREADS and the core count.

The rows take about a minute on two cores. Timings on a shared host
spread by about 25 %, so compare alternating runs, never one reading.
"""

import json
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import numpy as np

import test_acceptance as acceptance


def git_describe():
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            cwd=ROOT, capture_output=True, text=True, check=True,
        )
    except (OSError, subprocess.CalledProcessError):
        return None
    return out.stdout.strip()


def main():
    rows, criteria = [], {}
    for rate in acceptance.RATES:
        trace = acceptance._trace(rate)
        iters, seconds = int(trace.k[-1]), float(trace.time_s[-1])
        rows.append({
            "criterion": rate.criterion,
            "problem": rate.problem,
            "reg": rate.reg,
            "seed": rate.seed,
            "method": rate.method,
            "dgf": rate.dgf,
            "iters": iters,
            "trace_s": round(seconds, 4),
            "us_per_iter": round(1e6 * seconds / iters, 2),
        })
        key = str(rate.criterion)
        criteria[key] = criteria.get(key, 0.0) + seconds
        print(f"criterion {rate.criterion:2d} {rate.method}/{rate.dgf} on {rate.label}: "
              f"{rows[-1]['us_per_iter']:.1f} us/iteration", flush=True)
    report = {
        "commit": git_describe(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "openblas_num_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "cores": os.cpu_count(),
        "criterion_trace_s": {key: round(value, 3) for key, value in criteria.items()},
        "rows": rows,
    }
    path = ROOT / "BENCH_acceptance.json"
    path.write_text(json.dumps(report, indent=1) + "\n")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
