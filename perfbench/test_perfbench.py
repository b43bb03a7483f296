"""Smoke tests of the benchmark itself: quick mode on every workload.

Each run is a subprocess so that the traced run's patches of bpgm never
reach the interpreter running the rest of the test suite.
"""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _quick(workload, trace):
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "1",
         "--seconds", "0.1", "--trace", str(trace), "--quick"],
        capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == 0, out.stderr
    return out.stdout.splitlines()


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_quick_prints_every_metric_with_its_unit(workload, trace):
    lines = _quick(workload, trace)
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    printed = {line.split()[0]: line.split()[-1] for line in lines[1:-1] if line.startswith("  ")}
    for m in wanted:
        assert printed.get(m["name"]) == m["unit"], m["name"]
    assert any(line.startswith("environment ") for line in lines)


def test_relu_with_noise_matches_bpgm_seeded_relu():
    sys.path.insert(0, str(ROOT / "src"))
    import bpgm
    from bench_workloads import RELU_SAMPLES, relu_with_noise

    noise = np.random.default_rng(0).uniform(-1.0, 1.0, RELU_SAMPLES)
    ours = relu_with_noise(bpgm, 200, noise)
    theirs = bpgm.build_problem("relu", grid_size=200, seed=0)
    f = np.linspace(0.5, 1.5, 200)
    assert bpgm.eval_F(ours, f) == bpgm.eval_F(theirs, f)
    assert np.array_equal(bpgm.grad_potential(ours, f), bpgm.grad_potential(theirs, f))
    assert ours.k_bound_hint == theirs.k_bound_hint
