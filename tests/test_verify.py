import ast
import os
import subprocess
import sys
import warnings
from dataclasses import replace

import numpy as np
import pytest

import bpgm
from bpgm import EntropyDgf, HyperbolicDgf, PowerDgf, build_problem
from bpgm import verify
from bpgm.objective import SmoothObjective, SquaredResidual
from bpgm.verify import (
    check_entropy_closed_form,
    check_fd_gradient,
    check_gamma_bound,
    check_kkt_sweep,
    check_mirror_flow,
    check_pinsker,
    run_all_checks,
)


def _with_gradient(problem, scale_gradient):
    """The problem with its smooth gradient passed through scale_gradient."""

    class Altered(SmoothObjective):
        def gradient(self, weights, f):
            return scale_gradient(super().gradient(weights, f))

    sm = problem.smooth
    altered = Altered(sm.features, sm.outer, sm.feature_weights, sm.phi_lip_class)
    return replace(problem, smooth=altered)


def test_fd_gradient_check_clean():
    problem = build_problem("deconv1d", grid_size=50, lam=0.1)
    result = check_fd_gradient(problems={"deconv1d": problem}, seed=0)
    assert result.values["deconv1d"] <= 1e-6
    assert result.passed, result.detail


def test_fd_gradient_check_catches_wrong_gradient():
    bad = _with_gradient(build_problem("deconv1d", grid_size=50), lambda g: 1.01 * g)
    result = check_fd_gradient(problems={"deconv1d": bad}, seed=0)
    assert result.values["deconv1d"] > 1e-3
    assert not result.passed


def test_fd_gradient_check_fails_on_nan_gradient():
    def one_nan(g):
        g = g.copy()
        g[7] = np.nan
        return g

    bad = _with_gradient(build_problem("deconv1d", grid_size=50), one_nan)
    result = check_fd_gradient(problems={"deconv1d": bad}, seed=0)
    assert not result.passed, result.detail
    assert "nan" in result.detail


def test_entropy_closed_form_check_contract():
    result = check_entropy_closed_form(m=300, k_max=1000)
    assert result.values["checkpoints"][0] == 1
    assert result.values["checkpoints"][-1] == 1000
    assert result.passed, result.detail


def test_entropy_closed_form_fails_on_a_dropped_fit_row(monkeypatch):
    # A zero or non-finite gap in the window is a failure, whatever the
    # slope of the rows that remain.
    monkeypatch.setattr("bpgm.verify.fit_loglog", lambda k, gap, window: (-1.0, 1.0, 2))
    result = check_entropy_closed_form(m=300, k_max=1000)
    assert not result.passed
    assert "2 fit rows dropped" in result.detail and result.values["dropped_rows"] == 2


@pytest.mark.parametrize("dgf", [PowerDgf(2.0), PowerDgf(1.5), EntropyDgf(), HyperbolicDgf()])
def test_pinsker_margins_nonnegative(dgf):
    result = check_pinsker(dgfs=(dgf,), m=80, n_samples=300, seed=1)
    assert result.passed, result.detail


def test_pinsker_catches_deflated_divergence():
    class Deflated(PowerDgf):
        def divergence_values(self, weights, f, g):
            return 0.5 * super().divergence_values(weights, f, g)

    result = check_pinsker(dgfs=(Deflated(2.0),), m=80, n_samples=300, seed=1)
    assert result.values["p:2"] < -1e-6
    assert not result.passed


def test_pinsker_fails_on_nan_divergence():
    class NanDivergence(PowerDgf):
        def divergence_values(self, weights, f, g):
            return np.nan

    result = check_pinsker(dgfs=(NanDivergence(2.0),), m=80, n_samples=300, seed=1)
    assert not result.passed, result.detail
    assert "worst margin nan" in result.detail


def test_kkt_sweep_all_combinations():
    result = check_kkt_sweep(steps=50, m=30)
    assert {name for name, _ in result.values} == {"p:2", "ent", "hyp:0.001"}
    assert {kind for _, kind in result.values} == {"nonneg_tv", "simplex", "tv", "tv_ball"}
    assert result.passed, result.detail


@pytest.mark.parametrize("variant", ["square", "diff"])
def test_mirror_flow_halving(variant):
    result = check_mirror_flow(variant, horizon=0.5)
    gap_step, gap_half = result.values["gap_step"], result.values["gap_half"]
    assert gap_half < gap_step
    assert gap_step / gap_half == pytest.approx(2.0, abs=0.2)


def test_mirror_flow_unknown_variant():
    with pytest.raises(ValueError):
        check_mirror_flow("cube")


@pytest.mark.parametrize("variant", ["square", "diff"])
def test_mirror_flow_blow_up_fails_the_check(variant, monkeypatch):
    # A 2e5-fold steeper quadratic: explicit Euler at step 1e-3 diverges.
    lb_problem = verify.lb_problem

    def steep_problem(grid, setting):
        problem = lb_problem(grid, setting)
        sm = problem.smooth
        steep = SmoothObjective(
            sm.features, SquaredResidual(np.zeros(1), scale=1e5), phi_lip_class=sm.phi_lip_class
        )
        return replace(problem, smooth=steep)

    monkeypatch.setattr(verify, "lb_problem", steep_problem)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = check_mirror_flow(variant)
    assert not result.passed
    assert result.detail == "flow blow-up at step 0.001"


def test_gamma_bound_check_short():
    result = check_gamma_bound(k_max=5000)
    assert result.passed, result.detail


def test_run_all_checks_fast():
    results = run_all_checks(seed=0, fast=True)
    names = [r.name for r in results]
    assert len(names) == len(set(names)) == 7
    for r in results:
        assert r.passed, f"{r.name}: {r.detail}"
        assert r.detail
        assert r.values


def test_pinsker_check_covers_four_dgfs():
    result = check_pinsker(m=50, n_samples=20)
    assert result.passed, result.detail
    assert result.detail.startswith("4 dgfs")
    assert set(result.values) == {"p:2", "p:1.5", "ent", "hyp:0.001"}


def test_kkt_check_requires_twelve_combinations():
    result = check_kkt_sweep(steps=5, m=30, dgfs=(PowerDgf(2.0), EntropyDgf()))
    assert len(result.values) == 8
    assert not result.passed
    assert "8 dgf x regularizer combinations" in result.detail


def test_package_exports():
    names = bpgm.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert getattr(bpgm, name) is not None
    raw = {
        "fd_gradient_check", "entropy_closed_form_check", "kkt_sweep",
        "pinsker_sample", "mirror_flow_equivalence", "gamma_bound_check",
    }
    assert not raw & set(names)
    assert not any(hasattr(verify, name) for name in raw | {"EntropyCheck", "FlowCheck"})


def test_import_bpgm_leaves_the_oracle_suite_and_cli_unloaded():
    code = "import sys, bpgm; print(sorted(m for m in sys.modules if m.startswith('bpgm')))"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    loaded = ast.literal_eval(out)
    assert "bpgm.solver" in loaded
    assert "bpgm.verify" not in loaded and "bpgm.cli" not in loaded
