from dataclasses import replace

import numpy as np
import pytest

from bpgm import (
    EntropyDgf,
    HyperbolicDgf,
    PowerDgf,
    build_problem,
    entropy_closed_form_check,
    fd_gradient_check,
    kkt_sweep,
    mirror_flow_equivalence,
    pinsker_sample,
    run_all_checks,
    torus_grid,
)
from bpgm.objective import SmoothObjective
from bpgm.verify import (
    check_entropy_closed_form,
    check_gamma_bound,
    check_kkt_sweep,
    check_pinsker,
    flow_test_problem,
)


def test_fd_gradient_check_clean():
    problem = build_problem("deconv1d", grid_size=50, lam=0.1)
    assert fd_gradient_check(problem, seed=0) <= 1e-6


def test_fd_gradient_check_catches_wrong_gradient():
    class Crooked(SmoothObjective):
        def gradient(self, weights, f):
            return 1.01 * super().gradient(weights, f)

    problem = build_problem("deconv1d", grid_size=50)
    sm = problem.smooth
    crooked = Crooked(sm.features, sm.outer, sm.feature_weights, sm.phi_lip_class)
    bad = replace(problem, smooth=crooked)
    assert fd_gradient_check(bad, seed=0) > 1e-3


def test_entropy_closed_form_check_contract():
    check = entropy_closed_form_check(torus_grid(1, 300), k_max=1000)
    assert check.checkpoints[0] == 1
    assert check.checkpoints[-1] == 1000
    result = check_entropy_closed_form(m=300, k_max=1000)
    assert result.passed, result.detail


@pytest.mark.parametrize("dgf", [PowerDgf(2.0), PowerDgf(1.5), EntropyDgf(), HyperbolicDgf()])
def test_pinsker_margins_nonnegative(dgf):
    result = check_pinsker(dgfs=(dgf,), m=80, n_samples=300, seed=1)
    assert result.passed, result.detail


def test_pinsker_catches_deflated_divergence():
    class Deflated(PowerDgf):
        def divergence_values(self, weights, f, g):
            return 0.5 * super().divergence_values(weights, f, g)

    worst = pinsker_sample(Deflated(2.0), torus_grid(1, 80), n_samples=300, seed=1)
    assert worst < -1e-6


def test_kkt_sweep_all_combinations():
    results = kkt_sweep(steps=50, m=30)
    assert {name for name, _ in results} == {"p:2", "ent", "hyp:0.001"}
    assert {kind for _, kind in results} == {"nonneg_tv", "simplex", "tv", "tv_ball"}
    result = check_kkt_sweep(steps=50, m=30)
    assert result.passed, result.detail


@pytest.mark.parametrize("variant", ["square", "diff"])
def test_mirror_flow_halving(variant):
    check = mirror_flow_equivalence(variant=variant, step=1e-3, horizon=0.5)
    assert check.gap_half < check.gap_step
    assert check.ratio == pytest.approx(2.0, abs=0.2)


def test_mirror_flow_unknown_variant():
    with pytest.raises(ValueError):
        mirror_flow_equivalence(variant="cube")


def test_flow_test_problem_shape():
    problem = flow_test_problem(m=50)
    assert problem.grid.size == 50
    assert problem.reg.lam == 0.0
    assert problem.smooth.features.shape == (1, 50)


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


def test_pinsker_check_covers_four_dgfs():
    result = check_pinsker(m=50, n_samples=20)
    assert result.passed, result.detail
    assert result.detail.startswith("4 dgfs")


def test_kkt_check_requires_twelve_combinations(monkeypatch):
    eleven = {(f"dgf{i}", "tv"): 0.0 for i in range(11)}
    monkeypatch.setattr("bpgm.verify.kkt_sweep", lambda steps, m: eleven)
    result = check_kkt_sweep(steps=5, m=30)
    assert not result.passed
    assert "11 dgf x regularizer combinations" in result.detail
