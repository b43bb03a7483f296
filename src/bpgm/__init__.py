"""Bregman proximal gradient methods for sparse measure recovery.

Solves F(f) = R(integral of Phi f) + H(f) over densities on discretized
periodic domains, in the geometry of a chosen distance-generating
function (power, entropy or hyperbolic), with plain and accelerated
proximal gradient methods and a benchmark harness for their
convergence-rate theory.
"""

from .analysis import RateModel, fit_rate, mollify, psi_envelope, theoretical_exponent
from .dgf import (
    EntropyDgf,
    HyperbolicDgf,
    PowerDgf,
    parse_dgf,
    sc_constant,
    step_size,
)
from .grid import (
    Grid,
    ball_mass,
    circle_grid,
    dirac_density,
    geodesic_dist,
    torus_grid,
)
from .objective import (
    Problem,
    Regularizer,
    SmoothObjective,
    build_problem,
    deconv_problem,
    eval_F,
    eval_G,
    grad_potential,
    lb_problem,
    nonneg_tv,
    parse_regularizer,
    relu_problem,
    simplex,
    tv,
    tv_ball,
)
from .prox import MirrorState, bregman_step, kkt_residual, soft_threshold, solve_kappa
from .solver import SolverConfig, Trace, gamma_next, run, run_apgm, run_pgm
from .verify import CheckResult, run_all_checks

__version__ = "0.1.0"

__all__ = [
    "RateModel", "fit_rate", "mollify", "psi_envelope", "theoretical_exponent",
    "EntropyDgf", "HyperbolicDgf", "PowerDgf", "parse_dgf", "sc_constant",
    "step_size",
    "Grid", "ball_mass", "circle_grid", "dirac_density", "geodesic_dist",
    "torus_grid",
    "Problem", "Regularizer", "SmoothObjective", "build_problem",
    "deconv_problem", "eval_F", "eval_G", "grad_potential", "lb_problem",
    "nonneg_tv", "parse_regularizer", "relu_problem", "simplex", "tv", "tv_ball",
    "MirrorState", "bregman_step", "kkt_residual", "soft_threshold", "solve_kappa",
    "SolverConfig", "Trace", "gamma_next", "run", "run_apgm", "run_pgm",
    "CheckResult", "run_all_checks",
]
