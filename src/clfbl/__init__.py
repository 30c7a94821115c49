"""Closed-loop finite-blocklength reliability modeling and allocation.

A closed loop (uplink request + downlink response) must finish within a
shared blocklength budget while the uplink spends a fixed energy budget.
This package models the per-link finite-blocklength error rates, couples
uplink power to blocklength through the energy budget, and solves for
the reliability-optimal split of the frame, with sweep/validation
tooling and a CLI on top.
"""

from .fbl import LinkState, SystemConfig, loop_reliability, q_function
from .energy import (
    DomainBounds,
    Infeasible,
    UpperBound,
    feasible_domain,
    ul_power_of_blocklength,
)
from .derivatives import (
    ScanReport,
    convexity_scan,
    d_eps_cl_dn,
    d_eps_cl_sign,
    fd_derivative,
    loop_log_error,
)
from .optimizer import (
    OptimizerCase,
    SolveResult,
    grid_search_oracle,
    optimize_continuous,
    solve,
)
from .experiments import (
    MonteCarloResult,
    SweepRecord,
    monte_carlo_validate,
    noise_grid,
    sweep_noise,
)
from .scenario import Scenario, ScenarioError, load_scenario, parse_scenario

__version__ = "0.1.0"

__all__ = [
    "LinkState",
    "SystemConfig",
    "loop_reliability",
    "q_function",
    "DomainBounds",
    "Infeasible",
    "UpperBound",
    "feasible_domain",
    "ul_power_of_blocklength",
    "ScanReport",
    "convexity_scan",
    "d_eps_cl_dn",
    "d_eps_cl_sign",
    "fd_derivative",
    "loop_log_error",
    "OptimizerCase",
    "SolveResult",
    "optimize_continuous",
    "solve",
    "MonteCarloResult",
    "SweepRecord",
    "grid_search_oracle",
    "monte_carlo_validate",
    "noise_grid",
    "sweep_noise",
    "Scenario",
    "ScenarioError",
    "load_scenario",
    "parse_scenario",
    "__version__",
]
