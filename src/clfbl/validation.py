"""Self-check suites: oracle agreement on a concrete scenario.

Each suite pits an implementation path against an independent one
(analytic derivatives against finite differences, the bisection solver
against exhaustive integer search, the analytic loop reliability against
a seeded Monte Carlo run) and reports its worst residual.  On an
infeasible scenario every suite is skipped rather than failed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import derivatives as da
from .fbl import SystemConfig
from .energy import Infeasible, feasible_domain
from .experiments import monte_carlo_validate
from .optimizer import SolveResult, grid_search_oracle, solve

#: analytic-vs-FD comparisons only make sense while eps is far from
#: saturating; past this decoding argument the relative error of a
#: finite difference of eps is dominated by underflow.
WELL_CONDITIONED_X = 8.0

FD_RELATIVE_TOL = 1e-6


@dataclass(frozen=True)
class SuiteResult:
    name: str
    status: str  # "pass" | "fail" | "skipped"
    detail: str

    @property
    def failed(self) -> bool:
        return self.status == "fail"


def _skip_all(reason: str) -> list[SuiteResult]:
    names = (
        "derivative_fidelity",
        "convexity_scan",
        "optimizer_vs_oracle",
        "monte_carlo",
        "approximation_gap",
    )
    return [SuiteResult(n, "skipped", f"infeasible: {reason}") for n in names]


def derivative_fidelity_suite(cfg: SystemConfig, grid_points: int = 101) -> SuiteResult:
    """Analytic first derivatives vs the finite-difference oracle.

    Checked at every well-conditioned grid point (|x| <= 8) of a uniform
    domain grid, separately for the uplink and downlink terms.
    """
    dom = feasible_domain(cfg)
    grid = np.linspace(dom.n_lo, dom.n_hi, grid_points)
    worst = 0.0
    checked = 0
    for n in grid:
        n = float(n)
        # keep the downlink stencil at n_dl > 0 even at the right edge
        h = min(max(1e-4, 1e-3 * n), (cfg.n_max - n) / 4.0)
        ul = da.ul_state(cfg, n)
        if abs(ul.x) <= WELL_CONDITIONED_X:
            fd = da.fd_derivative(lambda m: float(da._ul_eps(cfg, m)), n, 1, h=h)
            err = abs(da.d_eps_ul_dn(cfg, n) - fd) / max(1.0, abs(fd))
            worst = max(worst, err)
            checked += 1
        dl = da.dl_state(cfg, n)
        if abs(dl.x) <= WELL_CONDITIONED_X:
            fd = da.fd_derivative(lambda m: float(da._dl_eps(cfg, m)), n, 1, h=h)
            err = abs(da.d_eps_dl_dn(cfg, n) - fd) / max(1.0, abs(fd))
            worst = max(worst, err)
            checked += 1
    if checked == 0:
        return SuiteResult(
            "derivative_fidelity", "skipped",
            "no well-conditioned grid points (|x| <= 8) in this scenario",
        )
    status = "pass" if worst <= FD_RELATIVE_TOL else "fail"
    return SuiteResult(
        "derivative_fidelity", status,
        f"worst relative error {worst:.3e} over {checked} checks "
        f"(tolerance {FD_RELATIVE_TOL:.0e})",
    )


def convexity_suite(scan: da.ScanReport | Infeasible) -> SuiteResult:
    """Structural properties the optimizer relies on, over the domain grid.

    Fails on any loss of eps_cl convexity or of the strict downlink
    increase.  Non-monotonicity of eps_ul alone is reported but does not
    fail the suite: the uplink error legitimately turns upward near the
    0 dB bound for large enough eta, and the solver only needs convexity
    of the sum.
    """
    if isinstance(scan, Infeasible):
        return SuiteResult("convexity_scan", "skipped", f"infeasible: {scan.reason}")
    if scan.convex_ok and scan.dl_monotone_ok:
        worst = float(np.min(scan.convexity_indicator))
        ul_note = (
            ""
            if scan.ul_monotone_ok
            else f"; eps_ul turns upward on {len(scan.violations_of('ul_not_nonincreasing'))} "
            "grid intervals near the 0 dB bound (expected for this eta)"
        )
        return SuiteResult(
            "convexity_scan", "pass",
            f"eps_cl convex and eps_dl strictly increasing on {len(scan.n_ul)} "
            f"points (smallest convexity indicator {worst:.3e}){ul_note}",
        )
    hard = scan.violations_of("cl_second_derivative_not_positive") + scan.violations_of(
        "dl_not_strictly_increasing"
    )
    first = hard[0]
    return SuiteResult(
        "convexity_scan", "fail",
        f"{len(hard)} violations, first: {first.kind} at "
        f"n_ul={first.n_ul:.6g} (value {first.value:.3e})",
    )


def optimizer_suite(cfg: SystemConfig, result: SolveResult | Infeasible) -> SuiteResult:
    """Bisection solver vs exhaustive integer search (ties by objective)."""
    oracle = grid_search_oracle(cfg)
    if isinstance(result, Infeasible) or isinstance(oracle, Infeasible):
        reason = result.reason if isinstance(result, Infeasible) else oracle.reason
        return SuiteResult("optimizer_vs_oracle", "skipped", f"infeasible: {reason}")
    if result.n_ul == oracle:
        return SuiteResult(
            "optimizer_vs_oracle", "pass", f"both chose n_ul={oracle}"
        )
    gap = abs(
        da.loop_log_error(cfg, result.n_ul) - da.loop_log_error(cfg, oracle)
    )
    if gap == 0.0:
        return SuiteResult(
            "optimizer_vs_oracle", "pass",
            f"tied objectives at n_ul={result.n_ul} and {oracle}",
        )
    return SuiteResult(
        "optimizer_vs_oracle", "fail",
        f"solver chose {result.n_ul}, oracle {oracle} "
        f"(log-objective gap {gap:.3e})",
    )


def monte_carlo_suite(
    cfg: SystemConfig, result: SolveResult | Infeasible, trials: int, seed: int
) -> SuiteResult:
    """Analytic loop reliability inside the simulated confidence interval."""
    if isinstance(result, Infeasible):
        return SuiteResult("monte_carlo", "skipped", f"infeasible: {result.reason}")
    mc = monte_carlo_validate(cfg, result.n_ul, trials, seed)
    inside = mc.contains_analytic()
    return SuiteResult(
        "monte_carlo", "pass" if inside else "fail",
        f"analytic r_loop={mc.analytic_r_loop:.9f} vs estimate "
        f"{mc.estimate:.9f} in 99% CI [{mc.ci_low:.9f}, {mc.ci_high:.9f}] "
        f"({trials} trials, seed {seed})",
    )


def approximation_gap_suite(scan: da.ScanReport | Infeasible) -> SuiteResult:
    """Additive-error audit: 1 - (1-a)(1-b) - (a+b) = -a*b up to rounding,
    and a*b negligible against a+b in the operating region."""
    if isinstance(scan, Infeasible):
        return SuiteResult("approximation_gap", "skipped", f"infeasible: {scan.reason}")
    a, b = scan.eps_ul, scan.eps_dl
    eps_cl = a + b
    r_loop = (1.0 - a) * (1.0 - b)
    product = a * b
    dominant = np.flatnonzero((eps_cl < 0.1) & (product > 1e-2 * eps_cl))
    if dominant.size:
        i = dominant[0]
        return SuiteResult(
            "approximation_gap", "fail",
            f"eps_ul*eps_dl={product[i]:.3e} not small against eps_cl={eps_cl[i]:.3e}",
        )
    residual = np.abs((1.0 - r_loop) - eps_cl + product)
    scale = np.maximum(np.maximum(1.0, 1.0 - r_loop), eps_cl)
    worst = float(np.max(residual / scale))
    status = "pass" if worst <= 1e-15 else "fail"
    return SuiteResult(
        "approximation_gap", status,
        f"worst identity residual {worst:.3e} (tolerance 1e-15)",
    )


def run_validation(
    cfg: SystemConfig, trials: int = 1_000_000, seed: int = 0,
    grid_points: int = 200,
) -> list[SuiteResult]:
    """Run every suite; an empty domain skips them all.

    The scan and the solve are computed once and shared by the suites
    that read them.
    """
    dom = feasible_domain(cfg)
    if dom.empty:
        return _skip_all("empty blocklength domain")
    scan = da.convexity_scan(cfg, grid_points)
    result = solve(cfg)
    return [
        derivative_fidelity_suite(cfg),
        convexity_suite(scan),
        optimizer_suite(cfg, result),
        monte_carlo_suite(cfg, result, trials, seed),
        approximation_gap_suite(scan),
    ]
