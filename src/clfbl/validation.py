"""Self-check suites: oracle agreement on a concrete scenario.

Each suite pits an implementation path against an independent one
(analytic derivatives against finite differences, the bisection solver
against exhaustive integer search, the closed-form loop reliability of
the solver's error rates against a seeded Monte Carlo run of the
two-coin loop) and reports its worst residual.  On an infeasible
scenario every suite is skipped rather than failed.

The analytic derivatives come from the array derivative kernel in
:mod:`clfbl.derivatives`, the one the grid scan reads: the numpy backend
of the same formulas the solver's sign kernel evaluates in plain floats.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import derivatives as da
from .fbl import SystemConfig
from .energy import Infeasible, feasible_domain
from .experiments import check_trials, monte_carlo_validate
from .optimizer import OptimizerCase, SolveResult, grid_search_oracle, solve

#: analytic-vs-FD comparisons only make sense while eps is far from
#: saturating; past this decoding argument the relative error of a
#: finite difference of eps is dominated by underflow.
WELL_CONDITIONED_X = 8.0

#: points of the uniform domain grid the derivative fidelity suite checks
_FIDELITY_GRID_POINTS = 101

FD_RELATIVE_TOL = 1e-6


@dataclass(frozen=True)
class SuiteResult:
    name: str
    status: str  # "pass" | "fail" | "skipped"
    detail: str

    @property
    def failed(self) -> bool:
        return self.status == "fail"


def derivative_fidelity_suite(cfg: SystemConfig) -> SuiteResult:
    """Analytic first derivatives vs the finite-difference oracle.

    Checked at every well-conditioned grid point (|x| <= 8) of a uniform
    domain grid, separately for the uplink and downlink terms.  The
    analytic side is the array derivative kernel the scan reads: one link
    evaluation over the grid, then one finite-difference pass over the
    well-conditioned points of each link.  Where neither link has such a
    point the suite is skipped straight after the link evaluation, before
    any finite difference or analytic derivative is computed.
    """
    dom = feasible_domain(cfg)
    if dom.empty:
        return SuiteResult(
            "derivative_fidelity", "skipped", "infeasible: empty blocklength domain"
        )
    grid = np.linspace(dom.n_lo, dom.n_hi, _FIDELITY_GRID_POINTS)
    ul = da._ul_link(cfg, grid)
    dl = da._dl_link(cfg, grid)
    ok_ul = np.abs(ul.x) <= WELL_CONDITIONED_X
    ok_dl = np.abs(dl.x) <= WELL_CONDITIONED_X
    if not (ok_ul.any() or ok_dl.any()):
        return SuiteResult(
            "derivative_fidelity", "skipped",
            "no well-conditioned grid points (|x| <= 8) in this scenario",
        )
    n_ul, n_dl = grid[ok_ul], grid[ok_dl]
    # the uplink stencil stays below n_max even at the right edge; a step
    # scaled to n_ul would span ~10% of a short downlink
    h_ul = da._fd_step(cfg, n_ul)
    h_dl = np.maximum(1e-4, 1e-3 * dl.n[ok_dl])
    fd_ul = da.fd_derivative(lambda m: da._ul_eps(cfg, m), n_ul, 1, h=h_ul)
    fd_dl = da.fd_derivative(lambda m: da._dl_eps(cfg, m), n_dl, 1, h=h_dl)
    fd = np.concatenate([fd_ul, fd_dl])
    analytic = np.concatenate(
        [da._ul_d_eps(cfg, ul)[0][ok_ul], da._dl_d_eps(cfg, dl)[0][ok_dl]]
    )
    checked = fd.size
    worst = float(np.max(np.abs(analytic - fd) / np.maximum(1.0, np.abs(fd))))
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
    hard = (
        ("cl_second_derivative_not_positive", scan.cl_not_convex, scan.n_ul,
         scan.convexity_indicator),
        ("dl_not_strictly_increasing", scan.dl_not_increasing, scan.n_ul[1:],
         np.diff(scan.log_eps_dl)),
    )
    count = sum(np.count_nonzero(mask) for _, mask, _, _ in hard)
    if not count:
        worst = float(np.min(scan.convexity_indicator))
        upturns = np.count_nonzero(scan.ul_upturn)
        ul_note = (
            f"; eps_ul turns upward on {upturns} grid intervals near the 0 dB "
            "bound (expected for this eta)" if upturns else ""
        )
        return SuiteResult(
            "convexity_scan", "pass",
            f"eps_cl convex and eps_dl strictly increasing on {len(scan.n_ul)} "
            f"points (smallest convexity indicator {worst:.3e}){ul_note}",
        )
    kind, mask, n_ul, value = next(h for h in hard if h[1].any())
    first = np.argmax(mask)
    return SuiteResult(
        "convexity_scan", "fail",
        f"{count} violations, first: {kind} at "
        f"n_ul={n_ul[first]:.6g} (value {value[first]:.3e})",
    )


def optimizer_suite(cfg: SystemConfig, result: SolveResult | Infeasible) -> SuiteResult:
    """Bisection solver vs exhaustive integer search (ties by objective)."""
    oracle = grid_search_oracle(cfg)
    if isinstance(result, Infeasible) or isinstance(oracle, Infeasible):
        reason = result.reason if isinstance(result, Infeasible) else oracle.reason
        return SuiteResult("optimizer_vs_oracle", "skipped", f"infeasible: {reason}")
    if result.n_ul == oracle:
        detail = f"both chose n_ul={oracle}"
        if result.case is OptimizerCase.EXHAUSTIVE:
            detail += " (the solver took the exhaustive argmin; not an independent check)"
        return SuiteResult("optimizer_vs_oracle", "pass", detail)
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
    result: SolveResult | Infeasible, trials: int, seed: int
) -> SuiteResult:
    """Closed-form loop reliability of the solver's error rates inside the
    confidence interval simulated with those rates."""
    if isinstance(result, Infeasible):
        return SuiteResult("monte_carlo", "skipped", f"infeasible: {result.reason}")
    mc = monte_carlo_validate(result.eps_ul, result.eps_dl, trials, seed)
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
    cfg: SystemConfig, trials: int, seed: int, grid_points: int
) -> list[SuiteResult]:
    """Run every suite; on an empty domain each one is skipped.

    The counts and the seed are checked first, so that they are rejected
    whether or not the domain is empty.  The scan and the solve are
    computed once and shared by the suites that read them.
    """
    check_trials(trials)
    for name, value, least in (("grid_points", grid_points, 1), ("seed", seed, 0)):
        if value < least:
            raise ValueError(f"{name} must be >= {least}, got {value!r}")
    scan = da.convexity_scan(cfg, grid_points)
    result = solve(cfg)
    return [
        derivative_fidelity_suite(cfg),
        convexity_suite(scan),
        optimizer_suite(cfg, result),
        monte_carlo_suite(result, trials, seed),
        approximation_gap_suite(scan),
    ]
