"""Reliability-optimal uplink blocklength allocation.

The loop error eps_cl = eps_ul + eps_dl is convex on the feasible
domain whenever the downlink stays above its capacity threshold
(x_dl > 0 throughout), so the continuous optimum follows from the sign
of its first derivative g at the bounds: left bound if g(n_lo) >= 0,
right bound if g(n_hi) <= 0, otherwise the unique interior root of g,
found by bisection on the plain-float ``d_eps_cl_sign``.  The integer
allocation is the best of the two neighbors of the continuous optimum and
the two boundary integers, from one array evaluation of the loop error;
per-direction error-rate caps are checked afterwards without altering it.

With a downlink weak enough that eps_dl crosses 0.5 inside the domain,
eps_cl is provably non-convex (the Q tail turns concave); g can then be
positive at the left bound and negative at the right, an interior
maximum that no convex objective has.  ``optimize_continuous`` raises
``NotConvexError`` on that sign pattern instead of guessing, and
``solve`` answers it exactly: it takes the integer argmin of log eps_cl
over every blocklength in [ceil(n_lo), floor(n_hi)] (the exhaustive
oracle's code path), reports the case as ``EXHAUSTIVE`` and says so in
its notes.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .fbl import SystemConfig, loop_reliability
from .energy import DomainBounds, Infeasible, feasible_domain, ul_power_of_blocklength
from .derivatives import (
    _cl_log_eps,
    d_eps_cl_sign,
    dl_state,
    ul_state,
)

#: bisection stops once the bracketing interval is narrower than this (bits)
ROOT_INTERVAL_TOL = 1e-6


class OptimizerCase(enum.Enum):
    """Which branch of the boundary-derivative test located the optimum."""

    LEFT_BOUNDARY = "left"
    RIGHT_BOUNDARY = "right"
    INTERIOR_ROOT = "interior"
    EXHAUSTIVE = "exhaustive"


class NotConvexError(RuntimeError):
    """The boundary derivative signs contradict convexity of eps_cl."""


@dataclass(frozen=True)
class ContinuousSolution:
    n_ul: float
    case: OptimizerCase
    iterations: int
    notes: tuple[str, ...] = ()


@dataclass(frozen=True)
class FeasibilityReport:
    feasible: bool
    violations: tuple[str, ...]


@dataclass(frozen=True)
class SolveResult:
    """Optimal allocation with achieved error rates and reliability."""

    n_ul_cont: float
    n_ul: int
    n_dl: float
    p_ul: float
    eps_ul: float
    eps_dl: float
    eps_cl: float
    r_loop: float
    case: OptimizerCase
    feasible: bool
    iterations: int
    notes: tuple[str, ...] = ()


def optimize_continuous(
    cfg: SystemConfig, domain: DomainBounds | None = None
) -> ContinuousSolution | Infeasible:
    """Locate the continuous minimizer of eps_cl over the feasible domain.

    Raises NotConvexError when the derivative is positive at the left
    bound and negative at the right, which convexity rules out.
    """
    dom = feasible_domain(cfg) if domain is None else domain
    if dom.empty:
        return Infeasible("empty blocklength domain", dom)
    s_lo = d_eps_cl_sign(cfg, dom.n_lo)
    s_hi = d_eps_cl_sign(cfg, dom.n_hi)
    if s_lo > 0 and s_hi < 0:
        # interior maximum: possible once the downlink drops below its
        # capacity threshold inside the domain (eps_cl not convex there)
        raise NotConvexError(
            "derivative positive at the left bound and negative at the right "
            "contradicts convexity of the loop error on "
            f"[{dom.n_lo!r}, {dom.n_hi!r}]"
        )
    if s_lo >= 0:
        notes = ()
        if s_hi <= 0:
            notes = (
                "derivative test matched both boundary cases (numerically "
                "flat objective); left bound preferred",
            )
        return ContinuousSolution(dom.n_lo, OptimizerCase.LEFT_BOUNDARY, 0, notes)
    if s_hi <= 0:
        return ContinuousSolution(dom.n_hi, OptimizerCase.RIGHT_BOUNDARY, 0)

    # g(n_lo) < 0 < g(n_hi): bisect the sign change.  Signs are evaluated
    # in log space, so the bracket stays meaningful even where both error
    # rates underflow double precision.
    lo, hi = dom.n_lo, dom.n_hi
    iterations = 0
    while hi - lo > ROOT_INTERVAL_TOL:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:  # interval below float resolution
            break
        iterations += 1
        if d_eps_cl_sign(cfg, mid) >= 0:
            hi = mid
        else:
            lo = mid
    return ContinuousSolution(
        0.5 * (lo + hi), OptimizerCase.INTERIOR_ROOT, iterations
    )


def _integer_range(dom: DomainBounds) -> tuple[int, int] | Infeasible:
    """[ceil(n_lo), floor(n_hi)], or Infeasible when it holds no integer."""
    if dom.empty:
        return Infeasible("empty blocklength domain", dom)
    lo, hi = math.ceil(dom.n_lo), math.floor(dom.n_hi)
    if lo > hi:
        return Infeasible(f"no integer blocklength in [{dom.n_lo!r}, {dom.n_hi!r}]", dom)
    return lo, hi


def _neighbours(n_ul_cont: float, lo: int, hi: int) -> set[int]:
    """floor and ceil of n_ul_cont, clamped into [lo, hi]."""
    return {min(max(math.floor(n_ul_cont), lo), hi), min(max(math.ceil(n_ul_cont), lo), hi)}


def _best_integer(cfg: SystemConfig, candidates: set[int]) -> int:
    """The candidate minimizing (log eps_cl, n) in one array evaluation, which
    gives the same bits as ``loop_log_error`` at each element."""
    ns = sorted(candidates)
    values = _cl_log_eps(cfg, np.array(ns, dtype=float)).tolist()
    return min(zip(values, ns))[1]


def refine_integer(
    cfg: SystemConfig, n_ul_cont: float, domain: DomainBounds | None = None
) -> int | Infeasible:
    """Integer blocklength minimizing eps_cl among the neighbors of n_ul_cont.

    Candidates floor/ceil are clamped into [ceil(n_lo), floor(n_hi)] so
    the convexity preconditions stay intact; ties break toward the
    smaller blocklength.
    """
    bounds = _integer_range(feasible_domain(cfg) if domain is None else domain)
    if isinstance(bounds, Infeasible):
        return bounds
    return _best_integer(cfg, _neighbours(n_ul_cont, *bounds))


def grid_search_oracle(
    cfg: SystemConfig, domain: DomainBounds | None = None
) -> int | Infeasible:
    """Exhaustive integer argmin of eps_cl over the feasible domain.

    Evaluates every integer blocklength (in log space, so deep-tail
    values still order correctly) and returns the smallest argmin.
    Runtime is linear in the domain width.
    """
    bounds = _integer_range(feasible_domain(cfg) if domain is None else domain)
    if isinstance(bounds, Infeasible):
        return bounds
    lo, hi = bounds
    candidates = np.arange(lo, hi + 1, dtype=float)
    values = _cl_log_eps(cfg, candidates)
    return lo + int(np.argmin(values))  # argmin keeps the first (smallest) tie


def check_feasibility(result: SolveResult, cfg: SystemConfig) -> FeasibilityReport:
    """Check the per-direction error-rate caps on an existing allocation."""
    return _feasibility(result.eps_ul, result.eps_dl, cfg.eps_max)


def _feasibility(eps_ul: float, eps_dl: float, eps_max: float) -> FeasibilityReport:
    violations = []
    if eps_ul > eps_max:
        violations.append("UL")
    if eps_dl > eps_max:
        violations.append("DL")
    return FeasibilityReport(not violations, tuple(violations))


def solve(cfg: SystemConfig) -> SolveResult | Infeasible:
    """End-to-end allocation: domain, continuous optimum, integer refinement.

    Returns an Infeasible marker when the domain holds no (integer)
    blocklength.  Where the boundary signs contradict convexity, the
    allocation is the exhaustive integer argmin instead (case
    ``EXHAUSTIVE``).  A violated error-rate cap does not change the
    returned allocation; it only clears the ``feasible`` flag.
    """
    dom = feasible_domain(cfg)
    bounds = _integer_range(dom)
    if isinstance(bounds, Infeasible):
        return bounds
    try:
        cont = optimize_continuous(cfg, dom)
    except NotConvexError as exc:
        cont = ContinuousSolution(
            float(grid_search_oracle(cfg, dom)),
            OptimizerCase.EXHAUSTIVE,
            0,
            (f"{exc}; took the exhaustive integer argmin over "
             f"[{bounds[0]}, {bounds[1]}]",),
        )
    # the integer neighbours of the continuous optimum plus a boundary
    # guard: a no-op under convexity, but protects the weak-downlink
    # regime where an interior root need not be the global minimum
    n_ul = _best_integer(cfg, _neighbours(cont.n_ul, *bounds) | set(bounds))
    ul = ul_state(cfg, n_ul)
    dl = dl_state(cfg, n_ul)
    report = _feasibility(ul.eps, dl.eps, cfg.eps_max)
    return SolveResult(
        n_ul_cont=cont.n_ul,
        n_ul=n_ul,
        n_dl=cfg.n_max - n_ul,
        p_ul=ul_power_of_blocklength(cfg, n_ul),
        eps_ul=ul.eps,
        eps_dl=dl.eps,
        eps_cl=ul.eps + dl.eps,
        r_loop=loop_reliability(ul.eps, dl.eps),
        case=cont.case,
        feasible=report.feasible,
        iterations=cont.iterations,
        notes=cont.notes,
    )
