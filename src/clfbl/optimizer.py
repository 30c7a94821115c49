"""Reliability-optimal uplink blocklength allocation.

The loop error eps_cl = eps_ul + eps_dl is convex on the feasible domain
while both links are above their capacity thresholds (decoding argument
x > 0, eps < 1/2), so the continuous optimum follows from the sign of its
first derivative g at the bounds: left bound if g(n_lo) >= 0, right bound
if g(n_hi) <= 0, otherwise the unique interior root of g, found by
bisection on one plain-float sign kernel per solve
(``derivatives._sign_kernel``; ``d_eps_cl_sign`` is that kernel at one
point).  The integer allocation is the better neighbour of the continuous
optimum, ranked by log eps_cl on the numpy backend, where the floor and
ceil take the bits the oracle's array gives them, so the choice is the
oracle's, the smaller n on a tie.  The error rates come from the
decoding arguments at that allocation on the ``math`` backend;
per-direction error-rate caps are checked afterwards without altering
the allocation.

At or below a threshold the Q tail turns concave.  ``solve`` decides the
regime up front, in closed form: x has the sign of n*C - d, which is
smallest for the uplink at n_lo and positive for the downlink only below
n_ul = n_max - d/C_dl.  Unless both are positive at n_lo, it takes the
exhaustive integer argmin of log eps_cl (the oracle's code path), reports
the case as ``EXHAUSTIVE`` and names the link in its notes.  Otherwise it
bisects below the downlink's threshold, past which eps_dl > 1/2; the
answer stands when its eps_cl, read off the ranking's key, is at most
1/2, and the exhaustive argmin decides when it is not.
``optimize_continuous`` itself raises ``RuntimeError`` on a sign pattern
that convexity rules out.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace

import numpy as np

from .fbl import (
    SystemConfig,
    _channel,
    _code,
    _log_eps_of,
    loop_reliability,
    q_function,
)
from .energy import DomainBounds, Infeasible, feasible_domain, ul_power_of_blocklength
from .derivatives import _check_payload, _cl_log_eps, _sign_kernel

#: bisection stops once the bracketing interval is narrower than this (bits)
ROOT_INTERVAL_TOL = 1e-6

#: most integers ``grid_search_oracle`` evaluates in one array pass
_ORACLE_CHUNK = 1 << 16


class OptimizerCase(enum.Enum):
    """Which branch of the boundary-derivative test located the optimum, or
    ``EXHAUSTIVE`` where ``solve``'s regime test left it to the oracle."""

    LEFT_BOUNDARY = "left"
    RIGHT_BOUNDARY = "right"
    INTERIOR_ROOT = "interior"
    EXHAUSTIVE = "exhaustive"


@dataclass(frozen=True)
class ContinuousSolution:
    n_ul: float
    case: OptimizerCase
    iterations: int
    notes: tuple[str, ...] = ()


@dataclass(frozen=True)
class SolveResult:
    """Optimal allocation with achieved error rates and reliability.

    Where ``solve`` cuts the bisection bracket at the downlink threshold,
    ``case`` and ``n_ul_cont`` refer to [n_lo, min(n_hi, n_max - d/C_dl)].
    """

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

    This is the bisection step of :func:`solve`, which is the entry point:
    it has no regime test of its own, so where a link is at or below its
    capacity threshold it can return a point far from the integer argmin
    (``INTERIOR_ROOT`` at 596.7 on d=21, E=3.32e-8, p_dl=1.133e-9,
    N=5.696e-6, n_max=893, where ``solve`` and the oracle give 91).

    Raises RuntimeError when the derivative is positive at the left
    bound and negative at the right, which convexity rules out.
    """
    dom = feasible_domain(cfg) if domain is None else domain
    if dom.empty:
        return Infeasible("empty blocklength domain", dom)
    # every bisection point lies between the two checked bounds
    _check_payload(cfg, dom.n_lo)
    _check_payload(cfg, dom.n_hi)
    sign = _sign_kernel(cfg)
    s_lo = sign(dom.n_lo)
    s_hi = sign(dom.n_hi)
    if s_lo > 0 and s_hi < 0:
        # interior maximum: possible once the downlink drops below its
        # capacity threshold inside the domain (eps_cl not convex there)
        raise RuntimeError(
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
        if sign(mid) >= 0:
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


def grid_search_oracle(
    cfg: SystemConfig, domain: DomainBounds | None = None
) -> int | Infeasible:
    """Exhaustive integer argmin of eps_cl over the feasible domain.

    Evaluates every integer blocklength (in log space, so deep-tail
    values still order correctly) and returns the smallest argmin.
    Runtime is linear in the domain width; memory is not, as the
    integers are evaluated in chunks of ``_ORACLE_CHUNK``.
    """
    bounds = _integer_range(feasible_domain(cfg) if domain is None else domain)
    if isinstance(bounds, Infeasible):
        return bounds
    lo, hi = bounds
    best_n, best_v = lo, math.inf
    for start in range(lo, hi + 1, _ORACLE_CHUNK):
        values = _cl_log_eps(cfg, np.arange(start, min(start + _ORACLE_CHUNK, hi + 1),
                                            dtype=float))
        i = int(values.argmin())  # argmin keeps the first (smallest) tie
        if values[i] < best_v:  # and so does a strict minimum across chunks
            best_n, best_v = start + i, values[i]
    return best_n


def _point(cfg: SystemConfig, eta: float, channel_dl: tuple, n: float, xp=math) -> tuple:
    """(x_ul, x_dl) at n_ul = n on backend ``xp``: the decoding arguments of
    ``_channel`` and ``_code`` at the uplink SNR eta/n and at n_dl = n_max - n,
    with ``channel_dl`` the downlink's ``_channel`` on the same backend."""
    _, _, x_ul = _code(n, *_channel(eta / n, cfg.B, xp), cfg.d, xp)
    _, _, x_dl = _code(cfg.n_max - n, *channel_dl, cfg.d, xp)
    return x_ul, x_dl


def _log_cl(x_ul, x_dl):
    """log eps_cl at the decoding arguments of ``_point``.  On the numpy
    backend these are the operations of ``derivatives._cl_log_eps`` on
    scalars, so the value has the bits the oracle's array gives n."""
    return np.logaddexp(_log_eps_of(x_ul), _log_eps_of(x_dl))


def solve(cfg: SystemConfig) -> SolveResult | Infeasible:
    """End-to-end allocation: domain, continuous optimum, integer refinement.

    Returns an Infeasible marker when the domain holds no (integer)
    blocklength.  Where the regime test of the module docstring rules
    bisection out, the allocation is the exhaustive integer argmin (case
    ``EXHAUSTIVE``).  A violated error-rate cap does not change the
    returned allocation; it only clears the ``feasible`` flag.
    """
    dom = feasible_domain(cfg)
    bounds = _integer_range(dom)
    if isinstance(bounds, Infeasible):
        return bounds
    lo, hi = bounds
    gamma_dl = cfg.gamma_dl
    channel_dl = _channel(gamma_dl, cfg.B)
    # x has the sign of n*C - d: the uplink's is smallest at n_lo, and the
    # downlink's is positive only below n_ul = n_max - d/C_dl
    x_ul, x_dl = _point(cfg, dom.eta, channel_dl, dom.n_lo)
    if x_ul > 0.0 and x_dl > 0.0:
        top = min(dom.n_hi, max(dom.n_lo, cfg.n_max - cfg.d / channel_dl[0]))
        cont = optimize_continuous(cfg, dom if top == dom.n_hi else replace(dom, n_hi=top))
        # floor and ceil of a point in [n_lo, n_hi] lie in [lo - 1, hi + 1]
        a, b = max(math.floor(cont.n_ul), lo), min(math.ceil(cont.n_ul), hi)
        # the key is log eps_cl on the oracle's backend, read where it is used
        key = {}
        if a != b or top < dom.n_hi:
            channel_np = _channel(gamma_dl, cfg.B, np)
            key = {n: _log_cl(*_point(cfg, dom.eta, channel_np, n, np)) for n in {a, b}}
        n_ul = a if a == b or key[a] <= key[b] else b
        # past top, eps_dl > 1/2: the bisection's answer stands if it beats that
        why = None
        if top < dom.n_hi and not key[n_ul] <= math.log(0.5):
            why = (f"downlink at or below the capacity threshold past n_ul={top!r}, "
                   "and eps_cl above 1/2 before it")
    else:
        below = " and ".join(f"{link} (x={x:.6g})" for link, x in
                             (("uplink", x_ul), ("downlink", x_dl)) if not x > 0.0)
        why = (f"{below} at or below the capacity threshold at n_lo={dom.n_lo!r}, "
               "where the loop error need not be convex")
    if why:
        n_ul = grid_search_oracle(cfg, dom)
        cont = ContinuousSolution(
            float(n_ul), OptimizerCase.EXHAUSTIVE, 0,
            (f"{why}; took the exhaustive integer argmin over [{lo}, {hi}]",),
        )
    # reported on the math backend, whose bits the golden fixtures pin
    x_ul, x_dl = _point(cfg, dom.eta, channel_dl, n_ul)
    eps_ul, eps_dl = q_function(x_ul), q_function(x_dl)
    return SolveResult(
        n_ul_cont=cont.n_ul,
        n_ul=n_ul,
        n_dl=cfg.n_max - n_ul,
        p_ul=ul_power_of_blocklength(cfg, n_ul),
        eps_ul=eps_ul,
        eps_dl=eps_dl,
        eps_cl=eps_ul + eps_dl,
        r_loop=loop_reliability(eps_ul, eps_dl),
        case=cont.case,
        feasible=not (eps_ul > cfg.eps_max or eps_dl > cfg.eps_max),
        iterations=cont.iterations,
        notes=cont.notes,
    )
