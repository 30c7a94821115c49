"""Case study, noise sweeps, and the Monte Carlo oracle.

The sweep covers the noise power range (0, p_dl) on a logarithmic grid
with inclusive endpoints p_dl*1e-4 and p_dl*(1-1e-3); per noise level it
records the feasible domain, the solved allocation, and a grid scan of
the loop error and its derivative structure.  The scans of all levels
run as a few 2-D array passes, one per block of whole levels
(:func:`~clfbl.derivatives.scan_levels`); each level is solved on its
own, by the scalar bisection.  The seeded Monte Carlo simulation draws
coins with the error rates it is given (``validate`` passes the
solver's); what it checks is the sequential two-coin loop, an uplink
coin and then a downlink coin only after an uplink success, against the
closed form (1-a)(1-b), with one binomial draw per coin count whatever
the number of trials.  The exhaustive integer oracle lives in
:mod:`clfbl.optimizer`, which also answers with it where a link is not
above its capacity threshold.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, fields, replace

import numpy as np

from .fbl import SystemConfig, loop_reliability
from .energy import DomainBounds, Infeasible, feasible_domain
from .derivatives import ScanReport, convexity_scan, scan_levels
from .optimizer import SolveResult, solve

#: RNG algorithm of the Monte Carlo draws, recorded in the sweep and
#: case-study metadata
GENERATOR_ID = "numpy.random.Generator(PCG64)"

#: normal quantile for a two-sided 99% confidence interval
_Z99 = 2.5758293035489004


@dataclass(frozen=True)
class SweepRecord:
    """Everything recorded for one noise level of a sweep."""

    noise: float
    domain: DomainBounds
    result: SolveResult | Infeasible
    scan: ScanReport | Infeasible


def record_at_noise(cfg: SystemConfig, grid_points: int) -> SweepRecord:
    """Sweep record for cfg's own noise level."""
    return _record(cfg, convexity_scan(cfg, grid_points))


def _record(cfg: SystemConfig, scan: ScanReport | Infeasible) -> SweepRecord:
    dom = feasible_domain(cfg)
    if isinstance(scan, Infeasible):
        return SweepRecord(cfg.N, dom, scan, scan)
    return SweepRecord(cfg.N, dom, solve(cfg), scan)


def noise_grid(p_dl: float, n_points: int) -> np.ndarray:
    """Logarithmic noise grid strictly inside (0, p_dl), endpoints inclusive."""
    if n_points < 2:
        raise ValueError(f"n_points must be >= 2, got {n_points!r}")
    return np.geomspace(p_dl * 1e-4, p_dl * (1.0 - 1e-3), n_points)


def sweep_noise(cfg: SystemConfig, n_points: int, grid_points: int) -> list[SweepRecord]:
    """Per-noise records over the standard (0, p_dl) logarithmic grid;
    the levels are scanned together, then solved one by one.  A level
    that the model rejects is named as a level of the sweep."""
    if n_points < 2:
        raise ValueError(f"sweep_points must be >= 2, got {n_points!r}")
    cfgs = []
    for noise in noise_grid(cfg.p_dl, n_points).tolist():
        try:
            cfgs.append(replace(cfg, N=noise))
        except ValueError as exc:
            raise ValueError(f"{exc} (N={noise!r} is a noise level of the "
                             "sweep over [p_dl*1e-4, p_dl*(1-1e-3)])") from exc
    return [_record(c, scan) for c, scan in zip(cfgs, scan_levels(cfgs, grid_points))]


@dataclass(frozen=True)
class MonteCarloResult:
    estimate: float
    ci_low: float
    ci_high: float
    analytic_r_loop: float

    def contains_analytic(self) -> bool:
        return self.ci_low <= self.analytic_r_loop <= self.ci_high


#: largest trial count: numpy's binomial sampler takes its count as an int64
MAX_TRIALS = 2**63 - 1


def check_trials(trials: int) -> None:
    """Reject a trial count outside [1, MAX_TRIALS], naming ``trials``."""
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials!r}")
    if trials > MAX_TRIALS:
        raise ValueError(f"trials must be <= 2**63 - 1, got {trials!r}")


def monte_carlo_validate(
    eps_ul: float, eps_dl: float, trials: int, seed: int
) -> MonteCarloResult:
    """Simulate the closed loop as sequential biased coin flips with the
    per-link error rates eps_ul and eps_dl, checked to lie in [0, 1]
    before anything is drawn.

    Each trial first draws the uplink decoding outcome; the downlink coin
    is drawn only for trials whose uplink succeeded (the product law
    makes this equivalent to unconditional simulation).  The coin counts
    are drawn from their exact law, Binomial(trials, 1-eps_ul) and then
    Binomial(uplink successes, 1-eps_dl), by numpy's binomial sampler
    (BTPE), so time and memory do not depend on ``trials``.  The suite
    checks the loop law and the generator, not the error model.  Returns
    the success fraction with a 99% normal-approximation confidence
    interval clipped to [0, 1]; at estimates of exactly 0 or 1, where the
    normal interval degenerates to a point, the exact Clopper-Pearson
    bound is substituted.  Deterministic for a given seed.
    """
    check_trials(trials)
    analytic = loop_reliability(eps_ul, eps_dl)
    rng = np.random.default_rng(seed)
    n_ul_ok = rng.binomial(trials, 1.0 - eps_ul)
    loop_ok = rng.binomial(n_ul_ok, 1.0 - eps_dl)
    estimate = loop_ok / trials
    if estimate == 0.0:
        ci_low, ci_high = 0.0, 1.0 - 0.005 ** (1.0 / trials)
    elif estimate == 1.0:
        ci_low, ci_high = 0.005 ** (1.0 / trials), 1.0
    else:
        half = _Z99 * math.sqrt(estimate * (1.0 - estimate) / trials)
        ci_low, ci_high = max(0.0, estimate - half), min(1.0, estimate + half)
    return MonteCarloResult(estimate, ci_low, ci_high, analytic)


def config_digest(cfg: SystemConfig) -> str:
    """Stable hash of a configuration, for sweep metadata."""
    parts = ",".join(f"{f.name}={getattr(cfg, f.name)!r}" for f in fields(cfg))
    return hashlib.sha256(parts.encode()).hexdigest()[:16]
