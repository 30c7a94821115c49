"""Case study, noise sweeps, and the Monte Carlo oracle.

The sweep covers the noise power range (0, p_dl) on a logarithmic grid
with inclusive endpoints p_dl*1e-4 and p_dl*(1-1e-3); per noise level it
records the feasible domain, the solved allocation, and a grid scan of
the loop error and its derivative structure.  The scans of all levels
run as a few 2-D array passes, one per block of whole levels
(:func:`~clfbl.derivatives.scan_levels`); each level is solved on its
own, by the scalar bisection.  The seeded Monte Carlo
simulation is intentionally independent of the optimizer's code path;
the exhaustive integer oracle lives in :mod:`clfbl.optimizer`, which
also answers with it where a link is not above its capacity threshold.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, fields, replace

import numpy as np

from .fbl import SystemConfig, loop_reliability
from .energy import DomainBounds, Infeasible, feasible_domain
from .derivatives import ScanReport, convexity_scan, dl_state, scan_levels, ul_state
from .optimizer import SolveResult, solve

#: RNG algorithm recorded in Monte Carlo results for reproducibility
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


def record_at_noise(cfg: SystemConfig, grid_points: int = 200) -> SweepRecord:
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


def sweep_noise(
    cfg: SystemConfig, n_points: int = 50, grid_points: int = 200
) -> list[SweepRecord]:
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
    trials: int
    seed: int
    eps_ul: float
    eps_dl: float
    analytic_r_loop: float
    generator: str = GENERATOR_ID

    def contains_analytic(self) -> bool:
        return self.ci_low <= self.analytic_r_loop <= self.ci_high


#: uniforms drawn per block where the outcome of a draw is not decided
_CHUNK = 1 << 16


def _successes(rng: np.random.Generator, draws: int, p: float) -> int:
    """Count of ``rng.random(draws) < p``, leaving rng where that leaves it.

    Outside 0 < p < 1 every uniform in [0, 1) decides the same way (a NaN
    p fails all of them, as ``u < nan`` does), so the stream is advanced
    past the draws instead: PCG64 spends one 64-bit output per double.
    Otherwise blocks of at most ``_CHUNK`` uniforms are drawn into one
    buffer, so memory does not grow with ``draws``.
    """
    if not 0.0 < p < 1.0:
        rng.bit_generator.advance(draws)
        return draws if p >= 1.0 else 0
    buf = np.empty(min(draws, _CHUNK))
    hits = 0
    for start in range(0, draws, _CHUNK):
        u = rng.random(out=buf[: min(_CHUNK, draws - start)])
        hits += int(np.count_nonzero(u < p))
    return hits


def monte_carlo_validate(
    cfg: SystemConfig, n_ul: float, trials: int, seed: int
) -> MonteCarloResult:
    """Simulate the closed loop as sequential biased coin flips.

    Each trial first draws the uplink decoding outcome; the downlink coin
    is drawn only for trials whose uplink succeeded (the product law
    makes this equivalent to unconditional simulation).  Where a success
    probability is 0 or 1 the draws are skipped by advancing the stream,
    and otherwise they are counted in fixed-size blocks, so the counts
    equal a one-shot ``rng.random(trials)`` draw from the same seed and
    memory does not depend on ``trials``.  Returns the
    success fraction with a 99% normal-approximation confidence interval;
    at estimates of exactly 0 or 1, where the normal interval degenerates
    to a point, the exact Clopper-Pearson bound is substituted.
    Deterministic for a given seed.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials!r}")
    eps_ul = ul_state(cfg, n_ul).eps
    eps_dl = dl_state(cfg, n_ul).eps
    rng = np.random.default_rng(seed)
    n_ul_ok = _successes(rng, trials, 1.0 - eps_ul)
    loop_ok = _successes(rng, n_ul_ok, 1.0 - eps_dl)
    estimate = loop_ok / trials
    if estimate == 0.0:
        ci_low, ci_high = 0.0, 1.0 - 0.005 ** (1.0 / trials)
    elif estimate == 1.0:
        ci_low, ci_high = 0.005 ** (1.0 / trials), 1.0
    else:
        half = _Z99 * math.sqrt(estimate * (1.0 - estimate) / trials)
        ci_low, ci_high = estimate - half, estimate + half
    return MonteCarloResult(
        estimate=estimate,
        ci_low=ci_low,
        ci_high=ci_high,
        trials=trials,
        seed=seed,
        eps_ul=eps_ul,
        eps_dl=eps_dl,
        analytic_r_loop=loop_reliability(eps_ul, eps_dl),
    )


def config_digest(cfg: SystemConfig) -> str:
    """Stable hash of a configuration, for sweep metadata."""
    parts = ",".join(f"{f.name}={getattr(cfg, f.name)!r}" for f in fields(cfg))
    return hashlib.sha256(parts.encode()).hexdigest()[:16]
