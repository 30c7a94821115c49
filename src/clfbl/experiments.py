"""Case study, noise sweeps, and the Monte Carlo oracle.

The sweep covers the noise power range (0, p_dl) on a logarithmic grid
with inclusive endpoints p_dl*1e-4 and p_dl*(1-1e-3); per noise level it
records the feasible domain, the solved allocation, and a grid scan of
the loop error and its derivative structure.  The seeded Monte Carlo
simulation is intentionally independent of the optimizer's code path;
the exhaustive integer oracle lives in :mod:`clfbl.optimizer`, which
also falls back on it where eps_cl is not convex.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, fields, replace

import numpy as np

from .fbl import SystemConfig
from .energy import DomainBounds, Infeasible, feasible_domain
from .derivatives import (
    ScanColumns,
    ScanReport,
    convexity_scan,
    dl_state,
    scan_columns,
    ul_state,
)
from .optimizer import SolveResult, solve

#: RNG algorithm recorded in Monte Carlo results for reproducibility
GENERATOR_ID = "numpy.random.Generator(PCG64)"

#: normal quantile for a two-sided 99% confidence interval
_Z99 = 2.5758293035489004


@dataclass(frozen=True)
class GridSample:
    n_ul: float
    eps_ul: float
    eps_dl: float
    eps_cl: float
    d_eps_cl_dn: float
    sign_d_eps_cl_dn: int
    d2_eps_cl_dn2: float


def grid_columns(cols: ScanReport | ScanColumns) -> list[list]:
    """The scan's columns as Python lists, in the field order of GridSample."""
    return [
        cols.n_ul.tolist(),
        cols.eps_ul.tolist(),
        cols.eps_dl.tolist(),
        cols.eps_cl.tolist(),
        cols.d_eps_cl.tolist(),
        cols.sign_d_eps_cl.tolist(),
        cols.d2_eps_cl.tolist(),
    ]


def _samples(cols: ScanReport | ScanColumns) -> tuple[GridSample, ...]:
    return tuple(GridSample(*row) for row in zip(*grid_columns(cols)))


@dataclass(frozen=True)
class SweepRecord:
    """Everything recorded for one noise level of a sweep."""

    noise: float
    domain: DomainBounds
    result: SolveResult | Infeasible
    scan: ScanReport | Infeasible

    @property
    def grid(self) -> tuple[GridSample, ...]:
        """The scan as one GridSample per grid point; empty if infeasible."""
        return () if isinstance(self.scan, Infeasible) else _samples(self.scan)


def grid_sample(cfg: SystemConfig, n_ul: float) -> GridSample:
    """One scan row recomputed from scratch; used for CSV round-trips.

    Shares the scan's code path exactly, so a value parsed back from a
    CSV and recomputed here is bit-identical.
    """
    return _samples(scan_columns(cfg, np.asarray([n_ul], dtype=float)))[0]


def record_at_noise(cfg: SystemConfig, grid_points: int = 200) -> SweepRecord:
    """Sweep record for cfg's own noise level."""
    dom = feasible_domain(cfg)
    scan = convexity_scan(cfg, grid_points)
    if isinstance(scan, Infeasible):
        return SweepRecord(cfg.N, dom, scan, scan)
    return SweepRecord(cfg.N, dom, solve(cfg), scan)


def run_case_study(cfg: SystemConfig, grid_points: int = 500) -> SweepRecord:
    """Single-noise record with a dense grid, suitable for plotting."""
    return record_at_noise(cfg, grid_points)


def noise_grid(p_dl: float, n_points: int) -> np.ndarray:
    """Logarithmic noise grid strictly inside (0, p_dl), endpoints inclusive."""
    if n_points < 2:
        raise ValueError(f"n_points must be >= 2, got {n_points!r}")
    return np.geomspace(p_dl * 1e-4, p_dl * (1.0 - 1e-3), n_points)


def sweep_noise(
    cfg: SystemConfig, n_points: int = 50, grid_points: int = 200
) -> list[SweepRecord]:
    """Per-noise records over the standard (0, p_dl) logarithmic grid."""
    return [
        record_at_noise(replace(cfg, N=float(noise)), grid_points)
        for noise in noise_grid(cfg.p_dl, n_points)
    ]


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


def monte_carlo_validate(
    cfg: SystemConfig, n_ul: float, trials: int, seed: int
) -> MonteCarloResult:
    """Simulate the closed loop as sequential biased coin flips.

    Each trial first draws the uplink decoding outcome; the downlink coin
    is drawn only for trials whose uplink succeeded (the product law
    makes this equivalent to unconditional simulation).  Returns the
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
    ul_ok = rng.random(trials) < (1.0 - eps_ul)
    n_ul_ok = int(ul_ok.sum())
    loop_ok = int((rng.random(n_ul_ok) < (1.0 - eps_dl)).sum())
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
        analytic_r_loop=(1.0 - eps_ul) * (1.0 - eps_dl),
    )


def config_digest(cfg: SystemConfig) -> str:
    """Stable hash of a configuration, for sweep metadata."""
    parts = ",".join(f"{f.name}={getattr(cfg, f.name)!r}" for f in fields(cfg))
    return hashlib.sha256(parts.encode()).hexdigest()[:16]
