"""Uplink energy-budget coupling and the feasible blocklength domain.

Spending the full uplink energy budget E over an n_ul-bit codeword fixes
the power at p_ul = E*M*f_s/n_ul, which makes gamma_ul*n_ul a constant:

    eta = E*M*f_s*g_ul / N,

which is ``SystemConfig.eta``, as the downlink SNR is ``.gamma_dl``.
Keeping the uplink at or above 0 dB (gamma_ul >= 1) is then equivalent
to n_ul <= eta, which combines with the shared latency budget and a
small-blocklength floor into the interval on which the loop error rate
is provably convex:  n_ul in [max(9, d), min(eta, n_max - d)].
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .fbl import SystemConfig


class UpperBound(enum.Enum):
    """Which term of min(eta, n_max - d) caps the uplink blocklength."""

    SNR_BOUND = "snr"
    BLOCKLENGTH_BOUND = "blocklength"


@dataclass(frozen=True)
class DomainBounds:
    """Feasible (and provably convex) interval for the uplink blocklength."""

    n_lo: float
    n_hi: float
    eta: float
    binding_hi: UpperBound
    empty: bool


@dataclass(frozen=True)
class Infeasible:
    """Structured marker for configurations without a valid allocation."""

    reason: str
    domain: DomainBounds | None = None


def ul_power_of_blocklength(cfg: SystemConfig, n_ul: float) -> float:
    """Uplink power E*M*f_s/n_ul; satisfies n_ul*p/(M*f_s) = E."""
    if n_ul <= 0.0:
        raise ValueError(f"blocklength must be positive, got {n_ul!r}")
    return cfg.E * cfg.M * cfg.f_s / n_ul


def feasible_domain(cfg: SystemConfig) -> DomainBounds:
    """Interval [max(9, d), min(eta, n_max - d)] for the uplink blocklength.

    The lower bound keeps the small-blocklength convexity argument valid,
    the upper bound keeps the uplink at or above 0 dB while leaving room
    for a lossless downlink codeword.  An empty interval is reported via
    the ``empty`` flag rather than raised, so sweeps can record it per
    grid point.
    """
    eta = cfg.eta
    n_lo = max(9.0, cfg.d)
    n_hi = min(eta, cfg.n_max - cfg.d)
    binding = UpperBound.SNR_BOUND if n_hi == eta else UpperBound.BLOCKLENGTH_BOUND
    return DomainBounds(
        n_lo=n_lo, n_hi=n_hi, eta=eta, binding_hi=binding, empty=n_lo > n_hi
    )
