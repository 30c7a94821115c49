"""Analytic derivatives of the loop error rate and numerical cross-checks.

Under the energy coupling, the uplink error rate depends on n_ul both
through the code rate and through the SNR gamma_ul = eta/n_ul, while the
downlink sees n_ul only through n_dl = n_max - n_ul.  With
phi = -(ln 2)/sqrt(2*pi) * exp(-x^2/2) the chain rule gives

    d eps_ul / d n_ul = phi_ul * (beta_ul*omega_ul' + omega_ul*beta_ul'),
        omega_ul' = d/n^2 - B*gamma/((ln 2)*(1+gamma)*n),
        beta_ul'  = (V*(1+gamma)^3 + 2*gamma) / (2*beta*V^2*(1+gamma)^3),

    d eps_dl / d n_ul = -phi_dl * (beta_dl*d/n_dl^2 + omega_dl/(2*beta_dl*V_dl)) > 0.

Both forms are verified against finite differences in the test suite.

Over large stretches of realistic configurations the error rates (and
phi) underflow double precision, so every sign, monotonicity and
convexity decision in this module is also available through a log-domain
path: |phi| is carried as log(ln2/sqrt(2*pi)) - x^2/2, which stays
finite for any x, and second-derivative positivity of f = exp(g) is
decided via the identity sign(f'') = sign(g'' + g'^2) with g = log eps
evaluated by finite differences.

The sign of d eps_cl/d n_ul needs no general signed-log sum, because
the downlink term is always positive: the sum is negative only where
the uplink term is negative (slope factor > 0) and its log-magnitude
exceeds the downlink's, zero where the two finite log-magnitudes tie,
and positive otherwise.  ``_sign_kernel`` applies that rule in plain
floats and ``_cl_sign`` applies it to arrays.

Each formula is written once, for plain floats and arrays alike: the
SNRs (``SystemConfig.eta`` and ``.gamma_dl``, read of a config or of a
sweep block's ``_Levels``), the link quantities (``fbl._channel`` per
SNR, then ``fbl._code`` per blocklength, backend ``math`` or ``numpy``),
the slope factors, and the derivative log-magnitudes ``_ul_log_d_eps``
and ``_dl_log_d_eps`` (``math.log`` or ``np.log``).  The array kernels
``_ul_d_eps`` and ``_dl_d_eps`` feed the scan, the validation suite and
``d_eps_cl_dn``; the solver's per-config sign kernel ``_sign_kernel``
(``d_eps_cl_sign`` is that kernel at one checked point) stays on
``math``, whose log1p the golden fixtures pin.  The scan and
``fd_derivative`` share one Richardson stencil, ``_richardson``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .fbl import SystemConfig, _channel, _code, _eps_of, _log_eps_of
from .energy import DomainBounds, Infeasible, feasible_domain

_LN2 = math.log(2.0)
# log of the prefactor of |phi| = (ln 2)/sqrt(2*pi) * exp(-x^2/2)
_LOG_PHI_COEFF = math.log(_LN2 / math.sqrt(2.0 * math.pi))


def loop_log_error(cfg: SystemConfig, n_ul: float) -> float:
    """log(eps_ul + eps_dl) at n_ul, finite where the doubles underflow."""
    return float(_cl_log_eps(cfg, n_ul))


# ---------------------------------------------------------------------------
# relaxed evaluators (numerical probing only)
#
# Finite-difference stencils centered on a domain endpoint poke slightly
# past it (n_ul marginally above eta, or n_dl marginally below d).  The
# error model stays well defined there, so these helpers only require
# positive blocklengths.  Public entry points keep the strict n >= d
# contract.  All accept scalars or ndarrays.
# ---------------------------------------------------------------------------

class _LinkColumns(NamedTuple):
    """One link's quantities under the coupling, at scalars or ndarrays.

    Built by plain arithmetic with no validation, so the finite-difference
    stencils and the array scan can evaluate whole grids at once.
    """

    n: np.ndarray
    gamma: np.ndarray
    capacity: np.ndarray
    dispersion: np.ndarray
    omega: np.ndarray
    beta: np.ndarray
    x: np.ndarray


class _Levels(NamedTuple):
    """The inputs the link kernels read of a config, for a block of sweep
    levels: d, B and n_max shared, and the two SNRs as (levels, 1) columns
    of ``SystemConfig.eta`` and ``.gamma_dl``."""

    d: float
    B: float
    n_max: float
    eta: np.ndarray
    gamma_dl: np.ndarray


def _ul_link(cfg: SystemConfig | _Levels, n_ul) -> _LinkColumns:
    gamma = cfg.eta / n_ul
    cap, disp = _channel(gamma, cfg.B, np)
    return _LinkColumns(n_ul, gamma, cap, disp, *_code(n_ul, cap, disp, cfg.d, np))


def _dl_link(cfg: SystemConfig | _Levels, n_ul) -> _LinkColumns:
    n_dl = cfg.n_max - n_ul
    if np.any(n_dl <= 0.0):
        raise ValueError(
            f"downlink blocklength must stay positive, got n_ul={n_ul!r} "
            f"with n_max={cfg.n_max!r}"
        )
    gamma = cfg.gamma_dl
    cap, disp = _channel(gamma, cfg.B, np)
    return _LinkColumns(n_dl, gamma, cap, disp, *_code(n_dl, cap, disp, cfg.d, np))


def _cl_log_eps(cfg: SystemConfig | _Levels, n_ul):
    ul, dl = _ul_link(cfg, n_ul), _dl_link(cfg, n_ul)
    return np.logaddexp(_log_eps_of(ul.x), _log_eps_of(dl.x))


def _ul_eps(cfg: SystemConfig, n_ul):
    return _eps_of(_ul_link(cfg, n_ul).x)


def _dl_eps(cfg: SystemConfig, n_ul):
    return _eps_of(_dl_link(cfg, n_ul).x)


# ---------------------------------------------------------------------------
# first derivatives
# ---------------------------------------------------------------------------

def _phi(x):
    """phi = -(ln 2)/sqrt(2*pi) * exp(-x^2/2) elementwise; -0.0 for |x| large."""
    return -(_LN2 / math.sqrt(2.0 * math.pi)) * np.exp(-0.5 * x * x)


def _ul_slope_factor(cfg: SystemConfig | _Levels, n, g, V, b, w):
    """beta*omega' + omega*beta' of the uplink, so that d eps = phi * factor.

    Takes n, gamma, V, beta and omega as plain floats or arrays.
    """
    g1 = 1.0 + g
    cube = g1**3
    omega_p = cfg.d / n**2 - cfg.B * g / (_LN2 * g1 * n)
    beta_p = (V * cube + 2.0 * g) / (2.0 * b * V**2 * cube)
    return b * omega_p + w * beta_p


def _dl_slope_factor(cfg: SystemConfig | _Levels, n, V, b, w):
    """beta*d/n_dl^2 + omega/(2*beta*V) of the downlink (positive bracket)."""
    return b * cfg.d / n**2 + w / (2.0 * b * V)


def _ul_log_d_eps(x, factor, log):
    """log|d eps_ul/d n_ul| = log|phi| + log|factor|, with the backend's
    ``log`` (``math.log`` or ``np.log``); -inf where the factor is 0."""
    return _LOG_PHI_COEFF - 0.5 * x * x + log(abs(factor))


def _dl_log_d_eps(cfg: SystemConfig | _Levels, n, cap, V, b, x, log):
    """log(d eps_dl/d n_ul) at n_dl = n, with the backend's ``log``; the
    bracket takes its positive form (d + C*n_dl)/(2*beta*V*n_dl)."""
    bracket = log(cfg.d + cap * n) - log(2.0 * b * V * n)
    return _LOG_PHI_COEFF - 0.5 * x * x + bracket


def _ul_d_eps(cfg: SystemConfig | _Levels, ul: _LinkColumns):
    """(d eps_ul/d n_ul, its exact sign, log|value|) over uplink columns;
    phi < 0, so the sign is opposite to the slope factor's."""
    factor = _ul_slope_factor(cfg, ul.n, ul.gamma, ul.dispersion, ul.beta, ul.omega)
    sign = np.where(factor == 0.0, 0, np.where(factor > 0.0, -1, 1))
    with np.errstate(divide="ignore"):
        log_mag = _ul_log_d_eps(ul.x, factor, np.log)
    return _phi(ul.x) * factor, sign, log_mag


def _dl_d_eps(cfg: SystemConfig | _Levels, dl: _LinkColumns):
    """(d eps_dl/d n_ul, log|value|) over downlink columns; the sign is +1."""
    value = -_phi(dl.x) * _dl_slope_factor(cfg, dl.n, dl.dispersion, dl.beta, dl.omega)
    log_mag = _dl_log_d_eps(cfg, dl.n, dl.capacity, dl.dispersion, dl.beta, dl.x, np.log)
    return value, log_mag


def _check_payload(cfg: SystemConfig, n_ul: float) -> None:
    """Reject n_ul unless both links carry the payload (n_hi = n_max - d passes)."""
    if not n_ul >= cfg.d:
        raise ValueError(f"lossless coding requires n_ul >= d, got {n_ul!r} < {cfg.d!r}")
    if not n_ul <= cfg.n_max - cfg.d:
        n_dl = cfg.n_max - n_ul
        raise ValueError(f"lossless coding requires n_dl >= d, got {n_dl!r} < {cfg.d!r}")


def d_eps_cl_dn(cfg: SystemConfig, n_ul: float) -> float:
    """Analytic derivative of the loop error objective eps_ul + eps_dl: the
    sum of the array kernels ``_ul_d_eps`` and ``_dl_d_eps`` at one point."""
    _check_payload(cfg, n_ul)
    n = np.array([n_ul], dtype=float)
    ul, dl = _ul_d_eps(cfg, _ul_link(cfg, n)), _dl_d_eps(cfg, _dl_link(cfg, n))
    return float(ul[0][0] + dl[0][0])


def _sign_kernel(cfg: SystemConfig) -> Callable[[float], int]:
    """The sign of d eps_cl / d n_ul as a function of n_ul alone, for the
    solver's bisection, with eta and the downlink's capacity and dispersion
    computed once per config.  Each call evaluates the uplink and, only
    where the uplink term is negative, the downlink, in plain floats with
    no erfc, and applies the sign rule of the module docstring.
    Unchecked: n_ul must lie in [d, n_max - d].
    """
    eta, d, B, n_max = cfg.eta, cfg.d, cfg.B, cfg.n_max
    cap_dl, V_dl = _channel(cfg.gamma_dl, B)
    log = math.log

    def sign(n_ul: float) -> int:
        gamma = eta / n_ul
        cap, V = _channel(gamma, B)
        w, b, x = _code(n_ul, cap, V, d)
        factor = _ul_slope_factor(cfg, n_ul, gamma, V, b, w)
        if not factor > 0.0:
            return 1
        log_ul = _ul_log_d_eps(x, factor, log)
        n_dl = n_max - n_ul
        _, b, x = _code(n_dl, cap_dl, V_dl, d)
        log_dl = _dl_log_d_eps(cfg, n_dl, cap_dl, V_dl, b, x, log)
        if log_ul > log_dl:
            return -1
        return 0 if log_ul == log_dl > -math.inf else 1

    return sign


def d_eps_cl_sign(cfg: SystemConfig, n_ul: float) -> int:
    """Sign of d eps_cl / d n_ul, robust to underflow of either term: the
    solver's sign kernel at one point, after checking that both links
    carry the payload."""
    _check_payload(cfg, n_ul)
    return _sign_kernel(cfg)(n_ul)


def _cl_sign(sign_ul, log_ul, log_dl) -> np.ndarray:
    """Elementwise sign of d eps_cl/d n_ul from the uplink term's sign and
    the two log-magnitudes: the rule of :func:`d_eps_cl_sign`."""
    negative = sign_ul < 0
    tie = negative & (log_ul == log_dl) & (log_dl > -math.inf)
    return np.where(negative & (log_ul > log_dl), -1, np.where(tie, 0, 1))


# ---------------------------------------------------------------------------
# finite differences (independent oracle)
# ---------------------------------------------------------------------------

def _fd_step(cfg: SystemConfig | _Levels, n_ul):
    """Finite-difference step at n_ul: max(1e-4, 1e-3*n_ul), shrunk near
    n_max so that a stencil of +-2 steps keeps n_dl > 0."""
    return np.minimum(np.maximum(1e-4, 1e-3 * n_ul), (cfg.n_max - n_ul) / 4.0)


def _richardson(f_m2, f_m1, f_0, f_p1, f_p2, h):
    """First and second central differences of f from f(n - 2h) .. f(n + 2h),
    Richardson-extrapolated from the steps h and 2h."""
    d1 = (4.0 * (f_p1 - f_m1) / (2.0 * h) - (f_p2 - f_m2) / (4.0 * h)) / 3.0
    d2 = (
        4.0 * (f_p1 - 2.0 * f_0 + f_m1) / (h * h)
        - (f_p2 - 2.0 * f_0 + f_m2) / (4.0 * (h * h))
    ) / 3.0
    return d1, d2


def fd_derivative(f: Callable[[float], float], n: float, order: int, h: float) -> float:
    """Central finite difference of order 1 or 2 with Richardson extrapolation.

    Uses steps h and 2h, so f must be evaluable on [n-2h, n+2h]; domain
    errors from f propagate.  With an f that maps arrays elementwise, n
    and h may be arrays, and every point is differenced at once.
    """
    if order not in (1, 2):
        raise ValueError(f"order must be 1 or 2, got {order!r}")
    f_0 = f(n) if order == 2 else 0.0  # the first difference never reads f(n)
    d1, d2 = _richardson(f(n - 2.0 * h), f(n - h), f_0, f(n + h), f(n + 2.0 * h), h)
    return d1 if order == 1 else d2


# ---------------------------------------------------------------------------
# convexity / sign scan
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScanReport:
    """Grid evaluation of the loop error and its derivative structure.

    Monotonicity and convexity are classified without ever comparing
    saturated doubles:

    * eps_ul non-increasing and eps_dl strictly increasing are read off
      the decoding arguments (Q is strictly decreasing, so eps moves
      exactly opposite to x, and x never saturates at either end);
    * positivity of the second derivative of eps_cl uses
      sign(eps'') = sign((log eps)'' + ((log eps)')^2), with both log
      derivatives taken by Richardson-extrapolated central differences.
      Grid points whose log eps_cl stencil is flat to rounding (eps_cl
      pinned at the representation ceiling near 1) are marked in
      ``saturated`` and carry no curvature information, so they are not
      classified either way.

    ``d2_eps_cl`` reconstructs eps_cl'' = eps_cl * indicator, which
    underflows to 0.0 exactly where eps_cl does.

    The verdicts are boolean masks read off the columns of a 1-D grid:
    ``ul_upturn`` and ``dl_not_increasing`` per grid interval (aligned
    with its right end, ``n_ul[1:]``), ``cl_not_convex`` per grid point.
    """

    n_ul: np.ndarray
    eps_ul: np.ndarray
    eps_dl: np.ndarray
    eps_cl: np.ndarray
    log_eps_ul: np.ndarray
    log_eps_dl: np.ndarray
    d_eps_cl: np.ndarray
    sign_d_eps_cl: np.ndarray
    d2_eps_cl: np.ndarray
    convexity_indicator: np.ndarray
    saturated: np.ndarray  # bool: log eps_cl flat to rounding on the stencil

    @property
    def ul_upturn(self) -> np.ndarray:
        """Grid intervals on which eps_ul increases.

        Can legitimately be set: once eta exceeds roughly
        4*ln2*d/(6 - 8*ln2), the uplink error rate itself turns upward
        before the 0 dB bound (spreading the energy budget ever thinner
        stops paying off), so eps_ul is not monotone on the full domain.
        """
        return np.diff(self.log_eps_ul) > 0.0

    @property
    def dl_not_increasing(self) -> np.ndarray:
        """Grid intervals on which eps_dl does not strictly increase."""
        return ~(np.diff(self.log_eps_dl) > 0.0)

    @property
    def cl_not_convex(self) -> np.ndarray:
        """Unsaturated grid points whose convexity indicator is not > 0.

        Genuinely set where a link is at or below its capacity threshold
        (eps >= 0.5, in the concave Q tail); ``solve`` tests that regime
        up front and takes the exhaustive integer argmin there.
        """
        return ~(self.convexity_indicator > 0.0) & ~self.saturated


#: a five-point stencil of log eps_cl spanning less than this is treated
#: as flat to rounding (eps_cl pinned at the representation ceiling), so
#: its finite differences carry no curvature information
_STENCIL_FLOOR = 1e-12


def scan_columns(cfg: SystemConfig | _Levels, points: np.ndarray) -> ScanReport:
    """Evaluate every scan column at the given blocklengths.

    One array evaluation over all points, with no per-point Python loop:
    error rates and their logs from the decoding arguments, the
    convexity indicator from Richardson differences of log eps_cl, and
    d eps_cl/d n_ul as the sum of the per-link kernels ``_ul_d_eps`` and
    ``_dl_d_eps``, with its exact log-space sign.  That sign equals
    :func:`d_eps_cl_sign` at every point.

    ``points`` is 1-D for a config, or a (levels, points) grid for the
    ``_Levels`` of configs that share d, B and n_max.  Every operation is
    elementwise, so each row, and each single point recomputed, equals a
    one-level call bit for bit.
    """
    grid = np.asarray(points, dtype=float)
    ul = _ul_link(cfg, grid)
    dl = _dl_link(cfg, grid)
    log_ul, log_dl = _log_eps_of(ul.x), _log_eps_of(dl.x)
    log_cl = np.logaddexp(log_ul, log_dl)
    eps_ul, eps_dl = _eps_of(ul.x), _eps_of(dl.x)

    # Richardson-extrapolated central differences of log eps_cl
    h = _fd_step(cfg, grid)
    f_p1, f_m1 = _cl_log_eps(cfg, grid + h), _cl_log_eps(cfg, grid - h)
    f_p2, f_m2 = _cl_log_eps(cfg, grid + 2.0 * h), _cl_log_eps(cfg, grid - 2.0 * h)
    g1, g2 = _richardson(f_m2, f_m1, log_cl, f_p1, f_p2, h)
    indicator = g2 + g1**2
    stencil = np.stack([f_m2, f_m1, log_cl, f_p1, f_p2])
    saturated = (stencil.max(axis=0) - stencil.min(axis=0)) < _STENCIL_FLOOR

    d_eps_ul, sign_ul, log_d_ul = _ul_d_eps(cfg, ul)
    d_eps_dl, log_d_dl = _dl_d_eps(cfg, dl)

    return ScanReport(
        n_ul=grid,
        eps_ul=eps_ul,
        eps_dl=eps_dl,
        eps_cl=eps_ul + eps_dl,
        log_eps_ul=log_ul,
        log_eps_dl=log_dl,
        d_eps_cl=d_eps_ul + d_eps_dl,
        sign_d_eps_cl=_cl_sign(sign_ul, log_d_ul, log_d_dl),
        d2_eps_cl=np.exp(log_cl) * indicator,
        convexity_indicator=indicator,
        saturated=saturated,
    )


#: most grid points evaluated in one array pass: ``scan_levels`` takes
#: whole noise levels in blocks of about this size, so a sweep's working
#: memory does not grow with its number of levels
_BLOCK_POINTS = 2000


def convexity_scan(cfg: SystemConfig, grid_points: int) -> ScanReport | Infeasible:
    """Scan eps_ul, eps_dl, eps_cl and their derivatives over the domain.

    Checks, on a uniform grid over [n_lo, n_hi]: eps_ul monotone
    non-increasing, eps_dl strictly increasing, and the second derivative
    of eps_cl positive at every grid point that is not ``saturated``.
    Violations are marked in the report's masks; an empty domain
    yields an Infeasible marker.  The one-level case of
    :func:`scan_levels`.
    """
    return scan_levels([cfg], grid_points)[0]


def scan_levels(
    cfgs: Sequence[SystemConfig], grid_points: int
) -> list[ScanReport | Infeasible]:
    """:func:`convexity_scan` of each config, in blocked array passes.

    The configs may differ in any field that enters only through the
    SNRs (the noise levels of a sweep); d, B and n_max must be shared.
    Levels with an empty domain get their Infeasible marker; the others
    are scanned in blocks of whole levels, each block one
    :func:`scan_columns` call over a (levels, grid_points) grid.
    """
    if grid_points < 1:
        raise ValueError(f"grid_points must be >= 1, got {grid_points!r}")
    if len({(cfg.d, cfg.B, cfg.n_max) for cfg in cfgs}) > 1:
        raise ValueError("scan_levels needs configs that share d, B and n_max")
    doms = [feasible_domain(cfg) for cfg in cfgs]
    live = [(cfg, dom) for cfg, dom in zip(cfgs, doms) if not dom.empty]
    per_block = max(1, _BLOCK_POINTS // grid_points)
    reports = iter([
        report
        for start in range(0, len(live), per_block)
        for report in _scan_block(live[start : start + per_block], grid_points)
    ])
    return [
        Infeasible("empty blocklength domain", dom) if dom.empty else next(reports)
        for dom in doms
    ]


def _scan_block(
    levels: list[tuple[SystemConfig, DomainBounds]], grid_points: int
) -> list[ScanReport]:
    """One array pass over the domain grids of several levels, split into
    one ScanReport per level."""
    cfgs, doms = zip(*levels)
    n_lo = np.array([dom.n_lo for dom in doms])[:, None]
    n_hi = np.array([dom.n_hi for dom in doms])[:, None]
    # np.linspace row by row; given arrays of bounds, it rounds every row
    # another way as soon as one row has zero width
    grid = np.arange(grid_points) * ((n_hi - n_lo) / max(grid_points - 1, 1)) + n_lo
    if grid_points > 1:
        grid[:, -1:] = n_hi
    eta = np.array([c.eta for c in cfgs])[:, None]
    gamma_dl = np.array([c.gamma_dl for c in cfgs])[:, None]
    cols = scan_columns(_Levels(cfgs[0].d, cfgs[0].B, cfgs[0].n_max, eta, gamma_dl), grid)
    return [
        ScanReport(*[getattr(cols, f.name)[row] for f in fields(ScanReport)])
        for row in range(len(cfgs))
    ]
