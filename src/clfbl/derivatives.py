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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np
from scipy.special import erfc as _erfc, log_ndtr as _log_ndtr

from .fbl import LinkState, SystemConfig, capacity
from .energy import (
    Infeasible,
    feasible_domain,
    snr_blocklength_product,
    ul_power_of_blocklength,
    ul_snr_of_blocklength,
)

_LN2 = math.log(2.0)
_SQRT2 = math.sqrt(2.0)
# log of the prefactor of |phi| = (ln 2)/sqrt(2*pi) * exp(-x^2/2)
_LOG_PHI_COEFF = math.log(_LN2 / math.sqrt(2.0 * math.pi))

SignedLog = tuple[int, float]  # (sign in {-1, 0, +1}, log of magnitude)


# ---------------------------------------------------------------------------
# link states under the coupling
# ---------------------------------------------------------------------------

def ul_state(cfg: SystemConfig, n_ul: float) -> LinkState:
    """Uplink link state at n_ul with the energy budget fully spent."""
    gamma = ul_snr_of_blocklength(cfg, n_ul)
    p = ul_power_of_blocklength(cfg, n_ul)
    return LinkState.from_snr(n_ul, gamma, cfg.d, cfg.B, p=p)


def dl_state(cfg: SystemConfig, n_ul: float) -> LinkState:
    """Downlink link state at n_dl = n_max - n_ul."""
    return LinkState.from_power(
        cfg.n_max - n_ul, cfg.p_dl, cfg.g_dl, cfg.N, cfg.d, cfg.B
    )


def loop_log_error(cfg: SystemConfig, n_ul: float) -> float:
    """log(eps_ul + eps_dl) at n_ul, finite where the doubles underflow."""
    return float(np.logaddexp(_ul_log_eps(cfg, n_ul), _dl_log_eps(cfg, n_ul)))


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
    """The quantities of :class:`LinkState` at scalars or ndarrays.

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


def _link_columns(cfg: SystemConfig, n, gamma) -> tuple:
    """The fields of :class:`_LinkColumns` as a plain tuple, which is
    cheaper to build on the scalar path of the solver."""
    cap = cfg.B * np.log1p(gamma) / _LN2
    disp = 1.0 - 1.0 / (1.0 + gamma) ** 2
    omega = cap - cfg.d / n
    beta = np.sqrt(n / disp)
    return n, gamma, cap, disp, omega, beta, _LN2 * omega * beta


def _ul_link(cfg: SystemConfig, n_ul) -> tuple:
    return _link_columns(cfg, n_ul, snr_blocklength_product(cfg) / n_ul)


def _dl_link(cfg: SystemConfig, n_ul) -> tuple:
    n_dl = cfg.n_max - n_ul
    if np.any(n_dl <= 0.0):
        raise ValueError(
            f"downlink blocklength must stay positive, got n_ul={n_ul!r} "
            f"with n_max={cfg.n_max!r}"
        )
    return _link_columns(cfg, n_dl, cfg.p_dl * cfg.g_dl / cfg.N)


def _ul_x(cfg: SystemConfig, n_ul):
    return _ul_link(cfg, n_ul)[-1]


def _dl_x(cfg: SystemConfig, n_ul):
    return _dl_link(cfg, n_ul)[-1]


def _ul_log_eps(cfg: SystemConfig, n_ul):
    return _log_ndtr(-_ul_x(cfg, n_ul))


def _dl_log_eps(cfg: SystemConfig, n_ul):
    return _log_ndtr(-_dl_x(cfg, n_ul))


def _cl_log_eps(cfg: SystemConfig, n_ul):
    return np.logaddexp(_ul_log_eps(cfg, n_ul), _dl_log_eps(cfg, n_ul))


def _ul_eps(cfg: SystemConfig, n_ul):
    return 0.5 * _erfc(_ul_x(cfg, n_ul) / _SQRT2)


def _dl_eps(cfg: SystemConfig, n_ul):
    return 0.5 * _erfc(_dl_x(cfg, n_ul) / _SQRT2)


# ---------------------------------------------------------------------------
# first derivatives
# ---------------------------------------------------------------------------

def _phi(x: float) -> float:
    """phi = -(ln 2)/sqrt(2*pi) * exp(-x^2/2); underflows to -0.0 for |x| large."""
    return -(_LN2 / math.sqrt(2.0 * math.pi)) * math.exp(-0.5 * x * x)


def _ul_slope_factor(cfg: SystemConfig, s: LinkState | _LinkColumns):
    """beta*omega' + omega*beta' of the uplink, so that d eps = phi * factor.

    Pure arithmetic: broadcasts over the arrays of :class:`_LinkColumns`.
    """
    g, n, V, b, w = s.gamma, s.n, s.dispersion, s.beta, s.omega
    omega_p = cfg.d / n**2 - cfg.B * g / (_LN2 * (1.0 + g) * n)
    beta_p = (V * (1.0 + g) ** 3 + 2.0 * g) / (2.0 * b * V**2 * (1.0 + g) ** 3)
    return b * omega_p + w * beta_p


def _dl_slope_factor(cfg: SystemConfig, s: LinkState | _LinkColumns):
    """beta*d/n_dl^2 + omega/(2*beta*V) of the downlink (positive bracket).

    Pure arithmetic: broadcasts over the arrays of :class:`_LinkColumns`.
    """
    return s.beta * cfg.d / s.n**2 + s.omega / (2.0 * s.beta * s.dispersion)


def d_eps_ul_dn(cfg: SystemConfig, n_ul: float) -> float:
    """Analytic d eps_ul / d n_ul under the energy coupling.

    Negative while the SNR is comfortably above 0 dB (a longer codeword
    still wins), but turns positive before the 0 dB bound once
    eta > 4*ln2*d/(6 - 8*ln2): at gamma = 1 the sign is that of
    -(4*ln2*d + n*(8*ln2 - 6)).
    """
    s = ul_state(cfg, n_ul)
    return _phi(s.x) * _ul_slope_factor(cfg, s)


def d_eps_dl_dn(cfg: SystemConfig, n_ul: float) -> float:
    """Analytic d eps_dl / d n_ul; strictly positive for any gamma_dl > 0."""
    s = dl_state(cfg, n_ul)
    return -_phi(s.x) * _dl_slope_factor(cfg, s)


def d_eps_cl_dn(cfg: SystemConfig, n_ul: float) -> float:
    """Analytic derivative of the loop error objective eps_ul + eps_dl."""
    return d_eps_ul_dn(cfg, n_ul) + d_eps_dl_dn(cfg, n_ul)


def d_eps_ul_dn_signed_log(cfg: SystemConfig, n_ul: float) -> SignedLog:
    """(sign, log|value|) of d eps_ul / d n_ul, exact under underflow.

    phi is strictly negative in exact arithmetic, so the sign is carried
    by the slope factor alone and the magnitude by its log.
    """
    s = ul_state(cfg, n_ul)
    factor = _ul_slope_factor(cfg, s)
    if factor == 0.0:
        return (0, -math.inf)
    sign = -1 if factor > 0.0 else 1
    return (sign, _LOG_PHI_COEFF - 0.5 * s.x * s.x + math.log(abs(factor)))


def d_eps_dl_dn_signed_log(cfg: SystemConfig, n_ul: float) -> SignedLog:
    """(sign, log|value|) of d eps_dl / d n_ul; the sign is always +1.

    The bracket simplifies to (d + C*n_dl) / (2*beta*V*n_dl), manifestly
    positive, which is the form used for the log magnitude.
    """
    s = dl_state(cfg, n_ul)
    log_bracket = math.log(cfg.d + s.capacity * s.n) - math.log(
        2.0 * s.beta * s.dispersion * s.n
    )
    return (1, _LOG_PHI_COEFF - 0.5 * s.x * s.x + log_bracket)


def signed_log_add(a: SignedLog, b: SignedLog) -> SignedLog:
    """Sum of two signed log-magnitude numbers, without leaving log space."""
    sa, la = a
    sb, lb = b
    if sa == 0 or la == -math.inf:
        return b
    if sb == 0 or lb == -math.inf:
        return a
    if sa == sb:
        return (sa, float(np.logaddexp(la, lb)))
    if la == lb:
        return (0, -math.inf)
    if la > lb:
        return (sa, la + math.log1p(-math.exp(lb - la)))
    return (sb, lb + math.log1p(-math.exp(la - lb)))


def d_eps_cl_sign(cfg: SystemConfig, n_ul: float) -> int:
    """Sign of d eps_cl / d n_ul, robust to underflow of either term."""
    return signed_log_add(
        d_eps_ul_dn_signed_log(cfg, n_ul), d_eps_dl_dn_signed_log(cfg, n_ul)
    )[0]


def _signed_log_sum_sign(sa, la, sb, lb) -> np.ndarray:
    """Elementwise sign of signed_log_add((sa, la), (sb, lb)).

    The same case analysis, applied from the last case to the first so
    that the earlier cases take precedence.
    """
    sign = np.where(la > lb, sa, sb)
    sign = np.where(la == lb, 0, sign)
    sign = np.where(sa == sb, sa, sign)
    sign = np.where((sb == 0) | (lb == -math.inf), sa, sign)
    return np.where((sa == 0) | (la == -math.inf), sb, sign)


def _d_eps_cl_columns(
    cfg: SystemConfig, ul: _LinkColumns, dl: _LinkColumns
) -> tuple[np.ndarray, np.ndarray]:
    """d eps_cl / d n_ul and its exact sign over arrays of link columns.

    The array form of d_eps_cl_dn and d_eps_cl_sign: the same formulas,
    evaluated once over the whole grid.  numpy's exp, log and power may
    round the last bits differently from their ``math`` counterparts, so
    the derivative can differ from the scalar path in its last digits.
    """
    phi = lambda x: -(_LN2 / math.sqrt(2.0 * math.pi)) * np.exp(-0.5 * x * x)
    ul_factor = _ul_slope_factor(cfg, ul)
    d_eps_ul = phi(ul.x) * ul_factor
    d_eps_dl = -phi(dl.x) * _dl_slope_factor(cfg, dl)

    # phi < 0, so the uplink sign is opposite to its slope factor's
    sign_ul = np.where(ul_factor == 0.0, 0, np.where(ul_factor > 0.0, -1, 1))
    with np.errstate(divide="ignore"):
        log_ul = _LOG_PHI_COEFF - 0.5 * ul.x * ul.x + np.log(np.abs(ul_factor))
    log_bracket = np.log(cfg.d + dl.capacity * dl.n) - np.log(
        2.0 * dl.beta * dl.dispersion * dl.n
    )
    log_dl = _LOG_PHI_COEFF - 0.5 * dl.x * dl.x + log_bracket
    return d_eps_ul + d_eps_dl, _signed_log_sum_sign(sign_ul, log_ul, 1, log_dl)


# ---------------------------------------------------------------------------
# finite differences (independent oracle)
# ---------------------------------------------------------------------------

def fd_derivative(
    f: Callable[[float], float], n: float, order: int, h: float | None = None
) -> float:
    """Central finite difference of order 1 or 2 with Richardson extrapolation.

    Uses steps h and 2h, so f must be evaluable on [n-2h, n+2h]; domain
    errors from f propagate.  The default step is max(1e-4, 1e-3*n).
    """
    if order not in (1, 2):
        raise ValueError(f"order must be 1 or 2, got {order!r}")
    if h is None:
        h = max(1e-4, 1e-3 * n)
    if order == 1:
        d_h = (f(n + h) - f(n - h)) / (2.0 * h)
        d_2h = (f(n + 2.0 * h) - f(n - 2.0 * h)) / (4.0 * h)
        return (4.0 * d_h - d_2h) / 3.0
    f0 = f(n)
    d_h = (f(n + h) - 2.0 * f0 + f(n - h)) / h**2
    d_2h = (f(n + 2.0 * h) - 2.0 * f0 + f(n - 2.0 * h)) / (4.0 * h**2)
    return (4.0 * d_h - d_2h) / 3.0


# ---------------------------------------------------------------------------
# derivative bundle
# ---------------------------------------------------------------------------

def delta_ul(gamma: float, B: float = 1.0) -> float:
    """Residual SNR-coupling term of the uplink derivative decomposition.

    delta = [(4*ln2*C - 3)*g^3 + (11*ln2*C - 7)*g^2 + ln2*C*g + 2] / (1+g)^2
    with C = B*log2(1+g).  At gamma = 1 this equals (16*ln2 - 8)/4, and it
    is increasing in gamma for gamma >= 1.
    """
    if gamma <= 0.0:
        raise ValueError(f"SNR must be positive, got {gamma!r}")
    lc = _LN2 * capacity(gamma, B)
    poly = (
        (4.0 * lc - 3.0) * gamma**3
        + (11.0 * lc - 7.0) * gamma**2
        + lc * gamma
        + 2.0
    )
    return poly / (1.0 + gamma) ** 2


@dataclass(frozen=True)
class DerivativeBundle:
    """First/second derivative values and helper quantities at one n_ul."""

    n_ul: float
    phi_ul: float
    phi_dl: float
    xi: float          # phi_ul / (2*ln2*beta*V^2*n*(1+gamma)^3)
    eta: float         # constant gamma_ul*n_ul
    rho: float         # (M*ln2)^2 * n_ul
    delta_ul: float
    d_eps_ul: float
    d_eps_dl: float
    d_eps_cl: float
    d2_eps_cl_fd: float


def derivative_bundle(cfg: SystemConfig, n_ul: float) -> DerivativeBundle:
    """Evaluate the derivative decomposition of the loop error at n_ul."""
    ul = ul_state(cfg, n_ul)
    dl = dl_state(cfg, n_ul)
    phi_ul = _phi(ul.x)
    xi = phi_ul / (
        2.0
        * _LN2
        * ul.beta
        * ul.dispersion**2
        * n_ul
        * (1.0 + ul.gamma) ** 3
    )
    d_ul = phi_ul * _ul_slope_factor(cfg, ul)
    d_dl = -_phi(dl.x) * _dl_slope_factor(cfg, dl)
    d2_fd = fd_derivative(lambda n: float(_ul_eps(cfg, n) + _dl_eps(cfg, n)), n_ul, 2)
    return DerivativeBundle(
        n_ul=n_ul,
        phi_ul=phi_ul,
        phi_dl=_phi(dl.x),
        xi=xi,
        eta=snr_blocklength_product(cfg),
        rho=(cfg.M * _LN2) ** 2 * n_ul,
        delta_ul=delta_ul(ul.gamma, cfg.B),
        d_eps_ul=d_ul,
        d_eps_dl=d_dl,
        d_eps_cl=d_ul + d_dl,
        d2_eps_cl_fd=d2_fd,
    )


# ---------------------------------------------------------------------------
# convexity / sign scan
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScanViolation:
    kind: str
    n_ul: float
    value: float


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
    """

    n_ul: np.ndarray
    eps_ul: np.ndarray
    eps_dl: np.ndarray
    eps_cl: np.ndarray
    log_eps_cl: np.ndarray
    d_eps_cl: np.ndarray
    sign_d_eps_cl: np.ndarray
    d2_eps_cl: np.ndarray
    convexity_indicator: np.ndarray
    saturated: np.ndarray
    violations: tuple[ScanViolation, ...]

    def violations_of(self, kind: str) -> tuple[ScanViolation, ...]:
        return tuple(v for v in self.violations if v.kind == kind)

    @property
    def ul_monotone_ok(self) -> bool:
        """No grid interval on which eps_ul increases.

        Note this can legitimately be False: once eta exceeds roughly
        4*ln2*d/(6 - 8*ln2), the uplink error rate itself turns upward
        before the 0 dB bound (spreading the energy budget ever thinner
        stops paying off), so eps_ul is not monotone on the full domain.
        """
        return not self.violations_of("ul_not_nonincreasing")

    @property
    def dl_monotone_ok(self) -> bool:
        return not self.violations_of("dl_not_strictly_increasing")

    @property
    def convex_ok(self) -> bool:
        """No measurable loss of convexity.

        Genuinely False when the downlink drops below its capacity
        threshold inside the domain (eps_dl crosses 0.5 into the concave
        Q tail); the optimizer guards boundaries for that regime.
        """
        return not self.violations_of("cl_second_derivative_not_positive")

    @property
    def ok(self) -> bool:
        return not self.violations


@dataclass(frozen=True)
class ScanColumns:
    """Pointwise scan quantities at arbitrary blocklengths (no grid checks)."""

    n_ul: np.ndarray
    x_ul: np.ndarray
    x_dl: np.ndarray
    eps_ul: np.ndarray
    eps_dl: np.ndarray
    eps_cl: np.ndarray
    log_eps_ul: np.ndarray
    log_eps_dl: np.ndarray
    log_eps_cl: np.ndarray
    d_eps_cl: np.ndarray
    sign_d_eps_cl: np.ndarray
    d2_eps_cl: np.ndarray
    convexity_indicator: np.ndarray
    saturated: np.ndarray  # bool: log eps_cl flat to rounding on the stencil


#: a five-point stencil of log eps_cl spanning less than this is treated
#: as flat to rounding (eps_cl pinned at the representation ceiling), so
#: its finite differences carry no curvature information
_STENCIL_FLOOR = 1e-12


def scan_columns(cfg: SystemConfig, points: np.ndarray) -> ScanColumns:
    """Evaluate every scan column at the given blocklengths.

    One array evaluation over all points, with no per-point Python loop:
    error rates and their logs from the decoding arguments, the
    convexity indicator from Richardson differences of log eps_cl, and
    d eps_cl/d n_ul with its exact log-space sign from
    ``_d_eps_cl_columns``.  That sign equals :func:`d_eps_cl_sign` at
    every point; the derivative agrees with :func:`d_eps_cl_dn` up to the
    last bits that numpy's exp, log and power round differently.

    The same code path serves full-grid scans and single-point CSV
    round-trip checks, so recomputed values are bit-identical.
    """
    grid = np.asarray(points, dtype=float)
    ul = _LinkColumns(*_ul_link(cfg, grid))
    dl = _LinkColumns(*_dl_link(cfg, grid))
    x_ul = np.asarray(ul.x, dtype=float)
    x_dl = np.asarray(dl.x, dtype=float)
    log_ul = np.asarray(_log_ndtr(-x_ul), dtype=float)
    log_dl = np.asarray(_log_ndtr(-x_dl), dtype=float)
    log_cl = np.logaddexp(log_ul, log_dl)
    eps_ul = np.asarray(0.5 * _erfc(x_ul / _SQRT2), dtype=float)
    eps_dl = np.asarray(0.5 * _erfc(x_dl / _SQRT2), dtype=float)

    # Richardson-extrapolated central differences of log eps_cl; the step
    # shrinks near n_max so the downlink stencil keeps n_dl > 0.
    h = np.maximum(1e-4, 1e-3 * grid)
    h = np.minimum(h, (cfg.n_max - grid) / 4.0)
    f = lambda pts: np.logaddexp(_ul_log_eps(cfg, pts), _dl_log_eps(cfg, pts))
    f_p1, f_m1 = f(grid + h), f(grid - h)
    f_p2, f_m2 = f(grid + 2.0 * h), f(grid - 2.0 * h)
    g1 = (4.0 * (f_p1 - f_m1) / (2.0 * h) - (f_p2 - f_m2) / (4.0 * h)) / 3.0
    g2 = (
        4.0 * (f_p1 - 2.0 * log_cl + f_m1) / h**2
        - (f_p2 - 2.0 * log_cl + f_m2) / (4.0 * h**2)
    ) / 3.0
    indicator = g2 + g1**2
    stencil = np.stack([f_m2, f_m1, log_cl, f_p1, f_p2])
    saturated = (stencil.max(axis=0) - stencil.min(axis=0)) < _STENCIL_FLOOR

    d_eps_cl, signs = _d_eps_cl_columns(cfg, ul, dl)

    return ScanColumns(
        n_ul=grid,
        x_ul=x_ul,
        x_dl=x_dl,
        eps_ul=eps_ul,
        eps_dl=eps_dl,
        eps_cl=eps_ul + eps_dl,
        log_eps_ul=log_ul,
        log_eps_dl=log_dl,
        log_eps_cl=log_cl,
        d_eps_cl=d_eps_cl,
        sign_d_eps_cl=signs,
        d2_eps_cl=np.exp(log_cl) * indicator,
        convexity_indicator=indicator,
        saturated=saturated,
    )


def convexity_scan(
    cfg: SystemConfig, grid_points: int = 200
) -> ScanReport | Infeasible:
    """Scan eps_ul, eps_dl, eps_cl and their derivatives over the domain.

    Checks, on a uniform grid over [n_lo, n_hi]: eps_ul monotone
    non-increasing, eps_dl strictly increasing, and the second derivative
    of eps_cl positive at every grid point that is not ``saturated``.
    Violations are reported with their coordinates; an empty domain
    yields an Infeasible marker.
    """
    if grid_points < 1:
        raise ValueError(f"grid_points must be >= 1, got {grid_points!r}")
    dom = feasible_domain(cfg)
    if dom.empty:
        return Infeasible("empty blocklength domain", dom)
    grid = np.linspace(dom.n_lo, dom.n_hi, grid_points)
    cols = scan_columns(cfg, grid)
    log_ul, log_dl = cols.log_eps_ul, cols.log_eps_dl
    indicator = cols.convexity_indicator

    violations: list[ScanViolation] = []
    dlog_ul = np.diff(log_ul)
    dlog_dl = np.diff(log_dl)
    for i in np.flatnonzero(dlog_ul > 0.0):
        violations.append(
            ScanViolation("ul_not_nonincreasing", float(grid[i + 1]), float(dlog_ul[i]))
        )
    for i in np.flatnonzero(~(dlog_dl > 0.0)):
        violations.append(
            ScanViolation(
                "dl_not_strictly_increasing", float(grid[i + 1]), float(dlog_dl[i])
            )
        )
    for i in np.flatnonzero(~(indicator > 0.0) & ~cols.saturated):
        violations.append(
            ScanViolation(
                "cl_second_derivative_not_positive",
                float(grid[i]),
                float(indicator[i]),
            )
        )

    return ScanReport(
        n_ul=grid,
        eps_ul=cols.eps_ul,
        eps_dl=cols.eps_dl,
        eps_cl=cols.eps_cl,
        log_eps_cl=cols.log_eps_cl,
        d_eps_cl=cols.d_eps_cl,
        sign_d_eps_cl=cols.sign_d_eps_cl,
        d2_eps_cl=cols.d2_eps_cl,
        convexity_indicator=indicator,
        saturated=cols.saturated,
        violations=tuple(violations),
    )
