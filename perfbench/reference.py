"""The closed-loop error model, written without any code from ``clfbl``.

The benchmark checks every output of ``clfbl`` against this module.  It
restates the model in another algebraic form and on other special
functions, so a slip in one is unlikely to be repeated in the other:

* decoding argument  x = (B*ln(1+g) - ln2*d/n) * (1+g) * sqrt(n / (g*(g+2))),
  which equals ln2*(C - d/n)*sqrt(n/V) with C = B*log2(1+g) and
  V = 1 - (1+g)^-2;
* log Q(x) from the scaled complementary error function,
  log Q(x) = log(erfcx(x/sqrt2)/2) - x^2/2 for x > 0, and
  log1p(-erfc(-x/sqrt2)/2) otherwise, so it stays finite where Q(x)
  underflows (``clfbl`` uses ``log_ndtr``);
* the uplink SNR under the energy budget, g_ul = eta/n with
  eta = E*M*f_s*g_ul/N, and the domain [max(9, d), min(eta, n_max - d)];
* the derivative sign of eps_cl from central differences of log eps_cl
  at two step sizes (``clfbl`` uses closed-form derivatives).

The tests in ``tests/test_reference.py`` hold these functions to 50-digit
``mpmath`` values at deep-tail points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import erfc, erfcx

LN2 = math.log(2.0)
SQRT2 = math.sqrt(2.0)

#: relative gap in log eps_cl below which two blocklengths tie; the
#: reference's own rounding is a few units in 1e-15 of |log eps_cl|
TIE_RTOL = 1e-12

#: chunk length of the exhaustive argmin, bounding its memory
_CHUNK = 1 << 20


@dataclass(frozen=True)
class Params:
    """One link budget, in SI units (the keys of a ``clfbl`` scenario)."""

    d: float
    f_s: float
    M: float
    E: float
    p_dl: float
    N: float
    n_max: float
    g_ul: float = 1.0
    g_dl: float = 1.0
    B: float = 1.0
    eps_max: float = 1e-5

    @property
    def eta(self) -> float:
        return self.E * self.M * self.f_s * self.g_ul / self.N


def params_of(cfg) -> Params:
    """Params of any object with the scenario keys as attributes."""
    return Params(**{k: float(getattr(cfg, k)) for k in Params.__dataclass_fields__})


#: the ``table1`` preset of ``clfbl``, restated from the paper's setup
TABLE1 = Params(d=8.0, f_s=250e3, M=1.0, E=0.65e-6, p_dl=10e-3, N=3e-3, n_max=2500.0)


def log_q(x) -> np.ndarray:
    """Natural log of the Gaussian tail Q(x), finite for every finite x."""
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    pos = x > 0.0
    xp = x[pos]
    out[pos] = np.log(0.5 * erfcx(xp / SQRT2)) - 0.5 * xp * xp
    out[~pos] = np.log1p(-0.5 * erfc(-x[~pos] / SQRT2))
    return out


def decoding_arg(n, gamma, d: float, B: float) -> np.ndarray:
    """Normal-approximation decoding argument of one link."""
    n = np.asarray(n, dtype=float)
    gamma = np.asarray(gamma, dtype=float)
    margin = B * np.log1p(gamma) - LN2 * d / n
    return margin * (1.0 + gamma) * np.sqrt(n / (gamma * (gamma + 2.0)))


def x_ul(p: Params, n_ul) -> np.ndarray:
    n_ul = np.asarray(n_ul, dtype=float)
    return decoding_arg(n_ul, p.eta / n_ul, p.d, p.B)


def x_dl(p: Params, n_ul) -> np.ndarray:
    n_dl = p.n_max - np.asarray(n_ul, dtype=float)
    return decoding_arg(n_dl, p.p_dl * p.g_dl / p.N, p.d, p.B)


def log_eps(p: Params, n_ul) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(log eps_ul, log eps_dl, log eps_cl) at the given uplink blocklengths."""
    lu = log_q(x_ul(p, n_ul))
    ld = log_q(x_dl(p, n_ul))
    return lu, ld, np.logaddexp(lu, ld)


def log_eps_cl(p: Params, n_ul) -> np.ndarray:
    return log_eps(p, n_ul)[2]


@dataclass(frozen=True)
class Domain:
    n_lo: float
    n_hi: float
    snr_binds: bool  # eta, not n_max - d, caps the uplink blocklength

    @property
    def int_lo(self) -> int:
        return math.ceil(self.n_lo)

    @property
    def int_hi(self) -> int:
        return math.floor(self.n_hi)

    @property
    def has_integer(self) -> bool:
        return self.int_lo <= self.int_hi

    @property
    def width(self) -> int:
        return max(0, self.int_hi - self.int_lo + 1)


def domain(p: Params) -> Domain:
    cap = p.n_max - p.d
    eta = p.eta
    return Domain(max(9.0, p.d), min(eta, cap), eta <= cap)


@dataclass(frozen=True)
class Argmin:
    n_ul: int
    log_eps_cl: float


def argmin(p: Params) -> Argmin | None:
    """Exhaustive integer argmin of log eps_cl (smallest on exact ties)."""
    dom = domain(p)
    if not dom.has_integer:
        return None
    best_n, best_v = -1, math.inf
    for start in range(dom.int_lo, dom.int_hi + 1, _CHUNK):
        n = np.arange(start, min(start + _CHUNK, dom.int_hi + 1), dtype=float)
        v = log_eps_cl(p, n)
        i = int(np.argmin(v))
        if v[i] < best_v:
            best_n, best_v = start + i, float(v[i])
    return Argmin(best_n, best_v)


def ties(p: Params, n_ul: int, best: Argmin) -> bool:
    """True when n_ul is the argmin or its log eps_cl equals the minimum."""
    if n_ul == best.n_ul:
        return True
    v = float(log_eps_cl(p, [n_ul])[0])
    return v - best.log_eps_cl <= TIE_RTOL * max(1.0, abs(best.log_eps_cl))


def slope_sign(p: Params, n_ul) -> tuple[np.ndarray, np.ndarray]:
    """(sign of d eps_cl/d n_ul, mask of points where that sign is certain).

    eps_cl and log eps_cl rise and fall together, so the sign is that of a
    central difference of log eps_cl.  A point counts as certain only where
    the differences at steps h and h/2 agree in sign and to within half
    their size, and each moves log eps_cl by far more than rounding.
    """
    n = np.asarray(n_ul, dtype=float)
    h = np.minimum(1e-3 * n, (p.n_max - n) / 4.0)
    f0 = log_eps_cl(p, n)
    wide = log_eps_cl(p, n + h) - log_eps_cl(p, n - h)
    narrow = log_eps_cl(p, n + h / 2.0) - log_eps_cl(p, n - h / 2.0)
    d_wide, d_narrow = wide / (2.0 * h), narrow / h
    floor = 1e-9 * np.maximum(1.0, np.abs(f0))
    certain = (
        (np.sign(d_wide) == np.sign(d_narrow))
        & (np.abs(d_wide - d_narrow) <= 0.5 * np.abs(d_narrow))
        & (np.abs(narrow) > floor)
    )
    return np.sign(d_narrow).astype(int), certain


def sweep_noise_levels(p_dl: float, count: int) -> np.ndarray:
    """The sweep's logarithmic noise grid over [p_dl*1e-4, p_dl*(1-1e-3)]."""
    lo, hi = math.log(p_dl * 1e-4), math.log(p_dl * (1.0 - 1e-3))
    return np.exp(lo + (hi - lo) * np.arange(count) / (count - 1))
