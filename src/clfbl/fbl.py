"""Per-link finite-blocklength error model for AWGN channels.

Short codes do not reach Shannon capacity; in the normal-approximation
regime the packet error rate of a link carrying d payload bits in an
n-bit codeword at SNR gamma is

    eps = Q( sqrt(n / V) * (C - d/n) * ln 2 ),

with C = B*log2(1+gamma) the capacity in bits/s/Hz and
V = 1 - (1+gamma)^-2 the AWGN channel dispersion.  This module holds
that per-link model plus the closed-loop combinators (a loop succeeds
only if both the uplink request and the downlink response decode).

Error rates below the double-precision underflow threshold saturate to
exactly 0.0; ``_log_eps_of`` gives log Q, which stays finite there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

from scipy.special import erfc as _erfc, log_ndtr as _log_ndtr

_SQRT2 = math.sqrt(2.0)
_LN2 = math.log(2.0)
#: largest SNR a config may imply: the uplink slope factor cubes 1 + SNR,
#: which overflows a double near 5.6e102
_SNR_MAX = 1e100


def _eps_of(x):
    """Error rate Q(x) at decoding argument x, unchecked, of a float or an array."""
    return 0.5 * _erfc(x / _SQRT2)


def _log_eps_of(x):
    """log Q(x) like :func:`_eps_of`, finite where Q(x) underflows to 0."""
    return _log_ndtr(-x)


def q_function(x: float) -> float:
    """Standard normal tail probability Q(x) = 0.5*erfc(x/sqrt(2)).

    Monotone decreasing with range [0, 1]; results below the
    double-precision underflow threshold saturate to 0.
    """
    if not math.isfinite(x):
        raise ValueError(f"q_function requires a finite argument, got {x!r}")
    return float(_eps_of(x))


def _channel(gamma, B: float, xp=math) -> tuple:
    """(capacity, dispersion) of a link at SNR gamma, unchecked (gamma > 0),
    with the ``log1p`` of backend ``xp``: ``math`` for floats, ``numpy`` for
    arrays.  Callers keep their backend: the two ``log1p`` differ in the
    last bit on ~7% of table1 uplink SNRs, and the golden fixtures pin both.
    Callers that hold gamma fixed over many n take it once."""
    return B * xp.log1p(gamma) / _LN2, 1.0 - 1.0 / ((1.0 + gamma) * (1.0 + gamma))


def _code(n, cap, disp, d: float, xp=math) -> tuple:
    """(omega, beta, x) of an n-bit codeword carrying d bits over a link of
    capacity ``cap`` and dispersion ``disp`` from :func:`_channel`, unchecked
    (n >= d >= 1), with the ``sqrt`` of backend ``xp``."""
    omega = cap - d / n
    beta = xp.sqrt(n / disp)
    return omega, beta, _LN2 * omega * beta


@dataclass(frozen=True)
class SystemConfig:
    """Exogenous scenario parameters of one closed-loop link budget.

    Units are SI throughout: watts, joules, hertz, bits, seconds.

    Attributes:
        d: payload size per direction, bits.
        f_s: sampling rate, symbols per second.
        M: modulation order, bits per symbol.
        E: uplink energy budget per transmission, joules.
        p_dl: downlink transmit power, watts.
        N: background noise power, watts.
        n_max: total closed-loop blocklength budget, bits (f_s*M*T).
        g_ul, g_dl: channel power gains |h|^2, dimensionless.
        B: channel bandwidth, Hz (normalized to 1 by default).
        eps_max: per-direction error-rate bound in (0, 1).
        T: closed-loop frame length, seconds; informational, checked
           against n_max when given.
    """

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
    T: float | None = None

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{f.name} must be finite, got {value!r}")
        if self.d < 1.0:
            raise ValueError(f"payload must be at least 1 bit, got {self.d!r}")
        if self.n_max < 2.0 * self.d:
            raise ValueError(
                f"n_max={self.n_max!r} < 2*d={2.0 * self.d!r}: lossless coding "
                "in both directions is impossible"
            )
        for name in ("f_s", "E", "p_dl", "N", "g_ul", "g_dl", "B"):
            value = getattr(self, name)
            if value <= 0.0:
                raise ValueError(f"{name} must be positive, got {value!r}")
        gamma_dl = self.p_dl * self.g_dl / self.N
        if 1.0 + gamma_dl == 1.0:
            raise ValueError(
                f"downlink SNR p_dl*g_dl/N with p_dl={self.p_dl!r}, g_dl={self.g_dl!r}, "
                f"N={self.N!r} is below double precision (1 + SNR == 1), which "
                "leaves the channel dispersion at zero"
            )
        eta = self.E * self.M * self.f_s * self.g_ul / self.N
        for snr_name, keys, value in (
            ("uplink SNR eta/d = E*M*f_s*g_ul/(N*d)", "E M f_s g_ul N d", eta / self.d),
            ("downlink SNR p_dl*g_dl/N", "p_dl g_dl N", gamma_dl),
        ):
            if value > _SNR_MAX:
                given = ", ".join(f"{k}={getattr(self, k)!r}" for k in keys.split())
                raise ValueError(f"{snr_name} with {given} is {value:.3g}, above the "
                                 f"largest SNR the error model evaluates, {_SNR_MAX:g}")
        if self.M < 1.0:
            raise ValueError(f"modulation order must be >= 1, got {self.M!r}")
        if not 0.0 < self.eps_max < 1.0:
            raise ValueError(f"eps_max must lie in (0, 1), got {self.eps_max!r}")
        if self.T is not None:
            implied = self.f_s * self.M * self.T
            if abs(self.n_max - implied) > 1e-9 * self.n_max:
                raise ValueError(
                    f"inconsistent frame length: f_s*M*T={implied!r} but "
                    f"n_max={self.n_max!r}"
                )


@dataclass(frozen=True)
class LinkState:
    """Derived channel/code quantities of one link at a given blocklength.

    All fields are deterministic functions of (n, gamma, d, B); the class
    is only built through :meth:`from_snr`, so that reconstruction from the
    same inputs is bit-identical.  No CLI path builds one: the solver and
    the scan evaluate ``_channel`` and ``_code`` directly, and the class
    stays while ``perfbench/tracing.py`` wraps :meth:`from_snr` by name.
    """

    n: float
    gamma: float
    capacity: float
    dispersion: float
    omega: float  # capacity margin C - d/n, bits/s/Hz
    beta: float   # sqrt(n/V)
    x: float      # decoding argument (ln 2)*omega*beta
    eps: float    # error rate Q(x)

    @classmethod
    def from_snr(cls, n: float, gamma: float, d: float, B: float = 1.0) -> "LinkState":
        if d < 1.0:
            raise ValueError(f"payload must be at least 1 bit, got {d!r}")
        if n < d:
            raise ValueError(
                f"lossless coding requires blocklength n >= d, got n={n!r}, d={d!r}"
            )
        if gamma <= 0.0:
            raise ValueError(
                "degenerate channel: zero dispersion at gamma <= 0 leaves the "
                f"error model undefined (gamma={gamma!r})"
            )
        cap, disp = _channel(gamma, B)
        omega, beta, x = _code(n, cap, disp, d)
        return cls(
            n=n, gamma=gamma, capacity=cap, dispersion=disp,
            omega=omega, beta=beta, x=x, eps=q_function(x),
        )


def loop_reliability(eps_ul: float, eps_dl: float) -> float:
    """Probability (1-eps_ul)*(1-eps_dl) that a full request/response loop succeeds."""
    _check_unit_interval(eps_ul, "eps_ul")
    _check_unit_interval(eps_dl, "eps_dl")
    return (1.0 - eps_ul) * (1.0 - eps_dl)


def _check_unit_interval(value: float, name: str) -> None:
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must lie in [0, 1], got {value!r}")
