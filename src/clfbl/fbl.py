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
exactly 0.0; use :func:`log_q` where the magnitude of deep-tail values
matters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

from scipy.special import erfc as _erfc, log_ndtr as _log_ndtr

_SQRT2 = math.sqrt(2.0)
_LN2 = math.log(2.0)


def q_function(x: float) -> float:
    """Standard normal tail probability Q(x) = 0.5*erfc(x/sqrt(2)).

    Monotone decreasing with range [0, 1]; results below the
    double-precision underflow threshold saturate to 0.
    """
    if not math.isfinite(x):
        raise ValueError(f"q_function requires a finite argument, got {x!r}")
    return 0.5 * float(_erfc(x / _SQRT2))


def log_q(x: float) -> float:
    """Natural log of Q(x), finite for any x where Q underflows in double."""
    if not math.isfinite(x):
        raise ValueError(f"log_q requires a finite argument, got {x!r}")
    return float(_log_ndtr(-x))


def snr(p: float, g: float, n_noise: float) -> float:
    """Linear SNR p*g/n_noise of a link with power p, gain g, noise n_noise."""
    if n_noise <= 0.0:
        raise ValueError(f"noise power must be positive, got {n_noise!r}")
    if g <= 0.0:
        raise ValueError(f"channel power gain must be positive, got {g!r}")
    if p < 0.0:
        raise ValueError(f"transmit power must be non-negative, got {p!r}")
    return p * g / n_noise


def capacity(gamma: float, B: float = 1.0) -> float:
    """Shannon capacity B*log2(1+gamma) in bits/s/Hz."""
    if gamma < 0.0:
        raise ValueError(f"SNR must be non-negative, got {gamma!r}")
    return B * math.log1p(gamma) / _LN2


def dispersion(gamma: float) -> float:
    """AWGN channel dispersion V = 1 - (1+gamma)^-2, in [0, 1).

    Algebraically identical to (gamma^2 + 2*gamma) / (1+gamma)^2.
    """
    if gamma < 0.0:
        raise ValueError(f"SNR must be non-negative, got {gamma!r}")
    return 1.0 - 1.0 / (1.0 + gamma) ** 2


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

    All fields are deterministic functions of (n, p, g, noise, d, B); the
    class is only built through its classmethods so that reconstruction
    from the same inputs is bit-identical.
    """

    n: float
    gamma: float
    capacity: float
    dispersion: float
    omega: float  # capacity margin C - d/n, bits/s/Hz
    beta: float   # sqrt(n/V)
    x: float      # decoding argument (ln 2)*omega*beta
    eps: float    # error rate Q(x)
    p: float | None = field(default=None)

    @classmethod
    def from_snr(
        cls,
        n: float,
        gamma: float,
        d: float,
        B: float = 1.0,
        p: float | None = None,
    ) -> "LinkState":
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
        cap = capacity(gamma, B)
        disp = dispersion(gamma)
        omega = cap - d / n
        beta = math.sqrt(n / disp)
        x = _LN2 * omega * beta
        return cls(
            n=n, gamma=gamma, capacity=cap, dispersion=disp,
            omega=omega, beta=beta, x=x, eps=q_function(x), p=p,
        )

    @classmethod
    def from_power(
        cls, n: float, p: float, g: float, noise: float, d: float, B: float = 1.0
    ) -> "LinkState":
        return cls.from_snr(n, snr(p, g, noise), d, B, p=p)

    def log_eps(self) -> float:
        """log of the error rate, finite even where eps underflows."""
        return log_q(self.x)


def fbl_error_rate(n: float, gamma: float, d: float, B: float = 1.0) -> float:
    """Finite-blocklength error rate Q((ln 2)*(C - d/n)*sqrt(n/V)).

    Use :meth:`LinkState.from_snr` for the intermediate quantities.
    """
    return LinkState.from_snr(n, gamma, d, B).eps


def loop_reliability(eps_ul: float, eps_dl: float) -> float:
    """Probability (1-eps_ul)*(1-eps_dl) that a full request/response loop succeeds."""
    _check_unit_interval(eps_ul, "eps_ul")
    _check_unit_interval(eps_dl, "eps_dl")
    return (1.0 - eps_ul) * (1.0 - eps_dl)


def loop_error_approx(eps_ul: float, eps_dl: float) -> float:
    """Additive loop-error objective eps_ul + eps_dl.

    May exceed 1; callers treat it as an objective value, not a
    probability.  The gap to the exact 1 - loop_reliability is exactly
    eps_ul*eps_dl.
    """
    _check_unit_interval(eps_ul, "eps_ul")
    _check_unit_interval(eps_dl, "eps_dl")
    return eps_ul + eps_dl


def _check_unit_interval(value: float, name: str) -> None:
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must lie in [0, 1], got {value!r}")
