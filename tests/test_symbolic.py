"""Symbolic checks of the closed forms in the ``clfbl.derivatives`` docstring.

sympy differentiates the decoding argument x = (ln 2)*omega*beta itself,
so the hand-derived slope factors, d eps/d n = phi * factor with
factor = (dx/dn)/ln 2, and the derivative values built on them, are held
to a derivation that shares no code with them.  The uplink sees n through
its blocklength and through gamma = eta/n; the downlink has a fixed SNR
and n_dl = n_max - n_ul.
"""

import sys

import mpmath
import numpy as np
import pytest
import sympy as sp

from clfbl.derivatives import _dl_slope_factor, _ul_slope_factor
from clfbl.energy import feasible_domain
from clfbl.fbl import _channel, _code

from conftest import d_eps_dl, d_eps_ul, make_config

n, gamma, eta, d, B = sp.symbols("n gamma eta d B", positive=True)

V = 1 - 1 / (1 + gamma) ** 2
OMEGA = B * sp.log(1 + gamma) / sp.log(2) - d / n
BETA = sp.sqrt(n / V)
X = sp.log(2) * OMEGA * BETA

#: under the energy coupling gamma_ul * n_ul = eta is constant
UL = {gamma: eta / n}


def delta_ul(g, b=1):
    """Residual SNR-coupling term of the uplink derivative decomposition,

        [(4*ln2*C - 3)*g^3 + (11*ln2*C - 7)*g^2 + ln2*C*g + 2] / (1+g)^2,

    with C = B*log2(1+g), as an exact sympy expression."""
    lc = b * sp.log(1 + g)
    poly = (4 * lc - 3) * g**3 + (11 * lc - 7) * g**2 + lc * g + 2
    return poly / (1 + g) ** 2


def _is_zero(expr) -> bool:
    return sp.simplify(expr) == 0


class TestClosedForms:
    def test_uplink_omega_slope(self):
        closed = d / n**2 - B * gamma / (sp.log(2) * (1 + gamma) * n)
        assert _is_zero(sp.diff(OMEGA.subs(UL), n) - closed.subs(UL))

    def test_uplink_beta_slope(self):
        closed = (V * (1 + gamma) ** 3 + 2 * gamma) / (
            2 * BETA * V**2 * (1 + gamma) ** 3
        )
        assert _is_zero(sp.diff(BETA.subs(UL), n) - closed.subs(UL))

    def test_downlink_bracket(self):
        # d x_dl/d n_dl over ln 2, at fixed SNR, and the positive form the
        # signed-log kernel takes its magnitude from
        bracket = BETA * d / n**2 + OMEGA / (2 * BETA * V)
        assert _is_zero(sp.diff(X, n) / sp.log(2) - bracket)
        capacity = B * sp.log(1 + gamma) / sp.log(2)
        assert _is_zero(bracket - (d + capacity * n) / (2 * BETA * V * n))


class TestBudgetMonotonicity:
    """At a fixed split, x rises with the SNR and with the blocklength, so
    more energy (gamma_ul = eta/n_ul) or a longer frame (n_dl = n_max -
    n_ul) never raises an error rate; see the README's model section."""

    def test_x_rises_with_snr(self):
        # dx/dgamma = positive factor * (n*B*[(g^2+2g) - ln(1+g)]/ln 2 + d)
        bracket = gamma**2 + 2 * gamma - sp.log(1 + gamma)
        key = n * B * bracket / sp.log(2) + d
        factor = sp.log(2) / (sp.sqrt(n) * (gamma**2 + 2 * gamma) ** sp.Rational(3, 2))
        assert _is_zero(sp.diff(X, gamma) / key - factor)
        assert factor.is_positive
        # the bracket is 0 at gamma = 0 and rises: the key is positive
        assert bracket.subs(gamma, 0) == 0
        assert sp.factor(sp.diff(bracket, gamma)).is_positive

    def test_x_rises_with_blocklength(self):
        capacity = sp.Symbol("C", positive=True)
        slope = sp.diff((n * capacity - d) / sp.sqrt(n), n)
        assert _is_zero(slope - (n * capacity + d) / (2 * n ** sp.Rational(3, 2)))


#: sympy's dx/dn as functions of (n, eta, d, B) and (n, gamma, d, B), each
#: evaluated in 50-digit arithmetic
_UL_SLOPE = sp.lambdify((n, eta, d, B), sp.diff(X.subs(UL), n) / sp.log(2), "mpmath")
_DL_SLOPE = sp.lambdify((n, gamma, d, B), sp.diff(X, n) / sp.log(2), "mpmath")
_UL_X = sp.lambdify((n, eta, d, B), X.subs(UL), "mpmath")
_DL_X = sp.lambdify((n, gamma, d, B), X, "mpmath")

_CONFIGS = [
    make_config(),
    make_config(N=1e-5),
    make_config(d=12.0, f_s=100e3, M=3.0, E=2e-6, p_dl=8e-3, N=2e-3,
                n_max=900.0, B=1.7),
]


@pytest.mark.parametrize("cfg", _CONFIGS)
def test_slope_factors_match_symbolic_derivative(cfg):
    dom = feasible_domain(cfg)
    eta_f = cfg.eta
    g_dl = cfg.p_dl * cfg.g_dl / cfg.N
    with mpmath.workdps(50):
        for n_ul in np.linspace(dom.n_lo, dom.n_hi, 25).tolist():
            g_ul = eta_f / n_ul
            cap, V_f = _channel(g_ul, cfg.B)
            w, b, _ = _code(n_ul, cap, V_f, cfg.d)
            factor = _ul_slope_factor(cfg, n_ul, g_ul, V_f, b, w)
            exact = float(_UL_SLOPE(n_ul, eta_f, cfg.d, cfg.B))
            assert factor == pytest.approx(exact, rel=1e-12), ("ul", n_ul)

            n_dl = cfg.n_max - n_ul
            cap, V_f = _channel(g_dl, cfg.B)
            w, b, _ = _code(n_dl, cap, V_f, cfg.d)
            factor = _dl_slope_factor(cfg, n_dl, V_f, b, w)
            exact = float(_DL_SLOPE(n_dl, g_dl, cfg.d, cfg.B))
            assert factor == pytest.approx(exact, rel=1e-12), ("dl", n_ul)



#: a short frame whose downlink decoding argument stays moderate, so that
#: d eps_dl/d n_ul is a normal double at most points
_SHORT_FRAME = make_config(E=1e-6, p_dl=5e-3, N=3e-3, n_max=100.0)


def _reference_derivatives(cfg, n_ul):
    """d eps_ul/d n_ul and d eps_dl/d n_ul as -Q'(x) * dx/dn in 50 digits,
    rounded to doubles; the chain rule through n_dl = n_max - n_ul flips
    the downlink sign."""
    eta_f = cfg.eta
    g_dl = cfg.p_dl * cfg.g_dl / cfg.N
    n_dl = cfg.n_max - n_ul
    with mpmath.workdps(50):
        ln2 = mpmath.log(2)
        x_ul = _UL_X(n_ul, eta_f, cfg.d, cfg.B)
        x_dl = _DL_X(n_dl, g_dl, cfg.d, cfg.B)
        ul = -mpmath.npdf(x_ul) * ln2 * _UL_SLOPE(n_ul, eta_f, cfg.d, cfg.B)
        dl = mpmath.npdf(x_dl) * ln2 * _DL_SLOPE(n_dl, g_dl, cfg.d, cfg.B)
        return float(ul), float(dl)


@pytest.mark.parametrize("cfg", _CONFIGS + [_SHORT_FRAME])
def test_derivative_values_match_symbolic_reference(cfg):
    # a value below the normal range carries fewer significant bits, so
    # there the kernel is only required to have underflowed as well
    dom = feasible_domain(cfg)
    normal = {"ul": 0, "dl": 0}
    grid = np.linspace(dom.n_lo, dom.n_hi, 25)
    values = zip(d_eps_ul(cfg, grid).tolist(), d_eps_dl(cfg, grid).tolist())
    for n_ul, (value_ul, value_dl) in zip(grid.tolist(), values):
        ref_ul, ref_dl = _reference_derivatives(cfg, n_ul)
        for side, value, ref in (
            ("ul", value_ul, ref_ul),
            ("dl", value_dl, ref_dl),
        ):
            if abs(ref) >= sys.float_info.min:
                assert value == pytest.approx(ref, rel=1e-12, abs=0.0), (side, n_ul)
                normal[side] += 1
            else:
                assert abs(value) < sys.float_info.min, (side, n_ul)
    if cfg is _SHORT_FRAME:
        assert normal["dl"] >= 10
    assert normal["ul"] > 0
