"""The reference model against 50-digit mpmath values, deep in the tail."""

import math
from dataclasses import replace

import numpy as np
import pytest

import reference as ref

mpmath = pytest.importorskip("mpmath")
mp = mpmath.mp


@pytest.fixture(autouse=True)
def fifty_digits():
    with mpmath.workdps(50):
        yield


def mp_log_q(x):
    return mp.log(mp.erfc(mp.mpf(x) / mp.sqrt(2)) / 2)


def mp_x(n, gamma, d, B=1.0):
    n, gamma = mp.mpf(n), mp.mpf(gamma)
    cap = B * mp.log(1 + gamma) / mp.log(2)
    disp = 1 - 1 / (1 + gamma) ** 2
    return mp.log(2) * (cap - d / n) * mp.sqrt(n / disp)


def mp_log_eps_cl(p, n):
    n = mp.mpf(n)
    eta = mp.mpf(p.E) * p.M * p.f_s * p.g_ul / mp.mpf(p.N)
    lu = mp_log_q(mp_x(n, eta / n, p.d, p.B))
    ld = mp_log_q(mp_x(p.n_max - n, mp.mpf(p.p_dl) * p.g_dl / mp.mpf(p.N), p.d, p.B))
    return mp.log(mp.exp(lu) + mp.exp(ld))


@pytest.mark.parametrize("x", [-6.0, -0.5, 0.0, 1e-3, 2.0, 8.0, 37.5, 460.0, 3.0e4])
def test_log_q(x):
    got = float(ref.log_q([x])[0])
    want = float(mp_log_q(x))
    assert got == pytest.approx(want, rel=1e-13, abs=1e-300)


@pytest.mark.parametrize("n, gamma, d, B", [
    (9.0, 6.02, 8.0, 1.0), (2036.0, 79.8, 8.0, 1.0), (2451.0, 3.3, 8.0, 1.0),
    (1.5e5, 1.0001, 300.0, 1.0), (64.0, 2.5e4, 64.0, 2.0),
])
def test_decoding_arg(n, gamma, d, B):
    got = float(ref.decoding_arg(n, gamma, d, B))
    assert got == pytest.approx(float(mp_x(n, gamma, d, B)), rel=1e-13)


@pytest.mark.parametrize("noise, n", [(1e-6, 2036), (1e-6, 9), (1.1e-4, 569),
                                      (3e-3, 49), (9.99e-3, 16)])
def test_log_eps_cl_in_the_tail(noise, n):
    p = replace(ref.TABLE1, N=noise)
    got = float(ref.log_eps_cl(p, [float(n)])[0])
    assert got == pytest.approx(float(mp_log_eps_cl(p, n)), rel=1e-12)


def test_domain_of_table1():
    dom = ref.domain(ref.TABLE1)
    assert dom.n_lo == 9.0
    assert dom.n_hi == pytest.approx(0.65e-6 * 250e3 / 3e-3, rel=1e-15)
    assert dom.snr_binds and (dom.int_lo, dom.int_hi) == (9, 54)
    tiny = replace(ref.TABLE1, E=1e-9)  # eta = 0.083 < 9
    assert not ref.domain(tiny).has_integer and ref.argmin(tiny) is None


@pytest.mark.parametrize("noise", [3e-3, 1e-3, 9.99e-3])
def test_argmin_matches_mpmath(noise):
    p = replace(ref.TABLE1, N=noise)
    dom = ref.domain(p)
    values = [mp_log_eps_cl(p, n) for n in range(dom.int_lo, dom.int_hi + 1)]
    best = ref.argmin(p)
    assert best.n_ul == dom.int_lo + values.index(min(values))
    assert best.log_eps_cl == pytest.approx(float(min(values)), rel=1e-12)


def test_argmin_spans_chunks():
    # a domain longer than one chunk of the exhaustive search
    p = ref.Params(d=8.0, f_s=250e3, M=1.0, E=4e-6, p_dl=1e-2, N=1e-7, n_max=2.5e6)
    assert ref.domain(p).width > ref._CHUNK
    best = ref.argmin(p)
    n = np.arange(ref.domain(p).int_lo, ref.domain(p).int_hi + 1, dtype=float)
    assert best.n_ul == ref.domain(p).int_lo + int(np.argmin(ref.log_eps_cl(p, n)))


@pytest.mark.parametrize("noise, n", [(3e-3, 20.0), (3e-3, 54.0), (1e-6, 300.0),
                                      (1e-6, 2400.0), (9.99e-3, 12.0)])
def test_slope_sign(noise, n):
    p = replace(ref.TABLE1, N=noise)
    sign, certain = ref.slope_sign(p, [n])
    assert certain[0]
    deriv = mp.diff(lambda m: mp_log_eps_cl(p, m), mp.mpf(n))
    assert sign[0] == (1 if deriv > 0 else -1)


def test_sweep_levels():
    levels = ref.sweep_noise_levels(1e-2, 50)
    assert levels[0] == pytest.approx(1e-6, rel=1e-15)
    assert levels[-1] == pytest.approx(1e-2 * (1 - 1e-3), rel=1e-15)
    assert np.allclose(np.diff(np.log(levels)), math.log(levels[-1] / levels[0]) / 49)
