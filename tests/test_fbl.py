"""Per-link error model: values pinned against independent evaluations."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from clfbl import LinkState, loop_reliability, q_function
from clfbl.fbl import _channel, _log_eps_of

from conftest import make_config

# Q(1.0) evaluated with mpmath at 50 digits: 0.5*erfc(1/sqrt(2))
Q_AT_ONE = 0.1586552539314570514148

# Eq.-style error rate at n=54, gamma = eta/54 (reference setup, N = 3 mW,
# gamma double = 1.0030864197530864), pinned by a 50-digit evaluation
EPS_UL_AT_54 = 2.573951636639909908375e-7


# -- independent erfc: power series for small arguments, Lentz continued
#    fraction for the tail; shares no code with the production path ---------

def _erfc_independent(x: float) -> float:
    if x < 0.0:
        return 2.0 - _erfc_independent(-x)
    if x <= 2.0:
        # erf(x) = 2/sqrt(pi) * sum (-1)^k x^(2k+1) / (k! (2k+1))
        term = x
        total = x
        k = 0
        while abs(term) > 1e-20 * abs(total):
            k += 1
            term *= -x * x / k
            total += term / (2 * k + 1)
        return 1.0 - 2.0 / math.sqrt(math.pi) * total
    # erfc(x) = exp(-x^2)/sqrt(pi) / (x + (1/2)/(x + 1/(x + (3/2)/(x + ...))))
    cf = 0.0
    for k in range(80, 0, -1):
        cf = (k / 2.0) / (x + cf)
    return math.exp(-x * x) / math.sqrt(math.pi) / (x + cf)


class TestQFunction:
    def test_symmetry_point(self):
        assert q_function(0.0) == 0.5

    def test_tail_underflow(self):
        assert q_function(40.0) == 0.0

    def test_pinned_value(self):
        assert q_function(1.0) == pytest.approx(Q_AT_ONE, rel=1e-12)

    @pytest.mark.parametrize("x", [-6.0, -1.0, 0.3, 1.0, 2.5, 7.0, 20.0])
    def test_against_independent_erfc(self, x):
        expected = 0.5 * _erfc_independent(x / math.sqrt(2.0))
        assert q_function(x) == pytest.approx(expected, rel=1e-12)

    @given(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False))
    def test_complement_identity(self, x):
        assert q_function(x) + q_function(-x) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValueError):
            q_function(bad)

    def test_log_q_matches_where_representable(self):
        for x in (-3.0, 0.0, 1.0, 5.0, 10.0):
            assert math.exp(_log_eps_of(x)) == pytest.approx(q_function(x), rel=1e-12)

    def test_log_q_finite_in_deep_tail(self):
        assert math.isfinite(_log_eps_of(200.0))
        assert _log_eps_of(200.0) < -19000.0


def _capacity(gamma, B=1.0):
    return _channel(gamma, B)[0]


def _dispersion(gamma):
    return _channel(gamma, 1.0)[1]


def _columns_at(gammas):
    """Capacity and dispersion of the numpy backend, which takes gamma = 0 too."""
    return _channel(np.asarray(gammas, dtype=float), 1.0, np)


def _dl_state(cfg, n_ul):
    """The downlink's LinkState at n_dl = n_max - n_ul."""
    return LinkState.from_snr(cfg.n_max - n_ul, cfg.p_dl * cfg.g_dl / cfg.N, cfg.d, cfg.B)


class TestSnr:
    def test_reference_downlink(self):
        assert _dl_state(make_config(), 54.0).gamma == pytest.approx(10.0 / 3.0, rel=1e-15)

    def test_gain_noise_scaling_cancels(self):
        scaled = _dl_state(make_config(p_dl=0.123, g_dl=2.0, N=2.0 * 0.7), 54.0)
        plain = _dl_state(make_config(p_dl=0.123, g_dl=1.0, N=0.7), 54.0)
        assert scaled.gamma == pytest.approx(plain.gamma, rel=1e-15)


class TestCapacityDispersion:
    def test_capacity_at_0db(self):
        assert _capacity(1.0, 1.0) == 1.0

    def test_capacity_zero(self):
        capacity, _ = _columns_at([0.0])
        assert capacity.tolist() == [0.0]

    def test_capacity_log2_4(self):
        assert _capacity(3.0, 1.0) == pytest.approx(2.0, rel=1e-15)

    def test_dispersion_values(self):
        assert _dispersion(1.0) == 0.75
        assert _columns_at([0.0])[1].tolist() == [0.0]
        assert _dispersion(10.0 / 3.0) == pytest.approx(160.0 / 169.0, rel=1e-14)

    def test_dispersion_range_and_monotone(self):
        _, values = _columns_at([0.1 * k for k in range(60)])
        assert values[1:].tolist() == [_dispersion(0.1 * k) for k in range(1, 60)]
        previous = -1.0
        for k, value in enumerate(values.tolist()):
            assert 0.0 <= value < 1.0
            assert value > previous or k == 0
            previous = value


class TestFblErrorRate:
    def test_capacity_equals_rate_gives_half(self):
        # gamma = 1 makes C = 1, and n = d makes d/n = 1, so x = 0
        assert LinkState.from_snr(8.0, 1.0, 8.0).eps == 0.5

    def test_pinned_table_value(self):
        cfg = make_config()
        gamma = cfg.eta / 54.0
        state = LinkState.from_snr(54.0, gamma, 8.0, 1.0)
        assert state.eps == pytest.approx(EPS_UL_AT_54, rel=1e-12)
        # second, log-domain implementation of the same quantity
        assert math.exp(_log_eps_of(state.x)) == pytest.approx(state.eps, rel=1e-12)

    def test_decreasing_in_gamma(self):
        values = [LinkState.from_snr(50.0, g, 8.0).eps for g in (0.8, 1.6, 3.2)]
        assert values[0] > values[1] > values[2]

    def test_decreasing_in_n_at_fixed_gamma(self):
        for gamma in (1.0, 2.0, 8.0):
            values = [
                LinkState.from_snr(float(n), gamma, 8.0).eps for n in range(8, 200, 7)
            ]
            assert all(a > b for a, b in zip(values, values[1:]))

    def test_increasing_in_payload(self):
        values = [
            LinkState.from_snr(100.0, 1.5, float(d)).eps for d in range(4, 60, 5)
        ]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_degenerate_channel_rejected(self):
        with pytest.raises(ValueError):
            LinkState.from_snr(50.0, 0.0, 8.0)

    def test_lossless_coding_violation_rejected(self):
        with pytest.raises(ValueError):
            LinkState.from_snr(7.9, 1.0, 8.0)


class TestLoopCombinators:
    def test_reliability_values(self):
        assert loop_reliability(0.0, 0.0) == 1.0
        assert loop_reliability(1.0, 0.37) == 0.0
        assert loop_reliability(1e-3, 2e-3) == pytest.approx(0.997002, rel=1e-12)

    def test_domain_checks(self):
        for bad in (-0.1, 1.1):
            with pytest.raises(ValueError):
                loop_reliability(bad, 0.5)
            with pytest.raises(ValueError):
                loop_reliability(0.5, bad)

    @given(
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=0.0, max_value=1.0),
    )
    def test_approximation_gap_identity(self, a, b):
        # 1 - (1-a)(1-b) - (a+b) == -a*b, up to rounding at scale ~1
        gap = 1.0 - loop_reliability(a, b) - (a + b)
        assert gap == pytest.approx(-a * b, abs=4e-16)


class TestLinkState:
    def test_reconstruction_bit_identical(self):
        first = LinkState.from_snr(54.0, 3e-3 * 1.0 / 3e-3, 8.0, 1.0)
        second = LinkState.from_snr(54.0, 3e-3 * 1.0 / 3e-3, 8.0, 1.0)
        assert first == second

    def test_eps_recomputes_from_x(self):
        state = LinkState.from_snr(54.0, 1.1, 8.0)
        assert state.eps == q_function(state.x)

    def test_fields_consistent(self):
        # the fields compose the model's formulas, written out, bit for bit
        for n, gamma, d, B in (
            (54.0, 1.1, 8.0, 1.0), (37.5, 0.013, 12.0, 1.7), (3000.0, 412.0, 29.0, 0.4),
        ):
            state = LinkState.from_snr(n, gamma, d, B)
            capacity = B * math.log1p(gamma) / math.log(2.0)
            dispersion = 1.0 - 1.0 / ((1.0 + gamma) * (1.0 + gamma))
            assert state.capacity == capacity
            assert state.dispersion == dispersion
            assert state.omega == capacity - d / n
            assert state.beta == math.sqrt(n / dispersion)
            assert state.x == math.log(2.0) * state.omega * state.beta


class TestSystemConfig:
    def test_valid_reference(self):
        cfg = make_config()
        assert cfg.B == 1.0 and cfg.eps_max == 1e-5

    def test_frame_length_consistency(self):
        make_config(T=0.01)  # 250e3 * 1 * 0.01 = 2500 exactly
        with pytest.raises(ValueError):
            make_config(T=0.011)

    @pytest.mark.parametrize(
        "overrides",
        [
            dict(d=0.5),
            dict(n_max=15.0),           # < 2*d
            dict(E=0.0),
            dict(N=-1e-3),
            dict(p_dl=0.0),
            dict(g_ul=0.0),
            dict(f_s=-1.0),
            dict(M=0.5),
            dict(B=0.0),
            dict(eps_max=0.0),
            dict(eps_max=1.0),
        ],
    )
    def test_invariant_violations(self, overrides):
        with pytest.raises(ValueError):
            make_config(**overrides)

    def test_downlink_snr_below_precision_rejected(self):
        # 1 + gamma_dl == 1 leaves the dispersion 1 - (1+gamma)^-2 at zero
        with pytest.raises(ValueError, match=r"p_dl=0\.01, g_dl=1e-17, N=0\.003"):
            make_config(g_dl=1e-17)
        make_config(g_dl=1e-13)  # 1 + 3.3e-13 is still above 1

    def test_snr_above_limit_rejected(self):
        # (1 + SNR)^3 in the uplink slope factor overflows near 5.6e102
        with pytest.raises(ValueError, match=r"uplink SNR eta/d .* with E=6\.5e-07, "
                           r"M=1\.0, f_s=250000\.0, g_ul=1\.0, N=1e-104, d=8\.0"):
            make_config(N=1e-104)
        with pytest.raises(ValueError, match=r"downlink SNR p_dl\*g_dl/N with "
                           r"p_dl=0\.01, g_dl=1e\+103, N=0\.003"):
            make_config(g_dl=1e103)
        make_config(N=2.1e-102, g_dl=2e-4)  # both SNRs just below 1e100

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize(
        "key",
        ["d", "f_s", "M", "E", "p_dl", "N", "n_max", "g_ul", "g_dl", "B",
         "eps_max", "T"],
    )
    def test_non_finite_value_named(self, key, bad):
        # NaN passes every "<= 0" check, so finiteness is checked first
        with pytest.raises(ValueError, match=f"^{key} must be finite"):
            make_config(**{key: bad})
