"""Energy coupling and the feasible blocklength domain."""

import math

import pytest
from hypothesis import given, strategies as st

from clfbl import (
    UpperBound,
    feasible_domain,
    ul_power_of_blocklength,
)

from conftest import make_config


class TestCoupling:
    def test_eta_reference_value(self, table1):
        expected = 0.65e-6 * 1.0 * 250e3 * 1.0 / 3e-3
        eta = table1.eta
        assert eta == pytest.approx(expected, rel=1e-12)
        assert eta == pytest.approx(54.1667, abs=1e-3)

    def test_zero_db_at_eta(self, table1):
        # the SNR bound caps the domain where the uplink SNR eta/n is 0 dB
        dom = feasible_domain(table1)
        assert dom.n_hi == dom.eta
        assert dom.eta / dom.n_hi == 1.0

    def test_doubling_blocklength_halves_snr(self, table1):
        eta = table1.eta
        assert eta / 40.0 == pytest.approx(2.0 * (eta / 80.0), rel=1e-15)

    def test_power_at_54(self, table1):
        p = ul_power_of_blocklength(table1, 54.0)
        assert p == pytest.approx(0.65e-6 * 250e3 / 54.0, rel=1e-12)
        assert p == pytest.approx(3.009e-3, abs=1e-6)

    def test_power_at_8(self, table1):
        assert ul_power_of_blocklength(table1, 8.0) == pytest.approx(
            20.3125e-3, rel=1e-12
        )

    @given(st.floats(min_value=1.0, max_value=1e6))
    def test_energy_round_trip(self, n):
        cfg = make_config()
        p = ul_power_of_blocklength(cfg, n)
        assert n * p / (cfg.M * cfg.f_s) == pytest.approx(cfg.E, rel=1e-12)

    @given(st.floats(min_value=0.1, max_value=1e6))
    def test_constant_snr_blocklength_product(self, n):
        cfg = make_config()
        eta = cfg.eta
        assert eta / n * n == pytest.approx(eta, rel=1e-14)

    def test_power_strictly_decreasing(self, table1):
        values = [ul_power_of_blocklength(table1, float(n)) for n in range(9, 100)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_rejects_nonpositive_blocklength(self, table1):
        with pytest.raises(ValueError):
            ul_power_of_blocklength(table1, -5.0)


class TestFeasibleDomain:
    def test_reference_domain(self, table1):
        dom = feasible_domain(table1)
        assert dom.n_lo == 9.0
        assert dom.n_hi == pytest.approx(54.1667, abs=1e-3)
        assert dom.binding_hi is UpperBound.SNR_BOUND
        assert not dom.empty

    def test_blocklength_bound_binds(self):
        cfg = make_config(N=1e-6)  # eta = 162500 >> n_max - d
        dom = feasible_domain(cfg)
        assert dom.binding_hi is UpperBound.BLOCKLENGTH_BOUND
        assert dom.n_hi == cfg.n_max - cfg.d

    def test_payload_raises_lower_bound(self):
        dom = feasible_domain(make_config(d=12.0))
        assert dom.n_lo == 12.0

    def test_empty_domain_reported_not_raised(self):
        dom = feasible_domain(make_config(N=0.1))  # eta = 1.625 < 9
        assert dom.empty
        assert dom.n_hi < dom.n_lo

    def test_snr_at_least_one_when_snr_bound_binds(self, table1):
        dom = feasible_domain(table1)
        assert dom.binding_hi is UpperBound.SNR_BOUND
        for k in range(100):
            n = dom.n_lo + (dom.n_hi - dom.n_lo) * k / 99.0
            assert dom.eta / n >= 1.0

    def test_monotone_in_noise(self):
        previous_hi = math.inf
        for noise in (1e-5, 1e-4, 1e-3, 3e-3, 8e-3, 2e-2):
            dom = feasible_domain(make_config(N=noise))
            assert dom.n_hi <= previous_hi
            assert dom.n_lo == 9.0
            previous_hi = dom.n_hi

    def test_binding_tie_prefers_snr_bound(self):
        cfg = make_config()
        eta = cfg.eta
        # scale noise so eta equals n_max - d exactly up to rounding
        cfg2 = make_config(N=cfg.N * eta / (cfg.n_max - cfg.d))
        dom = feasible_domain(cfg2)
        if cfg2.eta <= cfg2.n_max - cfg2.d:
            assert dom.binding_hi is UpperBound.SNR_BOUND
