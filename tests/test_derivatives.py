"""Analytic derivatives vs finite-difference oracles, and the scan."""

import dataclasses
import math

import numpy as np
import pytest

from clfbl import (
    SystemConfig,
    convexity_scan,
    d_eps_cl_dn,
    d_eps_cl_sign,
    d_eps_dl_dn,
    d_eps_ul_dn,
    delta_ul,
    derivative_bundle,
    fd_derivative,
    feasible_domain,
    loop_log_error,
    OptimizerCase,
    noise_grid,
    solve,
    sweep_noise,
)
from clfbl.energy import Infeasible, snr_blocklength_product
from clfbl.derivatives import (
    _dl_eps,
    _signed_log_sum_sign,
    _ul_eps,
    d_eps_dl_dn_signed_log,
    d_eps_ul_dn_signed_log,
    dl_state,
    scan_columns,
    signed_log_add,
    ul_state,
)

from conftest import make_config

LN2 = math.log(2.0)


def _eps_cl(cfg, n):
    return float(_ul_eps(cfg, n) + _dl_eps(cfg, n))


class TestFdOracle:
    def test_first_derivative_of_identity(self):
        assert fd_derivative(lambda n: n, 10.0, 1) == pytest.approx(1.0, abs=1e-10)

    def test_second_derivative_of_square(self):
        assert fd_derivative(lambda n: n * n, 3.0, 2) == pytest.approx(2.0, abs=1e-8)

    def test_rejects_bad_order(self):
        with pytest.raises(ValueError):
            fd_derivative(lambda n: n, 1.0, 3)

    def test_propagates_domain_errors(self):
        def f(n):
            raise ValueError("outside domain")

        with pytest.raises(ValueError, match="outside domain"):
            fd_derivative(f, 1.0, 1)

    def test_loop_error_convex_at_30(self, table1):
        assert fd_derivative(lambda n: _eps_cl(table1, n), 30.0, 2) > 0.0


class TestUplinkDerivative:
    def test_matches_fd_at_20(self, table1):
        fd = fd_derivative(lambda n: float(_ul_eps(table1, n)), 20.0, 1)
        analytic = d_eps_ul_dn(table1, 20.0)
        assert abs(analytic - fd) <= 1e-6 * max(1.0, abs(fd))

    def test_matches_fd_across_domain(self, table1):
        dom = feasible_domain(table1)
        for n in np.linspace(dom.n_lo, dom.n_hi, 40):
            n = float(n)
            fd = fd_derivative(lambda m: float(_ul_eps(table1, m)), n, 1)
            analytic = d_eps_ul_dn(table1, n)
            assert abs(analytic - fd) <= 1e-6 * max(1.0, abs(fd))

    def test_negative_at_high_snr(self, table1):
        # comfortably above 0 dB the uplink always gains from more bits
        for n in np.linspace(9.0, 45.0, 30):
            assert d_eps_ul_dn(table1, float(n)) < 0.0

    def test_upturn_near_zero_db_bound(self, table1):
        # at gamma = 1 the slope sign is that of -(4*ln2*d + n*(8*ln2 - 6)),
        # positive once n exceeds 4*ln2*d/(6 - 8*ln2) ~ 48.77 for d = 8;
        # eps_ul itself has an interior minimum before the 0 dB bound
        threshold = 4.0 * LN2 * 8.0 / (6.0 - 8.0 * LN2)
        assert threshold == pytest.approx(48.7678, abs=1e-3)
        assert d_eps_ul_dn(table1, 54.0) > 0.0
        eta = snr_blocklength_product(table1)
        eps_at = lambda n: float(_ul_eps(table1, n))
        assert eps_at(49.0) < eps_at(54.0)  # non-monotone on the domain

    def test_outside_proven_region_only_fd_agreement(self, table1):
        # slightly above eta (gamma < 1): no sign guarantee, FD still agrees
        n = snr_blocklength_product(table1) * 1.02
        fd = fd_derivative(lambda m: float(_ul_eps(table1, m)), n, 1)
        analytic = d_eps_ul_dn(table1, n)
        assert abs(analytic - fd) <= 1e-6 * max(1.0, abs(fd))

    def test_matches_fd_with_bandwidth_and_modulation(self):
        # B and M both enter the chain; FD agreement catches a lost factor
        cfg = SystemConfig(
            d=12.0, f_s=100e3, M=3.0, E=2e-6, p_dl=8e-3, N=2e-3,
            n_max=900.0, B=1.7,
        )
        for n in (15.0, 40.0, 90.0):
            for side, eps_fn, analytic_fn in (
                ("ul", _ul_eps, d_eps_ul_dn),
                ("dl", _dl_eps, d_eps_dl_dn),
            ):
                fd = fd_derivative(lambda m: float(eps_fn(cfg, m)), n, 1)
                analytic = analytic_fn(cfg, n)
                assert abs(analytic - fd) <= 1e-6 * max(1.0, abs(fd)), side

    def test_degenerate_channel_rejected(self, table1):
        with pytest.raises(ValueError):
            d_eps_ul_dn(table1, -3.0)


class TestDownlinkDerivative:
    def test_positive_and_matches_fd_when_conditioned(self):
        # small frame keeps the downlink decoding argument moderate
        cfg = SystemConfig(
            d=8.0, f_s=250e3, M=1.0, E=1e-6, p_dl=5e-3, N=3e-3, n_max=100.0
        )
        for n in np.linspace(40.0, 80.0, 25):
            n = float(n)
            assert abs(dl_state(cfg, n).x) < 8.0
            fd = fd_derivative(lambda m: float(_dl_eps(cfg, m)), n, 1)
            analytic = d_eps_dl_dn(cfg, n)
            assert analytic > 0.0
            assert abs(analytic - fd) <= 1e-6 * max(1.0, abs(fd))

    def test_sign_positive_across_domain_grid(self, table1):
        # doubles underflow here (x_dl ~ 74), so positivity is asserted on
        # the exact log-domain sign
        for n in np.linspace(9.0, 54.0, 100):
            sign, log_mag = d_eps_dl_dn_signed_log(table1, float(n))
            assert sign == 1
            assert math.isfinite(log_mag)

    def test_boundary_blocklength_evaluates(self, table1):
        value = d_eps_dl_dn(table1, table1.n_max - table1.d)
        assert value >= 0.0  # n_dl = d exactly, no error raised

    def test_lossless_coding_violation(self, table1):
        with pytest.raises(ValueError):
            d_eps_dl_dn(table1, table1.n_max - table1.d + 0.5)


    def test_matches_fd_on_short_frames_across_sweep(self, table1):
        # at the table1 frame every sweep level has |x_dl| > 8, so the
        # acceptance sweep never compares the downlink derivative with
        # finite differences; frames of 60-150 bits bring x_dl down to the
        # well-conditioned range.  Same rule as acceptance criterion 4.
        checked = 0
        worst = 0.0
        for n_max in (60.0, 100.0, 150.0):
            for noise in noise_grid(table1.p_dl, 50):
                cfg = dataclasses.replace(table1, n_max=n_max, N=float(noise))
                dom = feasible_domain(cfg)
                for n in np.linspace(dom.n_lo, dom.n_hi, 50).tolist():
                    if abs(dl_state(cfg, n).x) > 8.0:
                        continue
                    h = min(max(1e-4, 1e-3 * n), (cfg.n_max - n) / 4.0)
                    fd = fd_derivative(lambda m: float(_dl_eps(cfg, m)), n, 1, h=h)
                    analytic = d_eps_dl_dn(cfg, n)
                    assert analytic > 0.0
                    worst = max(worst, abs(analytic - fd) / max(1.0, abs(fd)))
                    checked += 1
        assert checked > 0
        assert worst <= 1e-6


class TestSignedLogs:
    def test_ul_signed_log_matches_double_value(self, table1):
        for n in (12.0, 20.0, 35.0, 50.0):
            sign, log_mag = d_eps_ul_dn_signed_log(table1, n)
            value = d_eps_ul_dn(table1, n)
            assert math.copysign(1.0, value) == sign or value == 0.0
            assert sign * math.exp(log_mag) == pytest.approx(value, rel=1e-12)

    def test_signed_log_add(self):
        a = (1, math.log(3.0))
        b = (-1, math.log(2.0))
        sign, log_mag = signed_log_add(a, b)
        assert sign == 1 and math.exp(log_mag) == pytest.approx(1.0, rel=1e-12)
        sign, log_mag = signed_log_add(a, (-1, math.log(3.0)))
        assert sign == 0 and log_mag == -math.inf
        assert signed_log_add((0, -math.inf), b) == b
        sign, log_mag = signed_log_add(a, (1, math.log(2.0)))
        assert sign == 1 and math.exp(log_mag) == pytest.approx(5.0, rel=1e-12)

    def test_array_sign_matches_signed_log_add(self):
        # every combination of signs and of equal, ordered and -inf logs
        values = [(s, l) for s in (-1, 0, 1) for l in (-math.inf, -1.0, 2.0)]
        pairs = [(a, b) for a in values for b in values]
        sa, la, sb, lb = map(np.array, zip(*((*a, *b) for a, b in pairs)))
        signs = _signed_log_sum_sign(sa, la, sb, lb)
        assert signs.tolist() == [signed_log_add(a, b)[0] for a, b in pairs]

    def test_cl_sign_underflow_robust(self):
        # deep underflow of both links: the sign is still decided exactly
        cfg = make_config(N=1e-6)
        assert d_eps_cl_sign(cfg, 1000.0) in (-1, 0, 1)
        assert d_eps_cl_dn(cfg, 1000.0) == 0.0  # saturated double


class TestDeltaTerm:
    def test_anchor_at_0db(self):
        assert delta_ul(1.0) == pytest.approx((16.0 * LN2 - 8.0) / 4.0, abs=1e-12)

    def test_increasing_above_0db(self):
        for gamma in np.geomspace(1.0, 100.0, 40):
            slope = fd_derivative(lambda g: delta_ul(float(g)), float(gamma), 1)
            assert slope > 0.0

    def test_rejects_nonpositive_snr(self):
        with pytest.raises(ValueError):
            delta_ul(0.0)


class TestDerivativeBundle:
    def test_bundle_invariants(self, table1):
        bundle = derivative_bundle(table1, 20.0)
        assert bundle.phi_ul <= 0.0
        assert bundle.phi_dl <= 0.0
        assert bundle.xi < 0.0
        assert bundle.rho == (table1.M * LN2) ** 2 * 20.0
        assert bundle.eta == snr_blocklength_product(table1)
        assert bundle.d_eps_cl == bundle.d_eps_ul + bundle.d_eps_dl
        assert bundle.delta_ul == delta_ul(ul_state(table1, 20.0).gamma)

    def test_second_derivative_positive(self, table1):
        assert derivative_bundle(table1, 30.0).d2_eps_cl_fd > 0.0


class TestConvexityScan:
    def test_reference_scan_convex(self, table1):
        scan = convexity_scan(table1, 200)
        assert scan.convex_ok
        assert scan.dl_monotone_ok
        assert not scan.ul_monotone_ok  # genuine upturn near the 0 dB bound
        kinds = {v.kind for v in scan.violations}
        assert kinds == {"ul_not_nonincreasing"}
        assert np.all(scan.convexity_indicator > 0.0)

    def test_grid_contained(self, table1):
        scan = convexity_scan(table1, 57)
        dom = feasible_domain(table1)
        assert len(scan.n_ul) == 57
        assert scan.n_ul[0] == dom.n_lo and scan.n_ul[-1] == dom.n_hi

    def test_single_point_grid(self, table1):
        scan = convexity_scan(table1, 1)
        assert len(scan.n_ul) == 1
        assert scan.dl_monotone_ok and scan.ul_monotone_ok  # vacuous
        assert scan.convexity_indicator[0] > 0.0

    def test_saturated_points_not_classified(self):
        # a hopeless downlink pins eps_cl at the representation ceiling:
        # log eps_cl is flat to rounding, so its curvature means nothing
        scan = convexity_scan(make_config(N=1e-3, p_dl=1e-7), 200)
        assert scan.saturated.all()
        assert np.any(~(scan.convexity_indicator > 0.0))
        assert scan.convex_ok

    def test_empty_domain_infeasible(self):
        scan = convexity_scan(make_config(N=0.1), 50)
        assert isinstance(scan, Infeasible)

    def test_rejects_bad_resolution(self, table1):
        with pytest.raises(ValueError):
            convexity_scan(table1, 0)


#: relative offsets from the interior root at which the derivative's
#: two terms nearly cancel, so that the sign turns on their log magnitudes
ROOT_OFFSETS = np.array([-1e-6, -1e-9, -1e-12, 0.0, 1e-12, 1e-9, 1e-6])


class TestScanParity:
    """The array derivative of scan_columns against the scalar functions:
    the same sign at every point, the same value up to last-bit rounding."""

    @staticmethod
    def _assert_parity(cfg, grid) -> tuple[int, int]:
        """Sign and value parity on the grid, sign parity next to the root;
        returns how many points of each kind were checked."""
        cols = scan_columns(cfg, grid)
        for i, n in enumerate(grid.tolist()):
            assert cols.sign_d_eps_cl[i] == d_eps_cl_sign(cfg, n), (cfg, n)
            scalar = d_eps_cl_dn(cfg, n)
            assert abs(cols.d_eps_cl[i] - scalar) <= 1e-9 * abs(scalar), (cfg, n)
        result = solve(cfg)
        if getattr(result, "case", None) is not OptimizerCase.INTERIOR_ROOT:
            return len(grid), 0
        near = np.clip(result.n_ul_cont * (1.0 + ROOT_OFFSETS), grid[0], grid[-1])
        signs = scan_columns(cfg, near).sign_d_eps_cl
        assert signs.tolist() == [d_eps_cl_sign(cfg, n) for n in near.tolist()], cfg
        return len(grid), len(near)

    def test_table1_sweep(self, table1):
        points = near_root = 0
        for record in sweep_noise(table1, 50, 200):
            cfg = dataclasses.replace(table1, N=record.noise)
            on_grid, near = self._assert_parity(cfg, record.scan.n_ul)
            points += on_grid
            near_root += near
        assert points == 50 * 200
        assert near_root > 0

    def test_random_configurations(self):
        rng = np.random.default_rng(20261018)
        configs = weak_downlink = near_root = 0
        while configs < 60:
            try:
                cfg = SystemConfig(
                    d=float(rng.integers(8, 65)),
                    f_s=250e3,
                    M=float(rng.integers(1, 4)),
                    E=10.0 ** rng.uniform(-8, -5),
                    p_dl=10.0 ** rng.uniform(-5, 0),
                    N=10.0 ** rng.uniform(-6, -1),
                    n_max=float(rng.integers(100, 50_001)),
                )
            except ValueError:
                continue
            dom = feasible_domain(cfg)
            if dom.empty:
                continue
            configs += 1
            weak_downlink += cfg.p_dl < cfg.N
            _, near = self._assert_parity(cfg, np.linspace(dom.n_lo, dom.n_hi, 200))
            near_root += near
        assert weak_downlink > 0
        assert near_root > 0


class TestLoopLogError:
    def test_matches_double_sum_when_representable(self, table1):
        for n in (10.0, 25.0, 54.0):
            assert math.exp(loop_log_error(table1, n)) == pytest.approx(
                _eps_cl(table1, n), rel=1e-12
            )

    def test_finite_under_deep_underflow(self):
        cfg = make_config(N=1e-6)
        value = loop_log_error(cfg, 1000.0)
        assert math.isfinite(value) and value < -700.0
