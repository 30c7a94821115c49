"""Analytic derivatives vs finite-difference oracles, and the scan."""

import dataclasses
import math

import numpy as np
import pytest
import sympy as sp
from hypothesis import assume, given, settings, strategies as st

import clfbl.derivatives
from clfbl import (
    LinkState,
    SystemConfig,
    convexity_scan,
    d_eps_cl_dn,
    d_eps_cl_sign,
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
    _LOG_PHI_COEFF,
    _cl_sign,
    _dl_d_eps,
    _dl_eps,
    _dl_link,
    _dl_slope_factor,
    _sign_kernel,
    _ul_d_eps,
    _ul_eps,
    _ul_link,
    scan_columns,
)

from conftest import d_eps_dl, d_eps_ul, make_config
from test_symbolic import delta_ul, gamma

LN2 = math.log(2.0)


def _eps_cl(cfg, n):
    return float(_ul_eps(cfg, n) + _dl_eps(cfg, n))


def _fd_first(eps, cfg, grid, h=None):
    """Richardson first difference of eps(cfg, .) at every grid point at once,
    with the step max(1e-4, 1e-3*n) unless h is given."""
    grid = np.asarray(grid, dtype=float)
    h = np.maximum(1e-4, 1e-3 * grid) if h is None else h
    return fd_derivative(lambda m: eps(cfg, m), grid, 1, h=h)


def _fd_error(analytic, fd):
    """|analytic - fd| / max(1, |fd|) at every point."""
    return np.abs(analytic - fd) / np.maximum(1.0, np.abs(fd))


def signed_log_add(a, b):
    """Sum of two (sign, log|value|) numbers by the general case analysis:
    the reference that the one sign rule of d eps_cl/d n_ul must match."""
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


class TestFdOracle:
    def test_first_derivative_of_identity(self):
        h = max(1e-4, 1e-3 * 10.0)
        assert fd_derivative(lambda n: n, 10.0, 1, h=h) == pytest.approx(1.0, abs=1e-10)

    def test_second_derivative_of_square(self):
        h = max(1e-4, 1e-3 * 3.0)
        assert fd_derivative(lambda n: n * n, 3.0, 2, h=h) == pytest.approx(2.0, abs=1e-8)

    def test_rejects_bad_order(self):
        with pytest.raises(ValueError):
            fd_derivative(lambda n: n, 1.0, 3, h=max(1e-4, 1e-3 * 1.0))

    def test_propagates_domain_errors(self):
        def f(n):
            raise ValueError("outside domain")

        with pytest.raises(ValueError, match="outside domain"):
            fd_derivative(f, 1.0, 1, h=max(1e-4, 1e-3 * 1.0))

    def test_loop_error_convex_at_30(self, table1):
        h = max(1e-4, 1e-3 * 30.0)
        assert fd_derivative(lambda n: _eps_cl(table1, n), 30.0, 2, h=h) > 0.0


class TestUplinkDerivative:
    def test_matches_fd_at_20(self, table1):
        fd = _fd_first(_ul_eps, table1, [20.0])
        assert np.all(_fd_error(d_eps_ul(table1, [20.0]), fd) <= 1e-6)

    def test_matches_fd_across_domain(self, table1):
        dom = feasible_domain(table1)
        grid = np.linspace(dom.n_lo, dom.n_hi, 40)
        fd = _fd_first(_ul_eps, table1, grid)
        assert np.all(_fd_error(d_eps_ul(table1, grid), fd) <= 1e-6)

    def test_negative_at_high_snr(self, table1):
        # comfortably above 0 dB the uplink always gains from more bits
        assert np.all(d_eps_ul(table1, np.linspace(9.0, 45.0, 30)) < 0.0)

    def test_upturn_near_zero_db_bound(self, table1):
        # at gamma = 1 the slope sign is that of -(4*ln2*d + n*(8*ln2 - 6)),
        # positive once n exceeds 4*ln2*d/(6 - 8*ln2) ~ 48.77 for d = 8;
        # eps_ul itself has an interior minimum before the 0 dB bound
        threshold = 4.0 * LN2 * 8.0 / (6.0 - 8.0 * LN2)
        assert threshold == pytest.approx(48.7678, abs=1e-3)
        assert d_eps_ul(table1, [54.0])[0] > 0.0
        eps_at = lambda n: float(_ul_eps(table1, n))
        assert eps_at(49.0) < eps_at(54.0)  # non-monotone on the domain

    def test_outside_proven_region_only_fd_agreement(self, table1):
        # slightly above eta (gamma < 1): no sign guarantee, FD still agrees
        n = [snr_blocklength_product(table1) * 1.02]
        fd = _fd_first(_ul_eps, table1, n)
        assert np.all(_fd_error(d_eps_ul(table1, n), fd) <= 1e-6)

    def test_matches_fd_with_bandwidth_and_modulation(self):
        # B and M both enter the chain; FD agreement catches a lost factor
        cfg = SystemConfig(
            d=12.0, f_s=100e3, M=3.0, E=2e-6, p_dl=8e-3, N=2e-3,
            n_max=900.0, B=1.7,
        )
        grid = [15.0, 40.0, 90.0]
        for side, eps_fn, analytic_fn in (
            ("ul", _ul_eps, d_eps_ul),
            ("dl", _dl_eps, d_eps_dl),
        ):
            fd = _fd_first(eps_fn, cfg, grid)
            assert np.all(_fd_error(analytic_fn(cfg, grid), fd) <= 1e-6), side

    def test_degenerate_channel_rejected(self, table1):
        with pytest.raises(ValueError):
            d_eps_cl_dn(table1, -3.0)


class TestDownlinkDerivative:
    def test_positive_and_matches_fd_when_conditioned(self):
        # small frame keeps the downlink decoding argument moderate
        cfg = SystemConfig(
            d=8.0, f_s=250e3, M=1.0, E=1e-6, p_dl=5e-3, N=3e-3, n_max=100.0
        )
        grid = np.linspace(40.0, 80.0, 25)
        assert np.all(np.abs(_dl_link(cfg, grid).x) < 8.0)
        analytic = d_eps_dl(cfg, grid)
        assert np.all(analytic > 0.0)
        assert np.all(_fd_error(analytic, _fd_first(_dl_eps, cfg, grid)) <= 1e-6)

    def test_sign_positive_across_domain_grid(self, table1):
        # doubles underflow here (x_dl ~ 74), so positivity is asserted on
        # the downlink bracket, with a finite log-magnitude
        for n in np.linspace(9.0, 54.0, 100):
            dl = _dl_link(table1, np.array([n]))
            value, log_mag = _dl_d_eps(table1, dl)
            factor = _dl_slope_factor(table1, dl.n, dl.dispersion, dl.beta, dl.omega)
            assert factor[0] > 0.0 and value[0] >= 0.0
            assert math.isfinite(log_mag[0])

    def test_boundary_blocklength_evaluates(self, table1):
        n_ul = table1.n_max - table1.d  # n_dl = d exactly, no error raised
        assert math.isfinite(d_eps_cl_dn(table1, n_ul))
        assert d_eps_dl(table1, [n_ul])[0] >= 0.0

    def test_lossless_coding_violation(self, table1):
        with pytest.raises(ValueError):
            d_eps_cl_dn(table1, table1.n_max - table1.d + 0.5)


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
                grid = np.linspace(dom.n_lo, dom.n_hi, 50)
                grid = grid[np.abs(_dl_link(cfg, grid).x) <= 8.0]
                if not grid.size:
                    continue
                h = np.minimum(np.maximum(1e-4, 1e-3 * grid), (cfg.n_max - grid) / 4.0)
                analytic = d_eps_dl(cfg, grid)
                assert np.all(analytic > 0.0)
                fd = _fd_first(_dl_eps, cfg, grid, h=h)
                worst = max(worst, float(np.max(_fd_error(analytic, fd))))
                checked += grid.size
        assert checked > 0
        assert worst <= 1e-6


class TestSignedLogs:
    def test_ul_signed_log_matches_double_value(self, table1):
        grid = np.array([12.0, 20.0, 35.0, 50.0])
        columns = _ul_d_eps(table1, _ul_link(table1, grid))
        for value, sign, log_mag in zip(*(column.tolist() for column in columns)):
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
        # every uplink sign with equal, ordered and -inf logs; the downlink
        # term is positive
        logs = (-math.inf, -1.0, 2.0)
        triples = [(s, a, b) for s in (-1, 0, 1) for a in logs for b in logs]
        sign_ul, log_ul, log_dl = map(np.array, zip(*triples))
        signs = _cl_sign(sign_ul, log_ul, log_dl)
        assert signs.tolist() == [
            signed_log_add((s, a), (1, b))[0] for s, a, b in triples
        ]

    @pytest.mark.parametrize("d", [12.7, 10.1, 20.2])
    def test_blocklength_bound_with_fractional_payload(self, table1, d):
        # n_max - n_hi rounds below d here, yet n_hi = n_max - d is in the
        # domain, so the payload check must take feasible_domain's form
        cfg = dataclasses.replace(table1, d=d, N=1e-5)
        n_hi = feasible_domain(cfg).n_hi
        assert n_hi == cfg.n_max - d and cfg.n_max - n_hi < d
        assert d_eps_cl_sign(cfg, n_hi) == 1
        assert math.isfinite(d_eps_cl_dn(cfg, n_hi))
        assert d_eps_dl(cfg, [n_hi])[0] >= 0.0

    def test_zero_uplink_factor_gives_positive_sign(self, table1, monkeypatch):
        # where d eps_ul/d n_ul is exactly zero the downlink term decides
        monkeypatch.setattr(
            clfbl.derivatives, "_ul_slope_factor", lambda cfg, n, *rest: 0.0 * n
        )
        assert d_eps_cl_sign(table1, 20.0) == 1
        assert scan_columns(table1, np.array([20.0])).sign_d_eps_cl.tolist() == [1]

    def test_both_logs_underflowed_is_no_tie(self, table1, monkeypatch):
        # log-magnitudes that are both -inf carry no tie: the positive
        # downlink term still decides (uplink term negative at n_ul = 20)
        assert d_eps_cl_sign(table1, 20.0) == -1
        monkeypatch.setattr(clfbl.derivatives, "_LOG_PHI_COEFF", -math.inf)
        assert d_eps_cl_sign(table1, 20.0) == 1
        assert scan_columns(table1, np.array([20.0])).sign_d_eps_cl.tolist() == [1]

    def test_cl_sign_underflow_robust(self):
        # deep underflow of both links: the sign is still decided exactly
        cfg = make_config(N=1e-6)
        assert d_eps_cl_sign(cfg, 1000.0) in (-1, 0, 1)
        assert d_eps_cl_dn(cfg, 1000.0) == 0.0  # saturated double

    @pytest.mark.parametrize("n_ul", [8.0, 7.999, 2492.0, 2492.001, 0.0, -3.0, math.nan])
    def test_payload_bound_contract(self, table1, n_ul):
        # n_ul < d leaves the uplink, n_max - n_ul < d the downlink below
        # its payload (table1: d = 8, n_max = 2500); NaN is rejected too
        ul_bad = not n_ul >= table1.d
        dl_bad = not table1.n_max - n_ul >= table1.d
        for fn in (d_eps_cl_dn, d_eps_cl_sign):
            if ul_bad or dl_bad:
                link = "n_ul" if ul_bad else "n_dl"
                with pytest.raises(ValueError, match=f"lossless coding requires {link} >= d"):
                    fn(table1, n_ul)
            else:
                fn(table1, n_ul)


def _sign_from_states(cfg, n):
    """The sign of d eps_cl/d n_ul restated on two validated LinkStates,
    with the slope factor and the log terms written out and summed by the
    general case analysis."""
    eta = snr_blocklength_product(cfg)
    ul = LinkState.from_snr(n, eta / n, cfg.d, cfg.B)
    dl = LinkState.from_snr(cfg.n_max - n, cfg.p_dl * cfg.g_dl / cfg.N, cfg.d, cfg.B)
    g, V, b = ul.gamma, ul.dispersion, ul.beta
    omega_p = cfg.d / n**2 - cfg.B * g / (LN2 * (1.0 + g) * n)
    beta_p = (V * (1.0 + g) ** 3 + 2.0 * g) / (2.0 * b * V**2 * (1.0 + g) ** 3)
    factor = b * omega_p + ul.omega * beta_p
    if factor == 0.0:
        ul_log = (0, -math.inf)
    else:
        ul_log = (
            -1 if factor > 0.0 else 1,
            _LOG_PHI_COEFF - 0.5 * ul.x * ul.x + math.log(abs(factor)),
        )
    log_bracket = math.log(cfg.d + dl.capacity * dl.n) - math.log(
        2.0 * dl.beta * dl.dispersion * dl.n
    )
    dl_log = (1, _LOG_PHI_COEFF - 0.5 * dl.x * dl.x + log_bracket)
    return signed_log_add(ul_log, dl_log)[0]


def _assert_scalar_kernel_parity(cfg, points) -> None:
    """The plain-float sign kernel equals its LinkState restatement exactly."""
    for n in points:
        assert d_eps_cl_sign(cfg, n) == _sign_from_states(cfg, n), (cfg, n)


def _assert_per_solve_kernel_parity(cfg, points) -> None:
    """One kernel per config, built as solve's bisection builds it and
    evaluated at the points in turn, equals d_eps_cl_sign and the
    LinkState restatement at each of them."""
    sign = _sign_kernel(cfg)
    for n in points:
        assert sign(n) == d_eps_cl_sign(cfg, n) == _sign_from_states(cfg, n), (cfg, n)


@settings(deadline=None, max_examples=150, derandomize=True)
@given(
    d=st.integers(8, 64),
    M=st.integers(1, 3),
    log_E=st.floats(-8.0, -5.0),
    log_N=st.floats(-6.0, -1.0),
    log_snr_dl=st.floats(-4.0, 4.0),
    n_max=st.integers(100, 5000),
    where=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=8),
)
def test_per_solve_kernel_equals_pointwise_sign(d, M, log_E, log_N, log_snr_dl, n_max, where):
    # p_dl > N, p_dl < N and p_dl = N alike, at points anywhere in the
    # domain and, where the sign changes inside it, within 1e-5 of the root
    N = 10.0**log_N
    p_dl = N * 10.0**log_snr_dl
    assume(n_max >= 2 * d)
    cfg = SystemConfig(d=float(d), f_s=250e3, M=float(M), E=10.0**log_E,
                       p_dl=p_dl, N=N, n_max=float(n_max))
    dom = feasible_domain(cfg)
    assume(not dom.empty)
    points = [dom.n_lo + t * (dom.n_hi - dom.n_lo) for t in where]
    result = solve(cfg)
    if not isinstance(result, Infeasible) and result.case is OptimizerCase.INTERIOR_ROOT:
        points += np.linspace(result.n_ul_cont - 1e-5, result.n_ul_cont + 1e-5, 9).tolist()
    _assert_per_solve_kernel_parity(cfg, [min(max(n, dom.n_lo), dom.n_hi) for n in points])


@pytest.mark.parametrize("cfg", [
    make_config(N=1e-3),
    # the worst loss in R of the additive objective among the roadmap's
    # probes; its downlink is below threshold at n_lo
    SystemConfig(d=29.0, f_s=250e3, M=1.0, E=4.5912e-6, p_dl=1.2271e-3,
                 N=2.6925e-2, n_max=308.0),
], ids=["N=1e-3", "d=29"])
def test_per_solve_kernel_fixed_cases(cfg):
    dom = feasible_domain(cfg)
    points = np.linspace(dom.n_lo, dom.n_hi, 41)
    points[-1] = dom.n_hi
    _assert_per_solve_kernel_parity(cfg, points.tolist())


class TestDeltaTerm:
    """The delta_ul polynomial of test_symbolic, exactly."""

    def test_anchor_at_0db(self):
        assert sp.simplify(delta_ul(sp.Integer(1)) - (16 * sp.log(2) - 8) / 4) == 0

    def test_increasing_above_0db(self):
        slope = sp.lambdify(gamma, sp.diff(delta_ul(gamma), gamma), "math")
        for g in np.geomspace(1.0, 100.0, 40).tolist():
            assert slope(g) > 0.0


class TestConvexityScan:
    def test_reference_scan_convex(self, table1):
        scan = convexity_scan(table1, 200)
        assert scan.convex_ok
        assert scan.dl_monotone_ok
        assert not scan.ul_monotone_ok  # genuine upturn near the 0 dB bound
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
    """The array derivative sign of scan_columns against the solver's
    scalar sign kernel, at every point.  At the same points, the scalar
    sign kernel equals its LinkState restatement exactly.  The derivative
    values are held to a 50-digit reference in test_symbolic."""

    @staticmethod
    def _assert_parity(cfg, grid) -> tuple[int, int]:
        """Sign parity on the grid and next to the root; returns how many
        points of each kind were checked."""
        _assert_scalar_kernel_parity(cfg, grid.tolist())
        cols = scan_columns(cfg, grid)
        for i, n in enumerate(grid.tolist()):
            assert cols.sign_d_eps_cl[i] == d_eps_cl_sign(cfg, n), (cfg, n)
        result = solve(cfg)
        if getattr(result, "case", None) is not OptimizerCase.INTERIOR_ROOT:
            return len(grid), 0
        near = np.clip(result.n_ul_cont * (1.0 + ROOT_OFFSETS), grid[0], grid[-1])
        _assert_scalar_kernel_parity(cfg, near.tolist())
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
