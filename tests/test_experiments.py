"""Case study, sweeps, and oracle machinery."""

import dataclasses
import itertools
import math
import time
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import log_ndtr

from clfbl import (
    SystemConfig,
    UpperBound,
    grid_search_oracle,
    monte_carlo_validate,
    noise_grid,
    solve,
    sweep_noise,
)
from clfbl.cli import grid_columns
from clfbl.derivatives import (
    ScanReport,
    _dl_eps,
    _ul_eps,
    convexity_scan,
    scan_columns,
    scan_levels,
)
from clfbl.energy import Infeasible, feasible_domain
from clfbl.fbl import LinkState, _channel
from clfbl.experiments import MAX_TRIALS, config_digest, record_at_noise
from clfbl.validation import (
    approximation_gap_suite,
    derivative_fidelity_suite,
    run_validation,
)

from conftest import make_config


class TestCaseStudy:
    def test_reference_record(self, table1):
        record = record_at_noise(table1, 500)
        assert len(record.scan.n_ul) == 500
        assert record.domain.binding_hi is UpperBound.SNR_BOUND
        assert record.domain.n_hi == pytest.approx(54.1667, abs=1e-3)
        assert record.domain.n_hi < table1.n_max - table1.d
        assert not record.scan.cl_not_convex.any()
        for n_ul in record.scan.n_ul.tolist():
            assert record.domain.n_lo <= n_ul <= record.domain.n_hi

    def test_single_point_grid_well_formed(self, table1):
        record = record_at_noise(table1, 1)
        assert len(record.scan.n_ul) == 1
        assert record.scan.n_ul[0] == record.domain.n_lo

    def test_infeasible_record(self):
        record = record_at_noise(make_config(N=0.1), 10)
        assert isinstance(record.result, Infeasible)
        assert isinstance(record.scan, Infeasible)


class TestNoiseSweep:
    def test_grid_endpoints(self):
        grid = noise_grid(10e-3, 2)
        assert grid[0] == pytest.approx(10e-3 * 1e-4, rel=1e-12)
        assert grid[-1] == pytest.approx(10e-3 * (1.0 - 1e-3), rel=1e-12)
        with pytest.raises(ValueError):
            noise_grid(10e-3, 1)

    def test_two_point_sweep(self, table1):
        records = sweep_noise(table1, 2, grid_points=20)
        assert len(records) == 2
        assert records[0].noise < records[1].noise

    def test_sweep_convex_everywhere(self, table1):
        records = sweep_noise(table1, 25, grid_points=60)
        for record in records:
            assert not record.scan.cl_not_convex.any(), f"violation at N={record.noise}"
            assert not record.scan.dl_not_increasing.any()

    def test_both_sign_regimes_present(self, table1):
        records = sweep_noise(table1, 25, grid_points=60)
        interior = monotone = 0
        for record in records:
            signs = set(record.scan.sign_d_eps_cl.tolist())
            if -1 in signs and 1 in signs:
                interior += 1
            elif 1 not in signs or -1 not in signs:
                monotone += 1
        assert interior >= 1
        assert monotone >= 1

    def test_sweep_deterministic(self, table1):
        first = sweep_noise(table1, 5, grid_points=15)
        second = sweep_noise(table1, 5, grid_points=15)
        for a, b in zip(first, second):
            assert a.noise == b.noise
            assert grid_columns(a.scan) == grid_columns(b.scan)
            assert a.result == b.result

    def test_grid_samples_lie_in_domain(self, table1):
        for record in sweep_noise(table1, 5, grid_points=15):
            assert len(record.scan.n_ul) == 15
            for n_ul in record.scan.n_ul.tolist():
                assert record.domain.n_lo <= n_ul <= record.domain.n_hi


def _bits(scan: ScanReport) -> dict:
    """Every field of a scan, floats as their bit patterns."""
    out = {}
    for f in dataclasses.fields(ScanReport):
        value = getattr(scan, f.name)
        if value.dtype == np.float64:
            out[f.name] = (value.shape, value.view(np.uint64).tolist())
        else:
            out[f.name] = (value.shape, value.dtype.str, value.tolist())
    return out


def _masks(scan: ScanReport) -> list[list[bool]]:
    """The three violation masks of a scan."""
    return [scan.ul_upturn.tolist(), scan.dl_not_increasing.tolist(),
            scan.cl_not_convex.tolist()]


def _one_level_masks(cols: ScanReport) -> list[list[bool]]:
    """The violation rules of a one-level scan, applied to 1-D columns."""
    dlog_ul, dlog_dl = np.diff(cols.log_eps_ul), np.diff(cols.log_eps_dl)
    not_convex = ~(cols.convexity_indicator > 0.0) & ~cols.saturated
    return [(dlog_ul > 0.0).tolist(), (~(dlog_dl > 0.0)).tolist(), not_convex.tolist()]


def _eta_nine_at_level_15() -> SystemConfig:
    """table1 with E chosen so that the domain of sweep level 15 is the
    single point n_ul = 9 (eta = 9 exactly); it shares a block with
    levels 10-14, which have domains of full width."""
    return make_config(E=6.034749992697404e-10)


class TestBlockedSweep:
    """The sweep scans its levels in blocks of (levels, points) grids; each
    level must equal a standalone scan and solve of that level, bit for bit."""

    @pytest.mark.parametrize("cfg, levels, grid_points", [
        (make_config(), 50, 200),
        (make_config(E=6.5e-8), 50, 200),
        (make_config(), 50, 1),
        (make_config(), 50, 2),
        (_eta_nine_at_level_15(), 50, 200),
        # a weak downlink: violations of all three kinds
        (make_config(g_dl=1e-6), 50, 200),
    ], ids=["table1", "E6.5e-8", "table1-1pt", "table1-2pt", "one-point-domain",
            "weak-downlink"])
    def test_levels_equal_standalone_scan_and_solve(self, cfg, levels, grid_points):
        records = sweep_noise(cfg, levels, grid_points)
        assert len(records) == levels
        for record, noise in zip(records, noise_grid(cfg.p_dl, levels)):
            level = dataclasses.replace(cfg, N=float(noise))
            assert record.noise == level.N
            assert record.domain == feasible_domain(level)
            alone = convexity_scan(level, grid_points)
            if record.domain.empty:
                assert isinstance(record.scan, Infeasible)
                assert record.result is record.scan
                assert record.scan == alone
                assert record.scan.reason == "empty blocklength domain"
                continue
            assert _bits(record.scan) == _bits(alone)
            assert _masks(record.scan) == _masks(alone)
            assert repr(record.result) == repr(solve(level))
            # the grid of np.linspace and the 1-D columns at scalar noise
            dom = record.domain
            grid = np.linspace(dom.n_lo, dom.n_hi, grid_points)
            one_d = scan_columns(level, grid)
            assert _bits(record.scan) == _bits(one_d)
            assert _masks(record.scan) == _one_level_masks(one_d)

    def test_mixed_configs_cover_both_kinds_of_level(self):
        empty = [r.domain.empty for r in sweep_noise(make_config(E=6.5e-8), 50, 2)]
        assert sum(empty) == 10
        records = sweep_noise(_eta_nine_at_level_15(), 50, 3)
        assert [r.domain.empty for r in records] == [False] * 16 + [True] * 34
        assert records[15].domain.n_lo == records[15].domain.n_hi == 9.0
        assert records[15].scan.n_ul.tolist() == [9.0, 9.0, 9.0]
        masks = [_masks(r.scan) for r in sweep_noise(make_config(g_dl=1e-6), 50, 200)]
        for kind in range(3):
            assert any(any(m[kind]) for m in masks)

    def test_downlink_dispersion_squares_by_a_product(self):
        # at sweep level 36 of g_dl = 0.7841, float ** 2 (libm pow) rounds
        # (1 + gamma_dl)^2 otherwise than numpy's square; the scalar kernel
        # squares by a product, which rounds as numpy's square does
        cfg = make_config(g_dl=0.7841)
        record = sweep_noise(cfg, 50, 200)[36]
        gamma = cfg.p_dl * cfg.g_dl / record.noise
        dispersion = _channel(gamma, cfg.B)[1]
        assert dispersion == 1.0 - 1.0 / np.square(1.0 + gamma)
        assert dispersion != 1.0 - 1.0 / (1.0 + gamma) ** 2
        n_dl = cfg.n_max - record.scan.n_ul
        omega = cfg.B * np.log1p(gamma) / math.log(2.0) - cfg.d / n_dl
        x = math.log(2.0) * omega * np.sqrt(n_dl / dispersion)
        expected = log_ndtr(-x).view(np.uint64).tolist()
        assert record.scan.log_eps_dl.view(np.uint64).tolist() == expected

    def test_scalar_and_array_dispersions_agree(self, table1):
        # the solver's sign kernel and the scan take the same dispersion,
        # also on the SNRs where float ** 2 would round otherwise
        gammas = np.exp(np.random.default_rng(5).uniform(-12.0, 12.0, 20_000))
        assert any((1.0 + g) ** 2 != (1.0 + g) * (1.0 + g) for g in gammas.tolist())
        scalar = [_channel(g, table1.B)[1] for g in gammas.tolist()]
        array = _channel(gammas, table1.B, np)[1]
        assert np.array(scalar).view(np.uint64).tolist() == array.view(np.uint64).tolist()

    def test_table1_violation_count(self, table1):
        records = sweep_noise(table1, 50, 200)
        assert sum(sum(map(sum, _masks(r.scan))) for r in records) == 2534

    def test_zero_grid_points_rejected_with_every_level_empty(self):
        cfg = make_config(E=1e-12)
        assert all(r.domain.empty for r in sweep_noise(cfg, 50, 1))
        with pytest.raises(ValueError, match="grid_points must be >= 1"):
            sweep_noise(cfg, 50, 0)

    def test_levels_must_share_the_non_noise_fields(self, table1):
        with pytest.raises(ValueError, match="share d, B and n_max"):
            scan_levels([table1, make_config(n_max=2400.0)], 10)

    def test_memory_flat_in_levels(self, table1):
        # what the sweep holds at its peak beyond the records it returns is
        # one block of levels, whatever the number of levels; a single
        # pass over 50 levels of 200 points would hold about 1.9 MiB
        sweep_noise(table1, 2, 200)
        overhead = {}
        for levels in (50, 400):
            tracemalloc.start()
            try:
                records = sweep_noise(table1, levels, 200)
                kept, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert len(records) == levels
            overhead[levels] = peak - kept
        assert overhead[400] < overhead[50] + 2**18
        assert overhead[400] < 2**20


class TestGridSearchOracle:
    def test_reference_equals_solver(self, table1):
        oracle = grid_search_oracle(table1)
        assert 9 <= oracle <= 54
        assert oracle == solve(table1).n_ul

    def test_single_integer_domain(self):
        # domain [9.2, 10.4]: only n = 10 qualifies
        cfg = SystemConfig(
            d=9.2, f_s=250e3, M=1.0, E=10.4 * 1e-3 / 250e3, p_dl=1e-2,
            N=1e-3, n_max=100.0,
        )
        assert grid_search_oracle(cfg) == 10

    def test_empty_domain(self):
        assert isinstance(grid_search_oracle(make_config(N=0.1)), Infeasible)


def _eps_at(cfg, n_ul):
    """(eps_ul, eps_dl) of cfg at n_ul, as floats."""
    return float(_ul_eps(cfg, n_ul)), float(_dl_eps(cfg, n_ul))


class TestMonteCarlo:
    def test_perfect_links_give_exactly_one(self):
        result = solve(make_config(N=1e-12))
        assert result.eps_ul == 0.0 and result.eps_dl == 0.0
        mc = monte_carlo_validate(result.eps_ul, result.eps_dl, 10_000, seed=3)
        assert mc.estimate == 1.0

    def test_deterministic_for_seed(self, table1):
        eps = _eps_at(make_config(N=6e-3), 9.0)
        a = monte_carlo_validate(*eps, 200_000, seed=42)
        b = monte_carlo_validate(*eps, 200_000, seed=42)
        assert a == b
        c = monte_carlo_validate(*eps, 200_000, seed=43)
        assert c.estimate != a.estimate

    def test_analytic_inside_ci_at_percent_level(self):
        # operating point with eps_cl ~ 1e-2, where the normal CI is healthy
        mc = monte_carlo_validate(*_eps_at(make_config(N=6e-3), 9.0), 500_000, seed=1)
        assert 3e-3 <= 1.0 - mc.analytic_r_loop <= 3e-2
        assert mc.ci_low <= mc.analytic_r_loop <= mc.ci_high

    def test_rejects_zero_trials(self, table1):
        with pytest.raises(ValueError):
            monte_carlo_validate(*_eps_at(table1, 20.0), 0, seed=0)

    @pytest.mark.parametrize("eps_ul, eps_dl", [
        (float("nan"), 0.0), (0.0, float("nan")), (-1e-3, 0.0), (0.0, 1.5),
    ])
    def test_rejects_error_rate_before_drawing(self, eps_ul, eps_dl, monkeypatch):
        made = _spy_generators(monkeypatch)
        with pytest.raises(ValueError, match=r"must lie in \[0, 1\]"):
            monte_carlo_validate(eps_ul, eps_dl, 1_000, seed=0)
        assert made == []

    def test_validation_builds_no_link_state(self, table1, monkeypatch):
        # the Monte Carlo suite simulates the error rates solve computed,
        # with no second evaluation of the links
        expected = run_validation(table1, trials=1000, seed=0, grid_points=200)

        def refuse(*args, **kwargs):
            raise AssertionError("LinkState.from_snr called")

        monkeypatch.setattr(LinkState, "from_snr", refuse)
        report = run_validation(table1, trials=1000, seed=0, grid_points=200)
        assert report == expected
        assert [s.name for s in report] == [
            "derivative_fidelity", "convexity_scan", "optimizer_vs_oracle",
            "monte_carlo", "approximation_gap",
        ]


def _one_shot_loop(eps_ul, eps_dl, trials, seed):
    """Loop successes of the two binomial draws made by hand, and the
    generator they leave: the reference for `monte_carlo_validate`."""
    rng = np.random.default_rng(seed)
    n_ul_ok = rng.binomial(trials, 1.0 - eps_ul)
    return int(rng.binomial(n_ul_ok, 1.0 - eps_dl)), rng


#: error rates at and next to both ends of [0, 1] where 1 - eps rounds
EDGE_EPS = (0.0, 1e-300, 5e-17, 1.1e-16, 1e-12, 1e-3, 0.5, 1.0 - 2.0**-53, 1.0)
#: coin counts from none through a few times 2**16
EDGE_DRAWS = (0, 1, 65_535, 65_536, 65_537, 3 * 65_536 + 5)


def _spy_generators(monkeypatch):
    """Record every generator made by np.random.default_rng."""
    made = []
    default_rng = np.random.default_rng

    def spy(seed):
        made.append(default_rng(seed))
        return made[-1]

    monkeypatch.setattr(np.random, "default_rng", spy)
    return made


class TestMonteCarloStream:
    """The seeded draws: the same counts as the two binomial draws made by
    hand, the loop count's law, exact decided links, and a cost that does
    not grow with the number of trials."""

    @pytest.mark.parametrize("draws", EDGE_DRAWS)
    @pytest.mark.parametrize("eps", EDGE_EPS)
    def test_successes_match_one_shot(self, eps, draws, monkeypatch):
        # `draws` coins at error rate eps, first on the uplink (the downlink
        # sure), then on the downlink behind `draws` sure uplink successes;
        # a decided uplink failure of the one trial leaves 0 downlink coins
        made = _spy_generators(monkeypatch)
        cases = [(eps, 0.0, draws), (0.0, eps, draws)] if draws else [(1.0, eps, 1)]
        for eps_ul, eps_dl, trials in cases:
            mc = monte_carlo_validate(eps_ul, eps_dl, trials, seed=11)
            loop_ok, ref = _one_shot_loop(eps_ul, eps_dl, trials, 11)
            assert mc.estimate == loop_ok / trials, (eps_ul, eps_dl)
            assert made[-1].bit_generator.state == ref.bit_generator.state
            p = 1.0 - eps
            assert abs(loop_ok - draws * p) <= 6.0 * math.sqrt(draws * p * (1.0 - p))
            assert 0 <= loop_ok <= draws

    @pytest.mark.parametrize("p", [float("nan"), -0.5, 1.5])
    def test_successes_outside_unit_interval(self, p, monkeypatch):
        # a success probability outside [0, 1] is an error rate outside it,
        # rejected on either link before any generator is made
        made = _spy_generators(monkeypatch)
        for pair in ((1.0 - p, 0.0), (0.0, 1.0 - p)):
            with pytest.raises(ValueError, match=r"must lie in \[0, 1\]"):
                monte_carlo_validate(*pair, 70_000, seed=2)
        assert made == []

    @settings(deadline=None, max_examples=150, derandomize=True)
    @given(
        eps_ul=st.sampled_from(EDGE_EPS) | st.floats(0.0, 1.0),
        eps_dl=st.sampled_from(EDGE_EPS) | st.floats(0.0, 1.0),
        trials=st.integers(1, 200_000) | st.integers(1, MAX_TRIALS),
        seed=st.integers(0, 2**64 - 1),
    )
    def test_successes_property(self, eps_ul, eps_dl, trials, seed):
        mc = monte_carlo_validate(eps_ul, eps_dl, trials, seed)
        loop_ok, _ = _one_shot_loop(eps_ul, eps_dl, trials, seed)
        assert 0 <= loop_ok <= trials
        assert mc.estimate == loop_ok / trials
        assert 0.0 <= mc.ci_low <= mc.estimate <= mc.ci_high <= 1.0
        assert mc.analytic_r_loop == (1.0 - eps_ul) * (1.0 - eps_dl)
        if eps_ul == 1.0 or eps_dl == 1.0:
            assert mc.estimate == 0.0
        elif 1.0 - eps_ul == 1.0 and 1.0 - eps_dl == 1.0:
            assert mc.estimate == 1.0

    @pytest.mark.parametrize("trials", EDGE_DRAWS[1:])
    def test_validate_matches_one_shot(self, trials, monkeypatch):
        made = _spy_generators(monkeypatch)
        for eps_ul in EDGE_EPS:
            for eps_dl in EDGE_EPS:
                mc = monte_carlo_validate(eps_ul, eps_dl, trials, seed=9)
                loop_ok, ref = _one_shot_loop(eps_ul, eps_dl, trials, 9)
                assert mc.estimate == loop_ok / trials, (eps_ul, eps_dl)
                assert made[-1].bit_generator.state == ref.bit_generator.state

    def test_table1_sweep_at_full_trials(self, table1):
        # every level of the table1 sweep at 1e6 trials, seed 0, as
        # `validate` runs it: the hand-made draws, and the analytic value
        # inside the interval
        for record in sweep_noise(table1, 50, grid_points=2):
            eps = record.result.eps_ul, record.result.eps_dl
            mc = monte_carlo_validate(*eps, 10**6, seed=0)
            loop_ok, _ = _one_shot_loop(*eps, 10**6, 0)
            assert mc.estimate == loop_ok / 10**6, record.noise
            assert mc.contains_analytic(), record.noise

    @pytest.mark.parametrize("eps_ul, eps_dl, trials", [
        (0.3, 0.2, 50), (6e-3, 4e-3, 10_000),
    ])
    def test_loop_count_is_binomial(self, eps_ul, eps_dl, trials):
        # mean and variance of 2,000 seeded counts against Binomial(trials,
        # (1-a)(1-b)), each within 5 standard errors of its sample statistic
        seeds = 2_000
        counts = np.array([
            round(monte_carlo_validate(eps_ul, eps_dl, trials, seed).estimate * trials)
            for seed in range(seeds)
        ])
        p = (1.0 - eps_ul) * (1.0 - eps_dl)
        var = trials * p * (1.0 - p)
        mu4 = var * (1.0 + 3.0 * (trials - 2) * p * (1.0 - p))
        se_var = math.sqrt((mu4 - var * var * (seeds - 3) / (seeds - 1)) / seeds)
        assert abs(counts.mean() - trials * p) <= 5.0 * math.sqrt(var / seeds)
        assert abs(counts.var(ddof=1) - var) <= 5.0 * se_var

    @pytest.mark.parametrize("trials", [1, 65_537, 10**6, MAX_TRIALS])
    def test_decided_links_give_exact_estimates(self, trials):
        sure = [eps for eps in EDGE_EPS if 1.0 - eps == 1.0]
        assert sure == [0.0, 1e-300, 5e-17]
        for eps_ul in sure:
            for eps_dl in sure:
                mc = monte_carlo_validate(eps_ul, eps_dl, trials, seed=9)
                assert (mc.estimate, mc.ci_high) == (1.0, 1.0)
        for eps in EDGE_EPS:
            for pair in ((1.0, eps), (eps, 1.0)):
                mc = monte_carlo_validate(*pair, trials, seed=9)
                assert (mc.estimate, mc.ci_low) == (0.0, 0.0), pair

    def test_ci_clipped_to_unit_interval(self):
        # 1,000 trials at an error rate of 1e-3: the normal interval about
        # an estimate of 0.999 reaches 1.0016, and about 0.001 reaches -0.0016
        clipped = set()
        for eps, seed in itertools.product((1e-3, 1.0 - 1e-3), range(20)):
            mc = monte_carlo_validate(eps, 0.0, 1_000, seed)
            assert 0.0 <= mc.ci_low <= mc.estimate <= mc.ci_high <= 1.0
            if 0.0 < mc.estimate < 1.0:
                clipped.add(mc.ci_high if eps < 0.5 else mc.ci_low)
        assert clipped >= {0.0, 1.0}

    def test_max_trials_return_at_once(self, table1):
        # a loop over draws would take centuries here; two binomial draws
        # take microseconds
        result = solve(table1)
        start = time.perf_counter()
        mc = monte_carlo_validate(result.eps_ul, result.eps_dl, MAX_TRIALS, seed=0)
        assert time.perf_counter() - start < 1.0
        assert mc.contains_analytic()
        assert 0.0 < mc.ci_high - mc.ci_low < 1e-11

    @pytest.mark.parametrize("trials", [MAX_TRIALS + 1, 10**20])
    def test_rejects_trials_beyond_int64(self, trials, monkeypatch):
        made = _spy_generators(monkeypatch)
        with pytest.raises(ValueError, match=r"trials must be <= 2\*\*63 - 1"):
            monte_carlo_validate(0.1, 0.1, trials, seed=0)
        assert made == []

    def test_memory_flat_in_trials(self, table1):
        # a one-shot draw of 4e6 uniforms peaks at 38 MiB here, in arrays of
        # doubles and masks; the two binomial draws allocate no array at all
        result = solve(table1)
        tracemalloc.start()
        try:
            monte_carlo_validate(result.eps_ul, result.eps_dl, 4_000_000, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20


class TestApproximationAudit:
    def test_gap_identity_and_bound_over_sweep(self, table1):
        for record in sweep_noise(table1, 10, grid_points=40):
            scan = record.scan
            for a, b, eps_cl in zip(
                scan.eps_ul.tolist(), scan.eps_dl.tolist(), scan.eps_cl.tolist()
            ):
                r_loop = (1.0 - a) * (1.0 - b)
                residual = abs((1.0 - r_loop) - eps_cl + a * b)
                assert residual <= 1e-15 * max(1.0, eps_cl, 1.0 - r_loop)
                if eps_cl < 0.1:
                    assert a * b <= 1e-2 * eps_cl


    def test_suite_worst_residual_matches_scalar_loop(self, table1):
        record = sweep_noise(table1, 50, grid_points=200)[40]
        worst = 0.0
        for a, b in zip(record.scan.eps_ul.tolist(), record.scan.eps_dl.tolist()):
            r_loop = (1.0 - a) * (1.0 - b)
            residual = abs((1.0 - r_loop) - (a + b) + a * b)
            worst = max(worst, residual / max(1.0, 1.0 - r_loop, a + b))
        result = approximation_gap_suite(record.scan)
        assert result.status == "pass"
        assert result.detail == (
            f"worst identity residual {worst:.3e} (tolerance 1e-15)"
        )

    def test_suite_reports_first_dominant_product(self):
        # points 1 and 2 both have eps_ul*eps_dl > 1e-2*eps_cl < 0.1
        scan = SimpleNamespace(
            eps_ul=np.array([1e-3, 0.04, 0.03]),
            eps_dl=np.array([1e-9, 0.04, 0.03]),
        )
        result = approximation_gap_suite(scan)
        assert result.status == "fail"
        assert result.detail == (
            "eps_ul*eps_dl=1.600e-03 not small against eps_cl=8.000e-02"
        )


class TestDerivativeFidelity:
    def test_short_downlink_at_blocklength_bound(self):
        # the right end of the domain leaves n_dl = d = 29 bits; a finite-
        # difference step taken from n_ul (3.7 bits) would span ~10% of the
        # downlink codeword and miss the analytic slope by 1.7e-4 relative
        cfg = SystemConfig(
            d=29.0, f_s=250e3, M=1.0, E=1.38033e-6, p_dl=8.89353e-5,
            N=4.58551e-5, n_max=3732.0,
        )
        result = derivative_fidelity_suite(cfg)
        assert result.status == "pass", result.detail
        worst = float(result.detail.split()[3])
        assert worst < 1e-10


class TestGridSample:
    """A grid sample is one row of the scan's CSV columns."""

    def test_matches_sweep_row_bitwise(self, table1):
        record = record_at_noise(table1, 20)
        row = [column[7] for column in grid_columns(record.scan)]
        alone = scan_columns(table1, np.array(row[:1]))
        assert [column[0] for column in grid_columns(alone)] == row

    def test_config_digest_stable_and_distinct(self, table1):
        assert config_digest(table1) == config_digest(make_config())
        assert config_digest(table1) != config_digest(make_config(N=4e-3))
