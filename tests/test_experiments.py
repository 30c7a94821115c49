"""Case study, sweeps, and oracle machinery."""

from types import SimpleNamespace

import numpy as np
import pytest

from clfbl import (
    SystemConfig,
    UpperBound,
    grid_search_oracle,
    monte_carlo_validate,
    noise_grid,
    run_case_study,
    solve,
    sweep_noise,
)
from clfbl.energy import Infeasible
from clfbl.experiments import GENERATOR_ID, config_digest, grid_sample
from clfbl.validation import approximation_gap_suite

from conftest import make_config


class TestCaseStudy:
    def test_reference_record(self, table1):
        record = run_case_study(table1, 500)
        assert len(record.grid) == 500
        assert record.domain.binding_hi is UpperBound.SNR_BOUND
        assert record.domain.n_hi == pytest.approx(54.1667, abs=1e-3)
        assert record.domain.n_hi < table1.n_max - table1.d
        assert record.scan.convex_ok
        for sample in record.grid:
            assert record.domain.n_lo <= sample.n_ul <= record.domain.n_hi

    def test_single_point_grid_well_formed(self, table1):
        record = run_case_study(table1, 1)
        assert len(record.grid) == 1
        assert record.grid[0].n_ul == record.domain.n_lo

    def test_infeasible_record(self):
        record = run_case_study(make_config(N=0.1), 10)
        assert isinstance(record.result, Infeasible)
        assert record.grid == ()


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
            assert record.scan.convex_ok, f"violation at N={record.noise}"
            assert record.scan.dl_monotone_ok

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
            assert a.grid == b.grid
            assert a.result == b.result

    def test_grid_samples_lie_in_domain(self, table1):
        for record in sweep_noise(table1, 5, grid_points=15):
            assert len(record.grid) == 15
            for sample in record.grid:
                assert record.domain.n_lo <= sample.n_ul <= record.domain.n_hi


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


class TestMonteCarlo:
    def test_perfect_links_give_exactly_one(self):
        cfg = make_config(N=1e-12)
        result = solve(cfg)
        mc = monte_carlo_validate(cfg, result.n_ul, 10_000, seed=3)
        assert mc.eps_ul == 0.0 and mc.eps_dl == 0.0
        assert mc.estimate == 1.0

    def test_deterministic_for_seed(self, table1):
        cfg = make_config(N=6e-3)
        a = monte_carlo_validate(cfg, 9.0, 200_000, seed=42)
        b = monte_carlo_validate(cfg, 9.0, 200_000, seed=42)
        assert a == b
        c = monte_carlo_validate(cfg, 9.0, 200_000, seed=43)
        assert c.estimate != a.estimate or c.seed != a.seed

    def test_analytic_inside_ci_at_percent_level(self):
        # operating point with eps_cl ~ 1e-2, where the normal CI is healthy
        cfg = make_config(N=6e-3)
        mc = monte_carlo_validate(cfg, 9.0, 500_000, seed=1)
        assert 3e-3 <= 1.0 - mc.analytic_r_loop <= 3e-2
        assert mc.ci_low <= mc.analytic_r_loop <= mc.ci_high

    def test_generator_identifier_recorded(self, table1):
        mc = monte_carlo_validate(table1, 20.0, 1_000, seed=0)
        assert mc.generator == GENERATOR_ID

    def test_rejects_zero_trials(self, table1):
        with pytest.raises(ValueError):
            monte_carlo_validate(table1, 20.0, 0, seed=0)


class TestApproximationAudit:
    def test_gap_identity_and_bound_over_sweep(self, table1):
        for record in sweep_noise(table1, 10, grid_points=40):
            for s in record.grid:
                r_loop = (1.0 - s.eps_ul) * (1.0 - s.eps_dl)
                residual = abs((1.0 - r_loop) - s.eps_cl + s.eps_ul * s.eps_dl)
                assert residual <= 1e-15 * max(1.0, s.eps_cl, 1.0 - r_loop)
                if s.eps_cl < 0.1:
                    assert s.eps_ul * s.eps_dl <= 1e-2 * s.eps_cl


    def test_suite_worst_residual_matches_scalar_loop(self, table1):
        record = sweep_noise(table1, 50, grid_points=200)[40]
        worst = 0.0
        for s in record.grid:
            r_loop = (1.0 - s.eps_ul) * (1.0 - s.eps_dl)
            residual = abs((1.0 - r_loop) - (s.eps_ul + s.eps_dl) + s.eps_ul * s.eps_dl)
            worst = max(worst, residual / max(1.0, 1.0 - r_loop, s.eps_ul + s.eps_dl))
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


class TestGridSample:
    def test_matches_sweep_row_bitwise(self, table1):
        record = run_case_study(table1, 20)
        sample = record.grid[7]
        recomputed = grid_sample(table1, sample.n_ul)
        assert recomputed == sample

    def test_config_digest_stable_and_distinct(self, table1):
        assert config_digest(table1) == config_digest(make_config())
        assert config_digest(table1) != config_digest(make_config(N=4e-3))
