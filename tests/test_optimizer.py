"""Solver against dense-grid and exhaustive-integer oracles."""

import dataclasses
import importlib.util
import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, event, given, settings, strategies as st

import clfbl.derivatives
import clfbl.optimizer
from clfbl import (
    OptimizerCase,
    SystemConfig,
    convexity_scan,
    d_eps_cl_dn,
    feasible_domain,
    grid_search_oracle,
    loop_log_error,
    optimize_continuous,
    solve,
)
from clfbl.energy import Infeasible
from clfbl.derivatives import _cl_log_eps
from clfbl.fbl import _channel
from clfbl.optimizer import _log_cl, _point
from clfbl.validation import derivative_fidelity_suite

from conftest import make_config

GOLDEN_DIR = Path(__file__).with_name("data")


def _dense_argmin(cfg, spacing=1e-3):
    dom = feasible_domain(cfg)
    grid = np.arange(dom.n_lo, dom.n_hi + spacing / 2.0, spacing)
    grid[-1] = min(grid[-1], dom.n_hi)
    return float(grid[int(np.argmin(_cl_log_eps(cfg, grid)))])


def _objective_tie(cfg, n_a, n_b):
    return loop_log_error(cfg, n_a) == loop_log_error(cfg, n_b)


# the downlink crosses its capacity threshold inside the domain, and the
# bisection of the part below it stands (eps_cl at most 1/2)
_DL_CROSSING_71 = dict(
    d=45.93216299542219, f_s=13485626.434567807, M=3.148550282159621,
    E=3.3116569625213305e-06, p_dl=4.643309319218841e-07,
    N=0.00011616338113962041, n_max=14723.933926458552,
    g_ul=0.032552913026669864, g_dl=4.734020537373154, B=0.13898191423826284)
_DL_CROSSING_148 = dict(
    d=147.3012502355734, f_s=211318.97795356836, M=6.721654478977798,
    E=5.324123017505121e-06, p_dl=7.301121389520324e-07,
    N=3.836757395722406e-05, n_max=2790.1540691889904,
    g_ul=0.017082204736932033, g_dl=6.78037017223046, B=0.34242736139066077)
# floor 41021 and ceil 41022 of n_ul_cont lie 4.09e-8 apart in log eps_cl
# (at -37,057.9), a near-tie on a long frame
_NEAR_TIE_266 = dict(
    d=266.0, f_s=250e3, M=1.0, E=1.9025588379095362e-06, p_dl=0.04056211279221783,
    N=4.359457939201868e-06, n_max=105913.0)


class TestOptimizeContinuous:
    def test_reference_matches_dense_oracle(self, table1):
        cont = optimize_continuous(table1)
        dense = _dense_argmin(table1)
        assert cont.case is OptimizerCase.INTERIOR_ROOT
        assert cont.n_ul == pytest.approx(dense, abs=1e-3)

    def test_interior_root_has_small_derivative(self, table1):
        cont = optimize_continuous(table1)
        dom = feasible_domain(table1)
        scale = max(
            abs(d_eps_cl_dn(table1, dom.n_lo)), abs(d_eps_cl_dn(table1, dom.n_hi))
        )
        assert abs(d_eps_cl_dn(table1, cont.n_ul)) <= 1e-3 * scale

    def test_weak_downlink_pushes_right(self):
        # hopeless downlink (eps_dl ~ 1, flat): all that helps is the uplink,
        # and with eta below the upturn threshold it improves monotonically
        cfg = make_config(N=5e-3, p_dl=1e-9)
        cont = optimize_continuous(cfg)
        assert cont.case is OptimizerCase.RIGHT_BOUNDARY
        dom = feasible_domain(cfg)
        assert cont.n_ul == dom.n_hi

    def test_strong_downlink_pulls_left(self):
        # energy-rich uplink, moderate downlink: the downlink term dominates
        # the derivative, so the left bound wins
        cfg = SystemConfig(
            d=8.0, f_s=250e3, M=1.0, E=4e-5, p_dl=2e-2, N=1e-2, n_max=120.0
        )
        cont = optimize_continuous(cfg)
        assert cont.case is OptimizerCase.LEFT_BOUNDARY
        oracle = grid_search_oracle(cfg)
        n_ul = solve(cfg).n_ul
        assert n_ul == oracle or _objective_tie(cfg, n_ul, oracle)

    def test_energy_rich_matches_oracle(self):
        cfg = make_config(E=1.0)
        n_ul = solve(cfg).n_ul
        oracle = grid_search_oracle(cfg)
        assert n_ul == oracle or _objective_tie(cfg, n_ul, oracle)

    def test_empty_domain_infeasible(self):
        assert isinstance(optimize_continuous(make_config(N=0.1)), Infeasible)

    def test_inconsistent_signs_raise(self, table1, monkeypatch):
        dom = feasible_domain(table1)
        fake = lambda n: 1 if n == dom.n_lo else -1
        monkeypatch.setattr(clfbl.optimizer, "_sign_kernel", lambda cfg: fake)
        with pytest.raises(RuntimeError, match="convexity"):
            optimize_continuous(table1)


class TestRefineInteger:
    """The integer step of ``solve``: the better neighbour of the continuous
    optimum, clamped into [ceil(n_lo), floor(n_hi)]."""

    def test_integral_point_unchanged(self):
        # the left bound n_lo = 9 is the continuous optimum
        cfg = SystemConfig(
            d=8.0, f_s=250e3, M=1.0, E=4e-5, p_dl=2e-2, N=1e-2, n_max=120.0
        )
        result = solve(cfg)
        assert (result.n_ul_cont, result.n_ul) == (9.0, 9)

    def test_clamps_to_integer_range(self):
        # right bound n_hi = eta = 20.3125: ceil = 21 clamps back onto 20
        result = solve(make_config(N=8e-3))
        assert result.case is OptimizerCase.RIGHT_BOUNDARY
        assert (result.n_ul_cont, result.n_ul) == (20.3125, 20)

    def test_matches_exhaustive_search(self, table1):
        result = solve(table1)
        assert result.n_ul in (math.floor(result.n_ul_cont), math.ceil(result.n_ul_cont))
        assert result.n_ul == grid_search_oracle(table1)

    def test_exact_tie_takes_the_floor(self, monkeypatch):
        # with floor and ceil of n_ul_cont tied exactly, solve takes the
        # smaller, as grid_search_oracle does; untied, this config takes
        # the ceil (n_ul_cont = 83.598).  Patching log Q in the optimizer
        # makes the tie: the ranking's key reads nothing else.
        cfg = make_config(N=1e-3)
        result = solve(cfg)
        floor = math.floor(result.n_ul_cont)
        assert result.case is OptimizerCase.INTERIOR_ROOT
        assert result.n_ul == floor + 1
        monkeypatch.setattr(clfbl.optimizer, "_log_eps_of", lambda x: 0.0)
        assert solve(cfg).n_ul == floor

    def test_empty_integer_range(self):
        # domain [9.2, 9.7] contains no integer
        cfg = SystemConfig(
            d=9.2, f_s=250e3, M=1.0, E=9.7 * 1e-3 / 250e3, p_dl=1e-2,
            N=1e-3, n_max=100.0,
        )
        dom = feasible_domain(cfg)
        assert not dom.empty
        assert isinstance(solve(cfg), Infeasible)
        assert isinstance(grid_search_oracle(cfg, dom), Infeasible)


class TestFeasibility:
    def test_zero_error_rates_feasible(self):
        result = solve(make_config(N=1e-12))
        assert result.eps_ul == 0.0 and result.eps_dl == 0.0
        assert result.feasible

    def test_boundary_equality_is_feasible(self, table1):
        # a cap equal to the larger error rate is met; one just below it is not
        result = solve(table1)
        worst = max(result.eps_ul, result.eps_dl)
        assert worst > 0.0
        at_cap = solve(dataclasses.replace(table1, eps_max=worst))
        assert at_cap.n_ul == result.n_ul and at_cap.feasible
        below = solve(dataclasses.replace(table1, eps_max=math.nextafter(worst, 0.0)))
        assert below.n_ul == result.n_ul and not below.feasible

    def test_violated_direction_named(self):
        # noise high enough that the downlink misses the cap (the frame is
        # long, so this needs gamma_dl well below 0 dB, not just near it)
        cfg = SystemConfig(
            d=8.0, f_s=250e3, M=1.0, E=1e-4, p_dl=1e-2, N=1.0, n_max=2500.0
        )
        result = solve(cfg)
        assert result.eps_dl > cfg.eps_max
        assert not result.feasible

    def test_near_0db_downlink_still_meets_cap(self):
        # with ~2480 downlink bits, even gamma_dl ~ 1 keeps Q(x_dl) below
        # any practical cap (x_dl ~ 40); the violated direction is the uplink
        cfg = make_config(N=9.9e-3)
        result = solve(cfg)
        assert result.eps_dl <= cfg.eps_max
        assert result.eps_ul > cfg.eps_max and not result.feasible

    def test_infeasibility_does_not_move_optimum(self):
        cfg = make_config(N=9.9e-3)
        strict = dataclasses.replace(cfg, eps_max=1e-9)
        assert solve(cfg).n_ul == solve(strict).n_ul
        assert not solve(strict).feasible


class TestSolve:
    def test_reference_against_integer_oracle(self, table1):
        result = solve(table1)
        assert result.n_ul == grid_search_oracle(table1)
        assert result.r_loop == (1.0 - result.eps_ul) * (1.0 - result.eps_dl)
        assert result.eps_cl == result.eps_ul + result.eps_dl

    def test_blocklength_and_energy_equalities(self, table1):
        result = solve(table1)
        assert result.n_ul + result.n_dl == table1.n_max
        energy = result.n_ul * result.p_ul / (table1.M * table1.f_s)
        assert energy == pytest.approx(table1.E, rel=1e-12)
        dom = feasible_domain(table1)
        assert math.ceil(dom.n_lo) <= result.n_ul <= math.floor(dom.n_hi)

    def test_eta_invariance(self, table1):
        scaled = make_config(g_ul=4.0, E=0.65e-6 / 4.0)
        a, b = solve(table1), solve(scaled)
        assert (a.n_ul, a.n_dl, a.case) == (b.n_ul, b.n_dl, b.case)
        assert a.eps_ul == b.eps_ul and a.eps_dl == b.eps_dl
        assert a.p_ul == pytest.approx(4.0 * b.p_ul, rel=1e-12)

    def test_vanishing_noise_limit(self):
        cfg = make_config(N=1e-12)
        dom = feasible_domain(cfg)
        result = solve(cfg)
        assert dom.binding_hi.name == "BLOCKLENGTH_BOUND"
        assert result.eps_ul == 0.0 and result.eps_dl == 0.0
        assert result.r_loop == 1.0

    def test_empty_domain_reason(self):
        result = solve(make_config(N=0.1))
        assert isinstance(result, Infeasible)
        assert "domain" in result.reason

    def test_weak_downlink_interior_maximum_is_exhaustive(self):
        # the downlink is below its capacity threshold on the whole domain
        # (eps_dl > 0.5, concave Q tail), and eps_cl has an interior
        # maximum: positive slope at n_lo, negative at n_hi
        cfg = make_config(d=24.0, E=7e-6, p_dl=7e-8, N=1.6e-4, n_max=560.0)
        with pytest.raises(RuntimeError, match="convexity"):
            optimize_continuous(cfg)
        result = solve(cfg)
        assert result.case is OptimizerCase.EXHAUSTIVE
        assert result.n_ul == grid_search_oracle(cfg)
        assert result.notes == (
            "downlink (x=-23.9568) at or below the capacity threshold at "
            "n_lo=24.0, where the loop error need not be convex; took the "
            "exhaustive integer argmin over [24, 536]",
        )

    @pytest.mark.parametrize("values, oracle, case, note", [
        # bisection used to stop at a local minimum far from the global one
        (dict(d=21.0, f_s=250e3, M=1.0, E=3.32e-8, p_dl=1.133e-9, N=5.696e-6,
              n_max=893.0), 91, "EXHAUSTIVE", "downlink (x=-"),
        (dict(d=22.0, f_s=250e3, M=1.0, E=2.63158e-6, p_dl=3.19167e-9,
              N=6.88755e-5, n_max=2446.0), 40, "EXHAUSTIVE", "downlink (x=-"),
        # B << 1 puts the uplink below its threshold at n_lo; bisection
        # used to return 119 (eps_cl 0.83) against the oracle's 0.086
        (dict(d=118.14421830210071, f_s=26516945.426138885, M=2.599225859758534,
              E=1.3759067663915247e-13, p_dl=3.4530082672073587e-07,
              N=3.4498656899938065e-11, n_max=5079.748351110286,
              g_ul=0.04537933750500774, g_dl=2.3648561552463307e-05,
              B=0.13431460898940648), 241, "EXHAUSTIVE", "uplink (x=-"),
        # the downlink crosses its threshold inside the domain, so only the
        # part below n_max - d/C_dl is bisected.  Over the whole domain the
        # first two gave the right bound (eps_cl ~1), the third raised
        # a RuntimeError; the first one's optimum lies past the crossing
        (dict(d=2.6941587338923445, f_s=28878911.021961864, M=2.104378528273548,
              E=8.372054868874573e-12, p_dl=1.2918030925958794e-07,
              N=2.929674040785615e-08, n_max=5531.564563232378,
              g_ul=4.516790711989067, g_dl=0.0030195393117996875,
              B=0.027623683538114698), 438, "EXHAUSTIVE",
         "downlink at or below the capacity threshold past n_ul=420.34"),
        (_DL_CROSSING_71, 71, "INTERIOR_ROOT", None),
        (_DL_CROSSING_148, 148, "LEFT_BOUNDARY", None),
    ], ids=["dl-below-91", "dl-below-40", "ul-below-241", "dl-crossing-438",
            "dl-crossing-71", "dl-crossing-148"])
    def test_link_below_threshold_equals_oracle(self, values, oracle, case, note):
        cfg = SystemConfig(**values)
        result = solve(cfg)
        assert grid_search_oracle(cfg) == oracle
        assert (result.n_ul, result.case.name) == (oracle, case)
        assert result.notes[0].startswith(note) if note else result.notes == ()

    def test_higher_order_modulation_against_oracle(self):
        cfg = SystemConfig(
            d=16.0, f_s=100e3, M=4.0, E=5e-7, p_dl=6e-3, N=1.2e-3,
            n_max=1600.0, B=1.0,
        )
        result = solve(cfg)
        oracle = grid_search_oracle(cfg)
        assert result.n_ul == oracle or _objective_tie(cfg, result.n_ul, oracle)
        energy = result.n_ul * result.p_ul / (cfg.M * cfg.f_s)
        assert energy == pytest.approx(cfg.E, rel=1e-12)


class TestRandomizedAgainstOracle:
    def test_fifty_random_configs(self):
        rng = np.random.default_rng(20260811)
        made = 0
        while made < 50:
            d = float(rng.integers(8, 65))
            n_max = float(rng.integers(500, 5001))
            E = 10.0 ** rng.uniform(-8, -5)
            N = 10.0 ** rng.uniform(-6, -1)
            p_dl = 10.0 ** rng.uniform(-4, 0)
            try:
                cfg = SystemConfig(
                    d=d, f_s=250e3, M=1.0, E=E, p_dl=p_dl, N=N, n_max=n_max
                )
            except ValueError:
                continue
            dom = feasible_domain(cfg)
            if dom.empty or math.ceil(dom.n_lo) > math.floor(dom.n_hi):
                continue
            made += 1
            result = solve(cfg)
            oracle = grid_search_oracle(cfg)
            assert result.n_ul == oracle or _objective_tie(cfg, result.n_ul, oracle)
            assert result.iterations <= 60


def _seeded_configs(seed: int, count: int):
    """Valid configs with a non-empty integer domain, p_dl < N included."""
    rng = np.random.default_rng(seed)
    made = 0
    while made < count:
        try:
            cfg = SystemConfig(
                d=float(rng.integers(8, 65)), f_s=250e3, M=float(rng.integers(1, 4)),
                E=10.0 ** rng.uniform(-8, -5), p_dl=10.0 ** rng.uniform(-9, 0),
                N=10.0 ** rng.uniform(-6, -1), n_max=float(rng.integers(100, 5001)),
            )
        except ValueError:
            continue
        dom = feasible_domain(cfg)
        if dom.empty or math.ceil(dom.n_lo) > math.floor(dom.n_hi):
            continue
        made += 1
        yield cfg


class TestCandidateStep:
    def test_array_evaluation_is_bitwise_scalar(self, table1):
        # the oracle's array, loop_log_error and solve's ranking key give
        # the same bits, so the key ranks floor and ceil as the oracle does
        # with no error window: a numpy that rounded a scalar otherwise
        # than an array element fails here, naming the config
        cases = [(SystemConfig(**_NEAR_TIE_266), np.arange(41000.0, 41101.0))]
        for cfg in [table1, *_seeded_configs(3, 20)]:
            dom = feasible_domain(cfg)
            cases.append((cfg, np.concatenate([
                np.arange(math.ceil(dom.n_lo), math.floor(dom.n_hi) + 1, dtype=float),
                np.linspace(dom.n_lo, dom.n_hi, 37),
            ])))
        for cfg, points in cases:
            eta = feasible_domain(cfg).eta
            channel_np = _channel(cfg.p_dl * cfg.g_dl / cfg.N, cfg.B, np)
            array = [v.hex() for v in _cl_log_eps(cfg, points).tolist()]
            scalar = [loop_log_error(cfg, n).hex() for n in points.tolist()]
            key = [float(_log_cl(*_point(cfg, eta, channel_np, n, np))).hex()
                   for n in points.tolist()]
            assert array == scalar, cfg
            assert array == key, cfg

    def test_seeded_configs_equal_oracle(self):
        # the first config is one where the continuous optimum's
        # neighbours miss the oracle's answer (a weak downlink)
        weak = SystemConfig(
            d=36.0, f_s=250e3, M=1.0, E=8.218550732019156e-06,
            p_dl=1.4141822916480302e-09, N=2.6750145212957025e-05, n_max=2518.0,
        )
        for cfg in [weak, *_seeded_configs(11, 200)]:
            n_ul, oracle = solve(cfg).n_ul, grid_search_oracle(cfg)
            assert n_ul == oracle or _objective_tie(cfg, n_ul, oracle), cfg


def _one_shot_argmin(cfg) -> int:
    """The exhaustive integer argmin over the whole domain in one array."""
    dom = feasible_domain(cfg)
    lo, hi = math.ceil(dom.n_lo), math.floor(dom.n_hi)
    return lo + int(np.argmin(_cl_log_eps(cfg, np.arange(lo, hi + 1, dtype=float))))


class TestOracleChunks:
    def test_long_frame_memory_bounded(self):
        # the downlink is below its threshold, so solve takes the
        # exhaustive argmin over a million integers
        cfg = SystemConfig(d=100, f_s=250e3, M=1, E=1, p_dl=1e-7, N=1e-2, n_max=1e6)
        tracemalloc.start()
        try:
            result = solve(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.case is OptimizerCase.EXHAUSTIVE and result.n_ul == 100
        assert peak <= 8 * 2**20

    def test_small_chunks_equal_one_shot_argmin(self, monkeypatch):
        exhaustive = [cfg for cfg, case in _golden_cases()
                      if case["result"].get("case") == "EXHAUSTIVE"]
        assert exhaustive
        configs = [*exhaustive, *_seeded_configs(11, 40)]
        expected = [_one_shot_argmin(cfg) for cfg in configs]
        assert [grid_search_oracle(cfg) for cfg in configs] == expected
        monkeypatch.setattr(clfbl.optimizer, "_ORACLE_CHUNK", 7)
        assert [grid_search_oracle(cfg) for cfg in configs] == expected


def _golden_cases():
    """(config, stored entry) of every solve_golden.json case."""
    for case in json.loads((GOLDEN_DIR / "solve_golden.json").read_text()):
        values = {k: v for k, v in case["config"].items() if k != "type"}
        yield SystemConfig(**{
            k: float.fromhex(v) if isinstance(v, str) else v for k, v in values.items()
        }), case


def _load_golden_module():
    spec = importlib.util.spec_from_file_location(
        "make_solve_golden", GOLDEN_DIR / "make_solve_golden.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestGoldenFixture:
    def test_every_field_bitwise(self):
        # every field of solve() on 300 configs, floats as float.hex; a
        # change to the solver's internals must leave all of them alone
        encode = _load_golden_module().encode
        cases = list(_golden_cases())
        assert len(cases) == 300
        for cfg, case in cases:
            assert encode(cfg) == case["config"]
            assert encode(solve(cfg)) == case["result"], cfg
        cases_of = {case["result"].get("case") for _, case in cases}
        assert cases_of == {None, *(c.name for c in OptimizerCase)}


class TestNoArrayRoundTrip:
    def test_solve_without_the_array_argmin(self, table1, monkeypatch):
        # the floor/ceil step ranks by a key on numpy scalars and the error
        # rates come from the math backend, so outside EXHAUSTIVE solve
        # reaches neither the oracle nor its array kernel, near-ties on
        # long frames included; where the bracket is cut at the downlink
        # threshold, the "eps_cl at most 1/2" check reads the same key
        encode = _load_golden_module().encode
        crossing = [SystemConfig(**values) for values in (_DL_CROSSING_71, _DL_CROSSING_148)]
        for cfg in crossing:
            c_dl = cfg.B * math.log2(1.0 + cfg.p_dl * cfg.g_dl / cfg.N)
            assert cfg.n_max - cfg.d / c_dl < feasible_domain(cfg).n_hi
        crossed = [solve(cfg) for cfg in crossing]
        assert [r.case.name for r in crossed] == ["INTERIOR_ROOT", "LEFT_BOUNDARY"]
        result = solve(table1)
        assert result.case is OptimizerCase.INTERIOR_ROOT
        assert math.floor(result.n_ul_cont) != math.ceil(result.n_ul_cont)
        expected = encode(result)
        near_tie = SystemConfig(**_NEAR_TIE_266)
        near_tied = solve(near_tie)
        assert (near_tied.n_ul_cont, near_tied.n_ul) == (41021.510815411995, 41022)
        near_tie_expected = encode(near_tied)
        cases = [
            next((cfg, case) for cfg, case in _golden_cases()
                 if case["result"].get("case") == name)
            for name in ("RIGHT_BOUNDARY", "LEFT_BOUNDARY")
        ]

        def array_round_trip(*args):
            raise AssertionError("solve took the array argmin")

        monkeypatch.setattr(clfbl.optimizer, "_cl_log_eps", array_round_trip)
        monkeypatch.setattr(clfbl.derivatives, "_cl_log_eps", array_round_trip)
        assert encode(solve(table1)) == expected
        assert encode(solve(near_tie)) == near_tie_expected
        for cfg, case in cases:
            assert encode(solve(cfg)) == case["result"], cfg
        assert [solve(cfg) for cfg in crossing] == crossed


@settings(deadline=None, max_examples=150, derandomize=True)
@given(
    d=st.integers(8, 64),
    M=st.integers(1, 3),
    log_E=st.floats(-8.0, -5.0),
    log_N=st.floats(-6.0, -1.0),
    log_snr_dl=st.floats(-4.0, 4.0),
    n_max=st.integers(100, 5000),
)
def test_solver_equals_oracle(d, M, log_E, log_N, log_snr_dl, n_max):
    # p_dl > N, p_dl < N and p_dl = N alike
    N = 10.0**log_N
    p_dl = N * 10.0**log_snr_dl
    assume(n_max >= 2 * d)
    cfg = SystemConfig(d=float(d), f_s=250e3, M=float(M), E=10.0**log_E,
                       p_dl=p_dl, N=N, n_max=float(n_max))
    result, oracle = solve(cfg), grid_search_oracle(cfg)
    event("infeasible" if isinstance(result, Infeasible) else result.case.name)
    assert isinstance(result, Infeasible) == isinstance(oracle, Infeasible)
    if not isinstance(oracle, Infeasible):
        assert result.n_ul == oracle or _objective_tie(cfg, result.n_ul, oracle)


def _assert_choice_is_argmin(cfg) -> None:
    """solve's n_ul is the oracle's over the integers it chose among: the
    floor and ceil of n_ul_cont clamped into the integer domain, or the
    whole domain where it took the exhaustive argmin."""
    result = solve(cfg)
    dom = feasible_domain(cfg)
    bounds = clfbl.optimizer._integer_range(dom)
    assert isinstance(result, Infeasible) == isinstance(bounds, Infeasible)
    if isinstance(result, Infeasible):
        return
    lo, hi = bounds
    if result.case is not OptimizerCase.EXHAUSTIVE:
        lo, hi = max(math.floor(result.n_ul_cont), lo), min(math.ceil(result.n_ul_cont), hi)
    chosen = dataclasses.replace(dom, n_lo=lo, n_hi=hi)
    assert result.n_ul == grid_search_oracle(cfg, chosen), cfg


@settings(deadline=None, max_examples=150, derandomize=True)
@given(
    d=st.integers(8, 64),
    M=st.integers(1, 3),
    log_E=st.floats(-8.0, -5.0),
    log_N=st.floats(-6.0, -1.0),
    log_snr_dl=st.floats(-4.0, 4.0),
    n_max=st.integers(100, 5000),
)
def test_floor_ceil_choice_equals_argmin(d, M, log_E, log_N, log_snr_dl, n_max):
    # the ranking's key picks what the oracle's array argmin picks;
    # p_dl > N, p_dl < N and p_dl = N alike
    N = 10.0**log_N
    p_dl = N * 10.0**log_snr_dl
    assume(n_max >= 2 * d)
    cfg = SystemConfig(d=float(d), f_s=250e3, M=float(M), E=10.0**log_E,
                       p_dl=p_dl, N=N, n_max=float(n_max))
    result = solve(cfg)
    event("infeasible" if isinstance(result, Infeasible) else result.case.name)
    _assert_choice_is_argmin(cfg)


@pytest.mark.parametrize("cfg", [
    make_config(N=1e-3),
    # the worst loss in R of the additive objective among the roadmap's
    # probes; its downlink is below threshold at n_lo (EXHAUSTIVE)
    SystemConfig(d=29.0, f_s=250e3, M=1.0, E=4.5912e-6, p_dl=1.2271e-3,
                 N=2.6925e-2, n_max=308.0),
], ids=["N=1e-3", "d=29"])
def test_floor_ceil_choice_fixed_cases(cfg):
    _assert_choice_is_argmin(cfg)


def _log_uniform(lo: float, hi: float):
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda v: 10.0**v)


@settings(deadline=None, max_examples=500, derandomize=True)
@given(
    d=_log_uniform(1.0, 200.0),
    f_s=_log_uniform(1.0, 1e9),
    M=_log_uniform(1.0, 7.0),
    E=_log_uniform(1e-15, 1.0),
    p_dl=_log_uniform(1e-12, 1e3),
    N=_log_uniform(1e-12, 1e3),
    n_max=_log_uniform(2.0, 2e5),
    g_ul=_log_uniform(1e-20, 1e2),
    g_dl=_log_uniform(1e-20, 1e2),
    B=_log_uniform(1e-3, 1e3),
)
def test_every_valid_config_runs(**values):
    # a config is either rejected where it is built, or solve, the scan
    # and the fidelity suite run on it without an exception or a
    # RuntimeWarning (pytest turns those into errors), and solve ties the
    # oracle wherever the integer domain is not empty
    try:
        cfg = SystemConfig(**values)
    except ValueError:
        event("rejected")
        return
    event("empty" if feasible_domain(cfg).empty else "feasible")
    result, oracle = solve(cfg), grid_search_oracle(cfg)
    if not isinstance(oracle, Infeasible):
        event(result.case.name)
        assert result.n_ul == oracle or _objective_tie(cfg, result.n_ul, oracle)
    convexity_scan(cfg, 50)
    derivative_fidelity_suite(cfg)
