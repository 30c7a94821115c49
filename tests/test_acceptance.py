"""Acceptance gate: one test per criterion, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see every verdict.

Criterion 2 checks the sign structure the model actually has.  The
downlink half is unchanged: eps_dl strictly increases over the whole
feasible domain.  The uplink half is not "eps_ul non-increasing": that
claim is false for this model.  At gamma_ul = 1 the sign of
d eps_ul/d n_ul is that of -(4*ln2*d + n*(8*ln2 - 6)), so once
eta > 4*ln2*d/(6 - 8*ln2) (~48.77 for d = 8) the uplink error rate can
reach an interior minimum and turn upward before the 0 dB bound
(spreading the energy budget ever thinner stops paying off).
``test_criterion_2_counterexample_high_precision`` shows this at 50
digits: at the reference setup eps_ul(49.385) = 2.55496e-7 is below
eps_ul(eta = 54.1667) = 2.57526e-7.

So at every sweep noise level criterion 2 asserts, on the scan grid:

* log eps_ul changes direction at most once, and only from falling to
  rising;
* an upturn is on the grid exactly when the analytic d eps_ul/d n_ul is
  positive at n_hi;
* with an upturn, the analytic root of d eps_ul/d n_ul (bisection on
  its sign) lies within one grid step of the start of the first rising
  grid interval.

Criterion 3 (convexity of eps_cl), which is what the optimizer relies
on, holds everywhere.
"""

import dataclasses
import math
import time

import numpy as np
import pytest
import sympy as sp
from mpmath import mp

from clfbl import (
    SystemConfig,
    UpperBound,
    fd_derivative,
    feasible_domain,
    grid_search_oracle,
    loop_log_error,
    monte_carlo_validate,
    solve,
    sweep_noise,
)
from clfbl.cli import main as cli_main
from clfbl.derivatives import (
    _dl_eps,
    _ul_d_eps,
    _ul_eps,
    _dl_link,
    _ul_link,
    scan_columns,
)
from clfbl.energy import Infeasible

from conftest import TABLE1, d_eps_dl, d_eps_ul
from test_symbolic import delta_ul

SWEEP_POINTS = 50
GRID_POINTS = 200


def _verdict(ok: bool, criterion: int, text: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {criterion}: {text}")


@pytest.fixture(scope="session")
def table1_cfg() -> SystemConfig:
    return SystemConfig(**TABLE1)


@pytest.fixture(scope="session")
def sweep(table1_cfg):
    """The criterion-2 sweep, shared by criteria 2-5 and 7."""
    start = time.perf_counter()
    records = sweep_noise(table1_cfg, SWEEP_POINTS, GRID_POINTS)
    elapsed = time.perf_counter() - start
    assert all(not isinstance(r.scan, Infeasible) for r in records)
    return records, elapsed


def test_criterion_1_domain_reproduction(table1_cfg):
    start = time.perf_counter()
    for _ in range(100):
        dom = feasible_domain(table1_cfg)
    per_call = (time.perf_counter() - start) / 100.0
    ok = (
        dom.n_lo == 9.0
        and abs(dom.n_hi - 54.1667) <= 1e-3
        and dom.binding_hi is UpperBound.SNR_BOUND
        and per_call < 1e-3
    )
    _verdict(
        ok, 1,
        f"n_lo={dom.n_lo}, n_hi={dom.n_hi:.4f} (SNR bound, vs n_max-d="
        f"{table1_cfg.n_max - table1_cfg.d:.0f}), {per_call * 1e6:.1f} us/call",
    )
    assert ok


def _ul_slope_sign(cfg, n):
    return int(_ul_d_eps(cfg, _ul_link(cfg, np.array([float(n)])))[1][0])


def _ul_slope_root(cfg, lo, hi):
    """Bisect the sign change of d eps_ul/d n_ul on [lo, hi], rising on the right."""
    while hi - lo > 1e-9 * hi:
        mid = 0.5 * (lo + hi)
        if _ul_slope_sign(cfg, mid) > 0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def _ul_structure_ok(cfg, grid) -> tuple[bool, bool]:
    """(sign structure holds, upturn on the grid) for eps_ul at one noise level."""
    steps = np.diff(scan_columns(cfg, grid).log_eps_ul)
    rising = steps > 0.0
    first = int(np.argmax(rising)) if rising.any() else len(steps)
    upturn = first < len(steps)
    if not (np.all(steps[:first] < 0.0) and np.all(rising[first:])):
        return False, upturn  # changes direction more than once
    if upturn != (_ul_slope_sign(cfg, grid[-1]) > 0):
        return False, upturn
    if not upturn:
        return True, False
    if _ul_slope_sign(cfg, grid[0]) >= 0:
        return False, True  # no sign change to bracket the root
    root = _ul_slope_root(cfg, float(grid[0]), float(grid[-1]))
    return bool(grid[max(first - 1, 0)] <= root <= grid[first + 1]), True


def test_criterion_2_sign_structure(table1_cfg, sweep):
    records, build_time = sweep
    start = time.perf_counter()
    ul_bad = []
    upturns = 0
    for r in records:
        ok, upturn = _ul_structure_ok(
            dataclasses.replace(table1_cfg, N=r.noise), r.scan.n_ul
        )
        upturns += upturn
        if not ok:
            ul_bad.append(r.noise)
    dl_bad = [r.noise for r in records if not r.scan.dl_monotone_ok]
    elapsed = build_time + time.perf_counter() - start
    ok = not ul_bad and not dl_bad and elapsed < 10.0
    _verdict(
        ok, 2,
        f"eps_dl strictly increasing at {SWEEP_POINTS}/{SWEEP_POINTS} noise "
        f"points; eps_ul falls, then rises only where d eps_ul/dn > 0, at "
        f"{SWEEP_POINTS - len(ul_bad)}/{SWEEP_POINTS} ({upturns} with an "
        f"upturn, {elapsed:.2f} s)",
    )
    assert not dl_bad, f"downlink monotonicity violated at N={dl_bad[:3]}"
    assert not ul_bad, (
        f"eps_ul departs from its analytic sign structure at {len(ul_bad)} of "
        f"{SWEEP_POINTS} noise points (first N={ul_bad[:3]}): it changes "
        "direction more than once, turns up where d eps_ul/dn <= 0 at n_hi "
        "(or fails to where it is > 0), or turns up more than one grid step "
        "away from the root of d eps_ul/dn"
    )
    assert elapsed < 10.0


def test_criterion_2_counterexample_high_precision(table1_cfg):
    """eps_ul is not non-increasing: 50-digit evaluation at the reference setup."""
    cfg = table1_cfg

    def eps_ul(n, eta):
        gamma = eta / n
        cap = mp.mpf(cfg.B) * mp.log(1 + gamma, 2)
        disp = 1 - (1 + gamma) ** -2
        x = mp.sqrt(n / disp) * (cap - mp.mpf(cfg.d) / n) * mp.log(2)
        return mp.erfc(x / mp.sqrt(2)) / 2

    with mp.workdps(50):
        eta = mp.mpf(cfg.E) * cfg.M * cfg.f_s * cfg.g_ul / cfg.N
        inner, edge = eps_ul(mp.mpf("49.385"), eta), eps_ul(eta, eta)
    ok = inner < edge
    _verdict(
        ok, 2,
        f"50-digit eps_ul(49.385) = {mp.nstr(inner, 6)} < eps_ul(eta = "
        f"{mp.nstr(eta, 6)}) = {mp.nstr(edge, 6)}",
    )
    assert float(inner) == pytest.approx(2.55496e-7, rel=1e-5)
    assert float(edge) == pytest.approx(2.57526e-7, rel=1e-5)
    assert ok
    # the double-precision model agrees with the 50-digit values
    assert float(_ul_eps(cfg, 49.385)) == pytest.approx(float(inner), rel=1e-10)
    assert float(_ul_eps(cfg, float(eta))) == pytest.approx(float(edge), rel=1e-10)


def test_criterion_3_convexity(sweep):
    records, build_time = sweep
    start = time.perf_counter()
    bad = [
        (r.noise, float(r.scan.n_ul[i]), float(r.scan.convexity_indicator[i]))
        for r in records
        for i in np.flatnonzero(r.scan.cl_not_convex)
    ]
    smallest = min(float(np.min(r.scan.convexity_indicator)) for r in records)
    elapsed = build_time + time.perf_counter() - start
    ok = not bad and elapsed < 30.0
    _verdict(
        ok, 3,
        f"second derivative of eps_cl positive at all {SWEEP_POINTS}x"
        f"{GRID_POINTS} grid points (smallest indicator {smallest:.3e}, "
        f"{elapsed:.2f} s)",
    )
    assert not bad, f"convexity violations: {bad[:5]}"
    assert elapsed < 30.0


def test_criterion_4_derivative_fidelity(table1_cfg, sweep):
    records, _ = sweep
    start = time.perf_counter()
    worst = 0.0
    checked = {"ul": 0, "dl": 0}
    for record in records:
        cfg = dataclasses.replace(table1_cfg, N=record.noise)
        grid = record.scan.n_ul[::4]
        n_dl = cfg.n_max - grid
        # the downlink step scales with the downlink codeword, as in the suite
        for side, link, eps, d_eps, h in (
            ("ul", _ul_link(cfg, grid), _ul_eps, d_eps_ul,
             np.minimum(np.maximum(1e-4, 1e-3 * grid), n_dl / 4.0)),
            ("dl", _dl_link(cfg, grid), _dl_eps, d_eps_dl, np.maximum(1e-4, 1e-3 * n_dl)),
        ):
            ok = np.abs(link.x) <= 8.0
            if ok.any():
                fd = fd_derivative(lambda m: eps(cfg, m), grid[ok], 1, h=h[ok])
                err = np.abs(d_eps(cfg, grid[ok]) - fd) / np.maximum(1.0, np.abs(fd))
                worst = max(worst, float(np.max(err)))
            checked[side] += int(ok.sum())
    checked_ul, checked_dl = checked["ul"], checked["dl"]
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-6 and checked_ul > 0 and elapsed < 30.0
    _verdict(
        ok, 4,
        f"|analytic - FD| <= 1e-6 at {checked_ul} uplink and {checked_dl} "
        f"downlink well-conditioned points, worst {worst:.3e} ({elapsed:.2f} s)",
    )
    assert worst <= 1e-6
    assert checked_ul > 0
    assert elapsed < 30.0


def test_criterion_5_optimizer_correctness(table1_cfg, sweep):
    records, _ = sweep
    start = time.perf_counter()
    mismatches = []
    for record in records:
        cfg = dataclasses.replace(table1_cfg, N=record.noise)
        result, oracle = record.result, grid_search_oracle(cfg)
        if isinstance(result, Infeasible) or isinstance(oracle, Infeasible):
            continue
        if result.n_ul != oracle and loop_log_error(cfg, result.n_ul) != (
            loop_log_error(cfg, oracle)
        ):
            mismatches.append((record.noise, result.n_ul, oracle))

    rng = np.random.default_rng(20260811)
    randomized = 0
    while randomized < 50:
        try:
            cfg = SystemConfig(
                d=float(rng.integers(8, 65)),
                f_s=250e3,
                M=1.0,
                E=10.0 ** rng.uniform(-8, -5),
                p_dl=10.0 ** rng.uniform(-4, 0),
                N=10.0 ** rng.uniform(-6, -1),
                n_max=float(rng.integers(500, 5001)),
            )
        except ValueError:
            continue
        dom = feasible_domain(cfg)
        if dom.empty or math.ceil(dom.n_lo) > math.floor(dom.n_hi):
            continue
        randomized += 1
        result, oracle = solve(cfg), grid_search_oracle(cfg)
        if result.n_ul != oracle and loop_log_error(cfg, result.n_ul) != (
            loop_log_error(cfg, oracle)
        ):
            mismatches.append((cfg, result.n_ul, oracle))
    elapsed = time.perf_counter() - start
    ok = not mismatches and elapsed < 60.0
    _verdict(
        ok, 5,
        f"solve == exhaustive oracle on {SWEEP_POINTS} sweep points and "
        f"{randomized} randomized configs ({elapsed:.2f} s)",
    )
    assert not mismatches, f"optimizer/oracle mismatches: {mismatches[:5]}"
    assert elapsed < 60.0


def test_criterion_6_delta_anchor():
    expected = (16 * sp.log(2) - 8) / 4
    value = delta_ul(sp.Integer(1))
    ok = sp.simplify(value - expected) == 0
    _verdict(ok, 6, f"delta(gamma=1) = {sp.simplify(value)} equals (16*ln2-8)/4 exactly")
    assert ok


def test_criterion_7_approximation_audit(sweep):
    records, _ = sweep
    worst_residual = 0.0
    product_violations = []
    for record in records:
        scan = record.scan
        for n_ul, a, b, eps_cl in zip(
            scan.n_ul.tolist(), scan.eps_ul.tolist(), scan.eps_dl.tolist(),
            scan.eps_cl.tolist(),
        ):
            r_loop = (1.0 - a) * (1.0 - b)
            residual = abs((1.0 - r_loop) - eps_cl + a * b)
            scale = max(1.0, eps_cl, 1.0 - r_loop)
            worst_residual = max(worst_residual, residual / scale)
            if eps_cl < 0.1 and a * b > 1e-2 * eps_cl:
                product_violations.append((record.noise, n_ul))
    ok = worst_residual <= 1e-15 and not product_violations
    _verdict(
        ok, 7,
        f"identity residual <= 1e-15 (worst {worst_residual:.3e}) and "
        "eps_ul*eps_dl negligible against eps_cl on every sweep point",
    )
    assert worst_residual <= 1e-15
    assert not product_violations


def test_criterion_8_monte_carlo(table1_cfg):
    start = time.perf_counter()
    cfg = dataclasses.replace(table1_cfg, N=6e-3)
    n_ul = 9.0
    eps_ul, eps_dl = float(_ul_eps(cfg, n_ul)), float(_dl_eps(cfg, n_ul))
    eps_cl = eps_ul + eps_dl
    assert 3e-3 <= eps_cl <= 3e-2  # operating point with eps_cl ~ 1e-2
    hits = sum(
        monte_carlo_validate(eps_ul, eps_dl, 1_000_000, seed).contains_analytic()
        for seed in range(10)
    )
    elapsed = time.perf_counter() - start
    ok = hits >= 9 and elapsed < 30.0
    _verdict(
        ok, 8,
        f"analytic r_loop inside the 99% CI for {hits}/10 seeded runs of 1e6 "
        f"trials at eps_cl={eps_cl:.3e} ({elapsed:.2f} s)",
    )
    assert hits >= 9
    assert elapsed < 30.0


def test_criterion_9_determinism(tmp_path):
    outputs = []
    for sub in ("first", "second"):
        out_dir = tmp_path / sub
        code = cli_main([
            "sweep", "table1", "--out-dir", str(out_dir),
            "--sweep-points", "12", "--grid-points", "40",
        ])
        assert code == 0
        outputs.append({
            name: (out_dir / name).read_bytes()
            for name in ("sweep_grid.csv", "sweep_summary.csv", "sweep_meta.json")
        })
    ok = outputs[0] == outputs[1]
    _verdict(ok, 9, "repeated sweep invocations are byte-identical")
    assert ok
