"""Each check passes the outputs of clfbl and rejects a corrupted copy."""

import contextlib
import io
from dataclasses import replace

import numpy as np
import pytest

import checks
import reference as ref
import workloads as wl

import clfbl.cli
from clfbl import SystemConfig, solve

LEVELS = ref.sweep_noise_levels(ref.TABLE1.p_dl, wl.SWEEP_POINTS)
TABLE1 = dict(d=8.0, f_s=250e3, M=1.0, E=0.65e-6, p_dl=10e-3, N=3e-3, n_max=2500.0)


@pytest.fixture(scope="module")
def sweep_files(tmp_path_factory):
    out = tmp_path_factory.mktemp("sweep")
    with contextlib.redirect_stderr(io.StringIO()):
        assert clfbl.cli.main(["sweep", "table1", "--out-dir", str(out)]) == 0
    return {name: (out / f"sweep_{name}").read_text(encoding="utf-8")
            for name in ("grid.csv", "summary.csv", "meta.json")}


def grid_problems(text):
    return checks.check_sweep_grid(text, ref.TABLE1, LEVELS, wl.SWEEP_GRID_POINTS)[0]


def summary_problems(text):
    return checks.check_sweep_summary(text, ref.TABLE1, LEVELS)


def edit_row(text, index, column, value):
    """Replace one field of data row `index` (0 = first row after the header)."""
    lines = text.splitlines(keepends=True)
    fields = lines[index + 1].rstrip("\n").split(",")
    fields[column] = value
    lines[index + 1] = ",".join(fields) + "\n"
    return "".join(lines)


def test_sweep_outputs_pass(sweep_files):
    problems, signs = checks.check_sweep_grid(
        sweep_files["grid.csv"], ref.TABLE1, LEVELS, wl.SWEEP_GRID_POINTS)
    assert problems == [] and signs > 9000
    assert summary_problems(sweep_files["summary.csv"]) == []
    assert checks.check_sweep_meta(sweep_files["meta.json"], ref.TABLE1, 50, 200) == []


def test_flipped_sign_is_rejected(sweep_files):
    row = 40 * wl.SWEEP_GRID_POINTS + 3  # level 40, a well-conditioned point
    sign = sweep_files["grid.csv"].splitlines()[row + 1].split(",")[6]
    flipped = edit_row(sweep_files["grid.csv"], row, 6, str(-int(sign)))
    assert any("sign_d_eps_cl_dn" in p for p in grid_problems(flipped))


def test_perturbed_eps_ul_is_rejected(sweep_files):
    row = 49 * wl.SWEEP_GRID_POINTS + 10  # eps_ul ~ 1e-2, far from underflow
    value = float(sweep_files["grid.csv"].splitlines()[row + 1].split(",")[2])
    assert value > 1e-6
    perturbed = edit_row(sweep_files["grid.csv"], row, 2, repr(value * (1 + 1e-6)))
    problems = grid_problems(perturbed)
    assert any("eps_ul" in p for p in problems)
    assert any("eps_cl != eps_ul + eps_dl" in p for p in problems)


def test_unordered_or_short_grid_is_rejected(sweep_files):
    lines = sweep_files["grid.csv"].splitlines(keepends=True)
    swapped = lines[:5] + [lines[6], lines[5]] + lines[7:]
    assert any("ordered" in p for p in grid_problems("".join(swapped)))
    assert any("rows" in p for p in grid_problems("".join(lines[:-1])))


def test_wrong_infeasible_row_is_rejected(sweep_files):
    text = sweep_files["summary.csv"]
    for column, value in ((4, "INFEASIBLE"), (5, "nan"), (6, "nan"), (7, "nan"),
                          (8, "nan"), (9, "false")):
        text = edit_row(text, 12, column, value)
    assert any("INFEASIBLE" in p for p in summary_problems(text))


def test_summary_off_by_one_is_rejected(sweep_files):
    n = int(sweep_files["summary.csv"].splitlines()[31].split(",")[5])
    text = edit_row(sweep_files["summary.csv"], 30, 5, str(n + 1))
    assert any("reference argmin" in p for p in summary_problems(text))


# ---------------------------------------------------------------------------
# solve-mix
# ---------------------------------------------------------------------------

def exported(scenario):
    import worker

    ops, outcome, export = worker._solve_round({"scenarios": [scenario]}, None)
    return export(outcome(ops[0]()))


def test_solve_mix_draws_reach_every_case():
    scenarios = wl.solve_mix_scenarios(1)
    assert scenarios == wl.solve_mix_scenarios(1) != wl.solve_mix_scenarios(2)
    assert len(scenarios) == wl.SOLVE_ROUND
    assert all(s["p_dl"] > s["N"] for s in scenarios)
    kinds = {getattr(solve(SystemConfig(**s)), "case", None) for s in scenarios}
    assert {getattr(k, "name", "INFEASIBLE") for k in kinds} == {
        "INFEASIBLE", "LEFT_BOUNDARY", "RIGHT_BOUNDARY", "INTERIOR_ROOT"}


@pytest.mark.parametrize("noise", [3e-3, 1e-3])
def test_interior_root_off_by_one_is_rejected(noise):
    scenario = dict(TABLE1, N=noise)
    out = exported(scenario)
    assert out["case"] == "INTERIOR_ROOT"
    assert checks.check_solve(scenario, out) == []
    for step in (-1, 1):
        n = out["n_ul"] + step
        moved = dict(out, n_ul=n, n_dl=scenario["n_max"] - n,
                     p_ul=scenario["E"] * scenario["M"] * scenario["f_s"] / n)
        assert any("reference argmin" in p for p in checks.check_solve(scenario, moved))


def test_solve_wrong_infeasible_is_rejected():
    scenario = dict(TABLE1)
    assert any("Infeasible" in p for p in checks.check_solve(
        scenario, {"infeasible": "empty blocklength domain"}))
    empty = dict(TABLE1, E=1e-9)
    assert exported(empty) == {"infeasible": "empty blocklength domain"}
    assert checks.check_solve(empty, exported(empty)) == []
    assert any("no integer" in p for p in checks.check_solve(empty, exported(scenario)))


def test_solve_perturbed_fields_are_rejected():
    scenario = dict(TABLE1)
    out = exported(scenario)
    assert any("eps_ul" in p for p in checks.check_solve(
        scenario, dict(out, eps_ul=out["eps_ul"] * (1 + 1e-6),
                       eps_cl=out["eps_ul"] * (1 + 1e-6) + out["eps_dl"])))
    assert any("E =" in p for p in checks.check_solve(
        scenario, dict(out, p_ul=out["p_ul"] * (1 + 1e-9))))
    assert any("r_loop" in p for p in checks.check_solve(
        scenario, dict(out, r_loop=out["r_loop"] - 1e-12)))


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------

def validate_cli(noise, tmp_path):
    import worker

    inputs = {"levels": [noise], "trials": 10_000, "mc_seed": 0, "grid_points": 200}
    ops, _, _ = worker._validate_round(inputs, str(tmp_path))
    return ops[0]()


@pytest.mark.parametrize("index", [0, 40, 49])
def test_validation_outputs_pass(index, tmp_path):
    noise = float(LEVELS[index])
    code, text = validate_cli(noise, tmp_path)
    assert code == 0 and len(text.splitlines()) == len(checks.SUITES)
    assert checks.check_validation_output(noise, code, text) == []


def test_failed_suite_and_wrong_n_ul_are_rejected(tmp_path):
    noise = float(LEVELS[40])
    code, text = validate_cli(noise, tmp_path)
    failed = text.replace("PASS monte_carlo", "FAIL monte_carlo")
    problems = checks.check_validation_output(noise, code, failed)
    assert any("monte_carlo: fail" in p for p in problems)
    assert any("exit code 0" in p for p in problems)
    best = ref.argmin(replace(ref.TABLE1, N=noise)).n_ul
    moved = text.replace(f"n_ul={best}", f"n_ul={best + 1}")
    assert any("reference argmin" in p for p in checks.check_validation_output(noise, code, moved))
    fewer = text.replace("over 101 checks", "over 100 checks")
    assert any("|x| <= 8" in p for p in checks.check_validation_output(noise, code, fewer))


def test_eps_check_needs_underflow_below_double_range():
    assert checks.check_eps("e", [0.0], [-800.0]) == []
    assert checks.check_eps("e", [1e-5], [-800.0]) != []
    assert checks.check_eps("e", [np.exp(-20.0)], [-20.0]) == []
