"""Checks of each workload's outputs against the reference model.

Every check returns a list of problems (empty when the output is right);
a problem names the row or scenario and what is wrong with it.  The
expected values come from ``reference`` or from a property the method
must have, never from a stored copy of an earlier output.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re
from dataclasses import replace

import numpy as np

import reference as ref

CASES = ("LEFT_BOUNDARY", "RIGHT_BOUNDARY", "INTERIOR_ROOT", "EXHAUSTIVE")
GRID_HEADER = ["noise_w", "n_ul", "eps_ul", "eps_dl", "eps_cl", "d_eps_cl_dn",
               "sign_d_eps_cl_dn", "d2_eps_cl_dn2"]
SUMMARY_HEADER = ["noise_w", "n_lo", "n_hi", "binding_hi", "case", "n_ul_opt",
                  "p_ul_w", "eps_cl_opt", "r_loop_opt", "feasible"]
SUITES = ("derivative_fidelity", "convexity_scan", "optimizer_vs_oracle",
          "monte_carlo", "approximation_gap")

#: relative tolerance on quantities computed from the same inputs by a
#: few arithmetic operations (domain bounds, powers, noise levels)
ARITH_RTOL = 1e-12
#: relative tolerance on error rates: the two models round differently,
#: and Q amplifies a relative error in x by about x^2
EPS_RTOL = 1e-9
#: error rates are compared only where both models represent them as
#: normal doubles; below LOG_UNDERFLOW the output must have underflowed
LOG_NORMAL = math.log(1e-300)
LOG_UNDERFLOW = math.log(1e-310)
#: the derivative suite of ``clfbl validate`` checks points with |x| <= 8
WELL_CONDITIONED_X = 8.0


def _close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b))


def check_eps(label: str, got, log_expected) -> list[str]:
    """Error rates against exp(reference log), where neither underflows."""
    got = np.asarray(got, dtype=float)
    log_expected = np.asarray(log_expected, dtype=float)
    problems = []
    normal = log_expected > LOG_NORMAL
    want = np.exp(np.where(normal, log_expected, 0.0))
    bad = normal & ~(np.abs(got - want) <= EPS_RTOL * want)
    bad |= (log_expected < LOG_UNDERFLOW) & ~(got <= 1e-300)
    for i in np.flatnonzero(bad)[:3]:
        problems.append(f"{label}[{i}] = {got[i]!r}, reference exp({log_expected[i]!r})")
    return problems


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def _rows(text: str, header: list[str], label: str) -> tuple[list[dict], list[str]]:
    reader = csv.DictReader(io.StringIO(text))
    if reader.fieldnames != header:
        return [], [f"{label}: header {reader.fieldnames} is not {header}"]
    return list(reader), []


def check_sweep_summary(text: str, params: ref.Params, levels: np.ndarray) -> list[str]:
    rows, problems = _rows(text, SUMMARY_HEADER, "summary")
    if len(rows) != len(levels):
        problems.append(f"summary: {len(rows)} rows, expected {len(levels)}")
        return problems
    for k, (row, level) in enumerate(zip(rows, levels)):
        where = f"summary row {k}"
        noise = float(row["noise_w"])
        if not _close(noise, level, ARITH_RTOL):
            problems.append(f"{where}: noise {noise!r}, sweep grid {level!r}")
            continue
        p = replace(params, N=noise)
        dom = ref.domain(p)
        binding = "SNR_BOUND" if dom.snr_binds else "BLOCKLENGTH_BOUND"
        if not (_close(float(row["n_lo"]), dom.n_lo, ARITH_RTOL)
                and _close(float(row["n_hi"]), dom.n_hi, ARITH_RTOL)
                and row["binding_hi"] == binding):
            problems.append(f"{where}: domain {row['n_lo']}..{row['n_hi']} "
                            f"{row['binding_hi']}, reference {dom}")
        best = ref.argmin(p)
        if best is None:
            if row["case"] != "INFEASIBLE":
                problems.append(f"{where}: case {row['case']}, but the domain holds no integer")
            continue
        if row["case"] not in CASES:
            problems.append(f"{where}: case {row['case']}, but the domain holds "
                            f"{dom.int_lo}..{dom.int_hi}")
            continue
        n = int(row["n_ul_opt"])
        if n != best.n_ul:
            problems.append(f"{where}: n_ul_opt {n}, reference argmin {best.n_ul}")
            continue
        if not _close(float(row["p_ul_w"]), p.E * p.M * p.f_s / n, ARITH_RTOL):
            problems.append(f"{where}: p_ul_w {row['p_ul_w']} does not spend E over n_ul={n}")
        lu, ld, lc = (float(v[0]) for v in ref.log_eps(p, [n]))
        problems += check_eps(f"{where} eps_cl_opt", [float(row["eps_cl_opt"])], [lc])
        r_loop = -math.expm1(lu) * -math.expm1(ld)
        if abs(float(row["r_loop_opt"]) - r_loop) > 1e-12:
            problems.append(f"{where}: r_loop_opt {row['r_loop_opt']}, reference {r_loop!r}")
        caps = max(lu, ld) - math.log(p.eps_max)
        if abs(caps) > 1e-6 and (row["feasible"] == "true") != (caps <= 0.0):
            problems.append(f"{where}: feasible={row['feasible']} but the larger "
                            f"error rate is exp({max(lu, ld)!r})")
    return problems


def check_sweep_grid(text: str, params: ref.Params, levels: np.ndarray,
                     grid_points: int) -> tuple[list[str], int]:
    """Problems of the grid CSV, and how many derivative signs were checked."""
    rows, problems = _rows(text, GRID_HEADER, "grid")
    if problems:
        return problems, 0
    if len(rows) != len(levels) * grid_points:
        return [f"grid: {len(rows)} rows, expected {len(levels) * grid_points}"], 0
    cols = {k: np.array([float(r[k]) for r in rows]) for k in GRID_HEADER}
    noise, n_ul = cols["noise_w"], cols["n_ul"]
    order = np.lexsort((n_ul, noise))
    if not (np.array_equal(order, np.arange(len(rows)))
            and np.all((np.diff(noise) > 0) | (np.diff(n_ul) > 0))):
        problems.append("grid: rows are not strictly ordered by (noise_w, n_ul)")
    if not np.array_equal(cols["eps_cl"], cols["eps_ul"] + cols["eps_dl"]):
        i = int(np.flatnonzero(cols["eps_cl"] != cols["eps_ul"] + cols["eps_dl"])[0])
        problems.append(f"grid row {i}: eps_cl != eps_ul + eps_dl")
    signs_checked = 0
    for k, level in enumerate(levels):
        rows_k = slice(k * grid_points, (k + 1) * grid_points)
        where = f"grid level {k}"
        if not np.all(noise[rows_k] == noise[rows_k][0]) or not _close(
                noise[rows_k][0], level, ARITH_RTOL):
            problems.append(f"{where}: noise column does not hold level {level!r}")
            continue
        p = replace(params, N=float(noise[rows_k][0]))
        dom = ref.domain(p)
        n = n_ul[rows_k]
        if not np.allclose(n, np.linspace(dom.n_lo, dom.n_hi, grid_points),
                           rtol=ARITH_RTOL, atol=0.0):
            problems.append(f"{where}: n_ul is not the uniform grid over "
                            f"[{dom.n_lo!r}, {dom.n_hi!r}]")
            continue
        lu, ld, _ = ref.log_eps(p, n)
        problems += check_eps(f"{where} eps_ul", cols["eps_ul"][rows_k], lu)
        problems += check_eps(f"{where} eps_dl", cols["eps_dl"][rows_k], ld)
        sign, certain = ref.slope_sign(p, n)
        got = cols["sign_d_eps_cl_dn"][rows_k]
        signs_checked += int(certain.sum())
        for i in np.flatnonzero(certain & (got != sign))[:3]:
            problems.append(f"{where} n_ul={n[i]!r}: sign_d_eps_cl_dn {int(got[i])}, "
                            f"reference {int(sign[i])}")
    return problems, signs_checked


def check_sweep_meta(text: str, params: ref.Params, points: int, grid_points: int) -> list[str]:
    meta = json.loads(text)
    problems = []
    if meta.get("sweep_points") != points or meta.get("grid_points") != grid_points:
        problems.append(f"meta: sweep_points/grid_points {meta.get('sweep_points')}/"
                        f"{meta.get('grid_points')}, expected {points}/{grid_points}")
    config = meta.get("config", {})
    for key in ("d", "f_s", "M", "E", "p_dl", "n_max"):
        if config.get(key) != getattr(params, key):
            problems.append(f"meta: config {key}={config.get(key)!r}, "
                            f"expected {getattr(params, key)!r}")
    return problems


# ---------------------------------------------------------------------------
# solve-mix
# ---------------------------------------------------------------------------

def check_solve(scenario: dict, out: dict) -> list[str]:
    """One ``solve`` result against the exhaustive reference argmin."""
    p = ref.Params(**scenario)
    dom = ref.domain(p)
    if "infeasible" in out:
        if dom.has_integer:
            return [f"Infeasible ({out['infeasible']}), but the domain holds "
                    f"{dom.int_lo}..{dom.int_hi}"]
        return []
    if not dom.has_integer:
        return [f"allocation n_ul={out['n_ul']}, but the domain "
                f"[{dom.n_lo!r}, {dom.n_hi!r}] holds no integer"]
    problems = []
    n = out["n_ul"]
    if n != int(n) or not dom.n_lo <= n <= dom.n_hi:
        return [f"n_ul={n} outside [{dom.n_lo!r}, {dom.n_hi!r}]"]
    best = ref.argmin(p)
    if not ref.ties(p, n, best):
        problems.append(f"n_ul={n} ({out['case']}), reference argmin {best.n_ul}: "
                        f"log eps_cl {float(ref.log_eps_cl(p, [n])[0])!r} > "
                        f"{best.log_eps_cl!r}")
    if out["case"] not in CASES:
        problems.append(f"case {out['case']}")
    if out["n_dl"] != p.n_max - n:
        problems.append(f"n_dl={out['n_dl']!r}, expected n_max - n_ul = {p.n_max - n!r}")
    if not _close(out["p_ul"] * n / (p.M * p.f_s), p.E, ARITH_RTOL):
        problems.append(f"p_ul*n_ul/(M*f_s) = {out['p_ul'] * n / (p.M * p.f_s)!r}, E = {p.E!r}")
    eu, ed = out["eps_ul"], out["eps_dl"]
    if out["eps_cl"] != eu + ed:
        problems.append(f"eps_cl {out['eps_cl']!r} != eps_ul + eps_dl")
    if not _close(out["r_loop"], (1.0 - eu) * (1.0 - ed), 4e-16):
        problems.append(f"r_loop {out['r_loop']!r} != (1-eps_ul)(1-eps_dl)")
    lu, ld, _ = ref.log_eps(p, [n])
    problems += check_eps("eps_ul", [eu], lu) + check_eps("eps_dl", [ed], ld)
    return problems


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------

def well_conditioned_points(p: ref.Params, grid_points: int = 101) -> int | None:
    """How many (link, point) pairs have |x| <= 8 on the derivative suite's
    grid, or None where some |x| is too close to 8 to call."""
    dom = ref.domain(p)
    n = np.linspace(dom.n_lo, dom.n_hi, grid_points)
    x = np.abs(np.concatenate([ref.x_ul(p, n), ref.x_dl(p, n)]))
    if np.any(np.abs(x - WELL_CONDITIONED_X) < 1e-9 * WELL_CONDITIONED_X):
        return None
    return int(np.count_nonzero(x <= WELL_CONDITIONED_X))


def parse_validate_output(text: str) -> list[tuple[str, str, str]]:
    """(name, status, detail) per line of `clfbl validate` output."""
    status = {"PASS": "pass", "FAIL": "fail", "SKIP": "skipped"}
    suites = []
    for line in text.splitlines():
        label, _, rest = line.partition(" ")
        name, _, detail = rest.partition(": ")
        suites.append((name, status.get(label, label), detail))
    return suites


def check_validation_output(noise: float, code: int, text: str) -> list[str]:
    """`clfbl validate` on table1 with N = noise: exit code and report."""
    suites = parse_validate_output(text)
    problems = check_validation(noise, suites)
    failed = any(status == "fail" for _, status, _ in suites)
    if code != (4 if failed else 0):
        problems.append(f"exit code {code} with {'a' if failed else 'no'} failed suite")
    return problems


def check_validation(noise: float, suites: list) -> list[str]:
    """One ``run_validation`` result at table1 with N = noise."""
    p = replace(ref.TABLE1, N=noise)
    by_name = {name: (status, detail) for name, status, detail in suites}
    if tuple(by_name) != SUITES:
        return [f"suites {list(by_name)}, expected {list(SUITES)}"]
    problems = [f"{name}: {status} ({detail})" for name, (status, detail)
                in by_name.items() if status not in ("pass", "skipped")]
    best = ref.argmin(p)
    status, detail = by_name["optimizer_vs_oracle"]
    chosen = re.search(r"n_ul=(\d+)", detail)
    if best is None:
        if status != "skipped":
            problems.append(f"optimizer_vs_oracle {status}, but the domain holds no integer")
    elif chosen is None or int(chosen.group(1)) != best.n_ul:
        problems.append(f"optimizer_vs_oracle: {detail!r}, reference argmin {best.n_ul}")
    expected = well_conditioned_points(p)
    status, detail = by_name["derivative_fidelity"]
    checked = re.search(r"over (\d+) checks", detail)
    if expected == 0 and status != "skipped":
        problems.append(f"derivative_fidelity {status}, but no point has |x| <= 8")
    elif expected and (checked is None or int(checked.group(1)) != expected):
        problems.append(f"derivative_fidelity: {detail!r}, reference {expected} "
                        "points with |x| <= 8")
    return problems
