"""Command-line front end.

Subcommands::

    clfbl solve      SCENARIO [--noise W] [--allow-high-noise]
    clfbl case-study SCENARIO [--out-dir DIR] [--grid-points K] [--noise W]
    clfbl sweep      SCENARIO [--out-dir DIR] [--sweep-points K] [--grid-points K]
    clfbl validate   SCENARIO [--trials K] [--seed S] [--grid-points K]

SCENARIO is a flat key-value file (see :mod:`clfbl.scenario`) or the
name of a built-in preset such as ``table1``.

Exit status contract (stable):
    0  success; for ``solve``, the allocation meets the error-rate caps
    2  usage error: bad arguments, malformed scenario, unwritable output
    3  infeasible: empty domain, no integer blocklength, or a violated
       error-rate cap
    4  validation failure (``validate`` only)

``case-study`` and ``sweep`` write two CSV files plus a small JSON
metadata file.  Grid CSV header::

    noise_w,n_ul,eps_ul,eps_dl,eps_cl,d_eps_cl_dn,sign_d_eps_cl_dn,d2_eps_cl_dn2

Summary CSV header::

    noise_w,n_lo,n_hi,binding_hi,case,n_ul_opt,p_ul_w,eps_cl_opt,r_loop_opt,feasible

Floats are serialized with 17 significant digits (lossless for doubles)
and rows are ordered by (noise_w, n_ul); reruns with the same scenario
are byte-identical.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from pathlib import Path

from .energy import Infeasible
from .experiments import (
    GENERATOR_ID,
    SweepRecord,
    config_digest,
    grid_columns,
    run_case_study,
    sweep_noise,
)
from .optimizer import SolveResult, solve
from .scenario import Scenario, ScenarioError, load_scenario
from .validation import run_validation

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INFEASIBLE = 3
EXIT_VALIDATION = 4

GRID_HEADER = (
    "noise_w,n_ul,eps_ul,eps_dl,eps_cl,d_eps_cl_dn,sign_d_eps_cl_dn,d2_eps_cl_dn2"
)
SUMMARY_HEADER = (
    "noise_w,n_lo,n_hi,binding_hi,case,n_ul_opt,p_ul_w,eps_cl_opt,r_loop_opt,feasible"
)


def _fmt(value: float) -> str:
    return f"{value:.17g}"


#: one grid CSV row; "%.17g" formats exactly as f"{v:.17g}" does
_GRID_ROW = "%s,%.17g,%.17g,%.17g,%.17g,%.17g,%d,%.17g\n"


def _grid_rows(record: SweepRecord) -> list[str]:
    if isinstance(record.scan, Infeasible):
        return []
    noise = _fmt(record.noise)
    return [_GRID_ROW % (noise, *row) for row in zip(*grid_columns(record.scan))]


def _summary_row(record: SweepRecord) -> str:
    dom = record.domain
    common = (
        _fmt(record.noise),
        _fmt(dom.n_lo),
        _fmt(dom.n_hi),
        dom.binding_hi.name,
    )
    result = record.result
    if isinstance(result, Infeasible):
        tail = ("INFEASIBLE", "nan", "nan", "nan", "nan", "false")
    else:
        tail = (
            result.case.name,
            str(result.n_ul),
            _fmt(result.p_ul),
            _fmt(result.eps_cl),
            _fmt(result.r_loop),
            "true" if result.feasible else "false",
        )
    return ",".join(common + tail)


def _write_outputs(
    records: list[SweepRecord], out_dir: Path, prefix: str, meta: dict
) -> tuple[Path, Path]:
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        grid_path = out_dir / f"{prefix}_grid.csv"
        summary_path = out_dir / f"{prefix}_summary.csv"
        with open(grid_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(GRID_HEADER + "\n")
            for record in records:
                fh.writelines(_grid_rows(record))
        with open(summary_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(SUMMARY_HEADER + "\n")
            for record in records:
                fh.write(_summary_row(record) + "\n")
        with open(out_dir / f"{prefix}_meta.json", "w", encoding="utf-8") as fh:
            json.dump(meta, fh, indent=2, sort_keys=True)
            fh.write("\n")
    except OSError as exc:
        raise _CliError(f"cannot write outputs under {out_dir}: {exc}") from exc
    return grid_path, summary_path


class _CliError(Exception):
    """Usage-class error carrying a message for stderr."""


def _result_json(result: SolveResult) -> dict:
    payload = asdict(result)
    payload["case"] = result.case.name
    payload["notes"] = list(result.notes)
    return payload


def _load(args: argparse.Namespace) -> Scenario:
    return load_scenario(args.scenario)


def _cmd_solve(args: argparse.Namespace) -> int:
    scenario = _load(args)
    cfg = scenario.to_config(require_noise=True, noise=args.noise)
    if cfg.N >= cfg.p_dl and not args.allow_high_noise:
        raise _CliError(
            f"noise power N={cfg.N!r} is not below the downlink power "
            f"p_dl={cfg.p_dl!r}; pass --allow-high-noise to solve anyway"
        )
    result = solve(cfg)
    if isinstance(result, Infeasible):
        print(json.dumps({"infeasible": True, "reason": result.reason}, indent=2))
        print(f"infeasible: {result.reason}", file=sys.stderr)
        return EXIT_INFEASIBLE
    print(json.dumps(_result_json(result), indent=2))
    print(
        f"n_ul={result.n_ul} n_dl={result.n_dl:g} p_ul={result.p_ul:.6g} W "
        f"eps_cl={result.eps_cl:.6g} r_loop={result.r_loop:.9g} "
        f"case={result.case.name} feasible={result.feasible}",
        file=sys.stderr,
    )
    return EXIT_OK if result.feasible else EXIT_INFEASIBLE


def _meta(scenario: Scenario, cfg, extra: dict) -> dict:
    return {
        "config": {k: v for k, v in sorted(scenario.values.items())},
        "config_digest": config_digest(cfg),
        "generator": GENERATOR_ID,
        **extra,
    }


def _cmd_case_study(args: argparse.Namespace) -> int:
    scenario = _load(args)
    cfg = scenario.to_config(require_noise=True, noise=args.noise)
    grid_points = args.grid_points or scenario.run.case_grid_points
    record = run_case_study(cfg, grid_points)
    out_dir = Path(args.out_dir or scenario.run.out_dir or ".")
    meta = _meta(scenario, cfg, {"grid_points": grid_points, "noise_w": cfg.N})
    grid_path, summary_path = _write_outputs([record], out_dir, "case_study", meta)
    print(f"wrote {grid_path} and {summary_path}", file=sys.stderr)
    if isinstance(record.result, Infeasible):
        print(f"infeasible: {record.result.reason}", file=sys.stderr)
        return EXIT_INFEASIBLE
    return EXIT_OK


def _cmd_sweep(args: argparse.Namespace) -> int:
    scenario = _load(args)
    cfg = scenario.to_config(require_noise=False)
    sweep_points = args.sweep_points or scenario.run.sweep_points
    grid_points = args.grid_points or scenario.run.sweep_grid_points
    records = sweep_noise(cfg, sweep_points, grid_points)
    out_dir = Path(args.out_dir or scenario.run.out_dir or ".")
    meta = _meta(
        scenario,
        cfg,
        {
            "sweep_points": sweep_points,
            "grid_points": grid_points,
            "noise_grid": "logarithmic over [p_dl*1e-4, p_dl*(1-1e-3)]",
        },
    )
    grid_path, summary_path = _write_outputs(records, out_dir, "sweep", meta)
    print(f"wrote {grid_path} and {summary_path}", file=sys.stderr)
    return EXIT_OK


def _cmd_validate(args: argparse.Namespace) -> int:
    scenario = _load(args)
    cfg = scenario.to_config(require_noise=True)
    trials = args.trials or scenario.run.trials
    seed = args.seed if args.seed is not None else scenario.run.seed
    grid_points = args.grid_points or scenario.run.sweep_grid_points
    suites = run_validation(cfg, trials=trials, seed=seed, grid_points=grid_points)
    failed = False
    for suite in suites:
        label = {"pass": "PASS", "fail": "FAIL", "skipped": "SKIP"}[suite.status]
        print(f"{label} {suite.name}: {suite.detail}")
        failed = failed or suite.failed
    return EXIT_VALIDATION if failed else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="clfbl",
        description=(
            "Closed-loop finite-blocklength reliability: solve, sweep and "
            "validate blocklength allocations under time and energy budgets."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "scenario",
            help="scenario file path or preset name (e.g. 'table1')",
        )

    p_solve = sub.add_parser("solve", help="solve one scenario, print JSON")
    add_common(p_solve)
    p_solve.add_argument("--noise", type=float, help="override noise power N, watts")
    p_solve.add_argument(
        "--allow-high-noise",
        action="store_true",
        help="accept N >= p_dl (outside the usual sweep range)",
    )
    p_solve.set_defaults(func=_cmd_solve)

    p_case = sub.add_parser("case-study", help="dense single-noise grid to CSV")
    add_common(p_case)
    p_case.add_argument("--noise", type=float, help="override noise power N, watts")
    p_case.add_argument("--out-dir", help="output directory (default: .)")
    p_case.add_argument("--grid-points", type=int, help="grid resolution")
    p_case.set_defaults(func=_cmd_case_study)

    p_sweep = sub.add_parser("sweep", help="noise sweep over (0, p_dl) to CSV")
    add_common(p_sweep)
    p_sweep.add_argument("--out-dir", help="output directory (default: .)")
    p_sweep.add_argument("--sweep-points", type=int, help="number of noise levels")
    p_sweep.add_argument("--grid-points", type=int, help="grid resolution per noise")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_val = sub.add_parser("validate", help="run oracle self-check suites")
    add_common(p_val)
    p_val.add_argument("--trials", type=int, help="Monte Carlo trials")
    p_val.add_argument("--seed", type=int, help="Monte Carlo seed")
    p_val.add_argument("--grid-points", type=int, help="scan grid resolution")
    p_val.set_defaults(func=_cmd_validate)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ScenarioError, _CliError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
