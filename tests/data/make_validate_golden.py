"""Write ``validate_golden.json``: the ``run_validation`` report on seeded configs.

The fixture pins every suite's ``(name, status, detail)`` exactly, so that
a rewrite of the validation suites or of the kernels they read can show
which report lines it changes.  It covers the ``table1`` noise sweep (50
levels), ``table1`` at its own noise level, and seeded random configs:
short frames that bring the decoding arguments into the well-conditioned
range, weak downlinks (``p_dl < N``) and empty domains included.

Regenerate only on purpose, from the code whose reports are to be
pinned:

    PYTHONPATH=src python tests/data/make_validate_golden.py

It prints the index and the changed suites of every case that differs
from the file it overwrites.
"""

from __future__ import annotations

import dataclasses
import json
import math
from pathlib import Path

import numpy as np

from clfbl import SystemConfig, load_scenario, noise_grid
from clfbl.validation import run_validation

from make_solve_golden import encode, write_cases

OUT = Path(__file__).with_name("validate_golden.json")

#: Monte Carlo trials per report; enough for a stable interval, few enough
#: to keep the fixture quick to check
TRIALS = 10_000


def _log_uniform(rng: np.random.Generator, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _table1() -> list[SystemConfig]:
    base = load_scenario("table1").to_config(require_noise=True)
    sweep = [dataclasses.replace(base, N=float(n)) for n in noise_grid(base.p_dl, 50)]
    return sweep + [base]


def _random_configs(count: int = 100) -> list[SystemConfig]:
    rng = np.random.default_rng(20261018)
    configs: list[SystemConfig] = []
    while len(configs) < count:
        d = float(rng.integers(8, 65))
        noise = _log_uniform(rng, 1e-6, 1e-1)
        try:
            configs.append(SystemConfig(
                d=d, f_s=250e3, M=float(rng.integers(1, 4)),
                E=_log_uniform(rng, 1e-8, 1e-5),
                p_dl=noise * _log_uniform(rng, 0.1, 1e3),
                N=noise,
                n_max=float(round(_log_uniform(rng, 2.0 * d, 2e4))),
            ))
        except ValueError:
            continue
    return configs


def report(cfg: SystemConfig) -> list[list[str]]:
    """``(name, status, detail)`` of every suite, as JSON lists."""
    return [[s.name, s.status, s.detail]
            for s in run_validation(cfg, trials=TRIALS, seed=0, grid_points=200)]


def _changed_suites(old: dict, new: dict) -> list[str]:
    """``config`` if the configs differ, then the name of each differing suite."""
    fields = ["config"] if old["config"] != new["config"] else []
    return fields + [b[0] for a, b in zip(old["report"], new["report"]) if a != b]


def main() -> None:
    cases = [
        {"config": encode(cfg), "report": report(cfg)}
        for cfg in _table1() + _random_configs()
    ]
    write_cases(OUT, cases, _changed_suites)


if __name__ == "__main__":
    main()
