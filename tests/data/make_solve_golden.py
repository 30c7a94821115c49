"""Write ``solve_golden.json``: every field of ``solve`` on seeded configs.

The fixture pins the solver's output bit for bit (floats as
``float.hex``), so that a rewrite of the solver's internals can show it
returns exactly what it returned before.  It covers the ``table1`` noise
sweep (50 levels), a Latin-hypercube mix with ``p_dl > N`` and a set of
weak-downlink configs (``p_dl < N``), infeasible ones included.

Regenerate only on purpose, from the code whose answers are to be
pinned:

    PYTHONPATH=src python tests/data/make_solve_golden.py

It prints the index and the changed fields of every case that differs
from the file it overwrites.
"""

from __future__ import annotations

import dataclasses
import enum
import json
import math
from pathlib import Path

import numpy as np

from clfbl import SystemConfig, load_scenario, noise_grid, solve

OUT = Path(__file__).with_name("solve_golden.json")


def encode(value):
    """JSON form of a solve output; floats as exact hex strings."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, enum.Enum):
        return value.name
    if dataclasses.is_dataclass(value):
        fields = dataclasses.fields(value)
        return {"type": type(value).__name__,
                **{f.name: encode(getattr(value, f.name)) for f in fields}}
    if isinstance(value, tuple):
        return [encode(v) for v in value]
    if value is None or type(value) in (bool, int, str):
        return value
    raise TypeError(f"cannot encode {value!r} of type {type(value).__name__}")


def _changed_fields(old: dict, new: dict) -> list[str]:
    """``config`` if the configs differ, then each differing result field."""
    fields = ["config"] if old["config"] != new["config"] else []
    before, after = old["result"], new["result"]
    return fields + [k for k in {**before, **after} if before.get(k) != after.get(k)]


def write_cases(out: Path, cases: list[dict], changed_fields=_changed_fields) -> None:
    """Overwrite ``out`` with one JSON case per line, first printing the
    index and ``changed_fields`` of each case that differs from its old
    content."""
    old = json.loads(out.read_text()) if out.exists() else []
    for i, (before, after) in enumerate(zip(old, cases)):
        if before != after:
            print(f"case {i}: {', '.join(changed_fields(before, after))}")
    if len(old) != len(cases):
        print(f"case count {len(old)} -> {len(cases)}")
    lines = ",\n".join(json.dumps(case) for case in cases)
    out.write_text(f"[\n{lines}\n]\n", encoding="utf-8")
    print(f"wrote {len(cases)} cases to {out}")


def _log_between(u: float, lo: float, hi: float) -> float:
    return math.exp(math.log(lo) + u * (math.log(hi) - math.log(lo)))


def _table1_sweep() -> list[SystemConfig]:
    base = load_scenario("table1").to_config()
    return [dataclasses.replace(base, N=float(n)) for n in noise_grid(base.p_dl, 50)]


def _latin_hypercube_mix(rows: int = 230) -> list[SystemConfig]:
    rng = np.random.default_rng(20261018)
    strata = np.stack([rng.permutation(rows) for _ in range(6)], axis=1)
    configs = []
    for u in (strata + rng.random((rows, 6))) / rows:
        n_max = float(round(_log_between(u[0], 100.0, 1e5)))
        p_dl = _log_between(u[1], 1e-3, 1e-1)
        noise = p_dl / _log_between(u[2], 1.001, 1e4)
        d = float(round(_log_between(u[3], 8.0, 0.48 * n_max)))
        m = float(1 + int(3 * u[5]))
        energy = _log_between(u[4], 1e-2, 30.0) * n_max * noise / (m * 250e3)
        configs.append(SystemConfig(d=d, f_s=250e3, M=m, E=energy, p_dl=p_dl,
                                    N=noise, n_max=n_max))
    return configs


def _weak_downlink(count: int = 20) -> list[SystemConfig]:
    rng = np.random.default_rng(5)
    configs = [
        # the downlink is below its capacity threshold: the EXHAUSTIVE case
        SystemConfig(d=24.0, f_s=250e3, M=1.0, E=7e-6, p_dl=7e-8, N=1.6e-4,
                     n_max=560.0),
        # the continuous optimum's neighbours miss the oracle's answer
        SystemConfig(d=36.0, f_s=250e3, M=1.0, E=8.218550732019156e-06,
                     p_dl=1.4141822916480302e-09, N=2.6750145212957025e-05,
                     n_max=2518.0),
    ]
    while len(configs) < count:
        p_dl = 10.0 ** rng.uniform(-9, -3)
        try:
            configs.append(SystemConfig(
                d=float(rng.integers(8, 65)), f_s=250e3, M=1.0,
                E=10.0 ** rng.uniform(-8, -5), p_dl=p_dl,
                N=p_dl * 10.0 ** rng.uniform(0.1, 4),
                n_max=float(rng.integers(500, 5001)),
            ))
        except ValueError:
            continue
    return configs


def main() -> None:
    cases = [
        {"config": encode(cfg), "result": encode(solve(cfg))}
        for cfg in _table1_sweep() + _latin_hypercube_mix() + _weak_downlink()
    ]
    write_cases(OUT, cases)


if __name__ == "__main__":
    main()
