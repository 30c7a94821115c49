"""Flat key-value scenario files and named presets.

A scenario file is one ``key = value`` assignment per line; ``#`` starts
a comment and blank lines are ignored.  There are no sections and no
unit suffixes: values are plain numbers in watts, joules, hertz, bits
and seconds.  Unknown keys are rejected by name, and every missing
required key is reported in a single error.

Model keys
    d, f_s, M, E, p_dl, N, n_max, T, g_ul, g_dl, B, eps_max
Run keys (optional)
    case_grid_points, sweep_points, sweep_grid_points, trials, seed, out_dir

``n_max`` may be omitted when ``T`` is given (then n_max = f_s*M*T);
``N`` is only required by commands that solve at a single noise level,
since sweeps span the noise range themselves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .fbl import SystemConfig


class ScenarioError(ValueError):
    """Malformed scenario file or missing/unknown keys."""


_MODEL_KEYS = ("d", "f_s", "M", "E", "p_dl", "N", "n_max", "T", "g_ul", "g_dl",
               "B", "eps_max")
_INT_RUN_KEYS = ("case_grid_points", "sweep_points", "sweep_grid_points",
                 "trials", "seed")
_STR_RUN_KEYS = ("out_dir",)
_ALL_KEYS = _MODEL_KEYS + _INT_RUN_KEYS + _STR_RUN_KEYS

#: always-required model keys; n_max/T and N have their own rules
_REQUIRED = ("E", "p_dl", "d", "f_s", "M")


@dataclass(frozen=True)
class RunParams:
    case_grid_points: int = 500
    sweep_points: int = 50
    sweep_grid_points: int = 200
    trials: int = 1_000_000
    seed: int = 0
    out_dir: str | None = None


@dataclass(frozen=True)
class Scenario:
    """Parsed scenario: raw model values plus run parameters."""

    values: dict[str, float]
    run: RunParams = field(default_factory=RunParams)

    def to_config(self, require_noise: bool = True, noise: float | None = None
                  ) -> SystemConfig:
        """Build a validated SystemConfig, optionally overriding the noise."""
        values = dict(self.values)
        if noise is not None:
            values["N"] = noise
        missing = [k for k in _REQUIRED if k not in values]
        if "n_max" not in values and "T" not in values:
            missing.append("n_max (or T)")
        if require_noise and "N" not in values:
            missing.append("N")
        if missing:
            raise ScenarioError(
                "missing required scenario keys: " + ", ".join(sorted(missing))
            )
        if "n_max" not in values:
            values["n_max"] = values["f_s"] * values["M"] * values["T"]
        if not require_noise and "N" not in values:
            # sweeps replace N per grid point; any positive placeholder works
            values["N"] = values["p_dl"]
        kwargs = {k: values[k] for k in _MODEL_KEYS if k in values}
        try:
            return SystemConfig(**kwargs)
        except ValueError as exc:
            raise ScenarioError(f"invalid scenario: {exc}") from exc


def parse_scenario(text: str, source: str = "<scenario>") -> Scenario:
    """Parse scenario text, rejecting unknown and duplicate keys."""
    values: dict[str, float] = {}
    run_kwargs: dict[str, object] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ScenarioError(
                f"{source}:{lineno}: expected 'key = value', got {raw.strip()!r}"
            )
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _ALL_KEYS:
            raise ScenarioError(f"{source}:{lineno}: unknown scenario key {key!r}")
        if key in values or key in run_kwargs:
            raise ScenarioError(f"{source}:{lineno}: duplicate scenario key {key!r}")
        if key in _STR_RUN_KEYS:
            run_kwargs[key] = value
        elif key in _INT_RUN_KEYS:
            try:
                run_kwargs[key] = int(value)
            except ValueError as exc:
                raise ScenarioError(
                    f"{source}:{lineno}: key {key!r} needs an integer, got {value!r}"
                ) from exc
        else:
            try:
                number = float(value)
            except ValueError as exc:
                raise ScenarioError(
                    f"{source}:{lineno}: key {key!r} needs a number, got {value!r}"
                ) from exc
            if not math.isfinite(number):
                raise ScenarioError(
                    f"{source}:{lineno}: key {key!r} needs a finite number, "
                    f"got {value!r}"
                )
            values[key] = number
    return Scenario(values=values, run=RunParams(**run_kwargs))


#: reference setup: BPSK at 250 kSPS, a 2500-bit frame (10 ms), 8-bit
#: payloads, unit gains, 10 mW downlink, 0.65 uJ uplink energy budget
#: (a 3.8 V / 3000 mAh battery lasts ~10 years at 50% uplink duty), and
#: the 3 mW case-study noise level.
TABLE1_VALUES: dict[str, float] = {
    "f_s": 250e3,
    "M": 1.0,
    "n_max": 2500.0,
    "g_ul": 1.0,
    "g_dl": 1.0,
    "p_dl": 10e-3,
    "d": 8.0,
    "E": 0.65e-6,
    "N": 3e-3,
}

PRESETS: dict[str, dict[str, float]] = {"table1": TABLE1_VALUES}


def load_scenario(spec: str) -> Scenario:
    """Load a scenario from a preset name or a file path."""
    if spec in PRESETS:
        return Scenario(values=dict(PRESETS[spec]))
    try:
        with open(spec, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ScenarioError(
            f"cannot read scenario {spec!r} ({exc}); known presets: "
            + ", ".join(sorted(PRESETS))
        ) from exc
    return parse_scenario(text, source=spec)
