"""Write ``sweep_golden.json``: sha256 of every ``sweep``/``case-study`` file.

The fixture pins the bytes the two CSV-writing commands produce, so that
a rewrite of the scan or of the sweep loop can show that its outputs are
exactly what they were.  Each case runs ``clfbl.cli.main`` into its own
directory and records the exit code and the digest of each output file.
It covers the ``table1`` preset and ``table1`` with ``E = 6.5e-8``: at
that budget 10 of the 50 sweep levels have an empty domain, the rest are
mixed, and the case study at the preset noise is infeasible.

Regenerate only on purpose, from the code whose outputs are to be
pinned:

    PYTHONPATH=src python tests/data/make_sweep_golden.py
"""

from __future__ import annotations

import hashlib
import json
import tempfile
from pathlib import Path

from clfbl.cli import main as cli_main
from clfbl.scenario import TABLE1_VALUES

OUT = Path(__file__).with_name("sweep_golden.json")

#: scenario name -> model values written to a scenario file
SCENARIOS = {
    "table1": TABLE1_VALUES,
    "table1_E6.5e-8": {**TABLE1_VALUES, "E": 6.5e-8},
}
#: command -> the prefix of the three files it writes
COMMANDS = {"sweep": "sweep", "case-study": "case_study"}


def run_case(scenario: str, command: str, root: Path) -> dict:
    """Run one command on one scenario under root; exit code and digests."""
    scenario_file = root / f"{scenario}.txt"
    scenario_file.write_text(
        "".join(f"{k} = {v!r}\n" for k, v in SCENARIOS[scenario].items()),
        encoding="utf-8",
    )
    out_dir = root / f"{scenario}-{command}"
    code = cli_main([command, str(scenario_file), "--out-dir", str(out_dir)])
    prefix = COMMANDS[command]
    names = [f"{prefix}_grid.csv", f"{prefix}_summary.csv", f"{prefix}_meta.json"]
    return {
        "exit": code,
        "sha256": {
            name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
            for name in names
        },
    }


def all_cases(root: Path) -> dict:
    return {
        f"{command} {scenario}": run_case(scenario, command, root)
        for scenario in SCENARIOS
        for command in COMMANDS
    }


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        cases = all_cases(Path(tmp))
    OUT.write_text(json.dumps(cases, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(cases)} cases to {OUT}")


if __name__ == "__main__":
    main()
