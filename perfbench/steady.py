"""Steadiness check: two sets of runs of the same code, compared.

    python3 perfbench/steady.py

Runs ``run.py`` ten times per workload of ``BENCHMARK.json`` in each of
two sets, each run with its own seed (set k uses seeds 1000*k + 1 ...),
the workloads taking turns within a set so that drift of the machine
reaches all of them alike.  The second set runs after the first.  For
each workload and end-to-end metric it prints, per set, the median and
quartiles of the run values and their spread (interquartile range over
median), and the relative change of the second set's median against the
first's.  A metric holds when both spreads and the size of the change
stay within its bound in ``BENCHMARK.json``.  All run results go to
``perfbench_out/steady.json``.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / "perfbench_out"
RUNS = 10
SETS = 2


def _run(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(results: dict, bench: dict) -> tuple[list[str], bool]:
    """Report lines and whether every metric holds its bound."""
    lines = ["| workload | metric | bound | set | median | q1 | q3 | spread | change |",
             "| --- | --- | --- | --- | --- | --- | --- | --- | --- |"]
    ok = True
    for workload, sets in results.items():
        shares = {r["failed"] / r["attempted"] for s in sets for r in s}
        if len(shares) != 1:
            ok = False
            lines.append(f"| {workload} | failed share differs between runs: {sorted(shares)} |")
        for m in bench["end_to_end"]:
            name, bound = m["name"], m["bound"]
            medians = []
            for k, runs in enumerate(sets):
                values = [r["metrics"][name]["value"] for r in runs]
                q1, med, q3 = statistics.quantiles(values, n=4)
                spread = (q3 - q1) / med
                medians.append(med)
                change = (med - medians[0]) / medians[0]
                held = spread <= bound and abs(change) <= bound
                ok &= held
                lines.append(
                    f"| {workload} | {name} | {bound:g} | {k} | {med:.6g} | {q1:.6g} | "
                    f"{q3:.6g} | {spread:.4f} | {change:+.4f}{'' if held else ' FAIL'} |")
    return lines, ok


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = [w["name"] for w in bench["workloads"]]
    OUT.mkdir(exist_ok=True)
    results: dict[str, list[list[dict]]] = {w: [] for w in workloads}
    for k in range(SETS):
        for w in workloads:
            results[w].append([])
        for r in range(RUNS):
            for w in workloads:
                seed = 1000 * k + r + 1
                results[w][k].append(_run(w, seed, bench["run_seconds"]))
                print(f"set {k} run {r} {w} seed {seed}: " + ", ".join(
                    f"{n}={v['value']:.6g}" for n, v in results[w][k][-1]["metrics"].items()),
                    file=sys.stderr, flush=True)
                (OUT / "steady.json").write_text(json.dumps(results, indent=1), encoding="utf-8")
    lines, ok = summarize(results, bench)
    print("\n".join(lines))
    print("all metrics within their bounds" if ok else "some metric exceeds its bound")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
