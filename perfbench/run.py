"""Benchmark of clfbl: one workload, one run, one JSON line of metrics.

    python3 perfbench/run.py --workload {sweep,solve-mix,validate} \
        --seed N --seconds S --trace {0,1}

Run it from the root of a checkout; it imports ``clfbl`` from ``src/``
there and fails (exit 2) where there is none.  A run:

1. makes the workload's inputs from the seed (``workloads``);
2. starts ``SETUP_PROBES + 1`` fresh interpreters one after another, each
   importing the library and running the first operation; the first is
   discarded (it may compile byte code), and ``setup_s`` is the median of
   the others, from launch to the end of that first operation;
3. starts one more interpreter that runs the workload for S seconds, one
   caller in a closed loop (``worker``);
4. checks the outputs against the reference model (``checks``) in this
   process, so the checks never count in the worker's time or memory;
5. prints the end-to-end metrics (``--trace 0``) or, from a run with the
   spans of ``tracing`` recorded, the per-layer metrics (``--trace 1``),
   as the last line of standard output.

The exit code is 0 when every check passed, 1 when some output was
wrong or the worker failed, 2 on a usage error.  Scratch files go under
``perfbench_out/`` in the checkout and are removed; a traced run leaves
its spans there as ``trace-<workload>.npz`` (the latest run per workload).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

import checks
import reference as ref
import workloads as wl

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench_out"
WORKER = HERE / "worker.py"

SETUP_PROBES = 5
PROBE_TIMEOUT_S = 30.0
#: the worker stops measuring at the latest this long after it started,
#: even short of its minimum sample count, so a run ends within 180 s
MAX_MEASURE_S = 100.0


class BenchError(RuntimeError):
    """The worker failed to run; there is nothing to report."""


def _launch(spec: dict, run_dir: Path, tag: str, timeout: float) -> dict:
    spec_path, result_path = run_dir / f"{tag}.spec.json", run_dir / f"{tag}.result.json"
    log_path = run_dir / f"{tag}.log"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    with open(log_path, "wb") as log:
        launch_ns = time.monotonic_ns()
        proc = subprocess.Popen(
            [sys.executable, str(WORKER), str(spec_path), str(result_path)],
            stdout=log, stderr=subprocess.STDOUT, env=env, cwd=ROOT,
        )
        try:
            code = proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise BenchError(f"{tag}: worker did not finish within {timeout:.0f} s")
    if code != 0:
        tail = log_path.read_text(encoding="utf-8", errors="replace")[-2000:]
        raise BenchError(f"{tag}: worker exited with {code}:\n{tail}")
    result = json.loads(result_path.read_text(encoding="utf-8"))
    result["launch_ns"] = launch_ns
    return result


def _spec(workload: str, inputs: dict, work_dir: Path, mode: str, **extra) -> dict:
    work_dir.mkdir(parents=True, exist_ok=True)
    return {"workload": workload, "inputs": inputs, "work_dir": str(work_dir),
            "src": str(SRC), "mode": mode, **extra}


# ---------------------------------------------------------------------------
# checks of the warm-up round's outputs
# ---------------------------------------------------------------------------

def check_outputs(workload: str, inputs: dict, timed: dict, work_dir: Path) -> list[list[str]]:
    """Problems per operation of one round (an empty list: that op is right)."""
    outputs = timed["outputs"]
    if workload == "sweep":
        files = [(work_dir / name).read_bytes() for name in wl.SWEEP_FILES]
        digest = hashlib.sha256(b"".join(files)).hexdigest()
        problems = [] if digest == outputs[0][1] else [
            "the files checked are not those of the warm-up sweep"]
        levels = ref.sweep_noise_levels(ref.TABLE1.p_dl, wl.SWEEP_POINTS)
        grid, summary, meta = (f.decode("utf-8") for f in files)
        grid_problems, signs = checks.check_sweep_grid(
            grid, ref.TABLE1, levels, wl.SWEEP_GRID_POINTS)
        problems += grid_problems
        problems += checks.check_sweep_summary(summary, ref.TABLE1, levels)
        problems += checks.check_sweep_meta(meta, ref.TABLE1, wl.SWEEP_POINTS,
                                            wl.SWEEP_GRID_POINTS)
        print(f"sweep: {signs} of {wl.SWEEP_POINTS * wl.SWEEP_GRID_POINTS} derivative "
              "signs well-conditioned and checked", file=sys.stderr)
        return [problems]
    if workload == "solve-mix":
        return [checks.check_solve(s, out) for s, out in zip(inputs["scenarios"], outputs)]
    return [checks.check_validation_output(level, code, text)
            for level, (code, text) in zip(inputs["levels"], outputs)]


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def tail(samples: list[float], percentile: float) -> float:
    """Nearest-rank percentile: at least (100 - p)% of samples lie above it."""
    ordered = sorted(samples)
    return ordered[max(1, math.ceil(len(ordered) * percentile / 100.0)) - 1]


def end_to_end(workload: str, probes: list[dict], timed: dict, passed: int) -> dict:
    ms = [s / 1e6 for s in timed["samples_ns"]]
    setup = [(p["first_op_end_ns"] - p["launch_ns"]) / 1e9 for p in probes]
    return {
        "op_median_ms": (statistics.median(ms), "ms"),
        "op_tail_ms": (tail(ms, wl.TAIL_PERCENTILE[workload]), "ms"),
        "goodput_per_s": (passed / (timed["timed_ns"] / 1e9), "1/s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (timed["peak_rss_kb"] / 1024.0, "MB"),
    }


def per_layer(probes: list[dict], timed: dict, trace_path: Path) -> dict:
    imports = {k: statistics.median(p["import_ns"][k] for p in probes) / 1e9
               for k in ("numpy", "scipy_special", "clfbl")}
    with np.load(trace_path) as tr:
        spans = Spans(tr)
    ops = spans.calls("op")
    per_op = lambda v: v / ops  # noqa: E731
    scan_points = spans.extra_sum("derivatives.convexity_scan")
    sign_calls = spans.calls("derivatives.d_eps_cl_sign")
    iterations = spans.extra("optimizer.solve")
    iterations = iterations[iterations >= 0]
    ms = "ms"
    return {
        "import.numpy_s": (imports["numpy"], "s"),
        "import.scipy_special_s": (imports["scipy_special"], "s"),
        "import.clfbl_self_s": (imports["clfbl"], "s"),
        "cli.main_self_ms": (per_op(spans.self_ms("cli.main")), ms),
        "experiments.sweep_noise_ms": (per_op(spans.total_ms("experiments.sweep_noise")), ms),
        "experiments.record_self_ms": (per_op(spans.self_ms("experiments.record_at_noise")), ms),
        "experiments.monte_carlo_ms": (
            per_op(spans.total_ms("experiments.monte_carlo_validate")), ms),
        "derivatives.convexity_scan_ms": (
            per_op(spans.total_ms("derivatives.convexity_scan")), ms),
        "derivatives.convexity_scan.calls": (
            per_op(spans.calls("derivatives.convexity_scan")), "count"),
        "derivatives.scan_us_per_point": (
            spans.total_ms("derivatives.convexity_scan") * 1e3 / scan_points
            if scan_points else 0.0, "us"),
        "derivatives.d_eps_cl_sign.calls": (per_op(sign_calls), "count"),
        "derivatives.d_eps_cl_sign_us": (
            spans.total_ms("derivatives.d_eps_cl_sign") * 1e3 / sign_calls
            if sign_calls else 0.0, "us"),
        "derivatives.d_eps_cl_dn.calls": (
            per_op(spans.calls("derivatives.d_eps_cl_dn")), "count"),
        "fbl.linkstate.calls": (per_op(spans.calls("fbl.linkstate")), "count"),
        "energy.feasible_domain.calls": (
            per_op(spans.calls("energy.feasible_domain")), "count"),
        "optimizer.solve_ms": (per_op(spans.total_ms("optimizer.solve")), ms),
        "optimizer.solve.calls": (per_op(spans.calls("optimizer.solve")), "count"),
        "optimizer.solve_self_ms": (per_op(spans.self_ms(
            "optimizer.solve", children=("optimizer.optimize_continuous",))), ms),
        "optimizer.bisection_iterations": (
            float(iterations.mean()) if iterations.size else 0.0, "count"),
        "optimizer.loop_log_error.calls": (
            per_op(spans.calls("derivatives.loop_log_error")), "count"),
        "optimizer.grid_search_oracle_ms": (
            per_op(spans.total_ms("optimizer.grid_search_oracle")), ms),
        "optimizer.oracle_points": (per_op(spans.extra_sum(
            "derivatives.cl_log_eps", parent="optimizer.grid_search_oracle")), "count"),
        "validation.derivative_fidelity_ms": (
            per_op(spans.total_ms("validation.derivative_fidelity")), ms),
        "validation.convexity_ms": (per_op(spans.total_ms("validation.convexity")), ms),
        "validation.optimizer_vs_oracle_ms": (
            per_op(spans.total_ms("validation.optimizer_vs_oracle")), ms),
        "validation.monte_carlo_ms": (per_op(spans.total_ms("validation.monte_carlo")), ms),
        "validation.approximation_gap_ms": (
            per_op(spans.total_ms("validation.approximation_gap")), ms),
        "traced.op_median_ms": (statistics.median(timed["samples_ns"]) / 1e6, ms),
    }


class Spans:
    """Span arrays of a traced run, with totals and self times by name."""

    def __init__(self, tr) -> None:
        self.names = [str(n) for n in tr["names"]]
        self.name = tr["name"]
        self.parent = tr["parent"]
        self.dur = (tr["end"] - tr["start"]).astype(float)
        self._extra = dict(zip(tr["extra_index"].tolist(), tr["extra_value"].tolist()))

    def _mask(self, name: str) -> np.ndarray:
        if name not in self.names:
            return np.zeros(len(self.name), dtype=bool)
        return self.name == self.names.index(name)

    def calls(self, name: str) -> int:
        return int(self._mask(name).sum())

    def total_ms(self, name: str) -> float:
        return float(self.dur[self._mask(name)].sum()) / 1e6

    def self_ms(self, name: str, children: tuple[str, ...] | None = None) -> float:
        """Total time of the spans minus the time of their direct children
        (all traced children, or only those with the given names)."""
        child = self.parent >= 0
        if children is not None:
            child &= np.isin(self.name, [self.names.index(c) for c in children
                                         if c in self.names])
        covered = np.bincount(self.parent[child], weights=self.dur[child],
                              minlength=len(self.dur))
        mask = self._mask(name)
        return float((self.dur[mask] - covered[mask]).sum()) / 1e6

    def extra(self, name: str, parent: str | None = None) -> np.ndarray:
        """Extras of the spans of a name (only those directly under a
        span of the parent name, where one is given)."""
        mask = self._mask(name)
        if parent is not None:
            mask &= (self.parent >= 0) & self._mask(parent)[self.parent]
        idx = np.flatnonzero(mask)
        return np.array([self._extra.get(int(i), -1) for i in idx], dtype=float)

    def extra_sum(self, name: str, parent: str | None = None) -> float:
        values = self.extra(name, parent)
        return float(values[values >= 0].sum())


# ---------------------------------------------------------------------------
# one run
# ---------------------------------------------------------------------------

def run(workload: str, seed: int, seconds: int, trace: bool) -> tuple[dict, int]:
    inputs = wl.make_inputs(workload, seed)
    OUT.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix=f"run-{workload}-", dir=OUT))
    try:
        probes = []
        for k in range(SETUP_PROBES + 1):
            spec = _spec(workload, inputs, run_dir / f"probe{k}", "probe")
            probe = _launch(spec, run_dir, f"probe{k}", PROBE_TIMEOUT_S)
            if probe["probe_failed"]:
                raise BenchError(f"probe{k}: the first operation failed")
            probes.append(probe)
        probes = probes[1:]
        trace_path = OUT / f"trace-{workload}.npz"
        work_dir = run_dir / "timed"
        spec = _spec(workload, inputs, work_dir, "timed", trace=trace, seconds=seconds,
                     max_seconds=max(seconds, MAX_MEASURE_S),
                     min_samples=wl.MIN_SAMPLES[workload], trace_path=str(trace_path))
        timed = _launch(spec, run_dir, "timed", spec["max_seconds"] + 60.0)
        problems = check_outputs(workload, inputs, timed, work_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    bad = [i for i, p in enumerate(problems) if p]
    for i in bad[:5]:
        print(f"{workload} input {i}: " + "; ".join(problems[i][:3]), file=sys.stderr)
    for err in timed["errors"]:
        print(f"{workload}: operation failed: {err}", file=sys.stderr)
    if timed["mismatched"]:
        print(f"{workload}: {timed['mismatched']} operations differ from the warm-up "
              "output for the same input", file=sys.stderr)
    attempted, failed = timed["attempted"], timed["failed"]
    rounds = attempted // len(problems)
    passed = max(0, attempted - failed - timed["mismatched"] - rounds * len(bad))
    correct = not bad and not timed["mismatched"]
    samples = len(timed["samples_ns"])
    if samples < wl.MIN_SAMPLES[workload]:
        print(f"{workload}: only {samples} timing samples, fewer than the "
              f"{wl.MIN_SAMPLES[workload]} op_tail_ms needs", file=sys.stderr)
    print(f"{workload}: seed {seed}, {attempted} operations in {rounds} rounds, "
          f"{samples} timing samples, tail = p{wl.TAIL_PERCENTILE[workload]:g}",
          file=sys.stderr)
    metrics = (per_layer(probes, timed, trace_path) if trace
               else end_to_end(workload, probes, timed, passed))
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, 0 if correct else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "clfbl" / "__init__.py").is_file():
        print(f"error: no clfbl package under {SRC}; run from the root of a "
              "checkout of the repository", file=sys.stderr)
        return 2
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    try:
        result, code = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return code


if __name__ == "__main__":
    sys.exit(main())
