"""Run one workload in this fresh interpreter and write what it measured.

    python3 perfbench/worker.py SPEC.json RESULT.json

``run.py`` starts this file; it is not meant to be run by hand.  The
spec says which workload, its inputs, and the mode:

* ``probe``: import numpy, scipy.special and clfbl, build the inputs, run
  the first operation and stop.  The result holds the monotonic clock at
  the end of that operation (the parent took it at launch, and
  CLOCK_MONOTONIC is shared by all processes) and the three import times.
* ``timed``: after one untimed warm-up round, run whole rounds for the
  given seconds, one caller in a closed loop, and time each round.  Each operation's output is compared, outside the timed
  region, with the warm-up round's output for the same input; the parent
  checks those warm-up outputs against the reference model.  With
  ``trace`` set, the spans of ``tracing`` are recorded from the first
  timed round on and written to ``trace_path``.

Nothing here checks correctness against the model, so the process's
peak memory is that of the library calls alone.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time
from array import array

t_import = time.monotonic_ns()
import numpy  # noqa: E402

t_numpy = time.monotonic_ns()
import scipy.special  # noqa: E402,F401

t_scipy = time.monotonic_ns()
import clfbl  # noqa: E402
import clfbl.cli  # noqa: E402

t_clfbl = time.monotonic_ns()


def _sweep_round(inputs: dict, work_dir: str):
    argv = inputs["argv"] + ["--out-dir", work_dir]

    def op():
        return clfbl.cli.main(argv)

    def outcome(rc):
        digest = hashlib.sha256()
        for name in inputs["files"]:
            with open(os.path.join(work_dir, name), "rb") as fh:
                digest.update(fh.read())
        return (rc, digest.hexdigest())

    return [op], outcome, list


def _solve_round(inputs: dict, work_dir: str):
    configs = [clfbl.SystemConfig(**s) for s in inputs["scenarios"]]
    ops = [lambda cfg=cfg: clfbl.solve(cfg) for cfg in configs]

    def export(result):
        if isinstance(result, clfbl.Infeasible):
            return {"infeasible": result.reason}
        return {
            "n_ul": result.n_ul, "n_dl": result.n_dl, "n_ul_cont": result.n_ul_cont,
            "p_ul": result.p_ul, "eps_ul": result.eps_ul, "eps_dl": result.eps_dl,
            "eps_cl": result.eps_cl, "r_loop": result.r_loop,
            "case": result.case.name, "feasible": result.feasible,
            "iterations": result.iterations,
        }

    return ops, (lambda result: result), export


def _validate_round(inputs: dict, work_dir: str):
    # `clfbl validate` has no --noise option: one scenario file per level
    table1 = clfbl.load_scenario("table1").values
    options = ["--trials", str(inputs["trials"]), "--seed", str(inputs["mc_seed"]),
               "--grid-points", str(inputs["grid_points"])]
    ops = []
    for k, level in enumerate(inputs["levels"]):
        path = os.path.join(work_dir, f"level{k}.scenario")
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(f"{key} = {value!r}\n" for key, value in {**table1, "N": level}.items())
        ops.append(lambda argv=["validate", path, *options]: _captured(argv))
    return ops, (lambda value: value), list


def _captured(argv: list[str]) -> tuple[int, str]:
    """Exit code and standard output of one in-process CLI call."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = clfbl.cli.main(argv)
    return code, out.getvalue()


ROUNDS = {"sweep": _sweep_round, "solve-mix": _solve_round, "validate": _validate_round}


def _failed(workload: str, value) -> bool:
    """A CLI call that ends in a usage error or a crash did not complete;
    exit code 4 is a validation verdict, which the parent checks."""
    ok_codes = {"sweep": (0,), "validate": (0, 4)}.get(workload)
    return ok_codes is not None and value[0] not in ok_codes


def main(spec_path: str, result_path: str) -> int:
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    src = os.path.realpath(spec["src"])
    if not os.path.realpath(clfbl.__file__).startswith(src + os.sep):
        raise SystemExit(f"clfbl imported from {clfbl.__file__}, not from {src}")
    workload = spec["workload"]
    ops, outcome, export = ROUNDS[workload](spec["inputs"], spec["work_dir"])
    result = {
        "import_ns": {"numpy": t_numpy - t_import, "scipy_special": t_scipy - t_numpy,
                      "clfbl": t_clfbl - t_scipy},
    }
    first = ops[0]()
    result["first_op_end_ns"] = time.monotonic_ns()
    if spec["mode"] == "probe":
        result["probe_failed"] = _failed(workload, outcome(first))
        _write(result_path, result)
        return 0

    expected = [outcome(first)] + [outcome(op()) for op in ops[1:]]
    tracer = None
    if spec["trace"]:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
        ops = [tracer.span(tracing.OP, op) for op in ops]

    clock = time.perf_counter_ns
    samples: list[float] = []
    attempted = failed = mismatched = timed_ns = 0
    errors: list[str] = []
    start = time.monotonic()
    deadline = start + spec["seconds"]
    hard_deadline = start + spec["max_seconds"]
    while True:
        values = []
        t0 = clock()
        for op in ops:
            try:
                values.append(op())
            except Exception as exc:  # an operation that raises has failed
                values.append(exc)
        elapsed = clock() - t0
        timed_ns += elapsed
        samples.append(elapsed / len(ops))
        attempted += len(ops)
        for i, value in enumerate(values):
            if isinstance(value, Exception):
                failed += 1
                errors.append(f"{type(value).__name__}: {value}")
                continue
            got = outcome(value)
            if _failed(workload, got):
                failed += 1
            elif got != expected[i]:
                mismatched += 1
        now = time.monotonic()
        if now >= hard_deadline or (now >= deadline and len(samples) >= spec["min_samples"]):
            break

    result.update({
        "samples_ns": samples,
        "timed_ns": timed_ns,
        "attempted": attempted,
        "failed": failed,
        "mismatched": mismatched,
        "errors": errors[:5],
        "outputs": [export(v) for v in expected],
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    })
    if tracer is not None:
        numpy.savez_compressed(spec["trace_path"], **{
            k: numpy.frombuffer(v, dtype=v.typecode) if isinstance(v, array) else v
            for k, v in tracer.arrays().items()
        })
    _write(result_path, result)
    return 0


def _write(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
