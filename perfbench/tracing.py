"""Spans around the public functions of ``clfbl``, for the traced run.

One private function is traced too: ``derivatives._cl_log_eps``, the
array kernel of the exhaustive oracle, so that ``oracle_points`` counts
the blocklengths the oracle really evaluates.

``install`` replaces each traced function at every module binding of the
``clfbl`` package that holds it (``from .derivatives import
d_eps_cl_sign`` in ``optimizer`` makes a second binding), so calls made
inside the package are seen too.  Each call records a span: name, start,
end and the index of the enclosing span.  Spans stay in four flat arrays
until the run ends; ``Tracer.arrays`` hands them to the caller to write.

The traced run is separate from the timed runs: a wrapper costs about a
microsecond per call, which matters where calls are counted in tens of
thousands per operation.
"""

from __future__ import annotations

import sys
import time
from array import array

import numpy as np

#: traced name -> (module, attribute) where the function is defined
TRACED = {
    "cli.main": ("clfbl.cli", "main"),
    "experiments.sweep_noise": ("clfbl.experiments", "sweep_noise"),
    "experiments.record_at_noise": ("clfbl.experiments", "record_at_noise"),
    "experiments.monte_carlo_validate": ("clfbl.experiments", "monte_carlo_validate"),
    "derivatives.convexity_scan": ("clfbl.derivatives", "convexity_scan"),
    "derivatives.d_eps_cl_sign": ("clfbl.derivatives", "d_eps_cl_sign"),
    "derivatives.d_eps_cl_dn": ("clfbl.derivatives", "d_eps_cl_dn"),
    "derivatives.loop_log_error": ("clfbl.derivatives", "loop_log_error"),
    # the vectorised loop error that the exhaustive oracle evaluates
    "derivatives.cl_log_eps": ("clfbl.derivatives", "_cl_log_eps"),
    "energy.feasible_domain": ("clfbl.energy", "feasible_domain"),
    "optimizer.solve": ("clfbl.optimizer", "solve"),
    "optimizer.optimize_continuous": ("clfbl.optimizer", "optimize_continuous"),
    "optimizer.grid_search_oracle": ("clfbl.optimizer", "grid_search_oracle"),
    "validation.run_validation": ("clfbl.validation", "run_validation"),
    "validation.derivative_fidelity": ("clfbl.validation", "derivative_fidelity_suite"),
    "validation.convexity": ("clfbl.validation", "convexity_suite"),
    "validation.optimizer_vs_oracle": ("clfbl.validation", "optimizer_suite"),
    "validation.monte_carlo": ("clfbl.validation", "monte_carlo_suite"),
    "validation.approximation_gap": ("clfbl.validation", "approximation_gap_suite"),
}
#: classmethod traced on its class: name -> (module, class, attribute)
TRACED_CLASSMETHODS = {"fbl.linkstate": ("clfbl.fbl", "LinkState", "from_snr")}
#: the root span of one benchmark operation
OP = "op"


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self._open: list[int] = []
        #: per-span integers read from return values (scan points,
        #: bisection iterations), keyed by span index
        self.extra: dict[int, int] = {}

    def _id(self, name: str) -> int:
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    def span(self, name: str, fn, extra=None):
        """Call-through wrapper of fn that records one span per call."""
        nid = self._id(name)
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name.append(nid)
            self.parent.append(self._open[-1] if self._open else -1)
            self.start.append(clock())
            self.end.append(0)
            self._open.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                self._open.pop()
            if extra is not None:
                self.extra[idx] = extra(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def arrays(self) -> dict:
        idx = sorted(self.extra)
        return {
            "names": list(self.names),
            "name": self.name, "parent": self.parent,
            "start": self.start, "end": self.end,
            "extra_index": array("q", idx),
            "extra_value": array("q", (self.extra[i] for i in idx)),
        }


def _scan_points(args, kwargs, result) -> int:
    n_ul = getattr(result, "n_ul", None)
    return 0 if n_ul is None else len(n_ul)


def _iterations(args, kwargs, result) -> int:
    return getattr(result, "iterations", -1)


def _points(args, kwargs, result) -> int:
    return int(np.size(args[1] if len(args) > 1 else kwargs["n_ul"]))


EXTRAS = {
    "derivatives.convexity_scan": _scan_points,
    "optimizer.solve": _iterations,
    "derivatives.cl_log_eps": _points,
}


def install(tracer: Tracer) -> None:
    """Wrap every traced function at each of its bindings in ``clfbl``."""
    for name, (module, attr) in TRACED.items():
        original = getattr(sys.modules[module], attr)
        wrapped = tracer.span(name, original, EXTRAS.get(name))
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "clfbl" or mod_name.startswith("clfbl.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)
    for name, (module, cls_name, attr) in TRACED_CLASSMETHODS.items():
        cls = getattr(sys.modules[module], cls_name)
        original = vars(cls)[attr].__func__
        setattr(cls, attr, classmethod(tracer.span(name, original)))
