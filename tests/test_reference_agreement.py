"""The solver against the benchmark's independent restatement of the model.

The "solver = oracle" properties elsewhere compare ``solve`` with
``grid_search_oracle``, and both read ``fbl._channel``, ``fbl._code`` and
``fbl._log_eps_of``, so a slip in a shared kernel moves both sides.
``perfbench/reference.py`` restates the model without ``clfbl`` code: its
own algebraic form of the decoding argument, log Q from ``erfcx``, its own
domain, an exhaustive argmin with a tie tolerance and a finite-difference
slope sign.  These tests hold ``clfbl`` to it.
"""

import importlib.util
import json
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, given, settings, strategies as st

from clfbl import Infeasible, OptimizerCase, SystemConfig, UpperBound, feasible_domain, solve
from clfbl.derivatives import _dl_link, _ul_link
from clfbl.fbl import _log_eps_of

from conftest import TABLE1
from test_optimizer import _log_uniform

ROOT = Path(__file__).resolve().parents[1]


def _load_reference():
    spec = importlib.util.spec_from_file_location(
        "perfbench_reference", ROOT / "perfbench" / "reference.py"
    )
    module = importlib.util.module_from_spec(spec)
    # @dataclass looks its module up in sys.modules while the class is built
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


ref = _load_reference()


def _check_against_reference(cfg: SystemConfig) -> str:
    """Assert every agreement with the reference; return solve's case name."""
    p = ref.params_of(cfg)
    assert cfg.eta == p.eta
    assert cfg.gamma_dl == p.p_dl * p.g_dl / p.N  # the SNR of ref.x_dl
    dom, rdom = feasible_domain(cfg), ref.domain(p)
    assert dom.n_lo == rdom.n_lo
    assert dom.n_hi == pytest.approx(rdom.n_hi, rel=1e-12)
    assert (dom.binding_hi is UpperBound.SNR_BOUND) == rdom.snr_binds
    result = solve(cfg)
    assert isinstance(result, Infeasible) == (not rdom.has_integer)
    if isinstance(result, Infeasible):
        return "infeasible"
    assert ref.ties(p, result.n_ul, ref.argmin(p)), (result.n_ul, ref.argmin(p))

    n = np.array([float(result.n_ul)])
    want_ul, want_dl, _ = ref.log_eps(p, n)
    for got, want in ((_log_eps_of(_ul_link(cfg, n).x), want_ul),
                      (_log_eps_of(_dl_link(cfg, n).x), want_dl)):
        got, want = float(got[0]), float(want[0])
        assert abs(got - want) <= 1e-12 * max(1.0, abs(want)), (got, want)

    # the reported case against the reference's slope signs, where certain
    (s_lo, s_hi), (sure_lo, sure_hi) = ref.slope_sign(p, [dom.n_lo, dom.n_hi])
    if result.case is OptimizerCase.LEFT_BOUNDARY and sure_lo:
        assert s_lo >= 0
    if result.case is OptimizerCase.INTERIOR_ROOT and sure_lo:
        assert s_lo < 0
    if (result.case is OptimizerCase.RIGHT_BOUNDARY and result.n_ul_cont == dom.n_hi
            and sure_hi):
        assert s_hi <= 0
    return result.case.name


# the narrow probe generator of the roadmap, with f_s and M of table1 and
# n_max small enough that the reference's exhaustive argmin stays cheap
@settings(deadline=None, max_examples=500, derandomize=True)
@given(
    d=st.integers(8, 64),
    E=_log_uniform(1e-9, 1e-5),
    p_dl=_log_uniform(1e-9, 1e-2),
    N=_log_uniform(1e-7, 1e-1),
    n_max=st.integers(200, 5000),
)
def test_solver_agrees_with_reference(d, E, p_dl, N, n_max):
    event(_check_against_reference(SystemConfig(
        d=float(d), f_s=TABLE1["f_s"], M=TABLE1["M"], E=E, p_dl=p_dl, N=N,
        n_max=float(n_max),
    )))


def _exhaustive_golden_configs() -> list[SystemConfig]:
    entries = json.loads((ROOT / "tests" / "data" / "solve_golden.json").read_text())
    return [
        SystemConfig(**{k: None if v is None else float.fromhex(v)
                        for k, v in e["config"].items() if k != "type"})
        for e in entries if e["result"].get("case") == "EXHAUSTIVE"
    ]


@pytest.mark.parametrize("cfg", _exhaustive_golden_configs())
def test_exhaustive_golden_configs_agree_with_reference(cfg):
    _check_against_reference(cfg)


def test_weak_downlink_agrees_with_reference():
    # eps_cl is 1 to within 1e-100 at the right bound, where solve once
    # stopped; the reference's argmin is 40
    cfg = SystemConfig(d=22.0, f_s=TABLE1["f_s"], M=TABLE1["M"], E=2.63158e-6,
                       p_dl=3.19167e-9, N=6.88755e-5, n_max=2446.0)
    assert ref.argmin(ref.params_of(cfg)).n_ul == 40
    _check_against_reference(cfg)
