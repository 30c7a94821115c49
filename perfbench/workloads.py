"""Inputs of the three workloads, made from the benchmark seed.

Only plain data leaves this module (it is written to JSON for the worker
process), so the program under test never sees the generator.

* ``sweep``: ``clfbl sweep table1`` (50 noise levels x 200 grid points).
  Its input is the preset, the same for every seed.
* ``solve-mix``: one ``solve`` per scenario.  A round is a Latin
  hypercube sample of ``SOLVE_ROUND`` scenarios over five dimensionless
  draws, so every round spans the whole input space and its mean cost
  varies little between seeds.
* ``validate``: one ``clfbl validate`` (in process) per noise level of
  ``table1``, over the fixed levels in ``VALIDATE_LEVELS``; the seed sets
  their order.

A timing sample is one whole round, reported per operation.  The
operations of a round differ in cost by input (a validate level with no
well-conditioned point skips a suite; an infeasible scenario returns at
once), so single operations fall into clusters and their median would
sit between clusters; round means do not.
"""

from __future__ import annotations

import math

import numpy as np

import reference as ref

WORKLOADS = ("sweep", "solve-mix", "validate")

SWEEP_POINTS = 50
SWEEP_GRID_POINTS = 200
#: what one sweep writes to its output directory
SWEEP_FILES = ("sweep_grid.csv", "sweep_summary.csv", "sweep_meta.json")

SOLVE_ROUND = 256

#: indices into the 50-level sweep grid of table1; levels 0-30 have no
#: well-conditioned point for the derivative suite (it skips), 35-49 do
VALIDATE_LEVELS = (0, 5, 10, 15, 20, 25, 30, 35, 40, 44, 47, 49)
VALIDATE_TRIALS = 1_000_000
#: the Monte Carlo seed ``clfbl validate`` uses unless told otherwise
VALIDATE_MC_SEED = 0
VALIDATE_GRID_POINTS = 200

#: ``op_tail_ms`` is this percentile of the timing samples; each workload
#: runs until it has ``MIN_SAMPLES`` samples, even past its time budget,
#: so that at least ten samples lie beyond it
TAIL_PERCENTILE = {"sweep": 80.0, "solve-mix": 96.0, "validate": 85.0}
MIN_SAMPLES = {name: math.ceil(1000.0 / (100.0 - p)) for name, p in TAIL_PERCENTILE.items()}

#: ranges of the solve-mix draws
N_MAX_BASE = 2500.0       # the table1 frame, bits
N_MAX_DECADES = 2.5       # frames up to 2500 * 10**2.5 ~ 7.9e5 bits
P_DL_RANGE = (1e-3, 1e-1)  # downlink power, W
#: p_dl/N over the sweep's range [1/(1-1e-3), 1e4], so p_dl > N always
SNR_DL_RANGE = (1.0 / (1.0 - 1e-3), 1e4)
D_MIN = 8.0               # payload bits; at most D_FRAME_SHARE * n_max
D_FRAME_SHARE = 0.48
#: eta/n_max, which fixes E; below ~max(9, d)/n_max the domain is empty,
#: and above ~2 with a payload near a quarter of the frame the left
#: boundary is optimal
ETA_SHARE_RANGE = (1e-3, 10**1.5)


def _latin_hypercube(rng: np.random.Generator, rows: int, dims: int) -> np.ndarray:
    strata = np.stack([rng.permutation(rows) for _ in range(dims)], axis=1)
    return (strata + rng.random((rows, dims))) / rows


def _log_between(u: float, lo: float, hi: float) -> float:
    return math.exp(math.log(lo) + u * (math.log(hi) - math.log(lo)))


def solve_scenario(u: np.ndarray) -> dict:
    """One solve-mix scenario from five numbers in [0, 1)."""
    n_max = float(round(N_MAX_BASE * 10.0 ** (N_MAX_DECADES * u[0])))
    p_dl = _log_between(u[1], *P_DL_RANGE)
    noise = p_dl / _log_between(u[2], *SNR_DL_RANGE)
    d = float(round(_log_between(u[3], D_MIN, D_FRAME_SHARE * n_max)))
    f_s, m = 250e3, 1.0
    energy = _log_between(u[4], *ETA_SHARE_RANGE) * n_max * noise / (m * f_s)
    return {"d": d, "f_s": f_s, "M": m, "E": energy, "p_dl": p_dl, "N": noise,
            "n_max": n_max}


def _unambiguous(s: dict) -> bool:
    """False where eta lies within rounding of an integer, so that the
    integer domain would hinge on the last bit of E*M*f_s*g_ul/N."""
    eta = ref.Params(**s).eta
    return abs(eta - round(eta)) > 1e-9 * max(1.0, eta)


def solve_mix_scenarios(seed: int) -> list[dict]:
    rng = np.random.default_rng([seed, 1])
    out: list[dict] = []
    for u in _latin_hypercube(rng, SOLVE_ROUND, 5):
        s = solve_scenario(u)
        while not _unambiguous(s):
            s = solve_scenario(rng.random(5))
        out.append(s)
    return out


def validate_levels(seed: int) -> list[float]:
    grid = ref.sweep_noise_levels(ref.TABLE1.p_dl, SWEEP_POINTS)
    order = np.random.default_rng([seed, 2]).permutation(len(VALIDATE_LEVELS))
    return [float(grid[VALIDATE_LEVELS[i]]) for i in order]


def make_inputs(workload: str, seed: int) -> dict:
    """The worker's inputs for one run, as plain JSON-ready data."""
    if workload == "sweep":
        return {"argv": ["sweep", "table1"], "files": SWEEP_FILES}
    if workload == "solve-mix":
        return {"scenarios": solve_mix_scenarios(seed)}
    if workload == "validate":
        return {"levels": validate_levels(seed), "trials": VALIDATE_TRIALS,
                "mc_seed": VALIDATE_MC_SEED, "grid_points": VALIDATE_GRID_POINTS}
    raise ValueError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")
