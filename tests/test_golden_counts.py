"""Outcome counts pinned for a grid of Monte Carlo runs.

Each model (and each rod weight) runs at three master seeds and five trial
counts, including counts that are not multiples of the runner's chunk size,
at ``workers=1`` and ``workers=2``. Any change to the streams, the kernels'
uniform-to-outcome mapping or the chunking shows up as a changed count.

The counts in ``data/golden_counts.json`` were recorded before the RNG and
rod kernels were rewritten for speed. Re-record them only for a change that
is meant to alter counts:

    PYTHONPATH=src python tests/test_golden_counts.py
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from bornsim import streams
from bornsim.geometry import Frame, Ray, UnitVector, random_frame, random_unit_vector
from bornsim.stats import RunConfig, run_trials

GOLDEN = Path(__file__).parent / "data" / "golden_counts.json"

RUNS = [("sphere2d", "quantum"), ("ks", "quantum"), ("rod", "quantum"), ("rod", "uniform-variant")]
SEEDS = [0, 101, 2**64 - 1]
TRIALS = [1, 999, 1 << 18, (1 << 18) + 1, 3 * (1 << 18) + 7]
WORKERS = [1, 2]


def _measurement(golden: dict, model: str) -> Frame | UnitVector:
    if model == "rod":
        return Frame(tuple(Ray(UnitVector(*row)) for row in golden["frame"]))
    return UnitVector(*golden["direction"])


def _counts(golden: dict, model: str, weight: str, seed: int, trials: int, workers: int):
    cfg = RunConfig(model, UnitVector(*golden["state"]), _measurement(golden, model),
                    weight, trials=trials, master_seed=seed, workers=workers)
    return list(run_trials(cfg)[0].counts)


def _record() -> dict:
    gen = np.random.default_rng(20261018)
    golden = {
        "state": list(random_unit_vector(gen).array),
        "direction": list(random_unit_vector(gen).array),
        "frame": random_frame(gen).matrix.tolist(),
    }
    golden["runs"] = [
        {"model": model, "weight": weight, "seed": seed, "trials": n,
         "counts": {str(k): _counts(golden, model, weight, seed, n, k) for k in WORKERS}}
        for model, weight in RUNS for seed in SEEDS for n in TRIALS
    ]
    return golden


_GOLDEN = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {"runs": []}


@pytest.mark.parametrize(
    "run", _GOLDEN["runs"],
    ids=lambda r: f"{r['model']}-{r['weight']}-seed{r['seed']}-N{r['trials']}",
)
def test_counts_match_the_recorded_ones(run):
    for workers, counts in run["counts"].items():
        got = _counts(_GOLDEN, run["model"], run["weight"], run["seed"], run["trials"],
                      int(workers))
        assert got == counts, f"workers={workers}"


@pytest.mark.parametrize(
    "run", _GOLDEN["runs"],
    ids=lambda r: f"{r['model']}-{r['weight']}-seed{r['seed']}-N{r['trials']}",
)
def test_numpy_fallback_counts_match_the_recorded_ones(run, monkeypatch):
    # the path a process without a C compiler takes; the test above runs the
    # native fill wherever it loads
    monkeypatch.setattr(streams, "_native_fill", lambda: None)
    test_counts_match_the_recorded_ones(run)


def test_grid_is_complete():
    keys = {(r["model"], r["weight"], r["seed"], r["trials"]) for r in _GOLDEN["runs"]}
    assert keys == {(m, w, s, n) for m, w in RUNS for s in SEEDS for n in TRIALS}
    assert all(set(r["counts"]) == {str(k) for k in WORKERS} for r in _GOLDEN["runs"])


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(_record(), indent=1) + "\n")
