"""Bit-identity pins for the analytic layer: frames, canonical rays, rod tables.

Every float is stored as ``float.hex``, so a changed rounding step anywhere
in ``geometry`` (normalize, canonicalize, Gram-Schmidt, random frames,
direction cosines) or in the rod's stage tree (``rod._tree``) and the
``rod_analytic`` table built from it shows up as a mismatch in the last
bit. Error messages are pinned as text. Inputs are stored too, so each
section rebuilds its inputs without calling the code another section pins.

The values in ``data/golden_analytic.json`` were recorded before the scalar
geometry path was rewritten for speed. Re-record them only for a change that
is meant to alter them:

    PYTHONPATH=src python tests/test_golden_analytic.py
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np
import pytest

from bornsim.geometry import (
    DEGENERATE_EPS,
    OTHER_AXES,
    Frame,
    Ray,
    UnitVector,
    canonicalize,
    direction_cosines,
    identity_frame,
    orthonormal_frame,
    random_frame,
    random_unit_vector,
)
from bornsim.rod import WEIGHTS, _PATHS, _tree, rod_analytic

GOLDEN = Path(__file__).parent / "data" / "golden_analytic.json"


def _hex(values) -> list[str]:
    return [float(x).hex() for x in values]


def _floats(hexes) -> list[float]:
    return [float.fromhex(h) for h in hexes]


def _frame(hexes) -> Frame:
    rows = np.array(_floats(hexes)).reshape(3, 3).tolist()
    return Frame(tuple(tuple(row) for row in rows))


def _ray(hexes) -> Ray:
    return Ray(UnitVector(*_floats(hexes)))


def _outcome(fn, *args):
    """``fn(*args)`` as stored: its value, or the message of its ValueError."""
    try:
        return {"value": fn(*args)}
    except ValueError as exc:
        return {"error": f"{type(exc).__name__}: {exc}"}


# --- each section computes its stored result from its stored inputs ---


def _random_frames(seed: int) -> list[list[str]]:
    rng = np.random.default_rng(seed)
    return [_hex(random_frame(rng).matrix.ravel()) for _ in range(3)]


def _orthonormal(rows: list[str]) -> dict:
    v = np.array(_floats(rows)).reshape(3, 3)
    got = _outcome(orthonormal_frame, v[0], v[1], v[2])
    if "value" in got:
        got["value"] = _hex(got["value"].matrix.ravel())
    return got


def _canonical(case: dict) -> dict:
    v = _floats(case["input"])
    arg = UnitVector(*v) if case["unit_vector"] else v
    got = _outcome(canonicalize, arg)
    if "value" in got:
        rep = got["value"].rep
        got["value"] = _hex((rep.x, rep.y, rep.z))
    return got


def _rod(case: dict, frames: list[list[str]]) -> dict:
    dist, paths = rod_analytic(
        _ray(case["state"]), _frame(frames[case["frame"]]), WEIGHTS[case["weight"]]
    )
    return {
        "probs": _hex(dist.probs),
        "paths": [[first, second, float(v).hex()] for (first, second), v in zip(_PATHS, paths)],
    }


def _stages(case: dict, frames: list[list[str]]) -> dict:
    """The stage tree's raw floats: the stage-1 probabilities, and the
    stage-2 pair of each first break with nonzero weight; with the quantum
    weight, the direction cosines too."""
    ray, frame = _ray(case["state"]), _frame(frames[case["frame"]])
    s1, s2 = _tree(ray, frame, WEIGHTS[case["weight"]])[0]
    out = {}
    if case["weight"] == "quantum":  # the cosines do not depend on the weight
        out["cosines"] = _hex(direction_cosines(ray, frame))
    out["stages"] = {"s1": _hex(s1),
                     "s2": [[first, *_hex(pair)] for first, pair in enumerate(s2)
                            if s1[first] != 0.0]}
    return out


# --- recording ---


def _orthonormal_inputs() -> list[list[str]]:
    rng = np.random.default_rng(61)
    triples = []
    for k in range(-5, 6):  # all three rows at one scale, 1e-5 .. 1e5
        triples.append(rng.standard_normal((3, 3)) * 10.0**k)
    for _ in range(44):  # each row at its own scale
        triples.append(rng.standard_normal((3, 3)) * 10.0 ** rng.integers(-5, 6, (3, 1)))
    # components that leave the normal range when scaled
    triples.append(np.array([[1.0, 1e-310, -3e-320], [1e-300, 1.0, 2.0], [0.5, -1e-309, 1.5]]))
    triples.append(np.array([[1e300, 1e290, 0.0], [1.0, 3.0, 1e-310], [2.0, -1.0, 5e-324]]))
    g = rng.standard_normal((3, 3))
    zero = np.zeros(3)
    triples += [  # the two errors
        np.array([zero, g[1], g[2]]), np.array([g[0], zero, g[2]]),
        np.array([g[0], g[1], zero]), np.array([g[0] * 1e-13, g[1], g[2]]),
        np.array([g[0], 2.0 * g[0], g[2]]), np.array([g[0], g[1], g[0] + g[1]]),
        np.array([g[0], g[1], 3e5 * g[1]]),
    ]
    return [_hex(t.ravel()) for t in triples]


def _canonical_inputs() -> list[dict]:
    rng = np.random.default_rng(62)
    vecs = [
        # first component at or below 1e-12: the sign comes from the next one
        (1e-12, -0.6, 0.8), (-1e-12, 0.6, -0.8), (1e-13, -1.0, 0.0),
        (-1e-13, 0.0, -1.0), (0.0, -1e-12, -1.0), (-0.0, 0.0, -1.0),
        # just above 1e-12: the first component decides
        (1.0000000000001e-12, -0.6, 0.8), (-1.0000000000001e-12, 0.6, -0.8),
        # negative first component
        (-0.6, 0.8, 0.0), (-1.0, 0.0, 0.0), (-0.48, 0.6, 0.64), (-0.48, -0.6, -0.64),
        (0.0, 0.0, 1.0),
        # rejected: wrong shape, non-finite, norm off by 2e-6 or more
        (1.0, 0.0), (float("inf"), 0.0, 0.0), (float("nan"), 0.0, 0.0),
        (1.0 + 2e-6, 0.0, 0.0), (0.0, 0.0, 0.0), (1.0, 1.0, 0.0),
    ]
    for scale in (1.0 + 1e-9, 1.0 - 1e-9, 1.0 + 1e-15, 1.0 + 2e-6, 1.0 - 2e-6):
        for _ in range(3):  # norm off by 1e-9 (renormalized), 1e-15, 2e-6 (rejected)
            g = rng.standard_normal(3)
            vecs.append(tuple(g / np.linalg.norm(g) * scale))
    for _ in range(20):
        g = rng.standard_normal(3)
        g /= np.linalg.norm(g)
        vecs += [tuple(g), tuple(-g)]
    cases = [{"input": _hex(v), "unit_vector": False} for v in vecs]
    cases += [{"input": c["input"], "unit_vector": True}
              for c in cases if len(c["input"]) == 3][::3]
    return cases


def _rod_inputs() -> tuple[list[list[str]], list[dict]]:
    rng = np.random.default_rng(63)
    mats = [identity_frame().matrix, np.array([[0.0, 1, 0], [0, 0, 1], [1, 0, 0]])]
    mats += [random_frame(rng).matrix for _ in range(14)]
    frames = [_hex(m.ravel()) for m in mats]
    states: list[tuple[int, tuple]] = [
        (0, (0.7071067811865476, 0.5, 0.5)), (0, (0.6, 0.8, 0.0)),
        (0, (0.0, 0.6, 0.8)), (0, (0.8, 0.0, 0.6)), (1, (0.6, 0.0, 0.8)),
    ]
    for i, m in enumerate(mats):
        # each axis of its own frame: eigenstates (zero stage-1 weight) and,
        # where m @ axis rounds below 1, the degenerate-projection fallback
        states += [(i, tuple(m[k])) for k in range(3)]
    for i, m in enumerate(mats[:10]):
        for k in range(3):  # within 1e-13 of an axis: the fallback, nonzero weight
            states.append((i, tuple(canonicalize(m[k] + 1e-13 * m[(k + 1) % 3]).array)))
    for _ in range(70):
        states.append((int(rng.integers(len(mats))),
                       tuple(canonicalize(random_unit_vector(rng).array).array)))
    cases = [{"weight": w, "frame": i, "state": _hex(s)}
             for w in WEIGHTS for i, s in states]
    return frames, cases


def _record() -> dict:
    rod_frames, rod_cases = _rod_inputs()
    golden = {
        "random_frame": [{"seed": s, "frames": _random_frames(s)} for s in range(30)],
        "orthonormal_frame": [{"rows": t} for t in _orthonormal_inputs()],
        "canonicalize": _canonical_inputs(),
        "rod_frames": rod_frames,
        "rod_analytic": rod_cases,
    }
    for case in golden["orthonormal_frame"]:
        case.update(_orthonormal(case["rows"]))
    for case in golden["canonicalize"]:
        case.update(_canonical(case))
    for case in golden["rod_analytic"]:
        case.update(_rod(case, rod_frames))
        case.update(_stages(case, rod_frames))
    return golden


# --- tests ---

_GOLDEN = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {
    "random_frame": [], "orthonormal_frame": [], "canonicalize": [],
    "rod_frames": [], "rod_analytic": [],
}


def _strip(case: dict, *inputs: str) -> dict:
    return {k: v for k, v in case.items() if k not in inputs}


@pytest.mark.parametrize("case", _GOLDEN["random_frame"], ids=lambda c: f"seed{c['seed']}")
def test_random_frames_are_bit_identical(case):
    assert _random_frames(case["seed"]) == case["frames"]


def test_orthonormal_frames_are_bit_identical():
    for i, case in enumerate(_GOLDEN["orthonormal_frame"]):
        assert _orthonormal(case["rows"]) == _strip(case, "rows"), f"triple {i}"


def test_canonical_rays_are_bit_identical():
    for i, case in enumerate(_GOLDEN["canonicalize"]):
        assert _canonical(case) == _strip(case, "input", "unit_vector"), f"input {i}"


@pytest.mark.parametrize("weight", sorted(WEIGHTS))
def test_rod_tables_are_bit_identical(weight):
    frames = _GOLDEN["rod_frames"]
    cases = [c for c in _GOLDEN["rod_analytic"] if c["weight"] == weight]
    assert cases
    for i, case in enumerate(cases):
        got = _rod(case, frames)
        assert got == {k: case[k] for k in got}, f"{weight} case {i}"


def test_stages_and_cosines_are_bit_identical():
    frames = _GOLDEN["rod_frames"]
    cases = _GOLDEN["rod_analytic"]
    assert cases
    for i, case in enumerate(cases):
        got = _stages(case, frames)
        assert got == {k: case[k] for k in got}, f"{case['weight']} case {i}"


def test_every_branch_is_pinned():
    """The recorded inputs reach each error message and each rod_analytic branch."""
    messages = {c["error"] for c in _GOLDEN["orthonormal_frame"] if "error" in c}
    assert messages == {
        "ValueError: degenerate triple: zero vector",
        "ValueError: degenerate triple: vectors are not independent",
    }
    rejected = [c for c in _GOLDEN["canonicalize"] if "error" in c]
    assert any("deviates from 1" in c["error"] for c in rejected)
    assert any("expected a 3-vector" in c["error"] for c in rejected)
    scales = {max(map(abs, _floats(c["rows"][:3]))) for c in _GOLDEN["orthonormal_frame"]}
    assert min(scales) < 1e-4 and max(scales) > 1e4

    frames = _GOLDEN["rod_frames"]
    zero_weight = fallback = 0
    for case in _GOLDEN["rod_analytic"]:
        m, pv = _frame(frames[case["frame"]]).matrix, _ray(case["state"]).array
        for first, s1 in enumerate(_floats(case["stages"]["s1"])):
            if s1 == 0.0:
                zero_weight += 1
                continue
            # the ray within 1e-12 of axis `first`: no plane to project onto
            j, k = OTHER_AXES[first]
            fallback += math.hypot(float(pv @ m[j]), float(pv @ m[k])) < DEGENERATE_EPS
    assert zero_weight > 0 and fallback > 0


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    golden = _record()
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        fh.write("{\n")
        for n, (key, value) in enumerate(golden.items()):
            rows = ",\n".join(f"  {json.dumps(v)}" for v in value)
            comma = "," if n < len(golden) - 1 else ""
            fh.write(f" {json.dumps(key)}: [\n{rows}\n ]{comma}\n")
        fh.write("}\n")
