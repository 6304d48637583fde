"""Workloads of the bornsim benchmark: operation pools, per-seed lists, output checks.

Every workload is a fixed repeating pattern of operation *kinds*. Each kind
has a pool of ``POOL`` instances (Monte Carlo seed, frame), defined by rule
below, and ``golden.json`` holds the exit code and CSV SHA-256 of every pool
instance, recorded from the unchanged program by ``record_golden.py``. A
benchmark seed picks, for each slot of the pattern, one instance of that
slot's kind, so the same seed always gives the same operation list, every
verdict is known in advance, and the amount of work per pass does not
depend on the seed.

An operation missing from ``golden.json`` (a pool grown without
re-recording) is still checked: exit code, CSV schema, and counts that sum
to ``--trials``.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
GOLDEN_PATH = BENCH_DIR / "golden.json"

STATE = "0.7071067811865476,0.5,0.5"
POOL = 32

# Expected exit codes: 0 for a passing verdict or no verdict, 3 for the
# uniform-variant rod tested against the Born rule.
EXIT_OK = 0
EXIT_REJECTED = 3

SIMULATE_HEADER = (
    "model,weight,state_x,state_y,state_z,frame_id,"
    "outcome,count,frequency,expected,ci_low,ci_high"
)
SWEEP_HEADER = "angle,analytic,empirical,ci_low,ci_high"
FRAMECHECK_HEADER = "frame_index,sum,deviation"
OUTCOMES = {"rod": 3, "sphere2d": 2, "ks": 2}


@dataclass(frozen=True)
class Op:
    """One CLI operation. ``argv`` excludes ``--out``, which the runner adds."""

    kind: str
    argv: tuple[str, ...]
    expect_rc: int
    trials: int  # Monte Carlo trials the operation runs (0 for framecheck)
    points: int  # sweep points
    frames: int  # frames checked by framecheck

    @property
    def key(self) -> str:
        return " ".join(self.argv)

    def flag(self, name: str) -> str:
        return self.argv[self.argv.index(name) + 1]


def _frame(i: int) -> str:
    return "identity" if i == 0 else f"random:{i}"


def _simulate(kind, model, weight, expect, trials, workers, i, rc) -> Op:
    argv = (
        "simulate", "--model", model, *(("--weight", weight) if weight else ()),
        "--state", STATE, "--frame", _frame(i), "--trials", str(trials),
        "--seed", str(101 + i), "--workers", str(workers), "--expect", expect,
    )
    return Op(kind, argv, rc, trials, 0, 0)


def _sweep(kind, model, steps, trials, i) -> Op:
    # Identity frame only: with a random frame the angle-0 endpoint lands
    # within rounding of the measurement axis and the CLI exits 2 (a
    # negative probability for ks, a degenerate projection for rod).
    argv = (
        "sweep", "--model", model, "--state", STATE, "--frame", "identity",
        "--steps", str(steps), "--trials", str(trials), "--seed", str(201 + i),
    )
    return Op(kind, argv, EXIT_OK, steps * trials, steps, 0)


def _framecheck(kind, measure_args, frames, i) -> Op:
    argv = (
        "framecheck", *measure_args, "--state", STATE,
        "--trials", str(frames), "--seed", str(301 + i),
    )
    return Op(kind, argv, EXIT_OK, 0, 0, frames)


# Trial counts are chosen so that every operation of a workload takes about
# the same time (so the latency percentiles do not sit on a boundary between
# two populations), and none is a multiple of the 2**18 chunk size.
KINDS = {
    "rod-quantum": lambda i: _simulate(
        "rod-quantum", "rod", "quantum", "self", 2_000_000, 2, i, EXIT_OK),
    "rod-variant": lambda i: _simulate(
        "rod-variant", "rod", "uniform-variant", "born", 2_000_000, 2, i, EXIT_REJECTED),
    "sphere2d": lambda i: _simulate(
        "sphere2d", "sphere2d", None, "self", 3_000_001, 1, i, EXIT_OK),
    "ks": lambda i: _simulate(
        "ks", "ks", None, "self", 1_000_000, 1, i, EXIT_OK),
    "sweep-sphere2d": lambda i: _sweep("sweep-sphere2d", "sphere2d", 201, 2000, i),
    "sweep-ks": lambda i: _sweep("sweep-ks", "ks", 33, 2000, i),
    "sweep-rod": lambda i: _sweep("sweep-rod", "rod", 65, 2000, i),
    "fc-rod-variant": lambda i: _framecheck(
        "fc-rod-variant", ("--measure", "rod", "--weight", "uniform-variant"), 150, i),
    "fc-gleason": lambda i: _framecheck(
        "fc-gleason", ("--measure", "gleason"), 1100, i),
}

# One pass of a workload runs these kinds in this order.
PATTERNS = {
    "mc-rod": ("rod-quantum", "rod-variant") * 4,
    "mc-two-outcome": ("sphere2d", "ks") * 4,
    "sweep-fine": ("sweep-sphere2d", "sweep-ks", "sweep-rod") * 3,
    "framecheck-rod": ("fc-rod-variant", "fc-gleason") * 4,
}

SETUP_ARGV = ("analytic", "--model", "rod", "--state", STATE, "--frame", "identity")


def pool(kind: str) -> list[Op]:
    return [KINDS[kind](i) for i in range(POOL)]


def op_list(workload: str, seed: int) -> list[Op]:
    """The operations one pass of ``workload`` runs for benchmark ``seed``."""
    pattern = PATTERNS[workload]
    rng = random.Random(f"{workload}:{seed}")
    picks = {
        kind: iter(rng.sample(range(POOL), pattern.count(kind)))
        for kind in dict.fromkeys(pattern)
    }
    return [KINDS[kind](next(picks[kind])) for kind in pattern]


def load_golden(path: Path = GOLDEN_PATH) -> dict[str, dict]:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def check(op: Op, rc: int, out: bytes, golden: dict[str, dict]) -> str | None:
    """None when the operation's exit code and CSV are right, else the reason."""
    if rc != op.expect_rc:
        return f"exit code {rc}, expected {op.expect_rc}"
    want = golden.get(op.key)
    if want is not None:
        if rc != want["rc"]:
            return f"exit code {rc}, golden {want['rc']}"
        if digest(out) != want["sha256"]:
            return "CSV bytes differ from the golden digest"
        return None
    return check_schema(op, out)


def check_schema(op: Op, out: bytes) -> str | None:
    """Fallback check for an operation with no recorded digest."""
    try:
        text = out.decode("utf-8")
    except UnicodeDecodeError:
        return "CSV is not UTF-8"
    header, _, body = text.partition("\n")
    rows = list(csv.reader(io.StringIO(body)))
    command = op.argv[0]
    try:
        if command == "simulate":
            if header != SIMULATE_HEADER:
                return f"bad simulate header {header!r}"
            if len(rows) != OUTCOMES[op.flag("--model")]:
                return f"{len(rows)} outcome rows"
            total = sum(int(r[7]) for r in rows)
            if total != op.trials:
                return f"counts sum to {total}, not {op.trials}"
        elif command == "sweep":
            if header != SWEEP_HEADER:
                return f"bad sweep header {header!r}"
            if len(rows) != op.points:
                return f"{len(rows)} sweep rows, expected {op.points}"
            if not all(0.0 <= float(r[2]) <= 1.0 for r in rows):
                return "empirical frequency outside [0, 1]"
        elif command == "framecheck":
            if header != FRAMECHECK_HEADER:
                return f"bad framecheck header {header!r}"
            if len(rows) != op.frames:
                return f"{len(rows)} frame rows, expected {op.frames}"
            if not all(math.isfinite(float(x)) for r in rows for x in r[1:]):
                return "non-finite frame sum"
        else:
            return f"unknown command {command!r}"
    except (ValueError, IndexError) as exc:
        return f"malformed CSV: {exc}"
    return None
