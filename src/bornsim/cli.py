"""Command-line front end: exact tables, Monte Carlo runs, sweeps, frame checks.

Commands
--------
analytic    print the exact outcome distribution for a model configuration
simulate    run Monte Carlo trials, write a CSV, verdict vs expected probabilities
sweep       sweep the state angle over [0, pi/2], one CSV row per point
framecheck  sum a ray measure over random frames and report deviation from 1

Inputs come from flags, optionally seeded by a ``key = value`` config file
(``--config``); explicit flags override the file. The default seed is taken
from the ``BORNSIM_SEED`` environment variable when set (the only
environment input), else 12345.

Exit codes: 0 success, 2 invalid input, 3 statistical verification failure.
CSV floats are printed with 12 significant digits, and output bytes are
identical for identical resolved inputs (including the seed).
"""

from __future__ import annotations

import argparse
import csv
import math
import os
import re
import sys
from dataclasses import dataclass

import numpy as np

from . import rod
from .geometry import (
    Frame,
    UnitVector,
    canonicalize,
    identity_frame,
    orthonormal_frame,
    random_frame,
    random_unit_vector,
    tangent_basis,
)
from .models import MODELS, ROD
from .outcomes import OutcomeDistribution
from .quantum import (
    RayProjector,
    born_probabilities,
    frame_additivity_check,
    gleason_measure,
    state_vector,
)
from .stats import RunConfig, Z_99, run_trials, verify_run
from .streams import trial_state

FALLBACK_SEED = 12345
SEED_ENV_VAR = "BORNSIM_SEED"
MIN_TRIALS_FOR_VERDICT = 1000
# framecheck measures: the Gleason form of the state, or the rod's marginals
MEASURES = ("gleason", ROD.name)

SIMULATE_HEADER = [
    "model", "weight", "state_x", "state_y", "state_z", "frame_id",
    "outcome", "count", "frequency", "expected", "ci_low", "ci_high",
]
ANALYTIC_HEADER = [
    "model", "weight", "state_x", "state_y", "state_z", "frame_id",
    "outcome", "probability",
]
SWEEP_HEADER = ["angle", "analytic", "empirical", "ci_low", "ci_high"]

_CONFIG_KEYS = {
    "model", "weight", "state", "frame", "trials", "seed", "alpha",
    "expect", "out", "steps", "workers", "measure",
}


class InputError(ValueError):
    """Invalid command input; mapped to exit code 2."""


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _parse_floats(text: str) -> list[float]:
    parts = [p for p in re.split(r"[,\s]+", text.strip()) if p]
    try:
        vals = [float(p) for p in parts]
    except ValueError as exc:
        raise InputError(f"could not parse numbers from {text!r}") from exc
    if not all(math.isfinite(v) for v in vals):
        raise InputError(f"non-finite number in {text!r}")
    return vals


def _unit(vals: list[float], what: str) -> np.ndarray:
    """vals / |vals|, rejecting a norm below 1e-12.

    The vector is first scaled by a power of two (exact) so that its norm
    cannot overflow; the quotient is the same as without the scaling.
    """
    _, e = math.frexp(max(abs(v) for v in vals))
    v = np.ldexp(np.array(vals), -e)
    n = float(np.linalg.norm(v))
    if math.ldexp(n, min(e, 0)) < 1e-12:
        raise InputError(f"{what} must be nonzero")
    return v / n


def _parse_state(text: str) -> UnitVector:
    vals = _parse_floats(text)
    if len(vals) != 3:
        raise InputError(f"state needs 3 components, got {len(vals)}")
    return UnitVector(*_unit(vals, "state vector").tolist())


@dataclass(frozen=True)
class FrameInput:
    """A parsed --frame token: its CSV ``frame_id``, the model's measurement
    (a Frame, or an oriented UnitVector), and the unit pair (u, w) whose
    combinations cos(angle)*u + sin(angle)*w are the sweep states."""

    frame_id: str
    measurement: Frame | UnitVector
    sweep: tuple[np.ndarray, np.ndarray]


def _custom_frame(vals: list[float]) -> Frame:
    """Frame from 9 reals (rows), Gram-Schmidt applied when within 1e-6 of orthonormal."""
    if len(vals) != 9:
        raise InputError(f"frame needs 9 components, got {len(vals)}")
    rows = np.array(vals).reshape(3, 3)
    unit = [_unit(list(row), "frame rows") for row in rows]
    for i in range(3):
        for j in range(i + 1, 3):
            if abs(float(unit[i] @ unit[j])) > 1e-6:
                raise InputError(
                    f"frame rows {i} and {j} are not orthonormalizable within 1e-6"
                )
    try:
        return orthonormal_frame(rows[0], rows[1], rows[2])
    except ValueError as exc:
        raise InputError(str(exc)) from exc


def _parse_frame(token: str, kind: type) -> FrameInput:
    """'identity', 'random:<seed>' or reals, read as a measurement of type ``kind``.

    A Frame's sweep plane is spanned by its axes 0 and 1. A direction is +x,
    a uniform random direction, or the first 3 of 3 or 9 reals as given (no
    antipodal flip); its sweep partner is the second of 9 reals made
    orthogonal to it, else its tangent basis.
    """
    rng = vals = None
    if token.startswith("random:"):
        try:
            rng = np.random.default_rng(int(token.split(":", 1)[1]))
        except ValueError as exc:
            raise InputError(f"bad frame token {token!r}") from exc
    elif token != "identity":
        vals = _parse_floats(token)
    frame_id = token if vals is None else "custom"
    if kind is Frame:
        if vals is not None:
            m = _custom_frame(vals)
        else:
            m = identity_frame() if rng is None else random_frame(rng)
        return FrameInput(frame_id, m, (m.matrix[0], m.matrix[1]))
    if vals is None:
        m = UnitVector(1.0, 0.0, 0.0) if rng is None else random_unit_vector(rng)
    elif len(vals) in (3, 9):
        m = UnitVector(*_unit(vals[:3], "direction").tolist())
    else:
        raise InputError(
            f"direction needs 3 components (or a 9-component frame), got {len(vals)}"
        )
    u = m.array
    w, _ = tangent_basis(u)
    if vals is not None and len(vals) == 9:
        second = np.array(vals[3:6])
        w9 = second - (second @ u) * u
        n = float(np.linalg.norm(w9))
        if n > 1e-9:
            w = w9 / n
    return FrameInput(frame_id, m, (u, w))


@dataclass
class ExperimentSpec:
    """Validated, fully-defaulted inputs of one command invocation."""

    command: str
    model: str | None = None
    weight: str = rod.QUANTUM.tag
    state: UnitVector | None = None
    frame: FrameInput | None = None  # not parsed for framecheck
    trials: int = 100000
    seed: int = FALLBACK_SEED
    alpha: float = 0.01
    expect: str = "self"
    out: str | None = None
    steps: int = 9
    workers: int = 1
    measure: str = MEASURES[0]


def _read_config(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise InputError(f"{path}:{lineno}: expected 'key = value'")
                key, _, val = line.partition("=")
                key = key.strip()
                if key not in _CONFIG_KEYS:
                    raise InputError(f"{path}:{lineno}: unknown key {key!r}")
                values[key] = val.strip()
    except OSError as exc:
        raise InputError(f"cannot read config file {path}: {exc}") from exc
    return values


def _default_seed() -> int:
    raw = os.environ.get(SEED_ENV_VAR)
    if raw is None:
        return FALLBACK_SEED
    try:
        return int(raw)
    except ValueError as exc:
        raise InputError(f"{SEED_ENV_VAR} must be an integer, got {raw!r}") from exc


def _pick(args, config: dict[str, str], key: str, default, convert):
    flag = getattr(args, key, None)
    if flag is not None:
        return convert(flag) if isinstance(flag, str) else flag
    if key in config:
        return convert(config[key])
    return default


def _to_int(text, what: str) -> int:
    try:
        return int(text)
    except (TypeError, ValueError) as exc:
        raise InputError(f"{what} must be an integer, got {text!r}") from exc


def _to_float(text, what: str) -> float:
    try:
        return float(text)
    except (TypeError, ValueError) as exc:
        raise InputError(f"{what} must be a number, got {text!r}") from exc


def _resolve(args: argparse.Namespace) -> ExperimentSpec:
    config = _read_config(args.config) if getattr(args, "config", None) else {}
    r = ExperimentSpec(command=args.command)

    r.model = _pick(args, config, "model", None, str)
    r.weight = _pick(args, config, "weight", r.weight, str)
    state_text = _pick(args, config, "state", None, str)
    frame_token = _pick(args, config, "frame", "identity", str)
    r.trials = _pick(args, config, "trials", 100000, lambda t: _to_int(t, "trials"))
    r.seed = _pick(args, config, "seed", _default_seed(), lambda t: _to_int(t, "seed"))
    r.alpha = _pick(args, config, "alpha", 0.01, lambda t: _to_float(t, "alpha"))
    r.expect = _pick(args, config, "expect", "self", str)
    r.out = _pick(args, config, "out", None, str)
    r.steps = _pick(args, config, "steps", 9, lambda t: _to_int(t, "steps"))
    r.workers = _pick(args, config, "workers", 1, lambda t: _to_int(t, "workers"))
    r.measure = _pick(args, config, "measure", r.measure, str)

    if r.command == "framecheck":
        if r.measure not in MEASURES:
            choices = " or ".join(repr(m) for m in MEASURES)
            raise InputError(f"measure must be {choices}, got {r.measure!r}")
    else:
        if r.model is None:
            raise InputError(f"a model is required (--model {'|'.join(MODELS)})")
        if r.model not in MODELS:
            raise InputError(f"unknown model {r.model!r}")
    if r.weight not in rod.WEIGHTS:
        raise InputError(f"unknown weight {r.weight!r}")
    if r.expect not in ("self", "born"):
        raise InputError(f"expect must be 'self' or 'born', got {r.expect!r}")
    if state_text is None:
        raise InputError("a state is required (--state x,y,z)")
    r.state = _parse_state(state_text)
    if r.trials < 1:
        raise InputError("trials must be >= 1")
    if r.workers < 1:
        raise InputError("workers must be >= 1")
    if r.alpha not in (0.01, 0.05):
        raise InputError("alpha must be 0.01 or 0.05 (tabulated critical values)")

    if r.command != "framecheck":
        r.frame = _parse_frame(frame_token, MODELS[r.model].measurement)
    return r


def _weight_field(r: ExperimentSpec) -> str:
    return r.weight if MODELS[r.model].weighted else ""


def _self_distribution(r: ExperimentSpec, state: UnitVector) -> OutcomeDistribution:
    return MODELS[r.model].analytic(state, r.frame.measurement, r.weight)


def _expected_distribution(r: ExperimentSpec) -> OutcomeDistribution:
    """--expect self: the model's own exact distribution; born: the state-vector rule.

    The state-vector rule is stated over a Frame; for the two-outcome models
    it coincides with their own law, so 'born' only changes the rod
    comparison.
    """
    if r.expect == "born" and isinstance(r.frame.measurement, Frame):
        psi = state_vector(canonicalize(r.state).rep.array)
        return born_probabilities(psi, r.frame.measurement)
    return _self_distribution(r, r.state)


def _run_config(r: ExperimentSpec, state: UnitVector, seed: int) -> RunConfig:
    return RunConfig(
        model=r.model,
        state=state,
        measurement=r.frame.measurement,
        weight=r.weight,
        trials=r.trials,
        master_seed=seed,
        workers=r.workers,
    )


def _write_rows(path: str | None, header: list[str], rows: list[list[str]]) -> None:
    """CSV to ``path``, or to stdout when it is None or '-'."""
    to_file = path is not None and path != "-"
    fh = open(path, "w", encoding="utf-8", newline="") if to_file else sys.stdout
    try:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
    finally:
        if to_file:
            fh.close()


def cmd_analytic(r: ExperimentSpec) -> int:
    dist = _self_distribution(r, r.state)
    for label, prob in zip(dist.labels, dist.probs):
        print(f"{label} {_fmt(prob)}")
    if r.out is not None:
        sx, sy, sz = r.state.x, r.state.y, r.state.z
        rows = [
            [r.model, _weight_field(r), _fmt(sx), _fmt(sy), _fmt(sz),
             r.frame.frame_id, label, _fmt(prob)]
            for label, prob in zip(dist.labels, dist.probs)
        ]
        _write_rows(r.out, ANALYTIC_HEADER, rows)
    return 0


def cmd_simulate(r: ExperimentSpec) -> int:
    cfg = _run_config(r, r.state, r.seed)
    report = verify_run(cfg, _expected_distribution(r), alpha=r.alpha)
    emp, expected, gof = report.empirical, report.expected, report.gof

    sx, sy, sz = r.state.x, r.state.y, r.state.z
    rows = []
    for i, label in enumerate(emp.labels):
        lo, hi = gof.intervals[i]
        rows.append(
            [r.model, _weight_field(r), _fmt(sx), _fmt(sy), _fmt(sz),
             r.frame.frame_id, label, str(emp.counts[i]),
             _fmt(emp.frequencies[i]), _fmt(expected.probs[i]),
             _fmt(lo), _fmt(hi)]
        )
    _write_rows(r.out, SIMULATE_HEADER, rows)

    err = sys.stderr
    print(
        f"simulate model={r.model} weight={_weight_field(r) or '-'} "
        f"trials={r.trials} seed={r.seed} expect={r.expect}",
        file=err,
    )
    for i, label in enumerate(emp.labels):
        print(
            f"  {label}: count={emp.counts[i]} freq={_fmt(emp.frequencies[i])} "
            f"expected={_fmt(expected.probs[i])}",
            file=err,
        )
    if r.trials < MIN_TRIALS_FOR_VERDICT:
        print(f"  (no verdict: trials < {MIN_TRIALS_FOR_VERDICT})", file=err)
        return 0
    verdict = "PASS" if gof.passed else "FAIL"
    print(
        f"  chi-square statistic={_fmt(gof.statistic)} dof={gof.dof} "
        f"critical={_fmt(gof.critical)} alpha={gof.alpha} verdict={verdict}",
        file=err,
    )
    if gof.note:
        print(f"  note: {gof.note}", file=err)
    return 0 if gof.passed else 3


def cmd_sweep(r: ExperimentSpec) -> int:
    if r.steps < 2:
        raise InputError("steps must be >= 2")
    u, w = r.frame.sweep
    angles = np.linspace(0.0, np.pi / 2, r.steps)

    rows = []
    for i, angle in enumerate(angles):
        v = np.cos(angle) * u + np.sin(angle) * w
        state = UnitVector(*(v / float(np.linalg.norm(v))).tolist())
        analytic = _self_distribution(r, state).probs[0]
        emp, _ = run_trials(_run_config(r, state, trial_state(r.seed, i)))
        f0 = float(emp.frequencies[0])
        half = Z_99 * float(np.sqrt(max(f0 * (1.0 - f0), 0.0) / r.trials))
        rows.append(
            [_fmt(angle), _fmt(analytic), _fmt(f0),
             _fmt(max(f0 - half, 0.0)), _fmt(min(f0 + half, 1.0))]
        )
    _write_rows(r.out, SWEEP_HEADER, rows)
    print(
        f"sweep model={r.model} weight={_weight_field(r) or '-'} steps={r.steps} "
        f"trials-per-point={r.trials} seed={r.seed}",
        file=sys.stderr,
    )
    return 0


def cmd_framecheck(r: ExperimentSpec) -> int:
    rng = np.random.default_rng(r.seed)
    frames = [random_frame(rng) for _ in range(r.trials)]
    if r.measure == MEASURES[0]:
        g = gleason_measure(state_vector(r.state.array))

        def measure(ray, frame):
            return g(RayProjector(ray))

        label = r.measure
    else:
        measure = rod.marginal_measure(
            rod.RodState(canonicalize(r.state)), rod.WEIGHTS[r.weight]
        )
        label = f"{r.measure}:{r.weight}"
    report = frame_additivity_check(measure, frames)
    print(
        f"framecheck measure={label} frames={report.frames_checked} "
        f"max_deviation={_fmt(report.max_deviation)} "
        f"additive_within_1e-12={'yes' if report.additive else 'no'}"
    )
    if r.out is not None:
        rows = []
        for i, f in enumerate(frames):
            total = sum(measure(ax, f) for ax in f.axes)
            rows.append([str(i), _fmt(total), _fmt(abs(total - 1.0))])
        _write_rows(r.out, ["frame_index", "sum", "deviation"], rows)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bornsim",
        description="Exact and Monte Carlo outcome statistics for the "
        "sphere, disk (ks) and rod measurement models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, with_expect: bool = False) -> None:
        p.add_argument("--model", choices=list(MODELS))
        p.add_argument("--weight", choices=list(rod.WEIGHTS))
        p.add_argument("--state", help="state vector, e.g. '0.707,0.5,0.5'")
        p.add_argument(
            "--frame",
            help="'identity', 'random:<seed>', or 9 reals (3 for direction models)",
        )
        p.add_argument("--trials")
        p.add_argument("--seed")
        p.add_argument("--alpha")
        if with_expect:
            p.add_argument("--expect", choices=["self", "born"])
        p.add_argument("--out", help="CSV output path ('-' for stdout)")
        p.add_argument("--workers")
        p.add_argument("--config", help="key = value file mirroring the flags")

    p_analytic = sub.add_parser("analytic", help="exact outcome distribution")
    common(p_analytic)

    p_sim = sub.add_parser("simulate", help="Monte Carlo run with chi-square verdict")
    common(p_sim, with_expect=True)

    p_sweep = sub.add_parser("sweep", help="state-angle sweep over [0, pi/2]")
    common(p_sweep)
    p_sweep.add_argument("--steps", help="number of sweep points (>= 2)")

    p_fc = sub.add_parser("framecheck", help="frame-additivity check over random frames")
    common(p_fc)
    p_fc.add_argument("--measure", choices=list(MEASURES))

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "analytic": cmd_analytic,
        "simulate": cmd_simulate,
        "sweep": cmd_sweep,
        "framecheck": cmd_framecheck,
    }
    try:
        resolved = _resolve(args)
        return handlers[args.command](resolved)
    except ValueError as exc:  # InputError and the library's input checks
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
