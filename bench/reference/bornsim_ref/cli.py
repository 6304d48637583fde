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
import os
import re
import sys
from dataclasses import dataclass

import numpy as np

from . import disk, rod, sphere
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
        return [float(p) for p in parts]
    except ValueError as exc:
        raise InputError(f"could not parse numbers from {text!r}") from exc


def _parse_state(text: str) -> UnitVector:
    vals = _parse_floats(text)
    if len(vals) != 3:
        raise InputError(f"state needs 3 components, got {len(vals)}")
    v = np.array(vals)
    n = float(np.linalg.norm(v))
    if n < 1e-12:
        raise InputError("state vector must be nonzero")
    v = v / n
    return UnitVector(float(v[0]), float(v[1]), float(v[2]))


def _resolve_frame(token: str) -> Frame:
    """Frame from 'identity', 'random:<seed>' or 9 reals (Gram-Schmidt applied)."""
    if token == "identity":
        return identity_frame()
    if token.startswith("random:"):
        try:
            seed = int(token.split(":", 1)[1])
        except ValueError as exc:
            raise InputError(f"bad frame token {token!r}") from exc
        return random_frame(np.random.default_rng(seed))
    vals = _parse_floats(token)
    if len(vals) != 9:
        raise InputError(f"frame needs 9 components, got {len(vals)}")
    rows = np.array(vals).reshape(3, 3)
    norms = np.linalg.norm(rows, axis=1)
    if np.any(norms < 1e-12):
        raise InputError("frame rows must be nonzero")
    unit = rows / norms[:, None]
    for i in range(3):
        for j in range(i + 1, 3):
            if abs(float(unit[i] @ unit[j])) > 1e-6:
                raise InputError(
                    f"frame rows {i} and {j} are not orthonormalizable within 1e-6"
                )
    try:
        frame = orthonormal_frame(rows[0], rows[1], rows[2])
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    return frame


def _resolve_direction(token: str) -> UnitVector:
    """Oriented measurement direction for the two-outcome models.

    'identity' means +x; 'random:<seed>' draws a uniform direction; numeric
    input takes the first three components as given (no antipodal flip).
    """
    if token == "identity":
        return UnitVector(1.0, 0.0, 0.0)
    if token.startswith("random:"):
        try:
            seed = int(token.split(":", 1)[1])
        except ValueError as exc:
            raise InputError(f"bad frame token {token!r}") from exc
        return random_unit_vector(np.random.default_rng(seed))
    vals = _parse_floats(token)
    if len(vals) not in (3, 9):
        raise InputError(
            f"direction needs 3 components (or a 9-component frame), got {len(vals)}"
        )
    v = np.array(vals[:3])
    n = float(np.linalg.norm(v))
    if n < 1e-12:
        raise InputError("direction must be nonzero")
    v = v / n
    return UnitVector(float(v[0]), float(v[1]), float(v[2]))


def _frame_id(token: str) -> str:
    if token == "identity" or token.startswith("random:"):
        return token
    return "custom"


@dataclass
class ExperimentSpec:
    """Validated, fully-defaulted inputs of one command invocation."""

    command: str
    model: str = "rod"
    weight: str = "quantum"
    state: UnitVector | None = None
    frame_token: str = "identity"
    frame: Frame | None = None
    direction: UnitVector | None = None
    trials: int = 100000
    seed: int = FALLBACK_SEED
    alpha: float = 0.01
    expect: str = "self"
    out: str | None = None
    steps: int = 9
    workers: int = 1
    measure: str = "gleason"


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
    r.weight = _pick(args, config, "weight", "quantum", str)
    state_text = _pick(args, config, "state", None, str)
    r.frame_token = _pick(args, config, "frame", "identity", str)
    r.trials = _pick(args, config, "trials", 100000, lambda t: _to_int(t, "trials"))
    r.seed = _pick(args, config, "seed", _default_seed(), lambda t: _to_int(t, "seed"))
    r.alpha = _pick(args, config, "alpha", 0.01, lambda t: _to_float(t, "alpha"))
    r.expect = _pick(args, config, "expect", "self", str)
    r.out = _pick(args, config, "out", None, str)
    r.steps = _pick(args, config, "steps", 9, lambda t: _to_int(t, "steps"))
    r.workers = _pick(args, config, "workers", 1, lambda t: _to_int(t, "workers"))
    r.measure = _pick(args, config, "measure", "gleason", str)

    if r.command == "framecheck":
        if r.measure not in ("gleason", "rod"):
            raise InputError(f"measure must be 'gleason' or 'rod', got {r.measure!r}")
    else:
        if r.model is None:
            raise InputError("a model is required (--model sphere2d|ks|rod)")
        if r.model not in ("sphere2d", "ks", "rod"):
            raise InputError(f"unknown model {r.model!r}")
    if r.weight not in ("quantum", "uniform-variant"):
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

    if r.command == "framecheck":
        return r
    if r.model == "rod":
        r.frame = _resolve_frame(r.frame_token)
    else:
        r.direction = _resolve_direction(r.frame_token)
    return r


def _weight_field(r: ExperimentSpec) -> str:
    return r.weight if r.model == "rod" else ""


def _self_distribution(r: ExperimentSpec) -> OutcomeDistribution:
    if r.model == "sphere2d":
        return sphere.sphere_analytic(
            sphere.SphereMeasurement(r.direction), sphere.SphereState(r.state)
        )
    if r.model == "ks":
        return disk.disk_analytic(r.direction, r.state)
    dist, _ = rod.rod_analytic(
        rod.RodState(canonicalize(r.state)),
        rod.RodMeasurement(r.frame),
        rod.WEIGHTS[r.weight],
    )
    return dist


def _expected_distribution(r: ExperimentSpec) -> OutcomeDistribution:
    """--expect self: the model's own exact distribution; born: the state-vector rule.

    For the two-outcome models both coincide, so 'born' only changes the rod
    comparison.
    """
    if r.expect == "born" and r.model == "rod":
        psi = state_vector(canonicalize(r.state).rep.array)
        return born_probabilities(psi, r.frame)
    return _self_distribution(r)


def _open_out(path: str | None):
    if path is None or path == "-":
        return sys.stdout, False
    return open(path, "w", encoding="utf-8", newline=""), True


def _write_rows(path: str | None, header: list[str], rows: list[list[str]]) -> None:
    fh, close = _open_out(path)
    try:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
    finally:
        if close:
            fh.close()


def cmd_analytic(r: ExperimentSpec) -> int:
    dist = _self_distribution(r)
    for label, prob in zip(dist.labels, dist.probs):
        print(f"{label} {_fmt(prob)}")
    if r.out is not None:
        sx, sy, sz = r.state.x, r.state.y, r.state.z
        rows = [
            [r.model, _weight_field(r), _fmt(sx), _fmt(sy), _fmt(sz),
             _frame_id(r.frame_token), label, _fmt(prob)]
            for label, prob in zip(dist.labels, dist.probs)
        ]
        _write_rows(r.out, ANALYTIC_HEADER, rows)
    return 0


def cmd_simulate(r: ExperimentSpec) -> int:
    cfg = RunConfig(
        model=r.model,
        state=r.state,
        measurement=r.frame if r.model == "rod" else r.direction,
        weight=r.weight,
        trials=r.trials,
        master_seed=r.seed,
        workers=r.workers,
    )
    report = verify_run(cfg, _expected_distribution(r), alpha=r.alpha)
    emp, expected, gof = report.empirical, report.expected, report.gof

    sx, sy, sz = r.state.x, r.state.y, r.state.z
    rows = []
    for i, label in enumerate(emp.labels):
        lo, hi = gof.intervals[i]
        rows.append(
            [r.model, _weight_field(r), _fmt(sx), _fmt(sy), _fmt(sz),
             _frame_id(r.frame_token), label, str(emp.counts[i]),
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


def _sweep_pair(r: ExperimentSpec) -> tuple[np.ndarray, np.ndarray]:
    """Unit pair (u, w): sweep states are cos(angle)*u + sin(angle)*w."""
    if r.model == "rod":
        m = r.frame.matrix
        return m[0], m[1]
    u = r.direction.array
    if r.frame_token == "identity" or r.frame_token.startswith("random:"):
        w, _ = tangent_basis(u)
        return u, w
    vals = _parse_floats(r.frame_token)
    if len(vals) == 9:
        second = np.array(vals[3:6])
        w = second - (second @ u) * u
        n = float(np.linalg.norm(w))
        if n > 1e-9:
            return u, w / n
    w, _ = tangent_basis(u)
    return u, w


def cmd_sweep(r: ExperimentSpec) -> int:
    if r.steps < 2:
        raise InputError("steps must be >= 2")
    u, w = _sweep_pair(r)
    angles = np.linspace(0.0, np.pi / 2, r.steps)

    rows = []
    for i, angle in enumerate(angles):
        v = np.cos(angle) * u + np.sin(angle) * w
        v = v / float(np.linalg.norm(v))
        state = UnitVector(float(v[0]), float(v[1]), float(v[2]))
        point = ExperimentSpec(
            command="sweep", model=r.model, weight=r.weight, state=state,
            frame_token=r.frame_token, frame=r.frame, direction=r.direction,
        )
        analytic = _self_distribution(point).probs[0]
        cfg = RunConfig(
            model=r.model,
            state=state,
            measurement=r.frame if r.model == "rod" else r.direction,
            weight=r.weight,
            trials=r.trials,
            master_seed=trial_state(r.seed, i),
            workers=r.workers,
        )
        emp, _ = run_trials(cfg)
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
    if r.measure == "gleason":
        g = gleason_measure(state_vector(r.state.array))

        def measure(ray, frame):
            return g(RayProjector(ray))

        label = "gleason"
    else:
        measure = rod.marginal_measure(
            rod.RodState(canonicalize(r.state)), rod.WEIGHTS[r.weight]
        )
        label = f"rod:{r.weight}"
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
        p.add_argument("--model", choices=["sphere2d", "ks", "rod"])
        p.add_argument("--weight", choices=["quantum", "uniform-variant"])
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
    p_fc.add_argument("--measure", choices=["gleason", "rod"])

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
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
