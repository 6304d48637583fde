"""Command-line front end: exact tables, Monte Carlo runs, sweeps, frame checks.

Commands and the options each takes
-----------------------------------
analytic    print the exact outcome distribution for a model configuration
            (model weight state frame out)
simulate    run Monte Carlo trials, write a CSV, verdict vs expected probabilities
            (model weight state frame trials seed alpha expect out workers)
sweep       sweep the state angle over [0, pi/2], one CSV row per point
            (model weight state frame trials seed out workers steps)
framecheck  sum a ray measure over random frames and report deviation from 1
            (measure weight state trials seed out)

Each option is a flag (``--trials``) and a key of the ``key = value`` config
file that every command also takes (``--config``); explicit flags override
the file. A config file may name any command's option, so one file serves
all four commands; only the keys the running command reads are converted
and checked. The default seed is taken from the ``BORNSIM_SEED``
environment variable when set (the only environment input, read only by
commands that take a seed), else 12345.

Exit codes: 0 success, 2 invalid input (including an ``--out`` path that
cannot be opened, which is opened before any work), 3 statistical
verification failure.
CSV floats are printed with 12 significant digits, and output bytes are
identical for identical resolved inputs (including the seed).
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import math
import os
import re
import sys
from array import array
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Any, Callable, Iterable, Iterator, TextIO

import numpy as np

from . import rod
from .geometry import (
    Frame,
    UnitVector,
    canonicalize,
    identity_frame,
    normalize,
    orthonormal_frame,
    random_frame,
    random_unit_vector,
    tangent_basis,
)
from .models import MODELS, ROD
from .outcomes import OutcomeDistribution
from .quantum import (
    born_probabilities,
    frame_additivity_check,
    gleason_measure,
    state_vector,
)
from .stats import CHI2_CRITICAL, RunConfig, chi_square_gof, run_trials, wald_interval
from .streams import trial_state

FALLBACK_SEED = 12345
SEED_ENV_VAR = "BORNSIM_SEED"
MIN_TRIALS_FOR_VERDICT = 1000
# significance levels with tabulated chi-square critical values
ALPHAS = tuple(sorted({alpha for _, alpha in CHI2_CRITICAL}))

# the leading fields of an analytic or simulate row, from _outcome_fields
OUTCOME_HEADER = ["model", "weight", "state_x", "state_y", "state_z", "frame_id", "outcome"]
SIMULATE_HEADER = [*OUTCOME_HEADER, "count", "frequency", "expected", "ci_low", "ci_high"]
ANALYTIC_HEADER = [*OUTCOME_HEADER, "probability"]
SWEEP_HEADER = ["angle", "analytic", "empirical", "ci_low", "ci_high"]
FRAMECHECK_HEADER = ["frame_index", "sum", "deviation"]


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


def _parse_state(text: str) -> UnitVector:
    vals = _parse_floats(text)
    if len(vals) != 3:
        raise InputError(f"state needs 3 components, got {len(vals)}")
    return UnitVector(*normalize(vals, "state vector must be nonzero").tolist())


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
    unit = [normalize(row, "frame rows must be nonzero") for row in rows]
    for i in range(3):
        for j in range(i + 1, 3):
            if abs(float(unit[i] @ unit[j])) > 1e-6:
                raise InputError(
                    f"frame rows {i} and {j} are not orthonormalizable within 1e-6"
                )
    return orthonormal_frame(rows[0], rows[1], rows[2])


def _parse_frame(token: str, kind: type) -> FrameInput:
    """'identity', 'random:<seed>' or reals, read as a measurement of type ``kind``.

    A Frame's sweep plane is spanned by its axes 0 and 1. A direction is +x,
    a uniform random direction, or the first 3 of 3 or 9 reals as given (no
    antipodal flip); its sweep partner is the second of 9 reals, normalized and
    made orthogonal to it, else (3 reals, a zero or parallel row) its tangent basis.
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
        return FrameInput(frame_id, m, (np.array(m.rows[0]), np.array(m.rows[1])))
    if vals is None:
        m = UnitVector(1.0, 0.0, 0.0) if rng is None else random_unit_vector(rng)
    elif len(vals) in (3, 9):
        m = UnitVector(*normalize(vals[:3], "direction must be nonzero").tolist())
    else:
        raise InputError(
            f"direction needs 3 components (or a 9-component frame), got {len(vals)}"
        )
    u = m.array
    w, _ = tangent_basis(u)
    if vals is not None and len(vals) == 9:
        with contextlib.suppress(ValueError):  # a zero or parallel row: keep w
            second = normalize(vals[3:6], "zero second row")
            w = normalize(second - (second @ u) * u, "second row parallel to the first")
    return FrameInput(frame_id, m, (u, w))


@dataclass(frozen=True)
class Option:
    """One command input: flag ``--<name>`` and config key ``<name>``.

    ``parse(text, r)`` turns the flag text, else the config text, else
    ``default`` into the value the commands read; ``r`` holds the options
    of the same command resolved before this one. Text outside ``choices``
    is rejected before parsing. An option is mandatory when ``required``
    holds the value hint for the error that no text raises.
    """

    name: str
    help: str
    parse: Callable[[str | None, SimpleNamespace], Any] = lambda text, r: text
    default: str | None = None
    choices: tuple[str, ...] = ()
    required: str | None = None


def _integer(text: str, what: str) -> int:
    try:
        return int(text)
    except ValueError as exc:
        raise InputError(f"{what} must be an integer, got {text!r}") from exc


def _count(name: str, least: int, default: int, help: str) -> Option:
    """An integer option that rejects values below ``least``."""

    def parse(text: str, r: SimpleNamespace) -> int:
        n = _integer(text, name)
        if n < least:
            raise InputError(f"{name} must be >= {least}")
        return n

    return Option(name, help, parse, str(default))


def _seed(text: str | None, r: SimpleNamespace) -> int:
    if text is not None:
        return _integer(text, "seed")
    env = os.environ.get(SEED_ENV_VAR)
    return FALLBACK_SEED if env is None else _integer(env, SEED_ENV_VAR)


def _alpha(text: str, r: SimpleNamespace) -> float:
    try:
        alpha = float(text)
    except ValueError as exc:
        raise InputError(f"alpha must be a number, got {text!r}") from exc
    if alpha not in ALPHAS:
        listed = " or ".join(map(str, ALPHAS))
        raise InputError(f"alpha must be {listed} (tabulated critical values)")
    return alpha


OPTIONS = {o.name: o for o in (
    Option("model", "measurement machine", lambda text, r: MODELS[text],
           choices=tuple(MODELS), required="|".join(MODELS)),
    Option("weight", "rod breaking weight", default=rod.QUANTUM.tag,
           choices=tuple(rod.WEIGHTS)),
    Option("state", "state vector, e.g. '0.707,0.5,0.5'",
           lambda text, r: _parse_state(text), required="x,y,z"),
    Option("frame", "'identity', 'random:<seed>', or 9 reals (3 for direction models)",
           lambda text, r: _parse_frame(text, r.model.measurement), default="identity"),
    _count("trials", 1, 100000, "Monte Carlo trials (framecheck: random frames)"),
    Option("seed", f"master seed (default: ${SEED_ENV_VAR}, else {FALLBACK_SEED})",
           _seed),
    Option("alpha", "chi-square significance level", _alpha, default="0.01"),
    Option("expect", "expected distribution: the model's own, or the Born rule",
           default="self", choices=("self", "born")),
    Option("out", "CSV output path ('-' for stdout)"),
    _count("workers", 1, 1, "upper bound on worker threads"),
    _count("steps", 2, 9, "number of sweep points (>= 2)"),
    Option("measure", "framecheck measure: the state's Gleason measure, or the "
           "rod's outcome marginals", default="gleason", choices=("gleason", ROD.name)),
)}


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
                if key not in OPTIONS:
                    raise InputError(f"{path}:{lineno}: unknown key {key!r}")
                values[key] = val.strip()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read config file {path}: {exc}") from exc
    return values


def _resolve(args: argparse.Namespace, names: tuple[str, ...]) -> SimpleNamespace:
    """The options ``names`` of one command, each parsed once, in that order."""
    config = _read_config(args.config) if args.config else {}
    r = SimpleNamespace()
    for name in names:
        opt = OPTIONS[name]
        text = getattr(args, name)
        if text is None:
            text = config.get(name, opt.default)
        if text is None and opt.required:
            raise InputError(f"a {name} is required (--{name} {opt.required})")
        if opt.choices and text not in opt.choices:
            *rest, last = map(repr, opt.choices)
            raise InputError(f"{name} must be {', '.join(rest)} or {last}, got {text!r}")
        setattr(r, name, opt.parse(text, r))
    return r


def _weight_field(r: SimpleNamespace) -> str:
    return r.weight if r.model.weighted else ""


def _self_distribution(r: SimpleNamespace, state: UnitVector) -> OutcomeDistribution:
    return r.model.analytic(state, r.frame.measurement, r.weight)


def _expected_distribution(r: SimpleNamespace) -> OutcomeDistribution:
    """--expect self: the model's own exact distribution; born: the state-vector rule.

    The state-vector rule is stated over a Frame; for the two-outcome models
    it coincides with their own law, so 'born' only changes the rod
    comparison.
    """
    if r.expect == "born" and isinstance(r.frame.measurement, Frame):
        psi = state_vector(canonicalize(r.state).rep.array)
        return born_probabilities(psi, r.frame.measurement)
    return _self_distribution(r, r.state)


def _run_config(r: SimpleNamespace, state: UnitVector, seed: int) -> RunConfig:
    return RunConfig(
        model=r.model.name,
        state=state,
        measurement=r.frame.measurement,
        weight=r.weight,
        trials=r.trials,
        master_seed=seed,
        workers=r.workers,
    )


@contextlib.contextmanager
def _opened_out(path: str | None) -> Iterator[TextIO | None]:
    """The ``--out`` stream: None without the flag, stdout for '-', else the
    file, opened for appending before the command does any work, so that a
    path that cannot be opened fails first; ``_write_rows`` empties it. A
    file this call created is removed again if the command fails."""
    if path is None or path == "-":
        yield None if path is None else sys.stdout
        return
    try:
        try:
            fh, created = open(path, "x", encoding="utf-8", newline=""), True
        except FileExistsError:
            fh, created = open(path, "a", encoding="utf-8", newline=""), False
    except OSError as exc:
        raise InputError(f"cannot open --out file {path!r}: {exc.strerror or exc}") from exc
    try:
        with fh:
            yield fh
    except BaseException:
        if created:
            os.remove(path)
        raise


def _write_rows(out: TextIO | None, header: list[str], rows: Iterable[Iterable[Any]]) -> None:
    """CSV to the ``--out`` stream, or to stdout without one: the one place
    that formats a cell, each float with ``_fmt`` and any other value as
    ``str`` gives it. An ``--out`` file is emptied only here, so a command
    that fails first leaves it as is."""
    if out not in (None, sys.stdout) and os.path.isfile(out.name):
        out.truncate(0)
    writer = csv.writer(sys.stdout if out is None else out, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([_fmt(v) if isinstance(v, float) else v for v in row] for row in rows)


def _outcome_fields(r: SimpleNamespace, label: str) -> list[Any]:
    """The ``OUTCOME_HEADER`` fields of one outcome's analytic or simulate row."""
    s = r.state
    return [r.model.name, _weight_field(r), s.x, s.y, s.z, r.frame.frame_id, label]


def cmd_analytic(r: SimpleNamespace) -> int:
    dist = _self_distribution(r, r.state)
    for label, prob in zip(dist.labels, dist.probs):
        print(f"{label} {_fmt(prob)}")
    if r.out is not None:
        rows = [[*_outcome_fields(r, label), prob] for label, prob in zip(dist.labels, dist.probs)]
        _write_rows(r.out, ANALYTIC_HEADER, rows)
    return 0


def cmd_simulate(r: SimpleNamespace) -> int:
    expected = _expected_distribution(r)
    emp, _ = run_trials(_run_config(r, r.state, r.seed))
    gof = chi_square_gof(emp, expected, alpha=r.alpha)

    rows = [
        [*_outcome_fields(r, label), count, freq, prob, *interval]
        for label, count, freq, prob, interval in zip(
            emp.labels, emp.counts, emp.frequencies, expected.probs, gof.intervals)
    ]
    _write_rows(r.out, SIMULATE_HEADER, rows)

    err = sys.stderr
    print(
        f"simulate model={r.model.name} weight={_weight_field(r) or '-'} "
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


def _sweep_angles(steps: int) -> Iterator[float]:
    """``np.linspace(0, pi/2, steps)``, bit for bit, one angle at a time:
    point i is at ``i * step`` and the last one exactly at pi/2, so no angle
    is computed before its point runs."""
    try:
        step = (math.pi / 2) / (steps - 1)
    except OverflowError:  # steps - 1 has no float value
        raise InputError("steps is too large to space the sweep angles") from None
    for i in range(steps - 1):
        yield i * step
    yield math.pi / 2


def cmd_sweep(r: SimpleNamespace) -> int:
    u, w = r.frame.sweep
    values = array("d")  # (analytic, empirical) per point; rows are built as written
    for i, angle in enumerate(_sweep_angles(r.steps)):
        state = state_vector(np.cos(angle) * u + np.sin(angle) * w)
        analytic = _self_distribution(r, state).probs[0]
        emp, _ = run_trials(_run_config(r, state, trial_state(r.seed, i)))
        values.extend((analytic, float(emp.frequencies[0])))
    pairs = iter(values)
    rows = ([angle, analytic, f0, *wald_interval(f0, r.trials)]
            for angle, analytic, f0 in zip(_sweep_angles(r.steps), pairs, pairs))
    _write_rows(r.out, SWEEP_HEADER, rows)
    print(
        f"sweep model={r.model.name} weight={_weight_field(r) or '-'} steps={r.steps} "
        f"trials-per-point={r.trials} seed={r.seed}",
        file=sys.stderr,
    )
    return 0


def cmd_framecheck(r: SimpleNamespace) -> int:
    if r.seed < 0:  # numpy's generator takes no negative seed
        raise InputError(f"framecheck seed must be >= 0, got {r.seed}")
    if r.measure == ROD.name:
        measure = rod.marginal_measure(canonicalize(r.state), rod.WEIGHTS[r.weight])
        label = f"{r.measure}:{r.weight}"
    else:
        measure = gleason_measure(state_vector(r.state.array))
        label = r.measure
    rng = np.random.default_rng(r.seed)
    sums = array("d")  # one float per frame; its --out row is built as it is written

    def frames() -> Iterator[Frame]:
        # each frame's --out sum is taken as it is drawn: no frame is kept
        for _ in range(r.trials):
            f = random_frame(rng)
            if r.out is not None:
                sums.append(sum(measure(f, axis) for axis in range(3)))
            yield f

    report = frame_additivity_check(measure, frames())
    print(
        f"framecheck measure={label} frames={report.frames_checked} "
        f"max_deviation={_fmt(report.max_deviation)} "
        f"additive_within_1e-12={'yes' if report.additive else 'no'}"
    )
    if r.out is not None:
        rows = ((i, total, abs(total - 1.0)) for i, total in enumerate(sums))
        _write_rows(r.out, FRAMECHECK_HEADER, rows)
    return 0


# Each command: its function, its help line, and the options it reads, in
# the order they are resolved (a frame is parsed for the model before it).
COMMANDS = {
    "analytic": (cmd_analytic, "exact outcome distribution",
                 ("model", "weight", "state", "frame", "out")),
    "simulate": (cmd_simulate, "Monte Carlo run with chi-square verdict",
                 ("model", "weight", "state", "frame", "trials", "seed", "alpha",
                  "expect", "out", "workers")),
    "sweep": (cmd_sweep, "state-angle sweep over [0, pi/2]",
              ("model", "weight", "state", "frame", "trials", "seed", "out",
               "workers", "steps")),
    "framecheck": (cmd_framecheck, "frame-additivity check over random frames",
                   ("measure", "weight", "state", "trials", "seed", "out")),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command line's parser, built once per process: a parse keeps no
    state in it, so every ``main`` call reads the same one."""
    parser = argparse.ArgumentParser(
        prog="bornsim",
        description="Exact and Monte Carlo outcome statistics for the "
        "sphere, disk (ks) and rod measurement models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, summary, names) in COMMANDS.items():
        p = sub.add_parser(command, help=summary)
        for name in names:
            opt = OPTIONS[name]
            p.add_argument(f"--{name}", choices=opt.choices or None, help=opt.help)
        p.add_argument("--config", help="key = value file; keys are option names")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    run, _, names = COMMANDS[args.command]
    try:
        r = _resolve(args, names)
        with _opened_out(r.out) as out:
            r.out = out
            return run(r)
    except ValueError as exc:  # InputError and the library's input checks
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
