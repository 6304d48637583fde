"""bornsim benchmark: one closed-loop client driving the ``bornsim`` CLI.

    python3 bench/run.py --workload mc-rod --seed 1 --seconds 20 --trace 0

Run from anywhere; the program is imported from ``src/`` next to this
directory, never from an installed copy. One client calls
``bornsim.cli.main`` in this process, each operation starting when the
previous one has returned, for ``--seconds`` seconds; every operation's
exit code and CSV bytes are checked against ``golden.json``.

``--trace 0`` reports the end-to-end metrics. Each operation is timed
next to the same operation run by ``reference/bornsim_ref``, a frozen copy
of the program at commit bc166fb, in alternating order, so that both see the
same load on a shared host; ``speedup_vs_v0`` compares the two. ``--trace
1`` alternates an untraced and a traced pass over the workload's operation
list and reports per-layer spans (``spans.py``), per pass of the list, plus
the tracing overhead. The last line of standard output is the JSON result;
the lines before it are the same figures for people, with absolute
throughput and latency, the machine, the software versions and the
operations run.

Exit codes: 0 with a result (``"correct": false`` if any output was wrong),
2 when ``src/bornsim`` is missing or the arguments are invalid.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
REFERENCE = BENCH / "reference"
OUT_DIR = ROOT / ".bench_out"
if str(BENCH) not in sys.path:
    sys.path.insert(0, str(BENCH))

import spans  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 6

# The work unit each workload's ``work_per_s`` counts.
WORK_UNIT = {
    "mc-rod": "trials",
    "mc-two-outcome": "trials",
    "sweep-fine": "points",
    "framecheck-rod": "frames",
}

E2E_UNITS = {
    "speedup_vs_v0": "x",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

LAYER_EXTRA_UNITS = {
    "streams.trial_uniforms.draws": "count",
    "streams.trial_uniforms.draws_per_s": "1/s",
    "streams.trial_uniforms.draws_per_trial": "draws/trial",
    "rod.outcomes_from_uniforms.trials_per_s": "1/s",
    "disk.up_indices.trials_per_s": "1/s",
    "sphere.outcome_indices.trials_per_s": "1/s",
    "stats.run_trials.idle_frac": "fraction",
    "rod.rod_analytic.us_per_call": "us",
    "quantum.frame_additivity_check.us_per_call": "us",
    "geometry.random_frame.us_per_call": "us",
    "trace.overhead_frac": "fraction",
}


def layer_units() -> dict[str, str]:
    units = {}
    for layer in spans.LAYERS:
        units[f"{layer.name}.calls"] = "count"
        units[f"{layer.name}.busy_s"] = "s"
        units[f"{layer.name}.self_s"] = "s"
    units.update(LAYER_EXTRA_UNITS)
    return units


class Runner:
    """Runs operations one at a time through ``bornsim.cli.main`` and checks them."""

    def __init__(self, cli, golden: dict, out_dir: Path = OUT_DIR):
        self.cli = cli
        self.golden = golden
        out_dir.mkdir(exist_ok=True)
        self.out = out_dir / "op.csv"
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def execute(self, op: workloads.Op) -> tuple[int, bytes, float]:
        """(exit code, CSV bytes, wall seconds of the CLI call)."""
        self.out.unlink(missing_ok=True)
        argv = [*op.argv, "--out", str(self.out)]
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            start = time.perf_counter()
            try:
                rc = self.cli.main(argv)
            except SystemExit as exc:
                rc = exc.code if isinstance(exc.code, int) else 1
            except Exception:  # an operation that crashes is a failed operation
                rc = -1
                self.errors.append(f"{op.key}: {traceback.format_exc(limit=3)}")
            elapsed = time.perf_counter() - start
        out = self.out.read_bytes() if self.out.exists() else b""
        return rc, out, elapsed

    def record(self, key: str, error: str | None) -> bool:
        self.attempted += 1
        if error is not None:
            self.failed += 1
            self.errors.append(f"{key}: {error}")
        return error is None

    def run(self, op: workloads.Op) -> tuple[float, bool]:
        rc, out, elapsed = self.execute(op)
        return elapsed, self.record(op.key, workloads.check(op, rc, out, self.golden))

    def run_pass(self, ops) -> float:
        return sum(self.run(op)[0] for op in ops)


def measure_setup(runner: Runner, repeats: int) -> list[float]:
    """Wall times of fresh interpreters importing bornsim.cli and answering ``analytic``."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable, "-m", "bornsim.cli", *workloads.SETUP_ARGV]
    key = " ".join(workloads.SETUP_ARGV)
    want = runner.golden.get(key)
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, timeout=120)
        times.append(time.perf_counter() - start)
        error = None
        if proc.returncode != 0:
            error = f"exit code {proc.returncode}: {proc.stderr.decode(errors='replace')}"
        elif want is not None and workloads.digest(proc.stdout) != want["sha256"]:
            error = "analytic output differs from the golden digest"
        runner.record("setup " + key, error)
    return times


def warm_up(runner: Runner, ops) -> None:
    """One untimed, checked run of each kind, so lazy set-up is not timed."""
    seen = set()
    for op in ops:
        if op.kind not in seen:
            seen.add(op.kind)
            runner.run(op)


def percentile(values: list[float], pct: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def speedup(pairs, ops) -> tuple[float, dict[str, float]]:
    """Pass throughput of the program over that of the reference, from paired times.

    ``pairs`` holds (op, program seconds, reference seconds). Each kind's
    speed-up is the median of its paired ratios; kinds are combined by the
    reference's time per pass, so the result is how much faster a whole
    pass runs, and it does not jump when two kinds' ratios differ.
    """
    ratios: dict[str, list[float]] = {}
    ref_times: dict[str, list[float]] = {}
    for op, cur, ref in pairs:
        ratios.setdefault(op.kind, []).append(ref / cur)
        ref_times.setdefault(op.kind, []).append(ref)
    per_kind = {k: statistics.median(v) for k, v in ratios.items()}
    weight = {k: sum(op.kind == k for op in ops) * statistics.median(ref_times[k])
              for k in per_kind}
    total = sum(weight.values()) / sum(weight[k] / per_kind[k] for k in per_kind)
    return total, per_kind


def end_to_end(workload: str, runner: Runner, ops, seconds: float, report) -> dict:
    measure_setup(runner, 1)  # untimed: fills the file cache
    # Half the set-up runs come before the timed loop and half after, so the
    # median covers the same stretch of host load as the loop.
    setup = measure_setup(runner, SETUP_REPEATS // 2)
    runner.run_pass(ops)  # untimed warm-up; the peak memory is the program's own
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    sys.path.insert(0, str(REFERENCE))
    import bornsim_ref.cli

    ref = Runner(bornsim_ref.cli, runner.golden)
    warm_up(ref, ops)
    pairs = []
    deadline = time.perf_counter() + seconds
    i = 0
    while time.perf_counter() < deadline:
        op = ops[i % len(ops)]
        if i % 2:
            ref_s = ref.run(op)[0]
            cur_s, ok = runner.run(op)
        else:
            cur_s, ok = runner.run(op)
            ref_s = ref.run(op)[0]
        pairs.append((op, cur_s, ref_s, ok))
        i += 1
    setup += measure_setup(runner, SETUP_REPEATS - SETUP_REPEATS // 2)
    total, per_kind = speedup([(op, c, r) for op, c, r, _ in pairs], ops)
    metrics = {"speedup_vs_v0": total, "peak_rss_mb": peak_rss_mb,
               "setup_s": statistics.median(setup)}

    busy = sum(c for _, c, _, _ in pairs)
    rates = {
        unit: sum(getattr(op, unit) for op, _, _, ok in pairs if ok) / busy
        for unit in ("trials", "points", "frames")
    }
    times = [c for _, c, _, _ in pairs]
    n = len(times)
    # The highest percentile with at least ten samples beyond it.
    tail = max((p for p in (50, 75, 90, 95, 99) if n * (100 - p) >= 1000), default=50)
    report(f"work_per_s     {rates[WORK_UNIT[workload]]:.6g} 1/s ({WORK_UNIT[workload]})")
    for unit, rate in rates.items():
        report(f"{unit}_per_s".ljust(15) + f"{rate:.6g} 1/s")
    report(f"failed_ratio   {runner.failed / max(runner.attempted, 1):.6g} ratio "
           f"({runner.failed} of {runner.attempted})")
    report(f"op_s.p50       {statistics.median(times):.6g} s")
    if tail > 50:
        report(f"op_s.p{tail}".ljust(15) + f"{percentile(times, tail):.6g} s "
               f"(n={n}, {sum(t > percentile(times, tail) for t in times)} beyond)")
    report("speedup by kind " + " ".join(f"{k}={v:.4f}" for k, v in per_kind.items()))
    report(f"setup_s runs   {' '.join(f'{t:.4f}' for t in setup)}")
    if ref.failed:
        runner.errors.extend(f"reference {e}" for e in ref.errors)
    return metrics


def traced(runner: Runner, ops, seconds: float, span_path: Path, report) -> dict:
    tracer = spans.Tracer()
    warm_up(runner, ops)
    totals = {layer.name: spans.LayerStats() for layer in spans.LAYERS}
    calls_per_pass = []
    kept = []
    untraced_s = traced_s = 0.0
    deadline = time.perf_counter() + seconds
    while True:
        untraced_s += runner.run_pass(ops)
        with tracer.installed():
            traced_s += runner.run_pass(ops)
        pass_spans = tracer.take()
        kept.extend(pass_spans)
        stats = spans.summarize(pass_spans)
        calls_per_pass.append({k: (s.calls, s.draws) for k, s in stats.items()})
        for name, st in stats.items():
            totals[name].add(st)
        if time.perf_counter() >= deadline:
            break
    passes = len(calls_per_pass)
    spans.dump(kept, span_path)

    def rate(num, ns):
        return num / (ns / 1e9) if ns else 0.0

    first = calls_per_pass[0]
    metrics = {}
    for name, tot in totals.items():
        metrics[f"{name}.calls"] = first[name][0]
        metrics[f"{name}.busy_s"] = tot.busy_ns / passes / 1e9
        metrics[f"{name}.self_s"] = tot.self_ns / passes / 1e9
    tu = totals["streams.trial_uniforms"]
    metrics["streams.trial_uniforms.draws"] = first["streams.trial_uniforms"][1]
    metrics["streams.trial_uniforms.draws_per_s"] = rate(tu.draws, tu.busy_ns)
    metrics["streams.trial_uniforms.draws_per_trial"] = tu.draws / tu.trials if tu.trials else 0.0
    for kernel in ("rod.outcomes_from_uniforms", "disk.up_indices", "sphere.outcome_indices"):
        k = totals[kernel]
        metrics[f"{kernel}.trials_per_s"] = rate(k.trials, k.busy_ns)
    rt = totals["stats.run_trials"]
    metrics["stats.run_trials.idle_frac"] = (
        1.0 - rt.child_busy_ns / rt.capacity_ns if rt.capacity_ns else 0.0
    )
    for name in ("rod.rod_analytic", "quantum.frame_additivity_check", "geometry.random_frame"):
        t = totals[name]
        metrics[f"{name}.us_per_call"] = t.busy_ns / t.calls / 1e3 if t.calls else 0.0
    metrics["trace.overhead_frac"] = traced_s / untraced_s - 1.0

    repeat = all(c == first for c in calls_per_pass)
    report(f"traced passes  {passes} (untraced {untraced_s:.3f} s, traced {traced_s:.3f} s)")
    report(f"counts repeat  {'yes' if repeat else 'NO'} across passes")
    report(f"spans          {len(kept)} written to {span_path.relative_to(ROOT)}")
    return metrics


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str | None:
    """HEAD of the checkout's own git directory, if it has one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "bornsim").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment(args, ops) -> dict:
    import numpy as np

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_commit": git_commit(),
        "src_sha256": src_digest(),
        "workers": sorted({int(op.flag("--workers")) if "--workers" in op.argv else 1
                           for op in ops}),
        "op_seeds": [int(op.flag("--seed")) for op in ops],
    }


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.PATTERNS))
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = p.parse_args(argv)
    if not args.seconds > 0:
        p.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "bornsim" / "cli.py").is_file():
        print(f"error: no bornsim sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import bornsim.cli as cli

    if Path(cli.__file__).resolve().parent != SRC / "bornsim":
        print(f"error: bornsim imported from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 2

    ops = workloads.op_list(args.workload, args.seed)
    runner = Runner(cli, workloads.load_golden())

    def report(line: str) -> None:
        print(line, flush=True)

    report(f"bornsim benchmark: workload={args.workload} seed={args.seed} "
           f"seconds={args.seconds:g} trace={args.trace}")
    report("env " + json.dumps(environment(args, ops)))
    report(f"operations per pass ({len(ops)}):")
    for op in ops:
        report(f"  bornsim {op.key}")

    if args.trace:
        span_path = OUT_DIR / f"spans-{args.workload}-{args.seed}.json"
        values = traced(runner, ops, args.seconds, span_path, report)
        units = layer_units()
    else:
        values = end_to_end(args.workload, runner, ops, args.seconds, report)
        units = E2E_UNITS
    for name, unit in units.items():
        report(f"{name:45s} {values[name]:.6g} {unit}")
    for error in runner.errors[:20]:
        report(f"FAILED {error}")
    result = {
        "correct": runner.failed == 0 and not runner.errors,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
