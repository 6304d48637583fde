"""Tests of the benchmark itself: metrics printed, checks that can fail, tracing.

    python3 -m pytest bench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

import bornsim.cli as cli
import bornsim.stats as stats
import run
import spans
import workloads

ROOT = run.ROOT
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(tmp_root, workload, trace, seconds="0.1"):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", seconds, "--trace", str(trace)],
        cwd=tmp_root, capture_output=True, text=True, timeout=170,
    )


def _one_op_per_kind():
    return [workloads.KINDS[kind](5) for kind in workloads.KINDS]


@pytest.fixture
def runner(tmp_path):
    return run.Runner(cli, workloads.load_golden(), out_dir=tmp_path)


def test_spec_names_and_units_match_the_runner():
    e2e = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert e2e == run.E2E_UNITS
    assert layer == run.layer_units()
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.PATTERNS)
    assert set(run.WORK_UNIT) == set(workloads.PATTERNS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(workloads.PATTERNS))
def test_smoke_run_prints_every_metric_with_its_unit(workload, trace):
    proc = _bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    units = run.layer_units() if trace else run.E2E_UNITS
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    text = "\n".join(lines[:-1])
    for name, unit in units.items():
        assert any(ln.startswith(name + " ") and ln.endswith(" " + unit)
                   for ln in lines[:-1]), name
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
        assert "failed_ratio   0 ratio" in text
    env = json.loads(next(ln[4:] for ln in lines if ln.startswith("env ")))
    for key in ("nproc", "cpu", "python", "numpy", "git_commit", "op_seeds", "workers"):
        assert key in env


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", "results"))
    proc = _bench(tmp_path, "mc-rod", 0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == "" or not proc.stdout.strip().splitlines()[-1].startswith("{")


def test_same_seed_same_operations_and_work():
    for w in workloads.PATTERNS:
        assert workloads.op_list(w, 3) == workloads.op_list(w, 3)
        a, b = workloads.op_list(w, 3), workloads.op_list(w, 4)
        assert [op.kind for op in a] == [op.kind for op in b]
        for unit in ("trials", "points", "frames"):
            assert sum(getattr(op, unit) for op in a) == sum(getattr(op, unit) for op in b)


def test_every_pool_operation_has_a_golden_digest():
    golden = workloads.load_golden()
    for kind in workloads.KINDS:
        for op in workloads.pool(kind):
            assert golden[op.key]["rc"] == op.expect_rc
    assert " ".join(workloads.SETUP_ARGV) in golden
    assert any(op.trials % (1 << 18) for k in workloads.KINDS for op in workloads.pool(k)
               if op.argv[0] == "simulate")


def test_recorded_operations_pass(runner):
    for op in _one_op_per_kind():
        _, ok = runner.run(op)
        assert ok, runner.errors
    assert runner.failed == 0


class _FakeCli:
    """Stands in for bornsim.cli: runs the real command, then spoils it."""

    def __init__(self, rc=None, tamper=None):
        self.rc, self.tamper = rc, tamper

    def main(self, argv):
        rc = cli.main(argv)
        if self.tamper:
            path = argv[argv.index("--out") + 1]
            with open(path, "rb") as fh:
                data = fh.read()
            with open(path, "wb") as fh:
                fh.write(self.tamper(data))
        return rc if self.rc is None else self.rc


def _bump_first_count(data: bytes) -> bytes:
    lines = data.decode().split("\n")
    cells = lines[1].split(",")
    cells[7] = str(int(cells[7]) + 1)
    lines[1] = ",".join(cells)
    return "\n".join(lines).encode()


@pytest.mark.parametrize("golden", [True, False], ids=["golden", "schema"])
@pytest.mark.parametrize("spoil", [
    {"rc": 1},
    {"tamper": _bump_first_count},
    {"tamper": lambda b: b[: len(b) // 2]},
], ids=["exit-code", "altered-csv", "truncated-csv"])
def test_a_wrong_operation_counts_as_failed(tmp_path, golden, spoil):
    # a short rod run, so the test is quick; its golden entry is recorded here
    op = workloads.KINDS["rod-quantum"](3)
    op = workloads.Op(op.kind, tuple(a if a != "2000000" else "20001" for a in op.argv),
                      op.expect_rc, 20001, 0, 0)
    runner = run.Runner(_FakeCli(**spoil), {}, out_dir=tmp_path)
    if golden:
        rc, out, _ = run.Runner(cli, {}, out_dir=tmp_path).execute(op)
        runner.golden = {op.key: {"rc": rc, "sha256": workloads.digest(out)}}
    _, ok = runner.run(op)
    assert not ok
    assert (runner.attempted, runner.failed) == (1, 1)


def test_schema_check_accepts_real_output_of_every_kind(tmp_path):
    runner = run.Runner(cli, {}, out_dir=tmp_path)
    for op in _one_op_per_kind():
        rc, out, _ = runner.execute(op)
        assert workloads.check(op, rc, out, {}) is None, op.key


def test_tampered_golden_makes_the_run_incorrect(monkeypatch, capsys):
    golden = {k: {"rc": v["rc"], "sha256": "0" * 64} for k, v in workloads.load_golden().items()}
    monkeypatch.setattr(workloads, "load_golden", lambda: golden)
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    assert run.main(["--workload", "framecheck-rod", "--seed", "1",
                     "--seconds", "0.01", "--trace", "0"]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] > 0


def test_traced_wrappers_return_the_same_bytes(tmp_path):
    plain = run.Runner(cli, {}, out_dir=tmp_path)
    tracer = spans.Tracer()
    original = stats.run_trials
    for op in _one_op_per_kind():
        want = plain.execute(op)[:2]
        with tracer.installed():
            assert stats.run_trials is not original
            got = plain.execute(op)[:2]
        assert got == want, op.key
        assert tracer.take(), op.key
    assert stats.run_trials is original and cli.run_trials is original


def _counts(op, tmp_path):
    runner = run.Runner(cli, workloads.load_golden(), out_dir=tmp_path)
    tracer = spans.Tracer()
    with tracer.installed():
        _, ok = runner.run(op)
    assert ok
    return spans.summarize(tracer.take())


def test_counters_repeat_exactly_and_match_the_code(tmp_path):
    sweep = workloads.KINDS["sweep-rod"](2)
    a, b = _counts(sweep, tmp_path), _counts(sweep, tmp_path)
    for name in ("streams.trial_uniforms", "stats.run_trials", "rod.rod_analytic"):
        assert (a[name].calls, a[name].draws) == (b[name].calls, b[name].draws)
    # one chunk per point plus ten discarded TrialRecords, each its own draw
    assert a["stats.run_trials"].calls == 65
    assert a["streams.trial_uniforms"].calls == 65 * 11
    assert a["streams.trial_uniforms"].draws == 65 * (2000 + 10) * 2

    fc = _counts(workloads.KINDS["fc-rod-variant"](2), tmp_path)
    assert fc["streams.trial_uniforms"].calls == 0
    assert fc["geometry.random_frame"].calls == 150
    assert fc["rod.rod_analytic"].calls == 150 * 3 * 2

    mc = _counts(workloads.KINDS["rod-quantum"](2), tmp_path)
    chunks = -(-2_000_000 // (1 << 18))
    assert mc["streams.trial_uniforms"].calls == chunks + 10
    assert mc["rod.outcomes_from_uniforms"].trials == 2_000_000 + 10
    assert 0.0 <= 1 - mc["stats.run_trials"].child_busy_ns / mc["stats.run_trials"].capacity_ns < 1


def test_self_time_subtracts_the_union_of_children():
    def span(layer, start, end, parent=None, thread=1):
        s = spans.Span()
        s.layer, s.start, s.end, s.parent, s.thread = layer, start, end, parent, thread
        s.trials = s.draws = 0
        s.workers = 2
        return s

    root = span("stats.run_trials", 0, 100)
    kids = [span("streams.trial_uniforms", 10, 50, root, 2),
            span("streams.trial_uniforms", 30, 70, root, 3),
            span("rod.outcomes_from_uniforms", 80, 90, root, 2)]
    st = spans.summarize([*kids, root])
    assert st["stats.run_trials"].self_ns == 100 - 60 - 10
    assert st["stats.run_trials"].child_busy_ns == 40 + 40 + 10
    assert st["stats.run_trials"].capacity_ns == 200
    assert st["streams.trial_uniforms"].calls == 2


def test_speedup_weights_kinds_by_reference_time():
    a, b = workloads.KINDS["sphere2d"](1), workloads.KINDS["ks"](1)
    ops = [a, b] * 4
    # kind a unchanged (1 s each), kind b twice as fast (2 s -> 1 s)
    pairs = [(a, 1.0, 1.0), (b, 1.0, 2.0)] * 5 + [(a, 1.1, 1.0)]
    total, per_kind = run.speedup(pairs, ops)
    assert per_kind == {"sphere2d": 1.0, "ks": 2.0}
    assert total == pytest.approx((4 * 1.0 + 4 * 2.0) / (4 * 1.0 + 4 * 1.0))
