import csv
import hashlib
import math
import re
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

from bornsim import cli, native, rod
from bornsim.cli import InputError, _sweep_angles, main
from bornsim.geometry import Frame, UnitVector, identity_frame, normalize, unit_vector
from bornsim.models import MODELS
from bornsim.stats import RunConfig, run_trials

SQ2 = 1.0 / math.sqrt(2.0)
BENCH = f"{SQ2},0.5,0.5"


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _counted(monkeypatch, module, name):
    """Replace ``module.name`` with a wrapper that records each call's
    arguments; returns the list of them."""
    calls = []
    original = getattr(module, name)

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


class TestAnalytic:
    def test_rod_eigenstate(self, capsys):
        assert main(["analytic", "--model", "rod", "--state", "1,0,0",
                     "--frame", "identity"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        values = {l.split()[0]: float(l.split()[1]) for l in lines}
        assert values == {"o1": 1.0, "o2": 0.0, "o3": 0.0}

    def test_sphere_sixty_degrees(self, capsys):
        state = f"0.5,{math.sqrt(3) / 2},0"
        assert main(["analytic", "--model", "sphere2d", "--state", state]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        values = {l.split()[0]: float(l.split()[1]) for l in lines}
        assert values["o1"] == pytest.approx(0.75, abs=1e-12)
        assert values["o2"] == pytest.approx(0.25, abs=1e-12)

    def test_rod_uniform_variant(self, capsys):
        assert main(["analytic", "--model", "rod", "--weight", "uniform-variant",
                     "--state", BENCH]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        probs = [float(l.split()[1]) for l in lines]
        # table values carry 12 significant digits
        assert sum(probs) == pytest.approx(1.0, abs=1e-9)
        assert probs[2] == pytest.approx(0.292015924466717, abs=1e-9)

    def test_csv_output(self, tmp_path, capsys):
        out = tmp_path / "analytic.csv"
        assert main(["analytic", "--model", "ks", "--state", "0,0,1",
                     "--frame", "1,0,0", "--out", str(out)]) == 0
        capsys.readouterr()
        rows = read_csv(out)
        assert [r["outcome"] for r in rows] == ["up", "down"]
        assert float(rows[0]["probability"]) == pytest.approx(0.5, abs=1e-12)
        assert rows[0]["frame_id"] == "custom"

    def test_invalid_state_exits_2(self, capsys):
        assert main(["analytic", "--model", "rod", "--state", "0,0,0"]) == 2
        assert "error" in capsys.readouterr().err


class TestSimulate:
    def test_quantum_self_check_passes(self, tmp_path, capsys):
        out = tmp_path / "sim.csv"
        code = main(["simulate", "--model", "rod", "--state", BENCH,
                     "--trials", "200000", "--seed", "11", "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 0
        assert "verdict=PASS" in captured.err
        rows = read_csv(out)
        assert len(rows) == 3
        assert sum(int(r["count"]) for r in rows) == 200000
        for r in rows:
            assert float(r["ci_low"]) <= float(r["frequency"]) <= float(r["ci_high"])

    def test_variant_against_born_fails_with_exit_3(self, tmp_path, capsys):
        out = tmp_path / "sim.csv"
        code = main(["simulate", "--model", "rod", "--weight", "uniform-variant",
                     "--state", BENCH, "--trials", "1000000", "--seed", "12",
                     "--expect", "born", "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 3
        assert "verdict=FAIL" in captured.err

    def test_single_trial_has_no_verdict(self, tmp_path, capsys):
        out = tmp_path / "one.csv"
        code = main(["simulate", "--model", "sphere2d", "--state", "0,1,0",
                     "--trials", "1", "--seed", "1", "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 0
        assert "no verdict" in captured.err
        assert "verdict=" not in captured.err
        rows = read_csv(out)
        assert sum(int(r["count"]) for r in rows) == 1

    def test_csv_bytes_are_reproducible(self, tmp_path, capsys):
        args = ["simulate", "--model", "ks", "--state", "0,0,1",
                "--frame", "random:5", "--trials", "50000", "--seed", "33"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()

    def test_csv_schema(self, tmp_path, capsys):
        out = tmp_path / "schema.csv"
        main(["simulate", "--model", "rod", "--state", BENCH,
              "--trials", "2000", "--seed", "4", "--out", str(out)])
        capsys.readouterr()
        header = out.read_text().splitlines()[0]
        assert header == ("model,weight,state_x,state_y,state_z,frame_id,"
                          "outcome,count,frequency,expected,ci_low,ci_high")

    def test_workers_flag_keeps_counts(self, tmp_path, capsys):
        args = ["simulate", "--model", "rod", "--state", BENCH,
                "--trials", "400000", "--seed", "21"]
        a, b = tmp_path / "w1.csv", tmp_path / "w8.csv"
        assert main(args + ["--workers", "1", "--out", str(a)]) == 0
        assert main(args + ["--workers", "8", "--out", str(b)]) == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()


# simulate --frame identity --seed 7 --workers 2: counts recorded from the
# program. The first three runs cross block edges inside a chunk, a chunk
# edge and a partial last block; the rod runs after them sit on the run
# constants' sentinels: tie 2 ineligible (t1 = 2.0), and a lone eligible
# stage-2 tie (r = 1.0) under both weights. The last two ks runs measure
# along +x a state far from it (p.q < 0), where the sign of t.q depends on
# the sign of cos(phi) in every quadrant of the azimuth.
PINNED_STATE = "0.7071067811865476,0.5,0.5"
PINNED_COUNTS = [
    pytest.param("rod", "quantum", PINNED_STATE, 300007,
                 {"o1": 149763, "o2": 75134, "o3": 75110}, id="rod"),
    pytest.param("ks", "quantum", PINNED_STATE, 200003,
                 {"up": 170911, "down": 29092}, id="ks"),
    pytest.param("sphere2d", "quantum", PINNED_STATE, 327683,
                 {"o1": 279947, "o2": 47736}, id="sphere2d"),
    pytest.param("rod", "quantum", "0,0,1", 300007,
                 {"o1": 0, "o2": 0, "o3": 300007}, id="rod-tie2-ineligible"),
    pytest.param("rod", "quantum", "0,0.6,0.8", 300007,
                 {"o1": 0, "o2": 107746, "o3": 192261}, id="rod-lone-tie-quantum"),
    pytest.param("rod", "uniform-variant", "0,0.6,0.8", 300007,
                 {"o1": 0, "o2": 128206, "o3": 171801}, id="rod-lone-tie-variant"),
    pytest.param("ks", "quantum", "-0.7071067811865476,0.5,0.5", 200003,
                 {"up": 29310, "down": 170693}, id="ks-far"),
    pytest.param("ks", "quantum", "-0.28,-0.96,0", 200003,
                 {"up": 71949, "down": 128054}, id="ks-far-in-plane"),
]


@pytest.mark.parametrize("fill", ["native", "numpy"])
@pytest.mark.parametrize("model, weight, state, trials, counts", PINNED_COUNTS)
def test_simulate_counts_are_pinned(fill, model, weight, state, trials, counts,
                                    tmp_path, capsys, request):
    if fill == "numpy":
        request.getfixturevalue("numpy_only")
    elif native.LIBRARY.load() is None:
        pytest.skip("the C library did not load: no C compiler")
    out = tmp_path / "sim.csv"
    assert main(["simulate", "--model", model, "--weight", weight, f"--state={state}",
                 "--frame", "identity", "--trials", str(trials), "--seed", "7",
                 "--workers", "2", "--out", str(out)]) == 0
    capsys.readouterr()
    assert {r["outcome"]: int(r["count"]) for r in read_csv(out)} == counts


# the state (0.3, -0.2, 0.9), normalized, and the identity frame, as CSV fields
STATE_FIELDS = "0.309426373878,-0.206284249252,0.928279121633,identity"


@pytest.mark.parametrize("argv, rows", [
    (["analytic", "--model", "rod", "--weight", "uniform-variant"],
     ["model,weight,state_x,state_y,state_z,frame_id,outcome,probability",
      f"rod,uniform-variant,{STATE_FIELDS},o1,0.203256252236",
      f"rod,uniform-variant,{STATE_FIELDS},o2,0.139768343682",
      f"rod,uniform-variant,{STATE_FIELDS},o3,0.656975404082"]),
    (["simulate", "--model", "ks", "--trials", "1000", "--seed", "5"],
     ["model,weight,state_x,state_y,state_z,frame_id,outcome,count,frequency,expected,"
      "ci_low,ci_high",
      f"ks,,{STATE_FIELDS},up,658,0.658,0.654713186939,0.619356908924,0.696643091076",
      f"ks,,{STATE_FIELDS},down,342,0.342,0.345286813061,0.303356908924,0.380643091076"]),
], ids=["analytic", "simulate"])
def test_csv_floats_carry_12_significant_digits(argv, rows, capsys):
    assert main([*argv, "--state", "0.3,-0.2,0.9", "--frame", "identity", "--out", "-"]) == 0
    assert capsys.readouterr().out.endswith("\n".join(rows) + "\n")


# sweep frame tokens by test id: 9 reals of one huge, one tiny and one
# ordinary row, and 3 reals, a direction only
_SWEEP_TOKENS = {"identity": "identity", **{f"random{k}": f"random:{k}" for k in range(1, 6)},
                 "huge-and-tiny-rows": "3e200,4e200,0,-4e-11,3e-11,0,0,0,7"}
_DIRECTION = {"direction": "0.3,-0.2,0.9"}


class TestSweep:
    def test_step_count_must_be_at_least_two(self, capsys):
        assert main(["sweep", "--model", "rod", "--state", "1,0,0",
                     "--steps", "1"]) == 2
        assert "steps" in capsys.readouterr().err

    @pytest.mark.parametrize("steps", [2, 3, 9, 26, 33, 65, 201, 12345])
    def test_angles_are_linspace_bit_for_bit(self, steps):
        # at 26 and 201 steps, (steps - 1) * step rounds off pi/2, so the
        # last point must be pi/2 itself, as linspace sets it
        want = np.linspace(0.0, np.pi / 2, steps).tolist()
        assert list(_sweep_angles(steps)) == want

    def test_a_huge_step_count_stores_no_angles(self, monkeypatch, capsys):
        # no array of 10**18 angles can be made, so the first point must run
        # before any angle but its own is computed
        def first_point(config):
            raise InputError("first point ran")

        monkeypatch.setattr(cli, "run_trials", first_point)
        assert main(["sweep", "--model", "sphere2d", "--state", "1,0,0",
                     "--trials", "10", "--steps", str(10**18)]) == 2
        assert "first point ran" in capsys.readouterr().err
        # a count with no float value is input the sweep cannot space
        assert main(["sweep", "--model", "sphere2d", "--state", "1,0,0",
                     "--trials", "10", "--steps", str(2**1024 + 1)]) == 2
        assert "error: steps is too large" in capsys.readouterr().err

    def test_rod_quantum_sweep_tracks_cosine_squared(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        code = main(["sweep", "--model", "rod", "--state", "1,0,0",
                     "--steps", "9", "--trials", "100000", "--seed", "123",
                     "--out", str(out)])
        capsys.readouterr()
        assert code == 0
        rows = read_csv(out)
        assert len(rows) == 9
        assert float(rows[0]["analytic"]) == 1.0
        assert float(rows[-1]["analytic"]) == pytest.approx(0.0, abs=1e-30)
        mid = rows[4]
        assert float(mid["analytic"]) == pytest.approx(0.5, abs=1e-9)
        for r in rows:
            angle = float(r["angle"])
            # CSV carries 12 significant digits
            assert float(r["analytic"]) == pytest.approx(
                math.cos(angle) ** 2, abs=1e-9
            )
            # empirical column within its confidence interval of analytic
            assert float(r["ci_low"]) - 1e-12 <= float(r["analytic"]) <= float(r["ci_high"]) + 1e-12

    def test_rod_sweep_computes_one_tree_per_point_and_keeps_one(
        self, monkeypatch, tmp_path, capsys
    ):
        # the analytic column and the run constants of a point read one
        # tree, and no point's tree outlives the next point
        cosines = _counted(monkeypatch, rod, "direction_cosines")
        assert main(["sweep", "--model", "rod", "--state", "1,0,0", "--steps", "1000",
                     "--trials", "1", "--seed", "4", "--out", str(tmp_path / "s.csv")]) == 0
        capsys.readouterr()
        assert len(cosines) == 1000
        assert rod._tree.cache_info().currsize <= 1

    def test_memory_grows_by_two_floats_per_point(self, tmp_path, capsys):
        # each point keeps only its analytic and empirical values until the
        # rows are written: 16 B in an array, where a five-element row list
        # per point would take about 280 B
        def peak(steps):
            tracemalloc.start()
            try:
                assert main(["sweep", "--model", "sphere2d", "--state", "1,0,0",
                             "--trials", "1", "--steps", str(steps), "--seed", "9",
                             "--out", str(tmp_path / f"s{steps}.csv")]) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(50)  # warm-up: the first call's imports and caches
        small, large = peak(400), peak(2400)
        capsys.readouterr()
        assert (large - small) / 2000 < 100

    @pytest.mark.parametrize("model,seed", [("sphere2d", 3), ("ks", 3), ("rod", 1)])
    def test_random_frame_reaches_the_angle_zero_endpoint(self, model, seed, tmp_path, capsys):
        # the angle-0 state equals the measurement axis up to rounding, which
        # pushed the cosine above 1 (two-outcome models) or the rod's stage-1
        # projection below the degeneracy threshold
        out = tmp_path / "sweep0.csv"
        assert main(["sweep", "--model", model, "--state", "1,0,0",
                     "--frame", f"random:{seed}", "--steps", "3",
                     "--trials", "2000", "--out", str(out)]) == 0
        capsys.readouterr()
        assert float(read_csv(out)[0]["analytic"]) == 1.0

    @pytest.mark.parametrize("model,name", [
        *((m, t) for m in ("sphere2d", "ks", "rod") for t in _SWEEP_TOKENS),
        *((m, t) for m in ("sphere2d", "ks") for t in _DIRECTION),
    ])
    def test_sweep_states_are_the_array_route_bit_for_bit(
        self, model, name, monkeypatch, tmp_path, capsys
    ):
        # each point's state is normalize(np.cos(a) * u + np.sin(a) * w) on
        # arrays, by float.hex, and its empirical cell is the frequency of
        # the counts that run_trials returned for it
        runs = []

        def recorded(cfg):
            runs.append((cfg.state, run_trials(cfg)[0]))
            return runs[-1][1], []

        monkeypatch.setattr(cli, "run_trials", recorded)
        token = {**_SWEEP_TOKENS, **_DIRECTION}[name]
        out = tmp_path / "sweep.csv"
        steps = 65
        assert main(["sweep", "--model", model, "--state", "1,0,0", "--frame", token,
                     "--steps", str(steps), "--trials", "40", "--seed", "2",
                     "--out", str(out)]) == 0
        capsys.readouterr()
        u, w = cli._parse_frame(token, MODELS[model].measurement).sweep
        assert len(runs) == steps
        for angle, (state, emp), row in zip(_sweep_angles(steps), runs, read_csv(out)):
            want = UnitVector(*normalize(np.cos(angle) * u + np.sin(angle) * w, "").tolist())
            assert [c.hex() for c in (state.x, state.y, state.z)] == [
                c.hex() for c in (want.x, want.y, want.z)]
            assert row["empirical"] == cli._fmt(float(emp.frequencies[0]))

    @pytest.mark.parametrize("count,total", [
        (0, 1), (1, 3), (1234, 2000), (2**53 - 1, 2**53), (2**53 + 1, 2**53 + 1),
        (2**53 + 1, 2**53 + 3), (3, 2**53 + 5), (2**62 + 2**10 + 1, 2**63 - 1),
        (2**63 - 1, 2**63 - 1),
    ])
    def test_sweep_empirical_quotient_is_numpys_at_any_size(self, count, total):
        # the empirical cell is float(c) / float(n): numpy's int64 -> float64
        # conversion, round to nearest even, then one divide; beyond 2**53
        # either conversion may round, and Python's exact c / n would differ
        gen = np.random.default_rng(total % 1000)
        pairs = [(count, total)]
        for _ in range(50):  # random pairs c <= n of the same size
            c, n = sorted(int(x) for x in gen.integers(1, total, size=2, endpoint=True))
            pairs.append((c, n))
        for c, n in pairs:
            assert (float(c) / float(n)).hex() == float((np.array([c, n - c]) / n)[0]).hex()

    def test_sphere_sweep_analytic_column(self, tmp_path, capsys):
        out = tmp_path / "sweep2.csv"
        assert main(["sweep", "--model", "sphere2d", "--state", "1,0,0",
                     "--steps", "5", "--trials", "50000", "--seed", "5",
                     "--out", str(out)]) == 0
        capsys.readouterr()
        rows = read_csv(out)
        for r in rows:
            angle = float(r["angle"])
            assert float(r["analytic"]) == pytest.approx(
                (1 + math.cos(angle)) / 2, abs=1e-9
            )


class TestFramecheck:
    def test_gleason_is_additive(self, capsys):
        assert main(["framecheck", "--measure", "gleason", "--state", BENCH,
                     "--trials", "300", "--seed", "9"]) == 0
        out = capsys.readouterr().out
        assert "additive_within_1e-12=yes" in out

    def test_rod_variant_reports(self, tmp_path, capsys):
        out = tmp_path / "fc.csv"
        assert main(["framecheck", "--measure", "rod", "--weight", "uniform-variant",
                     "--state", BENCH, "--trials", "40", "--seed", "9",
                     "--out", str(out)]) == 0
        capsys.readouterr()
        rows = read_csv(out)
        assert len(rows) == 40
        for r in rows:
            assert abs(float(r["sum"]) - 1.0) < 1e-12

    # sha256 of the --out CSV for the benchmark's first frame seed; the rod
    # rows go through rod_analytic, the gleason rows through one dot per axis
    @pytest.mark.parametrize("measure, digest", [
        (["rod", "--weight", "uniform-variant"],
         "3e50a7885a220347e7a8ab477b7696c8b996e7f1eb10b1a5d25bd49a14765351"),
        (["rod", "--weight", "quantum"],
         "0d570b83ae42e2930010bd20c1440776c16414c30890c3ba8655a66d9bb1a20d"),
        (["gleason"],
         "d018f96279066764391f99466bb0f5230db0244f4ac5382e930e431aa5d0de46"),
    ], ids=["rod-uniform-variant", "rod-quantum", "gleason"])
    def test_out_bytes_are_pinned(self, measure, digest, tmp_path, capsys):
        out = tmp_path / "fc.csv"
        assert main(["framecheck", "--measure", *measure,
                     "--state", "0.7071067811865476,0.5,0.5", "--trials", "150",
                     "--seed", "301", "--out", str(out)]) == 0
        capsys.readouterr()
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    def test_rod_out_computes_one_tree_per_frame(self, monkeypatch, tmp_path, capsys):
        # each frame's three marginals and its --out sum make six
        # rod_analytic calls on one (ray, frame, weight), one tree between them
        cosines = _counted(monkeypatch, rod, "direction_cosines")
        tables = _counted(monkeypatch, rod, "rod_analytic")
        assert main(["framecheck", "--measure", "rod", "--weight", "uniform-variant",
                     "--state", BENCH, "--trials", "150", "--seed", "301",
                     "--out", str(tmp_path / "fc.csv")]) == 0
        capsys.readouterr()
        assert len(tables) == 900
        assert len(cosines) == 150

    # a kept frame costs about 1.1 KB, so keeping them would peak above 1 MB
    @pytest.mark.parametrize("measure, frames", [
        (["gleason"], 3000),
        (["rod", "--weight", "uniform-variant"], 1000),
    ], ids=["gleason", "rod-uniform-variant"])
    def test_frames_are_dropped_once_checked(self, measure, frames, capsys):
        tracemalloc.start()
        try:
            assert main(["framecheck", "--measure", *measure, "--state", BENCH,
                         "--trials", str(frames), "--seed", "9"]) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert f"frames={frames} " in capsys.readouterr().out
        assert peak < 500_000

    def test_out_memory_grows_by_one_float_per_frame(self, tmp_path, capsys):
        # each frame keeps only its sum until the rows are written: 8 B in an
        # array, where three formatted strings per frame would take about 180 B
        def peak(frames):
            tracemalloc.start()
            try:
                assert main(["framecheck", "--measure", "gleason", "--state", BENCH,
                             "--trials", str(frames), "--seed", "9",
                             "--out", str(tmp_path / f"fc{frames}.csv")]) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        # warm-up at the larger size: the first call's imports, caches and C
        # library, and about 100 KB that a 50-frame run does not reach, are
        # paid before either measurement
        peak(2400)
        small, large = peak(400), peak(2400)
        capsys.readouterr()
        assert (large - small) / 2000 < 40

    def test_negative_seed_flag_is_rejected_by_name(self, tmp_path, capsys):
        out = tmp_path / "kept.csv"
        out.write_bytes(b"frame_index,sum,deviation\n0,1,0\n")
        assert main(["framecheck", "--state", "1,0,0", "--trials", "3",
                     "--seed", "-1", "--out", str(out)]) == 2
        assert "framecheck seed must be >= 0, got -1" in capsys.readouterr().err
        # the command failed before its rows, so the existing file is untouched
        assert out.read_bytes() == b"frame_index,sum,deviation\n0,1,0\n"

    def test_failed_command_leaves_no_new_out_file(self, tmp_path, capsys):
        out = tmp_path / "new.csv"
        assert main(["framecheck", "--state", "1,0,0", "--trials", "3",
                     "--seed", "-1", "--out", str(out)]) == 2
        assert "framecheck seed must be >= 0, got -1" in capsys.readouterr().err
        assert not out.exists()

    def test_existing_out_file_is_replaced_by_the_rows(self, tmp_path, capsys):
        out = tmp_path / "fc.csv"
        out.write_text("stale\n" * 100)
        assert main(["framecheck", "--state", "1,0,0", "--trials", "2", "--seed", "1",
                     "--out", str(out)]) == 0
        capsys.readouterr()
        assert out.read_text().splitlines()[0] == "frame_index,sum,deviation"
        assert len(read_csv(out)) == 2

    def test_negative_seed_env_var_is_rejected_by_name(self, capsys, monkeypatch):
        monkeypatch.setenv("BORNSIM_SEED", "-7")
        assert main(["framecheck", "--state", "1,0,0", "--trials", "3"]) == 2
        assert "framecheck seed must be >= 0, got -7" in capsys.readouterr().err


class TestInputHandling:
    def test_config_file_supplies_defaults(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(
            "# benchmark configuration\n"
            "model = rod\n"
            f"state = {BENCH}\n"
            "trials = 5000\n"
            "seed = 77\n"
        )
        out = tmp_path / "from_config.csv"
        code = main(["simulate", "--config", str(cfg), "--out", str(out)])
        capsys.readouterr()
        assert code == 0
        rows = read_csv(out)
        assert sum(int(r["count"]) for r in rows) == 5000

    def test_flags_override_config(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(f"model = rod\nstate = {BENCH}\ntrials = 5000\nseed = 77\n")
        out = tmp_path / "override.csv"
        assert main(["simulate", "--config", str(cfg), "--trials", "2500",
                     "--out", str(out)]) == 0
        capsys.readouterr()
        rows = read_csv(out)
        assert sum(int(r["count"]) for r in rows) == 2500

    def test_config_file_that_is_not_utf8_is_named(self, tmp_path, capsys):
        cfg = tmp_path / "utf16.cfg"
        cfg.write_bytes(b"\xff\xfe\x00")
        assert main(["analytic", "--config", str(cfg)]) == 2
        assert f"error: cannot read config file {cfg}: " in capsys.readouterr().err

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("bogus = 1\n")
        assert main(["simulate", "--config", str(cfg), "--model", "rod",
                     "--state", BENCH]) == 2
        assert "unknown key" in capsys.readouterr().err

    def test_seed_env_var_sets_default(self, tmp_path, capsys, monkeypatch):
        out1, out2 = tmp_path / "e1.csv", tmp_path / "e2.csv"
        monkeypatch.setenv("BORNSIM_SEED", "4242")
        assert main(["simulate", "--model", "rod", "--state", BENCH,
                     "--trials", "20000", "--out", str(out1)]) == 0
        monkeypatch.delenv("BORNSIM_SEED")
        assert main(["simulate", "--model", "rod", "--state", BENCH,
                     "--trials", "20000", "--seed", "4242", "--out", str(out2)]) == 0
        capsys.readouterr()
        assert out1.read_bytes() == out2.read_bytes()

    def test_malformed_state_and_frame_exit_2(self, capsys):
        assert main(["analytic", "--model", "rod", "--state", "1,2"]) == 2
        assert main(["analytic", "--model", "rod", "--state", "1,0,zebra"]) == 2
        assert main(["analytic", "--model", "rod", "--state", "1,0,0",
                     "--frame", "1,0,0,1,0,0,0,0,1"]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("command", ["analytic", "simulate"])
    def test_non_finite_frame_is_rejected_by_its_text(self, command, capsys):
        trials = ["--trials", "2000"] if command == "simulate" else []
        assert main([command, "--model", "sphere2d", "--state", "1,0,0",
                     "--frame", "nan,1,0", *trials]) == 2
        captured = capsys.readouterr()
        assert "'nan,1,0'" in captured.err
        assert "nan" not in captured.out and "dof" not in captured.err

    @pytest.mark.parametrize("model", ["sphere2d", "ks", "rod"])
    def test_huge_state_normalizes_without_overflow(self, model, tmp_path, capsys):
        results = []
        for i, state in enumerate(["1e308,1e308,0", "1,1,0"]):
            out = tmp_path / f"state{i}.csv"
            assert main(["analytic", "--model", model, "--state", state,
                         "--out", str(out)]) == 0
            results.append((capsys.readouterr(), out.read_bytes()))
        assert results[0] == results[1]

    def test_huge_frame_rows_normalize_without_overflow(self, capsys):
        outputs = []
        for frame in ["1e308,0,0,0,1e308,0,0,0,1e308", "1,0,0,0,1,0,0,0,1"]:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert main(["analytic", "--model", "rod", "--state", "1,0,0",
                             "--frame", frame]) == 0
            outputs.append(capsys.readouterr())
        assert outputs[0].out == outputs[1].out
        assert outputs[0].err == ""

    def test_huge_second_row_keeps_the_direction_sweep_plane(self, tmp_path, capsys):
        # a direction's sweep partner is the frame's second row made orthogonal
        # to it; the norm of that row must not overflow (a zero partner)
        results = []
        for i, frame in enumerate(["1,0,0,1e308,1e308,0,0,0,1", "1,0,0,1,1,0,0,0,1"]):
            out = tmp_path / f"sweep{i}.csv"
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert main(["sweep", "--model", "sphere2d", "--state", "1,0,0",
                             "--frame", frame, "--steps", "5", "--trials", "2000",
                             "--out", str(out)]) == 0
            results.append((capsys.readouterr(), out.read_bytes()))
        assert results[0] == results[1]

    # sha256 of the stdout of `sweep --model ks --state 1,0,0 --steps 3
    # --trials 2000 --seed 1`, recorded with --frame 1,0,0,1,1,0,0,0,1 and
    # with --frame 1,0,0,0,0,1,0,0,1, whose partner is the tangent basis's
    PARTNER = "fca8bb808ff694376bf09f77dd2074a7cc1af0045b709a9b16b9b8a3b6d7ebde"
    FALLBACK = "63d30589f471e1696a16317f96355d3242d3d55c7eeea1d10958fd3159fbbeba"

    @pytest.mark.parametrize("frame, digest", [
        pytest.param("1,0,0,1e-10,1e-10,0,0,0,1", PARTNER, id="row1-1e-10"),
        pytest.param("1,0,0,1,1,0,0,0,1", PARTNER, id="row1-1"),
        pytest.param("1,0,0,1e300,1e300,0,0,0,1", PARTNER, id="row1-1e300"),
        pytest.param("1,0,0,0,0,0,0,0,1", FALLBACK, id="row1-zero"),
        pytest.param("1,0,0,2,0,0,0,0,1", FALLBACK, id="row1-parallel"),
        pytest.param("1,0,0,0,0,1,0,0,1", FALLBACK, id="row1-tangent"),
    ])
    def test_direction_sweep_partner_does_not_depend_on_the_row_scale(
        self, frame, digest, capsys
    ):
        assert main(["sweep", "--model", "ks", "--state", "1,0,0", "--frame", frame,
                     "--steps", "3", "--trials", "2000", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_frame_reorthonormalized_within_tolerance(self, capsys):
        # slightly off-orthonormal input is accepted and cleaned up
        eps = 5e-7
        frame = f"1,{eps},0,0,1,0,0,0,1"
        assert main(["analytic", "--model", "rod", "--state", "1,0,0",
                     "--frame", frame]) == 0
        capsys.readouterr()

    def test_missing_model_or_state(self, capsys):
        assert main(["analytic", "--state", "1,0,0"]) == 2
        assert main(["analytic", "--model", "rod"]) == 2
        capsys.readouterr()

    def test_alpha_restricted_to_tabulated_values(self, capsys):
        assert main(["simulate", "--model", "rod", "--state", BENCH,
                     "--trials", "2000", "--alpha", "0.2"]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("argv, message", [
        (["analytic", "--model", "rod", "--state", "1,0,0", "--frame", "1,2,3,4"],
         "frame needs 9 components, got 4"),
        (["analytic", "--model", "rod", "--state", "1,0,0", "--frame", "random:abc"],
         "bad frame token 'random:abc'"),
        (["analytic", "--model", "sphere2d", "--state", "1,0,0", "--frame", "1,0,0,0"],
         "direction needs 3 components (or a 9-component frame), got 4"),
        (["simulate", "--model", "rod", "--state", BENCH, "--alpha", "abc"],
         "alpha must be a number, got 'abc'"),
    ])
    def test_malformed_option_text_is_rejected_by_name(self, argv, message, capsys):
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_config_line_without_equals_is_named(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("model = rod\nstate 1,0,0\n")
        assert main(["analytic", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err == f"error: {cfg}:2: expected 'key = value'\n"


class TestOptionSets:
    COMMAND_OPTIONS = {
        "analytic": {"model", "weight", "state", "frame", "out"},
        "simulate": {"model", "weight", "state", "frame", "trials", "seed", "alpha",
                     "expect", "out", "workers"},
        "sweep": {"model", "weight", "state", "frame", "trials", "seed", "out",
                  "workers", "steps"},
        "framecheck": {"measure", "weight", "state", "trials", "seed", "out"},
    }

    @pytest.mark.parametrize("command", list(COMMAND_OPTIONS))
    def test_each_command_takes_only_the_options_it_reads(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        flags = set(re.findall(r"--([a-z]+)", capsys.readouterr().out))
        assert flags == self.COMMAND_OPTIONS[command] | {"config", "help"}

    @pytest.mark.parametrize("argv", [
        ["analytic", "--model", "rod", "--state", "1,0,0", "--trials", "5"],
        ["sweep", "--model", "rod", "--state", "1,0,0", "--alpha", "0.05"],
        ["framecheck", "--state", "1,0,0", "--trials", "5", "--frame", "identity"],
        ["framecheck", "--state", "1,0,0", "--trials", "5", "--model", "rod"],
    ])
    def test_a_flag_the_command_does_not_read_exits_2(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def _run(self, argv, tmp_path, capsys, name):
        out = tmp_path / f"{name}.csv"
        code = main([*argv, "--out", str(out)])
        captured = capsys.readouterr()
        return code, captured.out, captured.err, out.read_bytes()

    def test_analytic_ignores_config_values_and_seed_it_does_not_read(
        self, tmp_path, capsys, monkeypatch
    ):
        argv = ["analytic", "--model", "rod", "--state", BENCH]
        plain = self._run(argv, tmp_path, capsys, "plain")
        assert plain[0] == 0
        cfg = tmp_path / "unread.cfg"
        cfg.write_text("alpha = 0.2\nworkers = 0\ntrials = 0\n")
        assert self._run([*argv, "--config", str(cfg)], tmp_path, capsys, "cfg") == plain
        monkeypatch.setenv("BORNSIM_SEED", "abc")
        assert self._run(argv, tmp_path, capsys, "env") == plain
        # the same values fail a command that reads them
        assert main(["simulate", "--model", "rod", "--state", BENCH,
                     "--config", str(cfg)]) == 2
        assert main(["simulate", "--model", "rod", "--state", BENCH]) == 2
        capsys.readouterr()

    def test_framecheck_ignores_a_config_workers_value(self, tmp_path, capsys):
        argv = ["framecheck", "--state", BENCH, "--trials", "20", "--seed", "3"]
        plain = self._run(argv, tmp_path, capsys, "plain")
        assert plain[0] == 0
        cfg = tmp_path / "workers.cfg"
        cfg.write_text("workers = 0\n")
        assert self._run([*argv, "--config", str(cfg)], tmp_path, capsys, "cfg") == plain


def test_model_and_weight_names_come_from_the_model_table(tmp_path, capsys):
    # CLI flags, config files and RunConfig accept the same names
    cfg = tmp_path / "names.cfg"
    for name, model in MODELS.items():
        assert main(["analytic", "--model", name, "--state", BENCH]) == 0
        cfg.write_text(f"model = {name}\nstate = {BENCH}\n")
        assert main(["analytic", "--config", str(cfg)]) == 0
        meas = identity_frame() if model.measurement is Frame else unit_vector(1, 0, 0)
        for weight in rod.WEIGHTS:
            run_trials(RunConfig(name, unit_vector(SQ2, 0.5, 0.5), meas, weight, trials=3))
    for weight in rod.WEIGHTS:
        assert main(["analytic", "--model", "rod", "--weight", weight, "--state", BENCH]) == 0
        cfg.write_text(f"model = rod\nweight = {weight}\nstate = {BENCH}\n")
        assert main(["analytic", "--config", str(cfg)]) == 0
    capsys.readouterr()

    for flag, bad in (("--model", "disk"), ("--weight", "uniform-variant-first-stage")):
        with pytest.raises(SystemExit):
            main(["analytic", "--model", "rod", "--state", BENCH, flag, bad])
        cfg.write_text(f"model = rod\nstate = {BENCH}\n{flag[2:]} = {bad}\n")
        assert main(["analytic", "--config", str(cfg)]) == 2
    frame = identity_frame()
    with pytest.raises(ValueError, match="model"):
        run_trials(RunConfig("disk", unit_vector(1, 0, 0), frame))
    with pytest.raises(ValueError, match="weight"):
        run_trials(RunConfig("rod", unit_vector(1, 0, 0), frame, "uniform-variant-first-stage"))
    capsys.readouterr()


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "bornsim.cli", "analytic", "--model", "rod",
         "--state", "1,0,0"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0] == "o1 1"


def test_one_parser_serves_every_call_as_a_fresh_one_would(capsys):
    # a call that fails to parse leaves nothing behind in the kept parser
    assert cli.build_parser() is cli.build_parser()
    argvs = (
        ["simulate", "--model", "rod", "--state", BENCH, "--steps", "3"],
        ["simulate", "--model", "rod", "--state", BENCH, "--trials", "2000", "--seed", "5"],
        ["sweep", "--model", "ks", "--state", "1,0,0", "--steps", "3", "--trials", "500",
         "--seed", "6"],
        ["analytic", "--model", "rod", "--weight", "uniform-variant", "--state", BENCH],
    )

    def run(argv):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    kept = [run(argv) for argv in argvs]
    fresh = []
    for argv in argvs:
        cli.build_parser.cache_clear()
        fresh.append(run(argv))
    assert kept == fresh
    assert [code for code, _, _ in kept] == [2, 0, 0, 0]
    assert "unrecognized arguments: --steps 3" in kept[0][2]


class TestUnopenableOut:
    """An --out path that cannot be opened exits 2, naming it, before any work."""

    @staticmethod
    def _no_trials(monkeypatch):
        def run_trials(*args, **kwargs):
            raise AssertionError("run_trials was called")

        monkeypatch.setattr("bornsim.cli.run_trials", run_trials)

    def _check(self, argv, out, capsys):
        assert main([*argv, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"error: cannot open --out file {str(out)!r}" in captured.err
        assert not out.exists()

    def test_analytic(self, tmp_path, capsys):
        self._check(["analytic", "--model", "rod", "--state", "1,0,0"],
                    tmp_path / "missing" / "a.csv", capsys)

    def test_simulate_runs_no_trial(self, tmp_path, capsys, monkeypatch):
        self._no_trials(monkeypatch)
        self._check(["simulate", "--model", "rod", "--state", BENCH, "--trials", "2000"],
                    tmp_path / "missing" / "s.csv", capsys)

    def test_sweep_runs_no_trial(self, tmp_path, capsys, monkeypatch):
        self._no_trials(monkeypatch)
        self._check(["sweep", "--model", "sphere2d", "--state", "1,0,0", "--steps", "3",
                     "--trials", "100"], tmp_path / "missing" / "w.csv", capsys)

    def test_framecheck(self, tmp_path, capsys):
        # a directory cannot be opened for writing either
        assert main(["framecheck", "--state", BENCH, "--trials", "3",
                     "--out", str(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"error: cannot open --out file {str(tmp_path)!r}" in captured.err
