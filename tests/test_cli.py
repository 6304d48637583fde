import csv
import math
import re
import subprocess
import sys
import warnings

import pytest

from bornsim import rod
from bornsim.cli import main
from bornsim.geometry import Frame, identity_frame, unit_vector
from bornsim.models import MODELS
from bornsim.stats import RunConfig, run_trials

SQ2 = 1.0 / math.sqrt(2.0)
BENCH = f"{SQ2},0.5,0.5"


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


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


class TestSweep:
    def test_step_count_must_be_at_least_two(self, capsys):
        assert main(["sweep", "--model", "rod", "--state", "1,0,0",
                     "--steps", "1"]) == 2
        assert "steps" in capsys.readouterr().err

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
