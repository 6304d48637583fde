"""The native fill of ``streams.trial_uniforms`` against its numpy oracle.

The C library is built on the first draw of a process, into a per-user
cache; any failure leaves the process on the numpy fill. These tests check
that both fills give the same bits, that the CLI prints the same bytes on
both, and that the build is done once, keyed by its source and never loaded
from a directory another user can write.
"""

from __future__ import annotations

import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bornsim import streams
from bornsim.streams import _BLOCK, TrialStream, trial_uniforms

SRC = Path(__file__).resolve().parents[1] / "src"
STATE = "0.7071067811865476,0.5,0.5"
# (arguments, exit code); the report goes to stdout, or to stderr with --out
SIMULATE = [
    (["--model", "rod", "--frame", "identity", "--trials", "300007", "--workers", "2"], 0),
    (["--model", "rod", "--weight", "uniform-variant", "--expect", "born",
      "--frame", "random:3", "--trials", "200001", "--out", "out.csv"], 3),
    (["--model", "sphere2d", "--frame", "random:5", "--trials", "100003",
      "--out", "out.csv"], 0),
    (["--model", "ks", "--frame", "random:2", "--trials", "100003"], 0),
]


def _bits(a: np.ndarray) -> np.ndarray:
    return a.view(np.uint64)


@pytest.fixture
def cold_cache(tmp_path, monkeypatch):
    """An empty cache directory and a process that has not loaded the library yet."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    streams._load_native.cache_clear()
    yield tmp_path / "bornsim"
    # later tests load the library from the user's cache again
    streams._load_native.cache_clear()


@pytest.fixture
def native():
    if streams._native_fill() is None:
        pytest.skip("the native fill did not load: no C compiler")


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**64 - 1),
    start=st.integers(0, 2**64 - 1),
    n=st.integers(0, 3 * _BLOCK),
    ndraws=st.integers(0, 4),
)
def test_native_fill_matches_the_numpy_fill_bitwise(seed, start, n, ndraws):
    vec = trial_uniforms(seed, start, start + n, ndraws)
    ref = streams._numpy_uniforms(seed, start, start + n, ndraws)
    assert vec.shape == ref.shape == (ndraws, n)
    assert np.array_equal(_bits(vec), _bits(ref))
    # the scalar stream at the ends and at the block edges
    for i in {i for i in (0, n - 1, 4095, 4096, _BLOCK - 1, _BLOCK, 2 * _BLOCK) if 0 <= i < n}:
        stream = TrialStream(seed, start + i)
        assert [stream.random() for _ in range(ndraws)] == vec[:, i].tolist(), i


def test_no_compiler_gives_the_numpy_bytes(cold_cache, monkeypatch):
    monkeypatch.setattr(streams.shutil, "which", lambda name: None)
    assert streams._native_fill() is None
    got = trial_uniforms(2**64 - 1, 2**32 + 5, 2**32 + 5 + _BLOCK + 3, 2)
    want = streams._numpy_uniforms(2**64 - 1, 2**32 + 5, 2**32 + 5 + _BLOCK + 3, 2)
    assert np.array_equal(_bits(got), _bits(want))
    assert not cold_cache.exists()


def test_two_threads_on_a_cold_cache_build_once(native, cold_cache, monkeypatch):
    builds = []
    run = subprocess.run

    def slow_build(*args, **kwargs):
        builds.append(args)
        time.sleep(0.2)  # the other thread arrives while this one builds
        return run(*args, **kwargs)

    monkeypatch.setattr(subprocess, "run", slow_build)
    barrier = threading.Barrier(2)
    results = [None, None]

    def first_call(k):
        barrier.wait(timeout=10)
        results[k] = trial_uniforms(7, 0, 3 * _BLOCK, 2)

    threads = [threading.Thread(target=first_call, args=(k,)) for k in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120)
        assert not t.is_alive()
    assert len(builds) == 1
    assert [p.suffix for p in cold_cache.iterdir()] == [".so"]  # no temporary left
    want = streams._numpy_uniforms(7, 0, 3 * _BLOCK, 2)
    for got in results:
        assert np.array_equal(_bits(got), _bits(want))


def test_a_library_built_from_other_source_is_never_loaded(
    native, cold_cache, tmp_path, monkeypatch
):
    # the block offset off by one trial: a library that draws wrong values
    source = streams._SOURCE.read_text()
    wrong = source.replace("base + (uint64_t)a * GOLDEN", "base + (uint64_t)(a + 1) * GOLDEN")
    assert wrong != source
    mutant = tmp_path / "mutant.c"
    mutant.write_text(wrong)
    monkeypatch.setattr(streams, "_SOURCE", mutant)
    want = streams._numpy_uniforms(3, 0, 10, 1)
    assert not np.array_equal(_bits(trial_uniforms(3, 0, 10, 1)), _bits(want))

    monkeypatch.setattr(streams, "_SOURCE", mutant.with_name("none.c"))
    streams._load_native.cache_clear()
    assert streams._native_fill() is None  # a missing source falls back, too

    monkeypatch.setattr(streams, "_SOURCE", Path(streams.__file__).with_name("_splitmix.c"))
    streams._load_native.cache_clear()
    assert np.array_equal(_bits(trial_uniforms(3, 0, 10, 1)), _bits(want))
    assert len(list(cold_cache.glob("splitmix-*.so"))) == 2


def test_a_cache_directory_others_can_write_is_not_used(native, cold_cache):
    cold_cache.mkdir(mode=0o700)
    cold_cache.chmod(0o777)
    # a library planted under the name the loader would look for
    cc = streams.shutil.which("cc") or streams.shutil.which("gcc")
    planted = cold_cache / f"splitmix-{streams._build_key(streams._SOURCE.read_bytes(), cc)}.so"
    planted.write_bytes(b"not a library")
    want = streams._numpy_uniforms(11, 5, 5 + _BLOCK + 1, 3)
    assert np.array_equal(_bits(trial_uniforms(11, 5, 5 + _BLOCK + 1, 3)), _bits(want))
    assert planted.read_bytes() == b"not a library"
    assert [p.name for p in cold_cache.iterdir()] == [planted.name]


def _cli(args, env, cwd):
    proc = subprocess.run([sys.executable, "-m", "bornsim.cli", *args], env=env, cwd=cwd,
                          capture_output=True, timeout=300)
    csv = cwd / "out.csv"
    out = (proc.returncode, proc.stdout, proc.stderr, csv.read_bytes() if csv.exists() else b"")
    csv.unlink(missing_ok=True)
    return out


def test_simulate_prints_the_same_bytes_on_both_paths(native, tmp_path):
    env = {k: v for k, v in os.environ.items() if k != "BORNSIM_SEED"}
    env["PYTHONPATH"] = str(SRC)
    (tmp_path / "empty").mkdir()
    # no compiler on PATH: the numpy path, and nothing built
    numpy_env = dict(env, PATH=str(tmp_path / "empty"), XDG_CACHE_HOME=str(tmp_path / "a"))
    native_env = dict(env, XDG_CACHE_HOME=str(tmp_path / "b"))
    for args, code in SIMULATE:
        argv = ["simulate", "--state", STATE, "--seed", "7", *args]
        got = _cli(argv, native_env, tmp_path)
        assert got == _cli(argv, numpy_env, tmp_path), args
        assert got[0] == code and b"count=" in got[1] + got[2], args
    assert not (tmp_path / "a" / "bornsim").exists()
    assert list((tmp_path / "b" / "bornsim").glob("splitmix-*.so"))
