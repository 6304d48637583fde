"""The C library against its numpy oracles, and the loader that builds it.

The package's one C extension module, ``native.LIBRARY`` (``_native.c``),
holds the fill of ``streams.trial_uniforms``, the first pass of
``disk.up_indices``, the rod's count step, ``random_frame``'s body and the
dot. It is built on its first use in a process, into a per-user cache; any
failure leaves the process on its numpy bodies. These tests check that both
fills give the same bits, that the fill lets other threads run Python, that
the disk counts are the one-pass float64 formula's, that the CLI prints the
same bytes on both paths, and that the build is done once, keyed by its
source and interpreter and never loaded from a directory another user can
write. ``test_rod.py`` checks the rod count step against its numpy body,
and ``test_geometry.py`` the frame and the dot against their replicas.
"""

from __future__ import annotations

import dataclasses
import os
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bornsim import disk, native, streams
from bornsim.streams import _BLOCK, TrialStream, trial_uniforms

from oracles import disk_down_oracle

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


def _fill_results(seed=7, n=3 * _BLOCK):
    """(what the library path gives, what the numpy body gives) for a fill."""
    return trial_uniforms(seed, 0, n, 2), streams._numpy_uniforms(seed, 0, n, 2)


def _disk_results(seed=7, n=3 * _BLOCK):
    """(what the library path gives, what the one-pass float64 formula gives)
    for disk counts; the draws come from the numpy fill, so that only the disk
    pass runs in C."""
    u = streams._numpy_uniforms(seed, 0, n, 2)
    p, q = np.array([0.6, 0.0, 0.8]), np.array([0.0, 0.8, -0.6])
    down = int(disk_down_oracle(p, q, u[0], u[1]).sum())
    return disk.up_indices(disk.basis_dots(p, q), u[0], u[1]), np.array([n - down, down])


# edits of _native.c that give wrong results: the fill's block offset, and
# the disk pass's sign of sin
MUTATIONS = (("base + (uint64_t)a * GOLDEN", "base + (uint64_t)(a + 1) * GOLDEN"),
             ("*s = k > 1.5 && k < 3.5 ? -sp : sp;", "*s = sp;"))


def _same(got, want) -> bool:
    """Equal counts, or equal bits for draws."""
    if got.dtype == float:
        got, want = _bits(got), _bits(want)
    return np.array_equal(got, want)


def _both_same() -> bool:
    """The fill gives its numpy body's bits, and the disk counts are the float64 formula's."""
    return _same(*_fill_results()) and _same(*_disk_results())


@pytest.fixture
def cold_cache(tmp_path, monkeypatch):
    """An empty cache directory, and a library this process has not loaded yet."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    # a fresh copy; the loaded library comes back when the test ends
    monkeypatch.setattr(native, "LIBRARY", dataclasses.replace(native.LIBRARY))
    return tmp_path / "bornsim"


@pytest.fixture
def loads():
    if native.LIBRARY.load() is None:
        pytest.skip("the C library did not load: no C compiler")


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
    monkeypatch.setattr(shutil, "which", lambda name: None)
    assert native.LIBRARY.load() is None
    got = trial_uniforms(2**64 - 1, 2**32 + 5, 2**32 + 5 + _BLOCK + 3, 2)
    want = streams._numpy_uniforms(2**64 - 1, 2**32 + 5, 2**32 + 5 + _BLOCK + 3, 2)
    assert np.array_equal(_bits(got), _bits(want))
    assert np.array_equal(*_disk_results())
    assert not cold_cache.exists()


def test_the_main_thread_runs_python_while_a_native_fill_runs(loads):
    """The fill releases the GIL: while one thread fills 2**24 trials, this
    one reads the array half written. A fill that kept the GIL would let
    it read only before the call or after it."""
    fill = native.LIBRARY.load().trial_uniforms
    out = np.empty((1, 1 << 24))
    half_written = False
    for _ in range(3):  # the host may not schedule this thread during one fill
        out.fill(-1.0)  # no draw is negative
        worker = threading.Thread(target=fill, args=(out, 7, streams.GOLDEN))
        worker.start()
        while worker.is_alive() and not half_written:
            half_written = out[0, 0] >= 0.0 and out[0, -1] < 0.0
        worker.join(timeout=60)
        assert not worker.is_alive()
        if half_written:
            break
    assert half_written
    assert out[0, -1] == TrialStream(7, (1 << 24) - 1).random()


def test_the_loops_take_only_contiguous_arrays_of_their_type_and_length(loads):
    lib = native.LIBRARY.load()
    u = np.zeros(8)
    near, counts = np.empty(8, dtype=np.int64), np.empty(6, dtype=np.int64)
    wrong = {
        "float32 out": (TypeError, lib.trial_uniforms, np.empty((2, 8), np.float32), 1, 2),
        "strided out": (ValueError, lib.trial_uniforms, np.empty((2, 8))[:, ::2], 1, 2),
        "read-only out": (ValueError, lib.trial_uniforms, np.empty((2, 8)), 1, 2),
        "1-d out": (ValueError, lib.trial_uniforms, np.empty(8), 1, 2),
        "negative seed": (OverflowError, lib.trial_uniforms, np.empty((2, 8)), -1, 2),
        "int64 draws": (TypeError, lib.rod_count, near, u, counts, 0.1, 0.2, 0.3, 0.4, 0.5),
        "short u2": (ValueError, lib.rod_count, u, u[:7], counts, 0.1, 0.2, 0.3, 0.4, 0.5),
        "5 counts": (ValueError, lib.rod_count, u, u, counts[:5], 0.1, 0.2, 0.3, 0.4, 0.5),
        "float near": (TypeError, lib.disk_first_pass, u, u, u, 0.1, 0.2, 0.3, 0.0),
        "short near": (ValueError, lib.disk_first_pass, u, u, near[:7], 0.1, 0.2, 0.3, 0.0),
        "8 draws": (ValueError, lib.random_frame, u),
        "a missing argument": (TypeError, lib.disk_trig, u, u),
    }
    wrong["read-only out"][2].flags.writeable = False
    for error, function, *args in wrong.values():
        with pytest.raises(error):
            function(*args)


def test_two_threads_on_a_cold_cache_build_once(loads, cold_cache, monkeypatch):
    builds = []
    run = subprocess.run

    def slow_build(*args, **kwargs):
        builds.append(args)
        time.sleep(0.2)  # the other thread arrives while this one builds
        return run(*args, **kwargs)

    monkeypatch.setattr(subprocess, "run", slow_build)
    barrier = threading.Barrier(2)
    got = [None, None]

    # one thread's first call is a fill, the other's a disk pass
    def first_call(k, results):
        barrier.wait(timeout=10)
        got[k] = results()[0]

    threads = [threading.Thread(target=first_call, args=(k, results))
               for k, results in enumerate((_fill_results, _disk_results))]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120)
        assert not t.is_alive()
    assert len(builds) == 1
    # one library, and no temporary left
    assert [p.name.split("-")[0] + p.suffix for p in cold_cache.iterdir()] == ["native.so"]
    for result, results in zip(got, (_fill_results, _disk_results)):
        assert _same(result, results()[1])


def test_a_library_built_from_other_source_is_never_loaded(
    loads, cold_cache, tmp_path, monkeypatch
):
    source = native.LIBRARY.source
    wrong = source.read_text()
    for old, new in MUTATIONS:
        assert wrong.count(old) == 1
        wrong = wrong.replace(old, new)
    mutant = tmp_path / "mutant.c"
    mutant.write_text(wrong)
    monkeypatch.setattr(native, "LIBRARY", dataclasses.replace(native.LIBRARY, source=mutant))
    assert not _same(*_fill_results())
    assert not _same(*_disk_results())

    monkeypatch.setattr(native, "LIBRARY",
                        dataclasses.replace(native.LIBRARY, source=tmp_path / "none.c"))
    assert native.LIBRARY.load() is None  # a missing source falls back, too
    assert _both_same()

    monkeypatch.setattr(native, "LIBRARY", dataclasses.replace(native.LIBRARY, source=source))
    assert _both_same()
    assert native.LIBRARY.load() is not None
    assert len(list(cold_cache.glob("native-*.so"))) == 2


def test_a_cache_directory_others_can_write_is_not_used(loads, cold_cache):
    lib = native.LIBRARY
    cold_cache.mkdir(mode=0o700)
    cold_cache.chmod(0o777)
    # a library planted under the name the loader would look for
    cc = shutil.which("cc") or shutil.which("gcc")
    planted = cold_cache / lib.file_name(lib.source.read_bytes(), cc)
    planted.write_bytes(b"not a library")
    assert _both_same()
    assert lib.load() is not None  # built in a private directory
    assert planted.read_bytes() == b"not a library"
    assert [p.name for p in cold_cache.iterdir()] == [planted.name]


def test_a_corrupt_cached_module_is_not_loaded(loads, cold_cache):
    lib = native.LIBRARY
    cold_cache.mkdir(mode=0o700)
    cc = shutil.which("cc") or shutil.which("gcc")
    (cold_cache / lib.file_name(lib.source.read_bytes(), cc)).write_bytes(b"not a module")
    assert lib.load() is None
    assert _both_same()


def test_the_cache_name_follows_the_interpreter(monkeypatch):
    lib = native.LIBRARY
    source = lib.source.read_bytes()
    name = lib.file_name(source, "/usr/bin/cc")
    assert dataclasses.replace(lib, include="/usr/include/python3.10").file_name(
        source, "/usr/bin/cc") != name
    config_var = native.sysconfig.get_config_var
    monkeypatch.setattr(native.sysconfig, "get_config_var", lambda key: (
        ".cpython-310-x86_64-linux-gnu.so" if key == "EXT_SUFFIX" else config_var(key)))
    assert lib.file_name(source, "/usr/bin/cc") != name


def test_no_python_headers_gives_the_numpy_bytes(cold_cache, tmp_path, monkeypatch):
    headers = tmp_path / "include"
    headers.mkdir()  # a directory without Python.h
    without_headers = dataclasses.replace(native.LIBRARY, include=str(headers))
    monkeypatch.setattr(native, "LIBRARY", without_headers)
    assert native.LIBRARY.load() is None
    assert _both_same()
    assert not list(cold_cache.glob("*"))  # no module and no temporary left


def _cli(args, env, cwd):
    proc = subprocess.run([sys.executable, "-m", "bornsim.cli", *args], env=env, cwd=cwd,
                          capture_output=True, timeout=300)
    csv = cwd / "out.csv"
    out = (proc.returncode, proc.stdout, proc.stderr, csv.read_bytes() if csv.exists() else b"")
    csv.unlink(missing_ok=True)
    return out


def test_simulate_prints_the_same_bytes_on_both_paths(loads, tmp_path):
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
    assert list((tmp_path / "b" / "bornsim").glob("native-*.so"))
