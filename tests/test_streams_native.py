"""The C libraries against their numpy oracles, and the loader that builds them.

Each library (the fill of ``streams.trial_uniforms``, ``_splitmix.c``, and
the first pass of ``disk.up_indices``, ``_disk.c``) is built on its first
use in a process, into a per-user cache; any failure leaves the process on
the numpy body. These tests check that both fills give the same bits, that
the CLI prints the same bytes on both paths, and that each build is done
once, keyed by its source and never loaded from a directory another user
can write.
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

from bornsim import disk, streams
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


def _fill_results(seed=7, n=3 * _BLOCK):
    """(what the library path gives, what the numpy body gives) for a fill."""
    return trial_uniforms(seed, 0, n, 2), streams._numpy_uniforms(seed, 0, n, 2)


def _disk_results(seed=7, n=3 * _BLOCK):
    """(what the library path gives, what the numpy body gives) for disk counts;
    the draws come from the numpy fill, so that only the disk library is used."""
    u = streams._numpy_uniforms(seed, 0, n, 2)
    dots = disk.basis_dots(np.array([0.6, 0.0, 0.8]), np.array([0.0, 0.8, -0.6]))
    down = np.count_nonzero(disk._down(dots, u[0], u[1]))
    return disk.up_indices(dots, u[0], u[1]), np.array([n - down, down])


# per library: its module, the name it is bound to there, the function that
# returns its C function (or None), the results to compare, and an edit of
# its source that gives wrong results
LIBRARIES = {
    "splitmix": (streams, "_FILL", "_native_fill", _fill_results,
                 ("base + (uint64_t)a * GOLDEN", "base + (uint64_t)(a + 1) * GOLDEN")),
    "disk": (disk, "_FIRST_PASS", "_native_pass", _disk_results,
             ("*s = k > 1.5 && k < 3.5 ? -sp : sp;", "*s = sp;")),
}


def _same(got, want) -> bool:
    """Equal counts, or equal bits for draws."""
    if got.dtype == float:
        got, want = _bits(got), _bits(want)
    return np.array_equal(got, want)


@pytest.fixture
def cold_cache(tmp_path, monkeypatch):
    """An empty cache directory, and libraries this process has not loaded yet."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    # fresh copies; the loaded libraries come back when the test ends
    for module, attr, *_ in LIBRARIES.values():
        monkeypatch.setattr(module, attr, dataclasses.replace(getattr(module, attr)))
    return tmp_path / "bornsim"


@pytest.fixture(params=list(LIBRARIES))
def library(request):
    """One library's entry of ``LIBRARIES``; skips where it does not load."""
    module, attr, function, results, mutation = LIBRARIES[request.param]
    if getattr(module, function)() is None:
        pytest.skip(f"the {request.param} library did not load: no C compiler")
    return request.param, module, attr, results, mutation


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
    monkeypatch.setattr(shutil, "which", lambda name: None)
    assert streams._native_fill() is None
    assert disk._native_pass() is None
    got = trial_uniforms(2**64 - 1, 2**32 + 5, 2**32 + 5 + _BLOCK + 3, 2)
    want = streams._numpy_uniforms(2**64 - 1, 2**32 + 5, 2**32 + 5 + _BLOCK + 3, 2)
    assert np.array_equal(_bits(got), _bits(want))
    assert np.array_equal(*_disk_results())
    assert not cold_cache.exists()


def test_two_threads_on_a_cold_cache_build_once(library, cold_cache, monkeypatch):
    name, _, _, results, _ = library
    builds = []
    run = subprocess.run

    def slow_build(*args, **kwargs):
        builds.append(args)
        time.sleep(0.2)  # the other thread arrives while this one builds
        return run(*args, **kwargs)

    monkeypatch.setattr(subprocess, "run", slow_build)
    barrier = threading.Barrier(2)
    got = [None, None]

    def first_call(k):
        barrier.wait(timeout=10)
        got[k] = results()[0]

    threads = [threading.Thread(target=first_call, args=(k,)) for k in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120)
        assert not t.is_alive()
    assert len(builds) == 1
    # one library, and no temporary left
    assert [p.name.split("-")[0] + p.suffix for p in cold_cache.iterdir()] == [name + ".so"]
    want = results()[1]
    for result in got:
        assert _same(result, want)


def test_a_library_built_from_other_source_is_never_loaded(
    library, cold_cache, tmp_path, monkeypatch
):
    name, module, attr, results, (old, new) = library
    source = getattr(module, attr).source
    wrong = source.read_text().replace(old, new)
    assert wrong != source.read_text()
    mutant = tmp_path / "mutant.c"
    mutant.write_text(wrong)
    monkeypatch.setattr(module, attr, dataclasses.replace(getattr(module, attr), source=mutant))
    assert not _same(*results())

    monkeypatch.setattr(module, attr,
                        dataclasses.replace(getattr(module, attr), source=tmp_path / "none.c"))
    assert getattr(module, attr).load() is None  # a missing source falls back, too
    assert _same(*results())

    monkeypatch.setattr(module, attr, dataclasses.replace(getattr(module, attr), source=source))
    assert _same(*results())
    assert getattr(module, attr).load() is not None
    assert len(list(cold_cache.glob(f"{name}-*.so"))) == 2


def test_a_cache_directory_others_can_write_is_not_used(library, cold_cache):
    _, module, attr, results, _ = library
    lib = getattr(module, attr)
    cold_cache.mkdir(mode=0o700)
    cold_cache.chmod(0o777)
    # a library planted under the name the loader would look for
    cc = shutil.which("cc") or shutil.which("gcc")
    planted = cold_cache / lib.file_name(lib.source.read_bytes(), cc)
    planted.write_bytes(b"not a library")
    assert _same(*results())
    assert lib.load() is not None  # built in a private directory
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
    for name in LIBRARIES:
        assert list((tmp_path / "b" / "bornsim").glob(f"{name}-*.so")), name
