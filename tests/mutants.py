"""Committed mutants: small wrong edits that named tests must catch.

Each entry gives a file, an exact old text, the new text that replaces it,
and the test ids that must fail with it. Run from anywhere:

    python tests/mutants.py

Every entry is applied to its own temporary copy of the repository, with
``PYTHONPATH`` pointing at the copy's ``src`` and ``XDG_CACHE_HOME`` at a
temporary directory (so a mutated ``_splitmix.c`` is never built into the
user's cache), and only its tests run there. The script exits 1 if an old
text is not found exactly once, if a mutant survives (one of its tests
passes, is skipped or is not found), or if the control entry, a harmless
edit, does not pass every test the mutants name. The native-fill mutant
needs a C compiler. pytest does not collect this file: its name does not
start with ``test_``.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


@dataclass(frozen=True)
class Mutant:
    name: str
    file: str
    old: str
    new: str
    tests: tuple[str, ...]


_STREAMS = "tests/test_stats.py::TestStreams::"
# the row whose second block's base wraps to 0
_WRAP_ROW = ("test_blocked_fill_matches_the_scalar_stream_bitwise"
             "[18446744073709551615-18446744073709486079-65541-2]")

MUTANTS = (
    Mutant(
        "numpy fill: block base one trial early",
        "src/bornsim/streams.py",
        "_mix64_array(offsets[:m] + ((start + a + 1) * GOLDEN & _MASK))",
        "_mix64_array(offsets[:m] + ((start + a) * GOLDEN & _MASK))",
        (_STREAMS + "test_scalar_and_vector_draws_are_bitwise_identical",
         _STREAMS + _WRAP_ROW,
         "tests/test_golden_counts.py::test_numpy_fallback_counts_match_the_recorded_ones"
         "[rod-quantum-seed0-N999]"),
    ),
    Mutant(
        "numpy fill: 52-bit draws (>> 12)",
        "src/bornsim/streams.py",
        "_mix64_array(state + ((k + 1) * GOLDEN & _MASK)) >> 11",
        "_mix64_array(state + ((k + 1) * GOLDEN & _MASK)) >> 12",
        (_STREAMS + "test_scalar_and_vector_draws_are_bitwise_identical",
         _STREAMS + _WRAP_ROW),
    ),
    Mutant(
        "native fill: block offset a + 1",
        "src/bornsim/_splitmix.c",
        "uint64_t first = base + (uint64_t)a * GOLDEN;",
        "uint64_t first = base + (uint64_t)(a + 1) * GOLDEN;",
        (_STREAMS + "test_scalar_and_vector_draws_are_bitwise_identical",
         _STREAMS + _WRAP_ROW,
         "tests/test_golden_counts.py::test_counts_match_the_recorded_ones"
         "[rod-quantum-seed0-N999]"),
    ),
    Mutant(
        "disk: no float64 recheck near the boundary (_MARGIN = 0.0)",
        "src/bornsim/disk.py",
        "_MARGIN = 2.0**-12",
        "_MARGIN = 0.0",
        ("tests/test_disk.py::test_filtered_kernel_decides_as_the_one_pass_reference",
         "tests/test_disk.py::test_filtered_kernel_matches_the_reference_across_block_edges"
         "[65536]"),
    ),
    Mutant(
        "rod kernel: u1 == t1 counted in slot 2 (x >= t1)",
        "src/bornsim/rod.py",
        "hi = x > t1",
        "hi = x >= t1",
        ("tests/test_rod.py::test_table_driven_kernel_matches_the_nested_where_reference",),
    ),
)

# a harmless edit: every test the mutants name must still pass with it, so
# that a kill is the mutant's doing and not the copy's
CONTROL = Mutant(
    "control: a comment reworded",
    "src/bornsim/streams.py",
    "# trial t = start + a + i of the block at a: (t + 1) * GOLDEN is",
    "# for trial t = start + a + i of the block at a, (t + 1) * GOLDEN is",
    tuple(dict.fromkeys(t for m in MUTANTS for t in m.tests)),
)

_IGNORE = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis",
                                 "*.egg-info", "build", ".bench_out", ".bench_build")
_OUTCOMES = ("PASSED", "FAILED", "ERROR")


def run_entry(mutant: Mutant) -> dict[str, str] | None:
    """The outcome of each of ``mutant``'s tests in a mutated copy.

    None if the old text is not in the file exactly once.
    """
    with tempfile.TemporaryDirectory(prefix="bornsim-mutant-") as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=_IGNORE)
        path = copy / mutant.file
        text = path.read_text(encoding="utf-8")
        if text.count(mutant.old) != 1:
            return None
        path.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=str(copy / "src"),
                   XDG_CACHE_HOME=str(Path(tmp) / "cache"))
        # the copy's package must be the one imported, not an installed one
        where = subprocess.run([sys.executable, "-c", "import bornsim; print(bornsim.__file__)"],
                               cwd=copy, env=env, capture_output=True, text=True, check=True)
        if not Path(where.stdout.strip()).is_relative_to(copy):
            raise SystemExit(f"bornsim imports from {where.stdout.strip()}, not from the copy")
        proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-rA",
                               "-p", "no:cacheprovider", *mutant.tests],
                              cwd=copy, env=env, capture_output=True, text=True)
    outcomes = dict.fromkeys(mutant.tests, "not run")
    for line in proc.stdout.splitlines():
        word, _, rest = line.partition(" ")
        test = rest.split(" - ")[0]
        if word in _OUTCOMES and test in outcomes:
            outcomes[test] = word
    return outcomes


def main() -> int:
    began = time.perf_counter()
    bad = 0
    for mutant in (*MUTANTS, CONTROL):
        t0 = time.perf_counter()
        outcomes = run_entry(mutant)
        took = f"{time.perf_counter() - t0:.1f} s"
        if outcomes is None:
            bad += 1
            print(f"MISSING   {mutant.name}: old text not found exactly once in {mutant.file}")
            continue
        want = ("PASSED",) if mutant is CONTROL else ("FAILED", "ERROR")
        wrong = {t: o for t, o in outcomes.items() if o not in want}
        if mutant is CONTROL:
            verdict = "PASSED" if not wrong else "KILLED"
        else:
            verdict = "killed" if not wrong else "SURVIVED"
        print(f"{verdict:9} {mutant.name} ({len(outcomes)} tests, {took})")
        for test, outcome in wrong.items():
            print(f"          {outcome}: {test}")
        bad += bool(wrong)
    print(f"{len(MUTANTS)} mutants and 1 control, {bad} wrong, "
          f"{time.perf_counter() - began:.1f} s")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
