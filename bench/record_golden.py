"""Record ``golden.json``: exit code and output SHA-256 of every pool operation.

    python3 bench/record_golden.py

Run it on the commit whose outputs are the reference. It refuses to record
an operation whose exit code is not the one its kind expects.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import run
import workloads


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    import bornsim.cli as cli

    runner = run.Runner(cli, golden={})
    golden = {}
    bad = []
    for kind in workloads.KINDS:
        for op in workloads.pool(kind):
            rc, out, elapsed = runner.execute(op)
            error = workloads.check(op, rc, out, {})
            if error is not None:
                bad.append(f"{op.key}: {error}")
            golden[op.key] = {"rc": rc, "sha256": workloads.digest(out)}
        print(f"{kind}: {workloads.POOL} operations, last took {elapsed:.3f} s", flush=True)
    key = " ".join(workloads.SETUP_ARGV)
    proc = subprocess.run(
        [sys.executable, "-m", "bornsim.cli", *workloads.SETUP_ARGV],
        cwd=run.ROOT, env={**os.environ, "PYTHONPATH": str(run.SRC)},
        capture_output=True, check=True,
    )
    golden[key] = {"rc": proc.returncode, "sha256": workloads.digest(proc.stdout)}
    if bad:
        print("not recorded; unexpected results:\n  " + "\n  ".join(bad), file=sys.stderr)
        return 1
    with open(workloads.GOLDEN_PATH, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(golden)} entries to {workloads.GOLDEN_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
