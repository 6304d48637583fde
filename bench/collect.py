"""Run the benchmark over several seeds and summarize each metric.

    python3 bench/collect.py --seeds 1-10 --trace 0 --out bench/results/BENCH_x.json

For every workload (all of them unless ``--workloads`` names some) and seed,
runs ``run.py`` in a fresh process, then prints, per metric, the median,
the quartiles and their spread as a share of the median, next to the bound
``BENCHMARK.json`` fixes for end-to-end metrics. With ``--out`` it writes
every run's result and environment plus the summary as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr}")
    env = next(json.loads(ln[4:]) for ln in lines if ln.startswith("env "))
    return {"env": env, "result": json.loads(lines[-1])}


def summarize(runs: list[dict], bounds: dict[str, float]) -> dict:
    summary = {}
    for name in runs[0]["result"]["metrics"]:
        values = [r["result"]["metrics"][name]["value"] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        summary[name] = {
            "unit": runs[0]["result"]["metrics"][name]["unit"],
            "median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0,
            "bound": bounds.get(name),
        }
    return summary


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--seconds", type=int, default=spec["run_seconds"])
    p.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    p.add_argument("--out", type=Path)
    args = p.parse_args()
    names = args.workloads.split(",")
    seeds = parse_seeds(args.seeds)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    runs = {w: [] for w in names}
    for seed in seeds:
        for w in names:
            run = run_once(w, seed, args.seconds, args.trace)
            runs[w].append(run)
            res = run["result"]
            print(f"{w} seed={seed} correct={res['correct']} attempted={res['attempted']} "
                  f"failed={res['failed']}", flush=True)

    report = {"seeds": seeds, "seconds": args.seconds, "trace": args.trace, "workloads": {}}
    ok = True
    for w in names:
        summary = summarize(runs[w], bounds)
        report["workloads"][w] = {"summary": summary, "runs": runs[w]}
        print(f"\n{w}")
        for name, s in summary.items():
            flag = ""
            if s["bound"] is not None and name != "setup_s" and s["spread"] > s["bound"] / 3:
                flag = "  > bound/3"
                ok = False
            bound = f"{s['bound']:.2f}" if s["bound"] is not None else "-"
            print(f"  {name:45s} median {s['median']:<12.6g} {s['unit']:12s}"
                  f"spread {s['spread']:.4f}  bound {bound}{flag}")
        ok = ok and all(r["result"]["correct"] for r in runs[w])
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
