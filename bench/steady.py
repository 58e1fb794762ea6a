#!/usr/bin/env python3
"""Steadiness check: run the benchmark repeatedly and compare spreads with bounds.

    python3 bench/steady.py --workloads cli-paper,design-sweep --runs 10 --sets 2

Each set runs every workload ``--runs`` times, each run in a fresh process
with its own seed (set s uses seeds first_seed + s*runs ... + runs - 1).
For every end-to-end metric it prints the median, the spread (distance
between the first and third quartile as ``statistics.quantiles(values,
n=4)`` gives them, as a share of the median) and the metric's bound from
BENCHMARK.json.  A spread above its bound is flagged, except for setup_s,
whose spread is not bounded; a spread above a third of its bound is marked.
With two or more sets, each later set's median is also compared with the
first one's, and a move in the worse direction by more than the bound is
flagged, setup_s included.  Exits 1 when anything is flagged.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPREAD_EXEMPT = {"setup_s"}


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n"
                           f"{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list) -> float:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--sets", type=int, default=1)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=spec["run_seconds"])
    p.add_argument("--out", default=None, help="write every run's result here as JSON")
    args = p.parse_args(argv)
    if args.runs < 2:
        p.error("--runs must be at least 2 to compute quartiles")

    bounds = {m["name"]: m for m in spec["end_to_end"]}
    results = {}
    flagged = False
    for workload in args.workloads.split(","):
        sets = []
        for s in range(args.sets):
            runs = []
            for i in range(args.runs):
                seed = args.first_seed + s * args.runs + i
                result = run_once(workload, seed, args.seconds)
                if not result["correct"]:
                    print(f"{workload} seed {seed}: {result['failed']} failed ops")
                    flagged = True
                runs.append(result)
                print(f"  {workload} set {s} seed {seed}: " + ", ".join(
                    f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
                    flush=True)
            sets.append(runs)
        results[workload] = sets

        print(f"\n{workload}")
        print(f"{'metric':16s} {'set':>3s} {'median':>12s} {'spread':>8s} {'bound':>6s}  note")
        first_medians = {}
        for s, runs in enumerate(sets):
            for name, bound in bounds.items():
                values = [r["metrics"][name]["value"] for r in runs]
                med = statistics.median(values)
                sp = spread(values)
                note = ""
                if name not in SPREAD_EXEMPT and sp > bound["bound"]:
                    note, flagged = "SPREAD OVER BOUND", True
                elif sp > bound["bound"] / 3:
                    note = "spread over bound/3"
                if s == 0:
                    first_medians[name] = med
                else:
                    base = first_medians[name]
                    worse = (med - base) / base if bound["better"] == "lower" \
                        else (base - med) / base
                    if worse > bound["bound"]:
                        note += f" MEDIAN WORSE BY {worse:.3f}"
                        flagged = True
                print(f"{name:16s} {s:>3d} {med:>12.6g} {sp:>8.4f} "
                      f"{bound['bound']:>6.3g}  {note}")
    if args.out:
        Path(args.out).write_text(json.dumps(results, indent=1))
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
