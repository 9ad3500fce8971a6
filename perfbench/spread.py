"""Run a workload over several seeds and report each metric's median and
quartile spread; optionally record them as a measured point.

    python3 perfbench/spread.py --workload serve --seeds 1-10 \
        [--trace] [--record perfbench/points.json]

The spread is (Q3 - Q1) / median with the quartiles of
``statistics.quantiles(values, n=4)``.  ``--record`` stores, per
workload, mode and seed set, every metric's median, quartiles and
spread beside the CPU count and Python version of the host that
measured them, and each seed's values, so a claim made on one seed can
be checked on another.  Sets on other seeds are kept beside it.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from common import host_facts  # noqa: E402


def seed_list(text: str):
    if "-" in text:
        low, high = text.split("-")
        return list(range(int(low), int(high) + 1))
    return [int(part) for part in text.split(",")]


def run_once(workload: str, seed: int, trace: bool) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", str(seed), "--trace", str(int(trace))],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"seed {seed} failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(results) -> dict:
    out = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        median = statistics.median(values)
        if len(values) > 1:
            q1, _q2, q3 = statistics.quantiles(values, n=4)
        else:
            q1 = q3 = median
        out[name] = {"median": median, "q1": q1, "q3": q3,
                     "spread": (q3 - q1) / median if median else 0.0,
                     "unit": results[0]["metrics"][name]["unit"],
                     **host_facts()}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--record", default=None)
    args = parser.parse_args(argv)
    seeds = seed_list(args.seeds)
    results = []
    for seed in seeds:
        result = run_once(args.workload, seed, args.trace)
        results.append(result)
        print(f"seed {seed}: attempted {result['attempted']} failed "
              f"{result['failed']} correct {result['correct']}", flush=True)
    summary = summarize(results)
    for name, row in summary.items():
        print(f"  {name:<36} median {row['median']:>12.6g} {row['unit']:<8}"
              f" spread {row['spread']:.3f}")
    if args.record:
        points = {}
        if os.path.exists(args.record):
            with open(args.record) as handle:
                points = json.load(handle)
        mode = "traced" if args.trace else "untraced"
        sets = points.setdefault(args.workload, {}).setdefault(mode, {})
        sets[f"seeds {args.seeds}"] = {
            "command": (f"python3 perfbench/spread.py --workload "
                        f"{args.workload} --seeds {args.seeds}"
                        + (" --trace" if args.trace else "")),
            "metrics": summary,
            "per_seed": {str(seed): {
                "failed": r["failed"], "attempted": r["attempted"],
                **{name: m["value"] for name, m in r["metrics"].items()},
                **host_facts()}
                for seed, r in zip(seeds, results)},
        }
        with open(args.record, "w") as handle:
            json.dump(points, handle, indent=1, sort_keys=True)
            handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
