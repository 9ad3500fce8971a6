"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload sweep-stall --seed 7 \
        --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` measures them, then measures again with wrappers around
every layer, and prints the per-layer metrics plus the tracing
overhead (traced minus untraced end-to-end values).  The last line of
standard output is the JSON result.  Workload inputs are fixed in
``perfbench/workloads.json``; ``--seed`` drives every generator.
``--seconds`` sets the length of serve's traffic schedule; the sweeps
and certify do a fixed amount of work (about half a minute on a 2-CPU
host), so every run of them does the same work whatever the host's
speed.

``--write-reference`` re-pins the per-row simulated cycles and
committed counts of every pass of both sweeps at the default seed
(``perfbench/reference.json``).  Run from the root of a checkout: the
program under test is imported from ``src/``.
"""
from __future__ import annotations

import argparse
import json
import os
import signal
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

WORKLOADS = ("sweep-stall", "sweep-dense", "certify", "serve")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args(argv)
    if not args.write_reference and args.workload is None:
        parser.error("--workload is required")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print("perfbench: src/repro not found beside perfbench/; run from "
              "the root of a full checkout", file=sys.stderr)
        return 2
    # Sweep workers are spawned and inherit this path, so they import
    # the same sources and the same benchmark modules.
    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
    import common

    # A SIGTERM unwinds like an exception, so every server and helper
    # process is still stopped and waited for.
    signal.signal(signal.SIGTERM,
                  lambda signum, _frame: sys.exit(128 + signum))
    try:
        return run_workload(args, common)
    finally:
        common.stop_children()


def run_workload(args, common) -> int:
    seed = args.seed if args.seed is not None else common.DEFAULT_SEED
    if args.write_reference:
        import sweeps
        with open(sweeps.REFERENCE, "w") as handle:
            json.dump(sweeps.write_reference(seed), handle, indent=1,
                      sort_keys=True)
            handle.write("\n")
        return 0

    seconds = args.seconds if args.seconds is not None \
        else common.BENCH["run_seconds"]
    if args.workload == "certify":
        import certify as workload
    elif args.workload == "serve":
        import serve as workload
    else:
        import sweeps as workload
    outcome = workload.run(args.workload, seed, seconds, bool(args.trace))

    lines = [f"perfbench {args.workload} seed={seed} seconds={seconds:g} "
             f"trace={args.trace} {common.host_facts()}"] + outcome.notes
    if not args.trace:
        units = common.metric_units("end_to_end")
        metrics = {name: outcome.e2e[name] for name in units}
    else:
        units = common.metric_units("per_layer")
        layers = dict(outcome.layers)
        for name in ("throughput_per_s", "latency_p50_ms",
                     "latency_tail_ms"):
            layers[f"trace.overhead.{name}"] = \
                outcome.traced_e2e[name] - outcome.e2e[name]
        # A layer this workload never runs reads zero.
        metrics = {name: float(layers.get(name, 0.0)) for name in units}
    common.emit(outcome.ledger, metrics, units, lines)
    return 0


if __name__ == "__main__":
    sys.exit(main())
