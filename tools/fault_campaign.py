#!/usr/bin/env python
"""N-seed fault-injection campaign over the gadget corpus and a set of
SPEC profiles, under every registered defense, refereed by the
functional oracle.

Every run perturbs the pipeline with seeded, architecturally-neutral
faults (forced mispredicts, delayed fills, spurious squashes, filter
blackouts, dropped wakeups) while the structural invariant lint stays
on.  The campaign fails — exit status 1 — if any run diverges from the
in-order oracle, violates a pipeline invariant, deadlocks, or fails to
halt.  Divergences print the case name, defense and campaign seed,
which replay the exact run deterministically.

Run:  PYTHONPATH=src python tools/fault_campaign.py [options]

    --seeds N        number of campaign seeds (default 10)
    --smoke          quick CI configuration (2 seeds, gadgets +
                     1 SPEC profile at small scale)
    --aggressive     use the high-rate fault plan
    --benchmarks ... SPEC profiles to include (default hmmer mcf astar)
    --scale F        SPEC workload scale (default 0.1)
    --json PATH      also dump the per-run results as JSON
"""
import argparse
import sys
import time

from repro.core.defense import defense_names
from repro.documents import write_json
from repro.robustness import (
    FaultPlan,
    gadget_cases,
    run_campaign,
    spec_cases,
)
from repro.robustness.campaign import DEFAULT_SPEC_PROFILES


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="seeded fault-injection campaign, oracle-refereed")
    parser.add_argument("--seeds", type=int, default=10,
                        help="number of campaign seeds (default 10)")
    parser.add_argument("--smoke", action="store_true",
                        help="quick CI configuration")
    parser.add_argument("--aggressive", action="store_true",
                        help="use the high-rate fault plan")
    parser.add_argument("--benchmarks", nargs="*", default=None,
                        help=f"SPEC profiles "
                             f"(default {' '.join(DEFAULT_SPEC_PROFILES)})")
    parser.add_argument("--scale", type=float, default=0.1,
                        help="SPEC workload scale (default 0.1)")
    parser.add_argument("--json", default=None,
                        help="dump per-run results as JSON")
    parser.add_argument("--verbose", action="store_true",
                        help="print every run, not just divergences")
    args = parser.parse_args(argv)

    if args.smoke:
        seeds = range(2)
        cases = gadget_cases() + spec_cases(
            args.benchmarks or ["hmmer"], scale=min(args.scale, 0.1))
    else:
        seeds = range(args.seeds)
        cases = gadget_cases() + spec_cases(
            args.benchmarks, scale=args.scale)

    plan = FaultPlan.aggressive() if args.aggressive \
        else FaultPlan.moderate()

    def progress(outcome):
        if args.verbose or not outcome.ok:
            print(outcome.render(), flush=True)

    started = time.time()
    result = run_campaign(cases, seeds=list(seeds), plan=plan,
                          progress=progress)
    elapsed = time.time() - started

    print(f"\n{len(result.results)} runs over {len(cases)} cases x "
          f"{len(defense_names())} defenses x {len(list(seeds))} seeds "
          f"in {elapsed:.1f}s: "
          f"{result.total_injected} injected events, "
          f"{len(result.failures)} divergences")
    if args.json:
        write_json(args.json, result.to_dict())
        print(f"wrote {args.json}")
    if result.failures:
        print("\nDIVERGENT RUNS:")
        for failure in result.failures:
            print(failure.render())
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
