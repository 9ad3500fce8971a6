#!/usr/bin/env python
"""Acceptance fuzz campaign for the static-analysis stack.

Runs the three adversarial loops of ``repro.fuzz`` at a fixed seed
and fails (non-zero exit) on any unexplained disagreement:

1. differential — generated programs, OoO core vs in-order oracle
   under every registered defense, plus the assemble/disassemble
   round-trip property;
2. certifier agreement — symx verdicts vs dynamic two-secret replay
   (PROVED_SAFE soundness, witness reproduction, tier ordering);
3. evolve — gadget variants mutated against the paper's four
   defenses; any verified survivor is ingested into the analysis corpus and the
   precision study re-measured over the extended corpus.

Run:  PYTHONPATH=src python tools/fuzz_campaign.py [--smoke] \
          [--seed S] [--diff N] [--certify N] [--out JSON]

``--smoke`` is the CI budget (~200 differential + 60 certify
programs, no evolve, < 2 min).  The default full campaign is the
acceptance sweep: >= 5,000 differential programs, 500 certify
programs and the evolve loop over the paper's four defenses.

Exit status 0 iff every campaign is clean.
"""
from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from repro.cli import _positive
from repro.documents import write_json
from repro.experiments.precision_study import run_precision_study
from repro.fuzz import (
    ALL_MODES,
    ingest_survivors,
    run_certify_campaign,
    run_diff_campaign,
    run_evolve_campaign,
)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", default="acceptance-v1",
                        help="campaign master seed")
    parser.add_argument("--smoke", action="store_true",
                        help="CI budget: 200 diff + 60 certify, "
                             "no evolve")
    parser.add_argument("--diff", type=_positive(int), default=None,
                        help="differential program count override")
    parser.add_argument("--certify", type=_positive(int), default=None,
                        help="certify program count override")
    parser.add_argument("--skip-evolve", action="store_true")
    parser.add_argument("--checkpoint-dir", default=None,
                        help="directory for resumable JSONL "
                             "checkpoints")
    parser.add_argument("--pin-dir", default=None,
                        help="write FuzzCases for disagreements here")
    parser.add_argument("--out", default=None,
                        help="write the JSON summary here")
    parser.add_argument("--verbose", action="store_true")
    args = parser.parse_args(argv)

    diff_count = args.diff if args.diff is not None else \
        (200 if args.smoke else 5000)
    certify_count = args.certify if args.certify is not None else \
        (60 if args.smoke else 500)
    run_evolve = not args.smoke and not args.skip_evolve

    progress = print if args.verbose else (lambda message: None)
    checkpoints = Path(args.checkpoint_dir) if args.checkpoint_dir \
        else None
    pin_dir = Path(args.pin_dir) if args.pin_dir else None
    started = time.perf_counter()
    summary: dict = {"seed": args.seed, "smoke": args.smoke}
    failures = []

    diff = run_diff_campaign(
        args.seed, diff_count,
        checkpoint=(checkpoints / "diff.jsonl") if checkpoints
        else None,
        regressions=pin_dir, progress=progress)
    summary["diff"] = diff.to_dict()
    print(f"[diff]    {diff.cases} programs x {len(ALL_MODES)} defenses, "
          f"{diff.invalid} invalid, {diff.disagreements} "
          f"mismatch(es) [{diff.duration_s:.1f}s]")
    if not diff.clean:
        failures.append(f"differential: {diff.disagreements} "
                        f"mismatch(es)")

    certify = run_certify_campaign(
        args.seed, certify_count,
        checkpoint=(checkpoints / "certify.jsonl") if checkpoints
        else None,
        regressions=pin_dir, progress=progress)
    summary["certify"] = certify.to_dict()
    verdicts = ", ".join(f"{k}={v}" for k, v
                         in sorted(certify.verdicts.items()))
    print(f"[certify] {certify.cases} programs ({verdicts}), "
          f"{certify.explained} explained, "
          f"{certify.disagreements} disagreement(s) "
          f"[{certify.duration_s:.1f}s]")
    if not certify.clean:
        failures.append(f"certifier agreement: "
                        f"{certify.disagreements} disagreement(s)")

    if run_evolve:
        evolve, survivors = run_evolve_campaign(
            args.seed, regressions=pin_dir, progress=progress)
        summary["evolve"] = evolve.to_dict()
        best = {}
        for report in evolve.evolve:
            key = report.mode
            best[key] = max(best.get(key, 0), report.best_fitness)
        per_mode = ", ".join(f"{mode}={fitness}"
                             for mode, fitness in sorted(best.items()))
        print(f"[evolve]  {evolve.cases} (seed x mode) runs, best "
              f"leak per mode: {per_mode}; {len(survivors)} verified "
              f"survivor(s) [{evolve.duration_s:.1f}s]")
        if best.get("origin", 0) == 0:
            failures.append("evolve: positive control failed "
                            "(no leak under origin)")
        ingest_survivors(survivors)
        precision = run_precision_study(benchmarks=[])
        summary["extended_precision"] = precision.to_dict()
        if survivors:
            print("[evolve]  precision over the extended corpus:")
            print(precision.render())
            if precision.fn_rate_after > 0:
                failures.append(
                    "evolve: a surviving gadget evades the static "
                    "stack (fn_rate_after > 0 on extended corpus)")

    summary["total_s"] = round(time.perf_counter() - started, 1)
    summary["failures"] = failures
    if args.out:
        write_json(args.out, summary)
        print(f"summary -> {args.out}")

    if failures:
        print("FAILED:")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print(f"clean ({summary['total_s']}s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
