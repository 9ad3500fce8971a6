#!/usr/bin/env python3
"""Baseline ratchets: hold each measured suite to its committed floor.

Each suite re-runs at the one configuration its baseline under
``benchmarks/`` was recorded at, and is compared against it::

    python tools/ratchet.py                      # every suite
    python tools/ratchet.py precision shootout   # a subset
    python tools/ratchet.py bench --raise-floor  # tighten after a real gain
    python tools/ratchet.py shootout --write-baseline
    python tools/ratchet.py --out runs           # keep each full run

- ``bench`` (``BENCH_baseline.json``): the sweep harness over bzip2,
  mcf, hmmer and libquantum at scale 0.3, every paper mode, serial then
  parallel.  Fails when simulated instructions/sec drops below 80% of
  the baseline; ``--raise-floor`` rewrites it after a run more than 10%
  faster.
- ``precision`` (``BENCH_precision.json``): the taint -> valueset ->
  symx study at scale 0.1.  Fails when the certifier's UNKNOWN count
  rises or a pinned corpus verdict flips or vanishes (labelled gadgets
  are ground truth); ``--raise-floor`` rewrites it after a run with
  fewer UNKNOWNs.
- ``shootout`` (``BENCH_shootout.json``): every registered defense
  against the attack suite, one secret each.  Fails when a defense
  recovers more secrets than its committed ceiling, or when the run
  and the baseline disagree on which defenses exist.

Pins hold whatever a baseline says and are checked before any write,
so no baseline records a broken run: the bench rows are deterministic
and none failed; symx is strictly stronger than taint+valueset;
``origin`` leaks on every attack, every registered defense ran,
``delay_on_miss`` and ``eager_delay`` keep their documented V4 leak
(docs/defenses.md) and ``delay_on_miss_ss``, its store-set closure,
leaks nothing.

Ad-hoc sizes are ``repro bench --suite``, ``repro precision`` and
``repro shootout``.  Exit status: 0 pass, 1 a regression or a pin
breach, 2 a missing baseline or one in a foreign format.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass
from typing import Any, Callable, Dict, List

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.core.defense import defense_names  # noqa: E402
from repro.documents import write_json  # noqa: E402
from repro.experiments.precision_study import (  # noqa: E402
    run_precision_study,
)
from repro.experiments.shootout import run_defense_shootout  # noqa: E402
from repro.perf.bench import BENCH_FORMAT, run_bench  # noqa: E402

BASELINE_DIR = os.path.abspath(
    os.path.join(os.path.dirname(__file__), "..", "benchmarks"))

Payload = Dict[str, Any]

#: bench fails when instructions/sec drops more than this share below
#: the baseline.
BENCH_TOLERANCE = 0.2
#: A run must beat the baseline by more than this before
#: ``--raise-floor`` rewrites it: real speedups ratchet the floor up,
#: run-to-run noise does not churn the file.
RAISE_FLOOR_MARGIN = 0.1

#: Row groups whose certifier verdicts are pinned verbatim.
PINNED_GROUPS = ("corpus", "ingested")
#: Branch-keyed defenses whose V4 leak is the documented blind spot.
BLIND_SPOT_DEFENSES = ("delay_on_miss", "eager_delay")
#: The store-set closure of that blind spot: no leak anywhere.
CLOSURE_DEFENSE = "delay_on_miss_ss"


def _shown(result: Any) -> Payload:
    """Print a run's table; its JSON document is what a suite reads."""
    print(result.render())
    return result.to_dict()


def _bench_pins(run: Payload) -> List[str]:
    problems = []
    if not run["deterministic"]:
        problems.append("parallel sweep rows diverged from serial rows")
    if run["failures"]:
        problems.append(f"{run['failures']} sweep row(s) failed")
    return problems


def _bench_check(run: Payload, baseline: Payload) -> List[str]:
    floor = baseline["instructions_per_sec"] * (1.0 - BENCH_TOLERANCE)
    if run["instructions_per_sec"] >= floor:
        return []
    return [f"simulated-instructions/sec regressed: "
            f"{run['instructions_per_sec']:,.0f} < {floor:,.0f} "
            f"(baseline {baseline['instructions_per_sec']:,.0f} "
            f"- {BENCH_TOLERANCE:.0%})"]


def _bench_raises(run: Payload, baseline: Payload) -> bool:
    return (run["instructions_per_sec"]
            > baseline["instructions_per_sec"] * (1.0 + RAISE_FLOOR_MARGIN))


def _precision_payload(document: Payload) -> Payload:
    """Enough to ratchet, nothing volatile (no timings)."""
    payload = {key: document[key] for key in (
        "window", "scale", "unknown_count", "resolved_by_tier",
        "symx_strictly_stronger", "summaries")}
    rows = document["rows"]
    payload["verdicts"] = {row["name"]: row["verdict"] for row in rows
                           if row["group"] in PINNED_GROUPS}
    payload["spec_verdicts"] = {row["name"]: row["verdict"]
                                for row in rows if row["group"] == "spec"}
    return payload


def _precision_pins(run: Payload) -> List[str]:
    if run["symx_strictly_stronger"]:
        return []
    return ["symx tier no longer strictly stronger than taint+valueset"]


def _precision_check(run: Payload, baseline: Payload) -> List[str]:
    problems = []
    if run["unknown_count"] > baseline["unknown_count"]:
        problems.append(f"UNKNOWN count rose: {run['unknown_count']} > "
                        f"baseline {baseline['unknown_count']}")
    for name, verdict in sorted(baseline["verdicts"].items()):
        got = run["verdicts"].get(name)
        if got is None:
            problems.append(f"pinned corpus row vanished: {name}")
        elif got != verdict:
            problems.append(
                f"corpus verdict changed: {name} {verdict} -> {got}")
    return problems


def _shootout_payload(document: Payload) -> Payload:
    """Leak counts only: overhead and area move with honest model work."""
    rows = document["rows"]
    return {
        "attacks": document["attacks"],
        "trials": {row["defense"]: row["trials"] for row in rows},
        "recovered": {row["defense"]: row["recovered"] for row in rows},
    }


def _shootout_pins(run: Payload) -> List[str]:
    trials, recovered = run["trials"], run["recovered"]
    problems = [f"registered defense '{name}' missing from the run"
                for name in defense_names() if name not in recovered]
    for attack, n in trials.get("origin", {}).items():
        got = recovered["origin"].get(attack, 0)
        if got < n:
            problems.append(f"origin positive control stopped leaking on "
                            f"{attack} ({got}/{n}): every 'blocked' "
                            f"cell is vacuous")
    for name in BLIND_SPOT_DEFENSES:
        got, n = (recovered.get(name, {}).get("v4", 0),
                  trials.get(name, {}).get("v4", 0))
        if got < n:
            problems.append(
                f"{name}: the documented V4 blind-spot leak disappeared "
                f"({got}/{n}); if the defense really grew store "
                f"coverage, update docs/defenses.md and the pinned tests")
    for attack, got in recovered.get(CLOSURE_DEFENSE, {}).items():
        if got:
            problems.append(f"{CLOSURE_DEFENSE}: must block every attack "
                            f"but recovered {got} on {attack}")
    return problems


def _shootout_check(run: Payload, baseline: Payload) -> List[str]:
    problems = []
    for name, ceilings in baseline["recovered"].items():
        row = run["recovered"].get(name)
        if row is None:
            problems.append(f"baseline row '{name}' is no longer "
                            f"registered; record with --write-baseline")
            continue
        for attack, ceiling in ceilings.items():
            got = row.get(attack)
            if got is None:
                problems.append(f"{name}: attack '{attack}' missing from "
                                f"the run")
            elif got > ceiling:
                problems.append(f"{name}: leaks more on {attack} than the "
                                f"baseline allows ({got} > {ceiling})")
    problems += [f"defense '{name}' has no committed baseline row; "
                 f"record with --write-baseline"
                 for name in run["recovered"]
                 if name not in baseline["recovered"]]
    return problems


@dataclass(frozen=True)
class Suite:
    """One ratcheted measurement and the rules that hold it."""

    baseline: str                                  # file in BASELINE_DIR
    format: str                                    # its "format" field
    #: The measured run's JSON document, at the recorded configuration.
    run: Callable[[], Payload]
    #: The part of that document the baseline records.
    payload: Callable[[Payload], Payload]
    #: Breaches that fail a run whatever the baseline says.
    pins: Callable[[Payload], List[str]]
    #: Regressions against the baseline.
    check: Callable[[Payload, Payload], List[str]]
    #: Whether a clean run earns a ``--raise-floor`` rewrite.
    raises: Callable[[Payload, Payload], bool]


SUITES: Dict[str, Suite] = {
    "bench": Suite(
        "BENCH_baseline.json", BENCH_FORMAT,
        lambda: _shown(run_bench(
            benchmarks=["bzip2", "mcf", "hmmer", "libquantum"], scale=0.3)),
        dict, _bench_pins, _bench_check, _bench_raises),
    "precision": Suite(
        "BENCH_precision.json", "repro-precision-baseline",
        lambda: _shown(run_precision_study(scale=0.1)),
        _precision_payload, _precision_pins, _precision_check,
        lambda run, baseline:
            run["unknown_count"] < baseline["unknown_count"]),
    "shootout": Suite(
        "BENCH_shootout.json", "repro-shootout-baseline",
        lambda: _shown(run_defense_shootout(
            benchmarks=["bzip2"], scale=0.02, trials=1, evolve=False)),
        _shootout_payload, _shootout_pins, _shootout_check,
        lambda run, baseline: False),
}


def ratchet(name: str, write_baseline: bool, raise_floor: bool,
            out: str) -> int:
    """Run one suite and hold it to (or record) its baseline."""
    suite = SUITES[name]
    path = os.path.join(BASELINE_DIR, suite.baseline)
    baseline = None
    if not write_baseline:
        if not os.path.exists(path):
            print(f"{name}: no baseline at {path}; record one with "
                  f"--write-baseline", file=sys.stderr)
            return 2
        with open(path) as handle:
            baseline = json.load(handle)
        if baseline.get("format") != suite.format:
            print(f"{name}: {path} is not a {suite.format} baseline "
                  f"(format={baseline.get('format')!r})", file=sys.stderr)
            return 2

    document = suite.run()
    if out:
        write_json(os.path.join(out, f"{name}.json"), document)
    run = dict(suite.payload(document), format=suite.format)
    problems = suite.pins(run)
    if baseline is not None:
        problems += suite.check(run, baseline)
    if problems:
        print(f"\n{name} ratchet FAILED (baseline {path} untouched):",
              file=sys.stderr)
        for problem in problems:
            print(f"  - {problem}", file=sys.stderr)
        return 1
    if baseline is None or (raise_floor and suite.raises(run, baseline)):
        write_json(path, run)
        print(f"{name}: {'raised the floor in' if baseline else 'recorded'}"
              f" {path}")
    else:
        print(f"{name} ratchet OK against {path}")
    return 0


def main(argv: List[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("suites", nargs="*", metavar="SUITE",
                        help=f"any of {', '.join(SUITES)} (default: all)")
    record = parser.add_mutually_exclusive_group()
    record.add_argument("--write-baseline", action="store_true",
                        help="record this run as the baseline (after its "
                             "pins pass)")
    record.add_argument("--raise-floor", action="store_true",
                        help="rewrite the baseline when this clean run "
                             "beats it (bench: >10%% faster; precision: "
                             "fewer UNKNOWNs)")
    parser.add_argument("--out", default="", metavar="DIR",
                        help="also write each suite's full run to "
                             "DIR/<suite>.json")
    args = parser.parse_args(argv)
    unknown = sorted(set(args.suites) - set(SUITES))
    if unknown:
        parser.error(f"unknown suite(s) {', '.join(unknown)}; choose from "
                     f"{', '.join(SUITES)}")
    if args.out:
        os.makedirs(args.out, exist_ok=True)
    return max(ratchet(name, args.write_baseline, args.raise_floor, args.out)
               for name in args.suites or SUITES)


if __name__ == "__main__":
    sys.exit(main())
