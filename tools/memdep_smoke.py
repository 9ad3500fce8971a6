#!/usr/bin/env python3
"""Memory-dependence analysis smoke (CI entry point).

Drives the whole memdep stack end-to-end on the corpus V4 gadgets and
the attack suite::

    python tools/memdep_smoke.py

Checks, all of which must hold (exit 1 otherwise):

1. **Static store sets** — the unsafe V4 corpus gadget has a non-empty
   may-bypass table, the fenced variant has zero pairs, and the
   summary's content hash is deterministic across recomputation.
2. **The V4 blind spot and its closure** — run the Spectre V4 attack
   dynamically: ``delay_on_miss`` must leak the secret (the documented
   blind spot stays reproduced) and ``delay_on_miss_ss`` must block it
   while staying clean on every other suite attack.
3. **Pre-screen cross-validation** — the static defense-coverage
   matrix must agree with the dynamic shootout on every
   (attack, defense) cell; disagreeing cells are printed verbatim.
"""
from __future__ import annotations

import argparse
import os
import sys
from typing import List

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro import SecurityConfig  # noqa: E402
from repro.analysis.corpus import build_corpus_variant  # noqa: E402
from repro.analysis.memdep import compute_memdep_summary  # noqa: E402
from repro.attacks import build_spectre_v4, run_attack  # noqa: E402
from repro.experiments.prescreen import run_defense_prescreen  # noqa: E402


def check_store_sets() -> List[str]:
    problems: List[str] = []
    unsafe = build_corpus_variant("v4", "unsafe")
    summary = compute_memdep_summary(unsafe)
    print(summary.render())
    if not summary.may_bypass_table():
        problems.append("unsafe V4 gadget: empty may-bypass table — "
                        "the store-set defense would never trigger")
    if summary.content_hash() != compute_memdep_summary(
            unsafe).content_hash():
        problems.append("memdep summary content hash is not "
                        "deterministic across recomputation")
    fenced = build_corpus_variant("v4", "fenced")
    fenced_pairs = compute_memdep_summary(fenced).pair_count
    if fenced_pairs:
        problems.append(f"fenced V4 gadget: {fenced_pairs} may-bypass "
                        f"pair(s) survive the FENCE — the walk must "
                        f"stop at serialization")
    return problems


def check_blind_spot_closure() -> List[str]:
    problems: List[str] = []
    leaky = run_attack(build_spectre_v4(),
                       security=SecurityConfig("delay_on_miss"))
    print(leaky.render())
    if not leaky.success:
        problems.append("delay_on_miss no longer leaks V4 — the "
                        "documented blind spot disappeared; update "
                        "docs/defenses.md and the pinned tests if "
                        "this is intentional")
    blocked = run_attack(build_spectre_v4(),
                         security=SecurityConfig("delay_on_miss_ss"))
    print(blocked.render())
    if blocked.success:
        problems.append("delay_on_miss_ss leaked the V4 secret — the "
                        "store-set closure is broken")
    return problems


def check_prescreen() -> List[str]:
    validation = run_defense_prescreen(trials=1)
    print(validation.render())
    return [f"prescreen disagreement: {entry}"
            for entry in validation.disagreements]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--skip-prescreen", action="store_true",
                        help="skip the (slow) full matrix "
                             "cross-validation leg")
    args = parser.parse_args(argv)

    problems = []
    print("== static store sets ==")
    problems += check_store_sets()
    print("\n== V4 blind spot and closure ==")
    problems += check_blind_spot_closure()
    if not args.skip_prescreen:
        print("\n== pre-screen cross-validation ==")
        problems += check_prescreen()

    if problems:
        print("\nmemdep smoke FAILED:", file=sys.stderr)
        for problem in problems:
            print(f"  - {problem}", file=sys.stderr)
        return 1
    print("\nmemdep smoke OK: store sets populated, blind spot "
          "reproduced and closed, pre-screen agrees with the shootout")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
