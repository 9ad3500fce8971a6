#!/usr/bin/env python
"""Capture / check the cycle-exactness golden file.

The hot-path optimizations in :mod:`repro.perf` (and any future
pipeline refactor) must be *cycle-exact*: the same program on the same
machine under the same defense must report exactly the same
:attr:`~repro.pipeline.report.SimReport.cycles` and the same attack
leakage verdicts as the unoptimized simulator.  This tool pins that
contract in ``tests/data/cycles_golden.json`` for every registered
defense (the four paper configurations and the zoo):

- every corpus gadget driver (kind x variant) — committed cycles;
- every SPEC profile at a reduced scale — committed cycles;
- every Spectre PoC — cycles *and* the leakage verdict (did the
  attack recover the secret?).

``python tools/cycles_golden.py --write`` regenerates the file (only
legitimate after an intentional timing-model change, never for a
performance-only PR); without flags it verifies and exits non-zero on
any drift.  ``tests/test_cycle_exact_golden.py`` runs the same
comparison inside the tier-1 suite.

``--digest`` prints one line per pinned run: section, key, defense and
a hash of the full report (``raw`` counters included), registers,
memory image and page table (report and verdict for attacks).  Two
checkouts are identical on every counter when their outputs ``diff``
clean.
"""
from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import sys
from typing import Any, Dict, Iterator, Optional, Tuple

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
)

from repro.analysis.corpus import (  # noqa: E402
    CORPUS_VARIANTS,
    GADGET_KINDS,
    build_corpus_variant,
)
from repro.attacks import ATTACKS, run_attack  # noqa: E402
from repro.core.defense import defense_names  # noqa: E402
from repro.core.policy import SecurityConfig  # noqa: E402
from repro.params import paper_config  # noqa: E402
from repro.pipeline.processor import Processor  # noqa: E402
from repro.workloads import spec_names, spec_program  # noqa: E402

GOLDEN_PATH = os.path.join(
    os.path.dirname(os.path.abspath(__file__)),
    "..", "tests", "data", "cycles_golden.json",
)

#: SPEC profiles are pinned at a reduced scale so the golden sweep
#: stays fast enough for the tier-1 suite.
SPEC_SCALE = 0.1

def pinned_runs() -> Iterator[Tuple[str, str, str, Optional[Processor],
                                    Any]]:
    """Simulate every pinned run, yielding ``(section, key, defense,
    cpu, outcome)``.  ``outcome`` is the run's ``SimReport``, or for an
    attack its ``AttackResult`` (``run_attack`` builds its own
    processor, so ``cpu`` is None there)."""
    machine = paper_config()
    defenses = defense_names()
    for kind in GADGET_KINDS:
        for variant in CORPUS_VARIANTS:
            program = build_corpus_variant(kind, variant)
            for defense in defenses:
                cpu = Processor(program, machine=machine,
                                security=SecurityConfig(defense))
                yield "corpus", f"{kind}:{variant}", defense, cpu, cpu.run()
    for name in spec_names():
        for defense in defenses:
            program = spec_program(name, scale=SPEC_SCALE)
            cpu = Processor(program, machine=machine,
                            security=SecurityConfig(defense))
            yield "spec", name, defense, cpu, cpu.run()
    for name, build in ATTACKS.items():
        for defense in defenses:
            attack = build(machine=machine)
            result = run_attack(attack, machine=machine,
                                security=SecurityConfig(defense))
            yield "attacks", name, defense, None, result


def capture() -> Dict[str, Any]:
    """Run the pinned workloads and collect cycles + verdicts."""
    golden: Dict[str, Any] = {
        "format": "repro-cycles-golden",
        "version": 1,
        "spec_scale": SPEC_SCALE,
        "corpus": {},
        "spec": {},
        "attacks": {},
    }
    for section, key, defense, _, outcome in pinned_runs():
        if section == "attacks":
            value = {"cycles": outcome.report.cycles,
                     "leaked": bool(outcome.success)}
        else:
            value = outcome.cycles
        golden[section].setdefault(key, {})[defense] = value
    return golden


def digest(cpu: Optional[Processor], outcome: Any) -> str:
    """Hash of everything a pinned run leaves behind: the full report
    (``raw`` counters included), final registers, memory image and
    page table; for an attack, its report and verdict."""
    if cpu is None:
        state = dataclasses.asdict(outcome)
    else:
        state = {
            "report": outcome.to_dict(),
            "registers": [cpu.arch_reg(index) for index in range(32)],
            "memory": cpu.memory_image,
            "pages": vars(cpu.page_table),
        }
    blob = json.dumps(state, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def ordered(node: Any) -> Any:
    """``node`` with every mapping's keys sorted, except that the
    ``origin`` column (the unprotected reference) always comes last: a
    newly registered defense then only adds lines to the file."""
    if not isinstance(node, dict):
        return node
    keys = sorted(node, key=lambda key: (key == "origin", key))
    return {key: ordered(node[key]) for key in keys}


def diff(expected: Dict[str, Any], actual: Dict[str, Any]) -> list:
    """Human-readable list of mismatches between two captures."""
    problems = []
    for section in ("corpus", "spec", "attacks"):
        exp, act = expected.get(section, {}), actual.get(section, {})
        for key in sorted(set(exp) | set(act)):
            if exp.get(key) != act.get(key):
                problems.append(
                    f"{section}/{key}: expected {exp.get(key)!r}, "
                    f"got {act.get(key)!r}"
                )
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--write", action="store_true",
                      help="(re)write the golden file")
    mode.add_argument("--digest", action="store_true",
                      help="print one state hash per pinned run instead "
                           "of checking cycles")
    args = parser.parse_args(argv)
    if args.digest:
        for section, key, defense, cpu, outcome in pinned_runs():
            print(section, key, defense, digest(cpu, outcome))
        return 0
    actual = capture()
    if args.write:
        os.makedirs(os.path.dirname(GOLDEN_PATH), exist_ok=True)
        with open(GOLDEN_PATH, "w") as handle:
            json.dump(ordered(actual), handle, indent=1)
            handle.write("\n")
        print(f"wrote {os.path.relpath(GOLDEN_PATH)}")
        return 0
    with open(GOLDEN_PATH) as handle:
        expected = json.load(handle)
    problems = diff(expected, actual)
    if problems:
        print("cycle-exactness golden MISMATCH:")
        for problem in problems:
            print(f"  {problem}")
        return 1
    runs = (len(expected["corpus"]) + len(expected["spec"])
            + len(expected["attacks"])) * len(defense_names())
    print(f"cycle-exactness golden OK ({runs} pinned runs)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
