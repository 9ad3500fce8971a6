"""Static defense-coverage pre-screen: predict the shootout matrix.

PR 1 proved the static suspect set covers 100% of the simulator's
dynamic security dependences; this module extends that
static-vs-dynamic methodology from one defense to the whole zoo.  For
every (attack class, registered defense) pair it predicts
**blocked** or **leaky** purely from static facts:

1. the attack program's S-Pattern findings (:mod:`repro.analysis.taint`)
   establish which speculation-source family the attack transmits
   through — no finding of the attack's family means no channel at
   all;
2. the defense's declared source coverage
   (:attr:`repro.core.defense.Defense.covers_sources`, derived from
   its wiring) decides whether its suspect/gate predicate can see that
   family — a family it cannot see is predicted to leak;
3. ``"store"`` coverage flagged ``coverage_needs_memdep`` is not taken
   on faith: the memory-dependence summary
   (:mod:`repro.analysis.memdep`) must either name the finding's
   store→load pairs in its may-bypass table (the defense will delay
   them) or carry a disjointness proof (the bypass is impossible);
   pairs with neither fact are predicted to leak;
4. software defenses are predicted by *applying* their program
   transform and re-scanning — a clean rewrite is a blocked cell.

:func:`repro.experiments.prescreen.run_defense_prescreen` (``repro
prescreen``) cross-validates the predicted matrix against the dynamic
shootout; any disagreeing cell is named.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from ..core.defense import create_defense, defense_names
from .memdep import MemDepSummary, compute_memdep_summary
from .report import AnalysisReport, Finding, GadgetKind
from .taint import DEFAULT_WINDOW, analyze_program

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..isa.program import Program

#: Attack suite name → the speculation-source family it rides on.
ATTACK_FAMILY: Dict[str, str] = {
    "v1": "branch",
    "v2": "indirect",
    "v4": "store",
    "rsb": "return",
    "prime": "branch",  # V1 gadget observed through Prime+Probe
}

#: Source family → the S-Pattern finding kind that transmits it.
FAMILY_KIND: Dict[str, GadgetKind] = {
    "branch": GadgetKind.SPECTRE_V1,
    "indirect": GadgetKind.SPECTRE_V2,
    "return": GadgetKind.SPECTRE_RSB,
    "store": GadgetKind.SPECTRE_V4,
}


def attack_program(attack: str) -> "Program":
    """A fresh copy of the suite attack's victim+receiver program."""
    from ..attacks import ATTACKS

    if attack not in ATTACKS:
        raise ValueError(
            f"unknown attack {attack!r}; expected one of "
            f"{', '.join(sorted(ATTACKS))}")
    return ATTACKS[attack]().program


@dataclass(frozen=True)
class PrescreenCell:
    """One (attack, defense) prediction with its static justification."""

    attack: str
    defense: str
    predicted_blocked: bool
    reason: str

    @property
    def predicted(self) -> str:
        return "blocked" if self.predicted_blocked else "leaky"

    def to_dict(self) -> Dict[str, object]:
        return {
            "attack": self.attack,
            "defense": self.defense,
            "predicted": self.predicted,
            "reason": self.reason,
        }


@dataclass
class PrescreenMatrix:
    """The full predicted (attack × defense) blocked/leaky matrix."""

    attacks: Tuple[str, ...]
    defenses: Tuple[str, ...]
    cells: Dict[Tuple[str, str], PrescreenCell] = field(
        default_factory=dict)
    window: int = DEFAULT_WINDOW

    def cell(self, attack: str, defense: str) -> PrescreenCell:
        return self.cells[(attack, defense)]

    def to_dict(self) -> Dict[str, object]:
        return {
            "attacks": list(self.attacks),
            "defenses": list(self.defenses),
            "window": self.window,
            "cells": [
                self.cells[(attack, defense)].to_dict()
                for defense in self.defenses
                for attack in self.attacks
            ],
        }

    def render(self) -> str:
        width = max(len(name) for name in self.defenses) + 2
        head = "defense".ljust(width) + "".join(
            attack.rjust(8) for attack in self.attacks)
        lines = [head, "-" * len(head)]
        for defense in self.defenses:
            row = defense.ljust(width)
            for attack in self.attacks:
                cell = self.cells[(attack, defense)]
                row += ("ok" if cell.predicted_blocked else
                        "LEAK").rjust(8)
            lines.append(row)
        return "\n".join(lines)


def _store_cell_reason(
    findings: Sequence[Finding],
    summary: MemDepSummary,
) -> Tuple[bool, str]:
    """Does the memdep table cover every bypassing pair of the
    attack's V4 findings?  Each pair must be either named may-bypass
    (the defense delays the load) or carry a disjointness proof (the
    bypass is impossible)."""
    for finding in findings:
        loads = set(finding.tainting_loads) or {finding.sink_pc}
        for load_pc in sorted(loads):
            entry = summary.entry_for(load_pc)
            if entry is not None and (
                    finding.source_pc in entry.may_bypass
                    or any(proof.store_pc == finding.source_pc
                           for proof in entry.disjoint)):
                continue
            return False, (
                f"store set has no fact for load {load_pc:#x} vs "
                f"store {finding.source_pc:#x}: the defense will not "
                "delay this bypass")
    pairs = sum(len(set(f.tainting_loads) or {f.sink_pc})
                for f in findings)
    return True, (
        f"memdep covers all {pairs} store→load pair(s): each is "
        "may-bypass (delayed) or provably disjoint")


def _predict_cell(
    attack: str,
    defense_name: str,
    report: AnalysisReport,
    program: "Program",
    window: int,
    memdep: Optional[MemDepSummary],
) -> PrescreenCell:
    family = ATTACK_FAMILY[attack]
    kind = FAMILY_KIND[family]
    findings = [f for f in report.findings if f.kind is kind]
    defense = create_defense(defense_name)
    if not findings:
        return PrescreenCell(
            attack, defense_name, True,
            f"no {kind.value} finding in the attack program: "
            "no channel to block")
    if family not in defense.covers_sources:
        return PrescreenCell(
            attack, defense_name, False,
            f"'{family}' source family not covered by "
            f"{defense_name}'s predicate "
            f"(covers: {', '.join(defense.covers_sources) or 'nothing'})")
    if defense.kind == "software":
        transformed = defense.transform_program(program)
        after = analyze_program(transformed, window=window,
                                name=f"{attack}+{defense_name}")
        surviving = [f for f in after.findings if f.kind is kind]
        if surviving:
            return PrescreenCell(
                attack, defense_name, False,
                f"{len(surviving)} {kind.value} finding(s) survive "
                "the software transform")
        return PrescreenCell(
            attack, defense_name, True,
            "software transform rewrites the program scan-clean "
            f"for {kind.value}")
    if family == "store" and defense.coverage_needs_memdep:
        assert memdep is not None
        blocked, reason = _store_cell_reason(findings, memdep)
        return PrescreenCell(attack, defense_name, blocked, reason)
    return PrescreenCell(
        attack, defense_name, True,
        f"'{family}' covered by {defense_name}'s wiring "
        f"({len(findings)} {kind.value} finding(s) gated)")


def prescreen_defenses(
    attacks: Optional[Sequence[str]] = None,
    defenses: Optional[Sequence[str]] = None,
    window: int = DEFAULT_WINDOW,
) -> PrescreenMatrix:
    """Predict blocked/leaky for every (attack, defense) pair."""
    attack_names = tuple(attacks if attacks is not None
                         else ATTACK_FAMILY)
    unknown = [name for name in attack_names
               if name not in ATTACK_FAMILY]
    if unknown:
        raise ValueError(
            f"unknown attack(s) {', '.join(unknown)}; expected "
            f"{', '.join(ATTACK_FAMILY)}")
    defense_list = tuple(defenses if defenses is not None
                         else defense_names())
    matrix = PrescreenMatrix(attacks=attack_names,
                             defenses=defense_list, window=window)
    needs_memdep = any(create_defense(name).coverage_needs_memdep
                       for name in defense_list)
    for attack in attack_names:
        program = attack_program(attack)
        report = analyze_program(program, window=window, name=attack)
        memdep = None
        if needs_memdep and ATTACK_FAMILY[attack] == "store":
            memdep = compute_memdep_summary(program, window=window)
        for defense_name in defense_list:
            matrix.cells[(attack, defense_name)] = _predict_cell(
                attack, defense_name, report, program, window, memdep)
    return matrix


__all__ = [
    "ATTACK_FAMILY",
    "FAMILY_KIND",
    "PrescreenCell",
    "PrescreenMatrix",
    "attack_program",
    "prescreen_defenses",
]
