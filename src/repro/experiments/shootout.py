"""Cross-defense shootout: the security x performance x area frontier.

Every entry in the defense zoo (:mod:`repro.core.defense`) is scored
on three axes over the same workload set:

- **Security** — the full attack suite (Spectre V1/V2/V4, ret2spec,
  Prime+Probe V1), each swept over several secret values;  the score
  is secrets recovered per attack (:func:`repro.attacks.sweep_attack`).
  ``origin`` is the positive control: the channel itself must work.
- **Performance** — cycle overhead versus ``origin`` on SPEC profiles,
  one :class:`repro.experiments.runner.SweepEngine` run over every
  (profile, defense) pair.
- **Area** — the defense's own declared hardware cost
  (:meth:`repro.core.defense.Defense.area_mm2`), also expressed as a
  fraction of the paper's 32KB/4-way L1D reference.

An optional fourth, adversarial leg runs each defense through the
fuzz evolve loop (:func:`repro.fuzz.evolve.evolve_mode`): a staged
corpus gadget is hill-climbed against the defense, and any verified
survivor (a mutant that still leaks) is reported on the row.

:func:`run_defense_shootout` and ``repro shootout`` are the entry
points; ``tools/ratchet.py shootout`` pins a reduced-scale run in CI
against a committed baseline.
"""
from __future__ import annotations

import random
import sys
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..attacks import ATTACKS, sweep_attack
from ..core.defense import create_defense, defense_names, \
    normalize_defense_name
from ..core.policy import SecurityConfig
from ..errors import ConfigError
from ..params import MachineParams, paper_config, tiny_config
from ..stats import safe_div
from ..workloads import spec_names
from .runner import SweepEngine, average

__all__ = [
    "ShootoutRow",
    "ShootoutResult",
    "run_defense_shootout",
]

ProgressFn = Callable[[str], None]


def _no_progress(message: str) -> None:
    del message


@dataclass
class ShootoutRow:
    """One defense's scores on all three (four) axes."""

    defense: str
    kind: str                       # "hardware" | "software"
    summary: str
    #: attack name -> secrets recovered (out of ``trials``).
    recovered: Dict[str, int] = field(default_factory=dict)
    trials: Dict[str, int] = field(default_factory=dict)
    #: benchmark -> cycle overhead vs origin (0.32 = +32%).
    overheads: Dict[str, float] = field(default_factory=dict)
    area_mm2: float = 0.0
    area_fraction: float = 0.0
    #: Adversarial leg (when run): best leak fitness the evolve loop
    #: reached, and whether a verified survivor bypassed the defense.
    evolve_fitness: Optional[int] = None
    evolve_survivor: bool = False

    @property
    def total_recovered(self) -> int:
        return sum(self.recovered.values())

    @property
    def mean_overhead(self) -> float:
        return average(self.overheads.values())

    def to_dict(self) -> Dict[str, object]:
        return {
            "defense": self.defense,
            "kind": self.kind,
            "summary": self.summary,
            "recovered": dict(self.recovered),
            "trials": dict(self.trials),
            "overheads": dict(self.overheads),
            "mean_overhead": self.mean_overhead,
            "area_mm2": self.area_mm2,
            "area_fraction": self.area_fraction,
            "evolve_fitness": self.evolve_fitness,
            "evolve_survivor": self.evolve_survivor,
        }


@dataclass
class ShootoutResult:
    """The frontier: one row per defense, plus run provenance."""

    rows: List[ShootoutRow] = field(default_factory=list)
    attacks: Tuple[str, ...] = ()
    benchmarks: Tuple[str, ...] = ()
    scale: float = 1.0
    secrets: Tuple[int, ...] = ()
    evolved: bool = False

    def row(self, defense: str) -> ShootoutRow:
        wanted = normalize_defense_name(defense)
        for row in self.rows:
            if row.defense == wanted:
                return row
        raise KeyError(f"no shootout row for defense '{defense}'")

    def to_dict(self) -> Dict[str, object]:
        return {
            "attacks": list(self.attacks),
            "benchmarks": list(self.benchmarks),
            "scale": self.scale,
            "secrets": list(self.secrets),
            "evolved": self.evolved,
            "rows": [row.to_dict() for row in self.rows],
        }

    def render(self) -> str:
        """The frontier table: leaks per attack x overhead x area."""
        header = ["defense", "kind"]
        header += [f"{name}" for name in self.attacks]
        header += ["ovh%", "area mm2", "area/L1D"]
        if self.evolved:
            header.append("evolve")
        table: List[List[str]] = [header]
        for row in self.rows:
            cells = [row.defense, row.kind]
            for attack in self.attacks:
                got = row.recovered.get(attack, 0)
                n = row.trials.get(attack, 0)
                cells.append(f"{got}/{n}")
            cells.append(f"{row.mean_overhead * 100:6.1f}")
            cells.append(f"{row.area_mm2:.4f}")
            cells.append(f"{row.area_fraction * 100:5.1f}%")
            if self.evolved:
                if row.evolve_fitness is None:
                    cells.append("-")
                elif row.evolve_survivor:
                    cells.append(f"BYPASS({row.evolve_fitness})")
                else:
                    cells.append(f"holds({row.evolve_fitness})")
            table.append(cells)
        widths = [max(len(line[col]) for line in table)
                  for col in range(len(header))]
        lines = []
        for index, cells in enumerate(table):
            lines.append("  ".join(
                cell.ljust(width) for cell, width in zip(cells, widths)
            ).rstrip())
            if index == 0:
                lines.append("-" * len(lines[0]))
        return "\n".join(lines)


def _evolve_leg(
    defense: str,
    *,
    machine: MachineParams,
    seed: str,
    generations: int,
    progress: ProgressFn,
) -> Tuple[Optional[int], bool]:
    """Hill-climb a staged corpus gadget against ``defense``.  Returns
    (best fitness, verified-survivor); (None, False) when no seed could
    be staged (symx found no replayable leak on this machine)."""
    from ..analysis.corpus import build_corpus_variant, corpus_secret_words
    from ..fuzz.evolve import evolve_mode, staged_seed

    staged = staged_seed("v1/unsafe", build_corpus_variant("v1", "unsafe"),
                         corpus_secret_words(), machine=machine)
    if staged is None:
        progress(f"  {defense}: evolve skipped (no staged seed)")
        return None, False
    rng = random.Random(f"shootout:{seed}:{defense}")
    report = evolve_mode(
        staged.program, staged.secret_words, defense, rng,
        seed_name=staged.name, generations=generations,
        population=4, offspring=2, machine=machine,
        warm_words=staged.warm_words,
    )
    return report.best_fitness, report.verified


def run_defense_shootout(
    defenses: Optional[Sequence[str]] = None,
    attacks: Optional[Sequence[str]] = None,
    benchmarks: Optional[Sequence[str]] = None,
    machine: Optional[MachineParams] = None,
    scale: float = 0.05,
    trials: int = 3,
    evolve: bool = True,
    evolve_generations: int = 4,
    seed: str = "shootout",
    progress: Optional[ProgressFn] = None,
) -> ShootoutResult:
    """Score every defense on security, performance, and area.

    ``defenses`` defaults to the whole registry (``origin`` first — it
    is the positive control and the overhead denominator, and is added
    if missing).  ``trials`` secrets are swept per attack;
    ``benchmarks`` defaults to the full SPEC profile set at ``scale``.
    ``evolve=False`` skips the adversarial leg (the CI smoke does).
    """
    progress = progress if progress is not None else _no_progress
    machine = machine if machine is not None else paper_config()
    names = [normalize_defense_name(name)
             for name in (defenses if defenses is not None
                          else defense_names())]
    if "origin" not in names:
        names.insert(0, "origin")
    attack_names = tuple(attacks if attacks is not None else ATTACKS)
    unknown = [name for name in attack_names if name not in ATTACKS]
    if unknown:
        raise ConfigError(
            f"unknown attack(s) {', '.join(unknown)}; suite: "
            f"{', '.join(ATTACKS)}")
    bench_names = tuple(benchmarks if benchmarks is not None
                        else spec_names())
    secrets = tuple(range(1, 1 + max(1, trials)))

    result = ShootoutResult(
        attacks=attack_names, benchmarks=bench_names, scale=scale,
        secrets=secrets, evolved=evolve,
    )

    # Performance: origin is in the grid as every overhead's denominator.
    reports = SweepEngine(
        benchmarks=bench_names, modes=names, machine=machine, scale=scale,
    ).run(progress=lambda row: progress(
        f"{row.mode}: spec {row.benchmark}")).reports()

    evolve_machine = tiny_config()
    for name in names:
        defense = create_defense(name)
        row = ShootoutRow(defense=name, kind=defense.kind,
                          summary=defense.summary,
                          area_mm2=defense.area_mm2(machine),
                          area_fraction=defense.area_fraction(machine))
        security = SecurityConfig(name)
        for attack in attack_names:
            progress(f"{name}: attack {attack}")
            sweep = sweep_attack(ATTACKS[attack], security,
                                 secrets=secrets, machine=machine)
            row.recovered[attack] = sweep.correct
            row.trials[attack] = sweep.trials
        row.overheads = {
            bench: safe_div(per_mode[name].cycles,
                            per_mode["origin"].cycles, 1.0) - 1.0
            for bench, per_mode in reports.items()
        }
        if evolve:
            progress(f"{name}: evolve adversary")
            row.evolve_fitness, row.evolve_survivor = _evolve_leg(
                name, machine=evolve_machine, seed=seed,
                generations=evolve_generations, progress=progress)
        result.rows.append(row)

    return result


def print_progress(message: str) -> None:
    """Default CLI progress sink."""
    print(f"  {message}", file=sys.stderr)
