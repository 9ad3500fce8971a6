"""Fault-injection campaigns: N seeds x corpus x defenses,
oracle-refereed.

A campaign runs each case program under every registered defense and
a seeded :class:`~repro.robustness.faults.FaultPlan` with the
structural invariant lint enabled, then compares the retired
architectural state against the in-order functional oracle's run of
the same program (the differential fuzzer's
:func:`~repro.fuzz.differential.compare_with_oracle`).  Any divergence
— register or memory mismatch, retirement-count drift, an invariant
violation, a deadlock, a failure to halt — is recorded with the case
name, defense and seed so the exact run replays deterministically.

``tools/fault_campaign.py`` is the command-line driver; the campaign
tests in the tier-1 suite run a reduced version of the same sweep.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence

from ..core.defense import defense_names
from ..core.policy import SecurityConfig
from ..errors import SimulationError
from ..isa.oracle import run_oracle
from ..isa.program import Program
from ..params import MachineParams, RunOptions, tiny_config
from .faults import FaultPlan

#: SPEC profiles the default campaign exercises (cheap but distinct:
#: compute-bound, pointer-chasing and branchy codes).
DEFAULT_SPEC_PROFILES = ("hmmer", "mcf", "astar")


@dataclass(frozen=True)
class CampaignCase:
    """One program the campaign perturbs."""

    name: str
    program: Program
    max_cycles: int = 2_000_000
    max_instructions: int = 2_000_000


@dataclass
class CampaignCaseResult:
    """Outcome of one (case, defense, seed) run."""

    name: str
    defense: str
    seed: int
    ok: bool
    cycles: int = 0
    committed: int = 0
    duration_s: float = 0.0
    #: Per-kind injected event counts.
    injected: Dict[str, int] = field(default_factory=dict)
    #: Human-readable divergence descriptions (empty when ``ok``).
    mismatches: List[str] = field(default_factory=list)

    def render(self) -> str:
        status = "ok" if self.ok else "DIVERGED"
        injected = sum(self.injected.values())
        line = (f"{self.name:<24} {self.defense:<16} seed={self.seed:<6} "
                f"{status:<8} cycles={self.cycles:<9} "
                f"injected={injected}")
        if self.mismatches:
            line += "\n" + "\n".join(f"    {m}" for m in self.mismatches)
        return line


@dataclass
class CampaignResult:
    """All (case, defense, seed) outcomes of one campaign."""

    results: List[CampaignCaseResult] = field(default_factory=list)

    @property
    def failures(self) -> List[CampaignCaseResult]:
        return [r for r in self.results if not r.ok]

    @property
    def ok(self) -> bool:
        return not self.failures

    @property
    def total_injected(self) -> int:
        return sum(sum(r.injected.values()) for r in self.results)

    def render(self) -> str:
        lines = [r.render() for r in self.results]
        lines.append(
            f"{len(self.results)} runs, {self.total_injected} injected "
            f"events, {len(self.failures)} divergences"
        )
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, object]:
        return {
            "runs": len(self.results),
            "injected_events": self.total_injected,
            "divergences": len(self.failures),
            "results": [
                {
                    "name": r.name, "defense": r.defense,
                    "seed": r.seed, "ok": r.ok,
                    "cycles": r.cycles, "committed": r.committed,
                    "injected": r.injected, "mismatches": r.mismatches,
                }
                for r in self.results
            ],
        }


def run_fault_case(
    case: CampaignCase,
    plan: FaultPlan,
    machine: Optional[MachineParams] = None,
    security: Optional[SecurityConfig] = None,
    check_invariants: bool = True,
) -> CampaignCaseResult:
    """Run one case under ``plan`` and referee it against the oracle."""
    # Imported here: the processor itself depends on robustness.faults.
    from ..fuzz.differential import compare_with_oracle
    from ..pipeline.processor import Processor

    machine = machine if machine is not None else tiny_config()
    security = security if security is not None \
        else SecurityConfig.cache_hit_tpbuf()
    started = time.monotonic()
    cpu = Processor(case.program, machine=machine, security=security,
                    options=RunOptions(fault_plan=plan),
                    check_invariants=check_invariants)
    mismatches: List[str] = []
    report = None
    try:
        report = cpu.run(max_cycles=case.max_cycles)
    except SimulationError as exc:
        detail = f"{type(exc).__name__}: {exc}"
        diagnostics = getattr(exc, "diagnostics", None)
        if diagnostics is not None:
            detail += "\n" + diagnostics.render()
        mismatches.append(detail)
    duration = time.monotonic() - started

    # The oracle runs the program the core ran (a software defense
    # rewrites it).
    oracle = run_oracle(cpu.program,
                        max_instructions=case.max_instructions)
    if not oracle.halted:
        mismatches.append("case bug: oracle did not halt")
    elif report is not None and not mismatches:
        mismatches = [mismatch.render() for mismatch in
                      compare_with_oracle(cpu, report, oracle,
                                          security.mode)]

    injected = cpu.faults.summary() if cpu.faults is not None else {}
    return CampaignCaseResult(
        name=case.name,
        defense=security.mode,
        seed=plan.seed,
        ok=not mismatches,
        cycles=cpu.cycle,
        committed=report.committed if report is not None else 0,
        duration_s=duration,
        injected=injected,
        mismatches=mismatches,
    )


# ---------------------------------------------------------------------------
# Case corpora
# ---------------------------------------------------------------------------

def gadget_cases(fenced_too: bool = True) -> List[CampaignCase]:
    """The Spectre gadget drivers (the security-critical corner)."""
    from ..analysis.corpus import GADGET_KINDS, build_gadget_program

    cases = []
    for kind in GADGET_KINDS:
        cases.append(CampaignCase(f"gadget:{kind}",
                                  build_gadget_program(kind)))
        if fenced_too:
            cases.append(CampaignCase(
                f"gadget:{kind}:fenced",
                build_gadget_program(kind, fenced=True)))
    return cases


def spec_cases(
    profiles: Optional[Iterable[str]] = None,
    scale: float = 0.1,
) -> List[CampaignCase]:
    """Reduced-scale SPEC profiles (the throughput corner)."""
    from ..workloads import spec_program

    return [
        CampaignCase(f"spec:{name}", spec_program(name, scale=scale))
        for name in (profiles or DEFAULT_SPEC_PROFILES)
    ]


def run_campaign(
    cases: Sequence[CampaignCase],
    seeds: Sequence[int],
    plan: Optional[FaultPlan] = None,
    machine: Optional[MachineParams] = None,
    security: Optional[SecurityConfig] = None,
    check_invariants: bool = True,
    progress=None,
) -> CampaignResult:
    """Run every case under every seed, under ``security`` or, by
    default, under every registered defense.

    ``plan`` supplies the rates (default :meth:`FaultPlan.moderate`);
    each (case, seed) pair gets a decorrelated seed derived from the
    campaign seed and the case name, so campaigns are reproducible yet
    no two cases share an RNG stream.
    """
    base = plan if plan is not None else FaultPlan.moderate()
    configs = [security] if security is not None \
        else [SecurityConfig(name) for name in defense_names()]
    result = CampaignResult()
    for seed in seeds:
        for case in cases:
            derived = base.with_seed(seed).derive(case.name)
            for config in configs:
                outcome = run_fault_case(
                    case, derived, machine=machine, security=config,
                    check_invariants=check_invariants,
                )
                # Report under the campaign seed, which replays it.
                outcome.seed = seed
                result.results.append(outcome)
                if progress is not None:
                    progress(outcome)
    return result
