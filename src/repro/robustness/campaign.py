"""Fault-injection campaigns: N seeds x corpus, oracle-refereed.

A campaign runs each case program under a seeded
:class:`~repro.robustness.faults.FaultPlan` with the structural
invariant lint enabled, then compares the retired architectural state
against the in-order functional oracle.  Any divergence — register or
memory mismatch, retirement-count drift, an invariant violation, a
deadlock, a failure to halt — is recorded with the case name and seed
so the exact run replays deterministically.

``tools/fault_campaign.py`` is the command-line driver; the campaign
tests in the tier-1 suite run a reduced version of the same sweep.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set

from ..core.policy import SecurityConfig
from ..errors import SimulationError
from ..isa.instructions import Opcode
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
    """Outcome of one (case, seed) run."""

    name: str
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
        line = (f"{self.name:<24} seed={self.seed:<6} {status:<8} "
                f"cycles={self.cycles:<9} injected={injected}")
        if self.mismatches:
            line += "\n" + "\n".join(f"    {m}" for m in self.mismatches)
        return line


@dataclass
class CampaignResult:
    """All (case, seed) outcomes of one campaign."""

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
                    "name": r.name, "seed": r.seed, "ok": r.ok,
                    "cycles": r.cycles, "committed": r.committed,
                    "injected": r.injected, "mismatches": r.mismatches,
                }
                for r in self.results
            ],
        }


def _rdcycle_dests(program: Program) -> Set[int]:
    """Registers whose final value is timing-dependent by design
    (RDCYCLE destinations) — excluded from oracle comparison, exactly
    as the equivalence suite does."""
    dests: Set[int] = set()
    for instruction in program.instructions:
        if instruction.op is Opcode.RDCYCLE \
                and instruction.dest is not None:
            dests.add(instruction.dest)
    return dests


def run_fault_case(
    case: CampaignCase,
    plan: FaultPlan,
    machine: Optional[MachineParams] = None,
    security: Optional[SecurityConfig] = None,
    check_invariants: bool = True,
) -> CampaignCaseResult:
    """Run one case under ``plan`` and referee it against the oracle."""
    # Imported here: the processor itself depends on robustness.faults.
    from ..pipeline.processor import Processor

    machine = machine if machine is not None else tiny_config()
    security = security if security is not None \
        else SecurityConfig.cache_hit_tpbuf()
    oracle = run_oracle(case.program,
                        max_instructions=case.max_instructions)
    mismatches: List[str] = []
    if not oracle.halted:
        mismatches.append("case bug: oracle did not halt")

    started = time.monotonic()
    cpu = Processor(case.program, machine=machine, security=security,
                    options=RunOptions(fault_plan=plan),
                    check_invariants=check_invariants)
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

    if report is not None and not mismatches:
        if not report.halted:
            mismatches.append(
                f"did not halt (termination={report.termination})")
        else:
            skip = _rdcycle_dests(case.program)
            for reg in range(machine.core.num_arch_regs):
                if reg in skip:
                    continue
                got, want = cpu.arch_reg(reg), oracle.reg(reg)
                if got != want:
                    mismatches.append(
                        f"r{reg}: core={got:#x} oracle={want:#x}")
            addresses = set(oracle.memory) \
                | set(case.program.initial_memory)
            for vaddr in sorted(addresses):
                got, want = cpu.read_vword(vaddr), oracle.mem(vaddr)
                if got != want:
                    mismatches.append(
                        f"mem[{vaddr:#x}]: core={got:#x} "
                        f"oracle={want:#x}")
            if report.committed != oracle.retired:
                mismatches.append(
                    f"retirement drift: core committed "
                    f"{report.committed}, oracle retired "
                    f"{oracle.retired}")

    injected = cpu.faults.summary() if cpu.faults is not None else {}
    return CampaignCaseResult(
        name=case.name,
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
    """Run every case under every seed.

    ``plan`` supplies the rates (default :meth:`FaultPlan.moderate`);
    each (case, seed) pair gets a decorrelated seed derived from the
    campaign seed and the case name, so campaigns are reproducible yet
    no two runs share an RNG stream.
    """
    base = plan if plan is not None else FaultPlan.moderate()
    result = CampaignResult()
    for seed in seeds:
        for case in cases:
            derived = base.with_seed(seed).derive(case.name)
            outcome = run_fault_case(
                case, derived, machine=machine, security=security,
                check_invariants=check_invariants,
            )
            # Report under the campaign seed, which is what replays it.
            outcome.seed = seed
            result.results.append(outcome)
            if progress is not None:
                progress(outcome)
    return result
