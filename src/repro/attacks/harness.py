"""Attack runner: simulate an attack under a protection mode and judge
whether the secret leaked."""
from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..core.policy import SecurityConfig
from ..params import MachineParams, paper_config
from ..pipeline.processor import Processor
from ..pipeline.report import SimReport
from .common import AttackProgram


@dataclass
class AttackResult:
    """Outcome of one attack simulation."""

    name: str
    mode: str  # defense name (legacy field name kept for compatibility)
    secret: int
    recovered: Optional[int]
    leaked: bool
    gap: float
    timings: List[int]
    report: SimReport

    @property
    def success(self) -> bool:
        """The attack worked: the channel showed a clear signal *and*
        it identified the right value."""
        return self.leaked and self.recovered == self.secret

    def render(self) -> str:
        verdict = "LEAKED" if self.success else (
            "noisy-signal" if self.leaked else "no-leak"
        )
        return (
            f"{self.name} under {self.mode}: {verdict} "
            f"(secret={self.secret} recovered={self.recovered} "
            f"gap={self.gap:.1f} cycles)"
        )


def run_attack(
    attack: AttackProgram,
    machine: Optional[MachineParams] = None,
    security: Optional[SecurityConfig] = None,
    max_cycles: int = 3_000_000,
) -> AttackResult:
    """Run ``attack`` once and decode the side channel.

    Note: attacks carry a stateful page table - build a fresh
    :class:`AttackProgram` for every run.
    """
    machine = machine if machine is not None else paper_config()
    security = security if security is not None else SecurityConfig.origin()
    cpu = Processor(
        attack.program,
        machine=machine,
        security=security,
        page_table=attack.page_table,
    )
    report = cpu.run(max_cycles=max_cycles)
    timings = [
        cpu.read_vword(attack.layout.result_addr(value))
        for value in range(attack.layout.n_values)
    ]
    verdict = attack.channel.decode(timings, exclude=attack.exclude)
    return AttackResult(
        name=attack.name,
        mode=security.mode,
        secret=attack.layout.secret_value,
        recovered=verdict.recovered,
        leaked=verdict.leaked,
        gap=verdict.gap,
        timings=timings,
        report=report,
    )
