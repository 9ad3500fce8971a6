"""Statistical attack evaluation: leak accuracy across secrets.

A single PoC run shows one secret leaking; a credible security claim
needs the sweep: on the unprotected core the channel must recover
*every* secret value (accuracy ~1.0), and under a defense it must
recover *none* (accuracy ~0.0, and ideally no spurious "leak" verdicts
either).  This module runs that sweep and summarizes it.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, List, Optional

from ..core.policy import SecurityConfig
from ..params import MachineParams, paper_config
from .common import AttackProgram
from .harness import AttackResult, run_attack
from .layout import AttackLayout

#: Builder signature: ``layout=`` -> AttackProgram.
AttackFactory = Callable[[AttackLayout], AttackProgram]


@dataclass
class SweepResult:
    """Outcome of one attack swept over many secret values."""

    name: str
    mode: str
    results: List[AttackResult] = field(default_factory=list)

    @property
    def trials(self) -> int:
        return len(self.results)

    @property
    def correct(self) -> int:
        return sum(1 for r in self.results if r.success)

    @property
    def accuracy(self) -> float:
        """Fraction of trials where the exact secret was recovered."""
        if not self.results:
            return 0.0
        return self.correct / self.trials

    @property
    def false_leaks(self) -> int:
        """Trials where the channel claimed a leak but named the wrong
        value (noise misread as signal)."""
        return sum(
            1 for r in self.results if r.leaked and r.recovered != r.secret
        )

    def render(self) -> str:
        return (
            f"{self.name} under {self.mode}: "
            f"{self.correct}/{self.trials} secrets recovered "
            f"(accuracy {self.accuracy:.0%}, "
            f"false leaks {self.false_leaks})"
        )


def sweep_attack(
    factory: AttackFactory,
    security: SecurityConfig,
    secrets: Optional[Iterable[int]] = None,
    machine: Optional[MachineParams] = None,
    n_values: int = 16,
    same_page: bool = False,
) -> SweepResult:
    """Run ``factory`` once per secret value and tally recoveries.

    ``factory`` receives a fresh :class:`AttackLayout` per trial (page
    tables are stateful).  ``secrets`` defaults to every candidate
    except 0 (candidate 0 doubles as the training/benign value).
    """
    machine = machine if machine is not None else paper_config()
    if secrets is None:
        secrets = range(1, n_values)
    sweep: Optional[SweepResult] = None
    for secret in secrets:
        if same_page:
            layout = AttackLayout.same_page(
                n_values=n_values, secret_value=secret)
        else:
            layout = AttackLayout(n_values=n_values, secret_value=secret)
        attack = factory(layout=layout)
        result = run_attack(attack, machine=machine, security=security)
        if sweep is None:
            sweep = SweepResult(name=attack.name, mode=result.mode)
        sweep.results.append(result)
    assert sweep is not None, "sweep needs at least one secret"
    return sweep
