"""Section VII.A: secure update policies for the cache replacement
metadata.

Speculative L1D hits can still leak through LRU-bit updates; the paper
evaluates, on top of Cache-hit + TPBuf:

- ``no_update``  - never touch LRU bits on a speculative hit
  (0.71% degradation in the paper);
- ``delayed``    - record a pending touch and apply it at commit
  (recovers 0.26% over no_update in the paper).
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Optional

from ..core.policy import SecurityConfig
from ..memory.replacement import SpeculativeLRUPolicy
from ..params import MachineParams
from ..stats import safe_div
from ..params import paper_config
from ..pipeline.processor import Processor
from ..workloads import spec_names
from ..workloads.synthetic import build_lru_stress
from .formatting import percent, text_table
from .runner import average, run_benchmark

#: Name of the recency-sensitive synthetic row (excluded from the
#: suite average; reported separately because it is a stress case).
STRESS_NAME = "lru-stress"

_POLICIES = (
    SpeculativeLRUPolicy.NORMAL,
    SpeculativeLRUPolicy.NO_UPDATE,
    SpeculativeLRUPolicy.DELAYED,
)


@dataclass
class LRUStudyResult:
    #: benchmark -> policy -> cycles (mode = CACHE_HIT_TPBUF).
    cycles: Dict[str, Dict[SpeculativeLRUPolicy, int]] = \
        field(default_factory=dict)

    def overhead(self, benchmark: str,
                 policy: SpeculativeLRUPolicy) -> float:
        per_policy = self.cycles[benchmark]
        return safe_div(per_policy[policy],
                        per_policy[SpeculativeLRUPolicy.NORMAL], 1.0) - 1.0

    def average_overhead(self, policy: SpeculativeLRUPolicy) -> float:
        """Suite average (the stress row is reported separately)."""
        return average(
            self.overhead(name, policy) for name in self.cycles
            if name != STRESS_NAME
        )

    def stress_overhead(self, policy: SpeculativeLRUPolicy) -> float:
        if STRESS_NAME not in self.cycles:
            return 0.0
        return self.overhead(STRESS_NAME, policy)

    def delayed_gain_over_no_update(self) -> float:
        """How much the delayed policy recovers vs no_update (the
        paper's 0.26%)."""
        return (self.average_overhead(SpeculativeLRUPolicy.NO_UPDATE)
                - self.average_overhead(SpeculativeLRUPolicy.DELAYED))

    def render(self) -> str:
        headers = ["benchmark", "no_update ovh", "delayed ovh"]
        body = [
            [name,
             percent(self.overhead(name, SpeculativeLRUPolicy.NO_UPDATE), 2),
             percent(self.overhead(name, SpeculativeLRUPolicy.DELAYED), 2)]
            for name in self.cycles
        ]
        body.append([
            "average",
            percent(self.average_overhead(
                SpeculativeLRUPolicy.NO_UPDATE), 2),
            percent(self.average_overhead(SpeculativeLRUPolicy.DELAYED), 2),
        ])
        return text_table(
            headers, body,
            title="Section VII.A: speculative LRU update policies "
                  "(vs normal updates, mode = cache-hit + TPBuf)",
        )


def run_lru_study(
    benchmarks: Optional[Iterable[str]] = None,
    machine: Optional[MachineParams] = None,
    scale: float = 1.0,
    include_stress: bool = True,
) -> LRUStudyResult:
    """Regenerate the Section VII.A policy comparison.

    ``include_stress`` appends the recency-sensitive synthetic workload
    (see :func:`repro.workloads.synthetic.build_lru_stress`) that makes
    the policies' cost visible; ordinary workloads barely react.
    """
    result = LRUStudyResult()
    for name in benchmarks or spec_names():
        per_policy: Dict[SpeculativeLRUPolicy, int] = {}
        for policy in _POLICIES:
            security = SecurityConfig("cache_hit_tpbuf", lru_policy=policy)
            report = run_benchmark(
                name, machine=machine, security=security, scale=scale,
            )
            per_policy[policy] = report.cycles
        result.cycles[name] = per_policy
    if include_stress:
        program = build_lru_stress(scale=scale)
        per_policy = {}
        for policy in _POLICIES:
            security = SecurityConfig("cache_hit_tpbuf", lru_policy=policy)
            cpu = Processor(program,
                            machine=machine or paper_config(),
                            security=security)
            per_policy[policy] = cpu.run(max_cycles=8_000_000).cycles
        result.cycles[STRESS_NAME] = per_policy
    return result
