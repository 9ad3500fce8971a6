"""Cross-validation of the static analysis against the dynamic matrix.

The static suspect set must *over-approximate* the dynamic one: every
memory instruction the simulator ever flags as suspect (non-zero
security-dependence row sampled at issue) or blocks (Baseline issue
block / Cache-hit filter discard) must be statically suspect at the
same PC.  The converse does not hold — static analysis cannot know
which branches resolve before a load issues — and is reported only as
a precision metric.

Dynamic dependences are recorded with the ordinary
:class:`~repro.pipeline.trace.PipelineTracer`: every retired *and*
squashed instruction is captured, so wrong-path suspects (the
instructions Spectre actually cares about) are included.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Set, Tuple

from ..core.policy import SecurityConfig
from ..isa.program import Program
from ..memory.tlb import PageTable
from ..params import MachineParams, paper_config
from ..pipeline.processor import Processor
from ..pipeline.trace import PipelineTracer
from .cfg import build_cfg
from .taint import static_suspect_pcs


@dataclass
class DynamicSuspects:
    """Per-PC dynamic security-dependence evidence from one run."""

    #: PCs of memory instructions sampled suspect at issue.
    suspect_pcs: Set[int] = field(default_factory=set)
    #: PCs of memory instructions blocked by the defense.
    blocked_pcs: Set[int] = field(default_factory=set)
    #: Dynamic occurrence counts per PC (suspect events).
    counts: Dict[int, int] = field(default_factory=dict)

    @property
    def all_pcs(self) -> Set[int]:
        return self.suspect_pcs | self.blocked_pcs


def record_dynamic_suspects(
    program: Program,
    machine: Optional[MachineParams] = None,
    security: Optional[SecurityConfig] = None,
    page_table: Optional[PageTable] = None,
    max_cycles: int = 3_000_000,
) -> DynamicSuspects:
    """Run ``program`` and collect every PC with a recorded security
    dependence (suspect sample or block event), wrong path included."""
    machine = machine if machine is not None else paper_config()
    security = (security if security is not None
                else SecurityConfig.cache_hit_tpbuf())
    tracer = PipelineTracer(limit=10_000_000)
    cpu = Processor(program, machine=machine, security=security,
                    page_table=page_table, tracer=tracer)
    cpu.run(max_cycles=max_cycles)
    suspects = DynamicSuspects()
    for record in tracer.records:
        if record.suspect:
            suspects.suspect_pcs.add(record.pc)
            suspects.counts[record.pc] = suspects.counts.get(record.pc, 0) + 1
        if record.blocked:
            suspects.blocked_pcs.add(record.pc)
    return suspects


@dataclass
class CrossValidation:
    """Result of one static-vs-dynamic comparison."""

    name: str
    window: int
    static_pcs: Tuple[int, ...]
    dynamic: DynamicSuspects
    #: Dynamic suspect PCs with no static coverage (must be empty).
    uncovered: Tuple[int, ...]
    #: Static suspect PCs never observed dynamically (precision cost).
    unobserved: Tuple[int, ...]

    @property
    def covered(self) -> bool:
        """True iff static findings cover 100% of dynamic dependences."""
        return not self.uncovered

    @property
    def coverage(self) -> float:
        dynamic = len(self.dynamic.all_pcs)
        if dynamic == 0:
            return 1.0
        return (dynamic - len(self.uncovered)) / dynamic

    def render(self) -> str:
        lines = [
            f"cross-validation: {self.name} (window {self.window})",
            f"  static suspects : {len(self.static_pcs)} PCs",
            f"  dynamic suspects: {len(self.dynamic.all_pcs)} PCs "
            f"({len(self.dynamic.blocked_pcs)} blocked)",
            f"  coverage        : {self.coverage:.0%}"
            + ("  [static over-approximates dynamic: OK]"
               if self.covered else "  [GAP]"),
        ]
        for pc in self.uncovered:
            lines.append(f"    UNCOVERED dynamic suspect at {pc:#x}")
        return "\n".join(lines)


def cross_validate(
    program: Program,
    machine: Optional[MachineParams] = None,
    security: Optional[SecurityConfig] = None,
    page_table: Optional[PageTable] = None,
    window: Optional[int] = None,
    name: str = "program",
    max_cycles: int = 3_000_000,
) -> CrossValidation:
    """Compare the static suspect set with one simulated run.

    The static window defaults to the machine's ROB size — the bound
    that makes the over-approximation argument airtight (producer and
    consumer of a dynamic dependence are co-resident in the ROB).
    """
    machine = machine if machine is not None else paper_config()
    if window is None:
        window = machine.core.rob_entries
    cfg = build_cfg(program)
    static = static_suspect_pcs(program, window=window, cfg=cfg)
    dynamic = record_dynamic_suspects(
        program, machine=machine, security=security,
        page_table=page_table, max_cycles=max_cycles,
    )
    uncovered = tuple(sorted(dynamic.all_pcs - static))
    unobserved = tuple(sorted(static - dynamic.all_pcs))
    return CrossValidation(
        name=name,
        window=window,
        static_pcs=tuple(sorted(static)),
        dynamic=dynamic,
        uncovered=uncovered,
        unobserved=unobserved,
    )
