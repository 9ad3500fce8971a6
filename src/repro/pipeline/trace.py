"""Pipeline tracing: per-instruction lifecycle records.

Attach a :class:`PipelineTracer` to a processor to capture, for every
dynamic instruction, when it was dispatched/issued/completed/committed
(or squashed) plus the defense flags (suspect / blocked) - then render
a compact pipeview, in the spirit of gem5's O3 pipeline viewer.

Example::

    tracer = PipelineTracer(limit=200)
    cpu = Processor(program, tracer=tracer)
    cpu.run()
    print(tracer.render())
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, List, Optional

from .dyninst import DynInst


@dataclass(frozen=True)
class TraceRecord:
    """Immutable snapshot of one dynamic instruction's lifetime."""

    seq: int
    pc: int
    disasm: str
    dispatched: int
    issued: int
    completed: int
    committed: int          # -1 if squashed
    squashed: bool
    suspect: bool
    blocked: bool
    block_events: int
    mem_level: Optional[str]

    @property
    def issue_delay(self) -> int:
        """Cycles spent waiting in the issue queue (-1 if never issued)."""
        if self.issued < 0 or self.dispatched < 0:
            return -1
        return self.issued - self.dispatched


class PipelineTracer:
    """Collects :class:`TraceRecord` objects as instructions retire or
    get squashed.

    ``limit`` bounds memory use: once reached, the oldest records are
    dropped (the tracer keeps the most recent window, a ring that costs
    O(1) per record).
    """

    def __init__(self, limit: int = 10_000) -> None:
        self.limit = limit
        self._records: Deque[TraceRecord] = deque(maxlen=limit)
        self.dropped = 0

    # ---- hooks called by the processor ---------------------------------

    def on_retire(self, inst: DynInst, cycle: int) -> None:
        self._append(self._snapshot(inst, committed=cycle))

    def on_squash(self, inst: DynInst, cycle: int) -> None:
        self._append(self._snapshot(inst, committed=-1))

    def _snapshot(self, inst: DynInst, committed: int) -> TraceRecord:
        return TraceRecord(
            seq=inst.seq,
            pc=inst.pc,
            disasm=str(inst.instr),
            dispatched=inst.cycle_dispatched,
            issued=inst.cycle_issued,
            completed=inst.cycle_completed,
            committed=committed,
            squashed=committed < 0,
            suspect=inst.ever_suspect,
            blocked=inst.ever_blocked,
            block_events=inst.block_events,
            mem_level=inst.mem_level,
        )

    def _append(self, record: TraceRecord) -> None:
        if len(self._records) == self.limit:
            self.dropped += 1  # the append below evicts the oldest
        self._records.append(record)

    # ---- queries ----------------------------------------------------------

    @property
    def records(self) -> List[TraceRecord]:
        return list(self._records)

    def committed_records(self) -> List[TraceRecord]:
        return [r for r in self._records if not r.squashed]

    def squashed_records(self) -> List[TraceRecord]:
        return [r for r in self._records if r.squashed]

    def suspects(self) -> List[TraceRecord]:
        return [r for r in self._records if r.suspect]

    def record_for_seq(self, seq: int) -> Optional[TraceRecord]:
        for record in self._records:
            if record.seq == seq:
                return record
        return None

    # ---- rendering -----------------------------------------------------------

    def render(self, last: int = 40) -> str:
        """A compact pipeview of the most recent ``last`` records."""
        records = sorted(self._records, key=lambda r: r.seq)[-last:]
        lines = [
            f"{'seq':>5} {'pc':>8} {'D':>7} {'I':>7} {'C':>7} {'R':>7} "
            f"flags  instruction"
        ]
        for r in records:
            flags = "".join([
                "s" if r.suspect else ".",
                "b" if r.blocked else ".",
                "X" if r.squashed else ".",
            ])
            retire = "squash" if r.squashed else str(r.committed)
            lines.append(
                f"{r.seq:>5} {r.pc:>#8x} {r.dispatched:>7} {r.issued:>7} "
                f"{r.completed:>7} {retire:>7} {flags:<6} {r.disasm}"
            )
        if self.dropped:
            lines.append(f"... ({self.dropped} older records dropped)")
        return "\n".join(lines)
