"""Forward-progress watchdog: livelock/deadlock detection with a
structured diagnostic dump.

The watchdog replaces the processor's old bare "no commit for N
cycles" check.  It keeps a short ring buffer of ROB/IQ/LSQ occupancy
snapshots and, when the commit stream stops for
:attr:`ForwardProgressWatchdog.limit` cycles, raises
:class:`~repro.errors.DeadlockError` carrying a
:class:`DeadlockDiagnostics`: the oldest ROB entry, an inferred stall
reason, and the recent occupancy history — everything a campaign
triage needs without re-running under a tracer.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List

from ..errors import DeadlockError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..pipeline.processor import Processor

#: Cycles without a commit before the watchdog declares deadlock.
DEFAULT_WATCHDOG_CYCLES = 50_000


@dataclass(frozen=True)
class OccupancySnapshot:
    """One periodic sample of the machine's structural occupancy."""

    cycle: int
    committed: int
    rob: int
    iq: int
    ldq: int
    stq: int
    fetch_buffer: int
    events_pending: int

    def render(self) -> str:
        return (f"cycle {self.cycle}: committed={self.committed} "
                f"rob={self.rob} iq={self.iq} ldq={self.ldq} "
                f"stq={self.stq} fetch_buf={self.fetch_buffer} "
                f"events={self.events_pending}")


@dataclass
class DeadlockDiagnostics:
    """Everything the watchdog knows at the moment it fires."""

    cycle: int
    last_commit_cycle: int
    stall_cycles: int
    committed: int
    rob_occupancy: int
    iq_occupancy: int
    ldq_occupancy: int
    stq_occupancy: int
    fetch_buffer: int
    events_pending: int
    unresolved_branches: int
    #: ``repr`` of the oldest ROB entry ("" for an empty ROB).
    head_desc: str = ""
    head_state: str = ""
    head_seq: int = -1
    head_pc: int = -1
    #: Heuristic classification of what wedged.
    stall_reason: str = ""
    #: Recent occupancy history, oldest first.
    snapshots: List[OccupancySnapshot] = field(default_factory=list)

    def render(self) -> str:
        lines = [
            f"no commit for {self.stall_cycles} cycles "
            f"(cycle {self.cycle}, last commit "
            f"{self.last_commit_cycle}, {self.committed} committed)",
            f"  occupancy: rob={self.rob_occupancy} "
            f"iq={self.iq_occupancy} ldq={self.ldq_occupancy} "
            f"stq={self.stq_occupancy} fetch_buf={self.fetch_buffer} "
            f"events={self.events_pending} "
            f"unresolved_branches={self.unresolved_branches}",
            f"  oldest: {self.head_desc or '<ROB empty>'} "
            f"state={self.head_state or 'n/a'}",
            f"  reason: {self.stall_reason}",
        ]
        if self.snapshots:
            lines.append("  history:")
            lines.extend(f"    {snap.render()}" for snap in self.snapshots)
        return "\n".join(lines)


def _stall_reason(cpu: "Processor") -> str:
    """Best-effort classification of the oldest instruction's stall."""
    from ..pipeline.dyninst import InstState

    head = cpu.rob.head()
    if head is None:
        return (f"ROB empty: fetch starved at pc={cpu.fetch_pc:#x} "
                f"(stalled until cycle {cpu._fetch_stall_until})")
    if head.state is InstState.COMPLETED:
        if head.instr.is_store and cpu.store_buffer.full:
            return "head store completed but the store buffer is full"
        if cpu.cycle < cpu._commit_stall_until:
            return (f"commit port stalled until cycle "
                    f"{cpu._commit_stall_until}")
        return "head completed but never retired (commit logic wedged)"
    if head.state is InstState.BLOCKED:
        return "filter-blocked load: the defense still finds it suspect"
    if head.state is InstState.DISPATCHED:
        unready = [psrc for psrc in head.psrcs
                   if not cpu.rename.is_ready(psrc)]
        if unready:
            return (f"head waiting for operands (physical regs "
                    f"{unready} not ready)")
        return "head dispatched and ready but never selected"
    if head.state is InstState.ISSUED:
        if cpu.events.pending == 0:
            return ("head issued but the event queue is empty: its "
                    "completion was dropped (hard deadlock)")
        return ("head issued, completion still pending (fill or "
                "replay never finishing)")
    return f"head in unexpected state {head.state}"


class ForwardProgressWatchdog:
    """Periodic occupancy sampler + no-commit deadlock detector."""

    def __init__(self, limit: int = DEFAULT_WATCHDOG_CYCLES,
                 snapshot_interval: int = 0, history: int = 8) -> None:
        self.limit = max(1, limit)
        self.snapshot_interval = snapshot_interval \
            or max(1, self.limit // 8)
        self.history = history
        self.snapshots: List[OccupancySnapshot] = []

    def snapshot(self, cpu: "Processor") -> OccupancySnapshot:
        snap = OccupancySnapshot(
            cycle=cpu.cycle,
            committed=cpu.report.committed,
            rob=len(cpu.rob),
            iq=cpu.iq.occupancy(),
            ldq=cpu.lsq.load_occupancy(),
            stq=cpu.lsq.store_occupancy(),
            fetch_buffer=len(cpu._fetch_buffer),
            events_pending=cpu.events.pending,
        )
        self.snapshots.append(snap)
        if len(self.snapshots) > self.history:
            del self.snapshots[0]
        return snap

    def diagnose(self, cpu: "Processor") -> DeadlockDiagnostics:
        """Build the full dump (also usable outside the raise path)."""
        head = cpu.rob.head()
        return DeadlockDiagnostics(
            cycle=cpu.cycle,
            last_commit_cycle=cpu._last_commit_cycle,
            stall_cycles=cpu.cycle - cpu._last_commit_cycle,
            committed=cpu.report.committed,
            rob_occupancy=len(cpu.rob),
            iq_occupancy=cpu.iq.occupancy(),
            ldq_occupancy=cpu.lsq.load_occupancy(),
            stq_occupancy=cpu.lsq.store_occupancy(),
            fetch_buffer=len(cpu._fetch_buffer),
            events_pending=cpu.events.pending,
            unresolved_branches=len(cpu.unresolved_branches),
            head_desc=repr(head) if head is not None else "",
            head_state=head.state.name if head is not None else "",
            head_seq=head.seq if head is not None else -1,
            head_pc=head.pc if head is not None else -1,
            stall_reason=_stall_reason(cpu),
            snapshots=list(self.snapshots),
        )

    def next_deadline(self, cpu: "Processor") -> int:
        """The next cycle at which :meth:`observe` acts: its next
        snapshot, or the cycle it raises if nothing commits before."""
        interval = self.snapshot_interval
        next_snapshot = (cpu.cycle // interval + 1) * interval
        return min(next_snapshot, cpu._last_commit_cycle + self.limit + 1)

    def observe(self, cpu: "Processor") -> None:
        """Called once per cycle from :meth:`Processor.step`."""
        if cpu.cycle % self.snapshot_interval == 0:
            self.snapshot(cpu)
        if cpu.cycle - cpu._last_commit_cycle > self.limit:
            diagnostics = self.diagnose(cpu)
            cpu.report.termination = "deadlock"
            raise DeadlockError(
                f"no commit for {diagnostics.stall_cycles} cycles at "
                f"cycle {cpu.cycle}; {diagnostics.stall_reason}",
                diagnostics=diagnostics,
            )
