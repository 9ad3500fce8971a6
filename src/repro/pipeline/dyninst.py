"""Dynamic (in-flight) instruction state.

The ROB, the issue queue and the load/store queue each keep their
``DynInst`` residents in age order, so an instruction carries no queue
position; the TPBuf reads its bits off the instruction (see
:mod:`repro.core.tpbuf`).
"""
from __future__ import annotations

from enum import IntEnum
from typing import Optional, Tuple

from ..isa.instructions import Instruction


class InstState(IntEnum):
    """Lifecycle of a dynamic instruction."""

    DISPATCHED = 0   # in ROB (and IQ/LSQ), waiting for operands
    ISSUED = 1       # selected for execution
    COMPLETED = 2    # result produced, waiting to commit
    BLOCKED = 3      # load whose suspect miss a filter discarded: waits
                     # in the IQ until no longer suspect (Section V.C)


# Module constants: a member read through the class costs several
# attribute reads, and every dynamic instruction starts DISPATCHED.
_DISPATCHED = InstState.DISPATCHED
_COMPLETED = InstState.COMPLETED


class DynInst:
    """One in-flight instruction.

    A ``DynInst`` is created at dispatch and lives until commit or
    squash.  It carries renaming state, execution state, the defense's
    per-instruction flags (suspect, ever blocked), and the timestamps the
    statistics are derived from.
    """

    __slots__ = (
        "seq", "pc", "instr",
        "pdst", "old_pdst", "psrcs",
        "waiting",
        "state", "squashed",
        "value", "vaddr", "paddr", "ppn",
        "addr_ready", "store_data_ready", "forward_seq",
        "speculated_past_store",
        "pred_target", "taken", "actual_target",
        "mispredicted", "resolved",
        "suspect", "ever_suspect", "ever_blocked", "block_events",
        "invisible_fill",
        "pending_lru_line",
        "cycle_dispatched", "cycle_issued", "cycle_completed",
        "mem_level",
    )

    def __init__(self, seq: int, pc: int, instr: Instruction) -> None:
        self.seq = seq
        self.pc = pc
        self.instr = instr
        # Renaming.
        self.pdst: Optional[int] = None
        self.old_pdst: Optional[int] = None
        self.psrcs: Tuple[int, ...] = ()
        #: Issue operands still awaiting writeback (issue-queue wakeup).
        self.waiting = 0
        # Lifecycle.
        self.state = _DISPATCHED
        self.squashed = False
        # Results.
        self.value = 0
        self.vaddr: Optional[int] = None
        self.paddr: Optional[int] = None
        self.ppn: Optional[int] = None
        self.addr_ready = False
        self.store_data_ready = False
        self.forward_seq: Optional[int] = None
        self.speculated_past_store = False
        # Control flow.
        self.pred_target = 0
        self.taken = False
        self.actual_target = 0
        self.mispredicted = False
        self.resolved = False
        # Defense flags.
        self.suspect = False
        self.ever_suspect = False
        self.ever_blocked = False
        self.block_events = 0
        #: InvisiSpec-style defenses: line address of a speculative
        #: read awaiting exposure (fill) at commit.
        self.invisible_fill: Optional[int] = None
        self.pending_lru_line: Optional[int] = None
        # Timing / memoization.
        self.cycle_dispatched = -1
        self.cycle_issued = -1
        self.cycle_completed = -1
        self.mem_level: Optional[str] = None

    @property
    def completed(self) -> bool:
        return self.state is _COMPLETED

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        flags = []
        if self.suspect:
            flags.append("suspect")
        if self.squashed:
            flags.append("squashed")
        tail = f" [{' '.join(flags)}]" if flags else ""
        return (
            f"DynInst(#{self.seq} pc={self.pc:#x} {self.instr.op.name}"
            f" {self.state.name}{tail})"
        )
