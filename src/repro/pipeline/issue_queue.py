"""Issue queue: wakeup, the ready set, and security-hazard detection
(Section V.B).

The queue owns fixed positions (``IQPos``) so the security dependence
matrix can be indexed by slot, as in the paper's Figure 2.  Wakeup
plays the part of the conventional data-dependence matrix: a resident
counts the issue operands it still waits for, each physical register
lists the residents waiting on it, and the writeback of that register
moves every resident whose count reaches zero into :attr:`ready`, the
age-ordered ready set that select walks (the age matrix's job).  The
security dependence matrix answers from producer age order (see
:mod:`repro.core.security_matrix`).

Loads keep their slot until they *complete* so that a load blocked by a
hazard filter can wait in the queue and re-issue once its security
dependence clears, as Section V.C requires; every other instruction
frees its slot at issue.

A squashed resident leaves the ready set and the waiter lists lazily:
select drops it, and a writeback skips it.
"""
from __future__ import annotations

import operator
from bisect import insort
from typing import Dict, Iterator, List, Optional

from ..core.security_matrix import SecurityDependenceMatrix
from .dyninst import DynInst

_SEQ_KEY = operator.attrgetter("seq")


class IssueQueue:
    """Fixed-slot issue queue with wakeup, paired with the security
    matrix."""

    def __init__(self, entries: int, matrix: bool = True,
                 branch_only: bool = False) -> None:
        """``matrix`` and ``branch_only`` configure the security
        dependence matrix (see :class:`SecurityDependenceMatrix`)."""
        self.entries = entries
        self._slots: List[Optional[DynInst]] = [None] * entries
        self._free: List[int] = list(range(entries - 1, -1, -1))
        self._deferred_free: List[int] = []
        #: Free slots, kept current for dispatch's capacity check.
        self.space = entries
        #: Residents waiting in DISPATCHED whose issue operands are all
        #: ready, oldest first (plus squashed ones not yet dropped).
        self.ready: List[DynInst] = []
        #: Physical register -> residents waiting for its writeback.
        self._waiters: Dict[int, List[DynInst]] = {}
        self.matrix = SecurityDependenceMatrix(entries, matrix, branch_only)

    # ---- occupancy -----------------------------------------------------

    def occupancy(self) -> int:
        return self.entries - self.space

    def __iter__(self) -> Iterator[DynInst]:
        for inst in self._slots:
            if inst is not None:
                yield inst

    # ---- dispatch ---------------------------------------------------------

    def insert(self, inst: DynInst, ready: List[bool]) -> int:
        """Allocate a slot for ``inst``, install its matrix row and
        count the issue operands it waits for; ``ready`` holds the
        physical registers' ready bits.  With none to wait for it joins
        the ready set (as the youngest, at its end)."""
        pos = self._free.pop()
        self.space -= 1
        self._slots[pos] = inst
        inst.iq_pos = pos
        instr = inst.instr
        self.matrix.install(pos, inst.seq, instr)
        waiting = 0
        for psrc in inst.psrcs[:instr.issue_operands]:
            if not ready[psrc]:
                waiting += 1
                waiters = self._waiters.get(psrc)
                if waiters is None:
                    self._waiters[psrc] = [inst]
                else:
                    waiters.append(inst)
        inst.waiting = waiting
        if not waiting:
            self.ready.append(inst)
        return pos

    # ---- wakeup -------------------------------------------------------------

    def wake(self, preg: int) -> None:
        """Physical register ``preg`` was written back: every resident
        waiting on it has one operand fewer to wait for."""
        waiters = self._waiters.pop(preg, None)
        if waiters is None:
            return
        for inst in waiters:
            if inst.squashed:
                continue
            inst.waiting -= 1
            if not inst.waiting:
                insort(self.ready, inst, key=_SEQ_KEY)

    def requeue(self, inst: DynInst) -> None:
        """A filter-blocked load went back to DISPATCHED: its operands
        are ready, so it rejoins the ready set."""
        insort(self.ready, inst, key=_SEQ_KEY)

    def drop_squashed(self) -> None:
        """Drop squashed instructions from the ready set."""
        self.ready = [inst for inst in self.ready if not inst.squashed]

    # ---- issue ----------------------------------------------------------------

    def mark_issued(self, inst: DynInst) -> None:
        """Record issue: leave the ready set, stage the matrix-column
        clear (Update Vector Register) and free the slot unless the
        instruction is a load (loads stay resident for possible
        filter-blocked re-issue)."""
        self.ready.remove(inst)
        if inst.instr.is_load:
            assert inst.iq_pos is not None
            self.matrix.schedule_clear(inst.iq_pos)
        else:
            self.release(inst)

    # ---- release / squash ---------------------------------------------------------

    def release(self, inst: DynInst) -> None:
        """Free the slot held by ``inst`` (issue, completion or squash).

        The slot's matrix column is cleared through the update vector
        at the *next* cycle boundary - the paper's next-cycle clearance
        semantics - and the slot itself only becomes reallocatable then,
        so a same-cycle dispatch can never alias a half-cleared column.
        """
        pos = inst.iq_pos
        if pos is None:
            return
        assert self._slots[pos] is inst
        self._slots[pos] = None
        self.matrix.schedule_clear(pos)
        self._deferred_free.append(pos)
        inst.iq_pos = None

    def end_cycle(self) -> bool:
        """Apply staged matrix column clears (next-cycle semantics) and
        recycle the slots released this cycle; returns whether a clear
        was staged (every release stages one)."""
        cleared = self.matrix.apply_clears()
        if self._deferred_free:
            self._free.extend(self._deferred_free)
            self.space += len(self._deferred_free)
            self._deferred_free.clear()
        return cleared
