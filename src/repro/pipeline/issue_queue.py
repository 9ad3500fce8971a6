"""Issue queue: wakeup, the ready set, and security-hazard detection
(Section V.B).

The queue keeps its residents oldest first; age order is the only
position an entry has, and the security dependence matrix is keyed by
the instruction (see :mod:`repro.core.security_matrix`).  Wakeup
plays the part of the conventional data-dependence matrix: a resident
counts the issue operands it still waits for, each physical register
lists the residents waiting on it, and the writeback of that register
moves every resident whose count reaches zero into :attr:`ready`, the
age-ordered ready set that select walks (the age matrix's job).

Loads keep their entry until they *complete* so that a load blocked by
a hazard filter can wait in the queue and re-issue once its security
dependence clears, as Section V.C requires; every other instruction
frees its entry at issue.  An entry freed in a cycle becomes
allocatable at the cycle edge, when its matrix column clears.

A squashed resident leaves the ready set and the waiter lists lazily:
select drops it, and a writeback skips it.
"""
from __future__ import annotations

import operator
from bisect import insort
from typing import Dict, Iterator, List

from ..core.security_matrix import SecurityDependenceMatrix
from .dyninst import DynInst

_SEQ_KEY = operator.attrgetter("seq")


class IssueQueue:
    """Age-ordered issue queue with wakeup, paired with the security
    matrix."""

    def __init__(self, entries: int, matrix: bool = True,
                 branch_only: bool = False) -> None:
        """``matrix`` and ``branch_only`` configure the security
        dependence matrix (see :class:`SecurityDependenceMatrix`)."""
        self.entries = entries
        #: Residents by sequence number, oldest first (dispatch is in
        #: program order, so insertion order is age order).
        self._residents: Dict[int, DynInst] = {}
        #: Entries dispatch may allocate this cycle; an entry freed in
        #: a cycle counts again from the cycle edge.
        self.space = entries
        #: Residents waiting in DISPATCHED or BLOCKED whose issue
        #: operands are all ready, oldest first (plus squashed ones not
        #: yet dropped).
        self.ready: List[DynInst] = []
        #: Physical register -> residents waiting for its writeback.
        self._waiters: Dict[int, List[DynInst]] = {}
        self.matrix = SecurityDependenceMatrix(matrix, branch_only)

    # ---- occupancy -----------------------------------------------------

    def occupancy(self) -> int:
        return len(self._residents)

    def __iter__(self) -> Iterator[DynInst]:
        return iter(self._residents.values())

    # ---- dispatch ---------------------------------------------------------

    def insert(self, inst: DynInst, ready: List[bool]) -> None:
        """Allocate an entry for ``inst``, install its matrix row and
        count the issue operands it waits for; ``ready`` holds the
        physical registers' ready bits.  With none to wait for it joins
        the ready set (as the youngest, at its end)."""
        self._residents[inst.seq] = inst
        self.space -= 1
        instr = inst.instr
        self.matrix.install(inst)
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
        """A filter-blocked load went back to waiting: its operands are
        ready, so it rejoins the ready set."""
        insort(self.ready, inst, key=_SEQ_KEY)

    def drop_squashed(self) -> None:
        """Drop squashed instructions from the ready set."""
        self.ready = [inst for inst in self.ready if not inst.squashed]

    # ---- issue ----------------------------------------------------------------

    def mark_issued(self, inst: DynInst) -> None:
        """Record issue: leave the ready set, stage the matrix-column
        clear (Update Vector Register) and free the entry unless the
        instruction is a load (loads stay resident for possible
        filter-blocked re-issue)."""
        self.ready.remove(inst)
        if inst.instr.is_load:
            self.matrix.schedule_clear(inst)
        else:
            self.release(inst)

    # ---- release / squash ---------------------------------------------------------

    def release(self, inst: DynInst) -> None:
        """Free the entry held by ``inst`` (issue, completion or
        squash); nothing if it holds none.

        The entry's matrix column is cleared through the update vector
        at the *next* cycle boundary - the paper's next-cycle clearance
        semantics - and the entry only becomes allocatable then.
        """
        if self._residents.pop(inst.seq, None) is not None:
            self.matrix.schedule_clear(inst)

    def end_cycle(self) -> bool:
        """Apply staged matrix column clears (next-cycle semantics) and
        make the entries released this cycle allocatable; returns
        whether a clear was staged (every release stages one)."""
        self.space = self.entries - len(self._residents)
        return self.matrix.apply_clears()
