"""Issue queue with security-hazard detection (Section V.B).

The queue owns fixed positions (``IQPos``) so the security dependence
matrix can be indexed by slot, exactly as in the paper's Figure 2.
Data readiness is tracked through physical-register ready bits (the
functional equivalent of the conventional data-dependence matrix) and
age ordering through the global sequence number (the equivalent of the
age matrix); the security dependence matrix is modelled bit-for-bit.

Loads keep their slot until they *complete* so that a load blocked by a
hazard filter can wait in the queue and re-issue once its security
dependence clears, as Section V.C requires; every other instruction
frees its slot at issue.

The producer masks consumed by the matrix formula (valid & !issued &
memory-or-branch) are maintained *incrementally* as bit vectors updated
at insert/issue/release, so dispatch reads them in O(1) instead of
re-scanning every slot — one of the simulator hot-path optimizations
documented in ``docs/performance.md``.
"""
from __future__ import annotations

from typing import Iterator, List, Optional

from ..core.security_matrix import SecurityDependenceMatrix
from .dyninst import DynInst


class IssueQueue:
    """Fixed-slot issue queue paired with the security matrix."""

    def __init__(self, entries: int) -> None:
        self.entries = entries
        self._slots: List[Optional[DynInst]] = [None] * entries
        self._free: List[int] = list(range(entries - 1, -1, -1))
        self._issued: List[bool] = [False] * entries
        self._deferred_free: List[int] = []
        # Incremental views of the slots: bit ``pos`` set iff the slot
        # holds a valid, not-yet-issued memory-or-branch (respectively
        # branch) instruction.  Kept in lockstep by insert/set_issued/
        # release; read by the matrix formula every dispatch.
        self._producer_bits = 0
        self._branch_bits = 0
        self.matrix = SecurityDependenceMatrix(entries)

    # ---- occupancy -----------------------------------------------------

    @property
    def full(self) -> bool:
        return not self._free

    def occupancy(self) -> int:
        return self.entries - len(self._free)

    def __iter__(self) -> Iterator[DynInst]:
        for inst in self._slots:
            if inst is not None:
                yield inst

    def slot(self, pos: int) -> Optional[DynInst]:
        return self._slots[pos]

    # ---- dispatch ---------------------------------------------------------

    def producer_mask(self) -> int:
        """Bit vector of slots holding valid, not-yet-issued memory or
        branch instructions - the Y-side of the matrix formula."""
        return self._producer_bits

    def branch_producer_mask(self) -> int:
        """Producer mask restricted to branches (the branch-only matrix
        ablation of Section VI.C(1))."""
        return self._branch_bits

    def insert(self, inst: DynInst, producer_mask: int) -> int:
        """Allocate a slot for ``inst`` and install its matrix row."""
        pos = self._free.pop()
        self._slots[pos] = inst
        self._issued[pos] = False
        inst.iq_pos = pos
        instr = inst.instr
        if instr.is_branch:
            self._producer_bits |= 1 << pos
            self._branch_bits |= 1 << pos
        elif instr.is_memory:
            self._producer_bits |= 1 << pos
        self.matrix.set_row(pos, producer_mask if instr.is_memory else 0)
        return pos

    # ---- issue ----------------------------------------------------------------

    def set_issued(self, pos: int) -> None:
        """Mark the slot issued *without* staging its column clear or
        freeing it (the clear-on-resolve ablation defers clearance to
        branch resolution / load completion)."""
        self._issued[pos] = True
        keep = ~(1 << pos)
        self._producer_bits &= keep
        self._branch_bits &= keep

    def mark_issued(self, inst: DynInst) -> None:
        """Record issue: stage the matrix-column clear (Update Vector
        Register) and free the slot unless the instruction is a load
        (loads stay resident for possible filter-blocked re-issue)."""
        pos = inst.iq_pos
        assert pos is not None
        self.set_issued(pos)
        self.matrix.schedule_clear(pos)
        if not inst.instr.is_load:
            self.release(inst)

    def is_issued(self, pos: int) -> bool:
        return self._issued[pos]

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
        self._issued[pos] = False
        keep = ~(1 << pos)
        self._producer_bits &= keep
        self._branch_bits &= keep
        self.matrix.schedule_clear(pos)
        self._deferred_free.append(pos)
        inst.iq_pos = None

    def end_cycle(self) -> bool:
        """Apply staged matrix column clears (next-cycle semantics) and
        recycle the slots released this cycle; returns whether a clear
        was staged (every release stages one)."""
        cleared = self.matrix.apply_clears()
        if self._deferred_free:
            for pos in self._deferred_free:
                self.matrix.clear_entry(pos)
                self._free.append(pos)
            self._deferred_free.clear()
        return cleared
