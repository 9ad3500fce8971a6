"""The security dependence matrix (Section V.B, Figure 2).

Row X records which older instructions X is security-dependent on;
``Matrix[X, Y] = 1`` means "X must not speculate past Y".  The matrix
is populated at dispatch with the paper's formula::

    Matrix[X, Y] = (X is MEMORY)
                 & (Y is MEMORY or BRANCH)
                 & IssueQ[Y].valid
                 & !IssueQ[Y].issued

and a producer's column is cleared through the *Update Vector
Register*: when Y issues (or leaves the queue), it is staged and its
column is zeroed at the next cycle boundary, clearing every consumer's
dependence on Y.

The paper lays the matrix out as NxN bits over issue-queue positions;
here it is keyed by the instruction, and the rows follow from producer
age order.  Dispatch is in program order, so every producer older than
a consumer X whose column is still uncleared was valid and unissued
when X dispatched - it is in row X - unless it issued earlier in X's
own dispatch cycle; no younger producer ever is.  The matrix therefore
keeps only the uncleared producers, oldest first, and the
reduction-OR of row X (:meth:`has_dependence`) compares X's age with
the oldest of them.  A producer staged in the current cycle remembers
the youngest instruction dispatched before it issued, so that a
consumer dispatched after it in the same cycle does not see it, while
the consumers dispatched before it keep it until the cycle edge.
:meth:`row` lists a row's producers; only tests read it.
"""
from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Set

from ..stats import StatGroup

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..pipeline.dyninst import DynInst


class SecurityDependenceMatrix:
    """Rows of the security dependence matrix, kept as producer age
    order, plus the update vector register."""

    def __init__(self, enabled: bool = True,
                 branch_only: bool = False) -> None:
        """``enabled`` is false for a defense without the matrix (every
        row stays empty); ``branch_only`` makes branches the only
        producers (the ablation of Section VI.C(1))."""
        self.enabled = enabled
        self.branch_only = branch_only
        #: Sequence numbers of the producers whose columns are not
        #: cleared yet, oldest first (a dict used as an ordered set).
        self._producers: Dict[int, None] = {}
        #: Sequence number of the youngest instruction installed.
        self._last_seq = 0
        #: Producers staged this cycle -> the youngest instruction
        #: installed before them (rows installed later lack them).  The
        #: uncleared producers not staged are the valid, unissued ones.
        self._staged: Dict[int, int] = {}
        #: Instructions staged this cycle (the update vector register).
        self._update_vector: Set[int] = set()
        self.stats = StatGroup("security_matrix")

    # ---- dispatch -----------------------------------------------------------

    def install(self, inst: "DynInst") -> None:
        """Install the row of ``inst``: a memory instruction depends on
        every valid, unissued producer.  A branch, and a memory
        instruction unless only branches produce, then becomes a
        producer itself."""
        seq = inst.seq
        instr = inst.instr
        self._last_seq = seq
        enabled = self.enabled
        if enabled and instr.is_memory \
                and len(self._producers) > len(self._staged):
            self.stats["rows_installed_nonzero"] += 1
        else:
            self.stats["rows_installed_zero"] += 1
        if enabled and (instr.is_branch or (instr.is_memory
                                            and not self.branch_only)):
            self._producers[seq] = None

    # ---- queries ---------------------------------------------------------------

    def has_dependence(self, inst: "DynInst") -> bool:
        """Reduction-OR over the row of ``inst``: the *suspect
        speculation* signal sampled when the instruction is selected
        for issue."""
        if not inst.instr.is_memory:
            return False
        seq = inst.seq
        staged = self._staged
        for producer in self._producers:
            if producer >= seq:
                return False
            if seq <= staged.get(producer, seq):
                return True
        return False

    def row(self, inst: "DynInst") -> List[int]:
        """The sequence numbers of the producers in the row of
        ``inst``, oldest first.  Only tests read it: the pipeline reads
        :meth:`has_dependence`."""
        if not inst.instr.is_memory:
            return []
        seq = inst.seq
        producers = []
        for producer in self._producers:
            if producer >= seq:
                break
            if seq <= self._staged.get(producer, seq):
                producers.append(producer)
        return producers

    # ---- clearance ----------------------------------------------------------------

    def schedule_clear(self, inst: "DynInst") -> None:
        """Stage the column of ``inst`` in the update vector register
        (called when it issues or leaves the queue).  A producer is
        staged once: a load's second call (issue, then release) leaves
        it alone."""
        seq = inst.seq
        self._update_vector.add(seq)
        if seq in self._producers and seq not in self._staged:
            self._staged[seq] = self._last_seq

    def apply_clears(self) -> bool:
        """End-of-cycle: zero every staged column; returns whether any
        column was staged."""
        vector = self._update_vector
        if not vector:
            return False
        self.stats["columns_cleared"] += len(vector)
        vector.clear()
        if self._staged:
            producers = self._producers
            for seq in self._staged:
                del producers[seq]
            self._staged.clear()
        return True
