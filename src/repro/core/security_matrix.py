"""The security dependence matrix (Section V.B, Figure 2).

An NxN bit matrix indexed by issue-queue position.  Row X records which
older instructions X is security-dependent on; ``Matrix[X, Y] = 1``
means "X must not speculate past Y".  The matrix is populated at
dispatch with the paper's formula::

    Matrix[X, Y] = (X is MEMORY)
                 & (Y is MEMORY or BRANCH)
                 & IssueQ[Y].valid
                 & !IssueQ[Y].issued

and a producer's column is cleared through the *Update Vector
Register*: when Y issues (or leaves the queue), its bit is staged and
the column is zeroed at the next cycle boundary, clearing every
consumer's dependence on Y.

The rows are not stored bit by bit: they follow from producer age
order.  Dispatch is in program order, so every producer older than a
consumer X whose column is still uncleared was valid and unissued when
X dispatched - it is in row X - unless it issued earlier in X's own
dispatch cycle; no younger producer ever is.  The matrix therefore
keeps only the uncleared producers, oldest first, and the
reduction-OR of row X (:meth:`has_dependence`) compares X's age with
the oldest of them.  A producer staged in the current cycle remembers
the youngest instruction dispatched before it issued, so that a
consumer dispatched after it in the same cycle does not see it, while
the consumers dispatched before it keep it until the cycle edge.
:meth:`row` rebuilds the bit-level row on demand for diagnostics and
tests.
"""
from __future__ import annotations

from bisect import bisect_left
from typing import TYPE_CHECKING, Dict, List

from ..errors import ConfigError
from ..stats import StatGroup

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..isa.instructions import Instruction


class SecurityDependenceMatrix:
    """Rows of the security dependence matrix, kept as producer age
    order, plus the update vector register."""

    def __init__(self, entries: int, enabled: bool = True,
                 branch_only: bool = False) -> None:
        """``enabled`` is false for a defense without the matrix (every
        row stays empty); ``branch_only`` makes branches the only
        producers (the ablation of Section VI.C(1))."""
        if entries <= 0:
            raise ConfigError("matrix needs at least one entry")
        self.entries = entries
        self.enabled = enabled
        self.branch_only = branch_only
        #: Sequence numbers of the producers whose columns are not
        #: cleared yet, oldest first, and their issue-queue positions.
        self._producers: List[int] = []
        self._producer_pos: List[int] = []
        #: Per position: the sequence number of the memory instruction
        #: whose row it holds (0: no row), and of the producer there
        #: that is still valid and unissued (0: none).
        self._row_seq = [0] * entries
        self._unissued_seq = [0] * entries
        #: Sequence number of the youngest instruction installed.
        self._last_seq = 0
        #: Producers staged this cycle -> the youngest instruction
        #: installed before them (rows installed later lack them).  The
        #: uncleared producers not staged are the valid, unissued ones.
        self._staged: Dict[int, int] = {}
        self._update_vector = 0  # positions staged for clearance
        self.stats = StatGroup("security_matrix")

    # ---- dispatch -----------------------------------------------------------

    def install(self, pos: int, seq: int, instr: "Instruction") -> None:
        """Install the row of instruction ``seq`` at position ``pos``:
        a memory instruction depends on every valid, unissued
        producer.  A branch, and a memory instruction unless only
        branches produce, then becomes a producer itself."""
        self._last_seq = seq
        enabled = self.enabled
        if enabled and instr.is_memory:
            self._row_seq[pos] = seq
            if len(self._producers) > len(self._staged):
                self.stats.incr("rows_installed_nonzero")
            else:
                self.stats.incr("rows_installed_zero")
        else:
            self._row_seq[pos] = 0
            self.stats.incr("rows_installed_zero")
        if enabled and (instr.is_branch or (instr.is_memory
                                            and not self.branch_only)):
            self._producers.append(seq)
            self._producer_pos.append(pos)
            self._unissued_seq[pos] = seq
        else:
            self._unissued_seq[pos] = 0

    # ---- queries ---------------------------------------------------------------

    def has_dependence(self, pos: int) -> bool:
        """Reduction-OR over row ``pos``: the *suspect speculation*
        signal sampled when the instruction is selected for issue."""
        seq = self._row_seq[pos]
        staged = self._staged
        for producer in self._producers:
            if producer >= seq:
                return False
            if seq <= staged.get(producer, seq):
                return True
        return False

    def row(self, pos: int) -> int:
        """The row of the instruction at ``pos`` as a bit vector over
        issue-queue positions (diagnostics and tests; the pipeline reads
        only :meth:`has_dependence`)."""
        seq = self._row_seq[pos]
        bits = 0
        for producer, column in zip(self._producers, self._producer_pos):
            if producer >= seq:
                break
            if seq <= self._staged.get(producer, seq):
                bits |= 1 << column
        return bits

    # ---- clearance ----------------------------------------------------------------

    def schedule_clear(self, pos: int) -> None:
        """Stage column ``pos`` in the update vector register (called
        when the instruction at ``pos`` issues or leaves the queue)."""
        self._update_vector |= 1 << pos
        seq = self._unissued_seq[pos]
        if seq:
            self._unissued_seq[pos] = 0
            self._staged[seq] = self._last_seq

    def apply_clears(self) -> bool:
        """End-of-cycle: zero every staged column; returns whether any
        column was staged."""
        if not self._update_vector:
            return False
        self.stats.incr("columns_cleared", self._update_vector.bit_count())
        self._update_vector = 0
        if self._staged:
            producers = self._producers
            for seq in self._staged:
                index = bisect_left(producers, seq)
                del producers[index]
                del self._producer_pos[index]
            self._staged.clear()
        return True
