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
Register*: when Y issues, its bit is staged and the column is zeroed at
the next cycle boundary, clearing every consumer's dependence on Y.

The whole matrix is stored as ONE Python integer: row X occupies bits
``[X*N, (X+1)*N)``.  Because a row-local mask ``m < 2**N`` multiplied
by :attr:`_col_ones` (one bit every N positions) replicates ``m`` into
every row without carries, a column clear over all N rows is a single
big-int multiply-and-mask instead of an O(N) Python loop — the
per-cycle cost of :meth:`apply_clears` and :meth:`clear_entry` no
longer scales with the queue size (see ``docs/performance.md``).
"""
from __future__ import annotations

from ..errors import ConfigError
from ..stats import StatGroup


class SecurityDependenceMatrix:
    """NxN security dependence bits plus the update vector register."""

    def __init__(self, entries: int) -> None:
        if entries <= 0:
            raise ConfigError("matrix needs at least one entry")
        self.entries = entries
        #: All N rows packed into one integer, row X at bits [X*N, X*N+N).
        self._bits = 0
        self._update_vector = 0  # columns staged for clearance
        #: N ones: the mask of one row.
        self._row_ones = (1 << entries) - 1
        #: One bit at the base of every row (bit X*N for each X);
        #: ``mask * _col_ones`` replicates a row-local mask into every
        #: row (no carries, since mask < 2**N).
        self._col_ones = 0
        for index in range(entries):
            self._col_ones |= 1 << (index * entries)
        self.stats = StatGroup("security_matrix")

    # ---- dispatch -----------------------------------------------------------

    def set_row(self, pos: int, producer_mask: int) -> None:
        """Install row ``pos`` at dispatch.

        ``producer_mask`` has bit Y set for every issue-queue position Y
        that satisfies the formula's Y-side conditions (valid, unissued,
        memory-or-branch).  The X-side condition (X is a memory
        instruction) is the caller's responsibility: non-memory
        instructions install an all-zero row.
        """
        shift = pos * self.entries
        row = producer_mask & self._row_ones & ~(1 << pos)
        self._bits = (self._bits & ~(self._row_ones << shift)) \
            | (row << shift)
        if producer_mask:
            self.stats.incr("rows_installed_nonzero")
        else:
            self.stats.incr("rows_installed_zero")

    # ---- queries ---------------------------------------------------------------

    def row(self, pos: int) -> int:
        return (self._bits >> (pos * self.entries)) & self._row_ones

    def has_dependence(self, pos: int) -> bool:
        """Reduction-OR over row ``pos``: the *suspect speculation*
        signal sampled when the instruction is selected for issue."""
        return (self._bits >> (pos * self.entries)) \
            & self._row_ones != 0

    def dependence_count(self, pos: int) -> int:
        """Population count of row ``pos`` (diagnostics)."""
        return bin(self.row(pos)).count("1")

    # ---- clearance ----------------------------------------------------------------

    def schedule_clear(self, pos: int) -> None:
        """Stage column ``pos`` in the update vector register (called
        when the instruction at ``pos`` issues)."""
        self._update_vector |= 1 << pos

    def apply_clears(self) -> bool:
        """End-of-cycle: zero every staged column in one pass; returns
        whether any column was staged."""
        if not self._update_vector:
            return False
        # Replicate the staged columns into every row, then mask out.
        self._bits &= ~(self._update_vector * self._col_ones)
        self.stats.incr("columns_cleared",
                        bin(self._update_vector).count("1"))
        self._update_vector = 0
        return True

    def clear_entry(self, pos: int) -> None:
        """Remove ``pos`` entirely (deallocation or squash): zero its
        row and drop it from every other row and the update vector."""
        self._bits &= ~((self._row_ones << (pos * self.entries))
                        | ((1 << pos) * self._col_ones))
        self._update_vector &= ~(1 << pos)

    def reset(self) -> None:
        self._bits = 0
        self._update_vector = 0

    # ---- invariants (for property tests) ----------------------------------------------

    def is_empty(self) -> bool:
        return self._bits == 0 and self._update_vector == 0

    def column_mask(self, pos: int) -> int:
        """Bit vector of rows that currently depend on ``pos``."""
        bit = 1 << pos
        mask = 0
        bits = self._bits
        for index in range(self.entries):
            if bits & bit:
                mask |= 1 << index
            bits >>= self.entries
        return mask
