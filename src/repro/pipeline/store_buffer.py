"""Post-commit store buffer.

Stores retire into this buffer and drain to the cache hierarchy in the
background (one access in flight at a time).  Commit stalls only when
the buffer is full, so store misses cost throughput without serializing
the pipeline - which matters for the store-heavy benchmarks (lbm,
zeusmp) whose behaviour Table V keys on.

Draining is the only point where stores change cache *content*; it is
always non-speculative, which is why the hazard filters never need to
gate stores.
"""
from __future__ import annotations

from collections import deque
from typing import Deque, Optional

from ..memory.hierarchy import MemoryHierarchy
from ..stats import StatGroup


class StoreBuffer:
    """A FIFO of committed stores draining to the hierarchy."""

    def __init__(self, capacity: int, hierarchy: MemoryHierarchy) -> None:
        self.capacity = capacity
        self._hierarchy = hierarchy
        self._entries: Deque[int] = deque()  # physical addresses
        self._drain_done_cycle: Optional[int] = None
        self.stats = StatGroup("store_buffer")

    @property
    def full(self) -> bool:
        return len(self._entries) >= self.capacity

    def __len__(self) -> int:
        return len(self._entries)

    def push(self, paddr: int) -> None:
        """Accept a committed store (caller must check ``full``)."""
        assert not self.full, "store buffer overflow"
        self._entries.append(paddr)
        self.stats.incr("accepted")

    def tick(self, cycle: int) -> bool:
        """Advance the drain engine by one cycle; returns whether a
        drain finished or started."""
        finished = False
        if self._drain_done_cycle is not None:
            if cycle < self._drain_done_cycle:
                return False
            self._entries.popleft()
            self._drain_done_cycle = None
            self.stats.incr("drained")
            finished = True
        if self._entries and self._drain_done_cycle is None:
            result = self._hierarchy.data_access(self._entries[0])
            self._drain_done_cycle = cycle + result.latency
            if result.l1_hit:
                self.stats.incr("drain_l1_hits")
            else:
                self.stats.incr("drain_l1_misses")
            return True
        return finished

    def next_deadline(self) -> Optional[int]:
        """The cycle the drain in flight completes (None when idle)."""
        return self._drain_done_cycle
