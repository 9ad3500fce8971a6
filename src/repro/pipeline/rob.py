"""Reorder buffer: program-order window of in-flight instructions."""
from __future__ import annotations

from collections import deque
from typing import Deque, Iterator, List, Optional

from .dyninst import DynInst


class ReorderBuffer:
    """A bounded FIFO of :class:`DynInst` in program order."""

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self._entries: Deque[DynInst] = deque()
        #: Free entries, kept current for dispatch's capacity check.
        self.space = capacity

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[DynInst]:
        return iter(self._entries)

    @property
    def empty(self) -> bool:
        return not self._entries

    def head(self) -> Optional[DynInst]:
        return self._entries[0] if self._entries else None

    def append(self, inst: DynInst) -> None:
        assert self.space, "ROB overflow"
        self._entries.append(inst)
        self.space -= 1

    def pop_head(self) -> DynInst:
        self.space += 1
        return self._entries.popleft()

    def squash_younger_than(self, seq: int) -> List[DynInst]:
        """Remove every instruction with ``inst.seq > seq`` and return
        them youngest-first (the order rename rollback requires)."""
        squashed: List[DynInst] = []
        while self._entries and self._entries[-1].seq > seq:
            squashed.append(self._entries.pop())
        self.space += len(squashed)
        return squashed

    def is_head(self, inst: DynInst) -> bool:
        return bool(self._entries) and self._entries[0] is inst
