"""A physically indexed, physically tagged set-associative cache."""
from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..params import CacheParams
from ..stats import StatGroup


@dataclass
class CacheAccess:
    """Outcome of one cache lookup-with-fill."""

    hit: bool
    evicted_line_addr: Optional[int] = None


class SetAssociativeCache:
    """One cache level with true-LRU replacement.

    All addresses handed to the cache are *physical* byte addresses;
    the cache reasons at line granularity.  The cache tracks no data
    (functional values live in the architectural memory image); it only
    models presence and recency, which is all the side channel and the
    defense need.

    Each set is a list of its resident line numbers (``address >>
    log2(line_bytes)``), least recently used first, created on the
    set's first fill.  A set holding fewer than ``ways`` lines fills
    without evicting (an invalidated line frees its way); a full set
    evicts its least recently used line.
    """

    def __init__(self, params: CacheParams) -> None:
        self.params = params
        self.stats = StatGroup(params.name)
        self._line_shift = params.line_bytes.bit_length() - 1
        self._num_sets = params.num_sets
        self._set_mask = self._num_sets - 1
        self._ways = params.ways
        self._sets: Dict[int, List[int]] = {}

    # ---- address helpers -------------------------------------------------

    def set_index(self, address: int) -> int:
        return (address >> self._line_shift) & self._set_mask

    # ---- queries (no state change) ----------------------------------------

    def contains(self, address: int) -> bool:
        """Presence probe; never perturbs replacement state."""
        line = address >> self._line_shift
        return line in self._sets.get(line & self._set_mask, ())

    def lines_in_set(self, set_index: int) -> List[int]:
        """Line addresses resident in ``set_index``, least recently used
        first; used by eviction-set tooling and tests."""
        return [line << self._line_shift
                for line in self._sets.get(set_index, ())]

    @property
    def num_sets(self) -> int:
        return self._num_sets

    @property
    def ways(self) -> int:
        return self._ways

    # ---- state-changing operations ------------------------------------------

    def lookup(self, address: int, update_lru: bool = True) -> bool:
        """Lookup without fill.  Returns hit/miss."""
        line = address >> self._line_shift
        lines = self._sets.get(line & self._set_mask)
        if lines is None or line not in lines:
            self.stats["misses"] += 1
            return False
        self.stats["hits"] += 1
        if update_lru:
            lines.remove(line)
            lines.append(line)
        return True

    def touch(self, address: int) -> bool:
        """Apply only the LRU update for a line (the DELAYED policy's
        commit-time action).  Returns False if the line is gone."""
        line = address >> self._line_shift
        lines = self._sets.get(line & self._set_mask)
        if lines is None or line not in lines:
            return False
        lines.remove(line)
        lines.append(line)
        return True

    def fill(self, address: int) -> Optional[int]:
        """Insert the line containing ``address``; returns the evicted
        line address, if any.  Filling a resident line just refreshes
        its recency."""
        line = address >> self._line_shift
        set_index = line & self._set_mask
        lines = self._sets.get(set_index)
        if lines is None:
            lines = self._sets[set_index] = []
        elif line in lines:
            lines.remove(line)
            lines.append(line)
            return None
        evicted: Optional[int] = None
        if len(lines) == self._ways:
            evicted = lines.pop(0) << self._line_shift
            self.stats["evictions"] += 1
        lines.append(line)
        self.stats["fills"] += 1
        return evicted

    def access(self, address: int, update_lru: bool = True) -> CacheAccess:
        """Lookup and fill on miss (the common path)."""
        if self.lookup(address, update_lru=update_lru):
            return CacheAccess(hit=True)
        return CacheAccess(hit=False, evicted_line_addr=self.fill(address))

    def invalidate(self, address: int) -> bool:
        """Remove the line containing ``address``; True if it was present."""
        line = address >> self._line_shift
        lines = self._sets.get(line & self._set_mask)
        if lines is None or line not in lines:
            return False
        lines.remove(line)
        self.stats["invalidations"] += 1
        return True

    def flush_all(self) -> None:
        """Empty the cache (used between attack phases in tests)."""
        self._sets.clear()

    def resident_lines(self) -> List[int]:
        """All resident line addresses (tests and debugging)."""
        return [line << self._line_shift
                for set_index in sorted(self._sets)
                for line in self._sets[set_index]]

    def hit_rate(self) -> float:
        lookups = self.stats.get("hits") + self.stats.get("misses")
        if lookups == 0:
            return 0.0
        return self.stats.get("hits") / lookups
