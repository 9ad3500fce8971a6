"""Three-level inclusive cache hierarchy plus main memory.

Latency model: a level's lookup latency is paid on the way down, so an
L2 hit costs ``L1 + L2``, a DRAM access costs ``L1 + L2 + L3 + DRAM``.
Fills propagate back up into every level (inclusive); evictions from an
outer level back-invalidate inner levels so inclusion is a maintained
invariant (property-tested).

``CLFLUSH`` timing distinguishes present vs absent lines, which is the
signal the Flush+Flush receiver measures.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from ..params import MemoryParams
from ..stats import StatGroup
from .cache import SetAssociativeCache

#: CLFLUSH latency when the line was cached somewhere (writeback path).
FLUSH_PRESENT_LATENCY = 42
#: CLFLUSH latency when the line was absent everywhere.
FLUSH_ABSENT_LATENCY = 14


@dataclass(frozen=True)
class AccessResult:
    """Outcome of a hierarchy access."""

    latency: int
    level: str          # "l1", "l2", "l3", or "mem"
    l1_hit: bool


class MemoryHierarchy:
    """L1I + L1D over a shared L2 over L3 over DRAM."""

    def __init__(self, params: MemoryParams) -> None:
        self.params = params
        self.l1i = SetAssociativeCache(params.l1i)
        self.l1d = SetAssociativeCache(params.l1d)
        self.l2 = SetAssociativeCache(params.l2)
        self.l3 = SetAssociativeCache(params.l3)
        self.stats = StatGroup("hierarchy")

    # ---- internal helpers ---------------------------------------------------

    def _back_invalidate_from_l3(self, line_addr: int) -> None:
        self.l2.invalidate(line_addr)
        self.l1i.invalidate(line_addr)
        self.l1d.invalidate(line_addr)

    def _back_invalidate_from_l2(self, line_addr: int) -> None:
        self.l1i.invalidate(line_addr)
        self.l1d.invalidate(line_addr)

    def _fill_outer(self, paddr: int) -> Tuple[str, int]:
        """Look up L2/L3/DRAM and fill the outer levels; returns the
        level that supplied the line plus accumulated outer latency."""
        if self.l2.lookup(paddr):
            return "l2", self.params.l2.hit_latency
        if self.l3.lookup(paddr):
            # Fill L2 from L3.
            evicted = self.l2.fill(paddr)
            if evicted is not None:
                self._back_invalidate_from_l2(evicted)
            return "l3", self.params.l2.hit_latency + self.params.l3.hit_latency
        # Miss everywhere: fetch from memory, fill L3 then L2.
        evicted_l3 = self.l3.fill(paddr)
        if evicted_l3 is not None:
            self._back_invalidate_from_l3(evicted_l3)
        evicted_l2 = self.l2.fill(paddr)
        if evicted_l2 is not None:
            self._back_invalidate_from_l2(evicted_l2)
        latency = (
            self.params.l2.hit_latency
            + self.params.l3.hit_latency
            + self.params.dram_latency
        )
        return "mem", latency

    def _access(self, l1: SetAssociativeCache, paddr: int,
                update_l1_lru: bool) -> AccessResult:
        l1_latency = l1.params.hit_latency
        if l1.lookup(paddr, update_lru=update_l1_lru):
            return AccessResult(latency=l1_latency, level="l1", l1_hit=True)
        level, outer_latency = self._fill_outer(paddr)
        # L1 evictions need no action (outer levels keep the line).
        l1.fill(paddr)
        return AccessResult(
            latency=l1_latency + outer_latency, level=level, l1_hit=False
        )

    # ---- data side ------------------------------------------------------------

    def data_access(self, paddr: int, update_l1_lru: bool = True) -> AccessResult:
        """A demand load/store access that is allowed to change cache
        content (fills on miss)."""
        self.stats.incr("data_accesses")
        return self._access(self.l1d, paddr, update_l1_lru)

    def data_hit_l1(self, paddr: int, update_lru: bool = True) -> bool:
        """L1D lookup *without fill*: the Cache-hit filter's check.  A
        hit optionally updates LRU state (policy-controlled); a miss
        changes nothing - the request is discarded."""
        self.stats.incr("l1_filter_checks")
        return self.l1d.lookup(paddr, update_lru=update_lru)

    def complete_miss(self, paddr: int) -> AccessResult:
        """Finish a demand miss whose L1D lookup was already performed
        (and counted) by :meth:`data_hit_l1`: walk the outer levels and
        refill, including the L1D."""
        level, outer_latency = self._fill_outer(paddr)
        self.l1d.fill(paddr)
        return AccessResult(
            latency=self.params.l1d.hit_latency + outer_latency,
            level=level,
            l1_hit=False,
        )

    def peek_miss(self, paddr: int) -> AccessResult:
        """Latency and supply level a demand miss *would* see, without
        filling any level or touching replacement state — the invisible
        speculative access of InvisiSpec-style defenses.  The L1D
        lookup is assumed already performed (and counted) by
        :meth:`data_hit_l1`, mirroring :meth:`complete_miss`."""
        l1_latency = self.params.l1d.hit_latency
        if self.l2.contains(paddr):
            level = "l2"
            outer = self.params.l2.hit_latency
        elif self.l3.contains(paddr):
            level = "l3"
            outer = self.params.l2.hit_latency + self.params.l3.hit_latency
        else:
            level = "mem"
            outer = (
                self.params.l2.hit_latency
                + self.params.l3.hit_latency
                + self.params.dram_latency
            )
        self.stats.incr("invisible_accesses")
        return AccessResult(
            latency=l1_latency + outer, level=level, l1_hit=False
        )

    def probe_data(self, paddr: int) -> bool:
        """Side-effect-free presence probe of the whole hierarchy."""
        return (
            self.l1d.contains(paddr)
            or self.l2.contains(paddr)
            or self.l3.contains(paddr)
        )

    def touch_l1d(self, paddr: int) -> bool:
        """Commit-time LRU touch (DELAYED policy)."""
        return self.l1d.touch(paddr)

    # ---- instruction side -------------------------------------------------------

    def inst_access(self, paddr: int) -> AccessResult:
        self.stats.incr("inst_accesses")
        return self._access(self.l1i, paddr, update_l1_lru=True)

    def inst_hit_l1(self, paddr: int) -> bool:
        """L1I lookup without fill (the ICache-hit filter's check)."""
        return self.l1i.contains(paddr)

    # ---- flush -------------------------------------------------------------------

    def flush_line(self, paddr: int) -> Tuple[int, bool]:
        """CLFLUSH: remove the line everywhere.  Returns (latency,
        was_present); latency depends on presence, which is the
        Flush+Flush signal."""
        present = False
        for cache in (self.l1i, self.l1d, self.l2, self.l3):
            if cache.invalidate(paddr):
                present = True
        self.stats.incr("flushes")
        if present:
            self.stats.incr("flush_hits")
            return FLUSH_PRESENT_LATENCY, True
        return FLUSH_ABSENT_LATENCY, False

    # ---- invariants ------------------------------------------------------------------

    def check_inclusion(self) -> List[str]:
        """Return a list of inclusion violations (empty when healthy).

        Invariant: every line in L1I/L1D is in L2, every line in L2 is
        in L3."""
        problems: List[str] = []
        for name, inner in (("l1i", self.l1i), ("l1d", self.l1d)):
            for line in inner.resident_lines():
                if not self.l2.contains(line):
                    problems.append(f"{name} line {line:#x} missing from l2")
        for line in self.l2.resident_lines():
            if not self.l3.contains(line):
                problems.append(f"l2 line {line:#x} missing from l3")
        return problems

    @property
    def line_bytes(self) -> int:
        return self.params.line_bytes
