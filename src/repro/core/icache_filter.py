"""ICache-hit filter: the Section VII.B extension.

While any unresolved branch is in flight, the next-PC is an *unsafe*
fetch address.  An unsafe fetch that hits L1I proceeds (instruction
fetch from a resident line changes no cache content); an unsafe fetch
that misses L1I is stalled until the oldest unresolved branch resolves,
so speculative fetch can never refill the instruction cache and leak
through an ICache side channel.
"""
from __future__ import annotations

from ..stats import StatGroup


class ICacheHitFilter:
    """Fetch-side gate for speculative instruction-cache refills."""

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.stats = StatGroup("icache_filter")

    def allow_fetch(self, l1i_hit: bool, unresolved_branch_in_flight: bool
                    ) -> bool:
        """Whether the fetch may proceed this cycle."""
        if not self.enabled:
            return True
        if not unresolved_branch_in_flight:
            self.stats["safe_npc"] += 1
            return True
        if l1i_hit:
            self.stats["unsafe_hits"] += 1
            return True
        self.stats["unsafe_miss_stalls"] += 1
        return False
