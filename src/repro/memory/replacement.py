"""The speculative-update LRU policies of Section VII.A of the paper.

The paper observes that even a speculative L1D *hit* leaks through the
replacement metadata (LRU bits) and proposes:

- ``NORMAL``      - conventional: every access updates LRU state.
- ``NO_UPDATE``   - speculative hits do not touch LRU state at all.
- ``DELAYED``     - speculative hits record a pending update which is
  applied when the access becomes non-speculative (commit time).

The policy only governs *speculative hits*; fills and non-speculative
accesses always update recency.  The recency itself lives in each
:class:`~repro.memory.cache.SetAssociativeCache` set.
"""
from __future__ import annotations

from enum import Enum


class SpeculativeLRUPolicy(Enum):
    """How speculative L1D hits update replacement metadata."""

    NORMAL = "normal"
    NO_UPDATE = "no_update"
    DELAYED = "delayed"
