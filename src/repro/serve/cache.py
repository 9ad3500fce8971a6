"""Content-addressed result cache with single-flight deduplication.

The cache key (:meth:`repro.serve.protocol.Submission.cache_key`)
already folds in everything that can change an answer, so a hit is
always safe to serve.  Three layers:

- :class:`ResultCache` — a bounded LRU of finished results.  Purely
  in-memory: results are cheap to recompute and the durable record of
  *jobs* lives in the checkpoint, not here.
- Single-flight — concurrent submissions of the same key while the
  first is still computing are coalesced onto one in-flight job
  instead of burning a worker each.  :meth:`ResultCache.claim` returns
  either a finished result, the job id already computing this key, or
  a fresh claim for the caller to fulfil.
- Region tier (:attr:`ResultCache.regions`) — a
  :class:`~repro.analysis.summaries.SummaryCache` of per-program
  CFG/loop summaries keyed on a hash of the program's code.  Where the
  result cache needs the *whole submission* to match, the region tier
  hits whenever the submitted code matches — across names, secret
  sets, and budgets — so a near-miss submission still skips the
  summary analysis inside the certifier.

Thread-safety: the server only touches the cache from the event-loop
thread, but a lock is kept anyway so the engine can be reused from
threaded harnesses.
"""
from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Optional

from ..analysis.summaries import SummaryCache


@dataclass
class CacheStats:
    hits: int = 0
    misses: int = 0
    coalesced: int = 0
    evictions: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def to_dict(self) -> Dict[str, object]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "coalesced": self.coalesced,
            "evictions": self.evictions,
            "hit_rate": round(self.hit_rate, 4),
        }


@dataclass(frozen=True)
class Claim:
    """Outcome of :meth:`ResultCache.claim` — exactly one field set.

    - ``result`` — finished answer, serve it directly.
    - ``leader`` — the job id already computing this key; attach.
    - neither — the caller owns the computation and must eventually
      :meth:`ResultCache.fulfil` or :meth:`ResultCache.abandon`.
    """

    result: Optional[Dict[str, object]] = None
    leader: Optional[str] = None

    @property
    def owned(self) -> bool:
        return self.result is None and self.leader is None


class ResultCache:
    """Bounded LRU result cache + single-flight registry."""

    def __init__(self, capacity: int = 1024) -> None:
        if capacity < 1:
            raise ValueError("cache capacity must be >= 1")
        self.capacity = capacity
        self.stats = CacheStats()
        self._lock = threading.Lock()
        self._results: "OrderedDict[str, Dict[str, object]]" = OrderedDict()
        #: key -> job id of the in-flight computation (the "leader").
        self._inflight: Dict[str, str] = {}
        #: Region-granular summary tier, in memory for the daemon's
        #: lifetime; hand this to the engine so certification jobs
        #: share it.
        self.regions = SummaryCache()

    # ---- plain cache ------------------------------------------------------

    def get(self, key: str) -> Optional[Dict[str, object]]:
        with self._lock:
            result = self._results.get(key)
            if result is None:
                self.stats.misses += 1
                return None
            self._results.move_to_end(key)
            self.stats.hits += 1
            return result

    def put(self, key: str, result: Dict[str, object]) -> None:
        with self._lock:
            self._results[key] = result
            self._results.move_to_end(key)
            while len(self._results) > self.capacity:
                self._results.popitem(last=False)
                self.stats.evictions += 1

    # ---- single-flight ----------------------------------------------------

    def claim(self, key: str, job_id: str) -> Claim:
        """Claim the right to compute ``key`` on behalf of ``job_id``.

        Checks the finished cache first, then the in-flight registry;
        only when both miss does the caller become the leader.
        """
        with self._lock:
            result = self._results.get(key)
            if result is not None:
                self._results.move_to_end(key)
                self.stats.hits += 1
                return Claim(result=result)
            leader = self._inflight.get(key)
            if leader is not None:
                self.stats.coalesced += 1
                return Claim(leader=leader)
            self.stats.misses += 1
            self._inflight[key] = job_id
            return Claim()

    def fulfil(self, key: str, job_id: str,
               result: Dict[str, object]) -> None:
        """The leader finished: publish the result, clear the flight."""
        with self._lock:
            if self._inflight.get(key) == job_id:
                del self._inflight[key]
            self._results[key] = result
            self._results.move_to_end(key)
            while len(self._results) > self.capacity:
                self._results.popitem(last=False)
                self.stats.evictions += 1

    def abandon(self, key: str, job_id: str) -> None:
        """The leader died without a result (cancelled mid-flight);
        release the key so the next submission recomputes."""
        with self._lock:
            if self._inflight.get(key) == job_id:
                del self._inflight[key]

    def __len__(self) -> int:
        with self._lock:
            return len(self._results)
