"""Admission control: keep the daemon healthy under overload.

Two independent gates, applied in order before a submission touches a
worker:

1. **Per-client token bucket** — each client id gets ``rate`` tokens
   per second up to a ``burst`` ceiling.  A client that outruns its
   bucket is shed with a 429 *without* consuming queue capacity, so
   one greedy client cannot starve the rest.
2. **Bounded queue** — the background-job queue has a hard depth
   limit.  When it is full the server sheds *explicitly* (429 +
   ``"reason": "queue_full"``) instead of accepting work it cannot
   finish; an unbounded queue under sustained overload is just a
   slow-motion out-of-memory crash.

Shedding is always explicit and accounted — ``tools/serve_smoke.py``
holds ``/stats`` ``admission.shed`` to the 429s its clients received,
so a shed is reported, not hidden in timeouts.

Time is injected (``clock``) so tests drive the bucket
deterministically.
"""
from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional


@dataclass
class TokenBucket:
    """Classic token bucket: ``rate`` tokens/second, ``burst`` cap."""

    rate: float
    burst: float
    clock: Callable[[], float] = time.monotonic
    tokens: float = field(init=False)
    _stamp: float = field(init=False)

    def __post_init__(self) -> None:
        if self.rate <= 0 or self.burst <= 0:
            raise ValueError("token bucket rate and burst must be positive")
        self.tokens = self.burst
        self._stamp = self.clock()

    def take(self, amount: float = 1.0) -> bool:
        """Try to spend ``amount`` tokens; False means rate-limited."""
        now = self.clock()
        self.tokens = min(self.burst,
                          self.tokens + (now - self._stamp) * self.rate)
        self._stamp = now
        if self.tokens < amount:
            return False
        self.tokens -= amount
        return True


@dataclass
class AdmissionStats:
    admitted: int = 0
    rate_limited: int = 0
    queue_full: int = 0

    @property
    def shed(self) -> int:
        return self.rate_limited + self.queue_full

    def to_dict(self) -> Dict[str, int]:
        return {
            "admitted": self.admitted,
            "rate_limited": self.rate_limited,
            "queue_full": self.queue_full,
            "shed": self.shed,
        }


class AdmissionController:
    """Both gates plus bookkeeping; thread-safe."""

    def __init__(
        self,
        rate: float = 50.0,
        burst: float = 100.0,
        max_queue_depth: int = 256,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if max_queue_depth < 1:
            raise ValueError("max_queue_depth must be >= 1")
        self.rate = rate
        self.burst = burst
        self.max_queue_depth = max_queue_depth
        self.clock = clock
        self.stats = AdmissionStats()
        self._lock = threading.Lock()
        self._buckets: Dict[str, TokenBucket] = {}

    def admit(self, client: str, queue_depth: int) -> Optional[str]:
        """Gate one submission.

        Returns ``None`` when admitted, else the shed reason
        (``"rate_limited"`` or ``"queue_full"``) for the 429 body.
        """
        with self._lock:
            bucket = self._buckets.get(client)
            if bucket is None:
                bucket = TokenBucket(self.rate, self.burst, self.clock)
                self._buckets[client] = bucket
            if not bucket.take():
                self.stats.rate_limited += 1
                return "rate_limited"
            if queue_depth >= self.max_queue_depth:
                self.stats.queue_full += 1
                return "queue_full"
            self.stats.admitted += 1
            return None
