"""The Trusted Page Buffer (TPBuf) - Section V.D, Figure 4.

The paper's TPBuf has one entry per LSQ entry and tracks, per in-flight
memory instruction:

- ``A`` - entry allocated (paired LSQ entry live),
- ``V`` - physical page number recorded (address translated),
- ``W`` - writeback: the fetched data is available to consumers,
- ``S`` - the instruction carried the *suspect speculation* flag,
- ``ppn`` - the physical page number (the tag),
- ``mask`` - the entries older in program order.

Every one of these is already a fact of the in-flight instruction the
LSQ holds, set at the moment the hardware would set the bit: ``A`` is
LSQ residence, ``V`` a known ``ppn`` (set at address translation),
``S`` its ``suspect`` flag (sampled at issue), ``W`` a completed load or
a store whose data was captured (a CLFLUSH never writes back), and the
mask is the LSQ residents older than the incoming request.  The TPBuf
therefore keeps no copy: it evaluates the filter decision of equation
1 directly over the LSQ::

    safe = !( | (V & W & S & Match) )     restricted to older entries,

where ``Match`` flags entries whose page *differs* from the incoming
request's page (Table II: an older suspect access in Writeback status
on a different page makes the incoming miss unsafe - the S-Pattern).
"""
from __future__ import annotations

from typing import TYPE_CHECKING

from ..stats import StatGroup

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..pipeline.dyninst import DynInst
    from ..pipeline.lsq import LoadStoreQueue


class TPBuf:
    """The Trusted Page Buffer: equation 1 over the LSQ's residents.

    ``stats`` counts ``queries`` with their ``safe`` and ``unsafe``
    verdicts; the processor adds ``allocations``, one per LSQ
    allocation, to the report.
    """

    def __init__(self) -> None:
        self.stats = StatGroup("tpbuf")

    def is_safe(self, load: "DynInst", lsq: "LoadStoreQueue") -> bool:
        """Apply equation 1 to the incoming suspect L1D miss ``load``,
        whose page is translated, over the residents of ``lsq`` older
        than it.

        Returns True when the access does *not* match the S-Pattern and
        may therefore speculatively refill the cache.
        """
        self.stats["queries"] += 1
        seq = load.seq
        ppn = load.ppn
        assert ppn is not None
        for older in lsq.loads():
            if older.seq >= seq:
                break
            if (older.suspect and older.completed
                    and older.ppn is not None and older.ppn != ppn):
                self.stats["unsafe"] += 1
                return False
        for older in lsq.stores():
            if older.seq >= seq:
                break
            if (older.suspect and older.store_data_ready
                    and older.ppn is not None and older.ppn != ppn):
                self.stats["unsafe"] += 1
                return False
        self.stats["safe"] += 1
        return True
