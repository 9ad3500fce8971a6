"""Load/store queue with store-to-load forwarding, memory-dependence
speculation and ordering-violation detection.

Loads and stores each keep their residents oldest first, with no slot
numbers.  The TPBuf (Section V.D) is one entry per LSQ entry; it reads
its bits off these residents (see :mod:`repro.core.tpbuf`).

Memory-dependence speculation is what Spectre V4 exploits: a load whose
older stores have unknown addresses may issue anyway; when a store
resolves its address, younger already-executed loads to the same word
that did not forward from it are squashed (ordering violation).

This store-bypass window is also the blind spot of the purely
branch-keyed zoo defenses (``delay_on_miss`` / ``eager_delay`` in
:mod:`repro.core.defense`): they key "speculative" off unresolved
branches only, so a V4 leak rides through — the shootout experiment
reports exactly that row.  The ``delay_on_miss_ss`` entry closes the
blind spot by also consulting :meth:`LoadStoreQueue.unresolved_store_older_than`
together with the static store sets of :mod:`repro.analysis.memdep`.
The ``ldq_entries`` capacity here also sizes the per-load speculative
buffer of the InvisiSpec-style entry.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional

from ..errors import SimulationError
from ..isa.instructions import WORD_BYTES
from .dyninst import DynInst

_WORD_ALIGN = ~(WORD_BYTES - 1)


@dataclass(slots=True)
class LoadDecision:
    """Outcome of the LSQ search for a load with a known address.  Not
    frozen: one is built per search, and a slots class builds several
    times faster."""

    #: Youngest older store with a known, matching word address.
    source: Optional[DynInst]
    #: True when an unknown-address store younger than ``source`` (or
    #: any unknown-address older store, if there is no source) exists.
    speculation_hazard: bool


class LoadStoreQueue:
    """Split load/store queues, each oldest first."""

    def __init__(self, ldq_entries: int, stq_entries: int) -> None:
        #: Residents by sequence number, oldest first (allocation is in
        #: program order, so insertion order is age order).
        self._loads: Dict[int, DynInst] = {}
        self._stores: Dict[int, DynInst] = {}
        #: Free load and store queue entries, kept current for
        #: dispatch's capacity check.
        self.load_space = ldq_entries
        self.store_space = stq_entries
        #: Entries allocated so far, loads and stores (the TPBuf's
        #: ``allocations``: it pairs one entry with each).
        self.allocations = 0

    # ---- capacity ----------------------------------------------------------

    def load_occupancy(self) -> int:
        return len(self._loads)

    def store_occupancy(self) -> int:
        return len(self._stores)

    # ---- allocation (dispatch, program order) ---------------------------------

    def allocate_load(self, inst: DynInst) -> None:
        if not self.load_space:
            raise SimulationError("LDQ overflow")
        self.load_space -= 1
        self._loads[inst.seq] = inst
        self.allocations += 1

    def allocate_store(self, inst: DynInst) -> None:
        if not self.store_space:
            raise SimulationError("STQ overflow")
        self.store_space -= 1
        self._stores[inst.seq] = inst
        self.allocations += 1

    # ---- release (commit or squash) --------------------------------------------

    def release(self, inst: DynInst) -> None:
        """Free the entry held by ``inst``; nothing if it holds none."""
        if inst.instr.is_load:
            if self._loads.pop(inst.seq, None) is not None:
                self.load_space += 1
        elif self._stores.pop(inst.seq, None) is not None:
            self.store_space += 1

    # ---- iteration -----------------------------------------------------------------

    def loads(self) -> Iterable[DynInst]:
        """Load queue residents, oldest first."""
        return self._loads.values()

    def stores(self) -> Iterable[DynInst]:
        """Store queue residents (stores and line flushes), oldest
        first."""
        return self._stores.values()

    # ---- forwarding / speculation decisions ---------------------------------------------

    def check_load(self, load: DynInst) -> "LoadDecision":
        """Classify a load that has its effective address.

        The decision identifies the forwarding source (youngest older
        store with a known matching word address, if any) and whether
        an unknown-address store *younger than that source* sits in
        between - the memory-dependence speculation hazard.
        """
        assert load.vaddr is not None
        seq = load.seq
        word = load.vaddr & _WORD_ALIGN
        source: Optional[DynInst] = None
        youngest_unknown: Optional[DynInst] = None
        for store in self._stores.values():  # oldest first
            if store.seq >= seq:
                break
            if not store.instr.is_store:
                continue  # CLFLUSH occupies the STQ but forwards nothing
            if not store.addr_ready:
                youngest_unknown = store
                continue
            assert store.vaddr is not None
            if (store.vaddr & _WORD_ALIGN) == word:
                source = store
        hazard = youngest_unknown is not None and (
            source is None or youngest_unknown.seq > source.seq
        )
        return LoadDecision(source, hazard)

    def unresolved_store_older_than(self, seq: int) -> bool:
        """Is any real store older than ``seq`` still waiting for its
        address?  While true, a load at ``seq`` issuing anyway is
        memory-dependence speculation — the store-bypass window the
        store-set-aware defense keys its suspect predicate off."""
        for store in self._stores.values():  # oldest first
            if store.seq >= seq:
                return False
            if store.instr.is_store and not store.addr_ready:
                return True
        return False

    def violating_loads(self, store: DynInst) -> List[DynInst]:
        """Loads that executed past ``store`` and read the same word
        from the wrong source - the ordering violations to squash when
        ``store`` resolves its address, oldest first.

        A load violates iff it is younger, already has its address,
        speculated past an unknown store, reads the same word, and its
        forwarding source (if any) is older than ``store``.
        """
        assert store.vaddr is not None
        word = store.vaddr & _WORD_ALIGN
        violations: List[DynInst] = []
        for load in self._loads.values():  # oldest first
            if load.seq <= store.seq:
                continue
            if load.vaddr is None or not load.speculated_past_store:
                continue
            if (load.vaddr & _WORD_ALIGN) != word:
                continue
            if load.forward_seq is not None and load.forward_seq > store.seq:
                continue
            violations.append(load)
        return violations
