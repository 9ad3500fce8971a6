"""Load/store queue with store-to-load forwarding, memory-dependence
speculation and ordering-violation detection.

The LSQ is the structure the TPBuf shadows 1:1 (Section V.D): slot
``i`` of the load queue maps to TPBuf entry ``i`` and slot ``j`` of the
store queue to entry ``ldq_entries + j``.  Allocation, commit and
squash of TPBuf entries are driven from here.

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
from typing import Iterable, List, Optional

from ..core.tpbuf import TPBuf
from ..errors import SimulationError
from ..isa.instructions import WORD_BYTES
from .dyninst import DynInst

_WORD_ALIGN = ~(WORD_BYTES - 1)


@dataclass(frozen=True)
class LoadDecision:
    """Outcome of the LSQ search for a load with a known address."""

    #: Youngest older store with a known, matching word address.
    source: Optional[DynInst]
    #: True when an unknown-address store younger than ``source`` (or
    #: any unknown-address older store, if there is no source) exists.
    speculation_hazard: bool


class LoadStoreQueue:
    """Split load/store queues with fixed slots (for TPBuf mirroring)."""

    def __init__(self, ldq_entries: int, stq_entries: int,
                 tpbuf: Optional[TPBuf] = None) -> None:
        self.ldq_entries = ldq_entries
        self.stq_entries = stq_entries
        self._loads: List[Optional[DynInst]] = [None] * ldq_entries
        self._stores: List[Optional[DynInst]] = [None] * stq_entries
        self._free_loads: List[int] = list(range(ldq_entries - 1, -1, -1))
        self._free_stores: List[int] = list(range(stq_entries - 1, -1, -1))
        #: Free load and store queue slots, kept current for dispatch's
        #: capacity check.
        self.load_space = ldq_entries
        self.store_space = stq_entries
        self.tpbuf = tpbuf

    # ---- capacity ----------------------------------------------------------

    def load_occupancy(self) -> int:
        return self.ldq_entries - self.load_space

    def store_occupancy(self) -> int:
        return self.stq_entries - self.store_space

    # ---- allocation (dispatch, program order) ---------------------------------

    def allocate_load(self, inst: DynInst) -> int:
        if not self._free_loads:
            raise SimulationError("LDQ overflow")
        slot = self._free_loads.pop()
        self.load_space -= 1
        self._loads[slot] = inst
        inst.lsq_slot = slot
        inst.tpbuf_index = slot
        if self.tpbuf is not None:
            self.tpbuf.allocate(slot)
        return slot

    def allocate_store(self, inst: DynInst) -> int:
        if not self._free_stores:
            raise SimulationError("STQ overflow")
        slot = self._free_stores.pop()
        self.store_space -= 1
        self._stores[slot] = inst
        inst.lsq_slot = slot
        inst.tpbuf_index = self.ldq_entries + slot
        if self.tpbuf is not None:
            self.tpbuf.allocate(inst.tpbuf_index)
        return slot

    # ---- release (commit or squash) --------------------------------------------

    def release(self, inst: DynInst) -> None:
        slot = inst.lsq_slot
        if slot is None:
            return
        if inst.instr.is_load:
            assert self._loads[slot] is inst
            self._loads[slot] = None
            self._free_loads.append(slot)
            self.load_space += 1
        else:
            assert self._stores[slot] is inst
            self._stores[slot] = None
            self._free_stores.append(slot)
            self.store_space += 1
        if self.tpbuf is not None and inst.tpbuf_index is not None:
            self.tpbuf.deallocate(inst.tpbuf_index)
        inst.lsq_slot = None
        inst.tpbuf_index = None

    # ---- iteration -----------------------------------------------------------------

    def loads(self) -> Iterable[DynInst]:
        return (inst for inst in self._loads if inst is not None)

    def stores(self) -> Iterable[DynInst]:
        return (inst for inst in self._stores if inst is not None)

    # ---- forwarding / speculation decisions ---------------------------------------------

    def check_load(self, load: DynInst) -> "LoadDecision":
        """Classify a load that has its effective address.

        The decision identifies the forwarding source (youngest older
        store with a known matching word address, if any) and whether
        an unknown-address store *younger than that source* sits in
        between - the memory-dependence speculation hazard.
        """
        assert load.vaddr is not None
        word = load.vaddr & _WORD_ALIGN
        source: Optional[DynInst] = None
        youngest_unknown: Optional[DynInst] = None
        for store in self.stores():
            if store.seq >= load.seq:
                continue
            if not store.instr.is_store:
                continue  # CLFLUSH occupies the STQ but forwards nothing
            if not store.addr_ready:
                if (youngest_unknown is None
                        or store.seq > youngest_unknown.seq):
                    youngest_unknown = store
                continue
            assert store.vaddr is not None
            if (store.vaddr & _WORD_ALIGN) != word:
                continue
            if source is None or store.seq > source.seq:
                source = store
        hazard = youngest_unknown is not None and (
            source is None or youngest_unknown.seq > source.seq
        )
        return LoadDecision(source=source, speculation_hazard=hazard)

    def unresolved_store_older_than(self, seq: int) -> bool:
        """Is any real store older than ``seq`` still waiting for its
        address?  While true, a load at ``seq`` issuing anyway is
        memory-dependence speculation — the store-bypass window the
        store-set-aware defense keys its suspect predicate off."""
        for store in self.stores():
            if (store.seq < seq and store.instr.is_store
                    and not store.addr_ready):
                return True
        return False

    def violating_loads(self, store: DynInst) -> List[DynInst]:
        """Loads that executed past ``store`` and read the same word
        from the wrong source - the ordering violations to squash when
        ``store`` resolves its address.

        A load violates iff it is younger, already has its address,
        speculated past an unknown store, reads the same word, and its
        forwarding source (if any) is older than ``store``.
        """
        assert store.vaddr is not None
        word = store.vaddr & _WORD_ALIGN
        violations: List[DynInst] = []
        for load in self.loads():
            if load.seq <= store.seq:
                continue
            if load.vaddr is None or not load.speculated_past_store:
                continue
            if (load.vaddr & _WORD_ALIGN) != word:
                continue
            if load.forward_seq is not None and load.forward_seq > store.seq:
                continue
            violations.append(load)
        violations.sort(key=lambda inst: inst.seq)
        return violations
