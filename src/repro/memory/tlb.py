"""Page table and TLB.

The TPBuf filter compares *physical page numbers* (the paper checks the
PPN after TLB translation so an attacker cannot alias pages virtually),
so the simulator carries a real page table: virtual page number -> PPN,
with support for mapping several virtual pages onto one physical page
(shared memory, the substrate of Flush+Reload-style channels).
"""
from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Optional

from ..errors import SimulationError
from ..params import TLBParams
from ..stats import StatGroup


@dataclass(frozen=True)
class TranslationResult:
    """Outcome of one TLB translation."""

    paddr: int
    ppn: int
    latency: int
    tlb_hit: bool


class PageTable:
    """A flat VPN -> PPN map with on-demand allocation.

    Physical pages are handed out sequentially from ``first_ppn``.
    ``map_shared`` aliases a virtual page onto an existing physical
    page, which is how attack scenarios model memory shared between
    attacker and victim.
    """

    def __init__(self, page_bytes: int = 4096, first_ppn: int = 0x100,
                 allocate_on_access: bool = True) -> None:
        if page_bytes & (page_bytes - 1):
            raise SimulationError("page size must be a power of two")
        self.page_bytes = page_bytes
        self._page_shift = page_bytes.bit_length() - 1
        self._mapping: Dict[int, int] = {}
        self._next_ppn = first_ppn
        self._allocate_on_access = allocate_on_access

    @property
    def page_shift(self) -> int:
        return self._page_shift

    def vpn_of(self, vaddr: int) -> int:
        return vaddr >> self._page_shift

    def offset_of(self, vaddr: int) -> int:
        return vaddr & (self.page_bytes - 1)

    def map_page(self, vpn: int, ppn: Optional[int] = None) -> int:
        """Map ``vpn`` to ``ppn`` (or a fresh physical page)."""
        if vpn in self._mapping:
            raise SimulationError(f"vpn {vpn:#x} already mapped")
        if ppn is None:
            ppn = self._next_ppn
            self._next_ppn += 1
        self._mapping[vpn] = ppn
        return ppn

    def map_shared(self, vpn: int, other_vpn: int) -> int:
        """Alias ``vpn`` to the physical page backing ``other_vpn``."""
        ppn = self.lookup(other_vpn)
        if ppn is None:
            ppn = self.map_page(other_vpn)
        if self._mapping.get(vpn) == ppn:
            return ppn
        if vpn in self._mapping:
            raise SimulationError(f"vpn {vpn:#x} already mapped elsewhere")
        self._mapping[vpn] = ppn
        return ppn

    def lookup(self, vpn: int) -> Optional[int]:
        return self._mapping.get(vpn)

    def translate_vpn(self, vpn: int) -> int:
        """VPN -> PPN, allocating on demand if permitted."""
        ppn = self._mapping.get(vpn)
        if ppn is None:
            if not self._allocate_on_access:
                raise SimulationError(f"page fault: vpn {vpn:#x} unmapped")
            ppn = self.map_page(vpn)
        return ppn

    def physical_address(self, vaddr: int) -> int:
        """Full virtual -> physical byte-address translation."""
        ppn = self.translate_vpn(self.vpn_of(vaddr))
        return (ppn << self._page_shift) | self.offset_of(vaddr)


class TLB:
    """A fully associative translation lookaside buffer with true LRU."""

    def __init__(self, params: TLBParams, page_table: PageTable,
                 name: str = "TLB") -> None:
        if params.page_bytes != page_table.page_bytes:
            raise SimulationError("TLB and page table disagree on page size")
        self.params = params
        self.page_table = page_table
        self.stats = StatGroup(name)
        self._entries: "OrderedDict[int, int]" = OrderedDict()

    def translate(self, vaddr: int) -> TranslationResult:
        """Translate a virtual byte address, modelling hit/miss latency."""
        vpn = self.page_table.vpn_of(vaddr)
        ppn = self._entries.get(vpn)
        if ppn is not None:
            self._entries.move_to_end(vpn)
            self.stats.incr("hits")
            hit = True
            latency = self.params.hit_latency
        else:
            ppn = self.page_table.translate_vpn(vpn)
            self._entries[vpn] = ppn
            if len(self._entries) > self.params.entries:
                self._entries.popitem(last=False)
            self.stats.incr("misses")
            hit = False
            latency = self.params.miss_latency
        paddr = (ppn << self.page_table.page_shift) | \
            self.page_table.offset_of(vaddr)
        return TranslationResult(paddr=paddr, ppn=ppn, latency=latency,
                                 tlb_hit=hit)

    def flush(self) -> None:
        self._entries.clear()
