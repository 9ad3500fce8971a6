"""Memory-system substrate: caches, replacement policies, TLB, hierarchy.

Caches are physically indexed and tagged; the hierarchy is inclusive
with back-invalidation so eviction-set attacks (Prime+Probe) behave the
way the paper's threat model assumes.
"""
from .replacement import SpeculativeLRUPolicy
from .cache import CacheAccess, SetAssociativeCache
from .tlb import PageTable, TLB, TranslationResult
from .hierarchy import AccessResult, MemoryHierarchy

__all__ = [
    "SpeculativeLRUPolicy",
    "CacheAccess",
    "SetAssociativeCache",
    "PageTable",
    "TLB",
    "TranslationResult",
    "AccessResult",
    "MemoryHierarchy",
]
