"""The configuration of the defense.

A :class:`SecurityConfig` names the active defense by its
:mod:`repro.core.defense` registry key.  The paper's four evaluation
configurations (Section VI.A, ``PAPER_DEFENSES``) are registry entries
like any other:

- ``origin`` - unprotected out-of-order baseline.
- ``baseline`` - every security-dependent memory access is unsafe: it
  may not issue until its security-dependence row clears.
- ``cache_hit`` - suspect accesses issue; L1D hits proceed, L1D misses
  are discarded and re-issued once the dependence clears.
- ``cache_hit_tpbuf`` - as above, but a suspect L1D miss that does not
  match the S-Pattern (per TPBuf) proceeds as a normal miss.
"""
from __future__ import annotations

from dataclasses import dataclass

from ..memory.replacement import SpeculativeLRUPolicy
from .defense import normalize_defense_name


@dataclass(frozen=True)
class SecurityConfig:
    """All knobs of the Conditional Speculation mechanism.

    The defense is referenced *by name* so configs stay picklable for
    spawn-based parallel executors.  Any registered name or alias is
    accepted and normalized to the canonical registry name at
    construction; an unknown name raises
    :class:`~repro.errors.DefenseConfigError` here.
    """

    #: Registry name of the active defense (``repro.core.defense``).
    mode: str = "origin"
    #: LRU-metadata policy for speculative L1D hits (Section VII.A).
    lru_policy: SpeculativeLRUPolicy = SpeculativeLRUPolicy.NORMAL
    #: Ablation (Section VI.C(1)): only branch instructions act as
    #: security-dependence producers (no memory-memory edges).
    branch_only_matrix: bool = False
    #: Section VII.B extension: stall unsafe NPC fetches that miss L1I.
    icache_filter: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "mode", normalize_defense_name(self.mode))

    @property
    def defense_name(self) -> str:
        """Canonical name of the active defense (same as :attr:`mode`)."""
        return self.mode

    @staticmethod
    def origin() -> "SecurityConfig":
        return SecurityConfig("origin")

    @staticmethod
    def baseline() -> "SecurityConfig":
        return SecurityConfig("baseline")

    @staticmethod
    def cache_hit() -> "SecurityConfig":
        return SecurityConfig("cache_hit")

    @staticmethod
    def cache_hit_tpbuf() -> "SecurityConfig":
        return SecurityConfig("cache_hit_tpbuf")
