"""Register renaming: map table, free list and physical register file.

Recovery uses ROB walk-back: every renamed instruction remembers the
previous mapping of its destination, and a squash restores mappings
youngest-first.
"""
from __future__ import annotations

from collections import deque
from typing import Deque, List

from ..errors import SimulationError
from ..isa.instructions import mask64


class RenameState:
    """Architectural-to-physical register mapping plus the PRF."""

    def __init__(self, num_arch_regs: int, num_phys_regs: int) -> None:
        if num_phys_regs < num_arch_regs + 1:
            raise SimulationError("too few physical registers")
        self.num_arch_regs = num_arch_regs
        self.num_phys_regs = num_phys_regs
        # Initial mapping: arch i -> phys i.
        self._map: List[int] = list(range(num_arch_regs))
        self._free: Deque[int] = deque(range(num_arch_regs, num_phys_regs))
        self.values: List[int] = [0] * num_phys_regs
        self.ready: List[bool] = [True] * num_phys_regs

    # ---- dispatch-side ----------------------------------------------------

    def lookup(self, arch_reg: int) -> int:
        """Current physical register for an architectural source."""
        return self._map[arch_reg]

    def can_allocate(self) -> bool:
        return bool(self._free)

    def allocate(self, arch_reg: int) -> tuple[int, int]:
        """Rename a destination; returns (new_phys, old_phys)."""
        if not self._free:
            raise SimulationError("physical register file exhausted")
        new_phys = self._free.popleft()
        old_phys = self._map[arch_reg]
        self._map[arch_reg] = new_phys
        self.ready[new_phys] = False
        return new_phys, old_phys

    # ---- execution-side ---------------------------------------------------

    def write(self, phys_reg: int, value: int) -> None:
        """Produce a result: value becomes visible to consumers."""
        self.values[phys_reg] = mask64(value)
        self.ready[phys_reg] = True

    def read(self, phys_reg: int) -> int:
        return self.values[phys_reg]

    def is_ready(self, phys_reg: int) -> bool:
        return self.ready[phys_reg]

    # ---- commit / squash ----------------------------------------------------

    def release(self, phys_reg: int) -> None:
        """Free a dead physical register (the *old* mapping, at commit)."""
        self._free.append(phys_reg)

    def rollback(self, arch_reg: int, new_phys: int, old_phys: int) -> None:
        """Undo one rename during a squash walk (youngest first)."""
        if self._map[arch_reg] != new_phys:
            raise SimulationError(
                "rename rollback out of order: map inconsistent"
            )
        self._map[arch_reg] = old_phys
        self._free.append(new_phys)

    # ---- introspection ----------------------------------------------------------

    def architectural_value(self, arch_reg: int) -> int:
        """Value of an architectural register through the current map
        (only meaningful when the pipeline is drained)."""
        return self.values[self._map[arch_reg]]

    def mapping_snapshot(self) -> List[int]:
        return list(self._map)

    def check_free_list_integrity(self) -> None:
        """Invariant: free list and mapped registers are disjoint and
        every physical register is accounted for at most once."""
        seen = set(self._free)
        if len(seen) != len(self._free):
            raise SimulationError("duplicate entries in free list")
        overlap = seen.intersection(self._map)
        if overlap:
            raise SimulationError(f"freed registers still mapped: {overlap}")
