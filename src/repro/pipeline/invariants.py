"""Pipeline invariant lint: structural consistency checks.

:func:`check_processor_invariants` walks the processor's structures and
raises :class:`InvariantViolation` on the first inconsistency.  It is
wired into :meth:`Processor.step` behind the ``check_invariants``
debug flag, where it runs after the end-of-cycle matrix clears — the
point where every staged update has landed and the invariants below
must hold unconditionally.

Checked invariants:

- **ROB**: occupancy within capacity, sequence numbers strictly
  increasing head-to-tail, no squashed residents.
- **IQ**: free list consistent with slot contents, every resident's
  ``iq_pos`` backlink correct, occupancy bookkeeping exact.
- **Security matrix**: a column may only be non-zero while its slot
  holds a valid, not-yet-issued producer (or the clear is still
  staged / the slot's free-up is still deferred) — i.e. rows are
  cleared for issued producers, the paper's Update-Vector contract.
- **LSQ**: occupancy bookkeeping exact, backlinks correct, and every
  resident also lives in the ROB.
- **Rename**: free list and active mappings disjoint.
- **Defense wiring**: the processor honours the defense's flags.  A
  defense that declares no security matrix never accumulates
  dependence rows; only a defense that tags suspects (it declares the
  matrix or overrides ``is_suspect``) marks an instruction suspect;
  a blocked instruction is always an un-issued memory resident.
"""
from __future__ import annotations

from typing import TYPE_CHECKING

from ..errors import SimulationError
from .dyninst import InstState

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .processor import Processor


class InvariantViolation(SimulationError):
    """A pipeline structure broke one of its invariants."""


def _fail(cycle: int, message: str) -> None:
    raise InvariantViolation(f"cycle {cycle}: {message}")


def check_rob(cpu: "Processor") -> None:
    rob = cpu.rob
    if len(rob) > rob.capacity:
        _fail(cpu.cycle, f"ROB occupancy {len(rob)} exceeds capacity "
                         f"{rob.capacity}")
    last_seq = None
    for inst in rob:
        if inst.squashed:
            _fail(cpu.cycle, f"squashed {inst!r} still resident in ROB")
        if last_seq is not None and inst.seq <= last_seq:
            _fail(cpu.cycle, f"ROB order violation at {inst!r}: "
                             f"seq {inst.seq} after {last_seq}")
        last_seq = inst.seq


def check_issue_queue(cpu: "Processor") -> None:
    iq = cpu.iq
    free = set(iq._free)
    if len(free) != len(iq._free):
        _fail(cpu.cycle, "duplicate slots in IQ free list")
    occupied = 0
    for pos, inst in enumerate(iq._slots):
        if inst is None:
            continue
        occupied += 1
        if pos in free:
            _fail(cpu.cycle, f"IQ slot {pos} is both free and occupied")
        if inst.iq_pos != pos:
            _fail(cpu.cycle, f"IQ backlink broken: slot {pos} holds "
                             f"{inst!r} with iq_pos={inst.iq_pos}")
        if inst.squashed:
            _fail(cpu.cycle, f"squashed {inst!r} still resident in IQ")
    if iq.occupancy() != occupied:
        _fail(cpu.cycle, f"IQ occupancy() = {iq.occupancy()} but "
                         f"{occupied} slots are populated")


def check_security_matrix(cpu: "Processor") -> None:
    """Rows must not reference retired/issued producers: once the
    producer at column Y has issued (and its staged clear applied), no
    row may still depend on Y."""
    iq = cpu.iq
    matrix = iq.matrix
    staged = matrix._update_vector
    deferred = set(iq._deferred_free)
    for pos in range(iq.entries):
        column = matrix.column_mask(pos)
        if not column:
            continue
        if staged & (1 << pos) or pos in deferred:
            continue  # clear already staged; lands at the cycle edge
        producer = iq.slot(pos)
        if producer is None:
            _fail(cpu.cycle, f"matrix column {pos} set (rows "
                             f"{column:#x}) but the slot is empty and "
                             f"no clear is staged")
        if iq.is_issued(pos) and not cpu.security.clear_on_resolve:
            _fail(cpu.cycle, f"matrix column {pos} set for issued "
                             f"producer {producer!r}")


def check_defense_wiring(cpu: "Processor") -> None:
    """The defense's declared hardware and derived wiring bound what
    may appear in flight."""
    defense = cpu.defense
    if not defense.uses_matrix:
        for pos in range(cpu.iq.entries):
            if cpu.iq.matrix.column_mask(pos):
                _fail(cpu.cycle,
                      f"defense '{defense.name}' declares no matrix "
                      f"but column {pos} holds dependence rows")
    for inst in cpu.rob:
        if inst.suspect and not defense.tags_suspect:
            _fail(cpu.cycle,
                  f"defense '{defense.name}' does not tag suspects "
                  f"but {inst!r} is marked suspect")
        if inst.suspect and not inst.instr.is_memory:
            _fail(cpu.cycle, f"non-memory {inst!r} marked suspect")
        if inst.blocked:
            if not inst.instr.is_memory:
                _fail(cpu.cycle, f"non-memory {inst!r} is blocked")
            if inst.state is not InstState.DISPATCHED:
                _fail(cpu.cycle,
                      f"blocked {inst!r} is not waiting in DISPATCHED")


def check_lsq(cpu: "Processor") -> None:
    lsq = cpu.lsq
    rob_residents = {id(inst) for inst in cpu.rob}
    for kind, slots in (("LDQ", lsq._loads), ("STQ", lsq._stores)):
        for pos, inst in enumerate(slots):
            if inst is None:
                continue
            if inst.lsq_slot != pos:
                _fail(cpu.cycle, f"{kind} backlink broken at slot {pos}: "
                                 f"{inst!r}")
            if inst.squashed:
                _fail(cpu.cycle, f"squashed {inst!r} resident in {kind}")
            if id(inst) not in rob_residents:
                _fail(cpu.cycle, f"{kind} resident {inst!r} missing "
                                 f"from the ROB")
    if lsq.load_occupancy() != sum(
        1 for inst in lsq._loads if inst is not None
    ):
        _fail(cpu.cycle, "LDQ occupancy bookkeeping diverged")
    if lsq.store_occupancy() != sum(
        1 for inst in lsq._stores if inst is not None
    ):
        _fail(cpu.cycle, "STQ occupancy bookkeeping diverged")


def check_rename(cpu: "Processor") -> None:
    try:
        cpu.rename.check_free_list_integrity()
    except SimulationError as exc:
        _fail(cpu.cycle, f"rename: {exc}")


def check_processor_invariants(cpu: "Processor") -> None:
    """Run every structural invariant check (debug aid, O(structures))."""
    check_rob(cpu)
    check_issue_queue(cpu)
    check_security_matrix(cpu)
    check_defense_wiring(cpu)
    check_lsq(cpu)
    check_rename(cpu)
