"""Pipeline invariant lint: structural consistency checks.

:func:`check_processor_invariants` walks the processor's structures and
raises :class:`InvariantViolation` on the first inconsistency.  It is
wired into :meth:`Processor.step` behind the ``check_invariants``
debug flag, where it runs after the end-of-cycle matrix clears — the
point where every staged update has landed and the invariants below
must hold unconditionally.

Checked invariants:

- **ROB**: occupancy within capacity and equal to its free-entry
  count, sequence numbers strictly increasing head-to-tail, no
  squashed residents.
- **IQ**: free list consistent with slot contents, every resident's
  ``iq_pos`` backlink correct, occupancy bookkeeping exact.
- **Ready set**: exactly the DISPATCHED residents whose issue operands
  are ready by the rename ready bits - what a scan of every slot
  would select from - in age order (squashed entries aside, which
  leave lazily).
- **LSQ**: occupancy bookkeeping exact, backlinks correct, and every
  resident also lives in the ROB.
- **Rename**: free list and active mappings disjoint.
- **Defense wiring**: the processor honours the defense's flags.  Only
  a defense that tags suspects (it declares the matrix or overrides
  ``is_suspect``) marks an instruction suspect; a blocked instruction
  is always an un-issued memory resident.

The security matrix needs no check of its own: its rows follow from
producer age order and cannot hold an issued producer past the cycle
edge (see :mod:`repro.core.security_matrix`).
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
    if rob.space != rob.capacity - len(rob):
        _fail(cpu.cycle, f"ROB space {rob.space} but {len(rob)} of "
                         f"{rob.capacity} entries are occupied")
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


def check_ready_set(cpu: "Processor") -> None:
    """The wakeup-maintained ready set must be what a scan of every
    slot would find: the DISPATCHED residents whose issue operands are
    all ready."""
    ready_bits = cpu.rename.ready
    expected = [
        inst for inst in cpu.iq
        if inst.state is InstState.DISPATCHED
        and all(ready_bits[psrc]
                for psrc in inst.psrcs[:inst.instr.issue_operands])
    ]
    expected.sort(key=lambda inst: inst.seq)
    actual = [inst for inst in cpu.iq.ready if not inst.squashed]
    if actual != expected:
        _fail(cpu.cycle, f"ready set {[inst.seq for inst in actual]} but "
                         f"the ready residents are "
                         f"{[inst.seq for inst in expected]}")


def check_defense_wiring(cpu: "Processor") -> None:
    """The defense's derived wiring bounds what may appear in
    flight."""
    defense = cpu.defense
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
    check_ready_set(cpu)
    check_defense_wiring(cpu)
    check_lsq(cpu)
    check_rename(cpu)
