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
- **IQ**: no squashed residents.
- **Ready set**: exactly the DISPATCHED and BLOCKED residents whose
  issue operands are ready by the rename ready bits - what a scan of
  every resident would select from - in age order (squashed entries
  aside, which leave lazily).
- **LSQ**: no squashed residents, and every resident also lives in
  the ROB.
- **Rename**: free list and active mappings disjoint.
- **Defense wiring**: the processor honours the defense's flags.  Only
  a defense that tags suspects (it declares the matrix or overrides
  ``is_suspect``) marks an instruction suspect, and only a memory
  instruction.
- **Unresolved branches**: the core's record
  (``Processor.unresolved_branches``) lists exactly the ROB's
  unresolved branches, oldest first.

The issue and load/store queues keep their residents in age order
with no slots, free lists or backlinks, so there is no bookkeeping to
diverge; a blocked load is a state (``InstState.BLOCKED``), which only
the cache stage of an issued load sets.  The security matrix needs no
check of its own: its rows follow from producer age order and cannot
hold an issued producer past the cycle edge (see
:mod:`repro.core.security_matrix`).
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
    for inst in cpu.iq:
        if inst.squashed:
            _fail(cpu.cycle, f"squashed {inst!r} still resident in IQ")


def check_ready_set(cpu: "Processor") -> None:
    """The wakeup-maintained ready set must be what a scan of every
    resident would find: the DISPATCHED and BLOCKED residents whose
    issue operands are all ready."""
    ready_bits = cpu.rename.ready
    expected = [
        inst for inst in cpu.iq  # oldest first
        if (inst.state is InstState.DISPATCHED
            or inst.state is InstState.BLOCKED)
        and all(ready_bits[psrc]
                for psrc in inst.psrcs[:inst.instr.issue_operands])
    ]
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


def check_lsq(cpu: "Processor") -> None:
    lsq = cpu.lsq
    rob_residents = {id(inst) for inst in cpu.rob}
    for kind, residents in (("LDQ", lsq.loads()), ("STQ", lsq.stores())):
        for inst in residents:
            if inst.squashed:
                _fail(cpu.cycle, f"squashed {inst!r} resident in {kind}")
            if id(inst) not in rob_residents:
                _fail(cpu.cycle, f"{kind} resident {inst!r} missing "
                                 f"from the ROB")


def check_rename(cpu: "Processor") -> None:
    try:
        cpu.rename.check_free_list_integrity()
    except SimulationError as exc:
        _fail(cpu.cycle, f"rename: {exc}")


def check_unresolved_branches(cpu: "Processor") -> None:
    """The record the I-cache filter, the watchdog and the branch-age
    defenses read must be the ROB's unresolved branches in age
    order."""
    expected = [inst.seq for inst in cpu.rob
                if inst.instr.is_branch and not inst.resolved]
    actual = list(cpu.unresolved_branches)
    if actual != expected:
        _fail(cpu.cycle, f"unresolved branches {actual} but the ROB's "
                         f"are {expected}")


def check_processor_invariants(cpu: "Processor") -> None:
    """Run every structural invariant check (debug aid, O(structures))."""
    check_rob(cpu)
    check_issue_queue(cpu)
    check_ready_set(cpu)
    check_defense_wiring(cpu)
    check_lsq(cpu)
    check_rename(cpu)
    check_unresolved_branches(cpu)
