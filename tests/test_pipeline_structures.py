"""Unit tests for rename, ROB, issue queue, LSQ, store buffer and the
event queue."""
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.tpbuf import TPBuf
from repro.errors import SimulationError
from repro.isa.instructions import Instruction, Opcode
from repro.memory.hierarchy import MemoryHierarchy
from repro.params import tiny_config
from repro.pipeline.dyninst import DynInst, InstState
from repro.pipeline.events import EventQueue
from repro.pipeline.issue_queue import IssueQueue
from repro.pipeline.lsq import LoadStoreQueue
from repro.pipeline.rename import RenameState
from repro.pipeline.rob import ReorderBuffer
from repro.pipeline.store_buffer import StoreBuffer


def dyninst(seq, op=Opcode.ADD, **kwargs):
    return DynInst(seq, 0x1000 + 4 * seq, Instruction(op, **kwargs))


#: Ready bits of a register file whose every register is ready.
ALL_READY = [True] * 16


class TestRename:
    def test_initial_identity_mapping(self):
        rename = RenameState(8, 24)
        assert [rename.lookup(i) for i in range(8)] == list(range(8))

    def test_allocate_and_write(self):
        rename = RenameState(8, 24)
        new, old = rename.allocate(3)
        assert old == 3 and new >= 8
        assert not rename.is_ready(new)
        rename.write(new, 42)
        assert rename.is_ready(new)
        assert rename.architectural_value(3) == 42

    def test_rollback_restores_mapping(self):
        rename = RenameState(8, 24)
        new, old = rename.allocate(3)
        rename.rollback(3, new, old)
        assert rename.lookup(3) == old

    def test_rollback_out_of_order_detected(self):
        rename = RenameState(8, 24)
        new1, old1 = rename.allocate(3)
        rename.allocate(3)
        with pytest.raises(SimulationError):
            rename.rollback(3, new1, old1)   # must roll back youngest first

    def test_exhaustion(self):
        rename = RenameState(8, 10)
        rename.allocate(1)
        rename.allocate(2)
        assert not rename.space
        with pytest.raises(SimulationError):
            rename.allocate(3)

    def test_release_recycles(self):
        rename = RenameState(8, 9)
        new, old = rename.allocate(1)
        rename.release(old)    # commit frees the previous mapping
        assert rename.space == 1

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.integers(1, 7), min_size=1, max_size=10))
    def test_allocate_rollback_is_identity(self, regs):
        rename = RenameState(8, 40)
        baseline = rename.mapping_snapshot()
        history = [(reg, *rename.allocate(reg)) for reg in regs]
        for reg, new, old in reversed(history):
            rename.rollback(reg, new, old)
        assert rename.mapping_snapshot() == baseline
        rename.check_free_list_integrity()


class TestROB:
    def test_fifo_order(self):
        rob = ReorderBuffer(4)
        a, b = dyninst(1), dyninst(2)
        rob.append(a)
        rob.append(b)
        assert rob.head() is a
        assert rob.pop_head() is a
        assert rob.head() is b

    def test_full_and_empty(self):
        rob = ReorderBuffer(2)
        assert rob.empty
        rob.append(dyninst(1))
        assert rob.space == 1
        rob.append(dyninst(2))
        assert not rob.space

    def test_squash_younger_than_returns_youngest_first(self):
        rob = ReorderBuffer(8)
        insts = [dyninst(i) for i in range(1, 6)]
        for inst in insts:
            rob.append(inst)
        squashed = rob.squash_younger_than(2)
        assert [i.seq for i in squashed] == [5, 4, 3]
        assert len(rob) == 2
        assert rob.space == 6

    def test_is_head(self):
        rob = ReorderBuffer(4)
        a = dyninst(1)
        rob.append(a)
        assert rob.is_head(a)
        assert not rob.is_head(dyninst(2))


class TestIssueQueue:
    def test_insert_assigns_slot(self):
        """An inserted instruction is a resident; the queue holds its
        residents oldest first, with no slot numbers."""
        iq = IssueQueue(4)
        older = dyninst(1, Opcode.LOAD, rd=1, rs1=2)
        younger = dyninst(2, Opcode.ADD, rd=1, rs1=2, rs2=3)
        assert iq.insert(older, ALL_READY) is None
        iq.insert(younger, ALL_READY)
        assert list(iq) == [older, younger]
        assert iq.occupancy() == 2
        assert iq.space == 2

    def test_producer_mask_tracks_unissued_mem_and_branches(self):
        iq = IssueQueue(8)
        load = dyninst(1, Opcode.LOAD, rd=1, rs1=2)
        branch = dyninst(2, Opcode.BNE, rs1=1, rs2=2)
        alu = dyninst(3, Opcode.ADD, rd=1, rs1=2, rs2=3)
        consumer = dyninst(4, Opcode.LOAD, rd=1, rs1=2)
        for inst in (load, branch, alu, consumer):
            iq.insert(inst, ALL_READY)
        assert iq.matrix.row(consumer) == [load.seq, branch.seq]

    def test_branch_only_mask(self):
        iq = IssueQueue(8, branch_only=True)
        load = dyninst(1, Opcode.LOAD, rd=1, rs1=2)
        branch = dyninst(2, Opcode.BNE, rs1=1, rs2=2)
        consumer = dyninst(3, Opcode.LOAD, rd=1, rs1=2)
        for inst in (load, branch, consumer):
            iq.insert(inst, ALL_READY)
        assert iq.matrix.row(consumer) == [branch.seq]

    def test_issued_producer_leaves_mask(self):
        """A memory instruction dispatched after a producer issued -
        even in the same cycle - does not depend on it."""
        iq = IssueQueue(8)
        branch = dyninst(1, Opcode.BNE, rs1=1, rs2=2)
        iq.insert(branch, ALL_READY)
        iq.mark_issued(branch)
        load = dyninst(2, Opcode.LOAD, rd=1, rs1=2)
        iq.insert(load, ALL_READY)
        assert iq.matrix.row(load) == []
        assert not iq.matrix.has_dependence(load)

    def test_memory_consumer_gets_row(self):
        iq = IssueQueue(8)
        branch = dyninst(1, Opcode.BNE, rs1=1, rs2=2)
        iq.insert(branch, ALL_READY)
        load = dyninst(2, Opcode.LOAD, rd=1, rs1=2)
        iq.insert(load, ALL_READY)
        assert iq.matrix.has_dependence(load)
        assert iq.matrix.row(load) == [branch.seq]

    def test_non_memory_consumer_gets_empty_row(self):
        iq = IssueQueue(8)
        branch = dyninst(1, Opcode.BNE, rs1=1, rs2=2)
        iq.insert(branch, ALL_READY)
        alu = dyninst(2, Opcode.ADD, rd=1, rs1=2, rs2=3)
        iq.insert(alu, ALL_READY)
        assert not iq.matrix.has_dependence(alu)
        assert iq.matrix.row(alu) == []

    def test_dependence_clears_next_cycle_after_producer_issue(self):
        iq = IssueQueue(8)
        branch = dyninst(1, Opcode.BNE, rs1=1, rs2=2)
        iq.insert(branch, ALL_READY)
        load = dyninst(2, Opcode.LOAD, rd=1, rs1=2)
        iq.insert(load, ALL_READY)
        iq.mark_issued(branch)
        assert iq.matrix.has_dependence(load)   # same cycle: suspect
        iq.end_cycle()
        assert not iq.matrix.has_dependence(load)

    def test_load_keeps_slot_at_issue(self):
        iq = IssueQueue(8)
        load = dyninst(1, Opcode.LOAD, rd=1, rs1=2)
        iq.insert(load, ALL_READY)
        iq.mark_issued(load)
        assert list(iq) == [load]
        iq.release(load)
        iq.end_cycle()
        assert iq.occupancy() == 0
        iq.release(load)         # holds no entry: nothing happens
        assert iq.space == 8

    def test_slot_not_reusable_until_end_cycle(self):
        iq = IssueQueue(1)
        branch = dyninst(1, Opcode.BNE, rs1=1, rs2=2)
        iq.insert(branch, ALL_READY)
        iq.mark_issued(branch)   # releases (non-load) ...
        assert not iq.space      # ... but the entry recycles at end_cycle
        assert iq.occupancy() == 0
        iq.end_cycle()
        assert iq.space == 1

    def test_wakeup_fills_the_ready_set_in_age_order(self):
        """A resident joins the ready set when its last issue operand
        is written back; the set stays oldest first."""
        iq = IssueQueue(8)
        ready = [True] * 8
        ready[5] = ready[6] = False
        older = dyninst(1, Opcode.ADD, rd=1, rs1=2, rs2=3)
        older.psrcs = (5, 6)
        younger = dyninst(2, Opcode.ADD, rd=1, rs1=2, rs2=3)
        younger.psrcs = (1, 2)
        iq.insert(older, ready)
        iq.insert(younger, ready)
        assert iq.ready == [younger]
        iq.wake(5)
        assert iq.ready == [younger]
        iq.wake(6)
        assert iq.ready == [older, younger]

    def test_store_waits_on_its_address_operand_only(self):
        iq = IssueQueue(8)
        ready = [True] * 8
        ready[4] = False
        store = dyninst(1, Opcode.STORE, rs1=1, rs2=2)
        store.psrcs = (3, 4)        # address ready, data not yet
        iq.insert(store, ready)
        assert iq.ready == [store]

    def test_squashed_waiter_is_skipped(self):
        iq = IssueQueue(8)
        ready = [True] * 8
        ready[5] = False
        inst = dyninst(1, Opcode.ADD, rd=1, rs1=2, rs2=3)
        inst.psrcs = (5, 1)
        iq.insert(inst, ready)
        inst.squashed = True
        iq.release(inst)
        iq.wake(5)
        assert iq.ready == []


class TestLSQ:
    def _lsq(self):
        return LoadStoreQueue(4, 4)

    def _load(self, seq, vaddr=None):
        inst = dyninst(seq, Opcode.LOAD, rd=1, rs1=2)
        if vaddr is not None:
            inst.vaddr = vaddr
            inst.addr_ready = True
        return inst

    def _store(self, seq, vaddr=None, data_ready=False):
        inst = dyninst(seq, Opcode.STORE, rs1=1, rs2=2)
        if vaddr is not None:
            inst.vaddr = vaddr
            inst.addr_ready = True
        inst.store_data_ready = data_ready
        inst.value = 99
        return inst

    def test_allocation_capacity(self):
        lsq = self._lsq()
        for seq in range(4):
            lsq.allocate_load(self._load(seq))
        assert not lsq.load_space
        assert lsq.store_space == 4

    def test_release_recycles_slot(self):
        lsq = self._lsq()
        load = self._load(1)
        lsq.allocate_load(load)
        lsq.release(load)
        assert lsq.load_occupancy() == 0
        assert lsq.load_space == 4
        lsq.release(load)        # holds no entry: nothing happens
        assert lsq.load_space == 4

    def test_forward_from_youngest_matching_store(self):
        lsq = self._lsq()
        s1 = self._store(1, vaddr=0x100, data_ready=True)
        s2 = self._store(2, vaddr=0x100, data_ready=True)
        load = self._load(3, vaddr=0x100)
        for inst in (s1, s2, load):
            if inst.instr.is_store:
                lsq.allocate_store(inst)
            else:
                lsq.allocate_load(inst)
        decision = lsq.check_load(load)
        assert decision.source is s2
        assert not decision.speculation_hazard

    def test_unknown_address_store_is_a_hazard(self):
        lsq = self._lsq()
        store = self._store(1)                    # address unknown
        load = self._load(2, vaddr=0x100)
        lsq.allocate_store(store)
        lsq.allocate_load(load)
        decision = lsq.check_load(load)
        assert decision.speculation_hazard
        assert decision.source is None

    def test_known_younger_source_dominates_older_unknown(self):
        lsq = self._lsq()
        unknown = self._store(1)
        known = self._store(2, vaddr=0x100, data_ready=True)
        load = self._load(3, vaddr=0x100)
        lsq.allocate_store(unknown)
        lsq.allocate_store(known)
        lsq.allocate_load(load)
        decision = lsq.check_load(load)
        assert decision.source is known
        assert not decision.speculation_hazard

    def test_different_word_does_not_forward(self):
        lsq = self._lsq()
        store = self._store(1, vaddr=0x108, data_ready=True)
        load = self._load(2, vaddr=0x100)
        lsq.allocate_store(store)
        lsq.allocate_load(load)
        assert lsq.check_load(load).source is None

    def test_violating_loads_detected(self):
        lsq = self._lsq()
        store = self._store(1, vaddr=0x100)
        load = self._load(2, vaddr=0x100)
        load.speculated_past_store = True
        lsq.allocate_store(store)
        lsq.allocate_load(load)
        assert lsq.violating_loads(store) == [load]

    def test_load_forwarded_from_younger_store_does_not_violate(self):
        lsq = self._lsq()
        old_store = self._store(1, vaddr=0x100)
        young_store = self._store(2, vaddr=0x100, data_ready=True)
        load = self._load(3, vaddr=0x100)
        load.speculated_past_store = True
        load.forward_seq = 2
        lsq.allocate_store(old_store)
        lsq.allocate_store(young_store)
        lsq.allocate_load(load)
        assert lsq.violating_loads(old_store) == []

    def test_younger_stores_are_not_searched(self):
        """The searches stop at the first store that is not older."""
        lsq = self._lsq()
        load = self._load(1, vaddr=0x100)
        unknown = self._store(2)
        match = self._store(3, vaddr=0x100, data_ready=True)
        lsq.allocate_load(load)
        lsq.allocate_store(unknown)
        lsq.allocate_store(match)
        decision = lsq.check_load(load)
        assert decision.source is None
        assert not decision.speculation_hazard
        assert not lsq.unresolved_store_older_than(load.seq)
        assert lsq.unresolved_store_older_than(match.seq)

    def test_violating_loads_in_age_order(self):
        lsq = self._lsq()
        store = self._store(1, vaddr=0x100)
        lsq.allocate_store(store)
        loads = [self._load(seq, vaddr=0x100) for seq in (2, 3, 4)]
        for load in loads:
            load.speculated_past_store = True
            lsq.allocate_load(load)
        assert lsq.violating_loads(store) == loads

    def test_tpbuf_mirrors_lsq_lifecycle(self):
        """The TPBuf pairs one entry with each LSQ allocation, and its
        Mask follows the LSQ residents: a released one stops counting."""
        lsq = self._lsq()
        load = self._load(1)
        load.ppn, load.suspect = 0x100, True
        load.state = InstState.COMPLETED
        store = self._store(2)
        lsq.allocate_load(load)
        lsq.allocate_store(store)
        assert lsq.allocations == 2
        assert list(lsq.loads()) == [load]
        assert list(lsq.stores()) == [store]
        incoming = self._load(3)
        incoming.ppn = 0x200
        lsq.allocate_load(incoming)
        tpbuf = TPBuf()
        assert not tpbuf.is_safe(incoming, lsq)
        lsq.release(load)
        assert tpbuf.is_safe(incoming, lsq)
        assert lsq.allocations == 3


class TestStoreBufferAndEvents:
    def test_store_buffer_drains_in_background(self):
        hierarchy = MemoryHierarchy(tiny_config().memory)
        buffer = StoreBuffer(2, hierarchy)
        buffer.push(0x1000)
        assert len(buffer) == 1
        cycle = 0
        while len(buffer) and cycle < 1000:
            cycle += 1
            buffer.tick(cycle)
        assert len(buffer) == 0
        assert hierarchy.l1d.contains(0x1000)

    def test_store_buffer_full(self):
        hierarchy = MemoryHierarchy(tiny_config().memory)
        buffer = StoreBuffer(1, hierarchy)
        buffer.push(0x1000)
        assert buffer.full

    def test_event_queue_fires_in_cycle_order(self):
        events = EventQueue()
        fired = []
        events.schedule(5, lambda: fired.append("a"))
        events.schedule(3, lambda: fired.append("b"))
        for cycle in range(1, 7):
            events.fire(cycle)
        assert fired == ["b", "a"]
        assert events.pending == 0
