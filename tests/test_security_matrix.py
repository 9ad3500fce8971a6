"""Tests for the security dependence matrix (Section V.B semantics)."""
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core.security_matrix import SecurityDependenceMatrix
from repro.isa.instructions import Instruction, Opcode
from repro.pipeline.dyninst import DynInst, InstState
from repro.pipeline.issue_queue import IssueQueue

_OPS = {"alu": Opcode.ADD, "branch": Opcode.BNE, "load": Opcode.LOAD,
        "store": Opcode.STORE, "flush": Opcode.CLFLUSH}
BRANCH = Instruction(Opcode.BNE, rs1=1, rs2=2)
LOAD = Instruction(Opcode.LOAD, rd=1, rs1=2)
ALU = Instruction(Opcode.ADD, rd=1, rs1=2, rs2=3)


def _install(matrix, *instrs):
    """Install one instruction per entry, in program order (sequence
    numbers 1, 2, ...); returns them."""
    insts = [DynInst(seq, 0x1000 + 4 * seq, instr)
             for seq, instr in enumerate(instrs, start=1)]
    for inst in insts:
        matrix.install(inst)
    return insts


class TestRowInstallation:
    def test_row_or_reflects_producers(self):
        matrix = SecurityDependenceMatrix()
        _, _, load = _install(matrix, BRANCH, LOAD, LOAD)
        assert matrix.has_dependence(load)
        assert matrix.row(load) == [1, 2]

    def test_empty_row_has_no_dependence(self):
        matrix = SecurityDependenceMatrix()
        load, = _install(matrix, LOAD)
        assert not matrix.has_dependence(load)
        assert matrix.row(load) == []

    def test_self_bit_is_masked(self):
        """A memory instruction is a producer, but never in its own
        row."""
        matrix = SecurityDependenceMatrix()
        first, second = _install(matrix, LOAD, LOAD)
        assert matrix.row(first) == []
        assert not matrix.has_dependence(first)
        assert matrix.row(second) == [1]


class TestClearance:
    def test_scheduled_clear_applies_at_cycle_boundary(self):
        """The Update Vector Register semantics: a producer's column
        stays visible until apply_clears - the same-cycle consumer is
        still tagged suspect."""
        matrix = SecurityDependenceMatrix()
        branch, load = _install(matrix, BRANCH, LOAD)
        matrix.schedule_clear(branch)
        assert matrix.has_dependence(load)     # same cycle: still set
        assert matrix.row(load) == [1]
        matrix.apply_clears()
        assert not matrix.has_dependence(load)
        assert matrix.row(load) == []

    def test_clear_affects_whole_column(self):
        matrix = SecurityDependenceMatrix()
        branch, first, second = _install(matrix, BRANCH, LOAD, LOAD)
        matrix.schedule_clear(branch)
        matrix.apply_clears()
        assert not matrix.has_dependence(first)
        assert matrix.row(second) == [2]   # the first load still produces

    def test_clear_leaves_other_columns(self):
        matrix = SecurityDependenceMatrix()
        branch, _, load = _install(matrix, BRANCH, BRANCH, LOAD)
        matrix.schedule_clear(branch)
        matrix.apply_clears()
        assert matrix.has_dependence(load)     # still depends on seq 2
        assert matrix.row(load) == [2]

    def test_clear_entry_removes_row_and_column(self):
        """An instruction leaving the queue (a squash) clears its column
        at the cycle edge, and an instruction installed later starts
        from its own row."""
        matrix = SecurityDependenceMatrix()
        _, squashed, load = _install(matrix, BRANCH, LOAD, LOAD)
        assert matrix.row(squashed) == [1]
        assert matrix.row(load) == [1, 2]
        matrix.schedule_clear(squashed)
        matrix.apply_clears()
        assert matrix.row(load) == [1]
        alu = DynInst(4, 0x1010, ALU)
        matrix.install(alu)
        assert matrix.row(alu) == []
        assert not matrix.has_dependence(alu)

    def test_clear_entry_cancels_pending_update(self):
        """Staging one column twice in a cycle (issue, then release)
        clears it once."""
        matrix = SecurityDependenceMatrix()
        branch, load = _install(matrix, BRANCH, LOAD)
        matrix.schedule_clear(branch)
        matrix.schedule_clear(branch)
        assert matrix.apply_clears()
        assert not matrix.has_dependence(load)
        assert matrix.stats.get("columns_cleared") == 1
        assert not matrix.apply_clears()    # nothing left staged

    def test_a_producer_is_staged_once(self):
        """A load producer is staged at issue and again when it leaves
        the queue.  The second stage keeps the first one's cut in the
        same cycle, and touches no other producer after the edge."""
        matrix = SecurityDependenceMatrix()
        producer, before = _install(matrix, LOAD, LOAD)
        matrix.schedule_clear(producer)             # issue
        after = DynInst(3, 0x100c, LOAD)
        matrix.install(after)
        matrix.schedule_clear(producer)             # release, same cycle
        assert matrix.row(before) == [1]
        assert matrix.row(after) == [2]
        matrix.apply_clears()
        branch = DynInst(4, 0x1010, BRANCH)
        matrix.install(branch)
        late = DynInst(5, 0x1014, LOAD)
        matrix.install(late)
        matrix.schedule_clear(producer)             # release after the edge
        matrix.apply_clears()
        assert matrix.row(late) == [2, 3, 4]
        assert matrix.stats.get("columns_cleared") == 2

    def test_reset(self):
        """Once every producer's column is cleared the matrix is back
        to its empty state: a new memory instruction gets an empty
        row."""
        matrix = SecurityDependenceMatrix()
        branch, load = _install(matrix, BRANCH, LOAD)
        matrix.schedule_clear(branch)
        matrix.schedule_clear(load)
        matrix.apply_clears()
        late = DynInst(3, 0x100c, LOAD)
        matrix.install(late)
        assert matrix.row(late) == []
        assert matrix.stats.as_dict() == {
            "rows_installed_zero": 2,       # the branch and the last load
            "rows_installed_nonzero": 1,    # the first load
            "columns_cleared": 2,
        }


class TestColumnMask:
    def test_column_mask(self):
        matrix = SecurityDependenceMatrix()
        insts = _install(matrix, BRANCH, LOAD, LOAD)
        column = {inst.seq for inst in insts if 1 in matrix.row(inst)}
        assert column == {2, 3}


_KINDS = st.sampled_from(sorted(_OPS))


class TestMatrixProperties:
    @settings(max_examples=50, deadline=None)
    @given(st.lists(_KINDS, min_size=1, max_size=16))
    def test_clearing_every_column_empties_all_rows(self, kinds):
        matrix = SecurityDependenceMatrix()
        insts = _install(matrix, *(Instruction(_OPS[kind])
                                   for kind in kinds))
        for inst in insts:
            matrix.schedule_clear(inst)
        matrix.apply_clears()
        for inst in insts:
            assert not matrix.has_dependence(inst)
            assert matrix.row(inst) == []

    @settings(max_examples=50, deadline=None)
    @given(st.lists(_KINDS, min_size=1, max_size=16))
    def test_dependence_matches_column_membership(self, kinds):
        """With nothing issued, row X holds exactly the older memory
        and branch instructions, oldest first, and only when X is a
        memory one."""
        matrix = SecurityDependenceMatrix()
        insts = _install(matrix, *(Instruction(_OPS[kind])
                                   for kind in kinds))
        for inst in insts:
            expected = []
            if inst.instr.is_memory:
                expected = [other.seq for other in insts
                            if other.seq < inst.seq
                            and (other.instr.is_memory
                                 or other.instr.is_branch)]
            assert matrix.row(inst) == expected
            assert matrix.has_dependence(inst) == bool(expected)


# ---------------------------------------------------------------------------
# Age-ordered rows against the paper's formula, through the issue queue
# ---------------------------------------------------------------------------

_IQ_ENTRIES = 6

_STEPS = st.lists(st.one_of(
    st.tuples(st.just("dispatch"), _KINDS,
              st.lists(st.integers(0, 2), min_size=2, max_size=2)),
    st.tuples(st.just("issue"), st.integers(0, 7)),
    st.tuples(st.just("complete"), st.integers(0, 7)),
    st.tuples(st.just("block"), st.integers(0, 7)),
    st.tuples(st.just("squash"), st.integers(0, 7)),
    st.tuples(st.just("writeback"), st.integers(0, 7)),
    st.tuples(st.just("edge")),
), max_size=60)


class _FormulaReference:
    """The paper's bit matrix, evaluated directly: at X's dispatch
    ``Matrix[X, Y] = X memory & Y producer & Y valid & !Y issued``,
    and a staged column is cleared at the cycle edge."""

    def __init__(self, enabled, branch_only):
        self.enabled = enabled
        self.branch_only = branch_only
        self.rows = {}          # seq -> set of producer seqs
        self.live = {}          # seq -> valid, unissued producer
        self.staged = set()
        self.nonzero = 0

    def dispatch(self, seq, instr):
        row = set()
        if self.enabled and instr.is_memory:
            row = {other for other, live in self.live.items() if live}
            self.nonzero += bool(row)
        self.rows[seq] = row
        self.live[seq] = self.enabled and (instr.is_branch or (
            instr.is_memory and not self.branch_only))

    def stage(self, seq):
        self.live[seq] = False
        self.staged.add(seq)

    def edge(self, freed):
        for row in self.rows.values():
            row -= self.staged
        self.staged.clear()
        for seq in freed:
            del self.rows[seq]
            del self.live[seq]


def _drive(steps, enabled, branch_only):
    """Run ``steps`` through an issue queue and the reference, checking
    both after every step.  Physical registers start ready; each
    renamed destination takes a fresh, unready one, so a register never
    turns unready under a reader, as in the pipeline."""
    iq = IssueQueue(_IQ_ENTRIES, matrix=enabled, branch_only=branch_only)
    reference = _FormulaReference(enabled, branch_only)
    ready_bits = [True] * 4
    residents = []              # IQ residents, oldest first
    released = []               # entries freed at the next edge
    seq = 0
    for step in steps:
        kind = step[0]
        if kind == "dispatch" and iq.space:
            seq += 1
            instr = Instruction(_OPS[step[1]], rd=1, rs1=1, rs2=2)
            inst = DynInst(seq, 0x1000 + 4 * seq, instr)
            # Sources among the three youngest registers, so that
            # several residents often wait on one.
            inst.psrcs = tuple(len(ready_bits) - 1 - choice % 3
                               for choice in step[2][:len(instr.sources)])
            iq.insert(inst, ready_bits)
            reference.dispatch(seq, instr)
            residents.append(inst)
            if instr.renames_dest:
                inst.pdst = len(ready_bits)
                ready_bits.append(False)
        elif kind == "issue":
            ready = [inst for inst in iq.ready if not inst.squashed]
            if ready:
                inst = ready[step[1] % len(ready)]
                inst.state = InstState.ISSUED
                iq.mark_issued(inst)
                reference.stage(inst.seq)
                if not inst.instr.is_load:
                    residents.remove(inst)
                    released.append(inst.seq)
        elif kind in ("complete", "block"):
            loads = [inst for inst in residents
                     if inst.state is InstState.ISSUED]
            if loads:
                inst = loads[step[1] % len(loads)]
                if kind == "complete":
                    inst.state = InstState.COMPLETED
                    iq.release(inst)
                    reference.stage(inst.seq)
                    residents.remove(inst)
                    released.append(inst.seq)
                else:       # a filter-blocked load waits again
                    inst.state = InstState.BLOCKED
                    iq.requeue(inst)
        elif kind == "squash" and residents:
            keep = residents[step[1] % len(residents)].seq
            for inst in [i for i in residents if i.seq > keep]:
                inst.squashed = True
                iq.release(inst)
                reference.stage(inst.seq)
                residents.remove(inst)
                released.append(inst.seq)
        elif kind == "writeback":
            unready = [preg for preg, ready in enumerate(ready_bits)
                       if not ready]
            if unready:
                preg = unready[step[1] % len(unready)]
                ready_bits[preg] = True
                iq.wake(preg)
        elif kind == "edge":
            iq.end_cycle()
            reference.edge(released)
            released = []
        _check(iq, reference, residents, ready_bits)
    assert iq.matrix.stats.get("rows_installed_nonzero") \
        == reference.nonzero


def _check(iq, reference, residents, ready_bits):
    assert list(iq) == residents
    for inst in residents:
        row = sorted(reference.rows[inst.seq])
        assert iq.matrix.row(inst) == row, inst
        assert iq.matrix.has_dependence(inst) == bool(row)
    scan = [inst for inst in residents
            if inst.state in (InstState.DISPATCHED, InstState.BLOCKED)
            and all(ready_bits[preg] for preg
                    in inst.psrcs[:inst.instr.issue_operands])]
    assert [inst for inst in iq.ready if not inst.squashed] == scan


class TestAgeOrderedRows:
    """After every step of a random dispatch / issue / load completion
    / filter block / squash / writeback / cycle-edge sequence, every
    resident's row and its reduction-OR equal the paper's formula, the
    queue holds its residents oldest first, and the ready set equals a
    scan of the residents."""

    @pytest.mark.parametrize("enabled, branch_only", [
        (True, False), (True, True), (False, False)],
        ids=["memory-or-branch", "branch-only", "no-matrix"])
    @settings(max_examples=150, deadline=None)
    @given(steps=_STEPS)
    # Two residents wait on one register (one reads it twice), and a
    # producer issues in the cycle a consumer dispatches after it.
    @example(steps=[("dispatch", "load", [0, 0]),
                    ("dispatch", "alu", [0, 0]),
                    ("dispatch", "store", [1, 1]),
                    ("writeback", 0), ("dispatch", "branch", [2, 2]),
                    ("issue", 0), ("dispatch", "load", [2, 2]),
                    ("edge",), ("issue", 0), ("edge",)])
    # A load producer issues and completes in one cycle, with a memory
    # consumer dispatched in between: it is staged once.
    @example(steps=[("dispatch", "load", [0, 0]), ("issue", 0),
                    ("dispatch", "load", [0, 0]), ("complete", 0),
                    ("edge",)])
    def test_rows_equal_the_formula(self, enabled, branch_only, steps):
        _drive(steps, enabled, branch_only)
