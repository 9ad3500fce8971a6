"""Tests for the security dependence matrix (Section V.B semantics)."""
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core.security_matrix import SecurityDependenceMatrix
from repro.errors import ConfigError
from repro.isa.instructions import Instruction, Opcode
from repro.pipeline.dyninst import DynInst, InstState
from repro.pipeline.issue_queue import IssueQueue

_OPS = {"alu": Opcode.ADD, "branch": Opcode.BNE, "load": Opcode.LOAD,
        "store": Opcode.STORE, "flush": Opcode.CLFLUSH}
BRANCH = Instruction(Opcode.BNE, rs1=1, rs2=2)
LOAD = Instruction(Opcode.LOAD, rd=1, rs1=2)
ALU = Instruction(Opcode.ADD, rd=1, rs1=2, rs2=3)


def _install(matrix, *kinds):
    """Install one instruction per (pos, instruction) pair, in program
    order (sequence numbers 1, 2, ...)."""
    for seq, (pos, instr) in enumerate(kinds, start=1):
        matrix.install(pos, seq, instr)


def _bits(*positions):
    return sum(1 << pos for pos in positions)


class TestRowInstallation:
    def test_row_or_reflects_producers(self):
        matrix = SecurityDependenceMatrix(8)
        _install(matrix, (1, BRANCH), (2, LOAD), (3, LOAD))
        assert matrix.has_dependence(3)
        assert matrix.row(3) == _bits(1, 2)
        assert bin(matrix.row(3)).count("1") == 2

    def test_empty_row_has_no_dependence(self):
        matrix = SecurityDependenceMatrix(8)
        _install(matrix, (3, LOAD))
        assert not matrix.has_dependence(3)
        assert matrix.row(3) == 0

    def test_self_bit_is_masked(self):
        """A memory instruction is a producer, but never in its own
        row."""
        matrix = SecurityDependenceMatrix(8)
        _install(matrix, (3, LOAD), (5, LOAD))
        assert matrix.row(3) == 0
        assert not matrix.has_dependence(3)
        assert matrix.row(5) == _bits(3)

    def test_invalid_size_rejected(self):
        with pytest.raises(ConfigError):
            SecurityDependenceMatrix(0)


class TestClearance:
    def test_scheduled_clear_applies_at_cycle_boundary(self):
        """The Update Vector Register semantics: a producer's column
        stays visible until apply_clears - the same-cycle consumer is
        still tagged suspect."""
        matrix = SecurityDependenceMatrix(8)
        _install(matrix, (1, BRANCH), (3, LOAD))     # 3 depends on 1
        matrix.schedule_clear(1)
        assert matrix.has_dependence(3)     # same cycle: still set
        assert matrix.row(3) == _bits(1)
        matrix.apply_clears()
        assert not matrix.has_dependence(3)
        assert matrix.row(3) == 0

    def test_clear_affects_whole_column(self):
        matrix = SecurityDependenceMatrix(8)
        _install(matrix, (1, BRANCH), (3, LOAD), (5, LOAD))
        matrix.schedule_clear(1)
        matrix.apply_clears()
        assert not matrix.has_dependence(3)
        assert matrix.row(5) == _bits(3)    # slot 3 is still a producer

    def test_clear_leaves_other_columns(self):
        matrix = SecurityDependenceMatrix(8)
        _install(matrix, (1, BRANCH), (2, BRANCH), (3, LOAD))
        matrix.schedule_clear(1)
        matrix.apply_clears()
        assert matrix.has_dependence(3)     # still depends on slot 2
        assert matrix.row(3) == _bits(2)

    def test_clear_entry_removes_row_and_column(self):
        """A slot leaving the queue (a squash) clears its column at the
        cycle edge, and its row does not outlive it: the next
        instruction in that slot starts from its own row."""
        matrix = SecurityDependenceMatrix(8)
        _install(matrix, (0, BRANCH), (1, LOAD), (3, LOAD))
        assert matrix.row(1) == _bits(0)
        assert matrix.row(3) == _bits(0, 1)
        matrix.schedule_clear(1)
        matrix.apply_clears()
        assert matrix.row(3) == _bits(0)
        matrix.install(1, 4, ALU)
        assert matrix.row(1) == 0
        assert not matrix.has_dependence(1)

    def test_clear_entry_cancels_pending_update(self):
        """Staging one column twice in a cycle (issue, then release)
        clears it once."""
        matrix = SecurityDependenceMatrix(8)
        _install(matrix, (1, BRANCH), (3, LOAD))
        matrix.schedule_clear(1)
        matrix.schedule_clear(1)
        assert matrix.apply_clears()
        assert not matrix.has_dependence(3)
        assert matrix.stats.get("columns_cleared") == 1
        assert not matrix.apply_clears()    # nothing left staged

    def test_reset(self):
        """Once every producer's column is cleared the matrix is back
        to its empty state: a new memory instruction gets an empty
        row."""
        matrix = SecurityDependenceMatrix(8)
        _install(matrix, (0, BRANCH), (2, LOAD))
        matrix.schedule_clear(0)
        matrix.schedule_clear(2)
        matrix.apply_clears()
        matrix.install(4, 3, LOAD)
        assert matrix.row(4) == 0
        assert matrix.stats.as_dict() == {
            "rows_installed_zero": 2,       # the branch and the last load
            "rows_installed_nonzero": 1,    # the first load
            "columns_cleared": 2,
        }


class TestColumnMask:
    def test_column_mask(self):
        matrix = SecurityDependenceMatrix(8)
        _install(matrix, (1, BRANCH), (3, LOAD), (6, LOAD))
        column = {pos for pos in (1, 3, 6) if matrix.row(pos) & _bits(1)}
        assert column == {3, 6}


_KINDS = st.sampled_from(sorted(_OPS))


class TestMatrixProperties:
    @settings(max_examples=50, deadline=None)
    @given(st.permutations(range(16)), st.lists(_KINDS, min_size=1,
                                                max_size=16))
    def test_clearing_every_column_empties_all_rows(self, positions,
                                                    kinds):
        matrix = SecurityDependenceMatrix(16)
        for seq, kind in enumerate(kinds, start=1):
            matrix.install(positions[seq - 1], seq, Instruction(_OPS[kind]))
        for pos in range(16):
            matrix.schedule_clear(pos)
        matrix.apply_clears()
        for pos in positions[:len(kinds)]:
            assert not matrix.has_dependence(pos)
            assert matrix.row(pos) == 0

    @settings(max_examples=50, deadline=None)
    @given(st.permutations(range(16)), st.lists(_KINDS, min_size=1,
                                                max_size=16))
    def test_dependence_matches_column_membership(self, positions, kinds):
        """With nothing issued, row X holds exactly the older memory
        and branch instructions, and only when X is a memory one."""
        matrix = SecurityDependenceMatrix(16)
        instrs = [Instruction(_OPS[kind]) for kind in kinds]
        for seq, instr in enumerate(instrs, start=1):
            matrix.install(positions[seq - 1], seq, instr)
        for x, instr in enumerate(instrs):
            expected = 0
            if instr.is_memory:
                for y in range(x):
                    if instrs[y].is_memory or instrs[y].is_branch:
                        expected |= 1 << positions[y]
            assert matrix.row(positions[x]) == expected
            assert matrix.has_dependence(positions[x]) == bool(expected)


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
        self.rows = {}          # position -> bit vector
        self.live = {}          # position -> valid, unissued producer
        self.staged = set()
        self.nonzero = 0

    def dispatch(self, pos, instr):
        row = 0
        if self.enabled and instr.is_memory:
            for other, live in self.live.items():
                if live:
                    row |= 1 << other
            self.nonzero += bool(row)
        self.rows[pos] = row
        self.live[pos] = self.enabled and (instr.is_branch or (
            instr.is_memory and not self.branch_only))

    def stage(self, pos):
        self.live[pos] = False
        self.staged.add(pos)

    def edge(self, freed):
        for pos in self.staged:
            for row_pos in self.rows:
                self.rows[row_pos] &= ~(1 << pos)
        self.staged.clear()
        for pos in freed:
            del self.rows[pos]
            del self.live[pos]


def _drive(steps, enabled, branch_only):
    """Run ``steps`` through an issue queue and the reference, checking
    both after every step.  Physical registers start ready; each
    renamed destination takes a fresh, unready one, so a register never
    turns unready under a reader, as in the pipeline."""
    iq = IssueQueue(_IQ_ENTRIES, matrix=enabled, branch_only=branch_only)
    reference = _FormulaReference(enabled, branch_only)
    ready_bits = [True] * 4
    residents = []              # IQ residents, oldest first
    released = []               # positions freed at the next edge
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
            pos = iq.insert(inst, ready_bits)
            reference.dispatch(pos, instr)
            residents.append(inst)
            if instr.renames_dest:
                inst.pdst = len(ready_bits)
                ready_bits.append(False)
        elif kind == "issue":
            ready = [inst for inst in iq.ready if not inst.squashed]
            if ready:
                inst = ready[step[1] % len(ready)]
                pos = inst.iq_pos
                inst.state = InstState.ISSUED
                iq.mark_issued(inst)
                reference.stage(pos)
                if not inst.instr.is_load:
                    residents.remove(inst)
                    released.append(pos)
        elif kind in ("complete", "block"):
            loads = [inst for inst in residents
                     if inst.state is InstState.ISSUED]
            if loads:
                inst = loads[step[1] % len(loads)]
                if kind == "complete":
                    pos = inst.iq_pos
                    inst.state = InstState.COMPLETED
                    iq.release(inst)
                    reference.stage(pos)
                    residents.remove(inst)
                    released.append(pos)
                else:       # a filter-blocked load waits again
                    inst.state = InstState.DISPATCHED
                    inst.blocked = True
                    iq.requeue(inst)
        elif kind == "squash" and residents:
            keep = residents[step[1] % len(residents)].seq
            for inst in [i for i in residents if i.seq > keep]:
                pos = inst.iq_pos
                inst.squashed = True
                iq.release(inst)
                reference.stage(pos)
                residents.remove(inst)
                released.append(pos)
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
    for inst in residents:
        pos = inst.iq_pos
        assert iq.matrix.row(pos) == reference.rows[pos], inst
        assert iq.matrix.has_dependence(pos) == bool(reference.rows[pos])
    scan = [inst for inst in residents
            if inst.state is InstState.DISPATCHED
            and all(ready_bits[preg] for preg
                    in inst.psrcs[:inst.instr.issue_operands])]
    assert [inst for inst in iq.ready if not inst.squashed] == scan


class TestAgeOrderedRows:
    """After every step of a random dispatch / issue / load completion
    / filter block / squash / writeback / cycle-edge sequence, every
    resident's row and its reduction-OR equal the paper's formula, and
    the ready set equals a scan of the residents."""

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
    def test_rows_equal_the_formula(self, enabled, branch_only, steps):
        _drive(steps, enabled, branch_only)
