"""Unit tests for instruction classification and ALU/branch semantics."""
import dataclasses
import pickle
import pickletools

import pytest
from hypothesis import given, settings, strategies as st

from repro.isa.instructions import (
    ALU_IMM_OPS,
    ALU_REG_OPS,
    COND_BRANCH_OPS,
    FU_DIV,
    FU_INT_ALU,
    FU_MUL,
    Instruction,
    Opcode,
    OpClass,
    branch_taken,
    evaluate_alu,
    mask64,
    to_signed,
)

WORD_MAX = (1 << 64) - 1
#: The opcodes evaluate_alu accepts: the ALU ops and MOV.
ALU_OPS = sorted(ALU_REG_OPS | ALU_IMM_OPS | {Opcode.MOV},
                 key=lambda op: op.value)
BRANCH_OPS = sorted(COND_BRANCH_OPS, key=lambda op: op.value)
#: Operands at the edges of the 64-bit domain: the sign bit, all ones,
#: shift counts 0, 63, 64 and 65, and divisor 0.
EDGE_OPERANDS = [0, 1, 2, 63, 64, 65, (1 << 63) - 1, 1 << 63, WORD_MAX]
operands = st.one_of(st.sampled_from(EDGE_OPERANDS),
                     st.integers(min_value=0, max_value=WORD_MAX))


class TestClassification:
    def test_load_is_memory(self):
        inst = Instruction(Opcode.LOAD, rd=1, rs1=2)
        assert inst.is_load and inst.is_memory and not inst.is_store

    def test_store_is_memory(self):
        inst = Instruction(Opcode.STORE, rs1=1, rs2=2)
        assert inst.is_store and inst.is_memory and not inst.is_load

    def test_clflush_is_memory(self):
        inst = Instruction(Opcode.CLFLUSH, rs1=1)
        assert inst.is_flush and inst.is_memory

    def test_alu_is_not_memory(self):
        assert not Instruction(Opcode.ADD, rd=1, rs1=2, rs2=3).is_memory

    @pytest.mark.parametrize("op", [Opcode.BEQ, Opcode.BNE, Opcode.BLT,
                                    Opcode.BGE])
    def test_conditional_branches(self, op):
        inst = Instruction(op, rs1=1, rs2=2, target=0x100)
        assert inst.is_branch and inst.is_conditional_branch
        assert inst.opclass is OpClass.BRANCH

    def test_jmp_is_branch_not_conditional(self):
        inst = Instruction(Opcode.JMP, target=0x100)
        assert inst.is_branch and not inst.is_conditional_branch

    def test_jmpi_is_indirect(self):
        inst = Instruction(Opcode.JMPI, rs1=5)
        assert inst.is_branch and inst.is_indirect

    @pytest.mark.parametrize("op", [Opcode.FENCE, Opcode.RDCYCLE])
    def test_serializing(self, op):
        assert Instruction(op, rd=1).is_serializing

    def test_branch_is_not_serializing(self):
        assert not Instruction(Opcode.BEQ, rs1=1, rs2=2).is_serializing


class TestRegisterUsage:
    def test_alu_dest_and_sources(self):
        inst = Instruction(Opcode.ADD, rd=3, rs1=1, rs2=2)
        assert inst.dest == 3
        assert inst.sources == (1, 2)

    def test_alu_imm_sources(self):
        inst = Instruction(Opcode.ADDI, rd=3, rs1=1, imm=5)
        assert inst.dest == 3
        assert inst.sources == (1,)

    def test_li_has_dest_no_sources(self):
        inst = Instruction(Opcode.LI, rd=4, imm=9)
        assert inst.dest == 4
        assert inst.sources == ()

    def test_load_dest_and_sources(self):
        inst = Instruction(Opcode.LOAD, rd=2, rs1=7, imm=8)
        assert inst.dest == 2
        assert inst.sources == (7,)

    def test_store_has_no_dest(self):
        inst = Instruction(Opcode.STORE, rs1=7, rs2=3)
        assert inst.dest is None
        assert inst.sources == (7, 3)

    def test_branch_has_no_dest(self):
        inst = Instruction(Opcode.BNE, rs1=1, rs2=2)
        assert inst.dest is None

    def test_rdcycle_dest(self):
        assert Instruction(Opcode.RDCYCLE, rd=9).dest == 9

    def test_jmpi_source(self):
        assert Instruction(Opcode.JMPI, rs1=6).sources == (6,)

    def test_clflush_source(self):
        assert Instruction(Opcode.CLFLUSH, rs1=6).sources == (6,)

    def test_nop_no_regs(self):
        inst = Instruction(Opcode.NOP)
        assert inst.dest is None and inst.sources == ()


class TestALUSemantics:
    def test_add_wraps(self):
        assert evaluate_alu(Opcode.ADD, (1 << 64) - 1, 1) == 0

    def test_sub_wraps(self):
        assert evaluate_alu(Opcode.SUB, 0, 1) == (1 << 64) - 1

    def test_mul(self):
        assert evaluate_alu(Opcode.MUL, 7, 6) == 42

    def test_div(self):
        assert evaluate_alu(Opcode.DIV, 42, 5) == 8

    def test_div_by_zero_is_all_ones(self):
        assert evaluate_alu(Opcode.DIV, 42, 0) == (1 << 64) - 1

    def test_logical(self):
        assert evaluate_alu(Opcode.AND, 0b1100, 0b1010) == 0b1000
        assert evaluate_alu(Opcode.OR, 0b1100, 0b1010) == 0b1110
        assert evaluate_alu(Opcode.XOR, 0b1100, 0b1010) == 0b0110

    def test_shift_amount_masked_to_6_bits(self):
        assert evaluate_alu(Opcode.SHL, 1, 64) == 1
        assert evaluate_alu(Opcode.SHL, 1, 65) == 2

    def test_shr_logical(self):
        assert evaluate_alu(Opcode.SHR, 1 << 63, 63) == 1

    def test_mov_passes_first_operand(self):
        assert evaluate_alu(Opcode.MOV, 123, 0) == 123

    def test_non_alu_raises(self):
        with pytest.raises(ValueError):
            evaluate_alu(Opcode.LOAD, 1, 2)


class TestBranchSemantics:
    def test_beq(self):
        assert branch_taken(Opcode.BEQ, 5, 5)
        assert not branch_taken(Opcode.BEQ, 5, 6)

    def test_bne(self):
        assert branch_taken(Opcode.BNE, 5, 6)
        assert not branch_taken(Opcode.BNE, 5, 5)

    def test_blt_signed(self):
        minus_one = (1 << 64) - 1
        assert branch_taken(Opcode.BLT, minus_one, 0)
        assert not branch_taken(Opcode.BLT, 0, minus_one)

    def test_bge_signed(self):
        minus_one = (1 << 64) - 1
        assert branch_taken(Opcode.BGE, 0, minus_one)
        assert branch_taken(Opcode.BGE, 3, 3)

    def test_non_branch_raises(self):
        with pytest.raises(ValueError):
            branch_taken(Opcode.ADD, 1, 2)


class TestHelpers:
    def test_mask64(self):
        assert mask64(1 << 64) == 0
        assert mask64(-1) == (1 << 64) - 1

    def test_to_signed(self):
        assert to_signed((1 << 64) - 1) == -1
        assert to_signed(5) == 5
        assert to_signed(1 << 63) == -(1 << 63)


def _accepts(reference, op) -> bool:
    try:
        reference(op, 1, 1)
    except ValueError:
        return False
    return True


class TestDecodedSemantics:
    """The functions an instruction decodes once are what the core runs
    in place of evaluate_alu and branch_taken, which stay the
    reference (the in-order oracle's semantics)."""

    @pytest.mark.parametrize("op", ALU_OPS, ids=lambda op: op.name)
    def test_alu_fn_matches_evaluate_alu_on_edges(self, op):
        alu = Instruction(op).alu_fn
        for a in EDGE_OPERANDS:
            for b in EDGE_OPERANDS:
                assert alu(a, b) == evaluate_alu(op, a, b), (a, b)

    @settings(max_examples=300, deadline=None)
    @given(op=st.sampled_from(ALU_OPS), a=operands, b=operands)
    def test_alu_fn_matches_evaluate_alu(self, op, a, b):
        assert Instruction(op).alu_fn(a, b) == evaluate_alu(op, a, b)

    @pytest.mark.parametrize("op", BRANCH_OPS, ids=lambda op: op.name)
    def test_branch_cmp_matches_branch_taken_on_edges(self, op):
        compare = Instruction(op).branch_cmp
        for a in EDGE_OPERANDS:
            for b in EDGE_OPERANDS:
                assert compare(a, b) == branch_taken(op, a, b), (a, b)

    @settings(max_examples=200, deadline=None)
    @given(op=st.sampled_from(BRANCH_OPS), a=operands, b=operands)
    def test_branch_cmp_matches_branch_taken(self, op, a, b):
        assert Instruction(op).branch_cmp(a, b) == branch_taken(op, a, b)

    def test_only_alu_opcodes_decode_a_function(self):
        for op in Opcode:
            decoded = Instruction(op).alu_fn is not None
            assert decoded == _accepts(evaluate_alu, op), op

    def test_only_conditional_branches_decode_a_comparison(self):
        for op in Opcode:
            decoded = Instruction(op).branch_cmp is not None
            assert decoded == _accepts(branch_taken, op), op

    def test_functional_unit_classes(self):
        for op in Opcode:
            expected = {Opcode.MUL: FU_MUL, Opcode.DIV: FU_DIV}.get(
                op, FU_INT_ALU)
            assert Instruction(op).fu_class == expected, op

    def test_flags_name_their_opcode(self):
        for op in Opcode:
            inst = Instruction(op)
            assert inst.is_halt == (op is Opcode.HALT)
            assert inst.is_rdcycle == (op is Opcode.RDCYCLE)
            assert inst.is_alu == (inst.opclass is OpClass.ALU)


def _decoded_names(inst):
    fields = {field.name for field in dataclasses.fields(Instruction)}
    return set(vars(inst)) - fields


class TestPickle:
    """An instruction pickles only its encoding; loading decodes it
    again, the decoded functions included."""

    @pytest.mark.parametrize("op", list(Opcode), ids=lambda op: op.name)
    def test_round_trip_redecodes(self, op):
        inst = Instruction(op, rd=3, rs1=1, rs2=2, imm=-5, target=0x1040,
                           note="probe")
        decoded = _decoded_names(inst)
        assert len(decoded) >= 20
        for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1):
            data = pickle.dumps(inst, protocol=protocol)
            copy = pickle.loads(data)
            assert copy == inst
            for name in decoded:
                assert getattr(copy, name) == getattr(inst, name), name
            # Every string the pickle holds (a GLOBAL opcode's argument
            # is "module name").
            strings = {word for _, arg, _ in pickletools.genops(data)
                       if isinstance(arg, str) for word in arg.split()}
            assert strings <= {"repro.isa.instructions", "Instruction",
                               "Opcode", "probe"}, strings
