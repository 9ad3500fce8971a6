"""Tests for the program builder, Program container and
InstructionMemory."""
import pytest

from repro.errors import AssemblyError, SimulationError
from repro.isa.builder import ProgramBuilder
from repro.isa.instructions import INSTRUCTION_BYTES, Opcode
from repro.isa.program import InstructionMemory, Program


class TestBuilder:
    def test_sequential_addresses(self):
        b = ProgramBuilder(base_address=0x2000)
        assert b.next_address == 0x2000
        b.nop()
        assert b.next_address == 0x2004

    def test_label_resolution_backward(self):
        b = ProgramBuilder()
        b.label("top").nop().bne(1, 0, "top")
        program = b.build()
        assert program.instructions[1].target == program.label("top")

    def test_label_resolution_forward(self):
        b = ProgramBuilder()
        b.beq(1, 2, "end").nop().label("end").halt()
        program = b.build()
        assert program.instructions[0].target == program.label("end")

    def test_undefined_label_raises(self):
        b = ProgramBuilder()
        b.jmp("nowhere")
        with pytest.raises(AssemblyError):
            b.build()

    def test_duplicate_label_raises(self):
        b = ProgramBuilder()
        b.label("x")
        with pytest.raises(AssemblyError):
            b.label("x")

    def test_li_label(self):
        b = ProgramBuilder()
        b.li_label(5, "target").label("target").halt()
        program = b.build()
        assert program.instructions[0].imm == program.label("target")

    def test_align_pads_with_nops(self):
        b = ProgramBuilder(base_address=0x1000)
        b.nop()
        b.align(64)
        assert b.next_address % 64 == 0
        program = b.build()
        assert all(i.op is Opcode.NOP for i in program.instructions)

    def test_align_non_multiple_raises(self):
        with pytest.raises(AssemblyError):
            ProgramBuilder().align(10)

    def test_data_word_alignment_enforced(self):
        with pytest.raises(AssemblyError):
            ProgramBuilder().data_word(0x1001, 5)

    def test_data_words_consecutive(self):
        b = ProgramBuilder()
        b.data_words(0x4000, [1, 2, 3])
        b.halt()
        program = b.build()
        assert program.initial_memory == {0x4000: 1, 0x4008: 2, 0x4010: 3}

    def test_data_word_masks_to_64_bits(self):
        b = ProgramBuilder()
        b.data_word(0x4000, 1 << 65)
        b.halt()
        assert b.build().initial_memory[0x4000] == 0

    def test_builder_is_fluent(self):
        program = (
            ProgramBuilder().li(1, 5).addi(1, 1, 1).halt().build()
        )
        assert len(program) == 3

    def test_all_alu_emitters(self):
        b = ProgramBuilder()
        b.add(1, 2, 3).sub(1, 2, 3).mul(1, 2, 3).div(1, 2, 3)
        b.and_(1, 2, 3).or_(1, 2, 3).xor(1, 2, 3).shl(1, 2, 3).shr(1, 2, 3)
        b.addi(1, 2, 4).andi(1, 2, 4).xori(1, 2, 4).shli(1, 2, 4)
        b.shri(1, 2, 4).mov(1, 2)
        program = b.build()
        assert len(program) == 15
        assert all(inst.opclass.name == "ALU" for inst in program.instructions)


class TestProgram:
    def _program(self):
        return ProgramBuilder(0x1000).nop().nop().halt().build()

    def test_address_of(self):
        program = self._program()
        assert program.address_of(0) == 0x1000
        assert program.address_of(2) == 0x1000 + 2 * INSTRUCTION_BYTES

    def test_instruction_at(self):
        program = self._program()
        assert program.instruction_at(0x1008).op is Opcode.HALT
        assert program.instruction_at(0x0FFC) is None
        assert program.instruction_at(0x1001) is None
        assert program.instruction_at(program.end_address) is None

    def test_entry_point_defaults_to_base(self):
        assert self._program().entry_point == 0x1000

    def test_unaligned_base_rejected(self):
        with pytest.raises(SimulationError):
            Program(instructions=[], base_address=0x1002)

    def test_unknown_label_raises(self):
        with pytest.raises(SimulationError):
            self._program().label("missing")

    def test_listing_contains_labels(self):
        b = ProgramBuilder()
        b.label("entry").halt()
        text = b.build().listing()
        assert "entry:" in text and "halt" in text


class TestInstructionMemory:
    def test_fetch_mapped(self):
        program = ProgramBuilder(0x1000).li(1, 7).halt().build()
        imem = InstructionMemory(program)
        assert imem.fetch(0x1000).op is Opcode.LI
        assert imem.is_mapped(0x1004)

    def test_fetch_unmapped_is_nop(self):
        imem = InstructionMemory(ProgramBuilder().halt().build())
        assert imem.fetch(0x9999000).op is Opcode.NOP
        assert not imem.is_mapped(0x9999000)



class TestFromProgram:
    def _original(self):
        b = ProgramBuilder(0x1000)
        b.li(1, 0x6000)
        b.label("loop")
        b.load(2, 1)
        b.bne(2, 0, "loop")
        b.halt()
        b.label("end")
        b.data_word(0x6000, 0)
        return b.build()

    def test_round_trip_preserves_image(self):
        program = self._original()
        rebuilt = ProgramBuilder.from_program(program).build()
        assert rebuilt.instructions == program.instructions
        assert rebuilt.labels == program.labels
        assert rebuilt.initial_memory == program.initial_memory
        assert rebuilt.base_address == program.base_address

    def test_append_after_existing_program(self):
        program = self._original()
        builder = ProgramBuilder.from_program(program)
        assert builder.next_address == program.end_address
        builder.label("extra")
        builder.nop()
        extended = builder.build()
        assert len(extended) == len(program) + 1
        assert extended.labels["extra"] == program.end_address
        # the end-address label survives the round trip too
        assert extended.labels["end"] == program.labels["end"]
