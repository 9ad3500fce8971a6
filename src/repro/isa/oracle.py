"""In-order functional reference executor ("oracle").

The oracle executes a program sequentially with no timing model and
returns the final architectural state.  It is the ground truth the
out-of-order core is validated against: for any program, any protection
mode, the core must retire to exactly the oracle's state.

``RDCYCLE`` is the one timing-visible instruction; the oracle defines it
as the number of retired instructions so far, which intentionally
differs from the core's cycle counter.  Equivalence tests therefore
exclude ``RDCYCLE`` (or mask its destination).
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from ..errors import ExecutionError
from .instructions import (
    INSTRUCTION_BYTES,
    WORD_BYTES,
    Opcode,
    branch_taken,
    evaluate_alu,
    mask64,
)
from .program import InstructionMemory, Program

_WORD_ALIGN = ~(WORD_BYTES - 1)
#: The ISA's architectural registers, r0..r31.
_NUM_REGS = 32


@dataclass
class OracleResult:
    """Final architectural state after an oracle run."""

    registers: List[int]
    memory: Dict[int, int]
    retired: int
    halted: bool
    pc: int
    # Committed loads/stores in order: (pc, address, value).
    load_trace: List[Tuple[int, int, int]] = field(default_factory=list)
    store_trace: List[Tuple[int, int, int]] = field(default_factory=list)

    def reg(self, index: int) -> int:
        return self.registers[index]

    def mem(self, address: int) -> int:
        return self.memory.get(address & _WORD_ALIGN, 0)


def run_oracle(
    program: Program,
    max_instructions: int = 1_000_000,
    trace: bool = False,
) -> OracleResult:
    """Execute ``program`` from all-zero registers to completion (HALT)
    or ``max_instructions``."""
    imem = InstructionMemory(program)
    memory: Dict[int, int] = dict(program.initial_memory)
    registers = [0] * _NUM_REGS

    pc = program.entry_point
    retired = 0
    halted = False
    load_trace: List[Tuple[int, int, int]] = []
    store_trace: List[Tuple[int, int, int]] = []

    def write_reg(index: int, value: int) -> None:
        if index != 0:
            registers[index] = mask64(value)

    while retired < max_instructions:
        instruction = imem.fetch(pc)
        if not imem.is_mapped(pc):
            raise ExecutionError(
                f"oracle: control flowed to unmapped address {pc:#x}"
            )
        next_pc = pc + INSTRUCTION_BYTES
        op = instruction.op

        if op is Opcode.HALT:
            halted = True
            retired += 1
            break
        elif op is Opcode.NOP or op is Opcode.FENCE or op is Opcode.CLFLUSH:
            pass  # no architectural effect
        elif op is Opcode.LI:
            write_reg(instruction.rd, instruction.imm)
        elif op is Opcode.RDCYCLE:
            write_reg(instruction.rd, retired)
        elif op is Opcode.LOAD:
            address = mask64(registers[instruction.rs1] + instruction.imm)
            value = memory.get(address & _WORD_ALIGN, 0)
            write_reg(instruction.rd, value)
            if trace:
                load_trace.append((pc, address, value))
        elif op is Opcode.STORE:
            address = mask64(registers[instruction.rs1] + instruction.imm)
            value = registers[instruction.rs2]
            memory[address & _WORD_ALIGN] = value
            if trace:
                store_trace.append((pc, address, value))
        elif op is Opcode.JMP:
            next_pc = instruction.target
        elif op is Opcode.CALL:
            write_reg(instruction.rd, pc + INSTRUCTION_BYTES)
            next_pc = instruction.target
        elif op in (Opcode.JMPI, Opcode.RET):
            next_pc = mask64(registers[instruction.rs1])
        elif instruction.is_conditional_branch:
            if branch_taken(op, registers[instruction.rs1],
                            registers[instruction.rs2]):
                next_pc = instruction.target
        elif op is Opcode.MOV:
            write_reg(instruction.rd, registers[instruction.rs1])
        elif instruction.alu_imm:
            write_reg(
                instruction.rd,
                evaluate_alu(op, registers[instruction.rs1],
                             mask64(instruction.imm)),
            )
        else:  # register-register ALU
            write_reg(
                instruction.rd,
                evaluate_alu(op, registers[instruction.rs1],
                             registers[instruction.rs2]),
            )

        retired += 1
        pc = next_pc

    return OracleResult(
        registers=registers,
        memory=memory,
        retired=retired,
        halted=halted,
        pc=pc,
        load_trace=load_trace,
        store_trace=store_trace,
    )
