"""A tiny text assembler for the simulator's ISA.

The format mirrors the PoC listings in the paper closely enough to
transcribe them.  Supported syntax::

    ; comment            # comment
    label:
        li    r1, 0x40
        addi  r1, r1, -8
        load  r2, r1, 16     ; r2 = mem[r1 + 16]
        store r2, r1, 0      ; mem[r1 + 0] = r2
        beq   r1, r0, done
        jmp   loop
        clflush r3, 0
        fence
        rdcycle r9
        halt
    .data 0x2000
        .word 1, 2, 0xff

Registers are ``r0``..``r31`` (``r0`` is hardwired to zero).  Immediates
accept decimal and ``0x`` hex with optional sign.
"""
from __future__ import annotations

import re
from typing import List

from ..errors import AssemblyError
from .builder import ProgramBuilder
from .instructions import (ALU_IMM_OPS, ALU_REG_OPS, COND_BRANCH_OPS,
                           WORD_BYTES, Instruction, Opcode)
from .program import Program

_LABEL_RE = re.compile(r"^([A-Za-z_][A-Za-z0-9_]*):$")
_REG_RE = re.compile(r"^r([0-9]|[12][0-9]|3[01])$")

# An opcode's mnemonic is its lower-cased name.
_ALU3 = {op.name.lower() for op in ALU_REG_OPS}
_ALUI = {op.name.lower() for op in ALU_IMM_OPS}
_BRANCH = {op.name.lower() for op in COND_BRANCH_OPS}


def _parse_reg(token: str, line_no: int) -> int:
    match = _REG_RE.match(token)
    if not match:
        raise AssemblyError(f"line {line_no}: expected register, got {token!r}")
    return int(match.group(1))


def _parse_int(token: str, line_no: int) -> int:
    try:
        return int(token, 0)
    except ValueError:
        raise AssemblyError(
            f"line {line_no}: expected integer, got {token!r}"
        ) from None


def _split_operands(rest: str) -> List[str]:
    rest = rest.strip()
    if not rest:
        return []
    return [part.strip() for part in rest.split(",")]


def assemble(source: str, base_address: int = 0x1000) -> Program:
    """Assemble ``source`` into a :class:`Program`."""
    builder = ProgramBuilder(base_address=base_address)
    data_cursor = None

    for line_no, raw_line in enumerate(source.splitlines(), start=1):
        line = raw_line.split(";")[0].split("#")[0].strip()
        if not line:
            continue

        label_match = _LABEL_RE.match(line)
        if label_match:
            builder.label(label_match.group(1))
            continue

        parts = line.split(None, 1)
        mnemonic = parts[0].lower()
        operands = _split_operands(parts[1]) if len(parts) > 1 else []

        if mnemonic == ".data":
            if len(operands) != 1:
                raise AssemblyError(f"line {line_no}: .data needs an address")
            data_cursor = _parse_int(operands[0], line_no)
            continue
        if mnemonic == ".word":
            if data_cursor is None:
                raise AssemblyError(f"line {line_no}: .word before .data")
            for token in operands:
                builder.data_word(data_cursor, _parse_int(token, line_no))
                data_cursor += WORD_BYTES
            continue

        if mnemonic in _ALU3:
            if len(operands) != 3:
                raise AssemblyError(f"line {line_no}: {mnemonic} needs 3 operands")
            rd, rs1, rs2 = (_parse_reg(t, line_no) for t in operands)
            method = {"and": "and_", "or": "or_"}.get(mnemonic, mnemonic)
            getattr(builder, method)(rd, rs1, rs2)
        elif mnemonic in _ALUI:
            if len(operands) != 3:
                raise AssemblyError(f"line {line_no}: {mnemonic} needs 3 operands")
            rd = _parse_reg(operands[0], line_no)
            rs1 = _parse_reg(operands[1], line_no)
            imm = _parse_int(operands[2], line_no)
            getattr(builder, mnemonic)(rd, rs1, imm)
        elif mnemonic == "li":
            rd = _parse_reg(operands[0], line_no)
            builder.li(rd, _parse_int(operands[1], line_no))
        elif mnemonic == "mov":
            rd = _parse_reg(operands[0], line_no)
            builder.mov(rd, _parse_reg(operands[1], line_no))
        elif mnemonic == "load":
            if len(operands) not in (2, 3):
                raise AssemblyError(f"line {line_no}: load rd, rs1[, imm]")
            rd = _parse_reg(operands[0], line_no)
            rs1 = _parse_reg(operands[1], line_no)
            imm = _parse_int(operands[2], line_no) if len(operands) == 3 else 0
            builder.load(rd, rs1, imm)
        elif mnemonic == "store":
            if len(operands) not in (2, 3):
                raise AssemblyError(f"line {line_no}: store rs2, rs1[, imm]")
            rs2 = _parse_reg(operands[0], line_no)
            rs1 = _parse_reg(operands[1], line_no)
            imm = _parse_int(operands[2], line_no) if len(operands) == 3 else 0
            builder.store(rs2, rs1, imm)
        elif mnemonic == "clflush":
            rs1 = _parse_reg(operands[0], line_no)
            imm = _parse_int(operands[1], line_no) if len(operands) > 1 else 0
            builder.clflush(rs1, imm)
        elif mnemonic in _BRANCH:
            if len(operands) != 3:
                raise AssemblyError(f"line {line_no}: {mnemonic} rs1, rs2, target")
            rs1 = _parse_reg(operands[0], line_no)
            rs2 = _parse_reg(operands[1], line_no)
            target = operands[2]
            getattr(builder, mnemonic)(
                rs1, rs2,
                _parse_int(target, line_no) if target[0].isdigit() else target,
            )
        elif mnemonic == "jmp":
            target = operands[0]
            builder.jmp(
                _parse_int(target, line_no) if target[0].isdigit() else target
            )
        elif mnemonic == "jmpi":
            builder.jmpi(_parse_reg(operands[0], line_no))
        elif mnemonic == "call":
            if len(operands) not in (1, 2):
                raise AssemblyError(f"line {line_no}: call target[, rd]")
            target = operands[0]
            rd = (_parse_reg(operands[1], line_no)
                  if len(operands) == 2 else 31)
            builder.call(
                _parse_int(target, line_no) if target[0].isdigit()
                else target,
                rd=rd,
            )
        elif mnemonic == "ret":
            if operands:
                builder.ret(_parse_reg(operands[0], line_no))
            else:
                builder.ret()
        elif mnemonic == "fence":
            builder.fence()
        elif mnemonic == "rdcycle":
            builder.rdcycle(_parse_reg(operands[0], line_no))
        elif mnemonic == "nop":
            builder.nop()
        elif mnemonic == "halt":
            builder.halt()
        else:
            raise AssemblyError(f"line {line_no}: unknown mnemonic {mnemonic!r}")

    return builder.build()


# ---------------------------------------------------------------------------
# Disassembly (the inverse of :func:`assemble`)
# ---------------------------------------------------------------------------

def _format_target(address: int, names_at: dict) -> str:
    """A branch/jump/call operand: the label at ``address`` when one
    exists, otherwise the bare decimal address (the parser reads any
    digit-leading operand as an integer)."""
    names = names_at.get(address)
    if names:
        return names[0]
    return str(address)


def disassemble(program: Program) -> str:
    """Render ``program`` as :func:`assemble`-compatible source.

    The output round-trips: ``assemble(disassemble(p), p.base_address)``
    rebuilds the same instruction encodings, labels and data image for
    any builder-produced program.  Two canonicalizations apply —
    ``note`` strings are emitted as comments (and therefore dropped on
    reassembly) and operand fields unused by an opcode are not encoded
    — so comparisons should use the encoding fields each opcode
    defines.  Only the entry point cannot be expressed in the text
    format; a program whose entry differs from its base address is
    rejected.
    """
    if program.entry_point != program.base_address:
        raise AssemblyError(
            "cannot disassemble a program whose entry point "
            f"({program.entry_point:#x}) is not its base address"
        )
    names_at: dict = {}
    for name, address in sorted(program.labels.items()):
        if not _LABEL_RE.match(name + ":"):
            raise AssemblyError(f"label {name!r} is not representable")
        names_at.setdefault(address, []).append(name)

    lines: List[str] = []
    for address, instr in program.iter_addressed():
        for name in names_at.get(address, ()):
            lines.append(f"{name}:")
        lines.append("    " + _format_instruction(instr, names_at))
    for name in names_at.get(program.end_address, ()):
        lines.append(f"{name}:")

    # Data image: one ``.data`` section per run of consecutive words.
    run_start = None
    run_values: List[int] = []

    def flush_run() -> None:
        if run_start is None:
            return
        lines.append(f".data {run_start:#x}")
        for offset in range(0, len(run_values), 8):
            chunk = run_values[offset:offset + 8]
            lines.append("    .word " + ", ".join(f"{v:#x}" for v in chunk))

    for address in sorted(program.initial_memory):
        value = program.initial_memory[address]
        if (run_start is not None
                and address == run_start + len(run_values) * WORD_BYTES):
            run_values.append(value)
            continue
        flush_run()
        run_start = address
        run_values = [value]
    flush_run()
    return "\n".join(lines) + "\n"


def _format_instruction(instr: Instruction, names_at: dict) -> str:
    op = instr.op
    comment = f"    ; {instr.note}" if instr.note else ""
    if op in ALU_REG_OPS:
        text = (f"{op.name.lower()} r{instr.rd}, "
                f"r{instr.rs1}, r{instr.rs2}")
    elif instr.alu_imm:
        text = (f"{op.name.lower()} r{instr.rd}, "
                f"r{instr.rs1}, {instr.imm}")
    elif op is Opcode.LI:
        text = f"li r{instr.rd}, {instr.imm}"
    elif op is Opcode.MOV:
        text = f"mov r{instr.rd}, r{instr.rs1}"
    elif op is Opcode.LOAD:
        text = f"load r{instr.rd}, r{instr.rs1}, {instr.imm}"
    elif op is Opcode.STORE:
        text = f"store r{instr.rs2}, r{instr.rs1}, {instr.imm}"
    elif op is Opcode.CLFLUSH:
        text = f"clflush r{instr.rs1}, {instr.imm}"
    elif instr.is_conditional_branch:
        text = (f"{op.name.lower()} r{instr.rs1}, r{instr.rs2}, "
                f"{_format_target(instr.target, names_at)}")
    elif op is Opcode.JMP:
        text = f"jmp {_format_target(instr.target, names_at)}"
    elif op is Opcode.JMPI:
        text = f"jmpi r{instr.rs1}"
    elif op is Opcode.CALL:
        text = f"call {_format_target(instr.target, names_at)}"
        if instr.rd != 31:
            text += f", r{instr.rd}"
    elif op is Opcode.RET:
        text = "ret" if instr.rs1 == 31 else f"ret r{instr.rs1}"
    elif op is Opcode.FENCE:
        text = "fence"
    elif op is Opcode.RDCYCLE:
        text = f"rdcycle r{instr.rd}"
    elif op is Opcode.NOP:
        text = "nop"
    elif op is Opcode.HALT:
        text = "halt"
    else:  # pragma: no cover - the ISA above is exhaustive
        raise AssemblyError(f"cannot disassemble opcode {op}")
    return text + comment
