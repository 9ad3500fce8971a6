"""Instruction set definition.

Every instruction occupies :data:`INSTRUCTION_BYTES` in the instruction
address space and operates on 64-bit registers.  Memory is word
addressed at :data:`WORD_BYTES` granularity (loads and stores align
their effective address down to a word boundary).
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum, auto
from typing import Tuple

INSTRUCTION_BYTES = 4
WORD_BYTES = 8
WORD_MASK = (1 << 64) - 1


class OpClass(Enum):
    """Coarse classification used by the issue queue and the security
    dependence matrix (the paper distinguishes MEMORY and BRANCH)."""

    ALU = auto()
    LOAD = auto()
    STORE = auto()
    BRANCH = auto()
    FLUSH = auto()
    FENCE = auto()
    CSR = auto()   # RDCYCLE
    NOP = auto()
    HALT = auto()


class LSQKind(Enum):
    """Which load/store queue a memory instruction occupies."""

    LOAD = auto()    # the load queue
    STORE = auto()   # the store queue (stores and line flushes)


class Opcode(Enum):
    """All opcodes understood by the core and the oracle."""

    # Register-register ALU.
    ADD = auto()
    SUB = auto()
    MUL = auto()
    DIV = auto()
    AND = auto()
    OR = auto()
    XOR = auto()
    SHL = auto()
    SHR = auto()
    # Register-immediate ALU.
    ADDI = auto()
    ANDI = auto()
    XORI = auto()
    SHLI = auto()
    SHRI = auto()
    LI = auto()
    MOV = auto()
    # Memory.
    LOAD = auto()
    STORE = auto()
    CLFLUSH = auto()
    # Control.
    BEQ = auto()
    BNE = auto()
    BLT = auto()
    BGE = auto()
    JMP = auto()
    JMPI = auto()
    CALL = auto()
    RET = auto()
    # Serializing / misc.
    FENCE = auto()
    RDCYCLE = auto()
    NOP = auto()
    HALT = auto()


#: Register-register ALU opcodes: ``rd = rs1 OP rs2``.
ALU_REG_OPS = frozenset({
    Opcode.ADD, Opcode.SUB, Opcode.MUL, Opcode.DIV,
    Opcode.AND, Opcode.OR, Opcode.XOR, Opcode.SHL, Opcode.SHR,
})
#: Register-immediate ALU opcodes: ``rd = rs1 OP imm``.  ``MOV``
#: (``rd = rs1``) is in neither set.
ALU_IMM_OPS = frozenset({
    Opcode.ADDI, Opcode.ANDI, Opcode.XORI, Opcode.SHLI, Opcode.SHRI,
})
#: Conditional branches: compare ``rs1`` with ``rs2``, jump to ``target``.
COND_BRANCH_OPS = frozenset({Opcode.BEQ, Opcode.BNE, Opcode.BLT,
                             Opcode.BGE})

_OPCLASS = {
    Opcode.LOAD: OpClass.LOAD,
    Opcode.STORE: OpClass.STORE,
    Opcode.CLFLUSH: OpClass.FLUSH,
    Opcode.FENCE: OpClass.FENCE,
    Opcode.RDCYCLE: OpClass.CSR,
    Opcode.NOP: OpClass.NOP,
    Opcode.HALT: OpClass.HALT,
    Opcode.JMP: OpClass.BRANCH,
    Opcode.JMPI: OpClass.BRANCH,
    Opcode.CALL: OpClass.BRANCH,
    Opcode.RET: OpClass.BRANCH,
}
for _op in COND_BRANCH_OPS:
    _OPCLASS[_op] = OpClass.BRANCH
for _op in ALU_REG_OPS | ALU_IMM_OPS | {Opcode.LI, Opcode.MOV}:
    _OPCLASS[_op] = OpClass.ALU

# Per-opcode classification, precomputed once.  Every flag below is a
# pure function of the opcode, so instructions can cache them as plain
# attributes at construction time instead of re-deriving them through
# properties on the simulator hot path (is_serializing/is_store alone
# are consulted millions of times per run).
_HAS_DEST = {
    op: (op in ALU_REG_OPS or op in ALU_IMM_OPS
         or op in (Opcode.LI, Opcode.MOV, Opcode.LOAD, Opcode.RDCYCLE,
                   Opcode.CALL))
    for op in Opcode
}
# Source-register pattern: 0 = none, 1 = (rs1,), 2 = (rs1, rs2).
_SRC_PATTERN = {op: 0 for op in Opcode}
for _op in (ALU_IMM_OPS | {Opcode.MOV, Opcode.LOAD, Opcode.CLFLUSH,
                           Opcode.JMPI, Opcode.RET}):
    _SRC_PATTERN[_op] = 1
for _op in (ALU_REG_OPS | COND_BRANCH_OPS | {Opcode.STORE}):
    _SRC_PATTERN[_op] = 2


# Functional-unit classes (``Instruction.fu_class``): the core keeps
# one latency per class, indexed by it.
FU_INT_ALU = 0
FU_MUL = 1
FU_DIV = 2


# Decoded ALU operations (``Instruction.alu_fn``): each computes exactly
# what :func:`evaluate_alu` computes for its opcodes, without walking
# the opcode chain.  Module-level functions, not closures, so that a
# decoded operation pickles by reference like any other function.
def _alu_add(a: int, b: int) -> int:
    return (a + b) & WORD_MASK


def _alu_sub(a: int, b: int) -> int:
    return (a - b) & WORD_MASK


def _alu_mul(a: int, b: int) -> int:
    return (a * b) & WORD_MASK


def _alu_div(a: int, b: int) -> int:
    if b == 0:
        return WORD_MASK
    return (a // b) & WORD_MASK


def _alu_and(a: int, b: int) -> int:
    return a & b & WORD_MASK


def _alu_or(a: int, b: int) -> int:
    return (a | b) & WORD_MASK


def _alu_xor(a: int, b: int) -> int:
    return (a ^ b) & WORD_MASK


def _alu_shl(a: int, b: int) -> int:
    return (a << (b & 63)) & WORD_MASK


def _alu_shr(a: int, b: int) -> int:
    return (a & WORD_MASK) >> (b & 63)


def _alu_mov(a: int, b: int) -> int:
    return a & WORD_MASK


_ALU_FN = {
    Opcode.ADD: _alu_add, Opcode.ADDI: _alu_add,
    Opcode.SUB: _alu_sub,
    Opcode.MUL: _alu_mul,
    Opcode.DIV: _alu_div,
    Opcode.AND: _alu_and, Opcode.ANDI: _alu_and,
    Opcode.OR: _alu_or,
    Opcode.XOR: _alu_xor, Opcode.XORI: _alu_xor,
    Opcode.SHL: _alu_shl, Opcode.SHLI: _alu_shl,
    Opcode.SHR: _alu_shr, Opcode.SHRI: _alu_shr,
    Opcode.MOV: _alu_mov,
}

# Decoded conditional-branch comparisons (``Instruction.branch_cmp``),
# each equal to :func:`branch_taken` for its opcode.  Flipping the sign
# bit maps signed 64-bit order onto unsigned order.
_SIGN_BIT = 1 << 63


def _branch_eq(a: int, b: int) -> bool:
    return (a & WORD_MASK) == (b & WORD_MASK)


def _branch_ne(a: int, b: int) -> bool:
    return (a & WORD_MASK) != (b & WORD_MASK)


def _branch_lt(a: int, b: int) -> bool:
    return ((a & WORD_MASK) ^ _SIGN_BIT) < ((b & WORD_MASK) ^ _SIGN_BIT)


def _branch_ge(a: int, b: int) -> bool:
    return ((a & WORD_MASK) ^ _SIGN_BIT) >= ((b & WORD_MASK) ^ _SIGN_BIT)


_BRANCH_CMP = {
    Opcode.BEQ: _branch_eq,
    Opcode.BNE: _branch_ne,
    Opcode.BLT: _branch_lt,
    Opcode.BGE: _branch_ge,
}


@dataclass(frozen=True)
class Instruction:
    """One static instruction.

    Fields are interpreted per opcode:

    - ALU reg-reg: ``rd = rs1 OP rs2``
    - ALU reg-imm: ``rd = rs1 OP imm`` (``MOV`` copies ``rs1``)
    - ``LI``: ``rd = imm``
    - ``LOAD``: ``rd = mem[R[rs1] + imm]``
    - ``STORE``: ``mem[R[rs1] + imm] = R[rs2]``
    - ``CLFLUSH``: flush the line containing ``R[rs1] + imm``
    - conditional branches: compare ``rs1`` and ``rs2``, jump to ``target``
    - ``JMP``: jump to ``target``; ``JMPI``: jump to ``R[rs1]``
    - ``RDCYCLE``: ``rd = current cycle`` (serializing)
    """

    op: Opcode
    rd: int = 0
    rs1: int = 0
    rs2: int = 0
    imm: int = 0
    target: int = 0
    # Optional label carried for diagnostics / disassembly.
    note: str = ""

    # ---- decoded facts ----------------------------------------------------
    #
    # Everything the simulator asks of a static instruction is decoded
    # once here, as plain instance attributes: the core runs every
    # instruction many times, and on its hot path an ``Opcode`` member
    # read or an Enum-keyed lookup costs several attribute reads, and
    # :func:`evaluate_alu` walks an if-chain over the opcode.  All are
    # pure functions of ``op`` (plus rd/rs1/rs2 for dest/sources):
    #
    # - ``opclass`` — coarse class (the paper distinguishes MEMORY and
    #   BRANCH)
    # - ``is_alu`` — ``opclass`` is ALU: the ALU ops, ``LI`` and ``MOV``
    # - ``is_load`` / ``is_store`` / ``is_flush``
    # - ``is_memory`` — memory instruction in the sense of the security
    #   dependence matrix formula (loads, stores and line flushes)
    # - ``is_branch`` / ``is_conditional_branch`` / ``is_indirect`` /
    #   ``is_call`` / ``is_return``
    # - ``is_serializing`` — issues only from the head of the ROB
    #   (FENCE, RDCYCLE); ``is_rdcycle`` — reads the cycle counter
    # - ``is_halt``
    # - ``dest`` — destination architectural register or None (R0
    #   writes are discarded by the core)
    # - ``sources`` — architectural source registers, in operand order
    # - ``alu_imm`` — a register-immediate ALU op (:data:`ALU_IMM_OPS`):
    #   its second operand is ``imm``
    # - ``alu_fn`` — for the opcodes :func:`evaluate_alu` accepts (the
    #   ALU ops and ``MOV``), a module-level function ``(a, b) ->
    #   result`` equal to ``evaluate_alu(op, a, b)``; None otherwise
    # - ``branch_cmp`` — for a conditional branch, a module-level
    #   function ``(a, b) -> taken`` equal to ``branch_taken(op, a,
    #   b)``; None otherwise
    # - ``fu_class`` — the functional unit it executes on
    #   (:data:`FU_INT_ALU`, :data:`FU_MUL` or :data:`FU_DIV`)
    #
    # and the facts dispatch needs:
    #
    # - ``needs_iq`` — takes an issue-queue entry (NOP and HALT do not)
    # - ``lsq_kind`` — the :class:`LSQKind` it occupies, or None
    # - ``renames_dest`` — allocates a physical destination register
    #   (R0 is never renamed)
    # - ``issue_operands`` — how many leading ``sources`` it waits for
    #   before it may issue: all of them, except a store, which issues
    #   on its address operand alone and captures its data later
    #
    # They are intentionally NOT dataclass fields: equality, hashing
    # and repr consider only the encoding fields above, and
    # :meth:`__reduce__` pickles only those, so a copy decodes afresh.

    def __post_init__(self) -> None:
        op = self.op
        put = object.__setattr__
        put(self, "opclass", _OPCLASS[op])
        put(self, "is_alu", _OPCLASS[op] is OpClass.ALU)
        put(self, "is_load", op is Opcode.LOAD)
        put(self, "is_store", op is Opcode.STORE)
        put(self, "is_flush", op is Opcode.CLFLUSH)
        put(self, "is_memory",
            op is Opcode.LOAD or op is Opcode.STORE
            or op is Opcode.CLFLUSH)
        put(self, "is_branch", _OPCLASS[op] is OpClass.BRANCH)
        put(self, "is_conditional_branch", op in COND_BRANCH_OPS)
        put(self, "is_indirect", op is Opcode.JMPI or op is Opcode.RET)
        put(self, "is_call", op is Opcode.CALL)
        put(self, "is_return", op is Opcode.RET)
        put(self, "is_serializing",
            op is Opcode.FENCE or op is Opcode.RDCYCLE)
        put(self, "is_rdcycle", op is Opcode.RDCYCLE)
        put(self, "is_halt", op is Opcode.HALT)
        put(self, "alu_imm", op in ALU_IMM_OPS)
        put(self, "alu_fn", _ALU_FN.get(op))
        put(self, "branch_cmp", _BRANCH_CMP.get(op))
        if op is Opcode.MUL:
            fu_class = FU_MUL
        elif op is Opcode.DIV:
            fu_class = FU_DIV
        else:
            fu_class = FU_INT_ALU
        put(self, "fu_class", fu_class)
        dest = self.rd if _HAS_DEST[op] else None
        put(self, "dest", dest)
        pattern = _SRC_PATTERN[op]
        if pattern == 2:
            sources: Tuple[int, ...] = (self.rs1, self.rs2)
        elif pattern == 1:
            sources = (self.rs1,)
        else:
            sources = ()
        put(self, "sources", sources)
        put(self, "needs_iq", op is not Opcode.NOP and op is not Opcode.HALT)
        if op is Opcode.LOAD:
            lsq_kind = LSQKind.LOAD
        elif op is Opcode.STORE or op is Opcode.CLFLUSH:
            lsq_kind = LSQKind.STORE
        else:
            lsq_kind = None
        put(self, "lsq_kind", lsq_kind)
        put(self, "renames_dest", dest is not None and dest != 0)
        put(self, "issue_operands", 1 if op is Opcode.STORE else pattern)

    def __reduce__(self):
        # Only the encoding: loading decodes the instruction again.
        return (Instruction, (self.op, self.rd, self.rs1, self.rs2,
                              self.imm, self.target, self.note))

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        parts = [self.op.name.lower()]
        if self.dest is not None:
            parts.append(f"r{self.rd},")
        if self.sources:
            parts.append(", ".join(f"r{r}" for r in self.sources))
        if self.alu_imm or self.op in (
            Opcode.MOV, Opcode.LI, Opcode.LOAD, Opcode.STORE, Opcode.CLFLUSH
        ):
            parts.append(f"#{self.imm}")
        if self.is_branch and not self.is_indirect:
            parts.append(f"@{self.target:#x}")
        if self.note:
            parts.append(f"; {self.note}")
        return " ".join(parts)


def mask64(value: int) -> int:
    """Truncate to 64 bits (unsigned)."""
    return value & WORD_MASK


def to_signed(value: int) -> int:
    """Interpret a 64-bit pattern as a signed integer."""
    value = mask64(value)
    if value >= 1 << 63:
        return value - (1 << 64)
    return value


def evaluate_alu(op: Opcode, a: int, b: int) -> int:
    """Compute a reg-reg or reg-imm ALU result (inputs already 64-bit)."""
    if op in (Opcode.ADD, Opcode.ADDI):
        return mask64(a + b)
    if op is Opcode.SUB:
        return mask64(a - b)
    if op is Opcode.MUL:
        return mask64(a * b)
    if op is Opcode.DIV:
        if b == 0:
            return WORD_MASK
        return mask64(a // b)
    if op in (Opcode.AND, Opcode.ANDI):
        return mask64(a & b)
    if op is Opcode.OR:
        return mask64(a | b)
    if op in (Opcode.XOR, Opcode.XORI):
        return mask64(a ^ b)
    if op in (Opcode.SHL, Opcode.SHLI):
        return mask64(a << (b & 63))
    if op in (Opcode.SHR, Opcode.SHRI):
        return mask64(a) >> (b & 63)
    if op is Opcode.MOV:
        return mask64(a)
    raise ValueError(f"not an ALU opcode: {op}")


def branch_taken(op: Opcode, a: int, b: int) -> bool:
    """Evaluate a conditional branch (BLT/BGE compare signed)."""
    if op is Opcode.BEQ:
        return mask64(a) == mask64(b)
    if op is Opcode.BNE:
        return mask64(a) != mask64(b)
    if op is Opcode.BLT:
        return to_signed(a) < to_signed(b)
    if op is Opcode.BGE:
        return to_signed(a) >= to_signed(b)
    raise ValueError(f"not a conditional branch: {op}")
