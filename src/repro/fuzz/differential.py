"""Differential checking: OoO core vs in-order oracle, plus the
assembler/builder round-trip property.

For any generated program, under every protection mode, the
out-of-order core must retire to exactly the architectural state the
in-order oracle computes (registers, memory, committed-instruction
count, halting).  The same program must also survive
``assemble(disassemble(p))`` unchanged — text serialization is how
fuzz cases are persisted and replayed, so a round-trip bug would
corrupt every regression case downstream.

Outcomes are structured, never asserted: the campaign layer decides
what to do with a mismatch (minimize, persist, fail).
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.defense import PAPER_DEFENSES
from ..core.policy import SecurityConfig
from ..isa.assembler import assemble, disassemble
from ..isa.instructions import WORD_BYTES
from ..isa.oracle import OracleResult, run_oracle
from ..isa.program import Program
from ..params import MachineParams, tiny_config
from ..pipeline.processor import Processor

_WORD_ALIGN = ~(WORD_BYTES - 1)

#: The paper's four modes — the default differential matrix.
#: ``--modes`` / campaigns can target any registered defense by name.
ALL_MODES: Tuple[str, ...] = PAPER_DEFENSES


@dataclass(frozen=True)
class Mismatch:
    """One architectural disagreement between core and oracle."""

    kind: str          # "register" | "memory" | "committed" | "no_halt"
    mode: str          # protection mode the core ran under
    where: str         # "r5" / hex address / ""
    expected: int
    actual: int

    def render(self) -> str:
        return (f"[{self.mode}] {self.kind} {self.where}: "
                f"oracle {self.expected:#x} != core {self.actual:#x}")


@dataclass
class DiffOutcome:
    """Result of one program's differential check."""

    #: Oracle executed to HALT within budget (a generated program that
    #: does not is *invalid input*, not a finding).
    valid: bool
    mismatches: Tuple[Mismatch, ...] = ()
    #: Round-trip failure description ("" when the property held).
    roundtrip_error: str = ""
    modes: Tuple[str, ...] = ()
    oracle_retired: int = 0

    @property
    def clean(self) -> bool:
        return self.valid and not self.mismatches \
            and not self.roundtrip_error

    def render(self) -> str:
        if not self.valid:
            return "invalid program (oracle did not halt)"
        if self.clean:
            return (f"clean over {len(self.modes)} mode(s), "
                    f"{self.oracle_retired} retired")
        lines = [m.render() for m in self.mismatches]
        if self.roundtrip_error:
            lines.append(f"round-trip: {self.roundtrip_error}")
        return "\n".join(lines)


def _encoding(program: Program) -> List[Tuple[object, ...]]:
    """Per-instruction encoding fields (``note`` excluded — it is a
    comment, dropped by design on reassembly)."""
    return [(i.op, i.rd, i.rs1, i.rs2, i.imm, i.target)
            for i in program.instructions]


def roundtrip_error(program: Program) -> str:
    """Check ``assemble(disassemble(program))`` reproduces the program
    (instruction encodings, labels, data image).  Returns an error
    description or ``""``."""
    try:
        text = disassemble(program)
        rebuilt = assemble(text, base_address=program.base_address)
    except Exception as exc:  # noqa: BLE001 - any failure is a finding
        return f"{type(exc).__name__}: {exc}"
    if _encoding(rebuilt) != _encoding(program):
        for index, (a, b) in enumerate(
                zip(_encoding(program), _encoding(rebuilt))):
            if a != b:
                return f"instruction {index} differs: {a} != {b}"
        return (f"instruction count differs: {len(program.instructions)}"
                f" != {len(rebuilt.instructions)}")
    if rebuilt.labels != program.labels:
        return "label table differs"
    if rebuilt.initial_memory != program.initial_memory:
        return "initial memory differs"
    if rebuilt.entry_point != program.entry_point:
        return "entry point differs"
    return ""


def _compare_state(
    cpu: Processor,
    oracle: OracleResult,
    mode: str,
    committed: int,
    halted: bool,
) -> List[Mismatch]:
    mismatches: List[Mismatch] = []
    if not halted:
        mismatches.append(Mismatch("no_halt", mode, "", 1, 0))
        return mismatches
    for reg in range(32):
        want = oracle.reg(reg)
        got = cpu.arch_reg(reg)
        if got != want:
            mismatches.append(Mismatch("register", mode, f"r{reg}",
                                       want, got))
    for vaddr in sorted(oracle.memory):
        want = oracle.mem(vaddr)
        got = cpu.read_vword(vaddr)
        if got != want:
            mismatches.append(Mismatch("memory", mode, f"{vaddr:#x}",
                                       want, got))
    if committed != oracle.retired:
        mismatches.append(Mismatch("committed", mode, "",
                                   oracle.retired, committed))
    return mismatches


def differential_check(
    program: Program,
    *,
    modes: Sequence[str] = ALL_MODES,
    machine: Optional[MachineParams] = None,
    max_cycles: int = 500_000,
    oracle_budget: int = 200_000,
    check_roundtrip: bool = True,
) -> DiffOutcome:
    """Run ``program`` through the oracle and through the OoO core
    under each protection mode, and diff the architectural states."""
    machine = machine if machine is not None else tiny_config()
    oracle = run_oracle(program, max_instructions=oracle_budget)
    if not oracle.halted:
        return DiffOutcome(valid=False, modes=tuple(modes))
    mismatches: List[Mismatch] = []
    for mode in modes:
        cpu = Processor(program, machine=machine,
                        security=SecurityConfig(mode))
        report = cpu.run(max_cycles=max_cycles)
        mismatches.extend(_compare_state(
            cpu, oracle, mode, report.committed, report.halted))
    error = roundtrip_error(program) if check_roundtrip else ""
    return DiffOutcome(
        valid=True,
        mismatches=tuple(mismatches),
        roundtrip_error=error,
        modes=tuple(modes),
        oracle_retired=oracle.retired,
    )
