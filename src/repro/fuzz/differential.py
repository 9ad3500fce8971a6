"""Differential checking: OoO core vs in-order oracle, plus the
assembler/builder round-trip property.

For any generated program, under every registered defense, the
out-of-order core must retire to exactly the architectural state the
in-order oracle computes (registers, memory, committed-instruction
count, halting) on the program the core ran: a software defense
(``slh``) rewrites it first.  The same program must also survive
``assemble(disassemble(p))`` unchanged — text serialization is how
fuzz cases are persisted and replayed, so a round-trip bug would
corrupt every regression case downstream.

Outcomes are structured, never asserted: the campaign layer decides
what to do with a mismatch (minimize, persist, fail).  A core that
raises a :class:`~repro.errors.SimulationError` while it runs (an
invariant violation, a deadlock) is a mismatch of kind ``error`` too.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from ..core.defense import defense_names
from ..core.policy import SecurityConfig
from ..errors import ExecutionError, SimulationError
from ..isa.assembler import assemble, disassemble
from ..isa.instructions import Opcode
from ..isa.oracle import OracleResult, run_oracle
from ..isa.program import Program
from ..params import MachineParams, tiny_config
from ..pipeline.processor import Processor
from ..pipeline.report import SimReport

#: Every registered defense — the default differential matrix.
ALL_MODES: Tuple[str, ...] = tuple(defense_names())


@dataclass(frozen=True)
class Mismatch:
    """One architectural disagreement between core and oracle."""

    kind: str          # "register" | "memory" | "committed" | "no_halt"
                       # | "error"
    mode: str          # protection mode the core ran under
    where: str         # "r5" / hex address / termination / "" /
                       # "InvariantViolation: <first line>"
    expected: int
    actual: int

    def render(self) -> str:
        if self.kind == "error":
            return f"[{self.mode}] error {self.where}"
        return (f"[{self.mode}] {self.kind} {self.where}: "
                f"oracle {self.expected:#x} != core {self.actual:#x}")


@dataclass
class DiffOutcome:
    """Result of one program's differential check."""

    #: Oracle executed to HALT within budget (a program that does not,
    #: or whose control leaves the program, is *invalid input*, not a
    #: finding; the minimizer makes such candidates).
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


def compare_with_oracle(
    cpu: Processor,
    report: SimReport,
    oracle: OracleResult,
    mode: str,
) -> List[Mismatch]:
    """Every difference between the architectural state ``cpu`` retired
    to and the oracle's.

    ``oracle`` must be the in-order run of ``cpu.program``, the
    program the core ran after
    :meth:`~repro.core.defense.Defense.transform_program`: ``slh``'s
    fences move code addresses and add retired instructions.  RDCYCLE
    destinations are not compared; the oracle defines RDCYCLE as the
    retired count, so their value differs by design.
    """
    if not report.halted:
        return [Mismatch("no_halt", mode, report.termination, 1, 0)]
    timing = {instruction.dest
              for instruction in cpu.program.instructions
              if instruction.op is Opcode.RDCYCLE}
    mismatches: List[Mismatch] = []
    for reg, want in enumerate(oracle.registers):
        got = cpu.arch_reg(reg)
        if got != want and reg not in timing:
            mismatches.append(Mismatch("register", mode, f"r{reg}",
                                       want, got))
    for vaddr in sorted(oracle.memory):
        want = oracle.mem(vaddr)
        got = cpu.read_vword(vaddr)
        if got != want:
            mismatches.append(Mismatch("memory", mode, f"{vaddr:#x}",
                                       want, got))
    if report.committed != oracle.retired:
        mismatches.append(Mismatch("committed", mode, "",
                                   oracle.retired, report.committed))
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
    """Run ``program`` through the OoO core under each protection mode
    and diff the architectural states against the oracle's run of the
    same program (of its rewrite, under a software defense).  Each core
    runs the structural invariant lint every cycle
    (:mod:`repro.pipeline.invariants`); a violation, or any other
    :class:`~repro.errors.SimulationError` the run raises, is that
    mode's ``error`` mismatch.  Building the core still raises: a bad
    mode or machine is a usage error, not a finding."""
    machine = machine if machine is not None else tiny_config()
    try:
        oracle = run_oracle(program, max_instructions=oracle_budget)
    except ExecutionError:  # control left the program: invalid input
        return DiffOutcome(valid=False, modes=tuple(modes))
    if not oracle.halted:
        return DiffOutcome(valid=False, modes=tuple(modes))
    mismatches: List[Mismatch] = []
    for mode in modes:
        cpu = Processor(program, machine=machine,
                        security=SecurityConfig(mode),
                        check_invariants=True)
        try:
            report = cpu.run(max_cycles=max_cycles)
        except SimulationError as exc:
            first_line = str(exc).partition("\n")[0]
            mismatches.append(Mismatch(
                "error", mode, f"{type(exc).__name__}: {first_line}", 0, 0))
            continue
        ran = cpu.program
        reference = oracle if ran is program else run_oracle(
            ran, max_instructions=oracle_budget)
        mismatches.extend(compare_with_oracle(cpu, report, reference,
                                              mode))
    error = roundtrip_error(program) if check_roundtrip else ""
    return DiffOutcome(
        valid=True,
        mismatches=tuple(mismatches),
        roundtrip_error=error,
        modes=tuple(modes),
        oracle_retired=oracle.retired,
    )
