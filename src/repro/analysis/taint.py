"""Speculative-taint analysis: the static S-Pattern detector.

Dynamically, Conditional Speculation flags a memory access as
*suspect* when an older unresolved branch or store sits in the issue
queue, and the TPBuf narrows that to the S-Pattern: a speculative load
feeding the address of a second memory access.  This module derives
both signals statically:

- :func:`analyze_program` finds static S-Patterns.  For every
  speculation source — conditional branch (V1), indirect jump (V2),
  return (RSB) or store (V4) — it opens a bounded speculation window
  and tracks, with the generic dataflow engine, which registers hold
  values produced by loads executed inside that window.  A second
  memory access whose *address* register is tainted is a finding.

- :func:`static_suspect_pcs` computes the static over-approximation of
  the dynamic suspect set: every memory instruction that can be within
  :data:`DEFAULT_WINDOW` (typically ROB size) fetched instructions of a
  preceding unresolved memory/branch producer on *some* speculative
  path.  :mod:`repro.analysis.verify` checks this set covers every
  dependence the simulator actually records.

A ``FENCE`` (or serializing ``RDCYCLE``) closes every window crossing
it — the issue queue drains before younger instructions may issue — so
fence-mitigated gadgets analyze clean.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from ..isa.instructions import ALU_REG_OPS, Instruction, Opcode
from ..isa.program import Program
from .cfg import ControlFlowGraph, build_cfg
from .dataflow import ForwardDataflow, Lattice
from .report import AnalysisReport, Finding, GadgetKind

#: Default speculation window, in fetched instructions.  Sized to the
#: paper machine's ROB (Table III): nothing can stay speculative with
#: more than a ROB of younger instructions behind it.
DEFAULT_WINDOW = 192


def _source_kind(instr: Instruction) -> Optional[GadgetKind]:
    """Gadget family opened by ``instr`` as a speculation source."""
    if instr.is_conditional_branch:
        return GadgetKind.SPECTRE_V1
    if instr.op is Opcode.JMPI:
        return GadgetKind.SPECTRE_V2
    if instr.op is Opcode.RET:
        return GadgetKind.SPECTRE_RSB
    if instr.is_store:
        return GadgetKind.SPECTRE_V4
    return None


# ---------------------------------------------------------------------------
# Taint lattice (one speculation source per run)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TaintState:
    """Abstract state: remaining window plus per-register taint.

    ``window == 0`` is the *inert carrier*: the analysis has reached
    this point but the source's speculation window is closed (or was
    never opened on this path).  It propagates so that the source
    instruction itself is always evaluated, but carries no taint.

    ``taints`` maps register -> frozenset of PCs of the speculative
    loads whose values may reach it.
    """

    window: int
    taints: Tuple[Tuple[int, FrozenSet[int]], ...] = ()

    def taint_of(self, reg: int) -> FrozenSet[int]:
        if reg == 0:
            return frozenset()  # r0 is hardwired zero
        for key, value in self.taints:
            if key == reg:
                return value
        return frozenset()

    def with_taint(self, reg: int, tags: FrozenSet[int]) -> "TaintState":
        items = {key: value for key, value in self.taints}
        if tags:
            items[reg] = tags
        else:
            items.pop(reg, None)
        return TaintState(self.window, tuple(sorted(items.items())))


_INERT = TaintState(0)


class SpeculativeTaintLattice(Lattice[TaintState]):
    """Taint within the bounded window opened by one source."""

    def __init__(self, source_pc: int, window: int) -> None:
        self.source_pc = source_pc
        self.window = window

    # ---- lattice operations -------------------------------------------

    def join(self, a: TaintState, b: TaintState) -> TaintState:
        regs: Dict[int, FrozenSet[int]] = {k: v for k, v in a.taints}
        for reg, tags in b.taints:
            regs[reg] = regs.get(reg, frozenset()) | tags
        return TaintState(max(a.window, b.window),
                          tuple(sorted(regs.items())))

    def equals(self, a: TaintState, b: TaintState) -> bool:
        return a == b

    # ---- transfer ------------------------------------------------------

    def transfer(self, state: TaintState, address: int,
                 instruction: Instruction) -> Optional[TaintState]:
        if address == self.source_pc:
            # The source opens (or re-opens) the window; taint from a
            # previous pass through the source is discarded — it
            # belongs to speculation that has since resolved.
            return TaintState(self.window)
        if state.window == 0:
            return _INERT
        if instruction.is_serializing:
            # FENCE / RDCYCLE: the queue drains; speculation resolves.
            return _INERT
        window = state.window - 1
        if window == 0:
            return _INERT
        state = TaintState(window, state.taints)
        op = instruction.op
        if op is Opcode.LOAD:
            # A load inside the window is itself speculative: its value
            # is tainted, transitively with its address's taint.
            tags = state.taint_of(instruction.rs1) | {address}
            if instruction.rd != 0:
                state = state.with_taint(instruction.rd, tags)
            return state
        if op in ALU_REG_OPS:
            tags = (state.taint_of(instruction.rs1)
                    | state.taint_of(instruction.rs2))
            return state.with_taint(instruction.rd, tags)
        if instruction.alu_imm or op is Opcode.MOV:
            return state.with_taint(instruction.rd,
                                    state.taint_of(instruction.rs1))
        if op is Opcode.LI:
            return state.with_taint(instruction.rd, frozenset())
        if op in (Opcode.RDCYCLE, Opcode.CALL):
            if instruction.rd != 0:
                state = state.with_taint(instruction.rd, frozenset())
            return state
        return state


# ---------------------------------------------------------------------------
# Gadget detection
# ---------------------------------------------------------------------------


def _sink_findings(
    cfg: ControlFlowGraph,
    lattice: SpeculativeTaintLattice,
    kind: GadgetKind,
    source_instr: Instruction,
) -> List[Finding]:
    """Run the dataflow for one source and collect tainted-address
    memory accesses from the fixpoint pre-states."""
    engine = ForwardDataflow(cfg, lattice, indirect_to_all=True)
    # Seed every block with the inert carrier so the source block is
    # live even when it is architecturally unreachable (V2 gadget
    # bodies placed after HALT).
    result = engine.run({block.index: _INERT for block in cfg})
    findings: List[Finding] = []
    for addr, instr in cfg.iter_instructions():
        if not instr.is_memory:
            continue
        state = result.state_before(addr)
        if state is None or state.window == 0:
            continue
        tags = state.taint_of(instr.rs1)
        if not tags:
            continue
        findings.append(Finding(
            kind=kind,
            source_pc=lattice.source_pc,
            sink_pc=addr,
            tainting_loads=tuple(sorted(tags)),
            source_disasm=str(source_instr),
            sink_disasm=str(instr),
        ))
    return findings


def analyze_program(
    program: Program,
    window: int = DEFAULT_WINDOW,
    name: str = "program",
    cfg: Optional[ControlFlowGraph] = None,
    suspect_window: Optional[int] = None,
) -> AnalysisReport:
    """Scan ``program`` for static S-Pattern gadgets.

    One dataflow run per speculation source keeps the attribution
    exact: each finding names its source, its sink and the speculative
    loads in between.  Findings are deduplicated on
    ``(kind, source, sink)``.
    """
    cfg = cfg if cfg is not None else build_cfg(program)
    findings: List[Finding] = []
    seen: Set[Tuple[GadgetKind, int, int]] = set()
    for addr, instr in cfg.iter_instructions():
        kind = _source_kind(instr)
        if kind is None:
            continue
        lattice = SpeculativeTaintLattice(addr, window)
        for finding in _sink_findings(cfg, lattice, kind, instr):
            key = (finding.kind, finding.source_pc, finding.sink_pc)
            if key not in seen:
                seen.add(key)
                findings.append(finding)
    findings.sort(key=lambda f: (f.source_pc, f.sink_pc))
    return AnalysisReport(
        name=name,
        window=window,
        instructions=len(program),
        blocks=len(cfg),
        findings=findings,
        suspect_pcs=tuple(sorted(static_suspect_pcs(
            program, window=suspect_window or window, cfg=cfg
        ))),
    )


# ---------------------------------------------------------------------------
# Static suspect set (the verify oracle)
# ---------------------------------------------------------------------------


class _CountdownLattice(Lattice[int]):
    """State = cycles of speculation window remaining (0 = inert).

    Any memory or branch instruction is a potential security-dependence
    producer (the matrix formula's Y side) and re-opens a full window;
    serializing instructions drain the queue and close it.
    """

    def __init__(self, window: int) -> None:
        self.window = window

    def join(self, a: int, b: int) -> int:
        return max(a, b)

    def equals(self, a: int, b: int) -> bool:
        return a == b

    def transfer(self, state: int, address: int,
                 instruction: Instruction) -> Optional[int]:
        if instruction.is_serializing:
            return 0
        if instruction.is_memory or instruction.is_branch:
            return self.window
        return state - 1 if state > 0 else 0


def static_suspect_pcs(
    program: Program,
    window: int = DEFAULT_WINDOW,
    cfg: Optional[ControlFlowGraph] = None,
) -> Set[int]:
    """Memory-instruction PCs that may be *suspect* dynamically.

    A memory instruction is statically suspect when some speculative
    fetch path places an unresolved memory/branch producer within
    ``window`` instructions before it.  With ``window`` at least the
    ROB size this over-approximates the dynamic security matrix: a
    dynamic dependence needs producer and consumer co-resident in the
    ROB, i.e. strictly fewer than a ROB of instructions apart on the
    fetched path, and every fetched path is a path of the speculative
    CFG.
    """
    cfg = cfg if cfg is not None else build_cfg(program)
    engine = ForwardDataflow(cfg, _CountdownLattice(window),
                             indirect_to_all=True)
    result = engine.run({block.index: 0 for block in cfg})
    suspects: Set[int] = set()
    for addr, instr in cfg.iter_instructions():
        if not instr.is_memory:
            continue
        state = result.state_before(addr)
        if state is not None and state > 0:
            suspects.add(addr)
    return suspects
