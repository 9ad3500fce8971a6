"""Value-set abstract interpretation and finding refutation.

PR 1's taint pass deliberately over-approximates: every load inside a
speculation window taints, so index-masked (provably in-bounds) chains
are reported next to genuinely exploitable ones.  This module adds the
precision layer: a strided-interval *value-set* lattice over the
generic :class:`~repro.analysis.dataflow.ForwardDataflow` engine that
computes, for every program point, the set of values each register may
hold on **any** speculative path.  The facts it derives are pure
dataflow facts — `li` constants, shifts/adds of bounded values and
above all `andi` masking — which hold on mispredicted paths exactly as
they hold architecturally.  Branch-edge constraints are deliberately
*not* used: a bounds check does not constrain the wrong path (that gap
is precisely Spectre V1), whereas a mask instruction does.

:func:`refine_report` uses the fixpoint to *refute* findings whose
tainting loads are provably harmless:

- ``in-bounds``   — every speculative load feeding the sink has a
  bounded address range that lies entirely inside one contiguous
  initialized data region of the program image and does not intersect
  any declared secret word.  The attacker cannot steer the read.
- ``no-alias``    — additionally required for V4 (store-bypass)
  findings: the source store's address range is bounded and disjoint
  from every tainting load's range, so the load cannot observe stale
  pre-store data.  In-bounds alone is *not* sufficient for V4: an
  in-bounds load can still leak a stale secret.
- ``accelerated`` — the same in-bounds / no-alias facts, but only
  provable after clamping the widening fixpoint with closed-form
  induction-variable caps from :mod:`repro.analysis.summaries` (a
  plain widening run confirmed the finding; the accelerated retry
  refuted it).  The caps are part of the refutation's bounds, so the
  downgrade stays machine-checkable.

Each refutation carries the interval bounds and the containing region,
so the downgrade is machine-checkable after the fact.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import (TYPE_CHECKING, Dict, FrozenSet, Iterable, List, Mapping,
                    Optional, Sequence, Tuple)

from ..isa.instructions import WORD_BYTES, Instruction, Opcode
from ..isa.program import Program
from .cfg import ControlFlowGraph, build_cfg
from .dataflow import DataflowResult, ForwardDataflow, Lattice
from .report import AnalysisReport, Finding, GadgetKind

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .summaries import ProgramSummaries

U64_MAX = (1 << 64) - 1


# ---------------------------------------------------------------------------
# The abstract value: a strided interval over unsigned 64-bit values
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ValueSet:
    """``{lo, lo + stride, ..., <= hi}`` with ``stride == 0`` iff the
    value is the single constant ``lo == hi``."""

    lo: int
    hi: int
    stride: int

    def __post_init__(self) -> None:
        if not 0 <= self.lo <= self.hi <= U64_MAX:
            raise ValueError(f"bad interval [{self.lo}, {self.hi}]")
        if (self.stride == 0) != (self.lo == self.hi):
            raise ValueError("stride 0 iff constant")

    @property
    def is_constant(self) -> bool:
        return self.stride == 0

    @property
    def is_top(self) -> bool:
        return self.lo == 0 and self.hi == U64_MAX

    @property
    def is_bounded(self) -> bool:
        """A usable bound: strictly smaller than the full domain."""
        return not self.is_top

    def shift(self, delta: int) -> Optional["ValueSet"]:
        """Add a constant; ``None`` on wrap-around."""
        lo, hi = self.lo + delta, self.hi + delta
        if lo < 0 or hi > U64_MAX:
            return None
        return ValueSet(lo, hi, self.stride)

    def __str__(self) -> str:
        if self.is_top:
            return "top"
        if self.is_constant:
            return f"{self.lo:#x}"
        return f"[{self.lo:#x}, {self.hi:#x}]/{self.stride}"


TOP = ValueSet(0, U64_MAX, 1)
ZERO = ValueSet(0, 0, 0)


def constant(value: int) -> ValueSet:
    value &= U64_MAX
    return ValueSet(value, value, 0)


def _stride_for(lo: int, hi: int, stride: int) -> int:
    return 0 if lo == hi else max(1, stride)


def vs_join(a: ValueSet, b: ValueSet) -> ValueSet:
    if a == b:
        return a
    if a.is_top or b.is_top:
        return TOP
    lo, hi = min(a.lo, b.lo), max(a.hi, b.hi)
    stride = math.gcd(math.gcd(a.stride, b.stride), abs(a.lo - b.lo))
    return ValueSet(lo, hi, _stride_for(lo, hi, stride))


def vs_widen(old: ValueSet, new: ValueSet) -> ValueSet:
    """Classic interval widening: unstable bounds jump to the domain
    edge, killing infinite ascending chains (e.g. a loop counter)."""
    if new == old:
        return old
    lo = old.lo if new.lo >= old.lo else 0
    hi = old.hi if new.hi <= old.hi else U64_MAX
    stride = math.gcd(old.stride, new.stride)
    return ValueSet(lo, hi, _stride_for(lo, hi, stride))


def vs_meet(a: ValueSet, b: ValueSet) -> ValueSet:
    """Sound meet with an externally *proven* invariant ``b`` (an
    accelerated induction-variable cap): the result over-approximates
    the true intersection — strides fall back to gcd, and an empty
    interval intersection answers ``b`` (the invariant holds
    everywhere, so a state contradicting it is simply unreachable and
    any sound value serves)."""
    if a == b or b.is_top:
        return a
    if a.is_top:
        return b
    lo, hi = max(a.lo, b.lo), min(a.hi, b.hi)
    if lo > hi:
        return b
    stride = math.gcd(a.stride, b.stride)
    return ValueSet(lo, hi, _stride_for(lo, hi, stride))


def vs_add(a: ValueSet, b: ValueSet) -> ValueSet:
    if a.is_top or b.is_top:
        return TOP
    lo, hi = a.lo + b.lo, a.hi + b.hi
    if hi > U64_MAX:
        return TOP
    stride = math.gcd(a.stride, b.stride)
    return ValueSet(lo, hi, _stride_for(lo, hi, stride))


def vs_sub(a: ValueSet, b: ValueSet) -> ValueSet:
    if a.is_top or b.is_top:
        return TOP
    lo, hi = a.lo - b.hi, a.hi - b.lo
    if lo < 0:
        return TOP  # may wrap through 2^64
    stride = math.gcd(a.stride, b.stride)
    return ValueSet(lo, hi, _stride_for(lo, hi, stride))


def vs_shl(a: ValueSet, k: int) -> ValueSet:
    if a.is_top or not 0 <= k <= 63:
        return TOP
    hi = a.hi << k
    if hi > U64_MAX:
        return TOP
    return ValueSet(a.lo << k, hi, _stride_for(a.lo << k, hi, a.stride << k))


def vs_shr(a: ValueSet, k: int) -> ValueSet:
    if a.is_top or not 0 <= k <= 63:
        return TOP
    lo, hi = a.lo >> k, a.hi >> k
    if a.stride and a.stride % (1 << k) == 0:
        stride = a.stride >> k
    else:
        stride = 1
    return ValueSet(lo, hi, _stride_for(lo, hi, stride))


def vs_mul(a: ValueSet, b: ValueSet) -> ValueSet:
    if a.is_constant and b.is_constant:
        return constant(a.lo * b.lo)
    for vals, const in ((a, b), (b, a)):
        if const.is_constant and not vals.is_top:
            c = const.lo
            if c == 0:
                return ZERO
            hi = vals.hi * c
            if hi > U64_MAX:
                return TOP
            lo = vals.lo * c
            return ValueSet(lo, hi, _stride_for(lo, hi, vals.stride * c))
    return TOP


def vs_and(a: ValueSet, b: ValueSet) -> ValueSet:
    if a.is_constant and b.is_constant:
        return constant(a.lo & b.lo)
    # AND with any value bounded by m yields a result in [0, m]: the
    # masking idiom that makes Spectre V1 indexes provably in-bounds.
    bounds = [v.hi for v in (a, b) if v.is_bounded]
    if not bounds:
        return TOP
    hi = min(bounds)
    return ValueSet(0, hi, _stride_for(0, hi, 1))


def vs_div(a: ValueSet, b: ValueSet) -> ValueSet:
    if not (b.is_constant and b.lo > 0) or a.is_top:
        return TOP
    lo, hi = a.lo // b.lo, a.hi // b.lo
    return ValueSet(lo, hi, _stride_for(lo, hi, 1))


# ---------------------------------------------------------------------------
# The lattice: register -> ValueSet (absent register == TOP)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ValueSetState:
    """Per-register value sets; registers not present are unknown
    (TOP).  ``r0`` is hardwired zero and never stored."""

    values: Tuple[Tuple[int, ValueSet], ...] = ()

    def value_of(self, reg: int) -> ValueSet:
        if reg == 0:
            return ZERO
        for key, value in self.values:
            if key == reg:
                return value
        return TOP

    def with_value(self, reg: int, value: ValueSet) -> "ValueSetState":
        if reg == 0:
            return self
        items = {key: val for key, val in self.values}
        if value.is_top:
            items.pop(reg, None)
        else:
            items[reg] = value
        return ValueSetState(tuple(sorted(items.items())))

    @staticmethod
    def all_zero(num_regs: int = 32) -> "ValueSetState":
        """The machine's reset state: every register holds zero."""
        return ValueSetState(tuple(
            (reg, ZERO) for reg in range(1, num_regs)
        ))


_ALU_SHIFTS = {Opcode.SHLI: vs_shl, Opcode.SHRI: vs_shr}


class ValueSetLattice(Lattice[ValueSetState]):
    """Value-set analysis over the speculative CFG.

    The transfer function only uses facts that hold on every fetched
    path — wrong paths included — so the fixpoint is sound for
    refuting speculative findings.  Loads produce TOP (memory contents
    are not tracked), as do instructions with no rule.
    """

    def join(self, a: ValueSetState, b: ValueSetState) -> ValueSetState:
        regs = {key: value for key, value in a.values}
        merged: Dict[int, ValueSet] = {}
        for reg, value in b.values:
            other = regs.get(reg)
            if other is not None:
                joined = vs_join(other, value)
                if not joined.is_top:
                    merged[reg] = joined
        return ValueSetState(tuple(sorted(merged.items())))

    def equals(self, a: ValueSetState, b: ValueSetState) -> bool:
        return a == b

    def widen(self, old: ValueSetState, new: ValueSetState) -> ValueSetState:
        olds = {key: value for key, value in old.values}
        widened: Dict[int, ValueSet] = {}
        for reg, value in new.values:
            prior = olds.get(reg)
            result = vs_widen(prior, value) if prior is not None else value
            if not result.is_top:
                widened[reg] = result
        return ValueSetState(tuple(sorted(widened.items())))

    def transfer(self, state: ValueSetState, address: int,
                 instruction: Instruction) -> Optional[ValueSetState]:
        op = instruction.op
        rd = instruction.rd
        if op is Opcode.LI:
            return state.with_value(rd, constant(instruction.imm))
        if op is Opcode.MOV:
            return state.with_value(rd, state.value_of(instruction.rs1))
        if op in (Opcode.ADDI, Opcode.ANDI, Opcode.XORI,
                  Opcode.SHLI, Opcode.SHRI):
            src = state.value_of(instruction.rs1)
            imm = instruction.imm
            if op is Opcode.ADDI:
                result = (src.shift(imm) or TOP) if src.is_bounded else TOP
            elif op is Opcode.ANDI:
                result = vs_and(src, constant(imm)) if imm >= 0 else TOP
            elif op is Opcode.XORI:
                result = (constant(src.lo ^ imm)
                          if src.is_constant and imm >= 0 else TOP)
            else:
                result = _ALU_SHIFTS[op](src, imm)
            return state.with_value(rd, result)
        if op in (Opcode.ADD, Opcode.SUB, Opcode.MUL, Opcode.DIV,
                  Opcode.AND, Opcode.OR, Opcode.XOR,
                  Opcode.SHL, Opcode.SHR):
            a = state.value_of(instruction.rs1)
            b = state.value_of(instruction.rs2)
            if op is Opcode.ADD:
                result = vs_add(a, b)
            elif op is Opcode.SUB:
                result = vs_sub(a, b)
            elif op is Opcode.MUL:
                result = vs_mul(a, b)
            elif op is Opcode.DIV:
                result = vs_div(a, b)
            elif op is Opcode.AND:
                result = vs_and(a, b)
            elif op in (Opcode.SHL, Opcode.SHR) and b.is_constant:
                result = _ALU_SHIFTS[
                    Opcode.SHLI if op is Opcode.SHL else Opcode.SHRI
                ](a, b.lo)
            elif a.is_constant and b.is_constant:
                result = constant(a.lo | b.lo if op is Opcode.OR
                                  else a.lo ^ b.lo)
            else:
                result = TOP
            return state.with_value(rd, result)
        if op is Opcode.CALL:
            # The link register holds the (constant) return address.
            return state.with_value(rd, constant(address + 4))
        dest = instruction.dest
        if dest is not None:
            # LOAD / RDCYCLE: value unknown.
            return state.with_value(dest, TOP)
        return state


def compute_value_sets(
    program: Program,
    cfg: Optional[ControlFlowGraph] = None,
    caps: Optional[Mapping[int, ValueSet]] = None,
) -> DataflowResult[ValueSetState]:
    """Fixpoint value sets over the speculative CFG, from reset state.

    ``caps`` maps registers to *globally proven* value invariants
    (accelerated induction-variable ranges from
    :mod:`repro.analysis.summaries`).  They are met into every block
    entry state, so where plain widening jumps a loop counter to TOP
    the accelerated fixpoint lands on the closed-form strided interval
    instead.
    """
    cfg = cfg if cfg is not None else build_cfg(program)
    refine = None
    if caps:
        cap_items = tuple(sorted(caps.items()))

        def refine(_index: int, state: ValueSetState) -> ValueSetState:
            for reg, cap in cap_items:
                state = state.with_value(
                    reg, vs_meet(state.value_of(reg), cap))
            return state

    engine = ForwardDataflow(cfg, ValueSetLattice(), indirect_to_all=True,
                             refine_entry=refine)
    seeds: Dict[int, ValueSetState] = {}
    entry_point = program.entry_point
    if cfg.blocks and entry_point is not None:
        seeds[cfg.block_at(entry_point).index] = ValueSetState.all_zero()
    return engine.run(seeds)


# ---------------------------------------------------------------------------
# Data regions and refutation
# ---------------------------------------------------------------------------


def data_regions(program: Program) -> List[Tuple[int, int]]:
    """Maximal contiguous initialized word runs ``(lo, hi)`` of the
    program's data image, both bounds inclusive word addresses."""
    addresses = sorted(program.initial_memory)
    regions: List[Tuple[int, int]] = []
    for address in addresses:
        if regions and address == regions[-1][1] + WORD_BYTES:
            regions[-1] = (regions[-1][0], address)
        else:
            regions.append((address, address))
    return regions


@dataclass(frozen=True)
class LoadBound:
    """Machine-checkable proof piece: the address range of one
    speculative load and the initialized region containing it."""

    pc: int
    lo: int
    hi: int
    stride: int
    region_lo: int
    region_hi: int

    def to_dict(self) -> Dict[str, int]:
        return {
            "pc": self.pc, "lo": self.lo, "hi": self.hi,
            "stride": self.stride,
            "region_lo": self.region_lo, "region_hi": self.region_hi,
        }


@dataclass(frozen=True)
class Refutation:
    """Why a finding was downgraded."""

    #: ``in-bounds`` (V1/V2/RSB), ``no-alias`` (V4, implies in-bounds
    #: of the loads plus store/load disjointness), or ``accelerated``
    #: (either of the above, provable only under induction-variable
    #: caps — see :func:`refine_report`).
    reason: str
    bounds: Tuple[LoadBound, ...]
    detail: str = ""

    def to_dict(self) -> Dict[str, object]:
        return {
            "reason": self.reason,
            "bounds": [bound.to_dict() for bound in self.bounds],
            "detail": self.detail,
        }


@dataclass(frozen=True)
class RefutedFinding:
    finding: Finding
    refutation: Refutation

    def render(self) -> str:
        lines = [self.finding.render().replace(
            "suggested fence", "refuted finding; unneeded fence")]
        lines.append(f"    REFUTED ({self.refutation.reason}): "
                     f"{self.refutation.detail}")
        return "\n".join(lines)


@dataclass
class RefinedReport:
    """The precision layer's verdict on one :class:`AnalysisReport`."""

    base: AnalysisReport
    confirmed: List[Finding]
    refuted: List[RefutedFinding]
    #: Secret words the refinement was told about (reads that may
    #: touch these are never refuted).
    secret_words: Tuple[int, ...] = ()

    @property
    def clean(self) -> bool:
        return not self.confirmed

    @property
    def accelerated_count(self) -> int:
        """Refutations that needed induction-variable acceleration."""
        return sum(1 for r in self.refuted
                   if r.refutation.reason == "accelerated")

    @property
    def false_positive_reduction(self) -> float:
        """Fraction of static findings refuted by the value-set pass."""
        total = len(self.base.findings)
        if total == 0:
            return 0.0
        return len(self.refuted) / total

    def render(self) -> str:
        lines = [
            f"value-set refinement: {self.base.name}  "
            f"({len(self.base.findings)} finding(s) -> "
            f"{len(self.confirmed)} confirmed, "
            f"{len(self.refuted)} refuted)"
        ]
        for refuted in self.refuted:
            lines.append(refuted.render())
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, object]:
        return {
            "confirmed": [f.sink_pc for f in self.confirmed],
            "refuted": [
                {
                    "source_pc": r.finding.source_pc,
                    "sink_pc": r.finding.sink_pc,
                    "refutation": r.refutation.to_dict(),
                }
                for r in self.refuted
            ],
            "secret_words": list(self.secret_words),
            "false_positive_reduction": self.false_positive_reduction,
            "accelerated": self.accelerated_count,
        }


def _address_set(state: ValueSetState,
                 instruction: Instruction) -> ValueSet:
    """Effective-address value set of a memory instruction."""
    base = state.value_of(instruction.rs1)
    if base.is_top:
        return TOP
    shifted = base.shift(instruction.imm)
    return shifted if shifted is not None else TOP


def address_set(state: Optional[ValueSetState],
                instruction: Instruction) -> ValueSet:
    """Public effective-address query for other analyses (memdep).

    ``state`` may be ``None`` (statically unreachable program point),
    which degrades to TOP — the caller must stay conservative there.
    """
    if state is None:
        return TOP
    return _address_set(state, instruction)


def disjoint_word_ranges(a: ValueSet, b: ValueSet) -> bool:
    """Public word-range disjointness query for other analyses."""
    return _disjoint(a, b)


def _containing_region(
    addresses: ValueSet, regions: Sequence[Tuple[int, int]],
) -> Optional[Tuple[int, int]]:
    """The initialized region containing the whole byte range touched
    by ``addresses`` (loads read a word), or ``None``."""
    lo = addresses.lo
    hi = addresses.hi + WORD_BYTES - 1
    for region_lo, region_hi in regions:
        if region_lo <= lo and hi <= region_hi + WORD_BYTES - 1:
            return region_lo, region_hi
    return None


def _touches_secret(addresses: ValueSet,
                    secret_words: FrozenSet[int]) -> bool:
    for secret in secret_words:
        # The load's word range [lo, hi + 7] vs the secret's word.
        if addresses.lo <= secret + WORD_BYTES - 1 \
                and secret <= addresses.hi + WORD_BYTES - 1:
            return True
    return False


def _disjoint(a: ValueSet, b: ValueSet) -> bool:
    """Provably non-overlapping word ranges (both must be bounded)."""
    if a.is_top or b.is_top:
        return False
    return (a.hi + WORD_BYTES - 1 < b.lo
            or b.hi + WORD_BYTES - 1 < a.lo)


def refine_report(
    program: Program,
    report: AnalysisReport,
    secret_words: Iterable[int] = (),
    cfg: Optional[ControlFlowGraph] = None,
    values: Optional[DataflowResult[ValueSetState]] = None,
    summaries: Optional["ProgramSummaries"] = None,
) -> RefinedReport:
    """Partition ``report.findings`` into confirmed and refuted.

    A finding is refuted only when *every* tainting load's address set
    is bounded, lies inside one contiguous initialized data region,
    and provably avoids every declared secret word; V4 findings
    additionally require the source store's address range to be
    bounded and disjoint from all tainting loads (in-bounds does not
    protect against reading stale data through the very same address).

    When ``summaries`` (a
    :class:`~repro.analysis.summaries.ProgramSummaries`) proves
    induction-variable caps, findings the plain widening fixpoint
    confirms get a second chance: the value sets are recomputed with
    the caps met into every block entry, and refutations earned that
    way carry the ``accelerated`` reason.
    """
    cfg = cfg if cfg is not None else build_cfg(program)
    if values is None:
        values = compute_value_sets(program, cfg=cfg)
    regions = data_regions(program)
    secrets = frozenset(secret_words)
    confirmed: List[Finding] = []
    refuted: List[RefutedFinding] = []
    for finding in report.findings:
        refutation = _refute_one(cfg, values, regions, secrets, finding)
        if refutation is None:
            confirmed.append(finding)
        else:
            refuted.append(RefutedFinding(finding, refutation))

    caps = summaries.induction_caps() if summaries is not None else {}
    if confirmed and caps:
        accel_values = compute_value_sets(program, cfg=cfg, caps=caps)
        cap_text = ", ".join(
            f"r{reg}<={cap.hi:#x}/{cap.stride}"
            for reg, cap in sorted(caps.items()))
        still_confirmed: List[Finding] = []
        for finding in confirmed:
            refutation = _refute_one(cfg, accel_values, regions,
                                     secrets, finding)
            if refutation is None:
                still_confirmed.append(finding)
                continue
            refuted.append(RefutedFinding(finding, Refutation(
                reason="accelerated",
                bounds=refutation.bounds,
                detail=(f"{refutation.detail}; provable only under "
                        f"accelerated induction caps [{cap_text}] "
                        f"(plain widening loses the bound)"),
            )))
        confirmed = still_confirmed

    return RefinedReport(
        base=report,
        confirmed=confirmed,
        refuted=refuted,
        secret_words=tuple(sorted(secrets)),
    )


def _refute_one(
    cfg: ControlFlowGraph,
    values: DataflowResult[ValueSetState],
    regions: Sequence[Tuple[int, int]],
    secrets: FrozenSet[int],
    finding: Finding,
) -> Optional[Refutation]:
    if not finding.tainting_loads:
        return None
    bounds: List[LoadBound] = []
    load_sets: List[ValueSet] = []
    for pc in finding.tainting_loads:
        instruction = cfg.instruction_at(pc)
        state = values.state_before(pc)
        if instruction is None or state is None:
            return None
        addresses = _address_set(state, instruction)
        if not addresses.is_bounded:
            return None
        region = _containing_region(addresses, regions)
        if region is None:
            return None
        if _touches_secret(addresses, secrets):
            return None
        load_sets.append(addresses)
        bounds.append(LoadBound(
            pc=pc, lo=addresses.lo, hi=addresses.hi,
            stride=addresses.stride,
            region_lo=region[0], region_hi=region[1],
        ))
    if finding.kind is GadgetKind.SPECTRE_V4:
        source = cfg.instruction_at(finding.source_pc)
        state = values.state_before(finding.source_pc)
        if source is None or state is None or not source.is_store:
            return None
        store_set = _address_set(state, source)
        if not all(_disjoint(store_set, load) for load in load_sets):
            return None
        return Refutation(
            reason="no-alias",
            bounds=tuple(bounds),
            detail=(f"store address {store_set} is disjoint from every "
                    f"speculative load; loads are in-bounds"),
        )
    ranges = ", ".join(f"{b.pc:#x}:[{b.lo:#x},{b.hi:#x}]" for b in bounds)
    return Refutation(
        reason="in-bounds",
        bounds=tuple(bounds),
        detail=(f"every speculative load reads inside an initialized "
                f"data region away from declared secrets ({ranges})"),
    )
