"""Loop and region summaries: the structural layer under accelerated
value-set refinement and loop-summarizing symbolic certification.

Two things live here:

``ProgramSummaries``
    A cheap, purely structural digest of a program: natural loops with
    their written-register and memory footprints, recognized *bounded
    monotone induction variables* with window-aware value caps, and
    the set of control-flow join points.  Both
    :func:`repro.analysis.valueset.refine_report` (acceleration) and
    :func:`repro.analysis.symx.certify_program` (loop summarization +
    path merging) consume the same object, so the two tiers agree by
    construction on what a loop is and how far its counters can
    travel.

``SummaryCache``
    An in-memory LRU of computed analysis values, keyed by
    :func:`program_summary_key`: a hash of the window, the entry point
    and the program's instructions, so a resubmitted program (under
    another name, other secrets or other budgets) hits the same entry.
    The ``repro serve`` daemon keeps one of ``ProgramSummaries`` for
    its lifetime (the region tier of its result cache), and
    :func:`repro.analysis.memdep.static_store_sets` keeps one of store
    sets.

Induction recognition and the acceleration cap
----------------------------------------------

A register ``r`` is a *bounded monotone induction variable* of a loop
when, program-wide, it is written by exactly one ``LI r, init``
(outside the loop) and one ``ADDI r, r, step`` with ``step > 0``
(inside the loop, not inside any nested loop), and the loop's single
back edge is a conditional branch whose taken-direction requires
``r < K`` (``BLT r, k``) or ``r != K`` with ``(K - init)`` divisible
by ``step`` (``BNE r, k``) — ``k`` being ``r0``, a register with a
unique ``LI`` write, or a previously recognized induction variable
(which is what makes triangular loops work: the inner bound is the
outer counter's cap).

Architecturally ``r`` can then never exceed ``K - 1 + step`` (the last
back-edge check that passes sees ``r <= K - 1``; one more body
traversal adds at most ``step``).  *Transiently* a mispredicted branch
executes at most ``window`` further instructions before the frame
expires, each adding at most ``step`` — so the global cap

    ``r  <=  K + (window + 1) * step``

holds on every reachable state, speculative states included.  The cap
is therefore a sound *meet* at every dataflow block entry (it is a
true invariant everywhere), which is exactly how
:func:`repro.analysis.valueset.compute_value_sets` applies it: the
widening that would have jumped the interval to TOP gets clamped back
to the closed form, and refutations justified by a clamped interval
carry the machine-checkable ``accelerated`` reason.

Both the recognition and the cap are *gated*: any indirect branch
(``JMPI``/``RET``) or an irreducible cycle (a cycle that survives
back-edge removal) voids the "every cycle passes the back-edge check"
argument, so ``summarizable`` turns off and callers fall back to the
plain widening fixpoint and budgeted exploration.
"""
from __future__ import annotations

import hashlib
import math
import threading
from collections import OrderedDict
from dataclasses import dataclass, replace
from typing import (Dict, FrozenSet, Generic, Iterable, List, Mapping,
                    Optional, Sequence, Set, Tuple, TypeVar)

from ..isa.instructions import Instruction, Opcode
from ..isa.program import Program
from .cfg import BasicBlock, ControlFlowGraph, build_cfg
from .valueset import U64_MAX, ValueSet

#: Keep caps comfortably inside the signed-positive half of the word so
#: the ``BLT``/``BGE`` (signed) reasoning above stays two's-complement
#: clean.
_CAP_CEILING = 1 << 62


def program_summary_key(program: Program, window: int) -> str:
    """Cache key for what the static ladder derives from ``program``'s
    code at ``window``: a hash of the window, the entry point and every
    instruction's address and encoding (its ``note`` comment
    excluded)."""
    digest = hashlib.sha256(
        f"w{window}:{program.entry_point}\n".encode())
    for addr, instr in program.iter_addressed():
        digest.update(repr((addr, instr.op.name, instr.rd, instr.rs1,
                            instr.rs2, instr.imm, instr.target)).encode())
        digest.update(b"\n")
    return digest.hexdigest()


# ---------------------------------------------------------------------------
# Summary dataclasses
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class InductionRange:
    """A recognized bounded monotone counter and its global cap."""

    reg: int
    init: int
    step: int
    lo: int
    hi: int
    step_pc: int  #: address of the unique ``ADDI reg, reg, step``

    def cap(self) -> ValueSet:
        stride = math.gcd(self.init, self.step) or self.step
        return ValueSet(self.lo, self.hi,
                        0 if self.lo == self.hi else stride)


@dataclass(frozen=True)
class LoopSummary:
    """A natural loop: header, body, footprint, and induction caps."""

    header: int  #: header block start address
    blocks: Tuple[int, ...]  #: body block start addresses (sorted)
    back_edge_pcs: Tuple[int, ...]  #: addresses of the back-edge branches
    written_regs: Tuple[int, ...]  #: registers any body block may write
    writes_memory: bool
    inductions: Tuple[InductionRange, ...]

    def bound_for(self, reg: int) -> Optional[InductionRange]:
        for induction in self.inductions:
            if induction.reg == reg:
                return induction
        return None


@dataclass(frozen=True)
class ProgramSummaries:
    """Everything the accelerated/summarizing tiers need, derivable
    from code alone (no secrets, no data) and therefore shareable
    across runs and across serve submissions."""

    loops: Tuple[LoopSummary, ...]
    join_points: Tuple[int, ...]  #: block starts with >= 2 direct preds
    has_indirect: bool
    reducible: bool
    cache_hit: bool = False

    @property
    def summarizable(self) -> bool:
        """Loop summarization / acceleration soundness gate (see the
        module docstring)."""
        return self.reducible and not self.has_indirect

    @property
    def headers(self) -> Dict[int, LoopSummary]:
        return {loop.header: loop for loop in self.loops}

    def induction_caps(self) -> Dict[int, ValueSet]:
        """Global register caps from every recognized induction
        variable (empty unless :attr:`summarizable`)."""
        if not self.summarizable:
            return {}
        caps: Dict[int, ValueSet] = {}
        for loop in self.loops:
            for induction in loop.inductions:
                caps[induction.reg] = induction.cap()
        return caps

    def merge_points(self) -> FrozenSet[int]:
        """Join points where symx may park and merge paths — loop
        headers excluded (the summarizer owns those)."""
        headers = {loop.header for loop in self.loops}
        return frozenset(addr for addr in self.join_points
                         if addr not in headers)


# ---------------------------------------------------------------------------
# Structural analysis: dominators, natural loops, reducibility
# ---------------------------------------------------------------------------

def _reachable_indices(cfg: ControlFlowGraph) -> Set[int]:
    seen = {cfg.entry.index}
    work = [cfg.entry.index]
    while work:
        for succ in cfg.blocks[work.pop()].successors:
            if succ not in seen:
                seen.add(succ)
                work.append(succ)
    return seen


def _dominators(cfg: ControlFlowGraph,
                reachable: Set[int]) -> Dict[int, Set[int]]:
    """Iterative dominator sets over direct edges (indices)."""
    entry = cfg.entry.index
    doms: Dict[int, Set[int]] = {entry: {entry}}
    others = sorted(reachable - {entry})
    for index in others:
        doms[index] = set(reachable)
    changed = True
    while changed:
        changed = False
        for index in others:
            preds = [p for p in cfg.blocks[index].predecessors
                     if p in reachable]
            if preds:
                new = set.intersection(*(doms[p] for p in preds))
            else:  # only reachable through the entry fall-in
                new = set()
            new.add(index)
            if new != doms[index]:
                doms[index] = new
                changed = True
    return doms


def _back_edges(cfg: ControlFlowGraph, reachable: Set[int],
                doms: Dict[int, Set[int]]) -> List[Tuple[int, int]]:
    edges = []
    for index in sorted(reachable):
        for succ in cfg.blocks[index].successors:
            if succ in reachable and succ in doms[index]:
                edges.append((index, succ))
    return edges


def _natural_loop(cfg: ControlFlowGraph, source: int, header: int,
                  reachable: Set[int]) -> Set[int]:
    """Blocks of the loop closed by the back edge ``source -> header``.
    Unreachable predecessors (dead code jumping into the body) are not
    part of it."""
    body = {header}
    work = [source]
    while work:
        node = work.pop()
        if node in body:
            continue
        body.add(node)
        work.extend(pred for pred in cfg.blocks[node].predecessors
                    if pred in reachable)
    return body


def _is_reducible(cfg: ControlFlowGraph, reachable: Set[int],
                  back_edges: Sequence[Tuple[int, int]]) -> bool:
    """Reducible iff removing the back edges leaves an acyclic graph
    (Kahn's algorithm on the forward subgraph)."""
    removed = set(back_edges)
    indegree = {index: 0 for index in reachable}
    for index in reachable:
        for succ in cfg.blocks[index].successors:
            if succ in reachable and (index, succ) not in removed:
                indegree[succ] += 1
    queue = [index for index, deg in indegree.items() if deg == 0]
    visited = 0
    while queue:
        node = queue.pop()
        visited += 1
        for succ in cfg.blocks[node].successors:
            if succ in reachable and (node, succ) not in removed:
                indegree[succ] -= 1
                if indegree[succ] == 0:
                    queue.append(succ)
    return visited == len(reachable)


def _footprint(blocks: Iterable[BasicBlock]) -> Tuple[Tuple[int, ...], bool]:
    """The registers ``blocks`` can write, sorted (r0 is hardwired
    zero: writes to it vanish), and whether any of them stores."""
    written: Set[int] = set()
    stores = False
    for block in blocks:
        for _addr, instr in block.instructions:
            if instr.dest:
                written.add(instr.dest)
            if instr.is_store:
                stores = True
    return tuple(sorted(written)), stores


# ---------------------------------------------------------------------------
# Induction-variable recognition
# ---------------------------------------------------------------------------

def _register_writes(program: Program) -> Dict[int, List[Tuple[int, Instruction]]]:
    writes: Dict[int, List[Tuple[int, Instruction]]] = {}
    for addr, instr in program.iter_addressed():
        if instr.dest:
            writes.setdefault(instr.dest, []).append((addr, instr))
    return writes


def _unique_li_value(writes: Mapping[int, List[Tuple[int, Instruction]]],
                     reg: int) -> Optional[int]:
    """Constant a register holds for the whole run: r0, or a register
    whose sole program-wide write is one LI."""
    if reg == 0:
        return 0
    entries = writes.get(reg, [])
    if len(entries) == 1 and entries[0][1].op is Opcode.LI:
        value = entries[0][1].imm & U64_MAX
        return value
    return None


def _find_inductions(
    program: Program,
    cfg: ControlFlowGraph,
    writes: Mapping[int, List[Tuple[int, Instruction]]],
    body: Set[int],
    nested_bodies: Sequence[Set[int]],
    back_sources: Sequence[int],
    window: int,
    known: Mapping[int, InductionRange],
) -> List[InductionRange]:
    """Recognize bounded monotone counters of one loop (see module
    docstring for the exact side conditions and the cap argument)."""
    if len(back_sources) != 1:
        return []
    back_block = cfg.blocks[back_sources[0]]
    terminator = back_block.terminator
    if terminator is None or not terminator[1].is_conditional_branch:
        return []
    check = terminator[1]
    body_pcs = {addr for index in body
                for addr, _ in cfg.blocks[index].instructions}
    nested_pcs = {addr for nested in nested_bodies
                  for index in nested
                  for addr, _ in cfg.blocks[index].instructions}

    found: List[InductionRange] = []
    for reg, entries in sorted(writes.items()):
        if len(entries) != 2:
            continue
        li = [e for e in entries if e[1].op is Opcode.LI]
        addi = [e for e in entries
                if e[1].op is Opcode.ADDI and e[1].rs1 == reg]
        if len(li) != 1 or len(addi) != 1:
            continue
        li_addr, li_instr = li[0]
        step_addr, addi_instr = addi[0]
        step = addi_instr.imm
        init = li_instr.imm
        if step <= 0 or init < 0:
            continue
        # The LI initializes outside the loop; the ADDI ticks inside
        # it, but not inside any nested loop (a nested cycle could run
        # the ADDI many times per back-edge check).
        if li_addr in body_pcs or step_addr not in body_pcs:
            continue
        if step_addr in nested_pcs:
            continue
        # The back-edge check must bound this register: taken
        # (= continue looping) requires r < K or r != K (aligned).
        if check.rs1 != reg:
            continue
        bound = _unique_li_value(writes, check.rs2 or 0)
        if bound is None:
            prior = known.get(check.rs2 or 0)
            if prior is not None:
                bound = prior.hi
        if bound is None:
            continue
        if check.op is Opcode.BNE:
            if bound < init or (bound - init) % step != 0:
                continue
        elif check.op is not Opcode.BLT:
            continue
        hi = bound + (window + 1) * step
        if hi >= _CAP_CEILING or init > hi:
            continue
        found.append(InductionRange(reg=reg, init=init, step=step,
                                    lo=0, hi=hi, step_pc=step_addr))
    return found


# ---------------------------------------------------------------------------
# Top-level computation
# ---------------------------------------------------------------------------

def summarize_program(program: Program, *, window: int,
                      cfg: Optional[ControlFlowGraph] = None
                      ) -> ProgramSummaries:
    """Compute summaries from scratch (no cache involved)."""
    cfg = cfg or build_cfg(program)
    reachable = _reachable_indices(cfg)
    has_indirect = any(cfg.blocks[index].ends_indirect
                       for index in reachable)
    doms = _dominators(cfg, reachable)
    back = _back_edges(cfg, reachable, doms)
    reducible = _is_reducible(cfg, reachable, back)

    # Natural loops, merged per header.
    loop_bodies: Dict[int, Set[int]] = {}
    loop_sources: Dict[int, List[int]] = {}
    for source, header in back:
        loop_bodies.setdefault(header, set()).update(
            _natural_loop(cfg, source, header, reachable))
        loop_sources.setdefault(header, []).append(source)

    loops: List[LoopSummary] = []
    known: Dict[int, InductionRange] = {}
    summarizable = reducible and not has_indirect
    writes = _register_writes(program) if summarizable else {}
    # Outer loops first so triangular inner bounds can reference the
    # outer counter's already-computed cap.
    for header in sorted(loop_bodies,
                         key=lambda h: -len(loop_bodies[h])):
        body = loop_bodies[header]
        nested = [other for other_header, other in loop_bodies.items()
                  if other_header != header and other < body]
        written, stores = _footprint(cfg.blocks[index] for index in body)
        inductions: List[InductionRange] = []
        if summarizable:
            inductions = _find_inductions(
                program, cfg, writes, body, nested,
                loop_sources[header], window, known)
            for induction in inductions:
                known[induction.reg] = induction
        back_pcs = []
        for source in loop_sources[header]:
            block = cfg.blocks[source]
            if block.instructions:
                back_pcs.append(block.instructions[-1][0])
        loops.append(LoopSummary(
            header=cfg.blocks[header].start,
            blocks=tuple(sorted(cfg.blocks[index].start
                                for index in body)),
            back_edge_pcs=tuple(sorted(back_pcs)),
            written_regs=written,
            writes_memory=stores,
            inductions=tuple(inductions),
        ))
    loops.sort(key=lambda loop: loop.header)

    join_points = tuple(sorted(
        cfg.blocks[index].start for index in reachable
        if len([p for p in cfg.blocks[index].predecessors
                if p in reachable]) >= 2))

    return ProgramSummaries(
        loops=tuple(loops),
        join_points=join_points,
        has_indirect=has_indirect,
        reducible=reducible,
    )


def compute_program_summaries(
    program: Program, *, window: int,
    cache: Optional["SummaryCache[ProgramSummaries]"] = None,
    cfg: Optional[ControlFlowGraph] = None,
) -> ProgramSummaries:
    """Summaries for ``program``, through ``cache`` when given."""
    if cache is None:
        return summarize_program(program, window=window, cfg=cfg)
    key = program_summary_key(program, window)
    entry = cache.get(key)
    if entry is not None:
        return replace(entry, cache_hit=True)
    summaries = summarize_program(program, window=window, cfg=cfg)
    cache.put(key, summaries)
    return summaries


# ---------------------------------------------------------------------------
# The incremental cache
# ---------------------------------------------------------------------------

@dataclass
class SummaryCacheStats:
    hits: int = 0
    misses: int = 0
    stores: int = 0
    evictions: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def to_dict(self) -> Dict[str, object]:
        return {"hits": self.hits, "misses": self.misses,
                "stores": self.stores, "evictions": self.evictions,
                "hit_rate": round(self.hit_rate, 4)}


_V = TypeVar("_V")


class SummaryCache(Generic[_V]):
    """LRU cache of computed analysis values, in memory, keyed by
    :func:`program_summary_key`.

    Thread-safe (the serve engine calls it from worker threads).
    """

    def __init__(self, capacity: int = 4096) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self.stats = SummaryCacheStats()
        self._lock = threading.RLock()
        self._entries: "OrderedDict[str, _V]" = OrderedDict()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def get(self, key: str) -> Optional[_V]:
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.stats.misses += 1
                return None
            self._entries.move_to_end(key)
            self.stats.hits += 1
            return entry

    def put(self, key: str, value: _V) -> None:
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            self.stats.stores += 1
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.stats.evictions += 1


__all__ = [
    "InductionRange",
    "LoopSummary",
    "ProgramSummaries",
    "SummaryCache",
    "SummaryCacheStats",
    "compute_program_summaries",
    "program_summary_key",
    "summarize_program",
]
