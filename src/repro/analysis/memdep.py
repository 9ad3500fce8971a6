"""Interprocedural store→load may-dependence analysis (static store sets).

The zoo's branch-keyed defenses (``delay_on_miss`` / ``eager_delay``)
share a documented blind spot: they key "speculative" off unresolved
*branches*, so the store-bypass window of Spectre V4 — a younger load
issuing while an older store's address is still unknown — is invisible
to them (see ``repro.pipeline.lsq`` and ``docs/defenses.md``).  This
module closes that blind spot statically.

For every store in the program it computes the set of loads that can
*reach* the store within one speculation window of fetched
instructions (so the load could issue while the store's address is
unresolved), and classifies each (store, load) pair by comparing the
two strided-interval address sets from the value-set fixpoint
(:mod:`repro.analysis.valueset`), clamped with loop-summary induction
caps (:mod:`repro.analysis.summaries`):

- **disjoint**   — both address ranges are bounded and their touched
  word ranges provably never overlap; the load cannot observe stale
  pre-store data, and the pair carries a machine-checkable reason.
- **must-alias** — both addresses are provably the same constant; the
  load *will* read this store's location (also counted may-bypass).
- **may-bypass** — everything else, including the conservative
  unknown-address fallback when either side is TOP.

Reachability is interprocedural with *call/ret context threading*: a
``CALL`` pushes its return address on an abstract call stack and the
matching ``RET`` resumes at that exact site, so loads after the call
site are reached through the callee without smearing every ``RET``
across the whole program.  A ``RET`` with an empty abstract stack (or
a ``JMPI``) conservatively fans out to every block.  ``FENCE`` and
serializing ``RDCYCLE`` terminate the walk — the store queue drains
before younger loads issue.

The result is a :class:`MemDepSummary` value (per load: may-bypass
stores, must-alias stores, disjointness proofs).  Consumers:

- the ``delay_on_miss_ss`` defense (:mod:`repro.core.defense`) widens
  its suspect predicate with :func:`static_store_sets`, whose tables
  are memoized in a :class:`~repro.analysis.summaries.SummaryCache`
  keyed by :func:`~repro.analysis.summaries.program_summary_key`;
- fence synthesis (:mod:`repro.analysis.fencesynth`) drops V4 findings
  whose store→load pairs are all provably disjoint;
- the static defense-coverage pre-screen
  (:mod:`repro.analysis.prescreen`) predicts per-(attack, defense)
  blocked/leaky cells from these facts.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import (Dict, FrozenSet, List, Mapping, Optional, Set,
                    Tuple)

from ..isa.instructions import INSTRUCTION_BYTES, Instruction, Opcode
from ..isa.program import Program
from .cfg import BasicBlock, ControlFlowGraph, build_cfg
from .dataflow import DataflowResult
from .report import Finding
from .summaries import (ProgramSummaries, SummaryCache,
                        compute_program_summaries, program_summary_key)
from .taint import DEFAULT_WINDOW
from .valueset import (ValueSet, ValueSetState, address_set,
                       compute_value_sets, disjoint_word_ranges)

#: Maximum abstract call-stack depth threaded through the walk.  A
#: ``CALL`` beyond this depth still follows the callee, but its return
#: site is dropped — the eventual ``RET`` then fans out to every
#: block, which is conservative (more loads reached, never fewer).
MAX_CONTEXT_DEPTH = 8

_Context = Tuple[int, ...]


# ---------------------------------------------------------------------------
# Summary dataclasses
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DisjointProof:
    """A machine-checkable reason a (store, load) pair cannot alias."""

    store_pc: int
    load_pc: int
    #: Bounded word ranges proven non-overlapping, both inclusive.
    store_range: Tuple[int, int]
    load_range: Tuple[int, int]
    reason: str


@dataclass(frozen=True)
class LoadStoreSet:
    """The static store set of one load PC."""

    load_pc: int
    #: Stores this load may issue past while their address is unknown
    #: *and* whose location it may read (sorted PCs).
    may_bypass: Tuple[int, ...] = ()
    #: Subset of ``may_bypass`` proven to write exactly the loaded word.
    must_alias: Tuple[int, ...] = ()
    #: Reachable stores refuted by address-range disjointness.
    disjoint: Tuple[DisjointProof, ...] = ()


@dataclass(frozen=True)
class MemDepSummary:
    """Whole-program static store sets."""

    #: One entry per load reached by at least one store walk, sorted
    #: by load PC.
    loads: Tuple[LoadStoreSet, ...] = ()
    _by_load: Dict[int, LoadStoreSet] = field(
        default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "_by_load",
            {entry.load_pc: entry for entry in self.loads})

    def entry_for(self, load_pc: int) -> Optional[LoadStoreSet]:
        return self._by_load.get(load_pc)

    def may_bypass_table(self) -> Dict[int, FrozenSet[int]]:
        """load PC → PCs of stores it may bypass (non-empty sets only)."""
        return {
            entry.load_pc: frozenset(entry.may_bypass)
            for entry in self.loads if entry.may_bypass
        }

    @property
    def pair_count(self) -> int:
        return sum(len(entry.may_bypass) for entry in self.loads)


# ---------------------------------------------------------------------------
# The interprocedural reachability walk
# ---------------------------------------------------------------------------


def _position_index(
    cfg: ControlFlowGraph,
) -> Dict[int, Tuple[int, int]]:
    """address → (block index, instruction index within block)."""
    positions: Dict[int, Tuple[int, int]] = {}
    for block in cfg.blocks:
        for idx, (addr, _) in enumerate(block.instructions):
            positions[addr] = (block.index, idx)
    return positions


def _push_context(context: _Context, return_pc: int) -> _Context:
    if len(context) >= MAX_CONTEXT_DEPTH:
        return context  # drop the return site; RET degrades to fan-out
    return context + (return_pc,)


def _reachable_loads(
    cfg: ControlFlowGraph,
    positions: Mapping[int, Tuple[int, int]],
    store_pc: int,
    window: int,
) -> Set[int]:
    """Load PCs reachable from ``store_pc`` within ``window`` fetched
    instructions, threading call/ret contexts."""
    reached: Set[int] = set()
    # (pc, context) → best remaining budget seen; re-visits with no
    # more budget cannot reach anything new.
    visited: Dict[Tuple[int, _Context], int] = {}
    worklist: List[Tuple[int, _Context, int]] = []

    def enqueue(pc: int, context: _Context, budget: int) -> None:
        if budget <= 0 or pc not in positions:
            return
        key = (pc, context)
        if visited.get(key, 0) >= budget:
            return
        visited[key] = budget
        worklist.append((pc, context, budget))

    def enqueue_all_blocks(context: _Context, budget: int) -> None:
        for block in cfg.blocks:
            if block.instructions:
                enqueue(block.instructions[0][0], context, budget)

    def follow(block: BasicBlock, pc: int, instr: Instruction,
               context: _Context, budget: int) -> None:
        """Follow ``instr`` (the last instruction executed at ``pc``)
        to its successors with call/ret context threading."""
        op = instr.op
        if op is Opcode.HALT:
            return
        if op is Opcode.CALL:
            enqueue(instr.target,
                    _push_context(context, pc + INSTRUCTION_BYTES),
                    budget)
            return
        if op is Opcode.RET:
            if context:
                enqueue(context[-1], context[:-1], budget)
            else:
                enqueue_all_blocks(context, budget)
            return
        if op is Opcode.JMPI:
            enqueue_all_blocks(context, budget)
            return
        # JMP / conditional branch / plain fall-through: the static
        # successor edges.  Both arms of a conditional are followed —
        # the walk models *fetched* instructions, wrong paths included.
        for succ in block.successors:
            succ_block = cfg.blocks[succ]
            if succ_block.instructions:
                enqueue(succ_block.instructions[0][0], context, budget)

    start_block, start_idx = positions[store_pc]
    block = cfg.blocks[start_block]
    if start_idx + 1 < len(block.instructions):
        enqueue(block.instructions[start_idx + 1][0], (), window)
    else:
        follow(block, store_pc, block.instructions[start_idx][1], (),
               window)

    while worklist:
        pc, context, budget = worklist.pop()
        block_index, idx = positions[pc]
        block = cfg.blocks[block_index]
        addr, instr = block.instructions[idx]
        assert addr == pc
        if instr.is_serializing:
            continue  # FENCE/RDCYCLE drain the store queue
        if instr.is_load:
            reached.add(pc)
        budget -= 1
        if budget <= 0:
            continue
        if idx + 1 < len(block.instructions) and not instr.is_branch:
            enqueue(block.instructions[idx + 1][0], context, budget)
            continue
        follow(block, pc, instr, context, budget)
    return reached


# ---------------------------------------------------------------------------
# Classification and the public entry point
# ---------------------------------------------------------------------------


def _classify(
    store_pc: int,
    store_range: ValueSet,
    load_pc: int,
    load_range: ValueSet,
) -> Tuple[bool, bool, Optional[DisjointProof]]:
    """(may_bypass, must_alias, proof) for one reachable pair."""
    if disjoint_word_ranges(store_range, load_range):
        proof = DisjointProof(
            store_pc=store_pc, load_pc=load_pc,
            store_range=(store_range.lo, store_range.hi),
            load_range=(load_range.lo, load_range.hi),
            reason=(f"store words [{store_range.lo:#x}, "
                    f"{store_range.hi:#x}] and load words "
                    f"[{load_range.lo:#x}, {load_range.hi:#x}] "
                    "are provably disjoint"),
        )
        return False, False, proof
    must = (store_range.is_constant and load_range.is_constant
            and store_range.lo == load_range.lo)
    return True, must, None


def compute_memdep_summary(
    program: Program,
    *,
    window: int = DEFAULT_WINDOW,
    summaries: Optional[ProgramSummaries] = None,
) -> MemDepSummary:
    """Compute the program's static store sets.

    The value-set fixpoint is clamped with the loop-summary induction
    caps of :func:`compute_program_summaries` — the same acceleration
    the refinement tier uses — so loop-carried store addresses stay
    bounded where plain widening would smear them to TOP.  A caller
    that already summarized ``program`` at ``window`` passes those
    ``summaries`` instead of having them computed again.
    """
    cfg = build_cfg(program)
    if summaries is None:
        summaries = compute_program_summaries(program, window=window,
                                              cfg=cfg)
    values: DataflowResult[ValueSetState] = compute_value_sets(
        program, cfg, summaries.induction_caps())
    positions = _position_index(cfg)

    stores: List[Tuple[int, Instruction]] = [
        (addr, instr) for addr, instr in cfg.iter_instructions()
        if instr.is_store
    ]
    may_bypass: Dict[int, Set[int]] = {}
    must_alias: Dict[int, Set[int]] = {}
    proofs: Dict[int, List[DisjointProof]] = {}
    for store_pc, store_instr in stores:
        store_range = address_set(values.state_before(store_pc),
                                  store_instr)
        for load_pc in sorted(
                _reachable_loads(cfg, positions, store_pc, window)):
            load_instr = cfg.instruction_at(load_pc)
            assert load_instr is not None
            load_range = address_set(values.state_before(load_pc),
                                     load_instr)
            may, must, proof = _classify(store_pc, store_range,
                                         load_pc, load_range)
            if may:
                may_bypass.setdefault(load_pc, set()).add(store_pc)
            if must:
                must_alias.setdefault(load_pc, set()).add(store_pc)
            if proof is not None:
                proofs.setdefault(load_pc, []).append(proof)

    load_pcs = sorted(set(may_bypass) | set(must_alias) | set(proofs))
    return MemDepSummary(
        loads=tuple(
            LoadStoreSet(
                load_pc=pc,
                may_bypass=tuple(sorted(may_bypass.get(pc, ()))),
                must_alias=tuple(sorted(must_alias.get(pc, ()))),
                disjoint=tuple(sorted(
                    proofs.get(pc, ()),
                    key=lambda p: p.store_pc)),
            )
            for pc in load_pcs
        ),
    )


# ---------------------------------------------------------------------------
# Consumer helpers
# ---------------------------------------------------------------------------

#: Process-wide memo of may-bypass tables: attack trials and sweep rows
#: over the same code build their defense from one analysis.
_STORE_SETS: "SummaryCache[Dict[int, FrozenSet[int]]]" = \
    SummaryCache(capacity=64)


def static_store_sets(
    program: Program,
    *,
    window: int = DEFAULT_WINDOW,
) -> Dict[int, FrozenSet[int]]:
    """Memoized may-bypass table (load PC → store PCs) for defenses."""
    key = program_summary_key(program, window)
    table = _STORE_SETS.get(key)
    if table is None:
        table = compute_memdep_summary(program,
                                       window=window).may_bypass_table()
        _STORE_SETS.put(key, table)
    return table


def finding_memdep_block(summary: MemDepSummary,
                         finding: Finding) -> Dict[str, object]:
    """The per-finding ``memdep`` block of the schema-v5 report: the
    union of may-bypass store PCs over the finding's loads, plus every
    disjointness proof that refutes a reachable pair."""
    loads = set(finding.tainting_loads)
    loads.add(finding.sink_pc)
    may: Set[int] = set()
    proofs: List[DisjointProof] = []
    for load_pc in sorted(loads):
        entry = summary.entry_for(load_pc)
        if entry is None:
            continue
        may.update(entry.may_bypass)
        proofs.extend(entry.disjoint)
    return {
        "may_bypass": sorted(may),
        "disjoint": [
            {"store_pc": proof.store_pc, "load_pc": proof.load_pc,
             "reason": proof.reason}
            for proof in sorted(proofs,
                                key=lambda p: (p.load_pc, p.store_pc))
        ],
    }


def v4_finding_may_bypass(summary: MemDepSummary,
                          finding: Finding) -> bool:
    """Can the finding's source store actually be bypassed by one of
    its tainting loads?  ``False`` means every (store, load) pair is
    provably disjoint — a store-barrier fence would be wasted.  Loads
    unknown to the summary stay conservative (``True``)."""
    loads = set(finding.tainting_loads) or {finding.sink_pc}
    for load_pc in loads:
        entry = summary.entry_for(load_pc)
        if entry is None:
            # The walk never reached this load from the source store
            # *or any other store*; if no proof exists either, stay
            # conservative only when the pair was reachable.  An
            # absent entry means no store reaches the load at all —
            # nothing to bypass.
            continue
        if finding.source_pc in entry.may_bypass:
            return True
    return False


__all__ = [
    "DisjointProof",
    "LoadStoreSet",
    "MAX_CONTEXT_DEPTH",
    "MemDepSummary",
    "compute_memdep_summary",
    "finding_memdep_block",
    "static_store_sets",
    "v4_finding_may_bypass",
]
