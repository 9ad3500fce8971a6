"""Bounded symbolic execution for speculative noninterference.

This is the third (and strongest) precision tier of the static stack:
the taint scanner (PR 1) over-approximates, the value-set refinement
(PR 3) refutes syntactically in-bounds chains, and this module decides
— up to explicit budgets — whether a program is *speculatively
noninterferent* (SNI): two runs that agree on all public initial state
must perform identical sequences of speculatively-accessed cache line
addresses.

Semantics (always-mispredict, fork-and-die)
-------------------------------------------

The explorer executes the architectural path symbolically and, at
every speculation source, forks a *transient* path that runs under a
:class:`_Frame` with a bounded window ``W`` and dies when the window
expires (its squash).  Nested sources fork nested frames up to
``max_depth``.  Loads executed under at least one frame are recorded
as observations (the cache-visible speculative accesses; stores and
CLFLUSH change the hierarchy at commit time in this pipeline, so
squashed stores are never observable).  The four transient sources:

- conditional branch — the wrong direction forks (Spectre V1);
- ``JMPI`` — an attacker-trained BTB can steer the transient path to
  *any* program label (or the fall-through), so one fork per label
  (Spectre V2);
- ``RET`` — the return-address-stack prediction forks to the shadow
  call-stack target while the architectural path follows the register
  (ret2spec / RSB);
- ``STORE`` — a store-bypass fork executes the younger code with the
  store invisible (Spectre V4).

``FENCE``/``RDCYCLE`` inside a frame end the transient path (the stall
outlives the squash) — a *complete* safe end, distinct from budget
truncation.

Verdicts
--------

``LEAKY`` requires a constructive proof: the solver concretizes a
public initial state plus two secret valuations, and the two resulting
*concrete* always-mispredict traces (same semantics, concrete values)
must disagree on their speculative line sequences.  The witness then
replays on the dynamic pipeline (:mod:`repro.analysis.witness`).
``PROVED_SAFE`` requires complete exploration (no path/step budget
truncation) with every observation — and every transient-reachable
branch condition — independent of secret symbols.  Anything else is
``UNKNOWN``, with structured warnings saying which budget degraded the
result (never a hang: all loops are budget-bounded).

Loop summarization and path merging
-----------------------------------

Brute enumeration cannot finish loop-heavy programs within the default
budgets, so the explorer consumes :mod:`repro.analysis.summaries`:

- **Loop summarization (havoc + subsumption).**  After
  :data:`LOOP_VISITS` architectural entries of a summarizable
  natural-loop header, the path's state is *generalized*: every
  register the loop body may write becomes a fresh symbol (bounded by
  the accelerated induction-variable cap when one is proven — the cap
  is a true invariant of every concrete run, so the bound is sound),
  and if the body stores, a memory-havoc barrier hides all older
  stores behind conservative fresh reads.  The generalized state is
  snapshotted;
  when a descendant path returns to the header in a state *subsumed*
  by the snapshot (identical non-written registers and shadow stack,
  memory covered by the havoc), it is killed: every concrete
  continuation it could take is an instantiation of the snapshot —
  whose continuations were already explored.  Real executions satisfy
  the induction caps, so instantiation always succeeds for them;
  symbolic corner states outside the caps are spurious (no concrete
  run reaches them) and losing them cannot hide a real leak, because
  LEAKY always requires a concretely validated two-trace divergence.
  Generalization is *refused* (falling back to budgeted unrolling)
  whenever a written register or a covered store carries a secret —
  havoc symbols are public, and declaring a possibly-secret value
  public would be unsound.

- **Path merging at join points.**  Frame-free paths arriving at a
  post-dominator join are parked; once the work stack drains, each
  parked group is fused pairwise under a per-join budget.  Merging
  only ever *weakens*: differing public registers fold to a fresh
  public symbol (a sound ite-elimination) and the path constraints
  drop to the longest common prefix.  Paths differing in any
  secret-tagged register, store log, shadow stack, or havoc history
  refuse to merge, and register folding is disabled entirely when the
  program declares secrets — so secret-bearing corpus programs see
  byte-identical exploration while secret-free SPEC workloads stop
  forking exponentially.  A weaker state can only add spurious
  observations (filtered by concrete validation) — never remove real
  ones — so PROVED_SAFE/LEAKY remain trustworthy.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, replace
from enum import Enum
from typing import (
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from ..isa.instructions import (
    INSTRUCTION_BYTES,
    WORD_BYTES,
    Instruction,
    Opcode,
    branch_taken,
    evaluate_alu,
    mask64,
)
from ..isa.program import Program
from ..params import MachineParams
from .report import AnalysisReport
from .solver import (
    Const,
    ConstraintSolver,
    Expr,
    SolverStats,
    Var,
    cannot_equal,
    evaluate,
    exprs_equal,
    mk,
    negate,
    support,
    words_disjoint,
)
from .summaries import LoopSummary, ProgramSummaries, summarize_program
from .taint import DEFAULT_WINDOW
from .witness import ReplayResult, Witness, replay_witness

_WORD_ALIGN = ~(WORD_BYTES - 1)

#: Default exploration budgets.  ``certify_program`` degrades to
#: ``UNKNOWN`` (with a structured warning) when either is exhausted.
DEFAULT_MAX_PATHS = 4096
DEFAULT_MAX_STEPS = 200_000
#: Default nested-misprediction depth (frames active at once).
DEFAULT_MAX_DEPTH = 2
#: Architectural visits of a summarizable loop header before the
#: state is generalized (havoc + snapshot) instead of unrolled.
LOOP_VISITS = 2
#: Per-join-point budget of pairwise path merges.  Transient twins
#: park and merge too, so a drain routinely fuses hundreds of paths.
MERGE_BUDGET = 512
#: Witnesses built per certification; further secret observations
#: stay unresolved.
MAX_LEAKS = 16
#: How often (in steps) the wall-clock deadline and the cancellation
#: hook are polled during exploration.
_BUDGET_POLL_STEPS = 256

_ALU_OP = {
    Opcode.ADD: "add", Opcode.ADDI: "add",
    Opcode.SUB: "sub",
    Opcode.MUL: "mul",
    Opcode.DIV: "div",
    Opcode.AND: "and", Opcode.ANDI: "and",
    Opcode.OR: "or",
    Opcode.XOR: "xor", Opcode.XORI: "xor",
    Opcode.SHL: "shl", Opcode.SHLI: "shl",
    Opcode.SHR: "shr", Opcode.SHRI: "shr",
}
_BRANCH_OP = {
    Opcode.BEQ: "eq",
    Opcode.BNE: "ne",
    Opcode.BLT: "slt",
    Opcode.BGE: "sge",
}


class Verdict(Enum):
    """Outcome of a certification run (program- or sink-level)."""

    PROVED_SAFE = "PROVED_SAFE"
    LEAKY = "LEAKY"
    UNKNOWN = "UNKNOWN"


@dataclass(frozen=True)
class _Frame:
    """One active speculation window on a transient path."""

    kind: str          # "v1" | "v2" | "v4" | "rsb"
    source_pc: int
    window_left: int
    bypass_seq: int = -1   # v4: sequence number of the bypassed store


@dataclass(frozen=True)
class _Store:
    seq: int
    pc: int
    addr: Expr
    value: Expr


@dataclass(frozen=True)
class _HavocSnapshot:
    """The generalized state installed by one loop-header havoc.

    Paths returning to the header in a state subsumed by the snapshot
    (see ``_Explorer._loop_subsumed``) are killed — their concrete
    continuations instantiate this more general state, which has
    already been explored.  Snapshots are compared by identity across
    merged/forked paths: only descendants of the *same* havoc share
    the object, so identity equality is exactly "same generalization".
    """

    regs: Tuple[Tuple[int, Expr], ...]
    shadow: Tuple[int, ...]
    store_len: int


@dataclass
class _Path:
    """Mutable symbolic machine state for one exploration path."""

    pc: int
    regs: Dict[int, Expr]
    frames: Tuple[_Frame, ...] = ()
    constraints: Tuple[Expr, ...] = ()
    stores: Tuple[_Store, ...] = ()
    shadow: Tuple[int, ...] = ()
    #: Architectural entry counts per summarizable loop header.
    visits: Optional[Dict[int, int]] = None
    #: Installed havoc snapshots per loop header.  Both dicts are
    #: copy-on-write (reassigned, never mutated in place) so forks can
    #: share them.
    havocs: Optional[Dict[int, _HavocSnapshot]] = None
    #: Stores with ``seq <= mem_havoc_seq`` are hidden behind the most
    #: recent memory havoc: reads reaching past this barrier return
    #: conservative fresh symbols instead of forwarded values.
    mem_havoc_seq: int = -1
    #: True when a havoc ever covered a store carrying a secret value
    #: (or a secret-dependent address): reads through the barrier must
    #: then stay secret-tagged.
    mem_havoc_secret: bool = False
    #: One-shot pass-through: a path unparked from this join address
    #: must not immediately re-park there.
    no_park: int = -1

    def fork(self, pc: int, *, frame: Optional[_Frame] = None,
             constraint: Optional[Expr] = None,
             shadow: Optional[Tuple[int, ...]] = None) -> "_Path":
        frames = self.frames + ((frame,) if frame is not None else ())
        constraints = self.constraints
        if constraint is not None:
            constraints = constraints + (constraint,)
        return _Path(
            pc=pc,
            regs=dict(self.regs),
            frames=frames,
            constraints=constraints,
            stores=self.stores,
            shadow=self.shadow if shadow is None else shadow,
            visits=self.visits,
            havocs=self.havocs,
            mem_havoc_seq=self.mem_havoc_seq,
            mem_havoc_secret=self.mem_havoc_secret,
        )


@dataclass(frozen=True)
class Observation:
    """One speculatively-executed load: the SNI-observable event."""

    pc: int
    addr: Expr
    kind: str
    source_pc: int
    depth: int
    constraints: Tuple[Expr, ...]


@dataclass(frozen=True)
class ControlCandidate:
    """A branch/indirect-target expression that may depend on a
    secret: a potential control-flow leak (observation *sequences*
    diverge even when every individual address is public)."""

    pc: int
    condition: Expr
    constraints: Tuple[Expr, ...]
    transient: bool


@dataclass(frozen=True)
class LeakRecord:
    """One confirmed leak: where, why, and the replayable witness."""

    pc: int
    kind: str
    source_pc: int
    channel: str               # "data" (address) or "control" (sequence)
    witness: Witness
    replay: Optional[ReplayResult] = None

    def to_dict(self) -> Dict[str, object]:
        return {
            "pc": self.pc,
            "kind": self.kind,
            "source_pc": self.source_pc,
            "channel": self.channel,
            "witness": self.witness.to_dict(),
            "replay": self.replay.to_dict() if self.replay else None,
        }


@dataclass
class CertifyResult:
    """Program-level verdict plus everything needed to audit it."""

    name: str
    verdict: Verdict
    leaks: Tuple[LeakRecord, ...]
    observations: int
    paths: int
    steps: int
    truncated: bool
    warnings: Tuple[Dict[str, object], ...]
    #: Observation PCs whose secret-dependence was neither confirmed
    #: (no validating model) nor refuted — each forces ``UNKNOWN``.
    unresolved_pcs: Tuple[int, ...]
    #: Observation PCs proven secret-independent on every path.
    safe_pcs: Tuple[int, ...]
    solver_stats: SolverStats
    secret_words: Tuple[int, ...]
    window: int
    max_depth: int
    duration_s: float = 0.0
    #: Summary provenance: how much loop summarization / path merging
    #: contributed to this verdict (schema v4).
    merged_paths: int = 0
    summarized_loops: int = 0
    accelerated_loops: int = 0
    summary_cache_hit: bool = False

    @property
    def leaky_pcs(self) -> Tuple[int, ...]:
        return tuple(sorted({leak.pc for leak in self.leaks}))

    def verdict_for(self, sink_pc: int) -> Verdict:
        """Per-sink verdict (finding certificates).

        A sink is ``LEAKY`` when a confirmed leak observes at it,
        ``PROVED_SAFE`` when exploration completed and no unresolved
        observation touches it (a sink never speculatively reached, or
        reached only with public addresses, is safe), else ``UNKNOWN``.
        """
        if sink_pc in self.leaky_pcs:
            return Verdict.LEAKY
        if not self.truncated and sink_pc not in self.unresolved_pcs:
            return Verdict.PROVED_SAFE
        return Verdict.UNKNOWN

    def leak_at(self, sink_pc: int) -> Optional[LeakRecord]:
        for leak in self.leaks:
            if leak.pc == sink_pc:
                return leak
        return None

    def render(self) -> str:
        lines = [
            f"certify: {self.name}  verdict {self.verdict.value}  "
            f"({self.paths} path(s), {self.steps} step(s), "
            f"{self.observations} observation(s)"
            + (", TRUNCATED" if self.truncated else "") + ")"
        ]
        for leak in self.leaks:
            status = "no replay"
            if leak.replay is not None:
                status = ("reproduced" if leak.replay.reproduced
                          else "NOT reproduced")
            lines.append(
                f"  LEAKY [{leak.kind}/{leak.channel}] sink {leak.pc:#x} "
                f"source {leak.source_pc:#x}  dynamic replay: {status}"
            )
        if self.summarized_loops or self.merged_paths:
            lines.append(
                f"  summaries: {self.summarized_loops} loop(s) havocked"
                f" ({self.accelerated_loops} with accelerated bounds), "
                f"{self.merged_paths} path merge(s)"
                + (", summary cache hit" if self.summary_cache_hit else ""))
        for warning in self.warnings:
            lines.append(f"  warning: {warning.get('kind')}: "
                         f"{warning.get('detail')}")
        if self.verdict is Verdict.UNKNOWN and self.unresolved_pcs:
            pcs = ", ".join(f"{pc:#x}" for pc in self.unresolved_pcs)
            lines.append(f"  unresolved observation(s) at {pcs}")
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "verdict": self.verdict.value,
            "leaks": [leak.to_dict() for leak in self.leaks],
            "observations": self.observations,
            "paths": self.paths,
            "steps": self.steps,
            "truncated": self.truncated,
            "warnings": list(self.warnings),
            "unresolved_pcs": list(self.unresolved_pcs),
            "safe_pcs": list(self.safe_pcs),
            "solver": self.solver_stats.to_dict(),
            "secret_words": list(self.secret_words),
            "window": self.window,
            "max_depth": self.max_depth,
            "duration_s": self.duration_s,
            "merged_paths": self.merged_paths,
            "summarized_loops": self.summarized_loops,
            "accelerated_loops": self.accelerated_loops,
            "summary_cache_hit": self.summary_cache_hit,
        }


class PathBudgetExceeded(Exception):
    """Internal signal: exploration hit ``max_paths``/``max_steps``."""

    def __init__(self, warning: Dict[str, object]) -> None:
        super().__init__(warning["detail"])
        self.warning = warning


# ---------------------------------------------------------------------------
# Symbolic exploration
# ---------------------------------------------------------------------------


class _Explorer:
    def __init__(self, program: Program, secret_words: Sequence[int],
                 *, window: int, max_depth: int, max_paths: int,
                 max_steps: int, solver: ConstraintSolver,
                 deadline: Optional[float] = None,
                 cancel_check: Optional[Callable[[], bool]] = None,
                 summaries: ProgramSummaries,
                 ) -> None:
        self.program = program
        self.imap: Dict[int, Instruction] = dict(program.iter_addressed())
        self.image = dict(program.initial_memory)
        self.labels = tuple(sorted(set(program.labels.values())))
        self.secret_words = tuple(sorted(
            mask64(word) & _WORD_ALIGN for word in secret_words))
        self.window = window
        self.max_depth = max_depth
        self.max_paths = max_paths
        self.max_steps = max_steps
        self.solver = solver
        self.deadline = deadline
        self.cancel_check = cancel_check

        self.observations: List[Observation] = []
        self.control_candidates: List[ControlCandidate] = []
        #: Fresh symbols for symbolic-address reads: name -> the read's
        #: address expression (the witness builder warms these lines).
        self.var_read_addr: Dict[str, Expr] = {}
        #: Aliasing assumptions backing a fresh symbol's secret tag:
        #: name -> (eq(addr, secret_word), ...) to seed leak models.
        self.var_hints: Dict[str, Tuple[Expr, ...]] = {}
        self._initial_syms: Dict[int, Var] = {}
        self._fresh = 0
        self._store_seq = 0
        self.paths = 0
        self.steps = 0
        self.truncated = False
        self.warnings: List[Dict[str, object]] = []

        #: Loop headers eligible for havoc summarization (only on
        #: summarizable CFGs: reducible and free of indirect control).
        self.loop_headers: Dict[int, LoopSummary] = \
            summaries.headers if summaries.summarizable else {}
        #: Join addresses where frame-free paths park for merging
        #: (sound on any CFG — merging only weakens states).
        self.merge_addrs = summaries.merge_points()
        self._parked: Dict[int, List[_Path]] = {}
        self.merged_paths = 0
        self.summarized_loops: Set[int] = set()
        self.accelerated_loops: Set[int] = set()

    # -- symbolic initial state -----------------------------------------

    def initial_word(self, word: int) -> Var:
        """The (memoized) symbol for one word of initial memory.

        Every word is a free public symbol whose *preferred* value is
        the program image's (SNI quantifies over all initial states
        agreeing on public data; concretization stays near the image).
        Words listed in ``secret_words`` carry the secret tag.
        """
        sym = self._initial_syms.get(word)
        if sym is None:
            secret = word in self.secret_words
            prefix = "secret" if secret else "mem"
            sym = Var(f"{prefix}_{word:x}", secret=secret,
                      preferred=self.image.get(word, 0), origin_word=word)
            self._initial_syms[word] = sym
        return sym

    def _fresh_read(self, pc: int, addr: Expr, secret: bool,
                    hints: Tuple[Expr, ...]) -> Var:
        self._fresh += 1
        sym = Var(f"load_{pc:x}_{self._fresh}", secret=secret)
        self.var_read_addr[sym.name] = addr
        if hints:
            self.var_hints[sym.name] = hints
        return sym

    def _read_initial(self, pc: int, addr: Expr,
                      constraints: Tuple[Expr, ...]) -> Expr:
        if isinstance(addr, Const):
            return self.initial_word(addr.value & _WORD_ALIGN)
        # Symbolic address: decide whether it may reach a secret word.
        secret = False
        hints: List[Expr] = []
        for word in self.secret_words:
            if cannot_equal(addr, word) and words_disjoint(addr, Const(word)):
                continue
            model = self.solver.may_equal(addr, word, constraints)
            if model is not None:
                secret = True
                hints.append(mk("eq", addr, Const(word)))
            elif not (cannot_equal(addr, word)
                      or words_disjoint(addr, Const(word))):
                # Not provably disjoint and not concretizable either:
                # stay conservative (may force UNKNOWN, never a miss).
                secret = True
        return self._fresh_read(pc, addr, secret, tuple(hints))

    def _read(self, path: _Path, pc: int, addr: Expr) -> Expr:
        bypassed = {frame.bypass_seq for frame in path.frames
                    if frame.bypass_seq >= 0}
        may_secret = False
        saw_may_alias = False
        hit_havoc = False
        for store in reversed(path.stores):
            if store.seq <= path.mem_havoc_seq:
                # Everything at or below the barrier was generalized
                # away by a loop havoc: the scan cannot forward from
                # (or prove disjointness against) hidden stores.
                hit_havoc = True
                break
            if store.seq in bypassed:
                continue
            must = exprs_equal(store.addr, addr) or (
                isinstance(store.addr, Const) and isinstance(addr, Const)
                and (store.addr.value & _WORD_ALIGN)
                == (addr.value & _WORD_ALIGN))
            if must:
                if not saw_may_alias:
                    return store.value
                may_secret = may_secret or store.value.secret
                break
            if words_disjoint(store.addr, addr):
                continue
            saw_may_alias = True
            may_secret = may_secret or store.value.secret
        initial = self._read_initial(pc, addr, path.constraints)
        if hit_havoc:
            may_secret = may_secret or path.mem_havoc_secret
        if not saw_may_alias and not hit_havoc:
            return initial
        # Ambiguous forwarding: the value is one of several sources.
        sym = self._fresh_read(pc, addr, may_secret or initial.secret,
                               self.var_hints.get(
                                   initial.name if isinstance(initial, Var)
                                   else "", ()))
        return sym

    # -- exploration ------------------------------------------------------

    def _charge_step(self) -> None:
        self.steps += 1
        if self.steps > self.max_steps:
            raise PathBudgetExceeded({
                "kind": "step_budget",
                "max_steps": self.max_steps,
                "steps": self.steps,
                "paths": self.paths,
                "detail": f"symbolic step budget exhausted "
                          f"({self.max_steps} steps); verdict degrades "
                          f"to UNKNOWN",
            })
        if self.steps % _BUDGET_POLL_STEPS == 0:
            self.check_wall_budget()

    def check_wall_budget(self) -> None:
        """Raise :class:`PathBudgetExceeded` when the wall-clock
        deadline has passed or the cancellation hook fired (polled
        every :data:`_BUDGET_POLL_STEPS` steps and before each solver
        call of the verdict phase — never inside a tight loop, so
        exploration cost stays unchanged when no deadline is set)."""
        if self.cancel_check is not None and self.cancel_check():
            raise PathBudgetExceeded({
                "kind": "cancelled",
                "steps": self.steps,
                "paths": self.paths,
                "detail": "certification cancelled by its owner; "
                          "verdict degrades to UNKNOWN",
            })
        if self.deadline is not None \
                and time.monotonic() >= self.deadline:
            raise PathBudgetExceeded({
                "kind": "wall_clock",
                "steps": self.steps,
                "paths": self.paths,
                "detail": "wall-clock budget exhausted; verdict "
                          "degrades to UNKNOWN",
            })

    def _charge_path(self) -> None:
        self.paths += 1
        if self.paths > self.max_paths:
            raise PathBudgetExceeded({
                "kind": "path_budget",
                "max_paths": self.max_paths,
                "paths": self.paths,
                "steps": self.steps,
                "detail": f"symbolic path budget exhausted "
                          f"({self.max_paths} paths); verdict degrades "
                          f"to UNKNOWN",
            })

    def explore(self) -> None:
        entry = self.program.entry_point
        if entry is None:
            entry = self.program.base_address
        stack: List[_Path] = [_Path(pc=entry, regs={})]
        try:
            self._charge_path()
            while True:
                while stack:
                    path = stack.pop()
                    self._run_path(path, stack)
                if not self._parked:
                    break
                self._drain_parked(stack)
        except PathBudgetExceeded as exc:
            self.truncated = True
            self.warnings.append(exc.warning)
            self._parked.clear()

    # -- loop summarization ----------------------------------------------

    def _loop_subsumed(self, path: _Path, summary: LoopSummary,
                       snap: _HavocSnapshot) -> bool:
        """True when every *concrete* continuation of ``path`` is an
        instantiation of the havoc snapshot's (already explored) state.

        Written registers are instantiable by construction — the havoc
        symbols are unconstrained (or bounded by a proven invariant
        every real run satisfies) — unless they currently carry a
        secret, which the public havoc symbols cannot represent.  All
        other registers, the shadow stack, and (absent a memory havoc)
        the store log must match exactly; with a memory havoc, stores
        appended since the snapshot are covered by the barrier's
        conservative reads as long as they are secret-free (or the
        barrier is already secret-tagged).
        """
        if path.shadow != snap.shadow:
            return False
        written = set(summary.written_regs)
        for reg in written:
            if self._reg(path, reg).secret:
                return False
        snap_regs = dict(snap.regs)
        for reg in set(path.regs) | set(snap_regs):
            if reg in written:
                continue
            a = path.regs.get(reg) or Const(0)
            b = snap_regs.get(reg) or Const(0)
            if a.secret != b.secret or not exprs_equal(a, b):
                return False
        if summary.writes_memory:
            if not path.mem_havoc_secret:
                for store in path.stores[snap.store_len:]:
                    if store.value.secret or store.addr.secret:
                        return False
        elif len(path.stores) != snap.store_len:
            return False
        return True

    def _enter_header(self, path: _Path) -> bool:
        """Architectural entry of a summarizable loop header.

        Returns False to kill the path (subsumed by its own havoc
        snapshot).  Past :data:`LOOP_VISITS` concrete entries the
        state is generalized: written registers havoc to fresh public symbols
        (bounded by accelerated induction caps where proven), stored
        memory havocs behind a read barrier, and the generalized state
        is snapshotted for the subsumption check.  Nested or
        re-entered loops whose outer context changed simply fail
        subsumption and re-generalize — each re-havoc is followed by
        one bounded traversal, so termination is preserved.
        """
        header = path.pc
        summary = self.loop_headers[header]
        snap = path.havocs.get(header) if path.havocs else None
        if snap is not None and self._loop_subsumed(path, summary, snap):
            return False
        visits = dict(path.visits) if path.visits else {}
        count = visits.get(header, 0) + 1
        visits[header] = count
        path.visits = visits
        if count <= LOOP_VISITS:
            return True
        written = summary.written_regs
        for reg in written:
            if self._reg(path, reg).secret:
                # A havoc symbol is public; generalizing a possibly-
                # secret register would be unsound.  Fall back to
                # budgeted unrolling for this loop.
                return True
        for reg in written:
            bound = summary.bound_for(reg)
            self._fresh += 1
            name = f"havoc_{header:x}_r{reg}_{self._fresh}"
            if bound is not None:
                sym = Var(name, lo=bound.lo, hi=bound.hi)
                self.accelerated_loops.add(header)
            else:
                sym = Var(name)
            path.regs[reg] = sym
        if summary.writes_memory:
            for store in reversed(path.stores):
                if store.seq <= path.mem_havoc_seq:
                    break
                if store.value.secret or store.addr.secret:
                    path.mem_havoc_secret = True
                    break
            path.mem_havoc_seq = self._store_seq
        havocs = dict(path.havocs) if path.havocs else {}
        havocs[header] = _HavocSnapshot(
            regs=tuple(sorted(path.regs.items(), key=lambda kv: kv[0])),
            shadow=path.shadow,
            store_len=len(path.stores))
        path.havocs = havocs
        self.summarized_loops.add(header)
        return True

    # -- path merging ------------------------------------------------------

    def _merge_key(self, path: _Path) -> Tuple:
        """Cheap bucket key: two paths can only merge within a key.

        The key excludes ``window_left`` (merging maxes windows) and
        register values (merging folds them); everything else that a
        merge must preserve exactly is hashed here so the drain never
        attempts quadratic pairing across incompatible paths.
        """
        return (
            tuple((f.kind, f.source_pc, f.bypass_seq)
                  for f in path.frames),
            len(path.stores),
            path.shadow,
            path.mem_havoc_seq,
            tuple(sorted((path.visits or {}).items())),
            tuple(sorted((id(s) for s in (path.havocs or {}).values()))),
        )

    def _merge_at_join(self, a: _Path, b: _Path,
                       addr: int) -> Optional[_Path]:
        """Fuse two parked paths (same ``_merge_key``) or return None.

        The fused state over-approximates both inputs: registers that
        agree are kept, disagreeing *public* registers fold to a fresh
        public symbol, constraints drop to the longest common prefix,
        and speculation windows take the pointwise maximum (a longer
        window explores a superset of behaviors; the extra
        observations are spurious and die in concrete validation).
        Anything that cannot be weakened soundly — secret registers
        or differing store logs — refuses the merge.  When the
        program declares secrets, merging degrades to pure
        deduplication (identical registers, constraints, and windows):
        a folded symbol could alias a secret word a precise value
        could not, flipping a corpus PROVED_SAFE to UNKNOWN for
        nothing.
        """
        strict = bool(self.secret_words)
        frames = a.frames
        if a.frames != b.frames:
            if strict:
                return None
            frames = tuple(
                replace(fa, window_left=max(fa.window_left,
                                            fb.window_left))
                for fa, fb in zip(a.frames, b.frames))
        for sa, sb in zip(a.stores, b.stores):
            if sa is sb:
                continue
            if sa.pc != sb.pc or not exprs_equal(sa.addr, sb.addr) \
                    or not exprs_equal(sa.value, sb.value):
                return None
        regs: Dict[int, Expr] = {}
        folded: List[int] = []
        for reg in set(a.regs) | set(b.regs):
            va = a.regs.get(reg) or Const(0)
            vb = b.regs.get(reg) or Const(0)
            if va is vb or exprs_equal(va, vb):
                regs[reg] = va
                continue
            if va.secret or vb.secret or strict:
                return None
            folded.append(reg)
        if strict and a.constraints != b.constraints:
            return None
        for reg in folded:
            self._fresh += 1
            regs[reg] = Var(f"merge_{addr:x}_r{reg}_{self._fresh}")
        common: List[Expr] = []
        for ca, cb in zip(a.constraints, b.constraints):
            if ca is cb or exprs_equal(ca, cb):
                common.append(ca)
            else:
                break
        return _Path(
            pc=addr, regs=regs, frames=frames,
            constraints=tuple(common),
            stores=a.stores, shadow=a.shadow,
            visits=a.visits, havocs=a.havocs,
            mem_havoc_seq=a.mem_havoc_seq,
            mem_havoc_secret=a.mem_havoc_secret or b.mem_havoc_secret)

    #: Unmergeable same-key paths each become a representative; new
    #: arrivals only try this many before giving up (bounds the
    #: per-bucket pairing at O(n * cap)).
    _MERGE_REP_CAP = 8

    def _drain_parked(self, stack: List[_Path]) -> None:
        """Unpark the largest join group, fusing compatible paths.

        Paths are bucketed by :meth:`_merge_key` first, then folded
        left-to-right within each bucket.  Merged paths are not
        re-charged against the path budget (they strictly reduce the
        live set), and the per-join merge budget bounds total fusions.
        """
        addr = max(self._parked, key=lambda a: (len(self._parked[a]), -a))
        group = self._parked.pop(addr)
        buckets: Dict[Tuple, List[_Path]] = {}
        for path in group:
            buckets.setdefault(self._merge_key(path), []).append(path)
        budget = MERGE_BUDGET
        out: List[_Path] = []
        for bucket in buckets.values():
            reps: List[_Path] = []
            for path in bucket:
                fused: Optional[_Path] = None
                if budget > 0:
                    for i, rep in enumerate(reps[:self._MERGE_REP_CAP]):
                        fused = self._merge_at_join(rep, path, addr)
                        if fused is not None:
                            reps[i] = fused
                            self.merged_paths += 1
                            # A fusion retires one live path: refund
                            # its budget charge.  ``paths`` thus counts
                            # distinct merged flows, and ``max_steps``
                            # still bounds the total work.
                            self.paths -= 1
                            budget -= 1
                            break
                if fused is None:
                    reps.append(path)
            out.extend(reps)
        for path in out:
            path.no_park = addr
            stack.append(path)

    def _reg(self, path: _Path, index: int) -> Expr:
        if index == 0:
            return Const(0)
        return path.regs.get(index, Const(0))

    def _write_reg(self, path: _Path, index: Optional[int],
                   value: Expr) -> None:
        if index:
            path.regs[index] = value

    def _push_fork(self, stack: List[_Path], fork: _Path) -> None:
        self._charge_path()
        stack.append(fork)

    def _record_observation(self, path: _Path, pc: int,
                            addr: Expr) -> None:
        innermost = path.frames[-1]
        self.observations.append(Observation(
            pc=pc,
            addr=addr,
            kind=innermost.kind,
            source_pc=innermost.source_pc,
            depth=len(path.frames),
            constraints=path.constraints,
        ))

    def _record_control(self, path: _Path, pc: int, cond: Expr) -> None:
        if cond.secret:
            self.control_candidates.append(ControlCandidate(
                pc=pc,
                condition=cond,
                constraints=path.constraints,
                transient=bool(path.frames),
            ))

    def _tick_frames(self, path: _Path) -> bool:
        """Advance every active window; True while the path lives."""
        if not path.frames:
            return True
        frames = tuple(replace(f, window_left=f.window_left - 1)
                       for f in path.frames)
        if any(f.window_left <= 0 for f in frames):
            return False
        path.frames = frames
        return True

    def _run_path(self, path: _Path, stack: List[_Path]) -> None:
        while True:
            if path.pc == path.no_park:
                path.no_park = -1  # one-shot pass-through after unpark
            elif self.merge_addrs and path.pc in self.merge_addrs:
                self._parked.setdefault(path.pc, []).append(path)
                return
            if (self.loop_headers and not path.frames
                    and path.pc in self.loop_headers
                    and not self._enter_header(path)):
                return  # subsumed by this path's own havoc snapshot
            instr = self.imap.get(path.pc)
            if instr is None:
                return  # control left the program image: path ends
            self._charge_step()
            pc = path.pc
            op = instr.op
            next_pc = pc + INSTRUCTION_BYTES

            if op is Opcode.HALT:
                return
            if instr.is_serializing:  # FENCE / RDCYCLE
                if path.frames:
                    return  # stalls until the squash: transient path dies
                if op is Opcode.RDCYCLE:
                    # Architectural timer read: harmless for SNI (the
                    # value is public); model as a fresh public symbol.
                    self._fresh += 1
                    self._write_reg(path, instr.rd,
                                    Var(f"rdcycle_{pc:x}_{self._fresh}"))
                path.pc = next_pc
                if not self._tick_frames(path):
                    return
                continue
            if op in (Opcode.NOP, Opcode.CLFLUSH):
                pass
            elif op is Opcode.LI:
                self._write_reg(path, instr.rd, Const(instr.imm))
            elif op is Opcode.MOV:
                self._write_reg(path, instr.rd, self._reg(path, instr.rs1))
            elif op in _ALU_OP:
                a = self._reg(path, instr.rs1)
                b = (Const(instr.imm) if instr.alu_imm
                     else self._reg(path, instr.rs2))
                self._write_reg(path, instr.rd, mk(_ALU_OP[op], a, b))
            elif op is Opcode.LOAD:
                addr = mk("add", self._reg(path, instr.rs1),
                          Const(instr.imm))
                if path.frames:
                    self._record_observation(path, pc, addr)
                self._write_reg(path, instr.rd, self._read(path, pc, addr))
            elif op is Opcode.STORE:
                addr = mk("add", self._reg(path, instr.rs1),
                          Const(instr.imm))
                value = self._reg(path, instr.rs2)
                self._store_seq += 1
                seq = self._store_seq
                if len(path.frames) < self.max_depth:
                    self._push_fork(stack, path.fork(
                        next_pc,
                        frame=_Frame("v4", pc, self.window,
                                     bypass_seq=seq)))
                path.stores = path.stores + (_Store(seq, pc, addr, value),)
            elif op is Opcode.JMP:
                path.pc = instr.target
                if not self._tick_frames(path):
                    return
                continue
            elif op is Opcode.CALL:
                self._write_reg(path, instr.rd, Const(next_pc))
                path.shadow = path.shadow + (next_pc,)
                path.pc = instr.target
                if not self._tick_frames(path):
                    return
                continue
            elif op in (Opcode.JMPI, Opcode.RET):
                target = self._reg(path, instr.rs1)
                self._record_control(path, pc, target)
                shadow = path.shadow
                if op is Opcode.RET and shadow:
                    predicted: Optional[int] = shadow[-1]
                    shadow = shadow[:-1]
                else:
                    predicted = None
                path.shadow = shadow
                if len(path.frames) < self.max_depth:
                    if op is Opcode.JMPI:
                        # Attacker-trained BTB: steer anywhere.
                        for steer in (*self.labels, next_pc):
                            self._push_fork(stack, path.fork(
                                steer, frame=_Frame("v2", pc, self.window)))
                    elif predicted is not None:
                        self._push_fork(stack, path.fork(
                            predicted, frame=_Frame("rsb", pc, self.window)))
                # Architectural continuation: follow the register.
                if isinstance(target, Const):
                    arch_target = target.value
                    constraint: Optional[Expr] = None
                else:
                    arch_target = evaluate(target, {})
                    constraint = mk("eq", target, Const(arch_target))
                if constraint is not None:
                    path.constraints = path.constraints + (constraint,)
                if arch_target not in self.imap:
                    return
                path.pc = arch_target
                if not self._tick_frames(path):
                    return
                continue
            elif instr.is_conditional_branch:
                cond = mk(_BRANCH_OP[op], self._reg(path, instr.rs1),
                          self._reg(path, instr.rs2))
                self._record_control(path, pc, cond)
                fork_ok = len(path.frames) < self.max_depth
                if isinstance(cond, Const):
                    taken = bool(cond.value)
                    arch = instr.target if taken else next_pc
                    wrong = next_pc if taken else instr.target
                    if fork_ok:
                        self._push_fork(stack, path.fork(
                            wrong, frame=_Frame("v1", pc, self.window)))
                    path.pc = arch
                else:
                    # Both architectural directions are feasible a
                    # priori; each forks its own transient twin.
                    taken_path = path.fork(instr.target, constraint=cond)
                    self._push_fork(stack, taken_path)
                    if fork_ok:
                        self._push_fork(stack, taken_path.fork(
                            next_pc, frame=_Frame("v1", pc, self.window)))
                        self._push_fork(stack, path.fork(
                            instr.target,
                            frame=_Frame("v1", pc, self.window),
                            constraint=negate(cond)))
                    path.constraints = path.constraints + (negate(cond),)
                    path.pc = next_pc
                if not self._tick_frames(path):
                    return
                continue
            else:
                raise AssertionError(f"unhandled opcode {op}")

            path.pc = next_pc
            if not self._tick_frames(path):
                return


# ---------------------------------------------------------------------------
# Concrete always-mispredict reference trace (witness validation)
# ---------------------------------------------------------------------------


def concrete_speculative_trace(
    program: Program,
    overrides: Mapping[int, int],
    *,
    window: int = DEFAULT_WINDOW,
    max_depth: int = DEFAULT_MAX_DEPTH,
    max_steps: int = DEFAULT_MAX_STEPS,
    line_bytes: int = 64,
) -> List[Tuple[int, int]]:
    """The ordered speculative observation sequence ``[(pc, line)]`` of
    one concrete initial state under the same always-mispredict
    semantics the symbolic explorer uses.

    This is the ground truth for witness validation: a ``LEAKY``
    verdict requires two concrete initial states (equal publics,
    different secrets) whose traces differ.  Deterministic by
    construction — no randomness, no clocks.
    """
    imap: Dict[int, Instruction] = dict(program.iter_addressed())
    labels = tuple(sorted(set(program.labels.values())))
    base_memory = dict(program.initial_memory)
    base_memory.update({mask64(a) & _WORD_ALIGN: mask64(v)
                        for a, v in overrides.items()})
    observations: List[Tuple[int, int]] = []
    budget = [max_steps]

    def run(pc: int, regs: List[int], memory: Dict[int, int],
            shadow: List[int], windows: Tuple[int, ...]) -> None:
        speculative = bool(windows)
        while True:
            if windows and min(windows) <= 0:
                return
            if budget[0] <= 0:
                return
            budget[0] -= 1
            instr = imap.get(pc)
            if instr is None:
                return
            op = instr.op
            next_pc = pc + INSTRUCTION_BYTES
            windows = tuple(w - 1 for w in windows)
            if op is Opcode.HALT:
                return
            if instr.is_serializing:
                if speculative:
                    return
                if op is Opcode.RDCYCLE and instr.rd:
                    regs[instr.rd] = 0
                pc = next_pc
                continue
            if op in (Opcode.NOP, Opcode.CLFLUSH):
                pc = next_pc
                continue
            if op is Opcode.LI:
                if instr.rd:
                    regs[instr.rd] = mask64(instr.imm)
            elif op is Opcode.MOV:
                if instr.rd:
                    regs[instr.rd] = regs[instr.rs1]
            elif op in _ALU_OP:
                b = (mask64(instr.imm) if instr.alu_imm
                     else regs[instr.rs2])
                if instr.rd:
                    regs[instr.rd] = evaluate_alu(op, regs[instr.rs1], b)
            elif op is Opcode.LOAD:
                vaddr = mask64(regs[instr.rs1] + instr.imm)
                if speculative:
                    observations.append((pc, vaddr // line_bytes))
                if instr.rd:
                    regs[instr.rd] = memory.get(vaddr & _WORD_ALIGN, 0)
            elif op is Opcode.STORE:
                vaddr = mask64(regs[instr.rs1] + instr.imm)
                if len(windows) < max_depth:
                    # Store-bypass fork runs on the pre-store memory.
                    run(next_pc, list(regs), dict(memory), list(shadow),
                        windows + (window,))
                memory[vaddr & _WORD_ALIGN] = regs[instr.rs2]
            elif op is Opcode.JMP:
                pc = instr.target
                continue
            elif op is Opcode.CALL:
                if instr.rd:
                    regs[instr.rd] = next_pc
                shadow.append(next_pc)
                pc = instr.target
                continue
            elif op in (Opcode.JMPI, Opcode.RET):
                target = regs[instr.rs1]
                predicted = None
                if op is Opcode.RET and shadow:
                    predicted = shadow.pop()
                if len(windows) < max_depth:
                    if op is Opcode.JMPI:
                        for steer in (*labels, next_pc):
                            run(steer, list(regs), dict(memory),
                                list(shadow), windows + (window,))
                    elif predicted is not None:
                        run(predicted, list(regs), dict(memory),
                            list(shadow), windows + (window,))
                if target not in imap:
                    return
                pc = target
                continue
            elif instr.is_conditional_branch:
                taken = branch_taken(op, regs[instr.rs1], regs[instr.rs2])
                arch = instr.target if taken else next_pc
                wrong = next_pc if taken else instr.target
                if len(windows) < max_depth:
                    run(wrong, list(regs), dict(memory), list(shadow),
                        windows + (window,))
                pc = arch
                continue
            pc = next_pc

    entry = program.entry_point
    if entry is None:
        entry = program.base_address
    run(entry, [0] * 64, base_memory, [], ())
    return observations


# ---------------------------------------------------------------------------
# Certification driver
# ---------------------------------------------------------------------------


def _first_divergence(
    trace_a: Sequence[Tuple[int, int]],
    trace_b: Sequence[Tuple[int, int]],
) -> Optional[Tuple[int, int]]:
    """The first pair of differing line indices, or ``None``."""
    for (pc_a, line_a), (pc_b, line_b) in zip(trace_a, trace_b):
        if line_a != line_b:
            return line_a, line_b
        if pc_a != pc_b:
            # Same line via different code: sequences already diverged
            # in control; the next differing line decides, keep going.
            continue
    if len(trace_a) != len(trace_b):
        longer = trace_a if len(trace_a) > len(trace_b) else trace_b
        line = longer[min(len(trace_a), len(trace_b))][1]
        return line, line
    return None


def _secret_variants(value: int) -> Tuple[int, ...]:
    """Alternative secret values to try against a base model (ordered,
    deterministic; early entries shift transmit lines by whole cache
    lines for common stride encodings)."""
    return tuple(dict.fromkeys(mask64(v) for v in (
        value + 1, value - 1, value ^ 1, value + 64, 0 if value else 1,
        value + 7,
    )))


class _CertifyContext:
    """Shared machinery for validating leak candidates."""

    def __init__(self, explorer: _Explorer, program: Program,
                 *, window: int, max_depth: int, max_steps: int,
                 line_bytes: int) -> None:
        self.explorer = explorer
        self.program = program
        self.window = window
        self.max_depth = max_depth
        self.max_steps = max_steps
        self.line_bytes = line_bytes
        self._trace_cache: Dict[Tuple[Tuple[int, int], ...],
                                List[Tuple[int, int]]] = {}

    def model_overrides(self, model: Mapping[str, int]) -> Dict[int, int]:
        """Project a model onto concrete initial-memory words."""
        overrides: Dict[int, int] = {}
        for word, var in self.explorer._initial_syms.items():
            if var.name in model:
                overrides[word] = mask64(model[var.name])
        return overrides

    def trace(self, overrides: Mapping[int, int]) -> List[Tuple[int, int]]:
        key = tuple(sorted(overrides.items()))
        cached = self._trace_cache.get(key)
        if cached is None:
            cached = concrete_speculative_trace(
                self.program, overrides,
                window=self.window, max_depth=self.max_depth,
                max_steps=self.max_steps, line_bytes=self.line_bytes)
            self._trace_cache[key] = cached
        return cached

    def secret_word_of(self, var: Var,
                       model: Mapping[str, int]) -> Optional[int]:
        """The declared-secret memory word ``var`` stands for.

        Initial-memory symbols carry it directly; a fresh symbol from a
        symbolic-address read resolves through the read's address
        expression under ``model`` (and must land on a declared secret
        word — perturbing anything else would change *public* state
        and invalidate the counterexample)."""
        if var.origin_word is not None:
            return var.origin_word
        read_addr = self.explorer.var_read_addr.get(var.name)
        if read_addr is None:
            return None
        word = mask64(evaluate(read_addr, dict(model))) & _WORD_ALIGN
        return word if word in self.explorer.secret_words else None

    def validate(
        self,
        model: Mapping[str, int],
        secret_vars: Sequence[Var],
    ) -> Optional[Tuple[Dict[int, int], Dict[int, int], Dict[int, int],
                        Tuple[int, int]]]:
        """Search secret perturbations of ``model`` whose concrete
        traces diverge.  Returns (public overrides, secrets A,
        secrets B, (line_a, line_b)) or ``None``."""
        overrides = self.model_overrides(model)
        secrets_a: Dict[int, int] = {}
        for var in secret_vars:
            word = self.secret_word_of(var, model)
            if word is not None:
                secrets_a.setdefault(
                    word, mask64(model.get(var.name, var.preferred)))
        publics = {word: value for word, value in overrides.items()
                   if word not in secrets_a}
        base_trace = self.trace({**publics, **secrets_a})
        for word in sorted(secrets_a):
            for variant in _secret_variants(secrets_a[word]):
                if variant == secrets_a[word]:
                    continue
                secrets_b = dict(secrets_a)
                secrets_b[word] = variant
                other_trace = self.trace({**publics, **secrets_b})
                divergence = _first_divergence(base_trace, other_trace)
                if divergence is not None:
                    return publics, secrets_a, secrets_b, divergence
        return None

    def warm_words(self, exprs: Iterable[Expr],
                   model: Mapping[str, int]) -> Tuple[int, ...]:
        """The initial-memory lines a replay should stage warm: every
        word feeding the observed address chain — transitively, through
        the *addresses* of the loads in the chain (the victim recently
        touched its own data — the standard Spectre assumption).
        Trigger-only inputs (a bounds-check size, a return-target word)
        are not in the chain and stay cold, keeping the window open."""
        words: Set[int] = set()
        seen: Set[str] = set()
        concrete = dict(model)
        work: List[Expr] = list(exprs)
        while work:
            expr = work.pop()
            for var in support(expr).values():
                if var.name in seen:
                    continue
                seen.add(var.name)
                if var.origin_word is not None:
                    words.add(var.origin_word)
                    continue
                read_addr = self.explorer.var_read_addr.get(var.name)
                if read_addr is not None:
                    words.add(mask64(evaluate(read_addr, concrete))
                              & _WORD_ALIGN)
                    work.append(read_addr)
        return tuple(sorted(words))


def certify_program(
    program: Program,
    *,
    secret_words: Iterable[int] = (),
    window: int = DEFAULT_WINDOW,
    max_depth: int = DEFAULT_MAX_DEPTH,
    max_paths: int = DEFAULT_MAX_PATHS,
    max_steps: int = DEFAULT_MAX_STEPS,
    replay: bool = True,
    machine: Optional[MachineParams] = None,
    name: str = "program",
    wall_clock_budget: Optional[float] = None,
    cancel_check: Optional[Callable[[], bool]] = None,
    summaries: Optional[ProgramSummaries] = None,
) -> CertifyResult:
    """Certify ``program`` speculatively noninterferent — or refute it
    with a replayable counterexample.

    See the module docstring for semantics.  ``replay`` additionally
    runs every witness on the dynamic pipeline (``Processor`` in
    unsafe ORIGIN mode); disable it for purely symbolic studies.

    ``wall_clock_budget`` (seconds) and ``cancel_check`` bound the
    certification the way the step/path budgets do: when the deadline
    passes or the hook fires, exploration and the verdict phase stop,
    unresolved sinks stay unresolved, and the verdict degrades to
    ``UNKNOWN`` with a structured ``wall_clock``/``cancelled`` warning
    — never a hang.

    ``summaries`` feed the loop-summarization and path-merging
    machinery (module docstring): precomputed
    :class:`~repro.analysis.summaries.ProgramSummaries` are used as
    given, otherwise they are derived here.
    """
    started = time.perf_counter()
    deadline = (time.monotonic() + wall_clock_budget
                if wall_clock_budget is not None else None)
    secrets = tuple(sorted(set(mask64(w) & _WORD_ALIGN
                               for w in secret_words)))
    if summaries is None:
        summaries = summarize_program(program, window=window)
    solver = ConstraintSolver()
    explorer = _Explorer(program, secrets, window=window,
                         max_depth=max_depth, max_paths=max_paths,
                         max_steps=max_steps, solver=solver,
                         deadline=deadline, cancel_check=cancel_check,
                         summaries=summaries)
    explorer.explore()

    line_bytes = machine.memory.line_bytes if machine is not None else 64
    context = _CertifyContext(explorer, program, window=window,
                              max_depth=max_depth, max_steps=max_steps,
                              line_bytes=line_bytes)

    leaks: List[LeakRecord] = []
    leaky_pcs: Set[int] = set()
    unresolved: Set[int] = set()
    safe: Set[int] = set()

    def verdict_budget_ok() -> bool:
        """Poll wall-clock/cancel before each solver call of the
        verdict phase; on exhaustion record one structured warning and
        mark the run truncated (the remaining sinks stay unresolved,
        degrading the verdict to ``UNKNOWN`` instead of overrunning)."""
        if explorer.truncated:
            warned = {w.get("kind") for w in explorer.warnings}
            if warned & {"wall_clock", "cancelled"}:
                return False
        try:
            explorer.check_wall_budget()
        except PathBudgetExceeded as exc:
            explorer.truncated = True
            explorer.warnings.append(exc.warning)
            return False
        return True

    for obs in explorer.observations:
        if not obs.addr.secret:
            safe.add(obs.pc)
            continue
        if obs.pc in leaky_pcs or obs.pc in unresolved:
            continue
        if len(leaks) >= MAX_LEAKS or not verdict_budget_ok():
            unresolved.add(obs.pc)
            continue
        secret_vars = sorted(
            (var for var in support(obs.addr).values() if var.secret),
            key=lambda var: var.name)
        hints: List[Expr] = []
        for var in secret_vars:
            hints.extend(explorer.var_hints.get(var.name, ()))
        model = solver.find_model(
            [*obs.constraints, *hints],
            extra_variables=support(obs.addr).values())
        outcome = (context.validate(model, secret_vars)
                   if model is not None else None)
        if outcome is None:
            unresolved.add(obs.pc)
            continue
        publics, secrets_a, secrets_b, lines = outcome
        witness = Witness(
            kind=obs.kind,
            source_pc=obs.source_pc,
            sink_pc=obs.pc,
            public_memory=tuple(sorted(publics.items())),
            secret_memory_a=tuple(sorted(secrets_a.items())),
            secret_memory_b=tuple(sorted(secrets_b.items())),
            warm_words=context.warm_words([obs.addr], model or {}),
            predicted_lines=tuple(sorted(set(lines))),
            line_bytes=line_bytes,
        )
        replayed = (replay_witness(program, witness, machine=machine)
                    if replay else None)
        leaks.append(LeakRecord(pc=obs.pc, kind=obs.kind,
                                source_pc=obs.source_pc, channel="data",
                                witness=witness, replay=replayed))
        leaky_pcs.add(obs.pc)

    # Control-flow candidates: secret-dependent branch conditions or
    # indirect targets (sequence leaks).
    for candidate in explorer.control_candidates:
        if candidate.pc in leaky_pcs or candidate.pc in unresolved:
            continue
        if len(leaks) >= MAX_LEAKS or not verdict_budget_ok():
            unresolved.add(candidate.pc)
            continue
        secret_vars = sorted(
            (var for var in support(candidate.condition).values()
             if var.secret),
            key=lambda var: var.name)
        model = solver.find_model(
            list(candidate.constraints),
            extra_variables=support(candidate.condition).values())
        outcome = (context.validate(model, secret_vars)
                   if model is not None else None)
        if outcome is None:
            unresolved.add(candidate.pc)
            continue
        publics, secrets_a, secrets_b, lines = outcome
        witness = Witness(
            kind="control",
            source_pc=candidate.pc,
            sink_pc=candidate.pc,
            public_memory=tuple(sorted(publics.items())),
            secret_memory_a=tuple(sorted(secrets_a.items())),
            secret_memory_b=tuple(sorted(secrets_b.items())),
            warm_words=context.warm_words(
                [candidate.condition], model or {}),
            predicted_lines=tuple(sorted(set(lines))),
            line_bytes=line_bytes,
        )
        replayed = (replay_witness(program, witness, machine=machine)
                    if replay else None)
        leaks.append(LeakRecord(pc=candidate.pc, kind="control",
                                source_pc=candidate.pc, channel="control",
                                witness=witness, replay=replayed))
        leaky_pcs.add(candidate.pc)

    unresolved -= leaky_pcs
    safe -= leaky_pcs | unresolved

    if leaks:
        verdict = Verdict.LEAKY
    elif explorer.truncated or unresolved:
        verdict = Verdict.UNKNOWN
        if unresolved and not explorer.truncated:
            explorer.warnings.append({
                "kind": "unresolved_observations",
                "pcs": sorted(unresolved),
                "detail": "secret-tainted observation(s) could neither "
                          "be confirmed leaky nor proven safe within "
                          "the solver budget",
            })
    else:
        verdict = Verdict.PROVED_SAFE

    return CertifyResult(
        name=name,
        verdict=verdict,
        leaks=tuple(leaks),
        observations=len(explorer.observations),
        paths=explorer.paths,
        steps=explorer.steps,
        truncated=explorer.truncated,
        warnings=tuple(explorer.warnings),
        unresolved_pcs=tuple(sorted(unresolved)),
        safe_pcs=tuple(sorted(safe)),
        solver_stats=solver.stats,
        secret_words=secrets,
        window=window,
        max_depth=max_depth,
        duration_s=time.perf_counter() - started,
        merged_paths=explorer.merged_paths,
        summarized_loops=len(explorer.summarized_loops),
        accelerated_loops=len(explorer.accelerated_loops),
        summary_cache_hit=summaries.cache_hit,
    )


def finding_certificates(
    result: CertifyResult,
    report: AnalysisReport,
) -> Dict[int, Dict[str, object]]:
    """Per-finding ``certificate`` blocks for the analyze JSON schema
    (v4): the certifier's verdict *for that sink*, plus the witness,
    its dynamic replay, the solver statistics backing the run, and
    the summary provenance (how much loop summarization / path
    merging / cache reuse contributed)."""
    blocks: Dict[int, Dict[str, object]] = {}
    for finding in report.findings:
        verdict = result.verdict_for(finding.sink_pc)
        leak = result.leak_at(finding.sink_pc)
        blocks[finding.sink_pc] = {
            "verdict": verdict.value,
            "witness": (leak.witness.to_dict()
                        if leak is not None else None),
            "replay": (leak.replay.to_dict()
                       if leak is not None and leak.replay is not None
                       else None),
            "solver": result.solver_stats.to_dict(),
            "summary": {
                "merged_paths": result.merged_paths,
                "summarized_loops": result.summarized_loops,
                "accelerated_loops": result.accelerated_loops,
                "summary_cache_hit": result.summary_cache_hit,
            },
        }
    return blocks


__all__ = [
    "CertifyResult",
    "ControlCandidate",
    "DEFAULT_MAX_DEPTH",
    "DEFAULT_MAX_PATHS",
    "DEFAULT_MAX_STEPS",
    "LeakRecord",
    "Observation",
    "Verdict",
    "certify_program",
    "concrete_speculative_trace",
    "finding_certificates",
]
