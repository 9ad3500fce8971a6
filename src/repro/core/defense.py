"""Pluggable defense strategies (the defense zoo).

The paper evaluates exactly one mechanism family — Conditional
Speculation's security dependence matrix plus the Cache-hit and TPBuf
hazard filters.  This module makes the defense an explicit strategy
object, so the paper's four configurations (:data:`PAPER_DEFENSES`)
and schemes from the wider literature (NDA-style delay variants,
InvisiSpec, STT, SLH) plug into the same pipeline without touching it.
A defense's registry name is its only identity: configs, reports,
sweep rows and checkpoints all carry that one string.

A :class:`Defense` declares its hardware (``uses_matrix``,
``uses_tpbuf``) and overrides the hooks it needs; nothing else.  The
hooks a class overrides are its wiring: the pipeline calls a hook only
on defenses that override it, through flags derived once per class
(:meth:`Defense.__init_subclass__`).  Every entry is cycle-exact
against ``tests/data/cycles_golden.json``.

Every entry also declares its hardware area through the analytic model
in :mod:`repro.core.area_model`, which is what the
``defense_shootout`` experiment reports alongside security and IPC.

Adding a scheme::

    @register_defense
    class MyDefense(Defense):
        name = "my_defense"
        summary = "one-line description"
        provenance = "Authors, Venue Year"

        def gate_issue(self, cpu, inst):
            return not self._looks_dangerous(inst)

        def area_mm2(self, machine):
            return 0.001

See ``docs/defenses.md`` for the full contract.
"""
from __future__ import annotations

from enum import Enum
from typing import TYPE_CHECKING, Dict, List, Tuple, Type

from ..errors import DefenseConfigError
from ..stats import StatGroup
from .area_model import (
    cache_area_mm2,
    comparator_area_mm2,
    matrix_area_mm2,
    tpbuf_area_mm2,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle avoidance
    from ..isa.program import Program
    from ..params import MachineParams
    from ..pipeline.dyninst import DynInst
    from ..pipeline.processor import Processor

__all__ = [
    "DEFENSE_ALIASES",
    "DEFENSE_REGISTRY",
    "PAPER_DEFENSES",
    "Defense",
    "DefenseConfigError",
    "MissVerdict",
    "create_defense",
    "defense_names",
    "normalize_defense_name",
    "register_defense",
]


class MissVerdict(Enum):
    """Fate of a suspect load at the L1D
    (:meth:`Defense.judge_suspect_load`)."""

    PROCEED = "proceed"   # safe: access the cache as a normal load
    BLOCK = "block"       # unsafe: discard the request, re-issue later
    #: InvisiSpec-style: read memory at miss latency but change no
    #: cache state; the line is exposed (filled) at commit.
    INVISIBLE = "invisible"


class Defense:
    """Strategy interface for a speculation defense.

    One instance is created per :class:`Processor` (defenses may keep
    per-run state, initialized in :meth:`attach`), but configs and
    sweep tasks reference defenses *by name* so they stay picklable
    for spawn-based parallel executors.

    Class attributes (identity):

    - ``name`` — registry key, also the user-facing spelling.
    - ``summary`` / ``provenance`` — documentation strings.
    - ``kind`` — ``"hardware"`` or ``"software"`` (software defenses
      rewrite the program and add no hardware).

    Hardware declarations, the only wiring a class writes:

    - ``uses_matrix`` — install security-dependence rows at dispatch.
    - ``uses_tpbuf`` — build the TPBuf, which reads the LSQ residents.

    Derived wiring, set once per class by :meth:`__init_subclass__`
    from the hooks it overrides; the pipeline skips the hooks of a
    flag that is false:

    - ``tags_suspect`` — ``uses_matrix``, or :meth:`is_suspect`;
    - ``gates_issue`` — :meth:`gate_issue`;
    - ``filters_at_cache`` — :meth:`judge_suspect_load`;
    - ``wants_events`` — any of :meth:`on_dispatch`,
      :meth:`on_resolve`, :meth:`on_commit`, :meth:`on_squash`;
    - ``taints_writeback`` — :meth:`on_writeback`.

    Coverage declaration (consumed by the static pre-screen in
    :mod:`repro.analysis.prescreen`):

    - ``covers_sources`` — the speculation-source families the
      defense's suspect/gate predicate can *see*, out of ``"branch"``
      (conditional mispredict, Spectre V1), ``"indirect"`` (BTB,
      V2), ``"return"`` (RSB) and ``"store"`` (store bypass, V4).  An
      attack whose source family is absent here is predicted to leak.
    - ``coverage_needs_memdep`` — ``"store"`` coverage is contingent
      on the static store sets of :mod:`repro.analysis.memdep`: the
      defense only delays loads its may-bypass table names, so the
      pre-screen must check the table covers the attack's bypassing
      pairs instead of taking ``"store"`` on faith.
    """

    name: str = ""
    summary: str = ""
    provenance: str = ""
    kind: str = "hardware"

    uses_matrix: bool = False
    uses_tpbuf: bool = False

    tags_suspect: bool
    gates_issue: bool
    filters_at_cache: bool
    wants_events: bool
    taints_writeback: bool

    covers_sources: Tuple[str, ...] = ()
    coverage_needs_memdep: bool = False

    def __init_subclass__(cls, **kwargs: object) -> None:
        # At class creation, not per Processor: perfbench's tracer
        # rebinds the hooks of every class after import.
        super().__init_subclass__(**kwargs)
        _derive_wiring(cls)

    # ---- lifecycle ---------------------------------------------------------

    def __init__(self) -> None:
        #: Counters of the cache-stage verdicts (``suspect_accesses``,
        #: ``filtered_by_cache_hit``, ``filtered_by_tpbuf``,
        #: ``blocked_misses``, ``invisible_misses``), reported as
        #: ``SimReport.raw["hazard_filters"]``.
        self.stats = StatGroup("hazard_filters")

    def attach(self, cpu: "Processor") -> None:
        """Initialize per-run state; called once at the end of
        ``Processor.__init__``."""

    def transform_program(self, program: "Program") -> "Program":
        """Software defenses rewrite the program here; hardware
        defenses return it unchanged."""
        return program

    # ---- hardware cost -----------------------------------------------------

    def area_mm2(self, machine: "MachineParams") -> float:
        """Added hardware area (analytic 40nm model).  Every registry
        entry must implement this."""
        raise NotImplementedError(
            f"defense '{self.name}' declares no area cost"
        )

    def area_fraction(self, machine: "MachineParams") -> float:
        """Area relative to the paper's 4-way 32KB L1D reference."""
        return self.area_mm2(machine) / cache_area_mm2(32 * 1024, 4)

    # ---- pipeline hooks ----------------------------------------------------

    def is_suspect(self, cpu: "Processor", inst: "DynInst") -> bool:
        """Is this memory instruction an unsafe speculative access?
        Sampled at issue select, and asked again each cycle a
        filter-blocked load waits: a pure function of pipeline state,
        like :meth:`gate_issue`.  The default is the security
        dependence row (Section V.B)."""
        return cpu.iq.matrix.has_dependence(inst)

    def gate_issue(self, cpu: "Processor", inst: "DynInst") -> bool:
        """May this memory instruction issue now?  A "no" must be a
        pure function of pipeline state: quiet cycles that only ask
        this are skipped (``docs/defenses.md``)."""
        return True

    def judge_suspect_load(self, cpu: "Processor", inst: "DynInst",
                           l1_hit: bool) -> MissVerdict:
        """Fate of a suspect load at the L1D: ``PROCEED`` (access the
        cache normally), ``BLOCK`` (discard, re-issue once
        :meth:`is_suspect` turns false), or ``INVISIBLE`` (read memory
        without changing cache state; expose at commit).  The default
        lets every suspect load proceed; the paper's Cache-hit filter
        is :class:`CacheHitDefense`'s."""
        return MissVerdict.PROCEED

    # ---- event hooks -------------------------------------------------------

    def on_dispatch(self, cpu: "Processor", inst: "DynInst") -> None:
        """Every instruction entering the ROB."""

    def on_resolve(self, cpu: "Processor", inst: "DynInst") -> None:
        """A branch resolved (correctly or not)."""

    def on_commit(self, cpu: "Processor", inst: "DynInst") -> None:
        """An instruction retired."""

    def on_squash(self, cpu: "Processor", inst: "DynInst") -> None:
        """An instruction was squashed (youngest first)."""

    def on_writeback(self, cpu: "Processor", inst: "DynInst") -> None:
        """A register value was written back."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Defense {self.name}>"


#: Derived wiring flag -> the hooks whose override sets it.
_HOOK_FLAGS = {
    "gates_issue": ("gate_issue",),
    "filters_at_cache": ("judge_suspect_load",),
    "wants_events": ("on_dispatch", "on_resolve", "on_commit",
                     "on_squash"),
    "taints_writeback": ("on_writeback",),
}


def _derive_wiring(cls: Type[Defense]) -> None:
    """Set ``cls``'s derived wiring flags from the hooks it overrides."""
    def overrides(hook: str) -> bool:
        return getattr(cls, hook) is not getattr(Defense, hook)

    cls.tags_suspect = cls.uses_matrix or overrides("is_suspect")
    for flag, hooks in _HOOK_FLAGS.items():
        setattr(cls, flag, any(overrides(hook) for hook in hooks))


_derive_wiring(Defense)


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

DEFENSE_REGISTRY: Dict[str, Type[Defense]] = {}

#: The four evaluation configurations of the paper (Section VI.A), in
#: Figure-5 order.
PAPER_DEFENSES = ("origin", "baseline", "cache_hit", "cache_hit_tpbuf")

#: Deprecated / alternate spellings accepted wherever a defense name is
#: parsed (CLI, serve submissions, sweep specs, configs).
DEFENSE_ALIASES: Dict[str, str] = {
    "none": "origin",
    "unprotected": "origin",
    "cache-hit": "cache_hit",
    "cachehit": "cache_hit",
    "tpbuf": "cache_hit_tpbuf",
    "cache-hit+tpbuf": "cache_hit_tpbuf",
    "cache_hit+tpbuf": "cache_hit_tpbuf",
    "conditional-speculation": "cache_hit_tpbuf",
    "conditional_speculation": "cache_hit_tpbuf",
    "delay-on-miss": "delay_on_miss",
    "delay-on-miss-ss": "delay_on_miss_ss",
    "eager-delay": "eager_delay",
}


def register_defense(cls: Type[Defense]) -> Type[Defense]:
    """Class decorator: add a defense to the registry under its name."""
    if not cls.name:
        raise DefenseConfigError(f"{cls.__name__} declares no name")
    DEFENSE_REGISTRY[cls.name] = cls
    return cls


def defense_names() -> Tuple[str, ...]:
    """Registered defense names, in registration (zoo) order."""
    return tuple(DEFENSE_REGISTRY)


def normalize_defense_name(name: str) -> str:
    """Canonical registry name for ``name`` (deprecated alias spellings
    accepted); raises :class:`DefenseConfigError` for an unknown name."""
    key = str(name).strip().lower()
    key = DEFENSE_ALIASES.get(key, key)
    if key not in DEFENSE_REGISTRY:
        raise DefenseConfigError(
            f"unknown defense '{name}'; registered: "
            f"{', '.join(defense_names())}"
        )
    return key


def create_defense(name: str) -> Defense:
    """A fresh instance of the named defense (per-run state unshared)."""
    return DEFENSE_REGISTRY[normalize_defense_name(name)]()


# ---------------------------------------------------------------------------
# The paper's four configurations (PAPER_DEFENSES) as registry entries
# ---------------------------------------------------------------------------


@register_defense
class OriginDefense(Defense):
    """Unprotected out-of-order baseline (positive control)."""

    name = "origin"
    summary = "unprotected out-of-order core"
    provenance = "Li et al., HPCA 2019 (Origin column)"

    def area_mm2(self, machine: "MachineParams") -> float:
        return 0.0


@register_defense
class BaselineDefense(Defense):
    """Blanket delay: security-dependent memory may not issue."""

    name = "baseline"
    summary = "block every security-dependent memory access at issue"
    provenance = "Li et al., HPCA 2019 (Baseline column)"
    uses_matrix = True
    covers_sources = ("branch", "indirect", "return", "store")

    def gate_issue(self, cpu: "Processor", inst: "DynInst") -> bool:
        """Not while suspect: the default :meth:`is_suspect`, inlined
        because the issue loop asks it per memory instruction."""
        return not cpu.iq.matrix.has_dependence(inst)

    def area_mm2(self, machine: "MachineParams") -> float:
        core = machine.core
        return matrix_area_mm2(core.iq_entries, core.dispatch_width,
                               core.issue_width)


class _CacheHitFilter(Defense):
    """The Cache-hit filter's cache-stage verdict (Section V.C), shared
    by every defense that lets suspect L1D hits proceed: a hit cannot
    change cache content; a miss is left to :meth:`judge_suspect_miss`,
    which blocks it unless a subclass decides otherwise."""

    def judge_suspect_load(self, cpu: "Processor", inst: "DynInst",
                           l1_hit: bool) -> MissVerdict:
        stats = self.stats
        stats["suspect_accesses"] += 1
        if l1_hit:
            stats["filtered_by_cache_hit"] += 1
            return MissVerdict.PROCEED
        return self.judge_suspect_miss(cpu, inst)

    def judge_suspect_miss(self, cpu: "Processor",
                           inst: "DynInst") -> MissVerdict:
        """A suspect L1D miss is discarded and re-issued once
        :meth:`is_suspect` turns false."""
        self.stats["blocked_misses"] += 1
        return MissVerdict.BLOCK


@register_defense
class CacheHitDefense(_CacheHitFilter):
    """Conditional Speculation with the Cache-hit filter."""

    name = "cache_hit"
    summary = "suspect L1D hits proceed; misses discard and re-issue"
    provenance = "Li et al., HPCA 2019, Section V.C"
    uses_matrix = True
    covers_sources = ("branch", "indirect", "return", "store")

    def area_mm2(self, machine: "MachineParams") -> float:
        core = machine.core
        return matrix_area_mm2(core.iq_entries, core.dispatch_width,
                               core.issue_width)


@register_defense
class CacheHitTPBufDefense(CacheHitDefense):
    """Cache-hit filter plus the TPBuf S-Pattern filter."""

    name = "cache_hit_tpbuf"
    summary = "cache-hit filter + TPBuf S-Pattern miss filter"
    provenance = "Li et al., HPCA 2019, Section V.D"
    uses_tpbuf = True

    def judge_suspect_miss(self, cpu: "Processor",
                           inst: "DynInst") -> MissVerdict:
        """A miss that does not match the S-Pattern is safe and
        proceeds as a normal miss; a matching one is blocked."""
        tpbuf = cpu.tpbuf
        assert tpbuf is not None  # built for every uses_tpbuf defense
        if tpbuf.is_safe(inst, cpu.lsq):
            self.stats["filtered_by_tpbuf"] += 1
            return MissVerdict.PROCEED
        return super().judge_suspect_miss(cpu, inst)

    def area_mm2(self, machine: "MachineParams") -> float:
        core = machine.core
        return super().area_mm2(machine) + tpbuf_area_mm2(
            core.ldq_entries + core.stq_entries
        )


# ---------------------------------------------------------------------------
# Zoo entries beyond the paper
# ---------------------------------------------------------------------------


class _BranchAgeTracker(Defense):
    """Shared machinery: an ordered list of unresolved-branch ages for
    defenses that reason about control speculation without the
    security dependence matrix."""

    def attach(self, cpu: "Processor") -> None:
        self._branch_seqs: List[int] = []

    def on_dispatch(self, cpu: "Processor", inst: "DynInst") -> None:
        if inst.instr.is_branch:
            self._branch_seqs.append(inst.seq)

    def on_resolve(self, cpu: "Processor", inst: "DynInst") -> None:
        self._discard_branch(inst.seq)

    def on_squash(self, cpu: "Processor", inst: "DynInst") -> None:
        if inst.instr.is_branch and not inst.resolved:
            self._discard_branch(inst.seq)

    def _discard_branch(self, seq: int) -> None:
        try:
            self._branch_seqs.remove(seq)
        except ValueError:
            pass

    def _control_speculative(self, seq: int) -> bool:
        """Is an instruction with this age behind an unresolved branch?"""
        seqs = self._branch_seqs
        return bool(seqs) and seqs[0] < seq


@register_defense
class DelayOnMissDefense(_BranchAgeTracker, _CacheHitFilter):
    """NDA-style delay-on-miss: loads behind an unresolved branch may
    hit the L1D but a miss is delayed until the branch resolves.

    No dependence matrix — the suspect predicate is simply "an older
    branch is unresolved", so this blocks more loads than Conditional
    Speculation's matrix (no producer tracking) but needs only an age
    comparator.  Gates control speculation only: Spectre V4's
    store-bypass window has no unresolved branch and stays open —
    exactly the coverage gap the SoK taxonomy predicts for this class.
    """

    name = "delay_on_miss"
    summary = "suspect = behind unresolved branch; L1D miss delays"
    provenance = "Weisse et al. NDA, MICRO 2019 / Sakalis et al., ISCA 2019"
    covers_sources = ("branch", "indirect", "return")

    def is_suspect(self, cpu: "Processor", inst: "DynInst") -> bool:
        return self._control_speculative(inst.seq)

    def area_mm2(self, machine: "MachineParams") -> float:
        return comparator_area_mm2(machine.core.iq_entries)


@register_defense
class EagerDelayDefense(_BranchAgeTracker):
    """Eager variant: *no* memory instruction issues while an older
    branch is unresolved — delay-on-miss without the L1D-hit escape
    hatch.  Maximum control-speculation safety of this family, maximum
    slowdown; same V4 blind spot."""

    name = "eager_delay"
    summary = "no memory issues behind an unresolved branch"
    provenance = "eager variant of NDA (Weisse et al., MICRO 2019)"
    covers_sources = ("branch", "indirect", "return")

    def gate_issue(self, cpu: "Processor", inst: "DynInst") -> bool:
        return not self._control_speculative(inst.seq)

    def area_mm2(self, machine: "MachineParams") -> float:
        return comparator_area_mm2(machine.core.iq_entries)


@register_defense
class DelayOnMissStoreSetDefense(DelayOnMissDefense):
    """Delay-on-miss widened with static store sets: the V4 closure.

    The branch-keyed predicate above cannot see the store-bypass
    window, so Spectre V4 rides through (the pinned expected-leak row
    of the shootout).  This entry keeps the same hardware shape and
    *additionally* treats a load as suspect while an older store's
    address is still unresolved — but only for loads the static
    memory-dependence analysis (:mod:`repro.analysis.memdep`) proved
    may actually bypass a store.  The may-bypass table arrives through
    :meth:`transform_program` (program metadata, not a rewrite), is
    memoized across trials over the same code, and is *empty* for
    programs with no bypassable pairs — where the defense is
    cycle-identical to plain ``delay_on_miss``.

    Deadlock-free: a load only waits on unresolved-address stores
    older than itself, and a store's address operands are produced by
    instructions older than the store, so the oldest unresolved store
    can never transitively wait on a load it blocks.
    """

    name = "delay_on_miss_ss"
    summary = "delay-on-miss + static store-set suspect widening"
    provenance = ("store-set closure of the NDA-family V4 blind spot "
                  "(this repro, via repro.analysis.memdep; cf. "
                  "Kiriansky & Waldspurger, 2018)")
    covers_sources = ("branch", "indirect", "return", "store")
    coverage_needs_memdep = True

    #: load PC → PCs of stores it may bypass, set by
    #: :meth:`transform_program`.
    _store_sets: Dict[int, frozenset]

    def transform_program(self, program: "Program") -> "Program":
        from ..analysis.memdep import static_store_sets

        self._store_sets = static_store_sets(program)
        return program

    def is_suspect(self, cpu: "Processor", inst: "DynInst") -> bool:
        if self._control_speculative(inst.seq):
            return True
        return (inst.pc in self._store_sets
                and cpu.lsq.unresolved_store_older_than(inst.seq))

    def area_mm2(self, machine: "MachineParams") -> float:
        core = machine.core
        # Branch-age comparator as delay_on_miss, plus an STQ
        # address-resolved scan and a PC-indexed store-set lookup.
        return (comparator_area_mm2(core.iq_entries)
                + comparator_area_mm2(core.stq_entries))


@register_defense
class InvisiSpecDefense(CacheHitDefense):
    """InvisiSpec-style invisible speculative loads.

    Suspect loads (matrix definition, so all speculation sources are
    covered) that hit the L1D proceed as under the Cache-hit filter;
    those that miss read their value from memory at miss latency but
    leave *every* cache level untouched; the line is exposed (filled)
    only when the load commits.  A squashed transient load therefore
    never changes cache state — the transmission channel the attacks
    in our suite rely on.  The cost is the lost refill reuse on
    correct-path speculative misses, paid as repeat outer-level
    accesses, modelled without an extra commit stall (the exposure
    overlaps retirement).
    """

    name = "invisispec"
    summary = "suspect misses stay invisible; expose line at commit"
    provenance = "Yan et al. InvisiSpec, MICRO 2018"

    def judge_suspect_miss(self, cpu: "Processor",
                           inst: "DynInst") -> MissVerdict:
        self.stats["invisible_misses"] += 1
        return MissVerdict.INVISIBLE

    def on_commit(self, cpu: "Processor", inst: "DynInst") -> None:
        line = inst.invisible_fill
        if line is not None:
            inst.invisible_fill = None
            cpu.hierarchy.complete_miss(line)
            cpu.stats["invisible_exposures"] += 1

    def area_mm2(self, machine: "MachineParams") -> float:
        # Speculative buffer: one line of storage per LDQ entry.
        core = machine.core
        return cache_area_mm2(
            core.ldq_entries * machine.memory.line_bytes, ways=1
        )


@register_defense
class STTDefense(Defense):
    """STT-style hardware taint propagation.

    Access instructions (suspect loads, matrix definition) execute
    freely; their results are *tainted*.  Taint propagates through
    register writeback, and any memory instruction whose address
    operand is tainted may not issue while the tainted producer is
    still in flight — transmitters are gated, not access loads.  Taint
    dies when the producing load retires or squashes (a conservative
    untaint point: real STT untaints at the visibility point, so our
    overhead is an upper bound for the scheme).
    """

    name = "stt"
    summary = "taint suspect load results; gate tainted-address memory"
    provenance = "Yu et al. STT, MICRO 2019"
    uses_matrix = True
    covers_sources = ("branch", "indirect", "return", "store")

    def attach(self, cpu: "Processor") -> None:
        #: physical register -> the in-flight suspect load that made it
        #: speculative (transitively).
        self._taint: Dict[int, "DynInst"] = {}

    def on_writeback(self, cpu: "Processor", inst: "DynInst") -> None:
        pdst = inst.pdst
        if pdst is None:
            return
        taint = self._taint
        if inst.instr.is_load:
            if inst.suspect:
                taint[pdst] = inst
            else:
                taint.pop(pdst, None)
            return
        producer = None
        for psrc in inst.psrcs:
            source = taint.get(psrc)
            if source is not None and not source.squashed:
                producer = source
                break
        if producer is not None:
            taint[pdst] = producer
        else:
            taint.pop(pdst, None)

    def gate_issue(self, cpu: "Processor", inst: "DynInst") -> bool:
        taint = self._taint
        if not taint or not inst.psrcs:
            return True
        producer = taint.get(inst.psrcs[0])
        if producer is None:
            return True
        if producer.squashed:
            del taint[inst.psrcs[0]]
            return True
        return False

    def _drop_producer(self, producer: "DynInst") -> None:
        taint = self._taint
        if not taint:
            return
        dead = [preg for preg, src in taint.items() if src is producer]
        for preg in dead:
            del taint[preg]

    def on_commit(self, cpu: "Processor", inst: "DynInst") -> None:
        if inst.instr.is_load:
            self._drop_producer(inst)

    def on_squash(self, cpu: "Processor", inst: "DynInst") -> None:
        if inst.instr.is_load:
            self._drop_producer(inst)

    def area_mm2(self, machine: "MachineParams") -> float:
        core = machine.core
        # Matrix for suspect detection + a taint bit and forwarding
        # comparator per physical register.
        return matrix_area_mm2(
            core.iq_entries, core.dispatch_width, core.issue_width
        ) + comparator_area_mm2(core.num_phys_regs, bits=2)


@register_defense
class SLHDefense(Defense):
    """SLH-style software hardening.

    Runs on the *unprotected* core and rewrites the program instead:
    the static S-Pattern scanner (``repro.analysis``) finds every
    speculative transmit sink and a ``FENCE`` is inserted in front of
    it through :func:`repro.isa.program.insert_fences`.  The ISA has
    no conditional-move, so the rewrite realizes speculative load
    hardening's contract (no transmit executes under mis-speculation)
    with serialization rather than literal pointer masking — zero
    hardware area, all cost in IPC.
    """

    name = "slh"
    summary = "static scan + fence before every transmit sink"
    provenance = "Kiriansky & Waldspurger / LLVM SLH, 2018"
    kind = "software"
    covers_sources = ("branch", "indirect", "return", "store")

    def transform_program(self, program: "Program") -> "Program":
        from ..analysis import analyze_program
        from ..isa.program import insert_fences

        report = analyze_program(program, name="slh")
        sinks = sorted({f.sink_pc for f in report.findings})
        if not sinks:
            return program
        return insert_fences(program, sinks).program

    def area_mm2(self, machine: "MachineParams") -> float:
        return 0.0
