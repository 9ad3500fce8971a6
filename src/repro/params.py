"""Configuration dataclasses and the paper's simulated-processor presets.

``paper_config`` mirrors Table III of the paper.  ``a57_like``,
``i7_like`` and ``xeon_like`` mirror the three cores used in the
sensitivity study of Table VI (Section VI.D).
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Callable, Optional, Union

from .errors import ConfigError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (annotations only)
    from .robustness.faults import FaultInjector, FaultPlan

#: Default simulation cycle budget, shared by :meth:`Processor.run`,
#: the experiment runner and the CLI so a benchmark behaves the same
#: no matter which entry point launched it.
DEFAULT_MAX_CYCLES = 8_000_000


@dataclass(frozen=True)
class RunOptions:
    """Execution budgets and perturbations for one simulation run.

    The one way to hand a cycle budget, wall-clock budget, fault plan
    or cancellation hook to :class:`repro.pipeline.processor.Processor`,
    :func:`repro.experiments.runner.run_benchmark` and
    :class:`repro.experiments.runner.SweepEngine`.  Only
    :meth:`Processor.run <repro.pipeline.processor.Processor.run>` also
    takes a per-call ``max_cycles`` override.
    """

    #: Cycle budget; ``None`` means :data:`DEFAULT_MAX_CYCLES`.
    max_cycles: Optional[int] = None
    #: Wall-clock budget in seconds (polled coarsely); ``None`` = none.
    wall_clock_budget: Optional[float] = None
    #: Fault-injection plan (see :mod:`repro.robustness.faults`), or a
    #: pre-built :class:`~repro.robustness.faults.FaultInjector` for a
    #: custom fault model.
    fault_plan: Optional[Union["FaultPlan", "FaultInjector"]] = None
    #: Cooperative cancellation hook, polled at the same coarse cadence
    #: as the wall-clock budget.  Returning ``True`` ends the run with
    #: ``termination="cancelled"`` (the ``repro serve`` job manager
    #: aborts in-flight simulations through this).  Excluded from
    #: equality so two option bundles with the same budgets compare
    #: equal; must be ``None`` for options that cross process
    #: boundaries (parallel sweep payloads pickle their options).
    cancel_check: Optional[Callable[[], bool]] = field(
        default=None, compare=False)

    def __post_init__(self) -> None:
        if self.max_cycles is not None and self.max_cycles <= 0:
            raise ConfigError("max_cycles must be positive")
        if self.wall_clock_budget is not None \
                and self.wall_clock_budget <= 0:
            raise ConfigError("wall_clock_budget must be positive")

    @property
    def effective_max_cycles(self) -> int:
        return self.max_cycles if self.max_cycles is not None \
            else DEFAULT_MAX_CYCLES

    def merged(self, max_cycles: Optional[int] = None) -> "RunOptions":
        """A copy whose cycle budget is ``max_cycles`` (``None`` keeps
        this one's)."""
        if max_cycles is None:
            return self
        return replace(self, max_cycles=max_cycles)


def _power_of_two(value: int) -> bool:
    return value > 0 and (value & (value - 1)) == 0


@dataclass(frozen=True)
class CacheParams:
    """Geometry and timing of one set-associative cache level."""

    name: str
    size_bytes: int
    ways: int
    line_bytes: int = 64
    hit_latency: int = 2

    def __post_init__(self) -> None:
        if not _power_of_two(self.line_bytes):
            raise ConfigError(f"{self.name}: line size must be a power of two")
        if self.ways <= 0:
            raise ConfigError(f"{self.name}: ways must be positive")
        if self.size_bytes % (self.ways * self.line_bytes) != 0:
            raise ConfigError(
                f"{self.name}: size must be a multiple of ways * line size"
            )
        if not _power_of_two(self.num_sets):
            raise ConfigError(f"{self.name}: number of sets must be a power of two")
        if self.hit_latency < 1:
            raise ConfigError(f"{self.name}: hit latency must be >= 1")

    @property
    def num_sets(self) -> int:
        return self.size_bytes // (self.ways * self.line_bytes)


@dataclass(frozen=True)
class TLBParams:
    """Geometry and timing of a (fully associative) TLB."""

    entries: int = 64
    hit_latency: int = 1
    miss_latency: int = 30
    page_bytes: int = 4096

    def __post_init__(self) -> None:
        if self.entries <= 0:
            raise ConfigError("TLB entries must be positive")
        if not _power_of_two(self.page_bytes):
            raise ConfigError("page size must be a power of two")


@dataclass(frozen=True)
class CoreParams:
    """Out-of-order core configuration (Table III of the paper)."""

    name: str = "paper"
    fetch_width: int = 4
    dispatch_width: int = 4
    issue_width: int = 4
    commit_width: int = 4
    rob_entries: int = 192
    iq_entries: int = 64
    ldq_entries: int = 32
    stq_entries: int = 24
    store_buffer_entries: int = 8
    num_arch_regs: int = 32
    # Front-end depth models the fetch-to-dispatch portion of the paper's
    # 15-stage pipeline; it sets the branch misprediction penalty.
    frontend_depth: int = 10
    # Branch predictor.  History depth is kept shallow so the gshare
    # tables train within the (short) synthetic workloads; deep global
    # history needs billions of instructions to stabilize.
    bp_history_bits: int = 6
    btb_entries: int = 512
    # Functional unit latencies.
    int_alu_latency: int = 1
    mul_latency: int = 3
    div_latency: int = 12

    def __post_init__(self) -> None:
        for attr in (
            "fetch_width",
            "dispatch_width",
            "issue_width",
            "commit_width",
            "rob_entries",
            "iq_entries",
            "ldq_entries",
            "stq_entries",
            "store_buffer_entries",
            "frontend_depth",
        ):
            if getattr(self, attr) <= 0:
                raise ConfigError(f"{attr} must be positive")
        if self.num_arch_regs < 8:
            raise ConfigError("need at least 8 architectural registers")

    @property
    def num_phys_regs(self) -> int:
        """Physical register file size: one per ROB slot plus the map."""
        return self.rob_entries + self.num_arch_regs


@dataclass(frozen=True)
class MemoryParams:
    """Cache hierarchy plus main-memory timing (Table III)."""

    l1i: CacheParams = field(
        default_factory=lambda: CacheParams("L1I", 64 * 1024, 4, 64, 2)
    )
    l1d: CacheParams = field(
        default_factory=lambda: CacheParams("L1D", 64 * 1024, 4, 64, 2)
    )
    l2: CacheParams = field(
        default_factory=lambda: CacheParams("L2", 2 * 1024 * 1024, 16, 64, 10)
    )
    l3: CacheParams = field(
        default_factory=lambda: CacheParams("L3", 8 * 1024 * 1024, 32, 64, 60)
    )
    dram_latency: int = 192
    itlb: TLBParams = field(default_factory=TLBParams)
    dtlb: TLBParams = field(default_factory=TLBParams)

    def __post_init__(self) -> None:
        lines = {self.l1i.line_bytes, self.l1d.line_bytes, self.l2.line_bytes,
                 self.l3.line_bytes}
        if len(lines) != 1:
            raise ConfigError("all cache levels must share one line size")
        if self.dram_latency <= self.l3.hit_latency:
            raise ConfigError("DRAM latency must exceed L3 hit latency")

    @property
    def line_bytes(self) -> int:
        return self.l1d.line_bytes


@dataclass(frozen=True)
class MachineParams:
    """A complete simulated machine: core plus memory system."""

    core: CoreParams = field(default_factory=CoreParams)
    memory: MemoryParams = field(default_factory=MemoryParams)

    @property
    def name(self) -> str:
        return self.core.name


def paper_config() -> MachineParams:
    """The paper's main configuration (Table III)."""
    return MachineParams()


def a57_like() -> MachineParams:
    """Mobile-class core for the Table VI sensitivity study."""
    core = CoreParams(
        name="a57-like",
        fetch_width=3,
        dispatch_width=3,
        issue_width=3,
        commit_width=3,
        rob_entries=40,
        iq_entries=32,
        ldq_entries=16,
        stq_entries=12,
        frontend_depth=8,
        bp_history_bits=5,
        btb_entries=256,
    )
    memory = MemoryParams(
        l1i=CacheParams("L1I", 32 * 1024, 2, 64, 2),
        l1d=CacheParams("L1D", 32 * 1024, 2, 64, 2),
        l2=CacheParams("L2", 1024 * 1024, 16, 64, 9),
        l3=CacheParams("L3", 2 * 1024 * 1024, 16, 64, 40),
        dram_latency=160,
        itlb=TLBParams(entries=48),
        dtlb=TLBParams(entries=48),
    )
    return MachineParams(core=core, memory=memory)


def i7_like() -> MachineParams:
    """Desktop-class core for the Table VI sensitivity study."""
    core = CoreParams(
        name="i7-like",
        fetch_width=4,
        dispatch_width=4,
        issue_width=6,
        commit_width=4,
        rob_entries=168,
        iq_entries=54,
        ldq_entries=48,
        stq_entries=32,
        frontend_depth=12,
        bp_history_bits=6,
        btb_entries=1024,
    )
    memory = MemoryParams(
        l1i=CacheParams("L1I", 32 * 1024, 8, 64, 2),
        l1d=CacheParams("L1D", 32 * 1024, 8, 64, 2),
        l2=CacheParams("L2", 256 * 1024, 8, 64, 10),
        l3=CacheParams("L3", 8 * 1024 * 1024, 16, 64, 50),
        dram_latency=192,
    )
    return MachineParams(core=core, memory=memory)


def xeon_like() -> MachineParams:
    """Server-class core for the Table VI sensitivity study."""
    core = CoreParams(
        name="xeon-like",
        fetch_width=5,
        dispatch_width=5,
        issue_width=8,
        commit_width=5,
        rob_entries=224,
        iq_entries=96,
        ldq_entries=72,
        stq_entries=56,
        frontend_depth=14,
        bp_history_bits=7,
        btb_entries=2048,
    )
    memory = MemoryParams(
        l1i=CacheParams("L1I", 32 * 1024, 8, 64, 2),
        l1d=CacheParams("L1D", 32 * 1024, 8, 64, 2),
        l2=CacheParams("L2", 256 * 1024, 8, 64, 12),
        l3=CacheParams("L3", 16 * 1024 * 1024, 16, 64, 60),
        dram_latency=200,
    )
    return MachineParams(core=core, memory=memory)


def tiny_config() -> MachineParams:
    """A deliberately small machine used by unit tests (fast, easy to
    reason about: 2-wide, small queues, tiny caches)."""
    core = CoreParams(
        name="tiny",
        fetch_width=2,
        dispatch_width=2,
        issue_width=2,
        commit_width=2,
        rob_entries=16,
        iq_entries=8,
        ldq_entries=6,
        stq_entries=6,
        store_buffer_entries=4,
        frontend_depth=3,
        bp_history_bits=6,
        btb_entries=32,
    )
    memory = MemoryParams(
        l1i=CacheParams("L1I", 1024, 2, 64, 1),
        l1d=CacheParams("L1D", 1024, 2, 64, 1),
        l2=CacheParams("L2", 4096, 4, 64, 6),
        l3=CacheParams("L3", 16384, 8, 64, 20),
        dram_latency=60,
        itlb=TLBParams(entries=8),
        dtlb=TLBParams(entries=8),
    )
    return MachineParams(core=core, memory=memory)


PRESETS = {
    "paper": paper_config,
    "a57-like": a57_like,
    "i7-like": i7_like,
    "xeon-like": xeon_like,
    "tiny": tiny_config,
}


def preset(name: str) -> MachineParams:
    """Look up a machine preset by name."""
    try:
        return PRESETS[name]()
    except KeyError:
        raise ConfigError(
            f"unknown preset {name!r}; choose from {sorted(PRESETS)}"
        ) from None


def with_core(machine: MachineParams, **overrides) -> MachineParams:
    """Return a copy of ``machine`` with core fields overridden."""
    return replace(machine, core=replace(machine.core, **overrides))
