"""Hardened simulation driver for the performance experiments.

:func:`run_benchmark` simulates one SPEC profile under one defense.
:class:`SweepEngine` runs a (benchmark x defense) grid of them, and is
the one path every grid keyed by defense name takes: ``repro sweep``
and ``repro bench``, Figure 5, Tables V and VI and the shootout's
overhead leg.  Results stream to a JSON-lines checkpoint
(:class:`~repro.robustness.checkpoint.CheckpointStore`) as they
complete, and ``resume=True`` skips pairs already recorded under the
same machine, scale, cycle budget and fault setting.  A pair that
fails is a recorded failure row; :meth:`SweepResult.reports` turns any
such row into one :class:`~repro.errors.SimulationError` naming every
failed pair, so no experiment renders a grid with holes in it.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from ..core.defense import PAPER_DEFENSES, normalize_defense_name
from ..core.policy import SecurityConfig
from ..errors import SimulationError
from ..params import (
    DEFAULT_MAX_CYCLES,
    MachineParams,
    RunOptions,
    paper_config,
)
from ..pipeline.processor import Processor
from ..pipeline.report import SimReport
from ..robustness.checkpoint import CheckpointStore
from ..robustness.faults import FaultPlan
from ..workloads import spec_names, spec_program

__all__ = [
    "DEFAULT_MAX_CYCLES",
    "run_benchmark",
    "average",
    "SweepEngine",
    "SweepResult",
    "SweepRow",
    "SweepTask",
    "execute_sweep_task",
]


def run_benchmark(
    name: str,
    machine: Optional[MachineParams] = None,
    security: Optional[SecurityConfig] = None,
    scale: float = 1.0,
    options: Optional[RunOptions] = None,
) -> SimReport:
    """Simulate one SPEC profile under one configuration, with the
    budgets and fault plan of ``options``
    (:class:`repro.params.RunOptions`)."""
    machine = machine if machine is not None else paper_config()
    security = security if security is not None else SecurityConfig.origin()
    program = spec_program(name, scale=scale)
    cpu = Processor(program, machine=machine, security=security,
                    options=options)
    report = cpu.run()
    report.name = name
    return report


def average(values: Iterable[float]) -> float:
    values = list(values)
    if not values:
        return 0.0
    return sum(values) / len(values)


# ---------------------------------------------------------------------------
# Crash-safe sweep engine
# ---------------------------------------------------------------------------

#: Signature run_fn must satisfy (run_benchmark is the default).
RunFn = Callable[..., SimReport]

#: Checkpoint header fields a resumed row must share with the sweep:
#: a row from another machine, scale, cycle budget or fault setting is
#: another experiment's result.
_RESUME_KEYS = ("machine", "scale", "max_cycles", "injecting")


@dataclass(frozen=True)
class SweepTask:
    """Spawn-safe description of one (benchmark, defense) run.

    Everything here pickles cleanly — the defense is carried *by
    registry name* — so the same payload drives the in-process serial path and the
    :class:`repro.perf.parallel.ParallelSweepExecutor` worker
    processes — serial and parallel sweeps execute literally the same
    code on the same inputs, which is what makes them byte-identical.
    """

    benchmark: str
    #: Defense registry name.
    mode: str
    machine: Optional[MachineParams] = None
    scale: float = 1.0
    options: RunOptions = RunOptions()
    run_fn: RunFn = run_benchmark

    @property
    def security(self) -> SecurityConfig:
        return SecurityConfig(self.mode)


def execute_sweep_task(task: SweepTask) -> SweepRow:
    """Run one sweep task to a finished :class:`SweepRow`.

    A :class:`SimulationError` degrades to a ``status="failed"`` row
    instead of raising, so one workload can never abort a suite
    (failure isolation).  The run is not retried: it is deterministic
    (a fault plan is derived from the pair's key, and a budget ends a
    run with a report), so a second attempt would fail the same way.
    Used directly by the serial engine and as the worker entry point
    of the parallel executor.
    """
    started = time.monotonic()
    try:
        report = task.run_fn(
            task.benchmark,
            machine=task.machine,
            security=task.security,
            scale=task.scale,
            options=task.options,
        )
    except SimulationError as exc:
        return SweepRow(
            benchmark=task.benchmark, mode=task.mode, status="failed",
            duration_s=time.monotonic() - started,
            error_type=type(exc).__name__,
            error=str(exc).splitlines()[0] if str(exc) else "",
        )
    return SweepRow(
        benchmark=task.benchmark, mode=task.mode, status="ok",
        termination=report.termination,
        cycles=report.cycles, committed=report.committed,
        duration_s=time.monotonic() - started,
        report=report,
    )


@dataclass
class SweepRow:
    """Result of one (benchmark, defense) pair — success or failure."""

    benchmark: str
    #: Defense registry name.
    mode: str
    status: str                    # "ok" | "failed"
    termination: str = ""
    cycles: int = 0
    committed: int = 0
    #: Runs of the pair: a sweep runs each pair once, but a row
    #: resumed from an older checkpoint keeps the count it recorded.
    attempts: int = 1
    duration_s: float = 0.0
    error_type: str = ""
    error: str = ""
    #: True when this row was loaded from a checkpoint, not re-run.
    resumed: bool = False
    report: Optional[SimReport] = None

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    @property
    def defense_name(self) -> str:
        """The defense registry name (same as :attr:`mode`)."""
        return self.mode

    def to_record(self) -> Dict[str, object]:
        record: Dict[str, object] = {
            "benchmark": self.benchmark,
            "mode": self.mode,
            "status": self.status,
            "termination": self.termination,
            "cycles": self.cycles,
            "committed": self.committed,
            "attempts": self.attempts,
            "duration_s": round(self.duration_s, 6),
            "error_type": self.error_type,
            "error": self.error,
        }
        if self.report is not None:
            record["report"] = self.report.to_dict()
        return record

    @classmethod
    def from_record(cls, record: Dict[str, object]) -> "SweepRow":
        report = None
        if isinstance(record.get("report"), dict):
            report = SimReport.from_dict(record["report"])  # type: ignore[arg-type]
        return cls(
            benchmark=str(record.get("benchmark", "")),
            # Older rows name a zoo defense in "defense" next to the
            # paper mode it was anchored to in "mode".
            mode=str(record.get("defense") or record["mode"]),
            status=str(record.get("status", "failed")),
            termination=str(record.get("termination", "")),
            cycles=int(record.get("cycles", 0)),
            committed=int(record.get("committed", 0)),
            attempts=int(record.get("attempts", 1)),
            duration_s=float(record.get("duration_s", 0.0)),
            error_type=str(record.get("error_type", "")),
            error=str(record.get("error", "")),
            resumed=True,
            report=report,
        )


@dataclass
class SweepResult:
    """Every row of one sweep, resumed rows included."""

    rows: List[SweepRow] = field(default_factory=list)

    @property
    def failures(self) -> List[SweepRow]:
        return [row for row in self.rows if not row.ok]

    @property
    def resumed(self) -> int:
        return sum(1 for row in self.rows if row.resumed)

    def row(self, benchmark: str, mode: str) -> Optional[SweepRow]:
        """Find a row by defense name (aliases accepted)."""
        wanted = normalize_defense_name(mode)
        for row in self.rows:
            if row.benchmark == benchmark and row.mode == wanted:
                return row
        return None

    def report_for(self, benchmark: str, mode: str) -> Optional[SimReport]:
        row = self.row(benchmark, mode)
        return row.report if row is not None and row.ok else None

    def reports_for(self, benchmark: str) -> Dict[str, SimReport]:
        """All successful reports of one benchmark, keyed by defense
        name."""
        reports: Dict[str, SimReport] = {}
        for row in self.rows:
            if row.benchmark == benchmark and row.ok \
                    and row.report is not None:
                reports[row.mode] = row.report
        return reports

    @property
    def benchmarks(self) -> List[str]:
        seen: List[str] = []
        for row in self.rows:
            if row.benchmark not in seen:
                seen.append(row.benchmark)
        return seen

    def reports(self) -> Dict[str, Dict[str, SimReport]]:
        """benchmark -> defense name -> report, in task order.

        Raises one :class:`SimulationError` naming every failed pair:
        an experiment's grid is complete or it is not drawn.
        """
        if self.failures:
            raise SimulationError(
                f"{len(self.failures)} of {len(self.rows)} run(s) "
                "failed: " + "; ".join(
                    f"{row.benchmark}/{row.mode} ({row.error_type}: "
                    f"{row.error})" for row in self.failures))
        return {name: self.reports_for(name) for name in self.benchmarks}

    def render(self) -> str:
        lines = [f"{'benchmark':<14}{'mode':<18}{'status':<8}"
                 f"{'cycles':>10}  note"]
        for row in self.rows:
            note = "resumed" if row.resumed else ""
            if not row.ok:
                note = f"{row.error_type}: {row.error}"[:60]
            elif row.termination not in ("", "halt"):
                note = (note + " " if note else "") + row.termination
            lines.append(
                f"{row.benchmark:<14}{row.mode:<18}"
                f"{row.status:<8}{row.cycles:>10}  {note}"
            )
        lines.append(
            f"{len(self.rows)} rows: "
            f"{len(self.rows) - len(self.failures)} ok, "
            f"{len(self.failures)} failed, {self.resumed} resumed"
        )
        return "\n".join(lines)


class SweepEngine:
    """Checkpointing, fault-tolerant sweep over benchmarks x defenses.

    ``modes`` accepts any defense registry name (aliases included);
    everything is normalized to canonical defense names, which are
    also the checkpoint task keys.  Budgets and the fault plan arrive
    in ``options`` (:class:`repro.params.RunOptions`); with no cycle
    budget there, the sweep uses :data:`DEFAULT_MAX_CYCLES`.

    Each completed pair is durably appended to ``checkpoint`` before
    the next one starts, so a killed sweep resumes (``resume=True``)
    without re-running recorded pairs.  Rows are reused only when the
    checkpoint's header names this sweep's machine, scale, cycle budget
    and fault setting; otherwise the file starts over (the benchmark
    and defense lists may grow between runs).  A failing workload is
    recorded as a failure row; the sweep carries on.

    With ``workers > 1`` the pending pairs fan out across a process
    pool (:class:`repro.perf.parallel.ParallelSweepExecutor`).  The
    parent process stays the *single writer* of the checkpoint file —
    workers only ever return rows — so crash-safety, ``resume``
    skipping and failure isolation behave exactly as in the serial
    engine, and the recorded rows are identical (simulations are
    deterministic; only ``duration_s`` differs).
    """

    def __init__(
        self,
        benchmarks: Optional[Sequence[str]] = None,
        modes: Sequence[str] = PAPER_DEFENSES,
        machine: Optional[MachineParams] = None,
        scale: float = 1.0,
        checkpoint: Optional[str] = None,
        resume: bool = False,
        run_fn: Optional[RunFn] = None,
        workers: int = 1,
        options: Optional[RunOptions] = None,
    ) -> None:
        self.benchmarks = list(benchmarks) if benchmarks is not None \
            else spec_names()
        self.defenses = [normalize_defense_name(mode) for mode in modes]
        self.machine = machine
        self.scale = scale
        options = options if options is not None else RunOptions()
        if options.max_cycles is None:
            options = replace(options, max_cycles=DEFAULT_MAX_CYCLES)
        self.options = options
        self.checkpoint = checkpoint
        self.resume = resume
        self.run_fn: RunFn = run_fn if run_fn is not None else run_benchmark
        self.workers = max(1, workers)

    # ---- plumbing --------------------------------------------------------

    def tasks(self) -> List[Tuple[str, str]]:
        return [(name, defense) for name in self.benchmarks
                for defense in self.defenses]

    def _config(self) -> Dict[str, object]:
        return {
            "benchmarks": self.benchmarks,
            "modes": list(self.defenses),
            "machine": self.machine.name if self.machine is not None
            else "paper",
            "scale": self.scale,
            "max_cycles": self.options.max_cycles,
            "injecting": self.options.fault_plan is not None,
        }

    def _options_for(self, benchmark: str, defense: str) -> RunOptions:
        """The sweep's options with a :class:`FaultPlan` derived per
        pair (a pre-built injector, or none, passes through)."""
        plan = self.options.fault_plan
        if not isinstance(plan, FaultPlan):
            return self.options
        return replace(self.options,
                       fault_plan=plan.derive(f"{benchmark}/{defense}"))

    def task_for(self, benchmark: str, defense: str) -> SweepTask:
        """The spawn-safe payload for one pair (shared by both paths)."""
        defense = normalize_defense_name(defense)
        return SweepTask(
            benchmark=benchmark, mode=defense, machine=self.machine,
            scale=self.scale,
            options=self._options_for(benchmark, defense),
            run_fn=self.run_fn,
        )

    def _run_one(self, benchmark: str, defense: str) -> SweepRow:
        return execute_sweep_task(self.task_for(benchmark, defense))

    def _resumed_rows(self, store: CheckpointStore) -> Dict[str, SweepRow]:
        """The rows of ``store`` this sweep reuses, by task key; when
        there are none to reuse, the file starts over under this
        sweep's header."""
        config = self._config()
        if self.resume and store.exists():
            header, records = store.load()
            if all(header.get(key) == config[key] for key in _RESUME_KEYS):
                done: Dict[str, SweepRow] = {}
                for key, record in records.items():
                    try:
                        done[key] = SweepRow.from_record(record)
                    except (ValueError, KeyError):
                        continue  # unreadable row: re-run the pair
                return done
        store.reset(config)
        return {}

    # ---- the sweep -------------------------------------------------------

    def run(self, progress: Optional[Callable[[SweepRow], None]] = None) \
            -> SweepResult:
        store = CheckpointStore(self.checkpoint) \
            if self.checkpoint else None
        done: Dict[str, SweepRow] = {}
        if store is not None:
            store.acquire_writer()
        try:
            if store is not None:
                done = self._resumed_rows(store)

            result = SweepResult()
            pending: List[Tuple[int, str, str]] = []
            slots: List[Optional[SweepRow]] = []
            for benchmark, defense in self.tasks():
                key = CheckpointStore.task_key(benchmark, defense)
                if key in done:
                    slots.append(done[key])
                else:
                    pending.append((len(slots), benchmark, defense))
                    slots.append(None)

            if self.workers > 1 and pending:
                self._run_parallel(pending, slots, store, progress)
            else:
                for index, benchmark, defense in pending:
                    row = self._run_one(benchmark, defense)
                    self._record(row, index, slots, store, progress)
            result.rows = [row for row in slots if row is not None]
            return result
        finally:
            if store is not None:
                store.release_writer()

    def _record(
        self,
        row: SweepRow,
        index: int,
        slots: List[Optional[SweepRow]],
        store: Optional[CheckpointStore],
        progress: Optional[Callable[[SweepRow], None]],
    ) -> None:
        """Single-writer completion path (parent process only): durably
        checkpoint the row, slot it into task order, report progress."""
        if store is not None:
            store.append(
                CheckpointStore.task_key(row.benchmark, row.mode),
                row.to_record(),
            )
        slots[index] = row
        if progress is not None:
            progress(row)

    def _run_parallel(
        self,
        pending: List[Tuple[int, str, str]],
        slots: List[Optional[SweepRow]],
        store: Optional[CheckpointStore],
        progress: Optional[Callable[[SweepRow], None]],
    ) -> None:
        from ..perf.parallel import ParallelSweepExecutor

        executor = ParallelSweepExecutor(workers=self.workers)
        tasks = [(index, self.task_for(benchmark, defense))
                 for index, benchmark, defense in pending]
        for index, row in executor.map_tasks(tasks):
            self._record(row, index, slots, store, progress)
