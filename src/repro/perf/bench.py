"""Sweep benchmark harness: the repo's performance trajectory.

Measures the two numbers this project's perf work is judged by:

- **simulated-instructions/sec** (and simulated-cycles/sec): committed
  instructions divided by serial sweep wall-clock — the simulator
  hot-path throughput; and
- **serial vs parallel sweep wall-clock** for the same (benchmark,
  mode) grid through :class:`~repro.experiments.runner.SweepEngine`,
  plus the resulting speedup — the fan-out efficiency of
  ``SweepEngine(workers=N)``.

The parallel pass also double-checks determinism: every row it
produces must match the serial row for the same pair (cycles,
committed count, status), or the result is flagged.

``repro bench --suite`` runs it at any size and writes
``BENCH_sweep.json``; ``tools/ratchet.py bench`` runs it at the size
``benchmarks/BENCH_baseline.json`` was recorded at and holds it to that
floor.
"""
from __future__ import annotations

import os
import platform
import time
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from ..core.defense import PAPER_DEFENSES
from ..params import MachineParams, RunOptions
from ..experiments.runner import SweepEngine, SweepResult
from ..stats import safe_div
from ..workloads import spec_names
from .parallel import default_workers

__all__ = [
    "BenchResult",
    "run_bench",
]

#: JSON schema version of ``BENCH_sweep.json``.
BENCH_FORMAT = "repro-bench-sweep"
BENCH_VERSION = 1


@dataclass
class BenchResult:
    """One benchmark harness run (the contents of ``BENCH_sweep.json``)."""

    machine: str
    scale: float
    benchmarks: List[str]
    modes: List[str]
    workers: int
    rows: int = 0
    #: Totals over the serial sweep (every row, ok rows only).
    sim_instructions: int = 0
    sim_cycles: int = 0
    serial_wall_s: float = 0.0
    parallel_wall_s: float = 0.0
    #: Simulator throughput: committed instructions (cycles) per
    #: wall-clock second of the *serial* sweep.
    instructions_per_sec: float = 0.0
    cycles_per_sec: float = 0.0
    #: serial wall / parallel wall (1.0 when the parallel pass is skipped).
    speedup: float = 1.0
    #: Parallel rows matched serial rows exactly (cycles/committed/status).
    deterministic: bool = True
    failures: int = 0
    python: str = field(default_factory=platform.python_version)
    #: CPUs of the host that took the measurement.
    cpu_count: int = field(default_factory=lambda: os.cpu_count() or 1)

    def to_dict(self) -> Dict[str, Any]:
        data = asdict(self)
        data["format"] = BENCH_FORMAT
        data["version"] = BENCH_VERSION
        return data

    def render(self) -> str:
        lines = [
            f"bench: {len(self.benchmarks)} benchmarks x "
            f"{len(self.modes)} modes on '{self.machine}' "
            f"(scale={self.scale}, {self.rows} rows, "
            f"{self.failures} failures; {self.cpu_count} CPUs, "
            f"Python {self.python})",
            f"  simulated throughput : "
            f"{self.instructions_per_sec:,.0f} instructions/s "
            f"({self.cycles_per_sec:,.0f} cycles/s)",
            f"  serial sweep         : {self.serial_wall_s:.2f}s",
        ]
        if self.workers > 1:
            lines.append(
                f"  parallel sweep       : {self.parallel_wall_s:.2f}s "
                f"({self.workers} workers, {self.speedup:.2f}x, "
                f"deterministic={'yes' if self.deterministic else 'NO'})"
            )
        return "\n".join(lines)


def _row_signature(result: SweepResult) -> Dict[Any, Any]:
    """What must agree between a serial and a parallel sweep."""
    return {
        (row.benchmark, row.mode):
            (row.status, row.cycles, row.committed)
        for row in result.rows
    }


def run_bench(
    benchmarks: Optional[Sequence[str]] = None,
    modes: Sequence[str] = PAPER_DEFENSES,
    machine: Optional[MachineParams] = None,
    scale: float = 1.0,
    workers: Optional[int] = None,
    options: Optional[RunOptions] = None,
    parallel: bool = True,
) -> BenchResult:
    """Time the overhead sweep serially, then with ``workers`` processes.

    ``workers=None`` picks one worker per CPU (minimum 2, so the
    parallel path is always exercised); ``parallel=False`` measures
    only simulator throughput.
    """
    names = list(benchmarks) if benchmarks is not None else spec_names()
    mode_list = list(modes)
    if workers is None:
        workers = max(2, default_workers())
    result = BenchResult(
        machine=machine.name if machine is not None else "paper",
        scale=scale,
        benchmarks=names,
        modes=mode_list,
        workers=workers if parallel else 1,
    )

    def engine(n_workers: int) -> SweepEngine:
        return SweepEngine(benchmarks=names, modes=mode_list,
                           machine=machine, scale=scale,
                           options=options, workers=n_workers)

    started = time.monotonic()
    serial = engine(1).run()
    result.serial_wall_s = time.monotonic() - started
    result.rows = len(serial.rows)
    result.failures = len(serial.failures)
    for row in serial.rows:
        if row.ok:
            result.sim_instructions += row.committed
            result.sim_cycles += row.cycles
    result.instructions_per_sec = safe_div(
        result.sim_instructions, result.serial_wall_s)
    result.cycles_per_sec = safe_div(result.sim_cycles,
                                     result.serial_wall_s)

    if parallel and workers > 1:
        started = time.monotonic()
        fanned = engine(workers).run()
        result.parallel_wall_s = time.monotonic() - started
        result.speedup = safe_div(result.serial_wall_s,
                                  result.parallel_wall_s, default=1.0)
        result.deterministic = \
            _row_signature(serial) == _row_signature(fanned)
    return result
