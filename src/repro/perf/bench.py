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

``tools/bench.py`` drives this module from the command line (and in
CI) and writes ``BENCH_sweep.json``; the committed baseline under
``benchmarks/`` turns it into a regression guard.
"""
from __future__ import annotations

import json
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
    "write_bench_json",
    "load_bench_json",
    "check_regression",
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

    def to_dict(self) -> Dict[str, Any]:
        data = asdict(self)
        data["format"] = BENCH_FORMAT
        data["version"] = BENCH_VERSION
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "BenchResult":
        fields = set(cls.__dataclass_fields__)
        return cls(**{k: v for k, v in data.items() if k in fields})

    def render(self) -> str:
        lines = [
            f"bench: {len(self.benchmarks)} benchmarks x "
            f"{len(self.modes)} modes on '{self.machine}' "
            f"(scale={self.scale}, {self.rows} rows, "
            f"{self.failures} failures)",
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


# ---------------------------------------------------------------------------
# JSON + regression guard
# ---------------------------------------------------------------------------


def write_bench_json(result: BenchResult, path: str) -> None:
    with open(path, "w") as handle:
        json.dump(result.to_dict(), handle, indent=1, sort_keys=True)
        handle.write("\n")


def load_bench_json(path: str) -> BenchResult:
    with open(path) as handle:
        data = json.load(handle)
    if data.get("format") not in (None, BENCH_FORMAT):
        raise ValueError(f"{path}: not a bench result "
                         f"(format={data.get('format')!r})")
    return BenchResult.from_dict(data)


def check_regression(
    result: BenchResult,
    baseline: BenchResult,
    tolerance: float = 0.2,
) -> List[str]:
    """Regression-guard verdict: problems (empty list = pass).

    Fails when simulated-instructions/sec drops more than ``tolerance``
    (default 20%) below the committed baseline, when the parallel pass
    lost determinism, or when rows failed that the baseline completed.
    """
    problems: List[str] = []
    floor = baseline.instructions_per_sec * (1.0 - tolerance)
    if result.instructions_per_sec < floor:
        problems.append(
            f"simulated-instructions/sec regressed: "
            f"{result.instructions_per_sec:,.0f} < {floor:,.0f} "
            f"(baseline {baseline.instructions_per_sec:,.0f} "
            f"- {tolerance:.0%})"
        )
    if not result.deterministic:
        problems.append("parallel sweep rows diverged from serial rows")
    if result.failures > baseline.failures:
        problems.append(
            f"sweep failures increased: {result.failures} > "
            f"baseline {baseline.failures}"
        )
    return problems


#: Improvement margin before ``--raise-floor`` rewrites the baseline:
#: a run must beat it by more than 10% — genuine speedups ratchet the
#: floor up, ordinary run-to-run noise does not churn the file.
RAISE_FLOOR_MARGIN = 0.1


def should_raise_floor(
    result: BenchResult,
    baseline: BenchResult,
    margin: float = RAISE_FLOOR_MARGIN,
) -> bool:
    """Whether ``result`` earns a baseline rewrite (the ratchet).

    Only a clean run qualifies: throughput more than ``margin`` above
    the baseline, deterministic parallel rows, and no new failures —
    a fast-but-broken run must never become the bar others are held
    to.
    """
    if not result.deterministic:
        return False
    if result.failures > baseline.failures:
        return False
    ceiling = baseline.instructions_per_sec * (1.0 + margin)
    return result.instructions_per_sec > ceiling
