"""Performance subsystem: parallel sweep execution and benchmarking.

- :mod:`repro.perf.parallel` — :class:`ParallelSweepExecutor`, the
  process-pool fan-out behind ``SweepEngine(workers=N)``.  Independent
  (benchmark, mode) simulation points are embarrassingly parallel;
  the executor runs them across cores while the parent process stays
  the single writer of the crash-safe checkpoint.
- :mod:`repro.perf.bench` — the ``repro bench --suite`` harness
  measuring simulated-instructions/sec and serial-vs-parallel sweep
  wall-clock (``BENCH_sweep.json``), the repo's performance
  trajectory; ``tools/ratchet.py bench`` holds it to the committed
  ``benchmarks/BENCH_baseline.json`` in CI.

See ``docs/performance.md`` for the profiling method behind the
simulator hot-path optimizations that live next to this package (the
cycle-exactness contract is pinned by ``tests/data/cycles_golden.json``
and ``tools/cycles_golden.py``).
"""
from .bench import BenchResult, run_bench
from .parallel import ParallelSweepExecutor

__all__ = [
    "BenchResult",
    "ParallelSweepExecutor",
    "run_bench",
]
