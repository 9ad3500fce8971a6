"""Performance subsystem: parallel sweep execution.

- :mod:`repro.perf.parallel` — :class:`ParallelSweepExecutor`, the
  process-pool fan-out behind ``SweepEngine(workers=N)``.  Independent
  (benchmark, mode) simulation points are embarrassingly parallel;
  the executor runs them across cores while the parent process stays
  the single writer of the crash-safe checkpoint.

Speed is measured by the repo's benchmark, ``perfbench/run.py``
(declared in ``BENCHMARK.json``), as same-host parent/change pairs.
See ``docs/performance.md`` for the profiling method behind the
simulator hot-path optimizations that live next to this package (the
cycle-exactness contract is pinned by ``tests/data/cycles_golden.json``
and ``tools/cycles_golden.py``).
"""
from .parallel import ParallelSweepExecutor

__all__ = [
    "ParallelSweepExecutor",
]
