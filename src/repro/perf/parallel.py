"""Process-pool execution of independent sweep tasks.

Every (benchmark, mode) point of an experiment sweep is an independent,
deterministic simulation, so a sweep is embarrassingly parallel.  The
:class:`ParallelSweepExecutor` fans
:class:`~repro.experiments.runner.SweepTask` payloads out across a
``ProcessPoolExecutor`` and yields finished
:class:`~repro.experiments.runner.SweepRow` results back to the parent
as they complete.

Design constraints (all load-bearing):

- **Spawn-safe payloads.**  Workers are started with the ``spawn``
  method — no forked interpreter state, the same behavior on every
  platform — so a task must fully describe its run and pickle cleanly.
  :meth:`ParallelSweepExecutor.map_tasks` verifies this up front and
  fails with an actionable error instead of a deep pickle traceback.
- **Bounded in-flight work.**  At most ``2 * workers`` tasks are
  queued on the pool at once, so a huge sweep never materializes
  thousands of pending futures and the parent can checkpoint completed
  rows promptly.
- **Workers never write.**  A worker returns its ``SweepRow`` (pickled
  back); only the parent process appends to the fsync'd JSONL
  checkpoint, preserving the
  :class:`~repro.robustness.checkpoint.CheckpointStore` single-writer
  invariant.  Failure isolation happens inside
  :func:`~repro.experiments.runner.execute_sweep_task` in the worker,
  identically to the serial path.
"""
from __future__ import annotations

import multiprocessing
import pickle
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from typing import Dict, Iterable, Iterator, List, Tuple

from ..errors import ConfigError, SimulationError
from ..experiments.runner import SweepRow, SweepTask, execute_sweep_task

__all__ = ["ParallelSweepExecutor", "default_workers"]


def default_workers() -> int:
    """A sensible worker count: one per CPU, at least one."""
    return max(1, multiprocessing.cpu_count())


def _check_spawn_safe(task: SweepTask) -> None:
    """Fail fast (and clearly) on payloads a spawned worker can't load."""
    try:
        pickle.dumps(task)
    except Exception as exc:
        raise SimulationError(
            f"sweep task {task.benchmark}/{task.mode} is not "
            f"spawn-safe ({type(exc).__name__}: {exc}); parallel sweeps "
            f"require picklable payloads — in particular a task's run_fn "
            f"must be a module-level function, not a lambda or closure"
        ) from exc


class ParallelSweepExecutor:
    """Run sweep tasks on a spawn-based process pool.

    ``map_tasks`` takes ``(index, task)`` pairs and yields
    ``(index, row)`` pairs in *completion* order; the caller keys rows
    back into task order with the index.  The executor itself holds no
    sweep state — checkpointing, resume and progress reporting stay in
    the single-writer parent (:class:`~repro.experiments.runner.
    SweepEngine`).
    """

    def __init__(self, workers: int) -> None:
        if workers < 1:
            raise ConfigError("workers must be >= 1")
        self.workers = workers

    def map_tasks(
        self,
        tasks: Iterable[Tuple[int, SweepTask]],
    ) -> Iterator[Tuple[int, SweepRow]]:
        """Execute every task; yield ``(index, row)`` as each finishes.

        Each task runs through
        :func:`~repro.experiments.runner.execute_sweep_task` in a
        worker.  A worker whose simulation fails still yields a failure
        row; only infrastructure-level errors — an unpicklable payload,
        a dead worker process — propagate as exceptions.
        """
        items: List[Tuple[int, SweepTask]] = list(tasks)
        if not items:
            return
        for _index, task in items:
            _check_spawn_safe(task)
        context = multiprocessing.get_context("spawn")
        with ProcessPoolExecutor(max_workers=self.workers,
                                 mp_context=context) as pool:
            queue = iter(items)
            in_flight: Dict[object, int] = {}

            def submit_next() -> bool:
                try:
                    index, task = next(queue)
                except StopIteration:
                    return False
                in_flight[pool.submit(execute_sweep_task, task)] = index
                return True

            for _ in range(min(2 * self.workers, len(items))):
                submit_next()
            while in_flight:
                finished, _pending = wait(in_flight,
                                          return_when=FIRST_COMPLETED)
                for future in finished:
                    index = in_flight.pop(future)
                    submit_next()
                    yield index, future.result()
