"""Parallel sweep execution: determinism, resume, the single-writer
lock, and the RunOptions parameter object."""
import dataclasses
import os

import pytest

from repro.errors import ConfigError, SimulationError
from repro.experiments.runner import (
    SweepEngine,
    SweepTask,
    execute_sweep_task,
    run_benchmark,
)
from repro.params import DEFAULT_MAX_CYCLES, RunOptions
from repro.perf.parallel import ParallelSweepExecutor
from repro.pipeline.processor import Processor
from repro.robustness.checkpoint import (
    CheckpointStore,
    CheckpointWriterConflict,
)
from repro.robustness.faults import FaultPlan
from repro.workloads import spec_program

BENCHMARKS = ["bzip2", "mcf"]
MODES = ["origin", "cache_hit_tpbuf"]
OPTIONS = RunOptions(max_cycles=60_000)
SCALE = 0.05


def _signature(result, include_duration=False):
    """Order-insensitive view of everything a sweep records (except
    wall-clock durations, the only legitimately nondeterministic
    field)."""
    rows = []
    for row in result.rows:
        record = row.to_record()
        del record["duration_s"]
        rows.append(record)
    return sorted(rows, key=lambda r: (r["benchmark"], r["mode"]))


def _engine(workers, fault_seed=None, **kwargs):
    fault_plan = FaultPlan.moderate(seed=fault_seed) \
        if fault_seed is not None else None
    return SweepEngine(
        benchmarks=BENCHMARKS, modes=MODES, scale=SCALE,
        options=dataclasses.replace(OPTIONS, fault_plan=fault_plan),
        workers=workers, **kwargs,
    )


class TestSerialParallelDeterminism:
    def test_rows_identical_without_faults(self):
        serial = _engine(workers=1).run()
        parallel = _engine(workers=2).run()
        assert _signature(serial) == _signature(parallel)
        assert len(serial.rows) == len(BENCHMARKS) * len(MODES)

    @pytest.mark.parametrize("seed", [7, 1234])
    def test_rows_identical_under_fault_injection(self, seed):
        serial = _engine(workers=1, fault_seed=seed).run()
        parallel = _engine(workers=2, fault_seed=seed).run()
        assert _signature(serial) == _signature(parallel)

    def test_run_tasks_preserves_task_order(self):
        tasks = [
            SweepTask(benchmark=name, mode=mode, scale=SCALE,
                      options=OPTIONS)
            for name in BENCHMARKS for mode in MODES
        ]
        rows = ParallelSweepExecutor(workers=2).run_tasks(tasks)
        assert [(r.benchmark, r.mode) for r in rows] == \
            [(t.benchmark, t.mode) for t in tasks]


class TestParallelCheckpointResume:
    def test_resume_skips_recorded_pairs(self, tmp_path):
        path = str(tmp_path / "sweep.jsonl")
        first = SweepEngine(benchmarks=["bzip2"], modes=MODES,
                            scale=SCALE, options=OPTIONS,
                            checkpoint=path).run()
        assert len(first.rows) == len(MODES)
        resumed = _engine(workers=2, checkpoint=path, resume=True).run()
        assert len(resumed.rows) == len(BENCHMARKS) * len(MODES)
        by_bench = {row.benchmark: row.resumed for row in resumed.rows}
        assert by_bench["bzip2"] is True
        assert by_bench["mcf"] is False
        # The checkpoint now covers everything: a second resume
        # re-runs nothing.
        again = _engine(workers=2, checkpoint=path, resume=True).run()
        assert all(row.resumed for row in again.rows)
        assert _signature(resumed) == _signature(again)

    def test_parallel_checkpoint_matches_serial(self, tmp_path):
        serial_path = str(tmp_path / "serial.jsonl")
        parallel_path = str(tmp_path / "parallel.jsonl")
        serial = _engine(workers=1, checkpoint=serial_path).run()
        parallel = _engine(workers=2, checkpoint=parallel_path).run()
        assert _signature(serial) == _signature(parallel)
        _, serial_rows = CheckpointStore(serial_path).load()
        _, parallel_rows = CheckpointStore(parallel_path).load()
        assert set(serial_rows) == set(parallel_rows)
        for key in serial_rows:
            a, b = dict(serial_rows[key]), dict(parallel_rows[key])
            a.pop("duration_s"), b.pop("duration_s")
            assert a == b


class TestSingleWriterInvariant:
    def test_second_writer_conflicts(self, tmp_path):
        path = str(tmp_path / "sweep.jsonl")
        holder = CheckpointStore(path)
        holder.acquire_writer()
        try:
            with pytest.raises(CheckpointWriterConflict):
                CheckpointStore(path).append("k", {"x": 1})
            with pytest.raises(CheckpointWriterConflict):
                _engine(workers=1, checkpoint=path).run()
        finally:
            holder.release_writer()
        # Released: a new writer proceeds.
        result = _engine(workers=1, checkpoint=path).run()
        assert len(result.rows) == len(BENCHMARKS) * len(MODES)

    def test_engine_releases_lock_after_run(self, tmp_path):
        path = str(tmp_path / "sweep.jsonl")
        _engine(workers=1, checkpoint=path).run()
        with CheckpointStore(path) as store:
            assert store.exists()

    def test_context_manager_releases(self, tmp_path):
        path = str(tmp_path / "ck.jsonl")
        with CheckpointStore(path) as store:
            store.reset({})
        CheckpointStore(path).acquire_writer()


class TestSpawnSafety:
    def test_unpicklable_run_fn_fails_with_clear_error(self):
        task = SweepTask(benchmark="bzip2", mode="origin",
                         scale=SCALE, options=OPTIONS,
                         run_fn=lambda *a, **k: None)
        executor = ParallelSweepExecutor(workers=2)
        with pytest.raises(SimulationError, match="spawn-safe"):
            list(executor.map_tasks([(0, task)]))

    def test_executor_validation(self):
        with pytest.raises(ConfigError):
            ParallelSweepExecutor(workers=0)

    def test_worker_failure_degrades_to_row(self):
        task = SweepTask(benchmark="nope", mode="origin",
                         options=OPTIONS)
        rows = ParallelSweepExecutor(workers=2).run_tasks([task])
        assert len(rows) == 1 and not rows[0].ok
        serial_row = execute_sweep_task(task)
        assert rows[0].error_type == serial_row.error_type


class TestRunOptions:
    def test_defaults(self):
        options = RunOptions()
        assert options.max_cycles is None
        assert options.effective_max_cycles == DEFAULT_MAX_CYCLES
        assert options.wall_clock_budget is None
        assert options.fault_plan is None

    def test_validation(self):
        with pytest.raises(ConfigError):
            RunOptions(max_cycles=0)
        with pytest.raises(ConfigError):
            RunOptions(wall_clock_budget=-1.0)

    def test_merged_per_call_budgets_win(self):
        base = RunOptions(max_cycles=10_000, wall_clock_budget=5.0)
        merged = base.merged(max_cycles=99)
        assert merged.max_cycles == 99
        assert merged.wall_clock_budget == 5.0
        assert base.merged() is base

    def test_run_benchmark_options_equals_legacy(self):
        """The bundled budget and ``Processor.run``'s per-call keyword
        (the spelling one-shot callers keep) run the same simulation."""
        legacy = Processor(spec_program("bzip2", scale=SCALE)).run(
            max_cycles=60_000)
        bundled = run_benchmark("bzip2", scale=SCALE,
                                options=RunOptions(max_cycles=60_000))
        assert legacy.cycles == bundled.cycles
        assert legacy.committed == bundled.committed

    def test_engine_default_cycle_budget(self):
        engine = SweepEngine(benchmarks=["bzip2"])
        assert engine.options.max_cycles == DEFAULT_MAX_CYCLES
        bounded = RunOptions(max_cycles=12_345, wall_clock_budget=9.0)
        engine = SweepEngine(benchmarks=["bzip2"], options=bounded)
        assert engine.options == bounded


class TestBudgetEnforcement:
    def test_max_cycles_still_enforced_via_options(self):
        report = run_benchmark("bzip2", scale=1.0,
                               options=RunOptions(max_cycles=50))
        assert report.termination == "cycle_budget"
        assert report.cycles == 50
