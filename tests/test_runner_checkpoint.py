"""Crash-safe sweep engine: checkpointing, resume and failure
isolation — exercised with a fake run function so the tests are fast
and failure timing is exact."""
import json
import os
import shutil

import pytest

from repro.errors import SimulationError
from repro.experiments.runner import SweepEngine, SweepRow
from repro.params import RunOptions, paper_config, tiny_config
from repro.pipeline.report import SimReport
from repro.robustness import FaultPlan
from repro.robustness.checkpoint import CheckpointError, CheckpointStore

_MODES = ("origin", "baseline")

#: hmmer at scale 0.02 on the tiny machine, written by an earlier
#: SweepEngine: zoo rows carry the paper mode they were anchored to in
#: "mode" and their own name in "defense"; the baseline row has no
#: "defense" keys at all, like rows written before the defense zoo.
LEGACY_CHECKPOINT = os.path.join(os.path.dirname(__file__), "data",
                                 "legacy_sweep.jsonl")
LEGACY_MODES = ("origin", "baseline", "cache_hit", "cache_hit_tpbuf",
                "delay_on_miss", "stt")


def _fake_report(name, mode, cycles=1000):
    return SimReport(name=name, mode=mode, cycles=cycles,
                     committed=cycles // 2, halted=True,
                     termination="halt")


def _fake_run(name, security=None, **_kwargs):
    return _fake_report(name, security.mode)


class TestCheckpointStore:
    def test_round_trip(self, tmp_path):
        store = CheckpointStore(str(tmp_path / "ck.jsonl"))
        store.reset({"scale": 0.5})
        store.append("a/origin", {"status": "ok", "cycles": 7})
        store.append("b/origin", {"status": "failed"})
        header, rows = store.load()
        assert header == {"scale": 0.5}
        assert rows["a/origin"]["cycles"] == 7
        assert rows["b/origin"]["status"] == "failed"

    def test_last_record_wins(self, tmp_path):
        store = CheckpointStore(str(tmp_path / "ck.jsonl"))
        store.reset()
        store.append("a/origin", {"status": "failed"})
        store.append("a/origin", {"status": "ok"})
        _header, rows = store.load()
        assert rows["a/origin"]["status"] == "ok"

    def test_torn_trailing_line_is_skipped(self, tmp_path):
        path = tmp_path / "ck.jsonl"
        store = CheckpointStore(str(path))
        store.reset()
        store.append("a/origin", {"status": "ok"})
        with open(path, "a") as handle:
            handle.write('{"kind": "row", "key": "b/orig')  # crash here
        with pytest.warns(RuntimeWarning, match="torn trailing line"):
            _header, rows = store.load()
        assert list(rows) == ["a/origin"]

    def test_foreign_file_raises(self, tmp_path):
        path = tmp_path / "notes.jsonl"
        with open(path, "w") as handle:
            handle.write(json.dumps({"kind": "header",
                                     "format": "something-else"}) + "\n")
        with pytest.raises(CheckpointError):
            CheckpointStore(str(path)).load()


class TestTornTailHardening:
    """A crash mid-append leaves an unterminated fragment as the last
    line.  Loads tolerate it with a warning; the next append repairs
    the file instead of gluing new bytes onto the fragment."""

    def _store_with_torn_tail(self, tmp_path, fragment):
        path = tmp_path / "ck.jsonl"
        store = CheckpointStore(str(path))
        store.reset()
        store.append("a/origin", {"status": "ok"})
        with open(path, "a") as handle:
            handle.write(fragment)  # crash: no trailing newline
        return store, path

    def test_load_warns_but_tolerates(self, tmp_path):
        store, _path = self._store_with_torn_tail(
            tmp_path, '{"kind": "row", "key": "b/ori')
        with pytest.warns(RuntimeWarning, match="torn trailing line"):
            _header, rows = store.load()
        assert list(rows) == ["a/origin"]

    def test_append_truncates_fragment_first(self, tmp_path):
        store, path = self._store_with_torn_tail(
            tmp_path, '{"kind": "row", "key": "b/ori')
        with pytest.warns(RuntimeWarning, match="truncating torn"):
            store.append("c/origin", {"status": "ok"})
        store.release_writer()
        # Every remaining line is valid JSON again.
        with open(path) as handle:
            records = [json.loads(line) for line in handle]
        keys = [r.get("key") for r in records if r.get("kind") == "row"]
        assert keys == ["a/origin", "c/origin"]
        _header, rows = store.load()
        assert set(rows) == {"a/origin", "c/origin"}

    def test_complete_line_missing_only_newline_is_kept(self, tmp_path):
        # The fsync landed the bytes but died before anything else:
        # the record is whole, only its terminator is missing.  It
        # must be repaired, not thrown away.
        record = json.dumps({"kind": "row", "key": "b/origin",
                             "status": "ok"})
        store, _path = self._store_with_torn_tail(tmp_path, record)
        store.append("c/origin", {"status": "ok"})
        store.release_writer()
        _header, rows = store.load()
        assert set(rows) == {"a/origin", "b/origin", "c/origin"}

    def test_unreadable_middle_line_is_skipped_with_warning(
            self, tmp_path):
        path = tmp_path / "ck.jsonl"
        store = CheckpointStore(str(path))
        store.reset()
        store.append("a/origin", {"status": "ok"})
        with open(path, "a") as handle:
            handle.write("%% corrupted line %%\n")
        store.append("b/origin", {"status": "ok"})
        store.release_writer()
        with pytest.warns(RuntimeWarning, match="unreadable"):
            _header, rows = store.load()
        assert set(rows) == {"a/origin", "b/origin"}


class TestSweepEngine:
    def _engine(self, tmp_path, run_fn=_fake_run, **kwargs):
        kwargs.setdefault("benchmarks", ["alpha", "beta"])
        kwargs.setdefault("modes", _MODES)
        kwargs.setdefault("checkpoint", str(tmp_path / "sweep.jsonl"))
        return SweepEngine(run_fn=run_fn, **kwargs)

    def test_full_sweep_records_every_pair(self, tmp_path):
        result = self._engine(tmp_path).run()
        assert len(result.rows) == 4
        assert not result.failures
        report = result.report_for("alpha", "origin")
        assert report is not None and report.cycles == 1000

    def test_killed_sweep_resumes_without_rerunning(self, tmp_path):
        calls = []

        def crashing(name, security=None, **kwargs):
            if len(calls) == 2:
                raise KeyboardInterrupt  # simulated Ctrl-C / kill
            calls.append((name, security.mode))
            return _fake_report(name, security.mode)

        engine = self._engine(tmp_path, run_fn=crashing)
        with pytest.raises(KeyboardInterrupt):
            engine.run()
        assert len(calls) == 2  # two pairs completed before the crash

        resumed_calls = []

        def counting(name, security=None, **kwargs):
            resumed_calls.append((name, security.mode))
            return _fake_report(name, security.mode)

        engine2 = self._engine(tmp_path, run_fn=counting, resume=True)
        result = engine2.run()
        assert len(result.rows) == 4
        assert result.resumed == 2
        # Only the two pairs lost to the crash re-ran.
        assert sorted(resumed_calls) == sorted(
            set((b, m) for b in ("alpha", "beta") for m in _MODES)
            - set(calls)
        )

    def test_failure_is_isolated_to_its_row(self, tmp_path):
        def flaky(name, security=None, **kwargs):
            if name == "alpha":
                raise SimulationError("boom")
            return _fake_report(name, security.mode)

        result = self._engine(tmp_path, run_fn=flaky).run()
        assert len(result.rows) == 4
        failed = [row for row in result.rows if not row.ok]
        assert {row.benchmark for row in failed} == {"alpha"}
        for row in failed:
            assert row.error_type == "SimulationError"
            assert row.error == "boom"
        # beta still succeeded
        assert result.report_for("beta", "origin") is not None

    def test_failed_pair_runs_once(self, tmp_path):
        calls = []

        def failing(name, security=None, **kwargs):
            calls.append((name, security.mode))
            raise SimulationError("deterministic")

        result = self._engine(tmp_path, run_fn=failing).run()
        assert len(result.failures) == 4
        assert len(calls) == 4

    @pytest.mark.parametrize("changed", (
        {"scale": 0.5},
        {"machine": paper_config()},
        {"options": RunOptions(max_cycles=12_345)},
        {"options": RunOptions(fault_plan=FaultPlan.moderate(seed=1))},
    ), ids=("scale", "machine", "max_cycles", "injecting"))
    def test_resume_reruns_rows_of_another_configuration(
            self, tmp_path, changed):
        self._engine(tmp_path, machine=tiny_config(), scale=0.02).run()
        calls = []

        def counting(name, security=None, **kwargs):
            calls.append((name, security.mode))
            return _fake_report(name, security.mode)

        config = {"machine": tiny_config(), "scale": 0.02, **changed}
        engine = self._engine(tmp_path, run_fn=counting, resume=True,
                              **config)
        result = engine.run()
        assert result.resumed == 0 and len(calls) == 4
        header, rows = CheckpointStore(engine.checkpoint).load()
        assert header == engine._config()
        assert len(rows) == 4

    def test_resume_keeps_rows_when_the_grid_grows(self, tmp_path):
        self._engine(tmp_path).run()
        calls = []

        def counting(name, security=None, **kwargs):
            calls.append((name, security.mode))
            return _fake_report(name, security.mode)

        result = self._engine(
            tmp_path, run_fn=counting, resume=True,
            benchmarks=["alpha", "beta", "gamma"],
            modes=_MODES + ("cache_hit",)).run()
        assert result.resumed == 4 and len(result.rows) == 9
        assert len(calls) == 5

    def test_resume_row_round_trips_the_report(self, tmp_path):
        engine = self._engine(tmp_path)
        engine.run()
        result = self._engine(tmp_path, resume=True).run()
        row = result.row("alpha", "baseline")
        assert row.resumed
        assert row.report is not None
        assert row.report.mode == "baseline"
        assert row.report.termination == "halt"

    def test_reports_for_keeps_every_defense(self, tmp_path):
        """A zoo defense does not shadow the paper defense it once
        shared a record anchor with."""
        result = self._engine(
            tmp_path, modes=("origin", "delay_on_miss")).run()
        reports = result.reports_for("alpha")
        assert set(reports) == {"origin", "delay_on_miss"}
        assert reports["delay_on_miss"].mode == "delay_on_miss"

    def test_legacy_checkpoint_resumes_without_rerunning(self, tmp_path):
        path = str(tmp_path / "legacy.jsonl")
        shutil.copyfile(LEGACY_CHECKPOINT, path)

        def rerun(name, security=None, **kwargs):
            raise AssertionError(f"re-ran {name}/{security.mode}")

        result = SweepEngine(
            benchmarks=["hmmer"], modes=LEGACY_MODES,
            machine=tiny_config(), scale=0.02, checkpoint=path,
            resume=True, run_fn=rerun).run()
        assert result.resumed == len(result.rows) == len(LEGACY_MODES)
        assert [row.mode for row in result.rows] == list(LEGACY_MODES)
        reports = result.reports_for("hmmer")
        assert {name: report.mode for name, report in reports.items()} \
            == {name: name for name in LEGACY_MODES}

    def test_sweep_row_record_round_trip(self):
        row = SweepRow(benchmark="x", mode="origin",
                       status="ok", termination="halt", cycles=5,
                       committed=2, attempts=1, duration_s=0.5,
                       report=_fake_report("x", "origin"))
        back = SweepRow.from_record(row.to_record())
        assert back.benchmark == "x" and back.mode == "origin"
        assert back.resumed and back.report.cycles == 1000

    def test_real_single_pair_sweep(self, tmp_path):
        """One genuine (benchmark, mode) simulation through the engine,
        so the default run path stays covered."""
        engine = SweepEngine(benchmarks=["hmmer"],
                             modes=["origin"],
                             machine=tiny_config(), scale=0.05,
                             checkpoint=str(tmp_path / "real.jsonl"))
        result = engine.run()
        assert not result.failures
        assert result.rows[0].termination == "halt"
