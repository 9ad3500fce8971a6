"""The experiment drivers' one sweep path, and the bench harness
CLI."""
import json

import pytest

from repro.cli import main as cli_main
from repro.errors import SimulationError
from repro.experiments import run_figure5, runner
from repro.documents import write_json
from repro.perf.bench import run_bench
from repro.robustness.checkpoint import CheckpointStore

SCALE = 0.05


def _cycles(result):
    return [(row.benchmark, row.cycles) for row in result.rows]


class TestOneSweepPath:
    """Every option combination of a defense-keyed grid takes the same
    :class:`~repro.experiments.runner.SweepEngine` path."""

    def test_same_rows_with_and_without_options(self, tmp_path):
        benchmarks = ["hmmer", "mcf"]
        plain = run_figure5(benchmarks=benchmarks, scale=SCALE)
        checkpointed = run_figure5(
            benchmarks=benchmarks, scale=SCALE,
            checkpoint=str(tmp_path / "fig5.jsonl"))
        fanned = run_figure5(benchmarks=benchmarks, scale=SCALE,
                             workers=2)
        assert _cycles(plain) == _cycles(checkpointed) == _cycles(fanned)
        assert [row.benchmark for row in plain.rows] == benchmarks

    def test_checkpoint_resume(self, tmp_path):
        path = str(tmp_path / "fig5.jsonl")
        first = run_figure5(benchmarks=["bzip2"], scale=SCALE,
                            checkpoint=path)
        resumed = run_figure5(benchmarks=["bzip2"], scale=SCALE,
                              checkpoint=path, resume=True)
        assert _cycles(first) == _cycles(resumed)

    @pytest.mark.parametrize("checkpointed", [False, True])
    def test_failed_pair_raises_naming_it(self, tmp_path, monkeypatch,
                                          checkpointed):
        real = runner.run_benchmark

        def failing(name, security=None, **kwargs):
            if (name, security.mode) == ("hmmer", "baseline"):
                raise SimulationError("injected failure")
            return real(name, security=security, **kwargs)

        monkeypatch.setattr(runner, "run_benchmark", failing)
        path = str(tmp_path / "fig5.jsonl") if checkpointed else None
        with pytest.raises(SimulationError,
                           match=r"1 of 8 run\(s\) failed: "
                                 r"hmmer/baseline \(SimulationError: "
                                 r"injected failure\)$"):
            run_figure5(benchmarks=["hmmer", "mcf"], scale=SCALE,
                        checkpoint=path)
        if checkpointed:
            _header, records = CheckpointStore(path).load()
            statuses = {key: record["status"]
                        for key, record in records.items()}
            assert statuses.pop("hmmer/baseline") == "failed"
            assert len(statuses) == 7
            assert set(statuses.values()) == {"ok"}


class TestBenchHarness:
    def test_run_bench_serial_only(self):
        result = run_bench(benchmarks=["bzip2"], scale=SCALE,
                           parallel=False)
        assert result.rows == 4
        assert result.sim_instructions > 0
        assert result.instructions_per_sec > 0
        assert result.speedup == 1.0

    def test_json_round_trip(self, tmp_path):
        result = run_bench(benchmarks=["bzip2"], scale=SCALE,
                           parallel=False)
        path = str(tmp_path / "BENCH_sweep.json")
        write_json(path, result.to_dict())
        with open(path) as handle:
            data = json.load(handle)
        assert data["instructions_per_sec"] == result.instructions_per_sec
        assert data["benchmarks"] == ["bzip2"]
        assert data["cpu_count"] == result.cpu_count >= 1
        assert data["format"] == "repro-bench-sweep"
        assert data["python"]

    def test_cli_bench_suite(self, tmp_path, capsys):
        out = str(tmp_path / "BENCH_sweep.json")
        code = cli_main(["bench", "--suite", "bzip2",
                         "--scale", str(SCALE), "--serial-only",
                         "--out", out])
        assert code == 0
        captured = capsys.readouterr().out
        assert "simulated throughput" in captured
        with open(out) as handle:
            assert json.load(handle)["rows"] == 4

    def test_cli_bench_single_benchmark_still_works(self, capsys):
        code = cli_main(["bench", "bzip2", "--scale", str(SCALE)])
        assert code == 0
        assert "origin" in capsys.readouterr().out

    def test_cli_bench_rejects_ambiguity(self, capsys, tmp_path):
        assert cli_main(["bench"]) == 2
        assert cli_main(["bench", "bzip2", "mcf"]) == 2
        assert cli_main(["bench", "nonesuch"]) == 2
        # --out is written only by --suite; without it, refuse
        # rather than exit 0 with no file.
        out = tmp_path / "BENCH_sweep.json"
        assert cli_main(["bench", "bzip2", "--out", str(out)]) == 2
        assert not out.exists()
