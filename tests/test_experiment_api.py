"""The experiment drivers' one sweep path, and the ``repro bench``
command."""
import pytest

from repro.cli import main as cli_main
from repro.errors import SimulationError
from repro.experiments import run_figure5, runner
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
    """``repro bench NAME``: one profile under the paper modes."""

    def test_cli_bench_single_benchmark_still_works(self, capsys):
        code = cli_main(["bench", "bzip2", "--scale", str(SCALE)])
        assert code == 0
        assert "origin" in capsys.readouterr().out

    def test_cli_bench_rejects_ambiguity(self, capsys, tmp_path):
        assert cli_main(["bench"]) == 2
        assert "required: benchmark" in capsys.readouterr().err
        assert cli_main(["bench", "bzip2", "mcf"]) == 2
        assert "unrecognized arguments: mcf" in capsys.readouterr().err
        assert cli_main(["bench", "nonesuch"]) == 2
        # --out went with the --suite harness; a script that still
        # passes it is refused rather than told 0 with no file.
        out = tmp_path / "BENCH_sweep.json"
        assert cli_main(["bench", "bzip2", "--out", str(out)]) == 2
        assert not out.exists()
