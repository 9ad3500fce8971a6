"""The unified experiment API and the bench harness CLI."""
import json

import pytest

from repro.cli import main as cli_main
from repro.errors import ConfigError
from repro.experiments import (
    ExperimentSpec,
    experiment_names,
    get_experiment,
    register_experiment,
    run_experiment,
    run_figure5,
)
from repro.perf.bench import run_bench, write_bench_json

SCALE = 0.05


class TestRegistry:
    def test_headline_experiments_registered(self):
        assert set(experiment_names()) >= {
            "figure5", "table4", "table5", "table6",
            "fence_study", "lru_study", "precision_study",
        }

    def test_get_unknown_experiment(self):
        with pytest.raises(ConfigError, match="unknown experiment"):
            get_experiment("figure6")

    def test_spec_rejects_unknown_unified_option(self):
        with pytest.raises(ConfigError, match="unknown unified"):
            ExperimentSpec(name="bad", runner=lambda: None,
                           description="", supports=("turbo",))

    def test_register_custom_experiment(self):
        spec = ExperimentSpec(
            name="_test_probe", runner=lambda scale=1.0: scale,
            description="test", supports=("scale",),
        )
        register_experiment(spec)
        try:
            assert run_experiment("_test_probe", scale=0.5) == 0.5
        finally:
            from repro.experiments import api
            del api._REGISTRY["_test_probe"]


class TestFacade:
    def test_matches_direct_runner(self):
        direct = run_figure5(benchmarks=["bzip2"], scale=SCALE)
        via_api = run_experiment("figure5", benchmarks=["bzip2"],
                                 scale=SCALE)
        assert [row.cycles for row in via_api.rows] == \
            [row.cycles for row in direct.rows]

    def test_unsupported_option_is_an_error(self):
        with pytest.raises(ConfigError, match="does not support"):
            run_experiment("table4", checkpoint="x.jsonl")
        with pytest.raises(ConfigError, match="does not support"):
            run_experiment("lru_study", workers=4)

    def test_unknown_extra_is_an_error(self):
        with pytest.raises(ConfigError, match="has no option"):
            run_experiment("figure5", gadgets=["v1"])

    def test_defaults_not_forwarded(self):
        # fence_study defaults to scale=0.3; the facade must not
        # override it with its own default.
        spec = get_experiment("fence_study")
        import inspect
        signature = inspect.signature(spec.runner)
        assert signature.parameters["scale"].default == 0.3

    def test_checkpoint_resume_through_facade(self, tmp_path):
        path = str(tmp_path / "fig5.jsonl")
        first = run_experiment("figure5", benchmarks=["bzip2"],
                               scale=SCALE, checkpoint=path)
        resumed = run_experiment("figure5", benchmarks=["bzip2"],
                                 scale=SCALE, checkpoint=path,
                                 resume=True)
        assert [row.cycles for row in first.rows] == \
            [row.cycles for row in resumed.rows]


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
        write_bench_json(result, path)
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

    def test_cli_bench_rejects_ambiguity(self, capsys):
        assert cli_main(["bench"]) == 2
        assert cli_main(["bench", "bzip2", "mcf"]) == 2
        assert cli_main(["bench", "nonesuch"]) == 2
