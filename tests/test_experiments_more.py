"""Additional experiment-layer tests: table6 export, ablation renders,
figure5 helpers and runner utilities."""
import pytest

from repro.experiments import run_figure5, run_table6
from repro.experiments.runner import average
from repro.params import a57_like


class TestRunnerHelpers:
    def test_average(self):
        assert average([1.0, 2.0, 3.0]) == 2.0
        assert average([]) == 0.0


class TestTable6Export:
    def test_shape(self):
        result = run_table6(machines=[a57_like()], benchmarks=["hmmer"],
                            scale=0.05)
        payload = result.to_dict()
        machine = payload["machines"]["a57-like"]
        assert "hmmer" in machine
        assert "baseline" in machine["hmmer"]


class TestFigure5Helpers:
    @pytest.fixture(scope="class")
    def result(self):
        return run_figure5(benchmarks=["hmmer"], scale=0.05)

    def test_overhead_is_normalized_minus_one(self, result):
        row = result.row("hmmer")
        for mode in ("baseline", "cache_hit"):
            assert row.overhead(mode) == \
                pytest.approx(row.normalized(mode) - 1.0)

    def test_origin_normalized_is_one(self, result):
        assert result.row("hmmer").normalized("origin") == 1.0

    def test_render_and_bars_agree_on_benchmarks(self, result):
        assert "hmmer" in result.render()
        assert "hmmer" in result.render_bars()
