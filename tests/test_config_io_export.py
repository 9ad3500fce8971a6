"""Tests for the paper artifacts' JSON documents."""
import json


class TestResultExport:
    def test_figure5_export(self, tmp_path):
        from repro.documents import write_json
        from repro.experiments import run_figure5
        result = run_figure5(benchmarks=["hmmer"], scale=0.05)
        payload = result.to_dict()
        assert payload["artifact"] == "figure5"
        assert "hmmer" in payload["benchmarks"]
        path = tmp_path / "fig5.json"
        write_json(path, payload)
        loaded = json.loads(path.read_text())
        assert loaded["paper"].startswith("Conditional Speculation")
        assert loaded["benchmarks"]["hmmer"]["normalized"]["baseline"] > 0

    def test_table5_export(self):
        from repro.experiments import run_table5
        result = run_table5(benchmarks=["hmmer"], scale=0.05)
        payload = result.to_dict()
        assert 0 <= payload["benchmarks"]["hmmer"]["l1_hit_rate"] <= 1
        assert "average" in payload

    def test_table4_export_shape(self):
        from repro.experiments import run_table4
        result = run_table4(scenarios=["Flush+Reload, share data"])
        payload = result.to_dict()
        scenario = payload["scenarios"]["Flush+Reload, share data"]
        assert scenario["matches_paper"]
        assert not scenario["protected"]["origin"]
        assert scenario["protected"]["cache_hit_tpbuf"]
