"""Coverage for small remaining surfaces: stats helpers, report
safe-fraction, and the remaining CLI subcommands."""
import pytest

from repro.cli import main
from repro.pipeline.report import SimReport
from repro.stats import summarize


class TestStatsSummarize:
    def test_summarize_formats_pairs(self):
        text = summarize({"ipc": 1.234, "hits": 10})
        assert "ipc=1.234" in text
        assert "hits=10" in text


class TestSafeFraction:
    def test_all_hits_are_safe(self):
        report = SimReport(name="t", mode="cache_hit",
                           suspect_accesses=10, suspect_l1_hits=10)
        assert report.safe_fraction == 1.0

    def test_mixed(self):
        report = SimReport(name="t",
                           mode="cache_hit_tpbuf",
                           suspect_accesses=10, suspect_l1_hits=5,
                           tpbuf_queries=5, tpbuf_safe=3)
        assert report.safe_fraction == pytest.approx(0.8)


class TestCLIExperimentCommands:
    def test_run_with_trace_flag(self, tmp_path, capsys):
        source = tmp_path / "p.s"
        source.write_text("li r1, 1\nhalt\n")
        code = main(["run", str(source), "--machine", "tiny", "--trace"])
        out = capsys.readouterr().out
        assert code == 0
        assert "seq" in out and "halt" in out
