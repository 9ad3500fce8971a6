"""Smoke tests for the experiment drivers on reduced inputs.

Full-size regenerations live in benchmarks/; here each driver runs on
a small benchmark subset at reduced scale and its invariants are
checked.
"""
import pytest

from repro.experiments import (
    run_area_study,
    run_benchmark,
    run_fence_ablation,
    run_figure5,
    run_icache_filter_study,
    run_lru_study,
    run_matrix_ablation,
    run_modes,
    run_table5,
    run_table6,
    suite_overheads,
)
from repro.experiments.area_study import render_area_study
from repro.experiments.formatting import percent, text_table
from repro.memory.replacement import SpeculativeLRUPolicy
from repro.params import a57_like

_BENCH = ["hmmer"]
_SCALE = 0.1


class TestFormatting:
    def test_percent(self):
        assert percent(0.1234) == "12.3%"
        assert percent(0.1234, 2) == "12.34%"

    def test_text_table_alignment(self):
        table = text_table(["name", "v"], [["a", "1"], ["bb", "22"]],
                           title="T")
        lines = table.splitlines()
        assert lines[0] == "T"
        assert "name" in lines[1]
        assert len(lines) == 5


class TestRunner:
    def test_run_benchmark_names_report(self):
        report = run_benchmark("hmmer", scale=_SCALE)
        assert report.name == "hmmer"
        assert report.halted

    def test_run_modes_covers_requested(self):
        reports = run_modes("hmmer", scale=_SCALE,
                            modes=["origin",
                                   "baseline"])
        assert set(reports) == {"origin",
                                "baseline"}

    def test_suite_overheads_shape(self):
        result = suite_overheads(["baseline"],
                                 benchmarks=_BENCH, scale=_SCALE)
        assert set(result) == set(_BENCH)
        assert "baseline" in result["hmmer"]


class TestFigure5:
    def test_rows_and_render(self):
        result = run_figure5(benchmarks=_BENCH, scale=_SCALE)
        assert len(result.rows) == 1
        row = result.row("hmmer")
        assert row.normalized("origin") == 1.0
        text = result.render()
        assert "hmmer" in text and "average" in text

    def test_unknown_row_raises(self):
        result = run_figure5(benchmarks=_BENCH, scale=_SCALE)
        with pytest.raises(KeyError):
            result.row("nonesuch")


class TestTable5:
    def test_rates_are_probabilities(self):
        result = run_table5(benchmarks=_BENCH, scale=_SCALE)
        row = result.row("hmmer")
        for value in (row.l1_hit_rate, row.baseline_blocked,
                      row.cachehit_blocked, row.spec_hit_rate,
                      row.tpbuf_blocked, row.spattern_mismatch):
            assert 0.0 <= value <= 1.0
        assert "hmmer" in result.render()

    def test_tpbuf_blocks_at_most_cache_hit(self):
        result = run_table5(benchmarks=_BENCH, scale=_SCALE)
        row = result.row("hmmer")
        assert row.tpbuf_blocked <= row.cachehit_blocked + 0.02

    def test_averages_row(self):
        result = run_table5(benchmarks=_BENCH, scale=_SCALE)
        assert result.averages().benchmark == "average"


class TestTable6:
    def test_single_machine_subset(self):
        result = run_table6(machines=[a57_like()], benchmarks=_BENCH,
                            scale=_SCALE)
        assert result.machines == ["a57-like"]
        value = result.average_overhead("a57-like",
                                        "baseline")
        assert isinstance(value, float)
        assert "a57-like" in result.render()


class TestLRUStudy:
    def test_policies_compared(self):
        result = run_lru_study(benchmarks=_BENCH, scale=_SCALE)
        assert SpeculativeLRUPolicy.NO_UPDATE in result.cycles["hmmer"]
        text = result.render()
        assert "no_update" in text
        # no_update overhead vs normal should be small either way.
        assert abs(result.average_overhead(
            SpeculativeLRUPolicy.NO_UPDATE)) < 0.2


class TestAreaStudy:
    def test_reports_per_machine(self):
        reports = run_area_study()
        names = [name for name, _ in reports]
        assert "paper" in names
        assert "Section VI.E" in render_area_study(reports)

    def test_larger_iq_larger_matrix(self):
        reports = dict(run_area_study())
        assert reports["xeon-like"].matrix_mm2 > \
            reports["a57-like"].matrix_mm2


class TestAblations:
    def test_matrix_ablation_security_consequence(self):
        result = run_matrix_ablation(benchmarks=_BENCH, scale=_SCALE)
        assert result.v4_leaks_with_branch_only
        assert result.v4_blocked_with_full
        assert "branch-only" in result.render()

    def test_branch_only_is_cheaper(self):
        result = run_matrix_ablation(benchmarks=["lbm"], scale=0.3)
        assert result.average_overhead("branch_only") <= \
            result.average_overhead("full") + 0.02

    def test_icache_filter_study(self):
        result = run_icache_filter_study(benchmarks=_BENCH, scale=_SCALE)
        assert "hmmer" in result.overheads
        assert "icache" in result.render().lower()

    def test_fence_ablation_lfence_is_expensive(self):
        result = run_fence_ablation(benchmarks=["lbm"], scale=0.3)
        per = result.overheads["lbm"]
        assert per["lfence"] > per["tpbuf"]
        assert "lfence" in result.render()
