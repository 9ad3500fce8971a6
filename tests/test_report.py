"""Tests for SimReport derived metrics and rendering."""
import pytest

from repro.pipeline.report import SimReport, compare_table


def make_report(**kwargs):
    defaults = dict(name="t", mode="origin")
    defaults.update(kwargs)
    return SimReport(**defaults)


class TestDerivedMetrics:
    def test_ipc(self):
        report = make_report(cycles=200, committed=100)
        assert report.ipc == 0.5

    def test_ipc_zero_cycles(self):
        assert make_report().ipc == 0.0

    def test_l1d_hit_rate(self):
        report = make_report(l1d_hits=90, l1d_misses=10)
        assert report.l1d_hit_rate == 0.9

    def test_blocked_rate(self):
        report = make_report(committed_loads=8, committed_stores=2,
                             committed_mem_blocked=5)
        assert report.blocked_rate == 0.5

    def test_speculative_hit_rate(self):
        report = make_report(suspect_accesses=4, suspect_l1_hits=3)
        assert report.speculative_hit_rate == 0.75

    def test_spattern_mismatch_rate(self):
        report = make_report(tpbuf_queries=10, tpbuf_safe=4)
        assert report.spattern_mismatch_rate == 0.4

    def test_branch_mispredict_rate(self):
        report = make_report(branches_resolved=20, branch_mispredicts=2)
        assert report.branch_mispredict_rate == 0.1

    def test_overhead_vs(self):
        origin = make_report(cycles=100)
        slower = make_report(cycles=150)
        assert slower.overhead_vs(origin) == pytest.approx(0.5)

    def test_empty_rates_are_zero(self):
        report = make_report()
        assert report.blocked_rate == 0.0
        assert report.speculative_hit_rate == 0.0
        assert report.spattern_mismatch_rate == 0.0
        assert report.safe_fraction == 0.0


class TestRendering:
    def test_render_mentions_mode_and_counts(self):
        report = make_report(cycles=10, committed=5, halted=True)
        text = report.render()
        assert "origin" in text
        assert "cycles=10" in text
        assert "halted=True" in text

    def test_compare_table(self):
        origin = make_report(cycles=100, committed=80)
        other = make_report(mode="baseline", cycles=150,
                            committed=80)
        text = compare_table([origin, other], origin)
        assert "baseline" in text
        assert "1.500" in text
