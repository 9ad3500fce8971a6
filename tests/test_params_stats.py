"""Tests for machine configuration and the statistics plumbing."""
import pytest

from repro import paper_config, preset, tiny_config
from repro.errors import ConfigError
from repro.params import (
    CacheParams,
    CoreParams,
    MemoryParams,
    TLBParams,
    a57_like,
    i7_like,
    with_core,
    xeon_like,
)
from repro.stats import (
    StatGroup,
    combine,
    format_percent,
    geometric_mean,
    overhead,
    safe_div,
)


class TestCacheParams:
    def test_paper_l1_geometry(self):
        l1 = paper_config().memory.l1d
        assert l1.size_bytes == 64 * 1024
        assert l1.ways == 4
        assert l1.num_sets == 256

    def test_rejects_non_power_of_two_line(self):
        with pytest.raises(ConfigError):
            CacheParams("X", 1024, 2, line_bytes=48)

    def test_rejects_bad_size(self):
        with pytest.raises(ConfigError):
            CacheParams("X", 1000, 2, 64)

    def test_rejects_non_pow2_sets(self):
        with pytest.raises(ConfigError):
            CacheParams("X", 3 * 64 * 2, 2, 64)

    def test_rejects_zero_latency(self):
        with pytest.raises(ConfigError):
            CacheParams("X", 1024, 2, 64, hit_latency=0)


class TestCoreParams:
    def test_paper_table3_values(self):
        core = paper_config().core
        assert core.rob_entries == 192
        assert core.iq_entries == 64
        assert core.ldq_entries == 32
        assert core.stq_entries == 24
        assert core.commit_width == 4

    def test_phys_regs_cover_rob(self):
        core = paper_config().core
        assert core.num_phys_regs == core.rob_entries + core.num_arch_regs

    def test_rejects_zero_widths(self):
        with pytest.raises(ConfigError):
            CoreParams(issue_width=0)

    def test_with_core_override(self):
        machine = with_core(tiny_config(), rob_entries=8)
        assert machine.core.rob_entries == 8
        assert machine.memory.l1d.size_bytes == tiny_config().memory.l1d.size_bytes


class TestPresets:
    def test_all_presets_constructible(self):
        for name in ("paper", "a57-like", "i7-like", "xeon-like", "tiny"):
            machine = preset(name)
            assert machine.name == name

    def test_unknown_preset(self):
        with pytest.raises(ConfigError):
            preset("pentium")

    def test_complexity_ordering(self):
        """The sensitivity study relies on A57 < i7 < Xeon complexity."""
        a57, i7, xeon = a57_like(), i7_like(), xeon_like()
        assert a57.core.rob_entries < i7.core.rob_entries \
            < xeon.core.rob_entries
        assert a57.core.issue_width <= i7.core.issue_width \
            <= xeon.core.issue_width

    def test_memory_params_validation(self):
        with pytest.raises(ConfigError):
            MemoryParams(dram_latency=1)

    def test_tlb_validation(self):
        with pytest.raises(ConfigError):
            TLBParams(entries=0)
        with pytest.raises(ConfigError):
            TLBParams(page_bytes=1000)


class TestStats:
    def test_incr_get(self):
        group = StatGroup("g")
        group["x"] += 1
        group["x"] += 4
        assert group.get("x") == 5
        assert group.get("missing") == 0
        assert group["missing"] == 0
        assert group.as_dict() == {"x": 5}  # reading creates nothing

    def test_ratio_guards_zero(self):
        group = StatGroup("g")
        assert group.ratio("a", "b", default=0.5) == 0.5
        group["a"] += 3
        group["b"] += 4
        assert group.ratio("a", "b") == 0.75

    def test_merge(self):
        a, b = StatGroup("a"), StatGroup("b")
        a["x"] += 1
        b["x"] += 2
        a.merge(b)
        assert a.get("x") == 3

    def test_combine(self):
        a = StatGroup("a")
        a["x"] += 1
        assert combine([a]) == {"a": {"x": 1}}

    def test_safe_div(self):
        assert safe_div(1, 0, default=7.0) == 7.0
        assert safe_div(1, 2) == 0.5

    def test_geometric_mean(self):
        assert geometric_mean([2, 8]) == pytest.approx(4.0)
        assert geometric_mean([]) == 0.0
        with pytest.raises(ValueError):
            geometric_mean([1, 0])

    def test_overhead(self):
        assert overhead(150, 100) == pytest.approx(0.5)
        assert overhead(100, 0) == 0.0

    def test_format_percent(self):
        assert format_percent(0.128) == "12.8%"
