"""The pluggable defense registry: completeness, naming, pickling,
construction-time validation, report plumbing, and the per-defense
pipeline-invariant lint."""
import pickle

import pytest

from conftest import run_to_halt
from repro import Processor, SecurityConfig, tiny_config
from repro.core.defense import (
    DEFENSE_ALIASES,
    DEFENSE_REGISTRY,
    Defense,
    DefenseConfigError,
    create_defense,
    defense_names,
    normalize_defense_name,
)
from repro.experiments.runner import SweepRow, SweepTask
from repro.isa import ProgramBuilder
from repro.pipeline.report import SimReport

ALL = list(defense_names())


def zoo_program():
    """Branch + dependent loads: exercises suspects, gating and taint."""
    b = ProgramBuilder()
    b.data_word(0x4000, 0x80)
    b.li(1, 0x4000).clflush(1).fence()
    b.load(2, 1)                  # slow producer
    b.bne(2, 0, "skip")           # unresolved while loads dispatch
    b.li(3, 0x40000)
    b.load(4, 3)
    b.load(5, 4)                  # dependent (tainted address for STT)
    b.label("skip")
    b.store(1, 2)
    b.halt()
    return b.build()


class TestRegistry:
    def test_paper_modes_and_zoo_registered(self):
        assert ALL[:4] == ["origin", "baseline", "cache_hit",
                           "cache_hit_tpbuf"]
        for name in ("delay_on_miss", "eager_delay", "delay_on_miss_ss",
                     "invisispec", "stt", "slh"):
            assert name in ALL

    @pytest.mark.parametrize("name", ALL)
    def test_entry_declares_identity_and_area(self, name):
        defense = create_defense(name)
        assert defense.name == name
        assert defense.summary
        assert defense.provenance
        assert defense.kind in ("hardware", "software")
        # Every entry must declare its hardware cost (0.0 is a valid
        # declaration; *not implementing it* is not).
        area = defense.area_mm2(tiny_config())
        assert isinstance(area, float) and area >= 0.0
        assert defense.area_fraction(tiny_config()) >= 0.0

    def test_base_class_declares_no_area(self):
        class Anonymous(Defense):
            name = "anonymous"
        with pytest.raises(NotImplementedError):
            Anonymous().area_mm2(tiny_config())

    def test_registry_maps_names_to_classes(self):
        for name, cls in DEFENSE_REGISTRY.items():
            assert cls.name == name


#: The wiring each entry ends up with: its hardware declarations plus
#: the flags derived from the hooks it overrides.
WIRING = {
    "origin": set(),
    "baseline": {"uses_matrix", "tags_suspect", "gates_issue"},
    "cache_hit": {"uses_matrix", "tags_suspect", "filters_at_cache"},
    "cache_hit_tpbuf": {"uses_matrix", "tags_suspect", "filters_at_cache",
                        "uses_tpbuf"},
    "delay_on_miss": {"tags_suspect", "filters_at_cache", "wants_events"},
    "eager_delay": {"gates_issue", "wants_events"},
    "delay_on_miss_ss": {"tags_suspect", "filters_at_cache",
                         "wants_events"},
    "invisispec": {"uses_matrix", "tags_suspect", "filters_at_cache",
                   "wants_events"},
    "stt": {"uses_matrix", "tags_suspect", "gates_issue", "wants_events",
            "taints_writeback"},
    "slh": set(),
}
FLAGS = ("uses_matrix", "uses_tpbuf", "tags_suspect", "gates_issue",
         "filters_at_cache", "wants_events", "taints_writeback")


class TestDerivedWiring:
    @pytest.mark.parametrize("name", ALL)
    def test_entry_wiring_is_pinned(self, name):
        cls = DEFENSE_REGISTRY[name]
        assert {flag for flag in FLAGS if getattr(cls, flag)} \
            == WIRING[name]

    def test_overridden_hooks_are_called(self, monkeypatch):
        """A defense that only overrides hooks, setting no flag, has
        every one of them called."""
        class Probe(Defense):
            name = "probe"

            def attach(self, cpu):
                self.gate_calls = 0
                self.commits = 0

            def gate_issue(self, cpu, inst):
                self.gate_calls += 1
                return True

            def on_commit(self, cpu, inst):
                self.commits += 1

        monkeypatch.setitem(DEFENSE_REGISTRY, "probe", Probe)
        b = ProgramBuilder()
        b.data_word(0x4000, 7)
        b.li(1, 0x4000).load(2, 1).store(1, 2).halt()
        cpu = Processor(b.build(), machine=tiny_config(),
                        security=SecurityConfig("probe"))
        report = cpu.run(max_cycles=10_000)
        assert report.halted
        assert cpu.defense.gate_calls > 0
        assert cpu.defense.commits == report.committed > 0


class TestNaming:
    def test_aliases_normalize(self):
        assert normalize_defense_name("tpbuf") == "cache_hit_tpbuf"
        assert normalize_defense_name("none") == "origin"
        assert normalize_defense_name("delay-on-miss") == "delay_on_miss"
        for alias, target in DEFENSE_ALIASES.items():
            assert normalize_defense_name(alias) == target

    def test_unknown_name_is_structured_error(self):
        with pytest.raises(DefenseConfigError, match="registered"):
            normalize_defense_name("retpoline")


class TestPickling:
    """ParallelSweepExecutor ships configs/tasks to spawned workers."""

    @pytest.mark.parametrize("name", ALL)
    def test_security_config_round_trips(self, name):
        config = SecurityConfig(name)
        clone = pickle.loads(pickle.dumps(config))
        assert clone == config
        assert clone.defense_name == name

    @pytest.mark.parametrize("name", ALL)
    def test_sweep_task_round_trips(self, name):
        task = SweepTask(benchmark="bzip2", mode=name,
                         machine=tiny_config(), scale=0.01)
        clone = pickle.loads(pickle.dumps(task))
        assert clone.mode == name
        assert clone.security == task.security


class TestConstructionValidation:
    def test_unknown_defense_rejected_at_construction(self):
        with pytest.raises(DefenseConfigError, match="retpoline"):
            SecurityConfig("retpoline")

    def test_config_holds_the_canonical_name(self):
        assert SecurityConfig("tpbuf") == SecurityConfig("cache_hit_tpbuf")
        assert SecurityConfig("tpbuf").mode == "cache_hit_tpbuf"


class TestPipelineRuns:
    @pytest.mark.parametrize("name", ALL)
    def test_halts_with_invariant_lint(self, name):
        """Every defense runs the mixed program to HALT with the
        structural + defense-wiring invariant lint on every cycle."""
        cpu = Processor(zoo_program(), machine=tiny_config(),
                        security=SecurityConfig(name),
                        check_invariants=True)
        report = cpu.run(max_cycles=100_000)
        assert report.halted
        assert report.mode == name

    @pytest.mark.parametrize("name", ALL)
    def test_architectural_state_matches_origin(self, name):
        """Defenses change timing, never architected results."""
        base_cpu, _ = run_to_halt(zoo_program())
        cpu, report = run_to_halt(
            zoo_program(), security=SecurityConfig(name))
        assert report.halted
        for reg in range(1, 8):
            assert cpu.arch_reg(reg) == base_cpu.arch_reg(reg), \
                f"r{reg} diverged under {name}"


class TestReportPlumbing:
    def test_report_round_trips_defense(self):
        _, report = run_to_halt(
            zoo_program(), security=SecurityConfig("stt"))
        payload = report.to_dict()
        assert payload["mode"] == "stt" and "defense" not in payload
        clone = SimReport.from_dict(payload)
        assert clone.mode == "stt"
        assert "stt" in clone.render()

    def test_legacy_payload_defaults_to_mode(self):
        _, report = run_to_halt(zoo_program(),
                                security=SecurityConfig.baseline())
        payload = report.to_dict()
        # Before the defense registry: the paper mode alone.
        assert SimReport.from_dict(payload).mode == "baseline"
        # Zoo records anchored to a paper mode name the defense apart.
        payload.update(mode="origin", defense="delay_on_miss")
        assert SimReport.from_dict(payload).mode == "delay_on_miss"

    @pytest.mark.parametrize("name", ALL)
    def test_every_name_round_trips(self, name):
        report = SimReport(name="bzip2", mode=name, cycles=7)
        clone = SimReport.from_dict(report.to_dict())
        assert clone == report
        row = SweepRow(benchmark="bzip2", mode=name, status="ok",
                       cycles=7, report=report)
        back = SweepRow.from_record(row.to_record())
        assert back.mode == back.defense_name == name
        assert back.report == report


class TestServeSubmissions:
    def test_zoo_name_accepted_and_canonicalized(self):
        from repro.serve.protocol import Submission
        sub = Submission.from_request({
            "asm": "halt", "mode": "invisispec", "kind": "simulate"})
        assert sub.mode == "invisispec"
        assert sub.security_config().defense_name == "invisispec"
        aliased = Submission.from_request({
            "asm": "halt", "mode": "tpbuf", "kind": "simulate"})
        assert aliased.mode == "cache_hit_tpbuf"
        # Alias and canonical spelling share one cache entry.
        canonical = Submission.from_request({
            "asm": "halt", "mode": "cache_hit_tpbuf", "kind": "simulate"})
        assert aliased.cache_key() == canonical.cache_key()

    def test_unknown_mode_rejected(self):
        from repro.serve.protocol import Submission, SubmissionError
        with pytest.raises(SubmissionError, match="unknown mode"):
            Submission.from_request({"asm": "halt", "mode": "kaiser"})
