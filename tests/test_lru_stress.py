"""Tests for the recency-sensitive LRU-stress workload and its role in
the Section VII.A study."""

from repro import Processor, SecurityConfig, paper_config, run_oracle
from repro.experiments.lru_study import STRESS_NAME, run_lru_study
from repro.memory.replacement import SpeculativeLRUPolicy
from repro.workloads.synthetic import build_lru_stress


def run_policy(program, policy):
    security = SecurityConfig(mode="cache_hit_tpbuf",
                              lru_policy=policy)
    cpu = Processor(program, machine=paper_config(), security=security)
    report = cpu.run(max_cycles=8_000_000)
    assert report.halted
    return cpu, report


class TestStressWorkload:
    def test_halts_and_matches_oracle(self):
        program = build_lru_stress(scale=0.2)
        oracle = run_oracle(program, max_instructions=2_000_000)
        assert oracle.halted
        cpu, _ = run_policy(program, SpeculativeLRUPolicy.NORMAL)
        for reg in range(32):
            assert cpu.arch_reg(reg) == oracle.reg(reg)

    def test_no_update_costs_hit_rate_and_cycles(self):
        program = build_lru_stress(scale=0.5)
        _, normal = run_policy(program, SpeculativeLRUPolicy.NORMAL)
        _, no_update = run_policy(program, SpeculativeLRUPolicy.NO_UPDATE)
        assert no_update.l1d_hit_rate < normal.l1d_hit_rate - 0.01
        assert no_update.cycles > normal.cycles

    def test_delayed_recovers_the_loss(self):
        program = build_lru_stress(scale=0.5)
        _, normal = run_policy(program, SpeculativeLRUPolicy.NORMAL)
        _, no_update = run_policy(program, SpeculativeLRUPolicy.NO_UPDATE)
        _, delayed = run_policy(program, SpeculativeLRUPolicy.DELAYED)
        assert delayed.cycles < no_update.cycles
        assert delayed.cycles <= normal.cycles * 1.01

    def test_hot_chain_is_cyclic(self):
        program = build_lru_stress()
        chain = program.initial_memory
        start = next(iter(chain))
        node, seen = start, set()
        while node not in seen:
            seen.add(node)
            node = chain[node]
        assert len(seen) == len(chain)


class TestStudyIntegration:
    def test_stress_row_present(self):
        result = run_lru_study(benchmarks=["hmmer"], scale=0.1)
        assert STRESS_NAME in result.cycles
        assert result.stress_overhead(SpeculativeLRUPolicy.NO_UPDATE) >= 0

    def test_average_excludes_stress(self):
        result = run_lru_study(benchmarks=["hmmer"], scale=0.1)
        # With only hmmer in the suite, the average must come from it
        # alone, not the stress row.
        assert result.average_overhead(SpeculativeLRUPolicy.NO_UPDATE) == \
            result.overhead("hmmer", SpeculativeLRUPolicy.NO_UPDATE)

    def test_study_without_stress(self):
        result = run_lru_study(benchmarks=["hmmer"], scale=0.1,
                               include_stress=False)
        assert STRESS_NAME not in result.cycles
        assert result.stress_overhead(SpeculativeLRUPolicy.NO_UPDATE) == 0.0
