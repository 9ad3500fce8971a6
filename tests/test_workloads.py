"""Tests for the synthetic workload generators and the SPEC profiles."""
import pytest

from repro import Processor, SecurityConfig, paper_config, run_oracle
from repro.errors import ConfigError
from repro.workloads import (
    SyntheticSpec,
    build_workload,
    spec_names,
    spec_program,
    spec_spec,
)


class TestGenerator:
    def test_deterministic(self):
        spec = SyntheticSpec(name="d", seed=5)
        a = build_workload(spec)
        b = build_workload(spec)
        assert [str(i) for i in a.instructions] == \
            [str(i) for i in b.instructions]

    def test_seed_changes_program(self):
        a = build_workload(SyntheticSpec(name="a", seed=1))
        b = build_workload(SyntheticSpec(name="b", seed=2))
        assert [str(i) for i in a.instructions] != \
            [str(i) for i in b.instructions]

    def test_scale_multiplies_iterations(self):
        spec = SyntheticSpec(name="s", iterations=100)
        program = build_workload(spec, scale=0.1)
        oracle = run_oracle(program, max_instructions=1_000_000)
        small = oracle.retired
        big = run_oracle(build_workload(spec, scale=0.2),
                         max_instructions=1_000_000).retired
        assert big > small

    def test_workload_halts_and_matches_oracle(self):
        spec = SyntheticSpec(name="w", iterations=20, stream_loads=2,
                             stores=1, chase_loads=1, indirect_loads=1,
                             random_loads=1, random_branches=1,
                             page_streams=2, stream_bytes=4096,
                             chase_pages=4)
        program = build_workload(spec)
        oracle = run_oracle(program, max_instructions=1_000_000)
        assert oracle.halted
        cpu = Processor(program, machine=paper_config(),
                        security=SecurityConfig.cache_hit_tpbuf())
        report = cpu.run(max_cycles=2_000_000)
        assert report.halted
        for reg in range(32):
            assert cpu.arch_reg(reg) == oracle.reg(reg)

    def test_invalid_specs_rejected(self):
        with pytest.raises(ConfigError):
            SyntheticSpec(name="x", page_streams=0)
        with pytest.raises(ConfigError):
            SyntheticSpec(name="x", stream_bytes=3000)
        with pytest.raises(ConfigError):
            SyntheticSpec(name="x", stride=7)

    def test_chase_chain_is_a_cycle(self):
        spec = SyntheticSpec(name="c", chase_loads=1, chase_pages=4)
        program = build_workload(spec)
        chain = {addr: value for addr, value in
                 program.initial_memory.items() if addr >= 0xA00000}
        start = next(iter(chain.values()))
        seen = set()
        node = start
        while node not in seen:
            seen.add(node)
            node = chain[node]
        assert len(seen) == len(chain)   # a single cycle covers all nodes


class TestSpecProfiles:
    def test_all_22_benchmarks_present(self):
        assert len(spec_names()) == 22
        for expected in ("astar", "lbm", "libquantum", "mcf", "zeusmp",
                         "GemsFDTD"):
            assert expected in spec_names()

    def test_unknown_name_rejected(self):
        with pytest.raises(ConfigError):
            spec_spec("nonesuch")

    def test_profiles_build_and_halt(self):
        # A cheap sanity pass over every profile at tiny scale.
        for name in spec_names():
            program = spec_program(name, scale=0.05)
            oracle = run_oracle(program, max_instructions=2_000_000)
            assert oracle.halted, name

    def test_lbm_is_single_stream(self):
        assert spec_spec("lbm").page_streams == 1
        assert spec_spec("lbm").stores_share_stream

    def test_libquantum_is_many_stream(self):
        assert spec_spec("libquantum").page_streams >= 6


@pytest.mark.slow
class TestSpecCharacteristics:
    """Coarse Table V bands on the key benchmarks (full-size runs)."""

    @pytest.fixture(scope="class")
    def reports(self):
        from repro.experiments import SweepEngine
        return SweepEngine(
            benchmarks=["lbm", "GemsFDTD", "libquantum"]).run().reports()

    def test_hit_rate_bands(self, reports):
        origin = {n: r["origin"] for n, r in reports.items()}
        assert origin["GemsFDTD"].l1d_hit_rate > 0.93
        assert 0.45 < origin["lbm"].l1d_hit_rate < 0.75
        assert origin["GemsFDTD"].l1d_hit_rate > origin["lbm"].l1d_hit_rate

    def test_lbm_tpbuf_rescue(self, reports):
        """The paper's flagship result: TPBuf recovers most of lbm's
        Cache-hit-filter loss (38.1% improvement in the paper)."""
        lbm = reports["lbm"]
        origin = lbm["origin"].cycles
        cachehit = lbm["cache_hit"].cycles / origin - 1
        tpbuf = lbm["cache_hit_tpbuf"].cycles / origin - 1
        assert tpbuf < cachehit / 2
        assert lbm["cache_hit_tpbuf"].spattern_mismatch_rate \
            > 0.4

    def test_libquantum_spattern_pathology(self, reports):
        """libquantum's misses overwhelmingly match the S-Pattern, so
        TPBuf gains almost nothing over the Cache-hit filter."""
        lib = reports["libquantum"]
        assert lib["cache_hit_tpbuf"].spattern_mismatch_rate \
            < 0.1
        origin = lib["origin"].cycles
        cachehit = lib["cache_hit"].cycles / origin
        tpbuf = lib["cache_hit_tpbuf"].cycles / origin
        assert abs(tpbuf - cachehit) < 0.05

    def test_mode_ordering(self, reports):
        """Baseline >= Cache-hit >= TPBuf (within noise) per benchmark."""
        for name, per_mode in reports.items():
            origin = per_mode["origin"].cycles
            base = per_mode["baseline"].cycles / origin
            cachehit = per_mode["cache_hit"].cycles / origin
            tpbuf = per_mode["cache_hit_tpbuf"].cycles / origin
            assert base >= cachehit - 0.05, name
            assert cachehit >= tpbuf - 0.05, name
