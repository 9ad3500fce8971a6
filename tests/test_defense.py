"""Tests of the Conditional Speculation mechanisms on hand-crafted
programs: suspect tagging, Baseline issue-blocking, the Cache-hit
filter and the TPBuf filter, plus the defenses' cache-stage verdicts
and InvisiSpec's exposure at commit."""
from types import SimpleNamespace

import pytest

from conftest import run_to_halt
from repro import Processor, SecurityConfig, tiny_config
from repro.core.defense import DEFENSE_REGISTRY, MissVerdict, create_defense
from repro.core.tpbuf import TPBuf
from repro.isa.instructions import Instruction, Opcode
from repro.isa import ProgramBuilder
from repro.memory.replacement import SpeculativeLRUPolicy
from repro.pipeline.dyninst import DynInst, InstState
from repro.pipeline.lsq import LoadStoreQueue
from repro.workloads import spec_program


def suspect_scenario_program():
    """A delinquent branch followed by a load that misses: the canonical
    suspect + blocked situation."""
    b = ProgramBuilder()
    b.data_word(0x4000, 0)
    b.li(1, 0x4000).clflush(1).fence()
    b.load(2, 1)                  # slow bound
    b.bne(2, 0, "skip")           # not taken; cold prediction correct
    b.li(3, 0x40000)
    b.load(4, 3)                  # dispatched while branch unresolved
    b.label("skip")
    b.halt()
    return b.build()


class TestSuspectTagging:
    def test_origin_never_tags(self):
        cpu, report = run_to_halt(suspect_scenario_program(),
                                  machine=tiny_config(),
                                  security=SecurityConfig.origin())
        assert report.suspect_issues == 0

    @pytest.mark.parametrize("security", [
        SecurityConfig.cache_hit(), SecurityConfig.cache_hit_tpbuf(),
    ], ids=["cache_hit", "tpbuf"])
    def test_filter_modes_tag_suspects(self, security):
        cpu, report = run_to_halt(suspect_scenario_program(),
                                  machine=tiny_config(), security=security)
        assert report.suspect_issues > 0

    def test_baseline_holds_suspects_at_issue(self):
        cpu, report = run_to_halt(suspect_scenario_program(),
                                  machine=tiny_config(),
                                  security=SecurityConfig.baseline())
        assert report.block_events > 0
        assert report.committed_mem_blocked > 0

    def test_blocking_delays_execution(self):
        """Baseline must be slower than Origin on the blocked pattern."""
        _, origin = run_to_halt(suspect_scenario_program(),
                                machine=tiny_config(),
                                security=SecurityConfig.origin())
        _, baseline = run_to_halt(suspect_scenario_program(),
                                  machine=tiny_config(),
                                  security=SecurityConfig.baseline())
        assert baseline.cycles > origin.cycles


class TestCacheHitFilter:
    def test_suspect_miss_is_discarded(self):
        """Under the Cache-hit filter, the suspect missing load must
        not refill the cache while blocked."""
        program = suspect_scenario_program()
        cpu = Processor(program, machine=tiny_config(),
                        security=SecurityConfig.cache_hit())
        target = cpu.vaddr_to_paddr(0x40000)
        # Step until the load was blocked at least once.
        while cpu.report.block_events == 0 and not cpu.halted \
                and cpu.cycle < 100_000:
            cpu.step()
        assert cpu.report.block_events > 0
        assert not cpu.hierarchy.probe_data(target)
        report = cpu.run(max_cycles=200_000)
        assert report.halted
        # After the dependence cleared, the load completed normally.
        assert cpu.hierarchy.probe_data(target)

    def test_suspect_hit_proceeds(self):
        """A suspect load that hits L1D is never blocked."""
        b = ProgramBuilder()
        b.data_word(0x4000, 0)
        b.data_word(0x5000, 5)
        b.li(3, 0x5000).load(4, 3)          # warm target
        b.li(1, 0x4000).clflush(1).fence()
        b.load(2, 1)
        b.beq(2, 0, "go")
        b.nop()
        b.label("go")
        b.load(5, 3)                        # suspect but hits
        b.halt()
        cpu, report = run_to_halt(b.build(), machine=tiny_config(),
                                  security=SecurityConfig.cache_hit())
        assert report.suspect_l1_hits > 0
        assert report.block_events == 0


class TestTPBufFilter:
    def _two_stream_program(self, same_page):
        """An older suspect completed load plus a younger suspect miss;
        whether pages match decides the verdict."""
        first = 0x5000
        second = 0x5100 if same_page else 0x9000
        b = ProgramBuilder()
        b.data_word(0x4000, 0)
        b.li(3, first).load(4, 3)           # warm first line
        b.li(1, 0x4000).clflush(1).fence()
        b.load(2, 1)                        # delinquent bound
        b.beq(2, 0, "go")
        b.nop()
        b.label("go")
        b.load(5, 3)                        # suspect, hits, completes (W)
        b.li(6, second)
        b.load(7, 6)                        # suspect miss: TPBuf decides
        b.halt()
        return b.build()

    def test_cross_page_suspect_miss_is_blocked(self):
        cpu, report = run_to_halt(self._two_stream_program(same_page=False),
                                  machine=tiny_config(),
                                  security=SecurityConfig.cache_hit_tpbuf())
        assert report.tpbuf_queries > 0
        assert report.block_events > 0

    def test_same_page_suspect_miss_proceeds(self):
        cpu, report = run_to_halt(self._two_stream_program(same_page=True),
                                  machine=tiny_config(),
                                  security=SecurityConfig.cache_hit_tpbuf())
        assert report.tpbuf_queries > 0
        assert report.block_events == 0

    def test_tpbuf_blocks_no_more_than_cache_hit(self):
        """TPBuf only *relaxes* the Cache-hit filter."""
        program = suspect_scenario_program()
        _, cachehit = run_to_halt(program, machine=tiny_config(),
                                  security=SecurityConfig.cache_hit())
        _, tpbuf = run_to_halt(program, machine=tiny_config(),
                               security=SecurityConfig.cache_hit_tpbuf())
        assert tpbuf.block_events <= cachehit.block_events


def _load(seq=2, ppn=0x100):
    """The fields of a suspect load the cache-stage verdict reads."""
    return SimpleNamespace(seq=seq, ppn=ppn)


#: The defenses that judge suspect L1D misses (``filters_at_cache``).
FILTERING = ("cache_hit", "cache_hit_tpbuf", "delay_on_miss",
             "delay_on_miss_ss", "invisispec")


def _filtered_run(name):
    """A run with suspect L1D hits and misses under every defense of
    :data:`FILTERING`."""
    return run_to_halt(spec_program("bzip2", scale=0.05),
                       machine=tiny_config(), security=SecurityConfig(name))


class TestFilterDecisionLogic:
    """``judge_suspect_load`` of the defenses that filter at the L1D,
    and the Cache-hit rule the core applies before asking it."""

    def test_hit_always_proceeds(self, monkeypatch):
        """The core lets a suspect L1D hit proceed unjudged: each
        filtering defense is asked about its suspect misses only."""
        for name in FILTERING:
            cls = DEFENSE_REGISTRY[name]
            calls = []

            def counted(self, cpu, inst, judge=cls.judge_suspect_load,
                        calls=calls):
                calls.append(inst.seq)
                return judge(self, cpu, inst)

            with monkeypatch.context() as patch:
                patch.setattr(cls, "judge_suspect_load", counted)
                _, report = _filtered_run(name)
            assert report.suspect_l1_hits > 0, name
            assert len(calls) \
                == report.suspect_accesses - report.suspect_l1_hits > 0, name

    def test_cache_hit_mode_blocks_misses(self):
        for name in ("cache_hit", "delay_on_miss"):
            defense = create_defense(name)
            assert defense.judge_suspect_load(None, _load()) \
                is MissVerdict.BLOCK, name

    def test_invisispec_misses_stay_invisible(self):
        defense = create_defense("invisispec")
        assert defense.judge_suspect_load(None, _load()) \
            is MissVerdict.INVISIBLE

    def test_tpbuf_mode_consults_buffer(self):
        # An older suspect load on page 0x100 has written back.
        older = DynInst(1, 0x1000, Instruction(Opcode.LOAD, rd=1, rs1=2))
        older.ppn, older.suspect = 0x100, True
        older.state = InstState.COMPLETED
        lsq = LoadStoreQueue(4, 4)
        lsq.allocate_load(older)
        cpu = SimpleNamespace(tpbuf=TPBuf(), lsq=lsq)
        defense = create_defense("cache_hit_tpbuf")
        assert defense.judge_suspect_load(cpu, _load(2, 0x100)) \
            is MissVerdict.PROCEED
        assert defense.judge_suspect_load(cpu, _load(2, 0x200)) \
            is MissVerdict.BLOCK

    def test_tpbuf_mode_requires_buffer(self):
        # The TPBuf defense declares the buffer; the processor builds
        # one for it and for no other defense.
        for name in ("cache_hit", "cache_hit_tpbuf"):
            cpu = Processor(suspect_scenario_program(),
                            machine=tiny_config(),
                            security=SecurityConfig(name))
            assert (cpu.tpbuf is not None) is (name == "cache_hit_tpbuf")

    def test_safe_fraction(self):
        """Under the Cache-hit filter alone, the safe suspect accesses
        (Section VI.C) are the ones that hit the L1D."""
        _, report = _filtered_run("cache_hit")
        assert 0 < report.suspect_l1_hits < report.suspect_accesses
        assert report.safe_fraction \
            == report.suspect_l1_hits / report.suspect_accesses


class TestInvisibleLoads:
    """InvisiSpec's suspect misses read without filling any cache; the
    commit stage exposes the line of a load that retires."""

    def test_committed_invisible_load_is_exposed(self):
        cpu, report = run_to_halt(suspect_scenario_program(),
                                  machine=tiny_config(),
                                  security=SecurityConfig("invisispec"))
        counters = report.raw["processor"]
        assert counters["invisible_loads"] \
            == counters["invisible_exposures"] > 0
        assert cpu.hierarchy.l1d.contains(cpu.vaddr_to_paddr(0x40000))

    def test_squashed_invisible_load_leaves_no_line(self):
        b = ProgramBuilder()
        b.data_word(0x4000, 1)
        b.li(1, 0x4000).clflush(1).fence()
        b.load(2, 1)                  # slow bound
        b.bne(2, 0, "skip")           # taken; cold prediction wrong
        b.li(3, 0x40000)
        b.load(4, 3)                  # transient suspect miss
        b.label("skip")
        b.halt()
        program = b.build()
        # Unprotected, the wrong path leaves the line behind.
        cpu, _ = run_to_halt(program, machine=tiny_config())
        assert cpu.hierarchy.probe_data(cpu.vaddr_to_paddr(0x40000))
        cpu, report = run_to_halt(program, machine=tiny_config(),
                                  security=SecurityConfig("invisispec"))
        assert report.raw["processor"]["invisible_loads"] == 1
        assert "invisible_exposures" not in report.raw["processor"]
        assert not cpu.hierarchy.probe_data(cpu.vaddr_to_paddr(0x40000))


class TestLRUPolicies:
    def _probe_recency_program(self):
        """Warm two lines of one set, then speculatively re-touch the
        LRU one under an unresolved branch; the policy decides whether
        the touch reorders recency."""
        b = ProgramBuilder()
        b.data_word(0x4000, 0)
        machine = tiny_config()
        set_span = machine.memory.l1d.num_sets * 64
        a, b_addr = 0x10000, 0x10000 + set_span
        b.li(1, a).load(2, 1)           # A
        b.li(3, b_addr).load(4, 3)      # B (A is now LRU)
        b.li(5, 0x4000).clflush(5).fence()
        b.load(6, 5)                    # delinquent
        b.beq(6, 0, "go")
        b.nop()
        b.label("go")
        b.load(7, 1)                    # suspect hit on A
        b.halt()
        return b.build(), machine, a, b_addr, set_span

    def test_normal_policy_updates_recency(self):
        program, machine, a, b_addr, set_span = self._probe_recency_program()
        cpu, _ = run_to_halt(program, machine=machine,
                             security=SecurityConfig(
                                 mode="cache_hit_tpbuf",
                                 lru_policy=SpeculativeLRUPolicy.NORMAL))
        # Fill the set with two more lines: with A touched (MRU), B is
        # the victim.
        pa = cpu.vaddr_to_paddr(a)
        pb = cpu.vaddr_to_paddr(b_addr)
        cpu.hierarchy.l1d.fill(pa + 7 * set_span * 16)
        assert cpu.hierarchy.l1d.contains(pa) or \
            not cpu.hierarchy.l1d.contains(pb)

    def test_no_update_policy_leaves_recency(self):
        """Under no_update the speculative hit must NOT refresh A, so A
        (still LRU) is the next victim - no leak through LRU state."""
        program, machine, a, b_addr, set_span = self._probe_recency_program()
        cpu, _ = run_to_halt(program, machine=machine,
                             security=SecurityConfig(
                                 mode="cache_hit_tpbuf",
                                 lru_policy=SpeculativeLRUPolicy.NO_UPDATE))
        pa = cpu.vaddr_to_paddr(a)
        set_index = cpu.hierarchy.l1d.set_index(pa)
        assert cpu.hierarchy.l1d.lines_in_set(set_index)[0] == pa

    def test_delayed_policy_touches_at_commit(self):
        """Delayed update applies the touch when the load commits, so
        after the (committed) program A must be MRU again."""
        program, machine, a, b_addr, set_span = self._probe_recency_program()
        cpu, _ = run_to_halt(program, machine=machine,
                             security=SecurityConfig(
                                 mode="cache_hit_tpbuf",
                                 lru_policy=SpeculativeLRUPolicy.DELAYED))
        pa = cpu.vaddr_to_paddr(a)
        set_index = cpu.hierarchy.l1d.set_index(pa)
        assert cpu.hierarchy.l1d.lines_in_set(set_index)[0] != pa
