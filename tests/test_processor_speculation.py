"""Tests of speculative execution behaviour: wrong-path effects,
memory-dependence speculation, ordering violations, and the squash
machinery - the substrate Spectre exploits."""
from conftest import run_to_halt
from repro import Processor, SecurityConfig, tiny_config, paper_config
from repro.isa import ProgramBuilder


def spectre_v1_like_program(train=4):
    """Bounds-check gadget with a delinquent bound: the final iteration
    is out of bounds and must speculatively touch the probe line."""
    b = ProgramBuilder()
    b.data_word(0x4000, 1)            # size
    b.data_word(0x5000, 3)            # array1[0] (in-bounds value)
    b.data_word(0x5000 + 800 * 8, 9)  # "secret" at oob index 800
    # inputs
    for i in range(train):
        b.data_word(0x7000 + i * 8, 0)
    b.data_word(0x7000 + train * 8, 800)
    # Victim recently touched its data: warm the secret line so the
    # speculative chain fits inside the misprediction window.
    b.li(25, 0x5000 + 800 * 8).load(24, 25)
    b.li(30, train + 1).li(29, 0)
    b.label("loop")
    b.shli(28, 29, 3).li(27, 0x7000).add(28, 28, 27).load(16, 28)  # x
    b.li(26, 0x4000).clflush(26).fence()       # delinquent bound
    b.li(9, 0x4000).load(10, 9)                # size
    b.bge(16, 10, "skip")
    b.shli(11, 16, 3).li(12, 0x5000).add(12, 12, 11).load(13, 12)
    b.shli(14, 13, 12).li(15, 0x100000).add(15, 15, 14).load(8, 15)
    b.label("skip")
    b.addi(29, 29, 1).addi(30, 30, -1).bne(30, 0, "loop")
    b.halt()
    return b.build()


class TestWrongPathEffects:
    def test_wrong_path_load_changes_cache_state(self):
        """The Spectre substrate: a squashed load's refill persists."""
        program = spectre_v1_like_program()
        cpu = Processor(program, machine=paper_config(),
                        security=SecurityConfig.origin())
        report = cpu.run(max_cycles=500_000)
        assert report.halted
        # probe line for secret value 9: 0x100000 + 9 * 4096
        probe_paddr = cpu.vaddr_to_paddr(0x100000 + 9 * 4096)
        assert cpu.hierarchy.probe_data(probe_paddr)

    def test_wrong_path_never_commits(self):
        program = spectre_v1_like_program()
        cpu = Processor(program, machine=paper_config())
        cpu.run(max_cycles=500_000)
        # The out-of-bounds iteration's gadget body must not commit:
        # r13 (the "secret") may only hold the architectural value from
        # training (3), never 9.
        assert cpu.arch_reg(13) == 3

    def test_squash_restores_register_state(self):
        """A mispredicted branch's wrong path must leave no register
        effects."""
        b = ProgramBuilder()
        b.data_word(0x4000, 0)
        b.li(1, 0x4000).clflush(1).fence()
        b.load(2, 1)                  # slow 0
        b.beq(2, 0, "taken")          # actually taken; cold predicts NT
        b.li(3, 111)                  # wrong path
        b.li(4, 222)                  # wrong path
        b.label("taken")
        b.halt()
        cpu, report = run_to_halt(b.build())
        assert cpu.arch_reg(3) == 0
        assert cpu.arch_reg(4) == 0
        assert report.squashes >= 1


class TestMemoryDependenceSpeculation:
    def _bypass_program(self):
        """Store with a delinquent address followed by a load to the
        same word (the V4 pattern)."""
        b = ProgramBuilder()
        b.data_word(0x4000, 0x5000)    # pointer -> 0x5000
        b.data_word(0x5000, 42)        # stale value ("secret")
        b.li(1, 0x4000).clflush(1).fence()
        b.load(2, 1)                   # p (slow)
        b.li(3, 7)
        b.store(3, 2)                  # *p = 7, address unknown ~DRAM
        b.li(4, 0x5000)
        b.load(5, 4)                   # same word: speculates past store
        b.halt()
        return b.build()

    def test_violation_squash_yields_correct_value(self):
        cpu, report = run_to_halt(self._bypass_program(),
                                  machine=tiny_config())
        assert cpu.arch_reg(5) == 7           # re-executed after squash
        assert report.memory_order_violations >= 1

    def test_stale_value_was_speculatively_observable(self):
        """Before the violation squash, the bypassing load really read
        the stale 42 - observable through its wrong-path dependents'
        cache footprint."""
        b = ProgramBuilder()
        b.data_word(0x4000, 0x5000)
        b.data_word(0x5000, 3)          # stale index
        b.li(9, 0x5000).load(9, 9)      # warm the stale line
        b.li(1, 0x4000).clflush(1).fence()
        b.load(2, 1)
        b.li(3, 0)
        b.store(3, 2)                   # sanitize *p = 0
        b.li(4, 0x5000)
        b.load(5, 4)                    # bypass: reads 3
        b.shli(6, 5, 12)
        b.li(7, 0x100000)
        b.add(7, 7, 6)
        b.load(8, 7)                    # transmit: touches page 3
        b.halt()
        cpu, _ = run_to_halt(b.build(), machine=paper_config())
        leaked = cpu.vaddr_to_paddr(0x100000 + 3 * 4096)
        assert cpu.hierarchy.probe_data(leaked)
        assert cpu.arch_reg(5) == 0     # architectural result sanitized


class TestBranchPredictorIntegration:
    def test_loop_backedge_trains(self):
        b = ProgramBuilder()
        b.li(1, 50)
        b.label("loop").addi(1, 1, -1).bne(1, 0, "loop")
        b.halt()
        cpu, report = run_to_halt(b.build())
        # After training, the vast majority of backedges predict taken.
        assert report.branch_mispredict_rate < 0.4

    def test_mispredict_penalty_visible_in_cycles(self):
        def run(data):
            b = ProgramBuilder()
            b.data_words(0x4000, data)
            b.li(1, 0x4000).li(2, len(data)).li(3, 0)
            b.label("loop")
            b.load(4, 1)
            b.beq(4, 0, "skip")
            b.addi(3, 3, 1)
            b.label("skip")
            b.addi(1, 1, 8).addi(2, 2, -1).bne(2, 0, "loop")
            b.halt()
            _, report = run_to_halt(b.build())
            return report
        predictable = run([1] * 64)
        alternating = run([1, 0] * 32)
        assert alternating.branch_mispredicts >= predictable.branch_mispredicts


class TestICacheFilter:
    def test_icache_filter_stalls_unsafe_miss_fetches(self):
        b = ProgramBuilder()
        b.data_word(0x4000, 0)
        b.li(1, 0x4000).clflush(1).fence()
        b.load(2, 1)
        b.beq(2, 0, "far")       # unresolved for ~DRAM latency
        b.nop()
        # Place the taken target far away so its line is cold.
        for _ in range(64):
            b.nop()
        b.label("far")
        b.halt()
        program = b.build()
        base = Processor(program, machine=tiny_config(),
                         security=SecurityConfig.origin())
        base_report = base.run(max_cycles=100_000)
        filtered = Processor(
            program, machine=tiny_config(),
            security=SecurityConfig(icache_filter=True),
        )
        filt_report = filtered.run(max_cycles=100_000)
        assert base_report.halted and filt_report.halted
        assert filt_report.icache_stall_cycles > 0


class TestPipelineInvariants:
    """Run the speculation-heavy scenarios with the structural
    invariant lint enabled: any bookkeeping divergence in the ROB, IQ,
    security matrix, LSQ, or rename map raises InvariantViolation."""

    def _run_checked(self, program, security, machine=None):
        cpu = Processor(program, machine=machine or tiny_config(),
                        security=security, check_invariants=True)
        report = cpu.run(max_cycles=200_000)
        assert report.halted
        return cpu, report

    def test_invariants_hold_under_v1_mispredicts(self):
        from conftest import ALL_SECURITY_CONFIGS
        for security in ALL_SECURITY_CONFIGS:
            self._run_checked(spectre_v1_like_program(), security)

    def test_invariants_hold_under_memory_bypass(self):
        from conftest import ALL_SECURITY_CONFIGS
        program = TestMemoryDependenceSpeculation()._bypass_program()
        for security in ALL_SECURITY_CONFIGS:
            self._run_checked(program, security)

    def test_invariants_hold_on_paper_machine(self):
        self._run_checked(spectre_v1_like_program(),
                          SecurityConfig.cache_hit_tpbuf(),
                          machine=paper_config())

    def test_violation_is_detected(self):
        """Sanity-check the lint itself: leave a squashed instruction
        resident in the IQ mid-run and the checker must trip."""
        import pytest
        from repro.pipeline.invariants import (InvariantViolation,
                                               check_issue_queue,
                                               check_processor_invariants)
        cpu = Processor(spectre_v1_like_program(), machine=tiny_config(),
                        security=SecurityConfig.origin(),
                        check_invariants=True)
        for _ in range(200):
            cpu.step()
            resident = next(iter(cpu.iq), None)
            if resident is not None:
                break
        assert resident is not None
        resident.squashed = True
        with pytest.raises(InvariantViolation, match="resident in IQ"):
            check_issue_queue(cpu)
        with pytest.raises(InvariantViolation):
            check_processor_invariants(cpu)

    def test_lost_wakeup_is_detected(self):
        """The ready set must be what a scan of the slots would find: a
        ready resident missing from it trips the lint."""
        import pytest
        from repro.pipeline.invariants import (InvariantViolation,
                                               check_processor_invariants)
        cpu = Processor(spectre_v1_like_program(), machine=tiny_config(),
                        security=SecurityConfig.origin(),
                        check_invariants=True)
        for _ in range(200):
            cpu.step()
            if cpu.iq.ready:
                break
        assert cpu.iq.ready
        check_processor_invariants(cpu)
        del cpu.iq.ready[0]
        with pytest.raises(InvariantViolation, match="ready set"):
            check_processor_invariants(cpu)
