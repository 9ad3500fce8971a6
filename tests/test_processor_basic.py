"""End-to-end tests of the out-of-order core on small programs."""
import copy

import pytest

from conftest import ALL_SECURITY_CONFIGS, run_to_halt
from repro import Processor, paper_config, tiny_config
from repro.attacks import build_spectre_v1
from repro.isa import ProgramBuilder, run_oracle
from repro.memory import PageTable
from repro.workloads import spec_program


class TestArithmetic:
    def test_dependent_chain(self):
        b = ProgramBuilder()
        b.li(1, 3).addi(2, 1, 4).mul(3, 2, 1).sub(4, 3, 1).halt()
        cpu, report = run_to_halt(b.build())
        assert cpu.arch_reg(4) == 18
        assert report.committed == 5

    def test_r0_writes_discarded(self):
        b = ProgramBuilder()
        b.li(0, 77).add(1, 0, 0).halt()
        cpu, _ = run_to_halt(b.build())
        assert cpu.arch_reg(0) == 0 and cpu.arch_reg(1) == 0

    def test_division_and_shifts(self):
        b = ProgramBuilder()
        b.li(1, 100).li(2, 7).div(3, 1, 2).shli(4, 3, 2).shri(5, 4, 1)
        b.halt()
        cpu, _ = run_to_halt(b.build())
        assert cpu.arch_reg(3) == 14
        assert cpu.arch_reg(4) == 56
        assert cpu.arch_reg(5) == 28

    def test_independent_ops_execute_out_of_order(self):
        """A load miss must not block independent ALU work: the ALU
        results commit within far fewer cycles than the miss latency
        would allow in-order."""
        b = ProgramBuilder()
        b.li(1, 0x40000)
        b.load(2, 1)            # cold miss
        for i in range(3, 10):
            b.li(i, i)
        b.halt()
        cpu, report = run_to_halt(b.build())
        for i in range(3, 10):
            assert cpu.arch_reg(i) == i


class TestMemory:
    def test_store_load_roundtrip(self):
        b = ProgramBuilder()
        b.li(1, 0x4000).li(2, 55).store(2, 1, 16).load(3, 1, 16).halt()
        cpu, _ = run_to_halt(b.build())
        assert cpu.arch_reg(3) == 55
        assert cpu.read_vword(0x4010) == 55

    def test_initial_memory_visible(self):
        b = ProgramBuilder()
        b.data_word(0x4000, 1234)
        b.li(1, 0x4000).load(2, 1).halt()
        cpu, _ = run_to_halt(b.build())
        assert cpu.arch_reg(2) == 1234

    def test_store_to_load_forwarding_value(self):
        """A load from an in-flight store's address must see its data,
        not stale memory."""
        b = ProgramBuilder()
        b.data_word(0x4000, 1)
        b.li(1, 0x4000).li(2, 2)
        b.store(2, 1).load(3, 1).halt()
        cpu, _ = run_to_halt(b.build())
        assert cpu.arch_reg(3) == 2

    def test_many_stores_drain_through_store_buffer(self):
        b = ProgramBuilder()
        b.li(1, 0x4000)
        for i in range(20):
            b.li(2, i).store(2, 1, i * 8)
        b.halt()
        cpu, _ = run_to_halt(b.build())
        for i in range(20):
            assert cpu.read_vword(0x4000 + i * 8) == i

    def test_unaligned_load_reads_aligned_word(self):
        b = ProgramBuilder()
        b.data_word(0x4000, 9)
        b.li(1, 0x4005).load(2, 1).halt()
        cpu, _ = run_to_halt(b.build())
        assert cpu.arch_reg(2) == 9


class TestControlFlow:
    def test_loop(self):
        b = ProgramBuilder()
        b.li(1, 10).li(2, 0)
        b.label("loop").add(2, 2, 1).addi(1, 1, -1).bne(1, 0, "loop")
        b.halt()
        cpu, report = run_to_halt(b.build())
        assert cpu.arch_reg(2) == 55
        assert report.branches_resolved >= 10

    def test_forward_branch_taken(self):
        b = ProgramBuilder()
        b.li(1, 1).beq(1, 1, "skip").li(2, 99).label("skip").halt()
        cpu, _ = run_to_halt(b.build())
        assert cpu.arch_reg(2) == 0

    def test_indirect_jump(self):
        b = ProgramBuilder()
        b.li_label(1, "target").jmpi(1).li(2, 99).label("target").halt()
        cpu, _ = run_to_halt(b.build())
        assert cpu.arch_reg(2) == 0

    def test_nested_loops(self):
        b = ProgramBuilder()
        b.li(1, 3).li(3, 0)
        b.label("outer")
        b.li(2, 4)
        b.label("inner")
        b.addi(3, 3, 1).addi(2, 2, -1).bne(2, 0, "inner")
        b.addi(1, 1, -1).bne(1, 0, "outer")
        b.halt()
        cpu, _ = run_to_halt(b.build())
        assert cpu.arch_reg(3) == 12

    def test_mispredict_recovery_is_architecturally_clean(self):
        """Data-dependent (unpredictable) branches still retire correct
        state."""
        b = ProgramBuilder()
        b.data_words(0x4000, [1, 0, 1, 0, 1])
        b.li(1, 0x4000).li(2, 5).li(3, 0)
        b.label("loop")
        b.load(4, 1)
        b.beq(4, 0, "skip")
        b.addi(3, 3, 1)
        b.label("skip")
        b.addi(1, 1, 8).addi(2, 2, -1).bne(2, 0, "loop")
        b.halt()
        cpu, report = run_to_halt(b.build())
        assert cpu.arch_reg(3) == 3
        assert report.branch_mispredicts > 0


class TestSerialization:
    def test_rdcycle_monotonic(self):
        b = ProgramBuilder()
        b.rdcycle(1).rdcycle(2).halt()
        cpu, _ = run_to_halt(b.build())
        assert cpu.arch_reg(2) > cpu.arch_reg(1) > 0

    def test_rdcycle_observes_load_latency(self):
        """rdcycle / cold load / rdcycle must show at least the DRAM
        latency; a warm load far less."""
        machine = tiny_config()
        b = ProgramBuilder()
        b.li(1, 0x40000)
        b.rdcycle(2).load(3, 1).rdcycle(4)
        b.rdcycle(5).load(6, 1).rdcycle(7)
        b.halt()
        cpu, _ = run_to_halt(b.build(), machine=machine)
        cold = cpu.arch_reg(4) - cpu.arch_reg(2)
        warm = cpu.arch_reg(7) - cpu.arch_reg(5)
        assert cold >= machine.memory.dram_latency
        assert warm < cold / 2

    def test_fence_orders_flush_before_load(self):
        """clflush ; fence ; load must miss (the attack-window
        construction primitive)."""
        machine = tiny_config()
        b = ProgramBuilder()
        b.data_word(0x4000, 5)
        b.li(1, 0x4000)
        b.load(2, 1)                    # warm the line
        b.clflush(1)
        b.fence()
        b.rdcycle(3).load(4, 1).rdcycle(5)
        b.halt()
        cpu, _ = run_to_halt(b.build(), machine=machine)
        assert cpu.arch_reg(5) - cpu.arch_reg(3) >= machine.memory.dram_latency

    def test_flush_flush_timing_signal(self):
        """Flushing a present line takes longer than an absent one."""
        b = ProgramBuilder()
        b.data_word(0x4000, 5)
        b.li(1, 0x4000)
        b.load(2, 1)
        b.rdcycle(3).clflush(1).rdcycle(4)    # present: slow
        b.rdcycle(5).clflush(1).rdcycle(6)    # absent: fast
        b.halt()
        cpu, _ = run_to_halt(b.build())
        present = cpu.arch_reg(4) - cpu.arch_reg(3)
        absent = cpu.arch_reg(6) - cpu.arch_reg(5)
        assert present > absent


class TestTermination:
    def test_run_without_halt_hits_cycle_limit(self):
        b = ProgramBuilder()
        b.label("spin").jmp("spin")
        cpu = Processor(b.build(), machine=tiny_config())
        report = cpu.run(max_cycles=2000)
        assert not report.halted
        assert report.cycles >= 2000

    @pytest.mark.parametrize("security", ALL_SECURITY_CONFIGS,
                             ids=lambda s: s.mode)
    def test_all_modes_halt_and_agree(self, security):
        b = ProgramBuilder()
        b.data_words(0x4000, [3, 1, 4, 1, 5])
        b.li(1, 0x4000).li(2, 5).li(3, 0)
        b.label("loop")
        b.load(4, 1).add(3, 3, 4).addi(1, 1, 8).addi(2, 2, -1)
        b.bne(2, 0, "loop")
        b.halt()
        program = b.build()
        expected = run_oracle(program)
        cpu, _ = run_to_halt(program, security=security)
        assert cpu.arch_reg(3) == expected.reg(3) == 14


class TestInitialImage:
    """The constructor translates the initial data image a page at a
    time; the result must equal a per-word walk of the page table."""

    @staticmethod
    def assert_matches_per_word_walk(cpu, page_table):
        image = {}
        for vaddr, value in cpu.program.initial_memory.items():
            image[page_table.physical_address(vaddr) & ~7] = value
        assert list(cpu.memory_image.items()) == list(image.items())
        assert list(cpu.page_table._mapping.items()) == \
            list(page_table._mapping.items())
        assert cpu.page_table._next_ppn == page_table._next_ppn

    def test_multi_page_spec_profile(self):
        machine = paper_config()
        cpu = Processor(spec_program("mcf", scale=0.06), machine=machine)
        self.assert_matches_per_word_walk(
            cpu, PageTable(page_bytes=machine.memory.dtlb.page_bytes))
        assert len(cpu.page_table._mapping) > 1

    def test_prebuilt_page_table_with_shared_aliases(self):
        attack = build_spectre_v1()
        ppns = list(attack.page_table._mapping.values())
        assert len(set(ppns)) < len(ppns)   # map_shared aliases
        before = copy.deepcopy(attack.page_table)
        cpu = Processor(attack.program, page_table=attack.page_table)
        self.assert_matches_per_word_walk(cpu, before)
