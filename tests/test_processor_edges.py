"""Edge cases and resource-pressure paths of the processor."""
from conftest import run_to_halt
from repro import Processor, SecurityConfig, tiny_config
from repro.isa import ProgramBuilder
from repro.isa.program import InstructionMemory
from repro.params import with_core


class TestResourcePressure:
    def test_rob_pressure_long_dependence(self):
        """More in-flight instructions than ROB entries still retire
        correctly (dispatch stalls, no corruption)."""
        machine = with_core(tiny_config(), rob_entries=8)
        b = ProgramBuilder()
        b.li(1, 0)
        for i in range(100):
            b.addi(1, 1, 1)
        b.halt()
        cpu, report = run_to_halt(b.build(), machine=machine)
        assert cpu.arch_reg(1) == 100
        assert cpu.stats.get("dispatch_stall_rob") > 0

    def test_ldq_pressure(self):
        machine = with_core(tiny_config(), ldq_entries=2)
        b = ProgramBuilder()
        b.data_words(0x4000, list(range(16)))
        b.li(1, 0x4000).li(2, 0)
        for i in range(16):
            b.load(3, 1, i * 8)
            b.add(2, 2, 3)
        b.halt()
        cpu, _ = run_to_halt(b.build(), machine=machine)
        assert cpu.arch_reg(2) == sum(range(16))

    def test_stq_pressure(self):
        machine = with_core(tiny_config(), stq_entries=2,
                            store_buffer_entries=1)
        b = ProgramBuilder()
        b.li(1, 0x4000)
        for i in range(12):
            b.li(2, i).store(2, 1, i * 8)
        b.halt()
        cpu, _ = run_to_halt(b.build(), machine=machine)
        for i in range(12):
            assert cpu.read_vword(0x4000 + i * 8) == i

    def test_iq_pressure_with_blocked_loads(self):
        """Blocked loads hold IQ slots; a tiny IQ must still drain."""
        machine = with_core(tiny_config(), iq_entries=4)
        b = ProgramBuilder()
        b.data_word(0x4000, 0)
        b.li(1, 0x4000).clflush(1).fence()
        b.load(2, 1)
        b.bne(2, 0, "skip")
        for i in range(4):
            b.li(3, 0x40000 + i * 4096)
            b.load(4, 3)
        b.label("skip")
        b.halt()
        cpu, report = run_to_halt(b.build(), machine=machine,
                                  security=SecurityConfig.cache_hit())
        assert report.halted

    def test_phys_regfile_exhaustion_path(self):
        """With ROB bigger than the PRF margin, dispatch must stall on
        free physical registers rather than corrupt state."""
        machine = with_core(tiny_config(), rob_entries=16)
        b = ProgramBuilder()
        for i in range(60):
            b.li(1 + (i % 5), i)
        b.halt()
        cpu, _ = run_to_halt(b.build(), machine=machine)
        assert cpu.arch_reg(1) == 55   # last write of r1: i == 55


class TestTLBEffects:
    def test_tlb_miss_latency_visible(self):
        """First touch of a page pays the walk; second touch does not."""
        machine = tiny_config()
        b = ProgramBuilder()
        b.li(1, 0x400000)
        b.rdcycle(2).load(3, 1).rdcycle(4)          # TLB miss + mem miss
        b.li(5, 0x400000 + 64)
        b.rdcycle(6).load(7, 5).rdcycle(8)          # TLB hit + mem miss
        b.halt()
        cpu, _ = run_to_halt(b.build(), machine=machine)
        first = cpu.arch_reg(4) - cpu.arch_reg(2)
        second = cpu.arch_reg(8) - cpu.arch_reg(6)
        assert first > second

    def test_shared_pages_through_processor(self):
        """Two virtual pages mapped to one physical page really share
        data."""
        from repro.memory.tlb import PageTable
        table = PageTable()
        table.map_page(0x10)          # vaddr 0x10000
        table.map_shared(0x20, 0x10)  # vaddr 0x20000 -> same frame
        b = ProgramBuilder()
        b.li(1, 0x10000).li(2, 42).store(2, 1)
        b.li(3, 0x20000).load(4, 3)
        b.halt()
        cpu, _ = run_to_halt(b.build(), machine=tiny_config(),
                             page_table=table)
        assert cpu.arch_reg(4) == 42


class TestMultiProgramImage:
    def test_two_programs_one_image(self):
        a = ProgramBuilder(0x1000)
        a.li(1, 5).jmp(0x2000)
        b = ProgramBuilder(0x2000)
        b.addi(1, 1, 10).halt()
        imem = InstructionMemory(a.build(), b.build())
        cpu = Processor(imem, machine=tiny_config())
        report = cpu.run(max_cycles=100_000)
        assert report.halted
        assert cpu.arch_reg(1) == 15


class TestInitialRegisters:
    def test_initial_registers_respected(self):
        b = ProgramBuilder()
        b.add(3, 1, 2).halt()
        cpu, _ = run_to_halt(b.build(),
                             initial_registers={1: 40, 2: 2})
        assert cpu.arch_reg(3) == 42

    def test_r0_initial_ignored(self):
        b = ProgramBuilder()
        b.add(3, 0, 0).halt()
        cpu, _ = run_to_halt(b.build(), initial_registers={0: 99})
        assert cpu.arch_reg(3) == 0
