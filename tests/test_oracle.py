"""Tests for the in-order functional oracle."""
import pytest

from repro.errors import ExecutionError
from repro.isa import ProgramBuilder, run_oracle


def test_arithmetic_chain():
    b = ProgramBuilder()
    b.li(1, 6).li(2, 7).mul(3, 1, 2).addi(3, 3, -2).halt()
    result = run_oracle(b.build())
    assert result.reg(3) == 40
    assert result.halted


def test_r0_is_hardwired_zero():
    b = ProgramBuilder()
    b.li(0, 99).add(1, 0, 0).halt()
    result = run_oracle(b.build())
    assert result.reg(0) == 0
    assert result.reg(1) == 0


def test_memory_roundtrip():
    b = ProgramBuilder()
    b.li(1, 0x4000).li(2, 1234).store(2, 1, 8).load(3, 1, 8).halt()
    result = run_oracle(b.build())
    assert result.reg(3) == 1234
    assert result.mem(0x4008) == 1234


def test_load_unmapped_memory_is_zero():
    b = ProgramBuilder()
    b.li(1, 0x8000).load(2, 1).halt()
    assert run_oracle(b.build()).reg(2) == 0


def test_load_aligns_address_down():
    b = ProgramBuilder()
    b.data_word(0x4000, 77)
    b.li(1, 0x4003).load(2, 1).halt()
    assert run_oracle(b.build()).reg(2) == 77


def test_conditional_branch_taken_and_not():
    b = ProgramBuilder()
    b.li(1, 1).li(2, 2)
    b.blt(1, 2, "skip")      # taken
    b.li(3, 111)
    b.label("skip")
    b.beq(1, 2, "skip2")     # not taken
    b.li(4, 222)
    b.label("skip2")
    b.halt()
    result = run_oracle(b.build())
    assert result.reg(3) == 0
    assert result.reg(4) == 222


def test_jmp_and_jmpi():
    b = ProgramBuilder()
    b.li_label(1, "there")
    b.jmpi(1)
    b.li(2, 111)      # skipped
    b.label("there")
    b.jmp("end")
    b.li(3, 222)      # skipped
    b.label("end")
    b.halt()
    result = run_oracle(b.build())
    assert result.reg(2) == 0 and result.reg(3) == 0


def test_rdcycle_counts_retired():
    b = ProgramBuilder()
    b.nop().nop().rdcycle(1).halt()
    assert run_oracle(b.build()).reg(1) == 2


def test_loop_with_counter():
    b = ProgramBuilder()
    b.li(1, 10).li(2, 0)
    b.label("loop")
    b.add(2, 2, 1).addi(1, 1, -1).bne(1, 0, "loop")
    b.halt()
    assert run_oracle(b.build()).reg(2) == 55


def test_max_instructions_stops_infinite_loop():
    b = ProgramBuilder()
    b.label("spin").jmp("spin")
    result = run_oracle(b.build(), max_instructions=100)
    assert not result.halted
    assert result.retired == 100


def test_unmapped_control_flow_raises():
    b = ProgramBuilder()
    b.jmp(0x900000)
    with pytest.raises(ExecutionError):
        run_oracle(b.build())


def test_trace_records_loads_and_stores():
    b = ProgramBuilder()
    b.li(1, 0x4000).li(2, 5).store(2, 1).load(3, 1).halt()
    result = run_oracle(b.build(), trace=True)
    assert result.store_trace == [(b.build().address_of(2), 0x4000, 5)]
    assert result.load_trace[0][1:] == (0x4000, 5)


def test_fence_and_clflush_have_no_architectural_effect():
    b = ProgramBuilder()
    b.li(1, 0x4000).fence().clflush(1).li(2, 3).halt()
    result = run_oracle(b.build())
    assert result.reg(2) == 3
