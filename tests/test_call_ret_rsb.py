"""Tests for the CALL/RET extension: ISA semantics, the return-address
stack, and the Spectre-RSB attack."""
import pytest

from conftest import run_to_halt
from repro import Processor, SecurityConfig
from repro.attacks import build_spectre_rsb, run_attack
from repro.frontend.branch_predictor import BranchPredictor
from repro.isa import Opcode, ProgramBuilder, assemble, run_oracle
from repro.isa.instructions import Instruction


class TestISA:
    def test_call_classification(self):
        call = Instruction(Opcode.CALL, rd=31, target=0x2000)
        assert call.is_branch and call.is_call
        assert call.dest == 31 and call.sources == ()

    def test_ret_classification(self):
        ret = Instruction(Opcode.RET, rs1=31)
        assert ret.is_branch and ret.is_return and ret.is_indirect
        assert ret.dest is None and ret.sources == (31,)

    def test_oracle_call_ret(self):
        b = ProgramBuilder()
        b.li(1, 4).call("fn").addi(2, 2, 1).halt()
        b.label("fn").mul(2, 1, 1).ret()
        program = b.build()
        result = run_oracle(program)
        assert result.reg(2) == 17
        # r31 holds the instruction after the call (index 2).
        assert result.reg(31) == program.address_of(2)

    def test_assembler_call_ret(self):
        program = assemble("""
            call fn
            halt
        fn:
            ret
        """)
        assert program.instructions[0].op is Opcode.CALL
        assert program.instructions[2].op is Opcode.RET


class TestRAS:
    def test_push_pop_lifo(self):
        predictor = BranchPredictor(6, 64, ras_entries=4)
        predictor.ras_push(0x100)
        predictor.ras_push(0x200)
        assert predictor.ras_pop() == 0x200
        assert predictor.ras_pop() == 0x100
        assert predictor.ras_pop() is None

    def test_overflow_drops_oldest(self):
        predictor = BranchPredictor(6, 64, ras_entries=2)
        for addr in (0x100, 0x200, 0x300):
            predictor.ras_push(addr)
        assert predictor.ras_depth() == 2
        assert predictor.ras_pop() == 0x300
        assert predictor.ras_pop() == 0x200

    def test_call_prediction_pushes(self):
        predictor = BranchPredictor(6, 64)
        call = Instruction(Opcode.CALL, rd=31, target=0x2000)
        prediction = predictor.predict(0x1000, call)
        assert prediction.taken and prediction.target == 0x2000
        assert predictor.ras_depth() == 1

    def test_ret_prediction_pops(self):
        predictor = BranchPredictor(6, 64)
        call = Instruction(Opcode.CALL, rd=31, target=0x2000)
        ret = Instruction(Opcode.RET, rs1=31)
        predictor.predict(0x1000, call)
        prediction = predictor.predict(0x2000, ret)
        assert prediction.taken and prediction.target == 0x1004
        assert predictor.ras_depth() == 0

    def test_cold_ret_predicts_fallthrough(self):
        predictor = BranchPredictor(6, 64)
        ret = Instruction(Opcode.RET, rs1=31)
        assert not predictor.predict(0x2000, ret).taken


class TestProcessorCallRet:
    def test_nested_calls(self):
        b = ProgramBuilder()
        b.li(1, 2)
        b.call("outer")
        b.halt()
        b.label("outer")
        b.mov(20, 31)              # save link
        b.call("inner")
        b.mov(31, 20)
        b.addi(1, 1, 100)
        b.ret()
        b.label("inner")
        b.mul(1, 1, 1)
        b.ret()
        program = b.build()
        oracle = run_oracle(program)
        cpu, _ = run_to_halt(program)
        assert cpu.arch_reg(1) == oracle.reg(1) == 104

    def test_call_in_loop(self):
        b = ProgramBuilder()
        b.li(1, 5).li(2, 0)
        b.label("loop")
        b.call("bump")
        b.addi(1, 1, -1)
        b.bne(1, 0, "loop")
        b.halt()
        b.label("bump")
        b.addi(2, 2, 3)
        b.ret()
        cpu, report = run_to_halt(b.build())
        assert cpu.arch_reg(2) == 15

    def test_modified_return_target_is_honored(self):
        """Architecturally, RET follows r31 even if prediction says
        otherwise - the squash fixes it up."""
        b = ProgramBuilder()
        b.call("fn")
        b.li(2, 111)               # stale return site (skipped!)
        b.halt()
        b.label("fn")
        b.li_label(31, "real_exit")
        b.ret()
        b.label("real_exit")
        b.li(3, 222)
        b.halt()
        cpu, _ = run_to_halt(b.build())
        assert cpu.arch_reg(2) == 0
        assert cpu.arch_reg(3) == 222


class TestSpectreRSB:
    def test_leaks_on_origin(self):
        result = run_attack(build_spectre_rsb(),
                            security=SecurityConfig.origin())
        assert result.success

    @pytest.mark.parametrize("security", [
        SecurityConfig.baseline(), SecurityConfig.cache_hit(),
        SecurityConfig.cache_hit_tpbuf(),
    ], ids=lambda s: s.mode)
    def test_defeated_by_all_mechanisms(self, security):
        result = run_attack(build_spectre_rsb(), security=security)
        assert not result.success

    def test_gadget_never_commits(self):
        """The return-site gadget executes only speculatively."""
        attack = build_spectre_rsb()
        cpu = Processor(attack.program, security=SecurityConfig.origin(),
                        page_table=attack.page_table)
        cpu.run(max_cycles=500_000)
        # r13 would hold the secret if the gadget committed.
        assert cpu.arch_reg(13) != attack.layout.secret_value
