"""The forward-progress watchdog must tell a wedged pipeline from a
merely slow one, and say *why* it wedged."""
import pytest

from repro import Processor, SecurityConfig, tiny_config
from repro.errors import DeadlockError
from repro.isa import ProgramBuilder
from repro.isa.instructions import Instruction, Opcode
from repro.params import RunOptions
from repro.pipeline.dyninst import DynInst, InstState
from repro.robustness import FaultInjector, FaultPlan
from repro.robustness.watchdog import ForwardProgressWatchdog


class _NeverFillingInjector(FaultInjector):
    """Delays every load completion past the horizon: the load issues,
    its fill event lands ~10^9 cycles away, and the ROB head never
    completes — a genuine wedge, not a slow run."""

    def extra_fill_delay(self, cycle, inst):
        self._record(cycle, "fill_delay", inst.seq, inst.pc,
                     "never completes")
        return 1_000_000_000


def _load_program():
    b = ProgramBuilder()
    b.data_word(0x4000, 9)
    b.li(1, 0x4000).load(2, 1).add(3, 2, 2).halt()
    return b.build()


def _counting_program():
    b = ProgramBuilder()
    b.li(1, 0)
    b.label("loop")
    b.addi(1, 1, 1)
    b.jmp("loop")
    return b.build()


class TestDeadlockDetection:
    def test_wedged_pipeline_raises_with_diagnostics(self):
        cpu = Processor(
            _load_program(), machine=tiny_config(),
            security=SecurityConfig.origin(),
            options=RunOptions(
                fault_plan=_NeverFillingInjector(FaultPlan(seed=0))),
            watchdog_cycles=2_000,
        )
        with pytest.raises(DeadlockError) as excinfo:
            cpu.run(max_cycles=100_000)
        diag = excinfo.value.diagnostics
        assert diag is not None
        assert diag.stall_cycles > 2_000
        assert diag.rob_occupancy > 0
        assert diag.head_seq >= 0 and diag.head_pc >= 0
        assert diag.head_state  # the stuck load
        assert "pending" in diag.stall_reason \
            or "never finishing" in diag.stall_reason
        assert diag.snapshots, "occupancy history must be captured"
        assert "occupancy:" in diag.render()
        assert cpu.report.termination == "deadlock"

    def test_healthy_run_never_trips(self):
        cpu = Processor(_load_program(), machine=tiny_config(),
                        security=SecurityConfig.cache_hit_tpbuf(),
                        watchdog_cycles=2_000)
        report = cpu.run()
        assert report.halted and report.termination == "halt"

    def test_watchdog_snapshot_ring_is_bounded(self):
        dog = ForwardProgressWatchdog(limit=100, snapshot_interval=1,
                                      history=4)
        cpu = Processor(_load_program(), machine=tiny_config(),
                        security=SecurityConfig.origin())
        for _ in range(10):
            dog.snapshot(cpu)
        assert len(dog.snapshots) == 4


class TestBlockedHead:
    """A filter-blocked head load is blamed on the defense's suspect
    predicate, under a matrix defense and a branch-keyed one alike."""

    @staticmethod
    def _blocked_head(mode):
        cpu = Processor(_load_program(), machine=tiny_config(),
                        security=SecurityConfig(mode))
        branch = DynInst(1, 0x1000, Instruction(Opcode.BNE, rs1=1, rs2=2))
        load = DynInst(2, 0x1004, Instruction(Opcode.LOAD, rd=1, rs1=2))
        cpu.iq.insert(branch, cpu.rename.ready)
        cpu.iq.insert(load, cpu.rename.ready)
        load.state = InstState.BLOCKED
        cpu.rob.append(load)
        return cpu

    def test_delay_on_miss_has_no_row(self):
        for mode in ("cache_hit", "delay_on_miss"):
            dog = ForwardProgressWatchdog(limit=100)
            diag = dog.diagnose(self._blocked_head(mode))
            assert diag.head_state == "BLOCKED", mode
            assert diag.stall_reason == (
                "filter-blocked load: the defense still finds it "
                "suspect"), mode
            assert "security dependence" not in diag.render(), mode


class TestCycleBudget:
    def test_budget_returns_report_by_default(self):
        cpu = Processor(_counting_program(), machine=tiny_config(),
                        security=SecurityConfig.origin())
        report = cpu.run(max_cycles=3_000)
        assert not report.halted
        assert report.termination == "cycle_budget"



class TestCooperativeCancellation:
    """The ``repro serve`` cancel path: a hook polled at the wall-clock
    cadence ends the run with ``termination="cancelled"``."""

    def _cancelling_cpu(self, fire_after_polls=1):
        polls = []

        def cancel_check():
            polls.append(None)
            return len(polls) >= fire_after_polls

        cpu = Processor(_counting_program(), machine=tiny_config(),
                        security=SecurityConfig.origin(),
                        options=RunOptions(cancel_check=cancel_check))
        return cpu, polls

    def test_cancel_terminates_with_partial_report(self):
        cpu, polls = self._cancelling_cpu()
        report = cpu.run(max_cycles=50_000_000)
        assert not report.halted
        assert report.termination == "cancelled"
        assert report.committed > 0  # made progress before the cancel
        assert polls  # the hook really was polled

    def test_uncancelled_run_is_unaffected(self):
        from repro.params import RunOptions

        b = ProgramBuilder()
        b.li(1, 7).addi(1, 1, 1).halt()
        cpu = Processor(b.build(), machine=tiny_config(),
                        security=SecurityConfig.origin(),
                        options=RunOptions(cancel_check=lambda: False))
        report = cpu.run(max_cycles=200_000)
        assert report.halted
        assert report.termination == "halt"
