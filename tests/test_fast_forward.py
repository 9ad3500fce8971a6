"""Fast-forwarding quiet cycles must be invisible.

``Processor.run`` jumps over stretches of quiet cycles (see the
``repro.pipeline.processor`` module docstring).  Every test here runs
the same processor twice — once through ``run()``, once through a plain
``while not cpu.halted: cpu.step()`` loop — and requires the same
report (``SimReport.to_dict()``, raw counters included), registers,
memory image and ``PipelineTracer`` records, the same budget and cancel
cycles and the same deadlock diagnostics.
"""
import pytest

from repro import Processor, SecurityConfig, paper_config, tiny_config
from repro.analysis.corpus import GADGET_KINDS, build_corpus_variant
from repro.attacks import build_spectre_v1
from repro.core.defense import PAPER_DEFENSES, defense_names
from repro.errors import DeadlockError
from repro.isa import ProgramBuilder
from repro.memory.replacement import SpeculativeLRUPolicy
from repro.params import RunOptions, with_core
from repro.pipeline.trace import PipelineTracer
from repro.robustness import FaultPlan
from repro.robustness.watchdog import ForwardProgressWatchdog
from repro.workloads import spec_program

SPEC_SCALE = 0.1


def _build(program, machine, defense, page_table=None, options=None,
           **ablations):
    """A traced processor counting its ``step`` calls and the cycles
    the watchdog observes (one per cycle actually simulated)."""
    tracer = PipelineTracer(limit=1_000_000)
    cpu = Processor(program, machine=machine,
                    security=SecurityConfig(defense, **ablations),
                    tracer=tracer, page_table=page_table, options=options)
    real_step = cpu.step
    real_observe = cpu.watchdog.observe
    cpu.steps = cpu.observed = 0

    def counted_step():
        cpu.steps += 1
        real_step()

    def counted_observe(observed_cpu):
        cpu.observed += 1
        real_observe(observed_cpu)
    cpu.step = counted_step
    cpu.watchdog.observe = counted_observe
    return cpu


def _outcome(cpu):
    """Everything a run leaves behind."""
    return (cpu.finalize_report().to_dict(),
            [cpu.arch_reg(index)
             for index in range(cpu.machine.core.num_arch_regs)],
            dict(cpu.memory_image),
            cpu.tracer.records)


def _step_until(cpu, max_cycles):
    while not cpu.halted and cpu.cycle < max_cycles:
        cpu.step()


def _assert_same_run(make, max_cycles=10_000_000):
    """Run ``make()`` both ways; returns the fast-forwarded processor."""
    fast = make()
    fast.run(max_cycles=max_cycles)
    stepped = make()
    _step_until(stepped, max_cycles)
    assert fast.cycle == stepped.cycle
    assert stepped.steps == stepped.cycle
    # run() simulates a cycle only through self.step().
    assert fast.observed == fast.steps > 0
    assert _outcome(fast) == _outcome(stepped)
    return fast


def _cold_branch_target():
    """A long-unresolved branch whose taken target is on a cold line:
    the I-cache filter holds its fetch."""
    b = ProgramBuilder()
    b.data_word(0x4000, 0)
    b.li(1, 0x4000).clflush(1).fence()
    b.load(2, 1)
    b.beq(2, 0, "far")
    for _ in range(65):
        b.nop()
    b.label("far")
    b.halt()
    return b.build()


def _store_data_wait_program(iterations=20):
    """A store whose address is ready at once but whose data is a
    flushed load: the younger load of the same word waits in the replay
    queue to forward it."""
    b = ProgramBuilder()
    b.data_word(0x4000, 0x5000)
    b.li(1, 0x4000).li(4, 0x5000).li(5, iterations)
    b.label("loop")
    b.clflush(1).fence()
    b.load(2, 1)
    b.store(2, 4)
    b.load(6, 4)
    b.addi(5, 5, -1)
    b.bne(5, 0, "loop")
    b.halt()
    return b.build()


def _stall_program():
    """Cold loads in a loop: long quiet stretches on the tiny machine."""
    b = ProgramBuilder()
    b.li(1, 0).li(2, 0x40000).li(3, 300)
    b.label("loop")
    b.load(4, 2).add(5, 5, 4).addi(2, 2, 4096).addi(1, 1, 1)
    b.blt(1, 3, "loop")
    b.halt()
    return b.build()


class TestSameResultAsStepping:
    @pytest.mark.parametrize("kind", GADGET_KINDS)
    def test_corpus_gadgets(self, kind):
        program = build_corpus_variant(kind, "unsafe")
        for defense in defense_names():
            _assert_same_run(
                lambda: _build(program, paper_config(), defense))

    @pytest.mark.parametrize("name", ("bzip2", "mcf"))
    def test_spec_profiles(self, name):
        program = spec_program(name, scale=SPEC_SCALE)
        skipped = 0
        for defense in defense_names():
            fast = _assert_same_run(
                lambda: _build(program, paper_config(), defense))
            skipped += fast.cycle - fast.steps
        assert skipped > 0, "no quiet stretch was skipped"

    @pytest.mark.parametrize("core", (
        {},
        # A two-entry store queue and a one-entry store buffer: dispatch
        # also stalls on full store queues while the load waits.
        {"stq_entries": 2, "store_buffer_entries": 1}))
    def test_loads_waiting_on_older_stores(self, core):
        machine = with_core(tiny_config(), **core)
        program = _store_data_wait_program()
        for defense in defense_names():
            fast = _assert_same_run(
                lambda: _build(program, machine, defense))
            assert fast.report.raw["processor"]["load_wait_store_data"]
            assert fast.steps < fast.cycle

    @pytest.mark.parametrize("ablation", (
        {"branch_only_matrix": True},
        {"lru_policy": SpeculativeLRUPolicy.DELAYED},
        {"icache_filter": True}))
    def test_security_ablations(self, ablation):
        programs = (spec_program("mcf", scale=0.05), _cold_branch_target())
        for program in programs:
            for defense in PAPER_DEFENSES:
                _assert_same_run(lambda: _build(
                    program, paper_config(), defense, **ablation))

    def test_v1_attack(self):
        # The probe timings the attack decodes live in the memory image.
        machine = paper_config()
        for defense in defense_names():
            def make():
                attack = build_spectre_v1(machine=machine)
                return _build(attack.program, machine, defense,
                              page_table=attack.page_table)
            _assert_same_run(make)


class TestBudgetsAndPolls:
    def test_cycle_budget_stops_on_the_same_cycle(self):
        program = spec_program("mcf", scale=SPEC_SCALE)
        for budget in (777, 1234, 2049):
            fast = _assert_same_run(
                lambda: _build(program, paper_config(), "cache_hit"),
                max_cycles=budget)
            assert fast.cycle == budget
            assert fast.report.termination == "cycle_budget"
            assert fast.steps < budget

    @pytest.mark.parametrize("fire_at_poll", (None, 2))
    def test_cancel_check_polled_on_the_same_cycles(self, fire_at_poll):
        polled = {}

        def make(key):
            polled[key] = []
            cpu = None

            def cancel_check():
                polled[key].append(cpu.cycle)
                return len(polled[key]) == fire_at_poll
            cpu = _build(_stall_program(), tiny_config(), "origin",
                         options=RunOptions(cancel_check=cancel_check))
            return cpu

        fast = make("fast")
        fast.run()
        stepped = make("stepped")
        while not stepped.halted:
            stepped.step()
            if stepped.cycle % 4096 == 0 and stepped.options.cancel_check():
                stepped.report.termination = "cancelled"
                break
        assert polled["fast"] == polled["stepped"]
        assert polled["fast"] == [4096 * (index + 1)
                                  for index in range(len(polled["fast"]))]
        assert len(polled["fast"]) >= (fire_at_poll or 2)
        assert _outcome(fast) == _outcome(stepped)
        assert fast.steps < fast.cycle

    def test_deadlock_raised_on_the_same_cycle(self):
        b = ProgramBuilder()
        b.data_word(0x4000, 9)
        b.li(1, 0x4000).load(2, 1).add(3, 2, 2).halt()
        program = b.build()

        def make():
            cpu = _build(program, tiny_config(), "origin")
            cpu.watchdog = ForwardProgressWatchdog(limit=60,
                                                   snapshot_interval=25)
            return cpu

        fast = make()
        with pytest.raises(DeadlockError) as fast_error:
            fast.run()
        stepped = make()
        with pytest.raises(DeadlockError) as stepped_error:
            _step_until(stepped, 10_000)
        fast_diag = fast_error.value.diagnostics
        assert fast_diag == stepped_error.value.diagnostics
        assert fast_diag.cycle == 61
        assert [snap.cycle for snap in fast_diag.snapshots] == [25, 50]
        assert str(fast_error.value) == str(stepped_error.value)
        assert _outcome(fast) == _outcome(stepped)
        assert fast.steps < stepped.steps


class TestWhenItSteps:
    def test_fault_plan_steps_every_cycle(self):
        program = spec_program("mcf", scale=0.05)
        fast = _assert_same_run(lambda: _build(
            program, paper_config(), "cache_hit",
            options=RunOptions(fault_plan=FaultPlan.moderate(seed=3))))
        assert fast.steps == fast.cycle
        assert fast.report.injected_faults

    def test_quiet_verdict_of_a_waiting_cycle(self):
        cpu = Processor(_stall_program(), machine=tiny_config())
        verdicts = []
        while not cpu.halted:
            cpu.step()
            verdicts.append(cpu.quiet)
        assert not verdicts[0] and any(verdicts)
        assert sum(verdicts) > len(verdicts) // 2

    @pytest.mark.parametrize("defense", defense_names())
    def test_a_quiet_step_changes_no_state(self, defense):
        programs = ((spec_program("mcf", scale=0.05), paper_config()),
                    (_store_data_wait_program(), tiny_config()))
        quiet = 0
        for program, machine in programs:
            cpu = Processor(program, machine=machine,
                            security=SecurityConfig(defense))
            while not cpu.halted:
                before = _machine_state(cpu)
                cpu.step()
                if cpu.quiet:
                    quiet += 1
                    assert _machine_state(cpu) == before, cpu.cycle
        assert quiet > 0


def _machine_state(cpu):
    """What a quiet step may not change: everything but the waiting
    counters and the cycle number."""
    groups = (cpu.hierarchy.stats, cpu.hierarchy.l1d.stats,
              cpu.hierarchy.l1i.stats, cpu.itlb.stats, cpu.dtlb.stats,
              cpu.predictor.stats, cpu.defense.stats, cpu.iq.matrix.stats,
              cpu.store_buffer.stats)
    return (cpu.fetch_pc, len(cpu._fetch_buffer), cpu._fetch_stall_until,
            cpu._commit_stall_until, cpu._seq, cpu._pending_squash,
            cpu.events.pending, cpu.events.next_deadline(),
            len(cpu.store_buffer), cpu.store_buffer.next_deadline(),
            cpu.iq.occupancy(),
            [inst.seq for inst in cpu.iq.ready if not inst.squashed],
            [(inst.seq, cpu.iq.matrix.row(inst)) for inst in cpu.iq],
            [inst.seq for inst in cpu.lsq.loads()],
            [inst.seq for inst in cpu.lsq.stores()],
            [(inst.seq, inst.state) for inst in cpu.rob],
            [load.seq for load in cpu._load_replay if not load.squashed],
            [store.seq for store in cpu._stores_waiting_data
             if not store.squashed],
            [group.as_dict() for group in groups])
