"""Fault injection: every perturbation must be architecturally
neutral (the oracle stays ground truth), deterministic under a seed,
and fully logged."""
import pytest

from repro import PAPER_DEFENSES, Processor, SecurityConfig, tiny_config
from repro.isa import ProgramBuilder, run_oracle
from repro.params import RunOptions
from repro.robustness import (
    FAULT_KINDS,
    FaultInjector,
    FaultPlan,
    gadget_cases,
    run_campaign,
    run_fault_case,
    spec_cases,
)


def _branchy_program():
    """A loop with stores, loads and data-dependent branches — enough
    surface for every fault kind to fire."""
    b = ProgramBuilder()
    b.li(1, 0x4000)      # base
    b.li(2, 0)           # i
    b.li(3, 24)          # n
    b.li(6, 0)           # acc
    b.label("loop")
    b.shli(4, 2, 3)
    b.add(4, 4, 1)
    b.store(2, 4)
    b.load(5, 4)
    b.add(6, 6, 5)
    b.addi(2, 2, 1)
    b.blt(2, 3, "loop")
    b.halt()
    return b.build()


def _run(plan, mode_config, program):
    cpu = Processor(program, machine=tiny_config(),
                    security=mode_config,
                    options=RunOptions(fault_plan=plan),
                    check_invariants=True)
    report = cpu.run(max_cycles=500_000)
    return cpu, report


class TestOracleNeutrality:
    @pytest.mark.parametrize("mode", PAPER_DEFENSES)
    def test_architectural_state_matches_oracle(self, mode):
        program = _branchy_program()
        oracle = run_oracle(program)
        plan = FaultPlan.aggressive(seed=3)
        cpu, report = _run(plan, SecurityConfig(mode), program)
        assert report.halted
        for reg in range(1, 8):
            assert cpu.arch_reg(reg) == oracle.reg(reg), f"r{reg}"
        for vaddr in oracle.memory:
            assert cpu.read_vword(vaddr) == oracle.mem(vaddr)
        assert report.committed == oracle.retired

    def test_report_carries_injected_counts(self):
        program = _branchy_program()
        _cpu, report = _run(FaultPlan.aggressive(seed=1),
                            SecurityConfig.cache_hit_tpbuf(), program)
        assert report.injected_faults
        assert sum(report.injected_faults.values()) > 0

    def test_unarmed_plan_injects_nothing(self):
        program = _branchy_program()
        cpu, report = _run(FaultPlan(seed=5),
                           SecurityConfig.cache_hit_tpbuf(), program)
        assert cpu.faults.total_injected == 0
        assert report.injected_faults == {}


class TestDeterminism:
    def test_same_seed_same_run(self):
        program = _branchy_program()
        plan = FaultPlan.aggressive(seed=11)
        cpu_a, rep_a = _run(plan, SecurityConfig.cache_hit_tpbuf(),
                            program)
        cpu_b, rep_b = _run(plan, SecurityConfig.cache_hit_tpbuf(),
                            program)
        assert rep_a.cycles == rep_b.cycles
        assert cpu_a.faults.summary() == cpu_b.faults.summary()
        assert [(e.cycle, e.kind, e.seq) for e in cpu_a.faults.events] \
            == [(e.cycle, e.kind, e.seq) for e in cpu_b.faults.events]

    def test_different_seeds_decorrelate(self):
        program = _branchy_program()
        logs = []
        for seed in (0, 1):
            cpu, _ = _run(FaultPlan.aggressive(seed=seed),
                          SecurityConfig.cache_hit_tpbuf(), program)
            logs.append([(e.cycle, e.kind) for e in cpu.faults.events])
        assert logs[0] != logs[1]

    def test_derive_is_deterministic_and_keyed(self):
        plan = FaultPlan.moderate(seed=42)
        assert plan.derive("a").seed == plan.derive("a").seed
        assert plan.derive("a").seed != plan.derive("b").seed


class TestCoverage:
    def test_every_kind_fires(self):
        """Across a few aggressive seeds, each fault kind must fire at
        least once — otherwise a hook is dead."""
        program = _branchy_program()
        fired = set()
        for seed in range(6):
            cpu, _ = _run(FaultPlan.aggressive(seed=seed),
                          SecurityConfig.cache_hit_tpbuf(), program)
            fired.update(cpu.faults.summary())
        assert fired == set(FAULT_KINDS)

    def test_events_are_logged_with_locations(self):
        program = _branchy_program()
        cpu, _ = _run(FaultPlan.aggressive(seed=2),
                      SecurityConfig.cache_hit_tpbuf(), program)
        assert cpu.faults.events
        per_inst = [e for e in cpu.faults.events
                    if e.kind not in ("filter_disable",)]
        assert all(e.seq >= 0 and e.pc >= 0 for e in per_inst)
        assert "injected events" in cpu.faults.render_log()

    def test_injector_reuse_is_rejected_by_summary_semantics(self):
        injector = FaultInjector(FaultPlan.moderate(seed=0))
        assert injector.total_injected == 0
        assert injector.summary() == {}


class TestCampaign:
    def test_reduced_campaign_is_clean(self):
        cases = gadget_cases(fenced_too=False)[:3] \
            + spec_cases(["hmmer"], scale=0.05)
        result = run_campaign(cases, seeds=[0, 1],
                              plan=FaultPlan.moderate())
        assert result.ok, result.render()
        assert result.total_injected > 0
        assert len(result.results) == 2 * len(cases)

    def test_campaign_reports_seed_and_case(self):
        cases = spec_cases(["hmmer"], scale=0.05)
        result = run_campaign(cases, seeds=[7],
                              plan=FaultPlan.moderate())
        outcome = result.results[0]
        assert outcome.seed == 7
        assert outcome.name == "spec:hmmer"
        assert "spec:hmmer" in result.render()

    def test_run_fault_case_flags_divergence(self):
        """A case whose program never halts must be reported as a
        failure, not an exception."""
        b = ProgramBuilder()
        b.li(1, 1)
        b.label("loop")
        b.addi(1, 1, 1)
        b.jmp("loop")
        case_cls = type(spec_cases(["hmmer"])[0])
        case = case_cls(name="nohalt", program=b.build(),
                        max_cycles=5_000, max_instructions=5_000)
        outcome = run_fault_case(case, FaultPlan.moderate(seed=0))
        assert not outcome.ok
        assert outcome.mismatches
