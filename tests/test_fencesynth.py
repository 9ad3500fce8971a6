"""Tests for fence insertion/rewriting and minimal fence synthesis."""
import dataclasses

import pytest

from repro.analysis import (
    analyze_program,
    fence_all,
    oracle_equivalent,
    synthesize_fences,
    uses_rdcycle,
)
from repro.analysis.corpus import (
    GADGET_KINDS,
    build_corpus_variant,
    corpus_secret_words,
)
from repro.attacks import (
    build_spectre_rsb,
    build_spectre_v1,
    build_spectre_v2,
    build_spectre_v4,
)
from repro.attacks.harness import run_attack
from repro.core.policy import SecurityConfig
from repro.isa import ProgramBuilder
from repro.isa.instructions import Opcode
from repro.isa.oracle import run_oracle
from repro.isa.program import insert_fences


class TestInsertFences:
    def _program(self):
        b = ProgramBuilder()
        b.li(1, 0x6000)
        b.label("loop")
        b.load(2, 1)
        b.addi(1, 1, 8)
        b.bne(2, 0, "loop")
        b.halt()
        b.data_word(0x6000, 1)
        b.data_word(0x6008, 0)
        return b.build()

    def test_no_fences_is_identity(self):
        program = self._program()
        rewrite = insert_fences(program, [])
        assert rewrite.inserted == 0
        assert rewrite.program.instructions == program.instructions
        assert rewrite.program.labels == program.labels

    def test_fence_shifts_and_remaps_branch_target(self):
        program = self._program()
        load_pc = program.labels["loop"]
        rewrite = insert_fences(program, [load_pc])
        fenced = rewrite.program
        assert rewrite.inserted == 1
        assert len(fenced) == len(program) + 1
        # the fence sits where the load used to be ...
        assert fenced.instruction_at(load_pc).op is Opcode.FENCE
        # ... and the back-edge targeting the fenced load now lands ON
        # the protecting fence, not past it
        assert rewrite.remap_address(load_pc) == load_pc
        assert fenced.labels["loop"] == load_pc
        branch = next(i for i in fenced.instructions
                      if i.op is Opcode.BNE)
        assert branch.target == load_pc

    def test_label_valued_li_remapped_plain_constant_not(self):
        b = ProgramBuilder()
        b.li_label(1, "target")     # label value: must be remapped
        b.li(2, 0x1008)             # collides with a code address but
        b.jmpi(1)                   # is NOT a label: left untouched
        b.label("target")
        b.load(3, 2)
        b.halt()
        program = b.build()
        target = program.labels["target"]
        rewrite = insert_fences(program, [program.address_of(0)])
        fenced = rewrite.program
        li_label = fenced.instructions[1]  # after the new fence
        assert li_label.imm == rewrite.remap_address(target) \
            == fenced.labels["target"]
        li_const = fenced.instructions[2]
        assert li_const.imm == 0x1008

    def test_initial_memory_label_words_remapped(self):
        b = ProgramBuilder()
        b.li(1, 0x6000)
        b.load(2, 1)
        b.jmpi(2)
        b.label("handler")
        b.halt()
        # a stored function pointer: the word holds the handler label
        b.data_word(0x6000, 0x100C)
        program = b.build()
        handler = program.labels["handler"]
        assert handler == 0x100C  # layout sanity for the stored pointer
        rewrite = insert_fences(program, [handler])
        fenced = rewrite.program
        # the stored function pointer follows the label through the
        # rewrite and lands on the protecting fence
        assert fenced.initial_memory[0x6000] == rewrite.remap_address(handler)
        assert fenced.instruction_at(
            fenced.initial_memory[0x6000]).op is Opcode.FENCE

    def test_end_address_remaps(self):
        program = self._program()
        rewrite = insert_fences(program, [program.labels["loop"]])
        assert rewrite.remap_address(program.end_address) == \
            rewrite.program.end_address

    def test_unmapped_pc_rejected(self):
        from repro.errors import SimulationError
        with pytest.raises(SimulationError):
            insert_fences(self._program(), [0xDEAD])

    def test_fenced_program_architecturally_equivalent(self):
        program = self._program()
        rewrite = insert_fences(program, [program.labels["loop"]])
        assert oracle_equivalent(program, rewrite)

    def test_fence_all_covers_every_memory_instruction(self):
        program = self._program()
        rewrite = fence_all(program)
        memory_ops = sum(1 for i in program.instructions if i.is_memory)
        assert rewrite.inserted == memory_ops
        assert oracle_equivalent(program, rewrite)


class TestSynthesis:
    @pytest.mark.parametrize("kind", GADGET_KINDS)
    def test_unsafe_gadgets_get_minimal_clean_placement(self, kind):
        program = build_corpus_variant(kind, "unsafe")
        synthesis = synthesize_fences(
            program, secret_words=corpus_secret_words(), name=kind)
        blanket = fence_all(program)
        assert synthesis.clean
        assert synthesis.fence_count >= 1
        # the acceptance bar: strictly fewer fences than fence-all
        assert synthesis.fence_count < blanket.inserted
        # the rewritten image re-analyzes clean from scratch
        rescan = analyze_program(synthesis.program, name=f"{kind}-fenced")
        from repro.analysis import refine_report
        refined = refine_report(synthesis.program, rescan,
                                secret_words=corpus_secret_words())
        assert not refined.confirmed
        assert oracle_equivalent(program, synthesis.rewrite)

    @pytest.mark.parametrize("kind", GADGET_KINDS)
    def test_masked_gadgets_need_zero_fences(self, kind):
        program = build_corpus_variant(kind, "masked")
        synthesis = synthesize_fences(
            program, secret_words=corpus_secret_words(), name=kind)
        assert synthesis.clean
        assert synthesis.fence_count == 0
        assert synthesis.iterations == 1

    def test_refinement_off_fences_masked_chains_too(self):
        # without the precision layer the masked S-Pattern is repaired
        # like a real gadget -- refinement is what saves those fences
        program = build_corpus_variant("v1", "masked")
        with_refine = synthesize_fences(
            program, secret_words=corpus_secret_words(), refine=False)
        assert with_refine.clean
        assert with_refine.fence_count >= 1

    @pytest.mark.parametrize("build", [
        build_spectre_v1, build_spectre_v2, build_spectre_v4,
        build_spectre_rsb,
    ], ids=["v1", "v2", "v4", "rsb"])
    def test_fenced_attack_leaks_nothing(self, build):
        # third verification leg: the synthesized placement stops each
        # end-to-end Spectre attack on the unprotected core.  Attacks
        # read RDCYCLE, so the oracle leg is out of scope and this
        # zero-leak run is their equivalence check.
        attack = build()
        assert uses_rdcycle(attack.program)
        synthesis = synthesize_fences(
            attack.program, secret_words=corpus_secret_words(),
            name=attack.name)
        assert synthesis.clean and synthesis.fence_count >= 1
        baseline = run_attack(attack, security=SecurityConfig.origin())
        assert baseline.success, "unfenced attack must work as baseline"
        fenced = dataclasses.replace(build(), program=synthesis.program)
        result = run_attack(fenced, security=SecurityConfig.origin())
        assert not result.success, "fenced attack must recover nothing"

    def test_attack_program_skips_oracle_leg(self):
        attack = build_spectre_v1()
        assert uses_rdcycle(attack.program)

    def test_oracle_runs_agree_on_retired_work(self):
        program = build_corpus_variant("v1", "unsafe")
        synthesis = synthesize_fences(
            program, secret_words=corpus_secret_words())
        before = run_oracle(program)
        after = run_oracle(synthesis.program)
        assert before.halted and after.halted
        # fences retire too: exactly fence_count extra instructions
        assert after.retired == before.retired + synthesis.fence_count

    def test_render_and_to_dict(self):
        program = build_corpus_variant("v1", "unsafe")
        synthesis = synthesize_fences(
            program, secret_words=corpus_secret_words(), name="v1")
        text = synthesis.render()
        assert "fence synthesis" in text and "clean" in text
        doc = synthesis.to_dict()
        assert doc["clean"] is True
        assert doc["fence_count"] == len(doc["fence_pcs"])
