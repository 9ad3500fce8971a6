"""The static memory-dependence analysis (repro.analysis.memdep):
store→load classification, interprocedural reachability, loop-summary
caps, determinism, the store-set memo, and the fence-synthesis
consumer."""
from repro.analysis import (
    analyze_program,
    compute_memdep_summary,
    static_store_sets,
    synthesize_fences,
)
from repro.analysis.corpus import build_corpus_variant
from repro.analysis.memdep import (
    finding_memdep_block,
    v4_finding_may_bypass,
)
from repro.analysis.report import GadgetKind
from repro.analysis.summaries import program_summary_key
from repro.isa import ProgramBuilder
from repro.isa.instructions import Opcode


def _pcs(program, op):
    return [addr for addr, instr in program.iter_addressed()
            if instr.op is op]


def _aliasing_program():
    """Store and load hit the same provably-constant word."""
    b = ProgramBuilder()
    b.data_word(0x4000, 0)
    b.li(1, 0x4000)
    b.li(2, 7)
    b.store(2, 1)
    b.load(3, 1)
    b.halt()
    return b.build()


def _disjoint_program():
    """Store and load hit provably different constant words."""
    b = ProgramBuilder()
    b.data_word(0x4000, 0)
    b.data_word(0x5000, 0)
    b.li(1, 0x4000)
    b.li(2, 0x5000)
    b.li(3, 7)
    b.store(3, 1)
    b.load(4, 2)
    b.halt()
    return b.build()


def _unknown_store_program():
    """The store's address comes from memory: the conservative TOP
    fallback must flag every subsequent load as may-bypass."""
    b = ProgramBuilder()
    b.data_word(0x4000, 0x6000)
    b.data_word(0x5000, 0)
    b.li(1, 0x4000)
    b.load(2, 1)          # r2 = unknown (loaded) address
    b.li(3, 1)
    b.store(3, 2)         # store to TOP
    b.li(4, 0x5000)
    b.load(5, 4)          # constant load, still may-bypass vs TOP
    b.halt()
    return b.build()


def _loop_program():
    """A strided store loop: the in-loop load of the cursor stays
    may-bypass, the far post-loop load is refuted by the induction
    caps of the loop summaries."""
    b = ProgramBuilder()
    b.data_word(0x8000, 0)
    b.li(1, 0x4000)       # base (loop-invariant)
    b.li(2, 0)            # i — capped by the loop summary
    b.li(3, 4)            # bound
    b.li(7, 0x8000)       # far word, outside the strided range
    b.label("loop")
    b.shli(4, 2, 3)       # offset = i * 8
    b.add(4, 4, 1)        # addr = base + offset
    b.store(2, 4)         # [addr] = i (loop-carried strided store)
    b.load(5, 4)          # in-loop read-back of the strided word
    b.addi(2, 2, 1)
    b.blt(2, 3, "loop")
    b.load(6, 7)          # post-loop far load
    b.halt()
    return b.build()


def _call_program():
    """Store, CALL into a loading callee, load after the return; an
    uncalled function's load must stay unreached."""
    b = ProgramBuilder()
    b.data_word(0x4000, 0)
    b.li(1, 0x4000)
    b.li(2, 1)
    b.store(2, 1)
    b.call("callee")
    b.load(4, 1)          # load B: reached through callee's RET
    b.halt()
    b.label("orphan")     # never called: its load is unreachable
    b.load(6, 1)
    b.ret()
    b.label("callee")
    b.load(3, 1)          # load A: reached through the CALL edge
    b.ret()
    return b.build()


class TestClassification:
    def test_constant_alias_is_must_alias(self):
        program = _aliasing_program()
        summary = compute_memdep_summary(program)
        [store_pc] = _pcs(program, Opcode.STORE)
        [load_pc] = _pcs(program, Opcode.LOAD)
        entry = summary.entry_for(load_pc)
        assert entry is not None
        assert store_pc in entry.may_bypass
        assert store_pc in entry.must_alias
        assert not entry.disjoint

    def test_disjoint_constants_carry_a_proof(self):
        program = _disjoint_program()
        summary = compute_memdep_summary(program)
        [store_pc] = _pcs(program, Opcode.STORE)
        [load_pc] = _pcs(program, Opcode.LOAD)
        entry = summary.entry_for(load_pc)
        assert entry is not None
        assert store_pc not in entry.may_bypass
        assert store_pc not in entry.must_alias
        [proof] = entry.disjoint
        assert proof.store_pc == store_pc
        assert proof.load_pc == load_pc
        assert "disjoint" in proof.reason

    def test_unknown_store_address_is_conservative(self):
        program = _unknown_store_program()
        summary = compute_memdep_summary(program)
        [store_pc] = _pcs(program, Opcode.STORE)
        final_load = _pcs(program, Opcode.LOAD)[-1]
        entry = summary.entry_for(final_load)
        assert entry is not None
        assert store_pc in entry.may_bypass
        assert store_pc not in entry.must_alias

    def test_fence_kills_the_walk(self):
        b = ProgramBuilder()
        b.data_word(0x4000, 0)
        b.li(1, 0x4000)
        b.li(2, 7)
        b.store(2, 1)
        b.fence()
        b.load(3, 1)
        b.halt()
        summary = compute_memdep_summary(b.build())
        assert summary.pair_count == 0

    def test_window_bounds_the_walk(self):
        b = ProgramBuilder()
        b.data_word(0x4000, 0)
        b.li(1, 0x4000)
        b.li(2, 7)
        b.store(2, 1)
        b.nop(8)
        b.load(3, 1)
        b.halt()
        program = b.build()
        wide = compute_memdep_summary(program, window=32)
        narrow = compute_memdep_summary(program, window=4)
        assert wide.pair_count == 1
        assert narrow.pair_count == 0


class TestLoopsAndCalls:
    def test_loop_carried_store_under_summary_caps(self):
        program = _loop_program()
        summary = compute_memdep_summary(program)
        [store_pc] = _pcs(program, Opcode.STORE)
        loads = _pcs(program, Opcode.LOAD)
        in_loop, far = loads[0], loads[-1]
        in_entry = summary.entry_for(in_loop)
        assert in_entry is not None
        assert store_pc in in_entry.may_bypass
        far_entry = summary.entry_for(far)
        assert far_entry is not None, \
            "post-loop load never reached by the store walk"
        assert store_pc not in far_entry.may_bypass, \
            "induction caps failed: strided store smeared to the far word"
        assert any(p.store_pc == store_pc for p in far_entry.disjoint)

    def test_call_ret_context_threading(self):
        program = _call_program()
        summary = compute_memdep_summary(program)
        [store_pc] = _pcs(program, Opcode.STORE)
        loads = _pcs(program, Opcode.LOAD)
        load_b, load_orphan, load_a = loads
        for reached in (load_a, load_b):
            entry = summary.entry_for(reached)
            assert entry is not None
            assert store_pc in entry.may_bypass
        # The orphan function is never called; with exact RET
        # threading the walk must not smear into it.
        assert summary.entry_for(load_orphan) is None


class TestDeterminism:
    def test_content_hash_stable_across_recomputation(self):
        program = _loop_program()
        first = compute_memdep_summary(program)
        second = compute_memdep_summary(program)
        assert first == second
        assert first is not second

    def test_identical_programs_share_key_and_hash(self):
        one, two = _loop_program(), _loop_program()
        assert program_summary_key(one, 192) == program_summary_key(two, 192)
        assert compute_memdep_summary(one) == compute_memdep_summary(two)

    def test_key_depends_on_window_and_program(self):
        program = _loop_program()
        assert program_summary_key(program, 192) \
            != program_summary_key(program, 64)
        assert program_summary_key(program, 192) \
            != program_summary_key(_aliasing_program(), 192)


class TestCaching:
    def test_static_store_sets_memoized(self):
        program = build_corpus_variant("v4", "unsafe")
        table = static_store_sets(program)
        assert table  # the unsafe V4 gadget has bypassable loads
        assert static_store_sets(program) is table


class TestCorpusFacts:
    """The facts the delay_on_miss_ss defense and the pre-screen key
    off: the unsafe V4 gadget is bypassable, the fenced one is not."""

    def test_unsafe_v4_gadget_is_may_bypass(self):
        program = build_corpus_variant("v4", "unsafe")
        summary = compute_memdep_summary(program)
        report = analyze_program(program, name="v4")
        v4 = [f for f in report.findings
              if f.kind is GadgetKind.SPECTRE_V4]
        assert v4
        assert all(v4_finding_may_bypass(summary, f) for f in v4)
        block = finding_memdep_block(summary, v4[0])
        assert v4[0].source_pc in block["may_bypass"]

    def test_fenced_v4_gadget_has_no_pairs(self):
        program = build_corpus_variant("v4", "fenced")
        assert compute_memdep_summary(program).pair_count == 0


class TestFenceSynthesisConsumer:
    def test_disjoint_v4_finding_needs_no_fence(self):
        """A V4 S-Pattern whose store→load pair is provably disjoint
        is reported memdep-refuted, not fenced."""
        b = ProgramBuilder()
        b.data_word(0x4000, 0)
        b.data_word(0x5000, 2)
        b.li(1, 0x4000)
        b.li(2, 0x5000)
        b.li(3, 7)
        b.store(3, 1)         # V4 source, provably at 0x4000
        b.load(4, 2)          # tainting load, provably at 0x5000
        b.shli(5, 4, 3)
        b.load(6, 5)          # transmitting second access
        b.halt()
        program = b.build()
        report = analyze_program(program, name="disjoint-v4")
        assert any(f.kind is GadgetKind.SPECTRE_V4
                   for f in report.findings)
        synthesis = synthesize_fences(program, refine=False,
                                      name="disjoint-v4")
        assert synthesis.memdep_refuted
        assert synthesis.clean
        assert synthesis.fence_count == 0

    def test_memdep_false_restores_fencing(self):
        """With the memdep pass disabled the same program is fenced."""
        b = ProgramBuilder()
        b.data_word(0x4000, 0)
        b.data_word(0x5000, 2)
        b.li(1, 0x4000)
        b.li(2, 0x5000)
        b.li(3, 7)
        b.store(3, 1)
        b.load(4, 2)
        b.shli(5, 4, 3)
        b.load(6, 5)
        b.halt()
        synthesis = synthesize_fences(b.build(), refine=False,
                                      memdep=False, name="disjoint-v4")
        assert not synthesis.memdep_refuted
        assert synthesis.fence_count >= 1
        assert synthesis.clean

    def test_bypassable_v4_still_fenced(self):
        program = build_corpus_variant("v4", "unsafe")
        synthesis = synthesize_fences(program, refine=False, name="v4")
        assert synthesis.fence_count >= 1
        assert synthesis.clean
