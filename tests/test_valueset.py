"""Tests for the value-set lattice and finding refutation."""
import pytest

from repro.analysis import (
    ValueSet,
    ValueSetLattice,
    ValueSetState,
    analyze_program,
    compute_value_sets,
    cross_validate,
    refine_report,
)
from repro.analysis.corpus import (
    CORPUS_VARIANTS,
    GADGET_KINDS,
    build_corpus_variant,
    corpus_secret_words,
)
from repro.analysis.valueset import (
    TOP,
    U64_MAX,
    ZERO,
    constant,
    data_regions,
    vs_add,
    vs_and,
    vs_div,
    vs_join,
    vs_mul,
    vs_shl,
    vs_shr,
    vs_sub,
    vs_widen,
)
from repro.isa import ProgramBuilder


def interval(lo, hi, stride=1):
    return ValueSet(lo, hi, stride)


class TestValueSetOps:
    def test_constant_and_top_predicates(self):
        assert constant(5).is_constant and not constant(5).is_top
        assert TOP.is_top and not TOP.is_bounded
        assert ZERO == constant(0)

    def test_invalid_intervals_rejected(self):
        with pytest.raises(ValueError):
            ValueSet(5, 4, 1)
        with pytest.raises(ValueError):
            ValueSet(1, 2, 0)  # stride 0 must mean constant

    def test_join_hull_and_stride_gcd(self):
        joined = vs_join(constant(0x6000), constant(0x6018))
        assert (joined.lo, joined.hi, joined.stride) == (0x6000, 0x6018, 0x18)
        # mixing strides takes the gcd of strides and offsets
        joined = vs_join(interval(0, 8, 4), interval(16, 32, 8))
        assert joined.stride == 4
        assert vs_join(TOP, constant(1)).is_top

    def test_widen_jumps_unstable_bounds(self):
        widened = vs_widen(interval(4, 4, 0), interval(3, 4, 1))
        assert (widened.lo, widened.hi) == (0, 4)
        widened = vs_widen(interval(0, 4, 1), interval(0, 5, 1))
        assert widened.hi == U64_MAX
        assert vs_widen(constant(7), constant(7)) == constant(7)

    def test_arithmetic(self):
        assert vs_add(constant(2), constant(3)) == constant(5)
        assert vs_add(interval(0, 56, 8), constant(0x6000)) == \
            interval(0x6000, 0x6038, 8)
        assert vs_sub(constant(10), constant(4)) == constant(6)
        assert vs_sub(constant(0), constant(1)).is_top  # wraps
        assert vs_mul(interval(0, 7), constant(8)) == interval(0, 56, 8)
        assert vs_div(interval(0, 56, 8), constant(8)) == interval(0, 7)
        assert vs_add(TOP, constant(1)).is_top

    def test_shifts(self):
        assert vs_shl(interval(0, 7), 3) == interval(0, 56, 8)
        assert vs_shr(interval(0, 56, 8), 3) == interval(0, 7)
        assert vs_shl(constant(1), 64).is_top
        assert vs_shl(interval(0, U64_MAX - 1), 1).is_top  # overflow

    def test_and_masking(self):
        # the Spectre-mask idiom: unknown & 7 is bounded by [0, 7]
        assert vs_and(TOP, constant(7)) == interval(0, 7)
        assert vs_and(constant(0b1100), constant(0b1010)) == constant(0b1000)
        assert vs_and(TOP, TOP).is_top

    def test_shift_detects_wraparound(self):
        assert constant(U64_MAX).shift(1) is None
        assert constant(1).shift(-2) is None
        assert constant(8).shift(8) == constant(16)


class TestLatticeTransfer:
    def _fixpoint(self, build):
        b = ProgramBuilder()
        build(b)
        program = b.build()
        return program, compute_value_sets(program)

    def test_straightline_mask_chain(self):
        def build(b):
            b.li(1, 0x6000)
            b.load(2, 1)           # unknown value
            b.andi(2, 2, 7)        # -> [0, 7]
            b.shli(2, 2, 3)        # -> [0, 56]/8
            b.add(3, 1, 2)         # -> [0x6000, 0x6038]/8
            b.halt()

        program, values = self._fixpoint(build)
        state = values.state_before(program.address_of(5))
        assert state.value_of(1) == constant(0x6000)
        assert state.value_of(2) == interval(0, 56, 8)
        assert state.value_of(3) == interval(0x6000, 0x6038, 8)

    def test_loads_produce_top(self):
        def build(b):
            b.li(1, 0x6000)
            b.load(2, 1)
            b.halt()

        program, values = self._fixpoint(build)
        state = values.state_before(program.address_of(2))
        assert state.value_of(2).is_top

    def test_r0_is_always_zero(self):
        state = ValueSetState()
        assert state.value_of(0) == ZERO
        assert state.with_value(0, TOP).value_of(0) == ZERO

    def test_reset_state_registers_are_zero(self):
        def build(b):
            b.addi(2, 7, 5)   # r7 is 0 at reset -> r2 == 5
            b.halt()

        program, values = self._fixpoint(build)
        state = values.state_before(program.address_of(1))
        assert state.value_of(2) == constant(5)

    def test_join_drops_conflicting_constants_to_hull(self):
        lattice = ValueSetLattice()
        a = ValueSetState().with_value(1, constant(4))
        b = ValueSetState().with_value(1, constant(8))
        joined = lattice.join(a, b)
        assert joined.value_of(1) == interval(4, 8, 4)
        # a register bounded on only one side joins to TOP (absent)
        joined = lattice.join(a, ValueSetState())
        assert joined.value_of(1).is_top

    def test_loop_counter_widens_but_invariant_survives(self):
        # back-edge convergence on the real lattice: the decremented
        # counter must widen away while the loop-invariant base
        # register stays a constant through the fixpoint
        def build(b):
            b.li(1, 100)
            b.li(2, 0x6000)
            b.label("loop")
            b.addi(1, 1, -1)
            b.bne(1, 0, "loop")
            b.mov(3, 2)
            b.halt()

        program, values = self._fixpoint(build)
        state = values.state_before(program.labels["loop"])
        assert state.value_of(2) == constant(0x6000)
        counter = state.value_of(1)
        assert counter.is_top or counter.hi == 100


class TestDataRegions:
    def test_contiguous_runs_merge(self):
        b = ProgramBuilder()
        for i in range(4):
            b.data_word(0x6000 + 8 * i, i)
        b.data_word(0x9000, 1)
        b.halt()
        regions = data_regions(b.build())
        assert (0x6000, 0x6018) in regions
        assert (0x9000, 0x9000) in regions

    def test_empty_program_has_no_regions(self):
        b = ProgramBuilder()
        b.halt()
        assert data_regions(b.build()) == []


class TestRefinement:
    @pytest.mark.parametrize("kind", GADGET_KINDS)
    def test_unsafe_variants_confirmed(self, kind):
        program = build_corpus_variant(kind, "unsafe")
        report = analyze_program(program, name=kind)
        refined = refine_report(program, report,
                                secret_words=corpus_secret_words())
        assert report.findings, f"{kind}: unsafe variant must be flagged"
        assert refined.confirmed and not refined.refuted
        assert not refined.clean

    @pytest.mark.parametrize("kind", GADGET_KINDS)
    def test_masked_variants_fully_refuted(self, kind):
        program = build_corpus_variant(kind, "masked")
        report = analyze_program(program, name=kind)
        refined = refine_report(program, report,
                                secret_words=corpus_secret_words())
        assert report.findings, \
            f"{kind}: masked variant is still an S-Pattern to the taint pass"
        assert refined.clean and refined.refuted
        assert refined.false_positive_reduction == 1.0

    @pytest.mark.parametrize("kind", GADGET_KINDS)
    def test_fenced_variants_clean_before_refinement(self, kind):
        program = build_corpus_variant(kind, "fenced")
        report = analyze_program(program, name=kind)
        assert not report.findings

    def test_refutations_carry_machine_checkable_bounds(self):
        program = build_corpus_variant("v1", "masked")
        report = analyze_program(program, name="v1-masked")
        refined = refine_report(program, report,
                                secret_words=corpus_secret_words())
        regions = data_regions(program)
        for refuted in refined.refuted:
            assert refuted.refutation.reason in ("in-bounds", "no-alias")
            assert refuted.refutation.bounds
            for bound in refuted.refutation.bounds:
                assert bound.lo <= bound.hi
                assert (bound.region_lo, bound.region_hi) in regions
                assert bound.region_lo <= bound.lo
                assert bound.hi <= bound.region_hi + 7
                for secret in corpus_secret_words():
                    assert not (bound.lo <= secret + 7
                                and secret <= bound.hi + 7)

    def test_v4_refutation_uses_no_alias(self):
        program = build_corpus_variant("v4", "masked")
        report = analyze_program(program, name="v4-masked")
        refined = refine_report(program, report,
                                secret_words=corpus_secret_words())
        assert refined.clean
        reasons = {r.refutation.reason for r in refined.refuted
                   if r.finding.kind.value == "spectre-v4"}
        assert reasons == {"no-alias"}

    def test_secret_words_block_refutation(self):
        # a masked chain that reads the declared secret region must
        # stay confirmed no matter how bounded the address set is
        from repro.attacks.layout import AttackLayout

        layout = AttackLayout()
        b = ProgramBuilder(base_address=layout.code_base)
        for i in range(2):
            b.data_word(layout.secret_addr + 8 * i, 0x41)
        b.li(1, 0x80)
        b.beq(1, 0, "skip")
        b.li(2, layout.secret_addr)
        b.load(3, 2, note="bounded secret read")
        b.shli(3, 3, 6)
        b.li(4, layout.secret_addr)
        b.add(4, 4, 3)
        b.load(5, 4, note="transmit")
        b.label("skip")
        b.halt()
        program = b.build()
        report = analyze_program(program, name="secret-read")
        assert report.findings
        without = refine_report(program, report)
        with_secret = refine_report(
            program, report, secret_words=(layout.secret_addr,))
        assert len(with_secret.confirmed) >= len(without.confirmed)
        assert with_secret.confirmed, \
            "declared secret read must survive refinement"

    def test_refinement_preserves_static_suspects(self):
        # refinement downgrades findings, never the suspect set the
        # dynamic cross-validation is checked against
        program = build_corpus_variant("v1", "masked")
        report = analyze_program(program, name="v1-masked")
        refined = refine_report(program, report,
                                secret_words=corpus_secret_words())
        assert refined.clean
        assert refined.base.suspect_pcs == report.suspect_pcs
        assert report.suspect_pcs
        result = cross_validate(program, name="v1-masked")
        assert result.covered


class TestCorpusPrecision:
    """Asserted precision numbers on the gadget corpus, as the
    precision study measures them over its labelled rows."""

    @pytest.fixture(scope="class")
    def precision(self):
        from repro.experiments.precision_study import run_precision_study

        return run_precision_study(benchmarks=[])

    def test_case_grid_is_complete(self, precision):
        assert [row.name for row in precision.rows] == [
            f"{kind}-{variant}" for kind in GADGET_KINDS
            for variant in CORPUS_VARIANTS]
        assert {row.group for row in precision.rows} == {"corpus"}
        assert [row.is_gadget for row in precision.rows] == [
            variant == "unsafe" for _kind in GADGET_KINDS
            for variant in CORPUS_VARIANTS]

    def test_false_positive_rate_halves_to_zero(self, precision):
        assert precision.fp_rate_before == pytest.approx(0.5)
        assert precision.fp_rate_after == 0.0

    def test_no_false_negatives_before_or_after(self, precision):
        assert precision.fn_rate_before == 0.0
        assert precision.fn_rate_after == 0.0

    def test_refinement_strictly_reduces_suspects(self, precision):
        # strictly fewer flagged benign programs after refinement,
        # no lost gadgets
        benign = [row for row in precision.rows if not row.is_gadget]
        gadgets = [row for row in precision.rows if row.is_gadget]
        assert sum(row.confirmed > 0 for row in benign) < \
            sum(row.findings > 0 for row in benign)
        for row in gadgets:
            assert row.findings > 0 and row.confirmed > 0

    def test_render_smoke(self, precision):
        text = precision.render()
        assert "precision" in text
        assert "masked" in text
        assert "false-positive rate 50% -> 0%" in text


class TestAcceleratedWidening:
    """Regression pins for induction-variable acceleration: counter
    loops the plain widening fixpoint blows to TOP must converge to
    finite strided intervals once the summary caps are met in, and
    the refutations earned that way must carry the ``accelerated``
    reason."""

    WINDOW = 64
    BOUND = 4

    def _counter_program(self, triangular=False):
        from repro.analysis.valueset import WORD_BYTES

        base = 0x6000
        b = ProgramBuilder()
        # Cover every capped index: the cap adds (window + 1) * step
        # of speculative overshoot per loop level.
        words = self.BOUND + 2 * (self.WINDOW + 1) + 8
        for i in range(words):
            b.data_word(base + WORD_BYTES * i, i)
        b.li(5, base)
        b.li(9, self.BOUND)
        b.li(1, 0)                     # outer counter
        b.label("outer")
        b.li(2, 0)                     # inner counter
        b.label("inner")
        b.shli(3, 2, 3)
        b.add(4, 5, 3)
        b.load(6, 4, note="counter-indexed load")
        b.andi(7, 6, 7)
        b.shli(7, 7, 3)
        b.add(8, 5, 7)
        b.load(10, 8, note="transmit")
        b.addi(2, 2, 1)
        if triangular:
            b.blt(2, 1, "inner")       # inner bound = outer counter
        else:
            b.blt(2, 9, "inner")
        b.addi(1, 1, 1)
        b.blt(1, 9, "outer")
        b.halt()
        return b.build()

    def _caps(self, program):
        from repro.analysis.summaries import summarize_program

        summaries = summarize_program(program, window=self.WINDOW)
        return summaries, summaries.induction_caps()

    def test_nested_counter_loops_converge(self):
        program = self._counter_program()
        load_pc = next(addr for addr, instr in program.iter_addressed()
                       if instr.note == "counter-indexed load")
        plain = compute_value_sets(program)
        widened = plain.state_before(load_pc).value_of(2)
        assert widened.is_top or widened.hi == U64_MAX

        summaries, caps = self._caps(program)
        assert set(caps) == {1, 2}, "both counters must be recognized"
        expected_hi = self.BOUND + (self.WINDOW + 1)
        assert caps[2] == interval(0, expected_hi, 1)
        accel = compute_value_sets(program, caps=caps)
        for reg in (1, 2):
            value = accel.state_before(load_pc).value_of(reg)
            assert value.is_bounded
            assert value.hi == expected_hi
        address = accel.state_before(load_pc).value_of(4)
        assert address == interval(0x6000, 0x6000 + 8 * expected_hi, 8)

    def test_triangular_counter_loops_converge(self):
        # The inner bound *is* the outer counter; only the outer cap
        # makes the inner one derivable.
        program = self._counter_program(triangular=True)
        load_pc = next(addr for addr, instr in program.iter_addressed()
                       if instr.note == "counter-indexed load")
        summaries, caps = self._caps(program)
        assert set(caps) == {1, 2}
        outer_hi = self.BOUND + (self.WINDOW + 1)
        assert caps[1].hi == outer_hi
        assert caps[2].hi == outer_hi + (self.WINDOW + 1)
        accel = compute_value_sets(program, caps=caps)
        value = accel.state_before(load_pc).value_of(2)
        assert value.is_bounded and value.hi == caps[2].hi

    def test_accelerated_refutation_reason_pinned(self):
        program = self._counter_program()
        report = analyze_program(program, window=self.WINDOW,
                                 name="nested-counters")
        assert report.findings
        plain = refine_report(program, report)
        assert plain.confirmed, \
            "plain widening must fail so acceleration has work to do"

        summaries, _caps = self._caps(program)
        accelerated = refine_report(program, report,
                                    summaries=summaries)
        assert not accelerated.confirmed
        assert accelerated.accelerated_count >= 1
        reasons = {r.refutation.reason for r in accelerated.refuted}
        assert "accelerated" in reasons
        pinned = [r for r in accelerated.refuted
                  if r.refutation.reason == "accelerated"]
        for refuted in pinned:
            assert "induction caps" in refuted.refutation.detail
            assert refuted.refutation.bounds
        assert accelerated.to_dict()["accelerated"] == len(pinned)

    def test_acceleration_never_unrefutes(self):
        # caps only *add* information: anything the plain pass refutes
        # stays refuted, with the original (stronger) reason
        program = build_corpus_variant("v1", "masked")
        report = analyze_program(program, name="v1-masked")
        plain = refine_report(program, report,
                              secret_words=corpus_secret_words())
        from repro.analysis.summaries import summarize_program
        from repro.analysis.taint import DEFAULT_WINDOW

        summaries = summarize_program(program, window=DEFAULT_WINDOW)
        accel = refine_report(program, report,
                              secret_words=corpus_secret_words(),
                              summaries=summaries)
        assert {r.finding.sink_pc for r in accel.refuted} >= \
            {r.finding.sink_pc for r in plain.refuted}
        assert len(accel.confirmed) <= len(plain.confirmed)


class TestDeadCodeIntoLoop:
    """A dead block that jumps into a loop body is a predecessor of the
    body but not part of the loop: the natural-loop walk must stay
    inside the reachable blocks."""

    def test_dead_jump_into_loop_body(self):
        from repro.analysis.summaries import summarize_program

        b = ProgramBuilder()
        b.li(1, 0).li(9, 4)
        b.label("loop")
        b.addi(1, 1, 1)
        b.label("latch")
        b.blt(1, 9, "loop")
        b.halt()
        b.label("dead")
        b.jmp("latch")
        program = b.build()
        summaries = summarize_program(program, window=16)
        (loop,) = summaries.loops
        assert loop.header == program.labels["loop"]
        assert loop.blocks == (program.labels["loop"],
                               program.labels["latch"])

    def test_generator_case_certifies(self):
        from repro.analysis import certify_program
        from repro.analysis.summaries import summarize_program
        from repro.analysis.taint import DEFAULT_WINDOW
        from repro.fuzz.generator import (GeneratorConfig, case_seed,
                                          generate_program)

        generated = generate_program(case_seed(7, 26),
                                     GeneratorConfig(secret=True))
        summaries = summarize_program(generated.program,
                                      window=DEFAULT_WINDOW)
        assert summaries.loops
        result = certify_program(
            generated.program, secret_words=tuple(generated.secret_words),
            summaries=summaries)
        assert result.verdict.value == "LEAKY"
