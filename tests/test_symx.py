"""Tests for the symbolic SNI certifier and its replayable witnesses."""
import json

import pytest

from repro.analysis import analyze_program
from repro.analysis.corpus import (
    CORPUS_VARIANTS,
    GADGET_KINDS,
    build_corpus_variant,
    corpus_secret_words,
)
from repro.analysis.fencesynth import synthesize_fences
from repro.analysis.solver import (
    App,
    Const,
    ConstraintSolver,
    Var,
    cannot_equal,
    evaluate,
    exprs_equal,
    invert,
    mk,
    negate,
    support,
    words_disjoint,
)
from repro.analysis.symx import (
    CertifyResult,
    Verdict,
    certify_program,
    concrete_speculative_trace,
    finding_certificates,
)
from repro.analysis.witness import Witness, replay_witness
from repro.isa.builder import ProgramBuilder
from repro.robustness.faults import FaultPlan

SECRETS = corpus_secret_words()


def certify(kind, variant, **kwargs):
    kwargs.setdefault("secret_words", SECRETS)
    return certify_program(build_corpus_variant(kind, variant),
                           name=f"{kind}-{variant}", **kwargs)


# ---------------------------------------------------------------------------
# Solver layer
# ---------------------------------------------------------------------------

class TestSolver:
    def test_constant_folding(self):
        expr = mk("add", Const(3), Const(4))
        assert isinstance(expr, Const) and expr.value == 7

    def test_evaluate_and_support(self):
        x = Var("x")
        expr = mk("add", mk("shl", x, Const(3)), Const(0x100))
        assert evaluate(expr, {"x": 2}) == 0x110
        assert set(support(expr)) == {"x"}

    def test_negate_round_trip(self):
        x = Var("x")
        cond = mk("eq", x, Const(5))
        assert evaluate(cond, {"x": 5}) == 1
        assert evaluate(negate(cond), {"x": 5}) == 0
        assert evaluate(negate(cond), {"x": 6}) == 1

    def test_cannot_equal_uses_intervals(self):
        # AND with 7 bounds the expression to [0, 7].
        masked = mk("and", Var("x"), Const(7))
        assert cannot_equal(masked, 0x10000)
        assert not cannot_equal(masked, 3)

    def test_words_disjoint(self):
        a = mk("add", Const(0x1000), Const(0))
        b = Const(0x2000)
        assert words_disjoint(a, b)
        assert not words_disjoint(Var("x"), b)

    def test_invert_simple_chain(self):
        x = Var("x")
        expr = mk("add", mk("shl", x, Const(3)), Const(0x100))
        model = invert(expr, 0x140)
        assert model is not None
        assert evaluate(expr, model) == 0x140

    def test_find_model_respects_constraints(self):
        x = Var("x", preferred=9)
        solver = ConstraintSolver()
        model = solver.find_model([mk("eq", mk("and", x, Const(7)),
                                      Const(5))])
        assert model is not None
        assert evaluate(x, model) & 7 == 5

    def test_find_model_unsat_returns_none(self):
        x = Var("x")
        solver = ConstraintSolver()
        constraints = [mk("eq", x, Const(1)), mk("eq", x, Const(2))]
        assert solver.find_model(constraints) is None

    def test_exprs_equal_structural(self):
        x = Var("x")
        assert exprs_equal(mk("add", x, Const(8)), mk("add", x, Const(8)))
        assert not exprs_equal(mk("add", x, Const(8)),
                               mk("add", x, Const(16)))
        assert isinstance(App("mul", x, Const(3)), App)


# ---------------------------------------------------------------------------
# Corpus verdict matrix
# ---------------------------------------------------------------------------

class TestCorpusVerdicts:
    @pytest.mark.parametrize("kind", GADGET_KINDS)
    def test_unsafe_is_leaky_with_replayed_witness(self, kind):
        result = certify(kind, "unsafe")
        assert result.verdict is Verdict.LEAKY
        assert result.leaks
        for leak in result.leaks:
            assert leak.witness is not None
            assert leak.replay is not None
            assert leak.replay.reproduced, (
                f"{kind} witness did not reproduce dynamically")

    @pytest.mark.parametrize("kind", GADGET_KINDS)
    @pytest.mark.parametrize("variant", ["fenced", "masked"])
    def test_mitigated_is_proved_safe(self, kind, variant):
        result = certify(kind, variant)
        assert result.verdict is Verdict.PROVED_SAFE, result.warnings
        assert not result.leaks
        assert not result.truncated

    def test_no_unknown_anywhere_at_default_budgets(self):
        for kind in GADGET_KINDS:
            for variant in CORPUS_VARIANTS:
                result = certify(kind, variant, replay=False)
                assert result.verdict is not Verdict.UNKNOWN, (
                    kind, variant, result.warnings)

    def test_per_sink_verdicts_cover_taint_findings(self):
        program = build_corpus_variant("v1", "unsafe")
        report = analyze_program(program, name="v1-unsafe")
        result = certify_program(program, secret_words=SECRETS,
                                 replay=False)
        assert report.findings
        for finding in report.findings:
            assert result.verdict_for(finding.sink_pc) is Verdict.LEAKY

    def test_secret_values_differ_only_in_secret_memory(self):
        result = certify("v1", "unsafe")
        witness = result.leaks[0].witness
        assert witness is not None
        assert dict(witness.secret_memory_a) != dict(
            witness.secret_memory_b)
        assert witness.secret_memory_a != ()
        public_a = witness.initial_memory("a")
        public_b = witness.initial_memory("b")
        secret_addrs = {addr for addr, _ in witness.secret_memory_a}
        for addr in public_a:
            if addr not in secret_addrs:
                assert public_a[addr] == public_b[addr]


# ---------------------------------------------------------------------------
# Budgets: the certifier degrades to UNKNOWN, never hangs
# ---------------------------------------------------------------------------

def _branchy_program(branches=24):
    """A program whose symbolic-input branches double the path count
    per level — guaranteed to blow any small path budget."""
    builder = ProgramBuilder(base_address=0x1000)
    builder.data_word(0x80000, 0)
    builder.li(9, 0x80000)
    builder.load(1, 9, note="symbolic input")
    for index in range(branches):
        builder.shri(2, 1, index)
        builder.andi(2, 2, 1)
        builder.beq(2, 0, f"skip_{index}")
        builder.addi(3, 3, 1)
        builder.label(f"skip_{index}")
    builder.halt()
    return builder.build()


class TestBudgets:
    def test_max_paths_yields_unknown_with_structured_warning(self):
        result = certify_program(_branchy_program(), max_paths=16,
                                 replay=False, name="branchy")
        assert result.verdict is Verdict.UNKNOWN
        assert result.truncated
        kinds = {warning["kind"] for warning in result.warnings}
        assert "path_budget" in kinds
        warning = next(w for w in result.warnings
                       if w["kind"] == "path_budget")
        assert warning["max_paths"] == 16

    def test_zero_path_budget_degrades_instead_of_raising(self):
        # The entry path is charged like every other path.
        result = certify_program(_branchy_program(), max_paths=0,
                                 replay=False, name="branchy")
        assert result.verdict is Verdict.UNKNOWN
        assert [w["kind"] for w in result.warnings] == ["path_budget"]

    def test_max_steps_yields_unknown(self):
        result = certify_program(_branchy_program(), max_steps=64,
                                 replay=False, name="branchy")
        assert result.verdict is Verdict.UNKNOWN
        kinds = {warning["kind"] for warning in result.warnings}
        assert "step_budget" in kinds

    def test_budget_unknown_renders_and_serializes(self):
        result = certify_program(_branchy_program(), max_paths=16,
                                 replay=False, name="branchy")
        text = result.render()
        assert "UNKNOWN" in text
        document = json.loads(json.dumps(result.to_dict()))
        assert document["verdict"] == "UNKNOWN"
        assert document["truncated"] is True

    def test_generous_budget_proves_branchy_program(self):
        # With no secrets and enough paths the same program certifies.
        result = certify_program(_branchy_program(branches=6),
                                 replay=False, name="branchy-small")
        assert result.verdict is Verdict.PROVED_SAFE


class TestWallClockBudget:
    """The serve-tier budgets: wall clock and cooperative cancel both
    degrade to UNKNOWN with a structured warning — never a hang."""

    def test_exhausted_wall_clock_degrades_to_unknown(self):
        result = certify(
            "v1", "unsafe", replay=False, wall_clock_budget=1e-9)
        assert result.verdict is Verdict.UNKNOWN
        assert result.truncated
        warning = next(w for w in result.warnings
                       if w["kind"] == "wall_clock")
        assert "degrades to UNKNOWN" in warning["detail"]

    def test_cancel_check_degrades_to_unknown(self):
        result = certify("v1", "unsafe", replay=False,
                         cancel_check=lambda: True)
        assert result.verdict is Verdict.UNKNOWN
        kinds = {w["kind"] for w in result.warnings}
        assert "cancelled" in kinds

    def test_generous_wall_clock_does_not_change_the_verdict(self):
        tight_free = certify("v2", "unsafe", replay=False)
        budgeted = certify("v2", "unsafe", replay=False,
                           wall_clock_budget=300.0)
        assert budgeted.verdict is tight_free.verdict
        assert not budgeted.truncated

    def test_late_cancel_never_hangs(self):
        # Cancel fires partway through: whatever was resolved stays
        # resolved, everything else degrades — and the call returns.
        calls = []

        def cancel_after_a_few():
            calls.append(None)
            return len(calls) > 2

        result = certify("v2", "unsafe", replay=False,
                         cancel_check=cancel_after_a_few)
        assert result.verdict in (Verdict.UNKNOWN, Verdict.LEAKY)
        assert calls  # the hook was actually polled


# ---------------------------------------------------------------------------
# Witness replay determinism (mirrors test_parallel_sweep discipline)
# ---------------------------------------------------------------------------

class TestReplayDeterminism:
    @pytest.mark.parametrize("kind", GADGET_KINDS)
    def test_replay_twice_identical(self, kind):
        program = build_corpus_variant(kind, "unsafe")
        result = certify_program(program, secret_words=SECRETS,
                                 name=f"{kind}-unsafe")
        witness = result.leaks[0].witness
        assert witness is not None
        first = replay_witness(program, witness)
        second = replay_witness(program, witness)
        assert first.reproduced and second.reproduced
        assert first.leaked_lines == second.leaked_lines
        assert (first.cycles_a, first.cycles_b) == (
            second.cycles_a, second.cycles_b)

    def test_replay_deterministic_under_fault_plan(self):
        program = build_corpus_variant("v1", "unsafe")
        result = certify_program(program, secret_words=SECRETS,
                                 name="v1-unsafe")
        witness = result.leaks[0].witness
        assert witness is not None
        plan = FaultPlan.moderate(seed=1234)
        first = replay_witness(program, witness, fault_plan=plan)
        second = replay_witness(program, witness, fault_plan=plan)
        assert first.leaked_lines == second.leaked_lines
        assert first.reproduced == second.reproduced
        assert first.fault_seed == second.fault_seed == 1234

    def test_witness_round_trips_through_json(self):
        result = certify("v4", "unsafe", replay=False)
        witness = result.leaks[0].witness
        assert witness is not None
        document = json.loads(json.dumps(witness.to_dict()))
        rebuilt = Witness.from_dict(document)
        assert rebuilt == witness
        replay = replay_witness(build_corpus_variant("v4", "unsafe"),
                                rebuilt)
        assert replay.reproduced


# ---------------------------------------------------------------------------
# Reference semantics
# ---------------------------------------------------------------------------

class TestConcreteTrace:
    def test_trace_is_deterministic(self):
        program = build_corpus_variant("v1", "unsafe")
        witness = certify("v1", "unsafe", replay=False).leaks[0].witness
        assert witness is not None
        overrides = witness.initial_memory("a")
        first = concrete_speculative_trace(program, overrides)
        second = concrete_speculative_trace(program, overrides)
        assert first == second
        assert first  # the witness input steers into the gadget

    def test_trace_separates_witness_variants(self):
        # The two witness runs share public memory but their
        # speculative observation sequences must differ — this is the
        # ground truth behind every LEAKY verdict.
        program = build_corpus_variant("v1", "unsafe")
        witness = certify("v1", "unsafe", replay=False).leaks[0].witness
        assert witness is not None
        trace_a = concrete_speculative_trace(
            program, witness.initial_memory("a"))
        trace_b = concrete_speculative_trace(
            program, witness.initial_memory("b"))
        assert trace_a != trace_b


# ---------------------------------------------------------------------------
# Report schema v3 and certificates
# ---------------------------------------------------------------------------

class TestCertificates:
    def test_finding_certificates_shape(self):
        program = build_corpus_variant("v1", "unsafe")
        report = analyze_program(program, name="v1-unsafe")
        result = certify_program(program, secret_words=SECRETS,
                                 name="v1-unsafe")
        certificates = finding_certificates(result, report)
        assert set(certificates) == {f.sink_pc for f in report.findings}
        for block in certificates.values():
            assert block["verdict"] in {"LEAKY", "PROVED_SAFE",
                                        "UNKNOWN"}
        leaky = [b for b in certificates.values()
                 if b["verdict"] == "LEAKY"]
        assert leaky and all("witness" in b and "replay" in b
                             for b in leaky)

    def test_report_v4_embeds_certificates(self):
        program = build_corpus_variant("v1", "unsafe")
        report = analyze_program(program, name="v1-unsafe")
        result = certify_program(program, secret_words=SECRETS,
                                 replay=False, name="v1-unsafe")
        document = report.to_dict(
            certificates=finding_certificates(result, report))
        assert document["schema_version"] == 5
        assert all("certificate" in entry
                   for entry in document["findings"])
        for entry in document["findings"]:
            summary = entry["certificate"]["summary"]
            assert set(summary) == {"merged_paths", "summarized_loops",
                                    "accelerated_loops",
                                    "summary_cache_hit"}


# ---------------------------------------------------------------------------
# Fence synthesis integration
# ---------------------------------------------------------------------------

class TestSynthesisCertification:
    @pytest.mark.parametrize("kind", GADGET_KINDS)
    def test_synthesized_repair_certifies(self, kind):
        synthesis = synthesize_fences(
            build_corpus_variant(kind, "unsafe"),
            secret_words=SECRETS, certify=True, name=kind)
        assert synthesis.certified
        assert synthesis.certificate is not None
        assert synthesis.certificate.verdict is Verdict.PROVED_SAFE
        assert synthesis.original_certificate is not None
        assert (synthesis.original_certificate.verdict
                is Verdict.LEAKY)

    def test_certificate_in_synthesis_dict(self):
        synthesis = synthesize_fences(
            build_corpus_variant("v1", "unsafe"),
            secret_words=SECRETS, certify=True, name="v1")
        document = json.loads(json.dumps(synthesis.to_dict()))
        assert document["certificate"]["verdict"] == "PROVED_SAFE"
        assert document["original_certificate"]["verdict"] == "LEAKY"

    def test_without_certify_no_certificate(self):
        synthesis = synthesize_fences(
            build_corpus_variant("v1", "unsafe"),
            secret_words=SECRETS, name="v1")
        assert synthesis.certificate is None
        assert not synthesis.certified


def test_precision_study_corpus_only():
    from repro.experiments.precision_study import run_precision_study

    study = run_precision_study(benchmarks=[])
    corpus_rows = [row for row in study.rows if row.group == "corpus"]
    assert len(corpus_rows) == len(GADGET_KINDS) * len(CORPUS_VARIANTS)
    assert all(row.correct for row in corpus_rows)
    assert study.symx_strictly_stronger
    assert "precision study" in study.render()
    document = json.loads(json.dumps(study.to_dict()))
    assert document["symx_strictly_stronger"] is True


def test_certify_result_is_json_clean():
    result = certify("v2", "unsafe")
    document = json.loads(json.dumps(result.to_dict()))
    assert document["verdict"] == "LEAKY"
    assert document["leaks"][0]["replay"]["reproduced"] is True
    assert isinstance(document["solver"], dict)
    assert isinstance(result, CertifyResult)
