"""Campaign plumbing: checkpoints, FuzzCase persistence, regressions,
corpus ingestion, CLI."""
from __future__ import annotations

import json

import pytest

from repro.analysis.corpus import (
    IngestedGadget,
    clear_ingested_gadgets,
    ingested_gadgets,
    load_ingested_gadgets,
    register_ingested_gadget,
)
from repro.cli import main
from repro.experiments.precision_study import run_precision_study
from repro.fuzz import (
    ALL_MODES,
    REGRESSION_DIR,
    FuzzCase,
    case_fires,
    case_seed,
    differential_check,
    load_cases,
    make_case,
    run_certify_campaign,
    run_diff_campaign,
)
from repro.fuzz.generator import generate_program
from repro.isa import ProgramBuilder
from repro.pipeline import invariants, processor

GADGET_SOURCE = """fwd_1:
    load r9, r8, 0
    beq r9, r0, fwd_3
    li r16, 20480
    load r16, r16, 0
    andi r17, r16, 15
    shli r17, r17, 6
    load r17, r17, 0
fwd_3:
    halt
"""


@pytest.fixture(autouse=True)
def _clean_registry():
    clear_ingested_gadgets()
    yield
    clear_ingested_gadgets()


def test_diff_campaign_clean_and_resumable(tmp_path):
    checkpoint = tmp_path / "diff.jsonl"
    first = run_diff_campaign("test-camp", 12, checkpoint=checkpoint)
    assert first.cases == 12
    assert first.clean
    assert first.resumed == 0
    second = run_diff_campaign("test-camp", 12, checkpoint=checkpoint)
    assert second.resumed == 12
    assert second.clean


def test_core_error_is_a_mismatch_not_a_crash(monkeypatch, tmp_path):
    """A core that raises while it runs is that mode's ``error``
    mismatch: the campaign counts, minimizes and pins it, and the
    pinned case replays, instead of the campaign ending on a
    traceback."""
    def lint_fails_from_cycle_50(cpu):
        if cpu.cycle >= 50:
            raise invariants.InvariantViolation(
                f"cycle {cpu.cycle}: forced")

    monkeypatch.setattr(processor, "check_processor_invariants",
                        lint_fails_from_cycle_50)
    program = generate_program(case_seed("found-check", 0)).program
    outcome = differential_check(program)
    assert outcome.valid and not outcome.clean
    errors = [m for m in outcome.mismatches if m.kind == "error"]
    assert [m.mode for m in errors] == list(ALL_MODES)
    assert all(m.where.startswith("InvariantViolation: cycle ")
               and m.where.endswith(": forced") for m in errors)

    result = run_diff_campaign("found-check", 2, regressions=tmp_path)
    assert result.disagreements == 2
    assert len(result.pinned) == 2
    assert all(case_fires(case) for case in load_cases(tmp_path))


def test_program_that_leaves_its_code_is_invalid_input():
    """The minimizer's candidates can lose their HALT or a jump; an
    oracle run that leaves the program is invalid input, not a crash."""
    b = ProgramBuilder()
    b.li(1, 1).jmp(0x900000)
    assert not differential_check(b.build()).valid


def test_certify_campaign_records_verdicts(tmp_path):
    checkpoint = tmp_path / "certify.jsonl"
    result = run_certify_campaign("test-camp", 6,
                                  checkpoint=checkpoint)
    assert result.cases == 6
    assert result.clean
    assert sum(result.verdicts.values()) == 6
    resumed = run_certify_campaign("test-camp", 6,
                                   checkpoint=checkpoint)
    assert resumed.resumed == 6
    assert resumed.verdicts == result.verdicts


def test_checkpoint_config_mismatch_restarts(tmp_path):
    checkpoint = tmp_path / "diff.jsonl"
    run_diff_campaign("seed-a", 4, checkpoint=checkpoint)
    other = run_diff_campaign("seed-b", 4, checkpoint=checkpoint)
    assert other.resumed == 0


def test_fuzzcase_roundtrip(tmp_path):
    generated = generate_program("fc-rt")
    case = make_case(
        case_id="rt_case", kind="diff_mismatch", seed="fc-rt",
        program=generated.program, modes=("origin",),
        details="demo", repro="repro fuzz diff --only 0")
    path = case.save(tmp_path)
    loaded = FuzzCase.load(path)
    assert loaded.case_id == case.case_id
    assert loaded.source == case.source
    rebuilt = loaded.program()
    assert rebuilt.instructions == generated.program.instructions
    assert rebuilt.initial_memory == generated.program.initial_memory


def test_pinned_regressions_hold():
    """Every pinned FuzzCase must behave as its expectation says."""
    cases = load_cases(REGRESSION_DIR)
    assert cases, "expected at least one pinned regression case"
    for case in cases:
        fires = case_fires(case)
        expected = case.expect == "reproduces"
        assert fires == expected, (
            f"{case.case_id}: expected "
            f"{'reproduction' if expected else 'fixed'}, "
            f"got fires={fires}")


def _counts(row):
    return (row.name, row.group, row.is_gadget, row.findings,
            row.confirmed, row.refuted, row.verdict)


def test_ingestion_extends_without_renumbering():
    baseline = run_precision_study(benchmarks=[])
    register_ingested_gadget(IngestedGadget(
        name="test_ingested", source=GADGET_SOURCE,
        secret_words=(20480,), origin="unit-test"))
    extended = run_precision_study(benchmarks=[])
    assert len(baseline.rows) == 12
    assert len(extended.rows) == len(baseline.rows) + 1
    assert [_counts(row) for row in extended.rows[:-1]] == \
        [_counts(row) for row in baseline.rows]
    ingested = extended.rows[-1]
    assert (ingested.name, ingested.group) == ("test_ingested",
                                                "ingested")
    assert ingested.is_gadget
    assert ingested.confirmed >= 1
    assert extended.fn_rate_after == 0.0


def test_ingestion_registry_io(tmp_path):
    gadget = IngestedGadget(name="io_demo", source=GADGET_SOURCE,
                            secret_words=(20480,), origin="t")
    (tmp_path / "io_demo.json").write_text(
        json.dumps(gadget.to_dict()))
    assert load_ingested_gadgets(tmp_path) == 1
    assert ingested_gadgets()[0] == gadget
    assert load_ingested_gadgets(tmp_path / "missing") == 0


def test_cli_fuzz_diff(capsys):
    assert main(["fuzz", "diff", "--seed", "cli-test",
                 "--count", "5"]) == 0
    out = capsys.readouterr().out
    assert "5 programs" in out
    assert "0 mismatch(es)" in out


def test_cli_fuzz_certify_only(capsys):
    assert main(["fuzz", "certify", "--seed", "cli-test",
                 "--count", "2", "--only", "0"]) in (0, 1)
    assert "seed 'cli-test:0'" in capsys.readouterr().out


def test_cli_fuzz_json_summary(tmp_path, capsys):
    out = tmp_path / "summary.json"
    assert main(["fuzz", "diff", "--seed", "cli-test",
                 "--count", "3", "--json", str(out)]) == 0
    capsys.readouterr()
    payload = json.loads(out.read_text())
    assert payload["kind"] == "diff"
    assert payload["cases"] == 3
    assert payload["disagreements"] == 0


def test_cli_fuzz_evolve_ingests_survivors(monkeypatch, capsys):
    import repro.fuzz
    from repro.fuzz import CampaignResult

    survivor = FuzzCase(
        case_id="evolve_demo_cache_hit", kind="evolve_survivor",
        seed="cli-test", source=GADGET_SOURCE, secret_words=(20480,),
        modes=("cache_hit",), expect="reproduces")
    monkeypatch.setattr(
        repro.fuzz, "run_evolve_campaign",
        lambda *args, **kwargs: (
            CampaignResult(kind="evolve", master_seed="cli-test"),
            [survivor]))
    assert main(["fuzz", "evolve", "--seed", "cli-test"]) == 0
    out = capsys.readouterr().out
    assert "precision over the extended corpus (13 cases)" in out
    assert "evolve_demo_cache_hit" in out and "ingested" in out
    (gadget,) = ingested_gadgets()
    assert (gadget.name, gadget.source, gadget.secret_words,
            gadget.is_gadget, gadget.origin) == (
        "evolve_demo_cache_hit", GADGET_SOURCE, (20480,), True,
        "fuzz-evolve:cache_hit")
