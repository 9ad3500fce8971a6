"""Tests for the command-line interface."""
import argparse
import json

import pytest

from conftest import load_tool
from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run", "prog.s"])
        assert args.machine == "paper"
        assert args.mode == "cache_hit_tpbuf"

    def test_attack_choices(self):
        args = build_parser().parse_args(
            ["attack", "v1", "--channel", "prime+probe", "--same-page"]
        )
        assert args.variant == "v1" and args.same_page

    def test_bad_variant_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["attack", "v9"])

    @pytest.mark.parametrize("argv", [
        ["certify", "corpus:v1", "--max-depth", "0"],
        ["certify", "corpus:v1", "--max-depth", "-1"],
        ["certify", "corpus:v1", "--max-paths", "0"],
        ["certify", "corpus:v1", "--max-steps", "0"],
        ["analyze", "corpus:v1", "--window", "0", "--fail-on-findings"],
        ["analyze", "corpus:v1", "--certify", "--max-paths", "0"],
        ["prescreen", "--static-only", "--window", "0",
         "--defenses", "origin", "baseline"],
        ["precision", "hmmer", "--scale", "0.05", "--max-paths", "0"],
        ["sweep", "hmmer", "--max-cycles", "0"],
        ["sweep", "hmmer", "--wall-clock-budget", "0"],
        ["fuzz", "diff", "--count", "-3"],
        ["figure5", "--scale", "0", "hmmer"],
        ["figure5", "--scale", "-1", "hmmer"],
    ], ids="_".join)
    def test_non_positive_budget_is_a_usage_error(self, argv, capsys):
        # Depth 0 allows no misprediction, so "PROVED_SAFE" would be
        # vacuous; a zero path budget, window, count or scale likewise
        # runs nothing worth reporting.  The parser refuses them all.
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "usage:" in err and "must be positive" in err

    @pytest.mark.parametrize("flag", ["--rate", "--burst", "--queue-depth",
                                      "--wall-clock"])
    def test_serve_refuses_a_non_positive_limit(self, flag, capsys):
        # Parsed, never run: a daemon started on a zero rate answers
        # /health, then fails every submission with a 500.
        with pytest.raises(SystemExit) as stop:
            build_parser().parse_args(["serve", flag, "0"])
        assert stop.value.code == 2
        assert "must be positive" in capsys.readouterr().err

    def test_serve_port_and_drain_grace_may_be_zero(self):
        args = build_parser().parse_args(
            ["serve", "--port", "0", "--drain-grace", "0"])
        assert (args.port, args.drain_grace) == (0, 0.0)


@pytest.mark.parametrize("tool,argv", [
    ("fault_campaign", ["--seeds", "0"]),
    ("fault_campaign", ["--smoke", "--scale", "0"]),
    ("fuzz_campaign", ["--diff", "0"]),
    ("fuzz_campaign", ["--certify", "0"]),
], ids=["fault-seeds", "fault-scale", "fuzz-diff", "fuzz-certify"])
def test_campaign_that_runs_nothing_is_a_usage_error(tool, argv, capsys):
    # Zero runs would report zero divergences and pass.
    with pytest.raises(SystemExit) as stop:
        load_tool(tool).main(argv)
    assert stop.value.code == 2
    assert "must be positive" in capsys.readouterr().err


class TestCommands:
    def test_run_program(self, tmp_path, capsys):
        source = tmp_path / "prog.s"
        source.write_text("li r1, 5\naddi r1, r1, 2\nhalt\n")
        code = main(["run", str(source), "--machine", "tiny", "--regs"])
        out = capsys.readouterr().out
        assert code == 0
        assert "halted=True" in out
        assert "r1 = 0x7" in out

    def test_run_non_halting_returns_error(self, tmp_path, capsys):
        source = tmp_path / "spin.s"
        source.write_text("loop:\njmp loop\n")
        code = main(["run", str(source), "--machine", "tiny",
                     "--max-cycles", "2000"])
        assert code == 1

    def test_attack_v1_origin(self, capsys):
        code = main(["attack", "v1", "--mode", "origin"])
        out = capsys.readouterr().out
        assert code == 0
        assert "LEAKED" in out

    def test_attack_v1_defended(self, capsys):
        code = main(["attack", "v1", "--mode", "cache_hit_tpbuf"])
        out = capsys.readouterr().out
        assert "no-leak" in out

    def test_bench_command(self, capsys):
        code = main(["bench", "hmmer", "--scale", "0.05",
                     "--machine", "tiny"])
        out = capsys.readouterr().out
        assert code == 0
        assert "origin" in out and "cache_hit_tpbuf" in out

    def test_bench_unknown_benchmark(self, capsys):
        assert main(["bench", "nonesuch"]) == 2

    def test_area_command(self, capsys):
        assert main(["area"]) == 0
        assert "mm^2" in capsys.readouterr().out

    def test_figure5_subset(self, capsys):
        code = main(["figure5", "--scale", "0.05", "hmmer"])
        out = capsys.readouterr().out
        assert code == 0
        assert "hmmer" in out and "average" in out

    def test_table5_subset(self, capsys):
        code = main(["table5", "--scale", "0.05", "hmmer"])
        assert code == 0
        assert "S-mismatch" in capsys.readouterr().out

    def test_table4_matches_paper(self, capsys):
        # Exits 0 only when every scenario matches the paper.
        assert main(["table4"]) == 0
        out = capsys.readouterr().out
        assert "Table IV" in out and "MISMATCH" not in out

    def test_table6_subset(self, capsys, tmp_path):
        path = tmp_path / "table6.json"
        code = main(["table6", "--scale", "0.05", "hmmer",
                     "--json", str(path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "a57-like" in out and "xeon-like" in out
        assert path.exists()

    def test_lru_subset(self, capsys):
        code = main(["lru", "--scale", "0.05", "hmmer"])
        out = capsys.readouterr().out
        assert code == 0
        assert "hmmer" in out and "no_update" in out


_GADGET_SOURCE = """\
li r1, 0
li r2, 0x2000
li r3, 8
bge r1, r3, done
load r4, r2
add r5, r4, r4
load r6, r5
done:
halt
"""

_CLEAN_SOURCE = "li r1, 5\naddi r1, r1, 2\nhalt\n"


class TestAnalyzeCommand:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["analyze", "prog.s"])
        assert args.window is None
        assert not args.verify and not args.fail_on_findings

    def test_analyze_finds_gadget(self, tmp_path, capsys):
        source = tmp_path / "gadget.s"
        source.write_text(_GADGET_SOURCE)
        code = main(["analyze", str(source)])
        out = capsys.readouterr().out
        assert code == 0
        assert "spectre-v1" in out and "suggested fence" in out

    def test_analyze_clean_program(self, tmp_path, capsys):
        source = tmp_path / "clean.s"
        source.write_text(_CLEAN_SOURCE)
        code = main(["analyze", str(source), "--fail-on-findings"])
        out = capsys.readouterr().out
        assert code == 0
        assert "no speculative gadgets" in out

    def test_fail_on_findings_exits_nonzero(self, tmp_path, capsys):
        source = tmp_path / "gadget.s"
        source.write_text(_GADGET_SOURCE)
        assert main(["analyze", str(source), "--fail-on-findings"]) == 1

    def test_analyze_json_export(self, tmp_path, capsys):
        import json
        source = tmp_path / "gadget.s"
        source.write_text(_GADGET_SOURCE)
        out_json = tmp_path / "report.json"
        code = main(["analyze", str(source), "--json", str(out_json)])
        assert code == 0
        data = json.loads(out_json.read_text())
        assert data["findings"][0]["kind"] == "spectre-v1"

    def test_analyze_verify(self, tmp_path, capsys):
        source = tmp_path / "gadget.s"
        source.write_text(_GADGET_SOURCE)
        code = main(["analyze", str(source), "--verify",
                     "--machine", "tiny"])
        out = capsys.readouterr().out
        assert code == 0
        assert "cross-validation" in out and "100%" in out

    def test_analyze_json_matches_golden_schema(self, tmp_path):
        # golden-file pin of the machine-readable report format: any
        # field change must bump SCHEMA_VERSION and regenerate
        # tests/data/analyze_golden.json
        import json
        import pathlib

        from repro.analysis import SCHEMA_VERSION

        golden_path = (pathlib.Path(__file__).parent
                       / "data" / "analyze_golden.json")
        golden = json.loads(golden_path.read_text())
        source = tmp_path / "gadget.s"
        source.write_text(_GADGET_SOURCE)
        out_json = tmp_path / "report.json"
        code = main(["analyze", str(source), "--window", "64",
                     "--refine", "--json", str(out_json)])
        assert code == 0
        produced = json.loads(out_json.read_text())
        # the program name embeds the (tmp) source path
        assert produced.pop("name").endswith("gadget.s")
        golden.pop("name")
        assert produced == golden
        assert produced["schema_version"] == SCHEMA_VERSION == 5

    def test_analyze_corpus_spec(self, capsys):
        code = main(["analyze", "corpus:v1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "spectre-v1" in out

    def test_analyze_corpus_bad_spec_rejected(self, capsys):
        assert main(["analyze", "corpus:nonesuch"]) == 2
        assert main(["analyze", "corpus:v1:bogus"]) == 2

    def test_analyze_refine_refutes_masked_corpus(self, capsys):
        code = main(["analyze", "corpus:v1:masked", "--refine",
                     "--fail-on-findings"])
        out = capsys.readouterr().out
        # the masked variant is flagged by the taint pass but refuted
        # by the value-set pass, so lint mode passes
        assert code == 0
        assert "REFUTED (in-bounds)" in out

    def test_analyze_fail_on_findings_uses_confirmed(self, capsys):
        assert main(["analyze", "corpus:v1", "--refine",
                     "--fail-on-findings"]) == 1

    def test_analyze_fix_synthesizes_and_verifies(self, tmp_path, capsys):
        import json
        out_json = tmp_path / "fix.json"
        code = main(["analyze", "corpus:v1", "--fix",
                     "--json", str(out_json)])
        out = capsys.readouterr().out
        assert code == 0
        assert "fence synthesis" in out
        assert "oracle equivalence: OK" in out
        doc = json.loads(out_json.read_text())
        assert doc["fence_synthesis"]["clean"]
        assert doc["fence_synthesis"]["fence_count"] >= 1

    def test_analyze_json_summarizes_the_program_once(self, tmp_path,
                                                      monkeypatch,
                                                      capsys):
        """The memdep block of ``--json`` reuses the summaries the
        refinement computed."""
        from repro.analysis import summaries

        calls = []
        summarize = summaries.summarize_program

        def counted(*args, **kwargs):
            calls.append(args)
            return summarize(*args, **kwargs)

        monkeypatch.setattr(summaries, "summarize_program", counted)
        out_json = tmp_path / "refined.json"
        assert main(["analyze", "corpus:v4", "--refine",
                     "--json", str(out_json)]) == 0
        assert json.loads(out_json.read_text())["findings"]
        assert len(calls) == 1

    def test_analyze_secret_flag_parses_hex(self):
        args = build_parser().parse_args(
            ["analyze", "p.s", "--secret", "0x10FC0", "--secret", "8"])
        assert args.secret == ["0x10FC0", "8"]

    def test_analyze_certify_leaky_corpus(self, tmp_path, capsys):
        import json
        out_json = tmp_path / "certified.json"
        code = main(["analyze", "corpus:v1", "--certify",
                     "--json", str(out_json)])
        out = capsys.readouterr().out
        assert code == 0
        assert "LEAKY" in out
        doc = json.loads(out_json.read_text())
        assert doc["schema_version"] == 5
        assert doc["certify"]["verdict"] == "LEAKY"
        certificates = [f["certificate"] for f in doc["findings"]
                        if "certificate" in f]
        assert certificates
        assert any(c["verdict"] == "LEAKY" for c in certificates)
        # v4: every certificate carries its summary provenance
        assert all("summary" in c for c in certificates)
        summary = certificates[0]["summary"]
        assert set(summary) == {"merged_paths", "summarized_loops",
                                "accelerated_loops", "summary_cache_hit"}


class TestCertifyCommand:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["certify", "corpus:v1"])
        assert args.programs == ["corpus:v1"]
        assert not args.fail_on_leak
        assert not args.no_replay

    def test_certify_fenced_corpus_proved_safe(self, capsys):
        code = main(["certify", "corpus:v1:fenced", "corpus:v4:fenced"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.count("PROVED_SAFE") >= 2

    def test_certify_fail_on_leak(self, tmp_path, capsys):
        import json
        out_json = tmp_path / "certify.json"
        code = main(["certify", "corpus:v4", "--fail-on-leak",
                     "--json", str(out_json)])
        out = capsys.readouterr().out
        assert code == 1
        assert "LEAKY" in out
        doc = json.loads(out_json.read_text())
        result = doc["results"][0]
        assert result["verdict"] == "LEAKY"
        assert result["leaks"][0]["replay"]["reproduced"] is True

    def test_certify_leaky_without_fail_flag_exits_zero(self, capsys):
        assert main(["certify", "corpus:rsb", "--no-replay"]) == 0


class TestFenceCommand:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["fence"])
        assert args.benchmarks == []
        assert args.scale == pytest.approx(0.3)
        assert args.window is None

    def test_fence_study_smoke(self, tmp_path, capsys):
        import json
        out_json = tmp_path / "fence.json"
        code = main(["fence", "hmmer", "--scale", "0.05",
                     "--machine", "tiny", "--json", str(out_json)])
        out = capsys.readouterr().out
        assert code == 0
        assert "fence study" in out and "hmmer" in out
        doc = json.loads(out_json.read_text())
        assert doc["modes"] == ["unsafe", "fence-all", "synthesized",
                                "cache-hit", "tpbuf"]
        names = {row["name"] for row in doc["rows"]}
        assert {"gadget-v1", "gadget-v2", "gadget-v4",
                "gadget-rsb", "hmmer"} <= names


class TestPrecisionCommand:
    def test_precision_study_smoke(self, tmp_path, capsys):
        import json

        from repro.analysis.corpus import CORPUS_VARIANTS, GADGET_KINDS
        out_json = tmp_path / "precision.json"
        code = main(["precision", "hmmer", "--scale", "0.05",
                     "--json", str(out_json)])
        out = capsys.readouterr().out
        assert code == 0
        assert "symx strictly stronger" in out
        doc = json.loads(out_json.read_text())
        assert [row["name"] for row in doc["rows"]] == [
            f"{kind}-{variant}" for kind in GADGET_KINDS
            for variant in CORPUS_VARIANTS] + ["hmmer"]
        assert (doc["fp_rate_before"], doc["fp_rate_after"],
                doc["fn_rate_before"], doc["fn_rate_after"]) \
            == (0.5, 0.0, 0.0, 0.0)


#: The cheapest invocation of each subcommand that takes ``--json``.
_JSON_INVOCATIONS = {
    "analyze": ["analyze", "corpus:v1"],
    "certify": ["certify", "corpus:v1:fenced"],
    "fence": ["fence", "hmmer", "--scale", "0.05", "--machine", "tiny"],
    "precision": ["precision", "hmmer", "--scale", "0.05"],
    "shootout": ["shootout", "bzip2", "--scale", "0.02", "--trials", "1",
                 "--no-evolve", "--defenses", "origin", "--attacks", "v1",
                 "--quiet"],
    "prescreen": ["prescreen", "--static-only", "--defenses", "origin",
                  "--attacks", "v1"],
    "fuzz diff": ["fuzz", "diff", "--count", "2"],
    "fuzz certify": ["fuzz", "certify", "--count", "2"],
    "fuzz evolve": ["fuzz", "evolve", "--generated-seeds", "0",
                    "--generations", "1", "--population", "1",
                    "--offspring", "1", "--modes", "origin"],
    "figure5": ["figure5", "--scale", "0.05", "hmmer"],
    "table5": ["table5", "--scale", "0.05", "hmmer"],
    "table6": ["table6", "--scale", "0.05", "hmmer"],
}


def _json_subcommands(parser=None, prefix=()):
    """Every (nested) subcommand whose parser accepts ``--json``."""
    parser = parser or build_parser()
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, child in action.choices.items():
                yield from _json_subcommands(child, (*prefix, name))
        elif "--json" in action.option_strings:
            yield " ".join(prefix)


@pytest.mark.parametrize("command", sorted(_json_subcommands()),
                         ids=lambda command: command.replace(" ", "-"))
def test_json_subcommand_writes_a_loadable_document(command, tmp_path,
                                                    capsys):
    assert command in _JSON_INVOCATIONS, \
        f"add the cheapest '{command}' invocation to _JSON_INVOCATIONS"
    path = tmp_path / "document.json"
    assert main([*_JSON_INVOCATIONS[command], "--json", str(path)]) == 0
    assert f"wrote {path}" in capsys.readouterr().out
    assert isinstance(json.loads(path.read_text()), dict)
