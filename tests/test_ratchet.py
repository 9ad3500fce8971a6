"""The baseline ratchets of ``tools/ratchet.py``, on forged runs.

Every suite's run is stubbed with a document rebuilt from its committed
baseline, so no simulation happens: the clean document passes, and
each forged regression must fail with the documented exit status and
leave the baseline as it was.
"""
import dataclasses
import importlib.util
import json
import pathlib
import shutil
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "ratchet", ROOT / "tools" / "ratchet.py")
ratchet = importlib.util.module_from_spec(_spec)
# @dataclass resolves the module's postponed annotations through
# sys.modules, so the module must be registered before it runs.
sys.modules["ratchet"] = ratchet
_spec.loader.exec_module(ratchet)


def _row(document, name, key):
    [row] = [row for row in document["rows"] if row[key] == name]
    return row


def _clean_document(suite, baseline):
    """The run document that reproduces ``baseline`` exactly."""
    if suite == "bench":
        return dict(baseline)
    if suite == "precision":
        rows = [{"name": name, "group": group, "verdict": verdict}
                for group, verdicts in (("corpus", baseline["verdicts"]),
                                        ("spec", baseline["spec_verdicts"]))
                for name, verdict in verdicts.items()]
        return dict(baseline, rows=rows)
    rows = [{"defense": name, "trials": baseline["trials"][name],
             "recovered": recovered}
            for name, recovered in baseline["recovered"].items()]
    return {"attacks": baseline["attacks"], "rows": rows}


class Harness:
    """Committed baselines copied to a scratch dir, runs stubbed."""

    def __init__(self, tmp_path, monkeypatch):
        self.dir = tmp_path
        self.monkeypatch = monkeypatch
        for suite in ratchet.SUITES.values():
            shutil.copy(ROOT / "benchmarks" / suite.baseline, tmp_path)
        monkeypatch.setattr(ratchet, "BASELINE_DIR", str(tmp_path))

    def path(self, suite):
        return self.dir / ratchet.SUITES[suite].baseline

    def baseline(self, suite):
        return json.loads(self.path(suite).read_text())

    def write_baseline(self, suite, data):
        self.path(suite).write_text(json.dumps(data))

    def document(self, suite):
        return _clean_document(suite, self.baseline(suite))

    def main(self, suite, document, *flags):
        """``tools/ratchet.py suite flags...`` with the run stubbed."""
        self.monkeypatch.setitem(ratchet.SUITES, suite, dataclasses.replace(
            ratchet.SUITES[suite], run=lambda: document))
        return ratchet.main([suite, *flags])


@pytest.fixture
def harness(tmp_path, monkeypatch):
    return Harness(tmp_path, monkeypatch)


def _set(key, to):
    """Forge one top-level field of the run document."""
    def forge(document, baseline):
        document[key] = to(document[key])
    return forge


def _verdict(name, verdict):
    def forge(document, baseline):
        _row(document, name, "name")["verdict"] = verdict
    return forge


def _leaks(defense, attack, count):
    def forge(document, baseline):
        _row(document, defense, "defense")["recovered"][attack] = count
    return forge


def _drop(name, key):
    def forge(document, baseline):
        document["rows"].remove(_row(document, name, key))
    return forge


def _baseline_row(defense, add):
    def forge(document, baseline):
        for table in ("trials", "recovered"):
            if add:
                baseline[table][defense] = dict(baseline[table]["origin"])
            else:
                del baseline[table][defense]
    return forge


#: Breaches that fail whatever the baseline says, --write-baseline too.
PIN_BREACHES = [
    pytest.param("bench", _set("deterministic", to=lambda _: False),
                 "diverged from serial rows", id="bench-nondeterministic"),
    pytest.param("bench", _set("failures", to=lambda _: 3),
                 "3 sweep row(s) failed", id="bench-failed-rows"),
    pytest.param("precision",
                 _set("symx_strictly_stronger", to=lambda _: False),
                 "no longer strictly stronger", id="precision-no-tier-gain"),
    pytest.param("shootout", _leaks("origin", "v2", 0),
                 "origin positive control stopped leaking on v2",
                 id="shootout-origin-silent"),
    pytest.param("shootout", _drop("stt", "defense"),
                 "registered defense 'stt' missing from the run",
                 id="shootout-defense-missing"),
    pytest.param("shootout", _leaks("eager_delay", "v4", 0),
                 "eager_delay: the documented V4 blind-spot leak "
                 "disappeared", id="shootout-blind-spot-closed"),
    pytest.param("shootout", _leaks("delay_on_miss_ss", "v4", 1),
                 "delay_on_miss_ss: must block every attack",
                 id="shootout-closure-leaks"),
]

#: Regressions against the committed baseline.
REGRESSIONS = [
    pytest.param("bench",
                 _set("instructions_per_sec", to=lambda ips: ips * 0.79),
                 "simulated-instructions/sec regressed",
                 id="bench-throughput-below-floor"),
    pytest.param("precision", _set("unknown_count", to=lambda n: n + 1),
                 "UNKNOWN count rose", id="precision-unknown-rises"),
    pytest.param("precision", _verdict("v1-unsafe", "PROVED_SAFE"),
                 "corpus verdict changed: v1-unsafe LEAKY -> PROVED_SAFE",
                 id="precision-verdict-flips"),
    pytest.param("precision", _drop("v4-fenced", "name"),
                 "pinned corpus row vanished: v4-fenced",
                 id="precision-verdict-vanishes"),
    pytest.param("shootout", _leaks("cache_hit_tpbuf", "v1", 1),
                 "cache_hit_tpbuf: leaks more on v1 than the baseline "
                 "allows (1 > 0)", id="shootout-above-ceiling"),
    pytest.param("shootout", _baseline_row("retired", add=True),
                 "baseline row 'retired' is no longer registered",
                 id="shootout-baseline-row-unregistered"),
    pytest.param("shootout", _baseline_row("slh", add=False),
                 "defense 'slh' has no committed baseline row",
                 id="shootout-no-baseline-row"),
]


class TestForgedRuns:
    @pytest.mark.parametrize("suite", ["bench", "precision", "shootout"])
    def test_clean_run_passes_and_leaves_the_baseline(self, harness,
                                                      suite):
        before = harness.path(suite).read_bytes()
        assert harness.main(suite, harness.document(suite)) == 0
        assert harness.path(suite).read_bytes() == before

    @pytest.mark.parametrize("suite,forge,message",
                             PIN_BREACHES + REGRESSIONS)
    def test_regression_fails(self, harness, capsys, suite, forge,
                              message):
        document, baseline = harness.document(suite), harness.baseline(suite)
        forge(document, baseline)
        harness.write_baseline(suite, baseline)
        before = harness.path(suite).read_bytes()
        assert harness.main(suite, document) == 1
        assert message in capsys.readouterr().err
        assert harness.path(suite).read_bytes() == before

    @pytest.mark.parametrize("suite,forge,message", PIN_BREACHES)
    def test_write_baseline_never_records_a_pin_breach(
            self, harness, capsys, suite, forge, message):
        document = harness.document(suite)
        forge(document, harness.baseline(suite))
        before = harness.path(suite).read_bytes()
        assert harness.main(suite, document, "--write-baseline") == 1
        assert message in capsys.readouterr().err
        assert harness.path(suite).read_bytes() == before

    @pytest.mark.parametrize("suite", ["bench", "precision", "shootout"])
    def test_write_baseline_reproduces_the_committed_file(self, harness,
                                                          suite):
        committed = harness.path(suite).read_bytes()
        document = harness.document(suite)
        harness.path(suite).unlink()
        assert harness.main(suite, document, "--write-baseline") == 0
        assert harness.path(suite).read_bytes() == committed

    @pytest.mark.parametrize("suite", ["bench", "precision", "shootout"])
    def test_missing_or_foreign_baseline_exits_2(self, harness, suite):
        def no_run():
            raise AssertionError("a suite without a baseline must not run")

        harness.monkeypatch.setitem(ratchet.SUITES, suite, dataclasses.replace(
            ratchet.SUITES[suite], run=no_run))
        harness.write_baseline(suite, dict(harness.baseline(suite),
                                           format="something-else"))
        assert ratchet.main([suite]) == 2
        harness.path(suite).unlink()
        assert ratchet.main([suite]) == 2

    def test_out_keeps_each_full_run(self, harness, tmp_path):
        document = harness.document("shootout")
        out = tmp_path / "runs"
        assert harness.main("shootout", document, "--out", str(out)) == 0
        assert json.loads((out / "shootout.json").read_text()) == document

    def test_unknown_suite_is_a_usage_error(self):
        with pytest.raises(SystemExit) as exit_info:
            ratchet.main(["nonesuch"])
        assert exit_info.value.code == 2


class TestBench:
    def _run(self, harness, ips, **fields):
        return dict(harness.document("bench"), instructions_per_sec=ips,
                    **fields)

    def test_check_regression(self, harness):
        floor = harness.baseline("bench")["instructions_per_sec"] * 0.8
        assert harness.main("bench", self._run(harness, floor)) == 0
        assert harness.main("bench", self._run(harness, floor - 1)) == 1

    def test_should_raise_floor_ratchet(self, harness):
        base = harness.baseline("bench")["instructions_per_sec"]
        before = harness.path("bench").read_bytes()
        # >10% improvement raises the floor; anything at or below the
        # margin is noise and leaves the file alone
        for ips in (base * 1.1, base * 1.05, base * 0.9):
            assert harness.main("bench", self._run(harness, ips),
                                "--raise-floor") == 0
            assert harness.path("bench").read_bytes() == before
        # a fast-but-broken run never becomes the new bar
        for broken in ({"deterministic": False}, {"failures": 1}):
            assert harness.main("bench",
                                self._run(harness, base * 2, **broken),
                                "--raise-floor") == 1
            assert harness.path("bench").read_bytes() == before
        assert harness.main("bench", self._run(harness, base * 1.1 + 1),
                            "--raise-floor") == 0
        assert (harness.baseline("bench")["instructions_per_sec"]
                == base * 1.1 + 1)

    def test_bench_tool_raise_floor_rewrites_baseline(self, harness):
        # an artificially slow baseline is ratcheted up to the run
        measured = harness.document("bench")
        harness.write_baseline("bench",
                               dict(measured, instructions_per_sec=1.0))
        assert harness.main("bench", measured, "--raise-floor") == 0
        assert harness.baseline("bench") == measured


class TestRaiseFloor:
    def test_precision_rewrites_only_on_fewer_unknowns(self, harness):
        # the same UNKNOWN count with other figures moved is no gain
        document = harness.document("precision")
        document["summaries"] = dict(document["summaries"], merged_paths=1)
        before = harness.path("precision").read_bytes()
        assert harness.main("precision", document, "--raise-floor") == 0
        assert harness.path("precision").read_bytes() == before
        harness.write_baseline("precision", dict(
            harness.baseline("precision"),
            unknown_count=document["unknown_count"] + 1))
        assert harness.main("precision", document, "--raise-floor") == 0
        raised = harness.baseline("precision")
        assert raised["unknown_count"] == document["unknown_count"]
        assert raised["summaries"]["merged_paths"] == 1

    def test_shootout_never_rewrites(self, harness):
        before = harness.path("shootout").read_bytes()
        assert harness.main("shootout", harness.document("shootout"),
                            "--raise-floor") == 0
        assert harness.path("shootout").read_bytes() == before
