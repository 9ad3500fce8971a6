"""Cycle-exactness golden test.

The hot-path optimizations (cached instruction flags, the big-integer
security matrix, incremental producer masks, the inlined issue loop)
must not move a single cycle: ``tests/data/cycles_golden.json`` pins
cycle counts and attack leakage verdicts captured from the unoptimized
simulator.  The full sweep lives in ``tools/cycles_golden.py``; this
tier-1 test re-runs a representative subset — every corpus gadget kind,
two SPEC profiles, and one end-to-end attack — under every registered
defense.
"""
import json
import os

import pytest

from repro.analysis.corpus import GADGET_KINDS, build_corpus_variant
from repro.attacks import build_spectre_v1, run_attack
from repro.core.defense import defense_names
from repro.core.policy import SecurityConfig
from repro.params import paper_config
from repro.pipeline.processor import Processor
from repro.workloads import spec_program

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "data",
                           "cycles_golden.json")
SPEC_SUBSET = ("bzip2", "mcf")


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN_PATH) as handle:
        data = json.load(handle)
    assert data["format"] == "repro-cycles-golden"
    return data


@pytest.fixture(scope="module")
def machine():
    return paper_config()


class TestCycleExactness:
    @pytest.mark.parametrize("kind", GADGET_KINDS)
    def test_corpus_gadgets(self, golden, machine, kind):
        expected = golden["corpus"][f"{kind}:unsafe"]
        program = build_corpus_variant(kind, "unsafe")
        for defense in defense_names():
            cpu = Processor(program, machine=machine,
                            security=SecurityConfig(defense))
            assert cpu.run().cycles == expected[defense], \
                f"{kind}:unsafe cycles drifted under {defense}"

    @pytest.mark.parametrize("name", SPEC_SUBSET)
    def test_spec_profiles(self, golden, machine, name):
        expected = golden["spec"][name]
        scale = golden["spec_scale"]
        for defense in defense_names():
            program = spec_program(name, scale=scale)
            cpu = Processor(program, machine=machine,
                            security=SecurityConfig(defense))
            assert cpu.run().cycles == expected[defense], \
                f"{name} cycles drifted under {defense}"

    def test_attack_cycles_and_verdicts(self, golden, machine):
        expected = golden["attacks"]["v1"]
        for defense in defense_names():
            attack = build_spectre_v1(machine=machine)
            result = run_attack(attack, machine=machine,
                                security=SecurityConfig(defense))
            assert result.report.cycles == \
                expected[defense]["cycles"], \
                f"v1 attack cycles drifted under {defense}"
            assert bool(result.success) == \
                expected[defense]["leaked"], \
                f"v1 leakage verdict flipped under {defense}"

    def test_golden_covers_full_matrix(self, golden):
        # The file itself must stay complete: all kinds x variants,
        # the whole SPEC suite, all five PoCs, every defense.
        assert len(golden["corpus"]) >= 12
        assert len(golden["spec"]) >= 20
        assert set(golden["attacks"]) == \
            {"v1", "v2", "v4", "rsb", "prime"}
        for section in ("corpus", "spec", "attacks"):
            for key, per_defense in golden[section].items():
                assert set(per_defense) == set(defense_names()), \
                    f"{section}/{key} does not pin every defense"
