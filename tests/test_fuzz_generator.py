"""Generator invariants: determinism, termination, round-trip."""
from __future__ import annotations

import pytest

from repro.analysis.corpus import GADGET_KINDS, build_gadget_program
from repro.fuzz import (
    GeneratorConfig,
    case_seed,
    differential_check,
    generate_program,
    roundtrip_error,
)
from repro.isa.assembler import assemble, disassemble
from repro.isa.oracle import run_oracle


def test_same_seed_same_program():
    a = generate_program("det-check")
    b = generate_program("det-check")
    assert a.program.instructions == b.program.instructions
    assert a.program.labels == b.program.labels
    assert a.program.initial_memory == b.program.initial_memory


def test_different_seeds_differ():
    a = generate_program(case_seed("s", 0))
    b = generate_program(case_seed("s", 1))
    assert a.program.instructions != b.program.instructions


@pytest.mark.parametrize("config", [
    GeneratorConfig(),
    GeneratorConfig(loops=False, calls=False, jmpi=False),
    GeneratorConfig(length=40, max_loop_iterations=5),
    GeneratorConfig(secret=True, length=20, loops=False),
])
def test_always_terminates(config):
    for index in range(40):
        generated = generate_program(case_seed("halt", index), config)
        result = run_oracle(generated.program, max_instructions=200_000)
        assert result.halted, f"seed halt:{index} did not halt"


def test_roundtrip_property():
    for index in range(60):
        generated = generate_program(case_seed("rt", index))
        assert roundtrip_error(generated.program) == ""


def test_roundtrip_rebuilds_oracle_state():
    generated = generate_program("rt-state")
    text = disassemble(generated.program)
    rebuilt = assemble(text,
                       base_address=generated.program.base_address)
    a = run_oracle(generated.program, max_instructions=200_000)
    b = run_oracle(rebuilt, max_instructions=200_000)
    assert a.registers == b.registers
    assert a.memory == b.memory
    assert a.retired == b.retired


def test_secret_mode_declares_secret():
    config = GeneratorConfig(secret=True, loops=False)
    generated = generate_program("secret-decl", config)
    assert generated.secret_words == (config.secret_addr,)
    assert config.secret_addr in generated.program.initial_memory


def test_config_dict_roundtrip():
    config = GeneratorConfig(secret=True, length=33, jmpi=False)
    assert GeneratorConfig.from_dict(config.to_dict()) == config


def test_differential_smoke():
    for index in range(20):
        generated = generate_program(case_seed("diffsmoke", index))
        outcome = differential_check(generated.program)
        assert outcome.valid
        assert outcome.clean, outcome.render()


@pytest.mark.parametrize("kind", GADGET_KINDS)
def test_slh_gadgets_agree_with_oracle(kind):
    """The oracle referees the program ``slh`` rewrote (fences move
    code and add retired instructions), not the original."""
    outcome = differential_check(build_gadget_program(kind),
                                 modes=("slh",))
    assert outcome.clean, outcome.render()
