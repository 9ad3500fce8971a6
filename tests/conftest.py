"""Shared fixtures and helpers for the test suite."""
from __future__ import annotations

import importlib.util
import pathlib
import sys

import pytest

from repro import Processor, SecurityConfig, paper_config, tiny_config
from repro.isa.builder import ProgramBuilder


@pytest.fixture
def tiny():
    """A small, fast machine for unit-level pipeline tests."""
    return tiny_config()


@pytest.fixture
def paper():
    """The paper's Table III machine."""
    return paper_config()


@pytest.fixture
def builder():
    return ProgramBuilder()


def run_to_halt(program, machine=None, security=None, max_cycles=200_000,
                page_table=None):
    """Run a program to completion and return (processor, report)."""
    cpu = Processor(
        program,
        machine=machine or tiny_config(),
        security=security or SecurityConfig.origin(),
        page_table=page_table,
    )
    report = cpu.run(max_cycles=max_cycles)
    assert report.halted, "program did not reach HALT"
    return cpu, report


ALL_SECURITY_CONFIGS = [
    SecurityConfig.origin(),
    SecurityConfig.baseline(),
    SecurityConfig.cache_hit(),
    SecurityConfig.cache_hit_tpbuf(),
]


def load_tool(name):
    """``tools/<name>.py`` loaded as a module.  It is registered in
    ``sys.modules`` before it runs, because ``@dataclass`` resolves a
    module's postponed annotations through it."""
    path = pathlib.Path(__file__).resolve().parent.parent / "tools"
    spec = importlib.util.spec_from_file_location(name, path / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module
