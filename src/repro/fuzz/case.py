"""Replayable fuzz regression cases.

Every disagreement a campaign finds is shrunk and persisted as a
:class:`FuzzCase` — a JSON file carrying the seed, the generator
config, the (minimized) program *as assembler text*, and the exact
repro command.  The regression suite replays every case in
``tests/data/fuzz_regressions/`` each run:

- ``expect="fixed"`` — the historical disagreement must *stay* fixed
  (the check must come back clean now);
- ``expect="reproduces"`` — the case documents a known, accepted
  behaviour and must keep reproducing (used for pinned
  explained-precision gaps).

Program text, not pickles: the round-trip property
(:func:`repro.fuzz.differential.roundtrip_error`) is what makes this
storage format trustworthy.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from ..documents import write_json
from ..isa.assembler import assemble, disassemble
from ..isa.program import Program

#: Default location of pinned regression cases, relative to the repo.
REGRESSION_DIR = Path("tests") / "data" / "fuzz_regressions"

_SCHEMA = 1


@dataclass
class FuzzCase:
    """One persisted, replayable fuzz finding."""

    case_id: str
    #: "diff_mismatch" | "certify_disagreement" | "evolve_survivor"
    kind: str
    seed: str
    source: str                      # assembler text of the program
    base_address: int = 0x1000
    secret_words: Tuple[int, ...] = ()
    modes: Tuple[str, ...] = ()
    config: Dict[str, object] = field(default_factory=dict)
    #: Human-readable description of the original disagreement.
    details: str = ""
    #: Shell command that reproduces the original finding.
    repro: str = ""
    #: "fixed" — check must now pass; "reproduces" — must still fire.
    expect: str = "fixed"

    def program(self) -> Program:
        return assemble(self.source, base_address=self.base_address)

    def to_dict(self) -> Dict[str, object]:
        return {
            "schema": _SCHEMA,
            "case_id": self.case_id,
            "kind": self.kind,
            "seed": self.seed,
            "source": self.source,
            "base_address": self.base_address,
            "secret_words": list(self.secret_words),
            "modes": list(self.modes),
            "config": self.config,
            "details": self.details,
            "repro": self.repro,
            "expect": self.expect,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "FuzzCase":
        def ints(key: str) -> Tuple[int, ...]:
            raw = data.get(key, [])
            assert isinstance(raw, list)
            return tuple(int(v) for v in raw)

        modes_raw = data.get("modes", [])
        assert isinstance(modes_raw, list)
        config = data.get("config", {})
        assert isinstance(config, dict)
        return cls(
            case_id=str(data["case_id"]),
            kind=str(data["kind"]),
            seed=str(data["seed"]),
            source=str(data["source"]),
            base_address=int(data.get("base_address", 0x1000)),  # type: ignore[arg-type]
            secret_words=ints("secret_words"),
            modes=tuple(str(m) for m in modes_raw),
            config=config,
            details=str(data.get("details", "")),
            repro=str(data.get("repro", "")),
            expect=str(data.get("expect", "fixed")),
        )

    def save(self, directory: Path) -> Path:
        directory.mkdir(parents=True, exist_ok=True)
        path = directory / f"{self.case_id}.json"
        write_json(path, self.to_dict())
        return path

    @classmethod
    def load(cls, path: Path) -> "FuzzCase":
        data = json.loads(path.read_text())
        assert isinstance(data, dict)
        return cls.from_dict(data)


def make_case(
    *,
    case_id: str,
    kind: str,
    seed: str,
    program: Program,
    secret_words: Tuple[int, ...] = (),
    modes: Tuple[str, ...] = (),
    config: Optional[Dict[str, object]] = None,
    details: str = "",
    repro: str = "",
    expect: str = "fixed",
) -> FuzzCase:
    """Build a :class:`FuzzCase` from a live :class:`Program`."""
    return FuzzCase(
        case_id=case_id,
        kind=kind,
        seed=seed,
        source=disassemble(program),
        base_address=program.base_address,
        secret_words=secret_words,
        modes=modes,
        config=dict(config or {}),
        details=details,
        repro=repro,
        expect=expect,
    )


def load_cases(directory: Path = REGRESSION_DIR) -> List[FuzzCase]:
    """All pinned cases under ``directory``, sorted by file name."""
    if not directory.is_dir():
        return []
    return [FuzzCase.load(path)
            for path in sorted(directory.glob("*.json"))]


def case_fires(case: FuzzCase) -> bool:
    """Re-run the check a :class:`FuzzCase` documents.

    Returns whether the original disagreement/leak *fires* today.
    The regression suite asserts ``case_fires(c) == (c.expect ==
    "reproduces")`` for every pinned case: a ``"fixed"`` case firing
    again is a regression, a ``"reproduces"`` case going quiet means
    the pinned behaviour silently changed.
    """
    program = case.program()
    if case.kind == "diff_mismatch":
        from .differential import differential_check
        outcome = differential_check(
            program, modes=case.modes or ("origin",))
        return outcome.valid and not outcome.clean
    if case.kind == "certify_disagreement":
        from .agreement import certify_agreement
        agreement = certify_agreement(program, case.secret_words)
        return agreement is not None and not agreement.clean
    if case.kind == "evolve_survivor":
        from .evolve import leak_fitness
        mode = case.modes[0] if case.modes else "origin"
        fitness = leak_fitness(program, case.secret_words, mode,
                               warm_words=case.secret_words)
        return bool(fitness)
    raise ValueError(f"unknown FuzzCase kind {case.kind!r}")
