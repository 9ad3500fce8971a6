"""Fuzz campaigns: seeded sweeps with crash-safe checkpoints.

A campaign is a deterministic function of its master seed: case ``i``
draws from ``random.Random(case_seed(master, i))``, so any single
case replays in isolation and an interrupted campaign resumes without
re-running finished cases.  Checkpointing reuses the fsync'd JSONL
:class:`~repro.robustness.checkpoint.CheckpointStore` from the
robustness sweeps (single writer, last-record-wins, header-validated
resume).

Three campaign kinds mirror the three oracles:

- :func:`run_diff_campaign` — generator → OoO-vs-oracle differential
  (+ the assemble/disassemble round-trip property) under every
  registered defense;
- :func:`run_certify_campaign` — generator (secret mode) → symx
  verdict vs dynamic two-secret reality;
- :func:`run_evolve_campaign` — staged corpus gadgets and leaky
  generated seeds evolved against each of the paper's defenses (the
  shootout's evolve leg covers the rest of the registry).

Disagreements are minimized on the spot and persisted as replayable
:class:`~repro.fuzz.case.FuzzCase` files.
"""
from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Sequence, \
    Tuple

from ..analysis.corpus import GADGET_KINDS, IngestedGadget, \
    build_corpus_variant, corpus_secret_words, register_ingested_gadget
from ..core.defense import PAPER_DEFENSES
from ..isa.assembler import disassemble
from ..isa.program import Program
from ..params import MachineParams, tiny_config
from ..robustness.checkpoint import CheckpointStore
from .agreement import certify_agreement
from .case import FuzzCase, make_case
from .differential import ALL_MODES, differential_check
from .evolve import EvolveReport, evolve_mode, leak_fitness, \
    minimize_survivor, staged_seed
from .generator import GeneratorConfig, case_seed, generate_program
from .minimize import minimize_program

ProgressFn = Callable[[str], None]


def _no_progress(message: str) -> None:
    del message


@dataclass
class CampaignResult:
    """Aggregated outcome of one campaign run."""

    kind: str
    master_seed: str
    cases: int = 0
    invalid: int = 0
    #: Diff: mismatching programs.  Certify: real disagreements.
    disagreements: int = 0
    #: Certify only: excused non-reproducing witnesses.
    explained: int = 0
    verdicts: Dict[str, int] = field(default_factory=dict)
    #: Paths of FuzzCase files written for disagreements.
    pinned: List[str] = field(default_factory=list)
    #: Evolve only: per-(seed, mode) reports.
    evolve: List[EvolveReport] = field(default_factory=list)
    resumed: int = 0
    duration_s: float = 0.0

    @property
    def clean(self) -> bool:
        return self.disagreements == 0

    def to_dict(self) -> Dict[str, object]:
        return {
            "kind": self.kind,
            "master_seed": self.master_seed,
            "cases": self.cases,
            "invalid": self.invalid,
            "disagreements": self.disagreements,
            "explained": self.explained,
            "verdicts": dict(self.verdicts),
            "pinned": list(self.pinned),
            "evolve": [report.to_dict() for report in self.evolve],
            "resumed": self.resumed,
            "duration_s": round(self.duration_s, 2),
        }


def _json_round_trip(config: Dict[str, object]) -> Dict[str, object]:
    loaded = json.loads(json.dumps(config))
    assert isinstance(loaded, dict)
    return loaded


def _open_store(
    path: Optional[Path],
    config: Dict[str, object],
    resume: bool,
) -> Tuple[Optional[CheckpointStore], Dict[str, Dict[str, object]]]:
    if path is None:
        return None, {}
    store = CheckpointStore(str(path))
    store.acquire_writer()
    done: Dict[str, Dict[str, object]] = {}
    if resume and store.exists():
        header, rows = store.load()
        # ``load`` returns the header's config dict; resuming under a
        # different campaign config restarts from scratch.
        if header == _json_round_trip(config):
            done = dict(rows)
        else:
            store.reset(config=config)
    else:
        store.reset(config=config)
    return store, done


def _close_store(store: Optional[CheckpointStore]) -> None:
    if store is not None:
        store.release_writer()


def _pin(
    result: CampaignResult,
    regressions: Optional[Path],
    case: FuzzCase,
) -> None:
    if regressions is None:
        return
    path = case.save(regressions)
    result.pinned.append(str(path))


def run_diff_campaign(
    master_seed: str,
    count: int,
    *,
    config: Optional[GeneratorConfig] = None,
    modes: Sequence[str] = ALL_MODES,
    machine: Optional[MachineParams] = None,
    checkpoint: Optional[Path] = None,
    resume: bool = True,
    minimize: bool = True,
    regressions: Optional[Path] = None,
    progress: ProgressFn = _no_progress,
) -> CampaignResult:
    """Differential sweep: ``count`` generated programs, each checked
    OoO-vs-oracle under every mode plus the round-trip property."""
    started = time.perf_counter()
    config = config if config is not None else GeneratorConfig()
    machine = machine if machine is not None else tiny_config()
    store_config: Dict[str, object] = {
        "campaign": "diff", "seed": master_seed, "count": count,
        "modes": list(modes), "generator": config.to_dict(),
    }
    store, done = _open_store(checkpoint, store_config, resume)
    result = CampaignResult(kind="diff", master_seed=master_seed)
    try:
        for index in range(count):
            key = f"case/{index}"
            if key in done:
                result.resumed += 1
                result.cases += 1
                record = done[key]
                result.invalid += int(not record.get("valid", True))
                result.disagreements += int(
                    not record.get("clean", True)
                    and record.get("valid", True))
                continue
            seed = case_seed(master_seed, index)
            generated = generate_program(seed, config)
            outcome = differential_check(
                generated.program, modes=modes, machine=machine)
            result.cases += 1
            if not outcome.valid:
                result.invalid += 1
            elif not outcome.clean:
                result.disagreements += 1
                progress(f"[{index}] MISMATCH\n{outcome.render()}")
                program = generated.program
                if minimize:
                    def still_bad(candidate: Program) -> bool:
                        check = differential_check(
                            candidate, modes=modes, machine=machine)
                        return check.valid and not check.clean
                    program = minimize_program(
                        program, still_bad).program
                _pin(result, regressions, make_case(
                    case_id=f"diff_{_slug(seed)}",
                    kind="diff_mismatch",
                    seed=seed,
                    program=program,
                    modes=tuple(modes),
                    config=config.to_dict(),
                    details=outcome.render(),
                    repro=(f"repro fuzz diff --seed {master_seed!r} "
                           f"--count {count} --only {index}"),
                ))
            if store is not None:
                store.append(key, {
                    "valid": outcome.valid, "clean": outcome.clean,
                    "retired": outcome.oracle_retired,
                })
    finally:
        _close_store(store)
    result.duration_s = time.perf_counter() - started
    return result


def run_certify_campaign(
    master_seed: str,
    count: int,
    *,
    config: Optional[GeneratorConfig] = None,
    machine: Optional[MachineParams] = None,
    checkpoint: Optional[Path] = None,
    resume: bool = True,
    minimize: bool = True,
    regressions: Optional[Path] = None,
    progress: ProgressFn = _no_progress,
) -> CampaignResult:
    """Certifier-agreement sweep over secret-mode generated programs."""
    started = time.perf_counter()
    if config is None:
        config = GeneratorConfig(secret=True, length=20, loops=False)
    machine = machine if machine is not None else tiny_config()
    store_config: Dict[str, object] = {
        "campaign": "certify", "seed": master_seed, "count": count,
        "generator": config.to_dict(),
    }
    store, done = _open_store(checkpoint, store_config, resume)
    result = CampaignResult(kind="certify", master_seed=master_seed)
    try:
        for index in range(count):
            key = f"case/{index}"
            if key in done:
                record = done[key]
                result.resumed += 1
                result.cases += 1
                verdict = str(record.get("verdict", "invalid"))
                result.verdicts[verdict] = \
                    result.verdicts.get(verdict, 0) + 1
                result.invalid += int(verdict == "invalid")
                result.disagreements += int(
                    not record.get("clean", True))
                result.explained += int(record.get("explained", 0))
                continue
            seed = case_seed(master_seed, index)
            generated = generate_program(seed, config)
            outcome = certify_agreement(
                generated.program, generated.secret_words,
                machine=machine, name=f"fuzz:{index}")
            result.cases += 1
            if outcome is None:
                result.invalid += 1
                result.verdicts["invalid"] = \
                    result.verdicts.get("invalid", 0) + 1
                if store is not None:
                    store.append(key, {"verdict": "invalid",
                                       "clean": True})
                continue
            result.verdicts[outcome.verdict] = \
                result.verdicts.get(outcome.verdict, 0) + 1
            result.explained += len(outcome.explained)
            if not outcome.clean:
                result.disagreements += 1
                detail = "; ".join(d.render()
                                   for d in outcome.disagreements)
                progress(f"[{index}] DISAGREEMENT {detail}")
                program = generated.program
                if minimize:
                    def still_bad(candidate: Program) -> bool:
                        check = certify_agreement(
                            candidate, generated.secret_words,
                            machine=machine)
                        return check is not None and not check.clean
                    program = minimize_program(
                        program, still_bad).program
                _pin(result, regressions, make_case(
                    case_id=f"certify_{_slug(seed)}",
                    kind="certify_disagreement",
                    seed=seed,
                    program=program,
                    secret_words=generated.secret_words,
                    config=config.to_dict(),
                    details=detail,
                    repro=(f"repro fuzz certify --seed {master_seed!r}"
                           f" --count {count} --only {index}"),
                ))
            if store is not None:
                store.append(key, {
                    "verdict": outcome.verdict,
                    "clean": outcome.clean,
                    "explained": len(outcome.explained),
                })
    finally:
        _close_store(store)
    result.duration_s = time.perf_counter() - started
    return result


def _evolve_seeds(
    master_seed: str,
    generated_seeds: int,
    config: GeneratorConfig,
    machine: MachineParams,
) -> List[Tuple[str, Program, Tuple[int, ...], Tuple[int, ...]]]:
    """Corpus gadgets (witness-staged) plus dynamically leaky
    generated programs, as (name, program, secrets, warm) tuples."""
    seeds: List[Tuple[str, Program, Tuple[int, ...], Tuple[int, ...]]] = []
    for kind in GADGET_KINDS:
        program = build_corpus_variant(kind, "unsafe")
        staged = staged_seed(f"{kind}/unsafe", program,
                             corpus_secret_words(), machine=machine)
        if staged is None:
            continue
        fitness = leak_fitness(staged.program, staged.secret_words,
                               "origin", machine=machine,
                               warm_words=staged.warm_words)
        if fitness:
            seeds.append((staged.name, staged.program,
                          staged.secret_words, staged.warm_words))
    found = 0
    index = 0
    while found < generated_seeds and index < generated_seeds * 50:
        seed = case_seed(master_seed, index)
        index += 1
        generated = generate_program(seed, config)
        if not generated.expected_leaky:
            continue
        fitness = leak_fitness(
            generated.program, generated.secret_words, "origin",
            machine=machine, warm_words=generated.secret_words)
        if fitness:
            seeds.append((f"gen:{seed}", generated.program,
                          generated.secret_words,
                          generated.secret_words))
            found += 1
    return seeds


def run_evolve_campaign(
    master_seed: str,
    *,
    modes: Sequence[str] = PAPER_DEFENSES,
    generated_seeds: int = 2,
    generations: int = 6,
    population: int = 5,
    offspring: int = 3,
    config: Optional[GeneratorConfig] = None,
    machine: Optional[MachineParams] = None,
    regressions: Optional[Path] = None,
    progress: ProgressFn = _no_progress,
) -> Tuple[CampaignResult, List[FuzzCase]]:
    """Evolve gadget variants against each mode; returns the campaign
    result plus FuzzCases for verified survivors (the caller ingests
    them with :func:`ingest_survivors`)."""
    started = time.perf_counter()
    if config is None:
        config = GeneratorConfig(secret=True, length=22, loops=False)
    machine = machine if machine is not None else tiny_config()
    result = CampaignResult(kind="evolve", master_seed=master_seed)
    survivors: List[FuzzCase] = []
    seeds = _evolve_seeds(master_seed, generated_seeds, config, machine)
    for name, program, secrets, warm in seeds:
        for mode in modes:
            rng = random.Random(f"{master_seed}:evolve:{name}:{mode}")
            report = evolve_mode(
                program, secrets, mode, rng,
                seed_name=name, generations=generations,
                population=population, offspring=offspring,
                machine=machine, disassemble=disassemble,
                warm_words=warm)
            result.cases += 1
            result.evolve.append(report)
            progress(f"{name} vs {mode}: best={report.best_fitness} "
                     f"survivor={report.survivor}")
            if report.survivor and report.verified:
                result.disagreements += 1
                shrunk = minimize_survivor(
                    assembleable(report.best_source, program),
                    secrets, mode, machine=machine, warm_words=warm)
                report.minimized_instructions = \
                    shrunk.instructions_after
                case = make_case(
                    case_id=f"evolve_{_slug(name)}_{mode}",
                    kind="evolve_survivor",
                    seed=master_seed,
                    program=shrunk.program,
                    secret_words=secrets,
                    modes=(mode,),
                    config=config.to_dict(),
                    details=(f"leaks {report.best_fitness} line(s) "
                             f"under {mode}"),
                    repro=(f"repro fuzz evolve --seed "
                           f"{master_seed!r} --modes {mode}"),
                    expect="reproduces",
                )
                survivors.append(case)
                _pin(result, regressions, case)
    result.duration_s = time.perf_counter() - started
    return result, survivors


def ingest_survivors(survivors: Iterable[FuzzCase]) -> None:
    """Register verified evolve survivors as labelled gadgets of the
    analysis corpus, so the precision study measures them."""
    for case in survivors:
        register_ingested_gadget(IngestedGadget(
            name=case.case_id, source=case.source,
            base_address=case.base_address, is_gadget=True,
            secret_words=case.secret_words,
            origin=f"fuzz-evolve:{','.join(case.modes)}"))


def assembleable(source: str, fallback: Program) -> Program:
    """Reassemble evolve output (it was produced by ``disassemble``);
    fall back to the unmutated seed if the text is empty."""
    if not source:
        return fallback
    from ..isa.assembler import assemble
    return assemble(source, base_address=fallback.base_address)


def _slug(text: str) -> str:
    return "".join(ch if ch.isalnum() else "_" for ch in text)
