"""Differential fuzzing of the simulator and its static-analysis stack.

Three adversarial loops validate the taint/valueset/symx tiers
against the cycle-level simulator as ground truth (ROADMAP item 3):

- :mod:`generator` — seeded, constrained random programs over the
  full ISA, always-terminating by construction;
- :mod:`differential` — OoO-core-vs-in-order-oracle architectural
  equivalence under every protection mode, plus the
  ``assemble(disassemble(p))`` round-trip property;
- :mod:`agreement` — symx verdicts cross-checked against dynamic
  two-secret reality (PROVED_SAFE soundness, witness reproduction,
  tier ordering);
- :mod:`evolve` — mutation search for S-Pattern variants that leak
  through a defense mode;
- :mod:`minimize` — deterministic delta-debugging shrinker;
- :mod:`case` — replayable pinned regression cases;
- :mod:`campaign` — seeded sweeps with crash-safe JSONL checkpoints.
"""
from .agreement import (
    AgreementOutcome,
    Disagreement,
    certify_agreement,
    two_secret_probe,
)
from .campaign import (
    CampaignResult,
    ingest_survivors,
    run_certify_campaign,
    run_diff_campaign,
    run_evolve_campaign,
)
from .case import (
    REGRESSION_DIR,
    FuzzCase,
    case_fires,
    load_cases,
    make_case,
)
from .differential import (
    ALL_MODES,
    DiffOutcome,
    Mismatch,
    compare_with_oracle,
    differential_check,
    roundtrip_error,
)
from .evolve import (
    EvolveReport,
    StagedSeed,
    evolve_mode,
    leak_fitness,
    minimize_survivor,
    mutate,
    staged_seed,
)
from .generator import (
    GeneratedProgram,
    GeneratorConfig,
    case_seed,
    generate_program,
)
from .minimize import MinimizeResult, minimize_program, strip_nops

__all__ = [
    "ALL_MODES",
    "REGRESSION_DIR",
    "AgreementOutcome",
    "CampaignResult",
    "DiffOutcome",
    "Disagreement",
    "EvolveReport",
    "FuzzCase",
    "GeneratedProgram",
    "GeneratorConfig",
    "MinimizeResult",
    "Mismatch",
    "StagedSeed",
    "case_fires",
    "case_seed",
    "certify_agreement",
    "compare_with_oracle",
    "differential_check",
    "evolve_mode",
    "generate_program",
    "ingest_survivors",
    "leak_fitness",
    "load_cases",
    "make_case",
    "minimize_program",
    "minimize_survivor",
    "mutate",
    "roundtrip_error",
    "run_certify_campaign",
    "run_diff_campaign",
    "run_evolve_campaign",
    "staged_seed",
    "strip_nops",
    "two_secret_probe",
]
