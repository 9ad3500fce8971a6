"""Robustness subsystem: fault injection, forward-progress watchdog
and the fault-campaign driver.

The paper's security argument rests on the pipeline behaving correctly
under *adverse* speculation — squash storms, delayed fills, mispredicted
memory dependences — not just on the happy path the performance sweeps
exercise.  This package supplies the machinery to create those corner
cases on demand and to prove the machine survives them:

- :mod:`faults` — a seeded, deterministic :class:`FaultInjector` that
  the :class:`~repro.pipeline.processor.Processor` consults at its
  speculation decision points
  (``Processor(options=RunOptions(fault_plan=...))``);
- :mod:`watchdog` — the livelock/deadlock detector behind
  :class:`~repro.errors.DeadlockError`, with occupancy snapshots and a
  structured diagnostic dump;
- :mod:`checkpoint` — the JSON-lines checkpoint store the crash-safe
  sweep engine (:mod:`repro.experiments.runner`) persists to;
- :mod:`campaign` — runs programs under injection with the functional
  oracle and the structural invariant lint as referees, the engine
  behind ``tools/fault_campaign.py``.
"""
from .campaign import (
    CampaignCase,
    CampaignCaseResult,
    CampaignResult,
    gadget_cases,
    run_campaign,
    run_fault_case,
    spec_cases,
)
from .checkpoint import CheckpointStore
from .faults import FAULT_KINDS, FaultEvent, FaultInjector, FaultPlan
from .watchdog import (
    DEFAULT_WATCHDOG_CYCLES,
    DeadlockDiagnostics,
    ForwardProgressWatchdog,
    OccupancySnapshot,
)

__all__ = [
    "FAULT_KINDS",
    "FaultEvent",
    "FaultInjector",
    "FaultPlan",
    "DEFAULT_WATCHDOG_CYCLES",
    "DeadlockDiagnostics",
    "ForwardProgressWatchdog",
    "OccupancySnapshot",
    "CheckpointStore",
    "CampaignCase",
    "CampaignCaseResult",
    "CampaignResult",
    "gadget_cases",
    "spec_cases",
    "run_campaign",
    "run_fault_case",
]
