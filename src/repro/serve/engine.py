"""Tiered analysis engine: answer at the best tier the budget affords.

The ladder (see :class:`repro.serve.protocol.Tier`):

``taint``
    :func:`repro.analysis.taint.analyze_program` — the static
    S-Pattern scan.  Milliseconds; never degrades.
``valueset``
    taint + :func:`repro.analysis.valueset.refine_report` — confirmed
    / refuted partition under value-set bounds.  Still synchronous.
``symx``
    :func:`repro.analysis.symx.certify_program` — the symbolic
    certifier, run under a wall-clock budget and a cooperative cancel
    hook.  When the budget expires (or the job is cancelled) the
    certifier returns ``UNKNOWN`` with a structured warning instead of
    hanging — and the engine *degrades*: it answers from the next tier
    down (valueset) with ``"degraded": true`` and the truncated symx
    verdict attached, so a client always gets an answer and always
    knows its provenance.

``simulate`` jobs run the pipeline with the same budgets.  A
fault-plan-poisoned run that deadlocks is caught
(:class:`~repro.errors.DeadlockError`) and reported as a degraded
result — the worker that ran it stays healthy.

Every result dict carries a ``"timing"`` key with wall-clock facts;
identity comparisons (the kill-resume test) strip it.

The engine is synchronous and thread-safe by construction (no shared
mutable state); the server calls it from executor threads.
"""
from __future__ import annotations

import threading
import time
import traceback
from typing import Callable, Dict, Optional

from ..analysis.summaries import SummaryCache, compute_program_summaries
from ..analysis.symx import certify_program
from ..analysis.taint import DEFAULT_WINDOW, analyze_program
from ..analysis.valueset import refine_report
from ..core.policy import SecurityConfig
from ..errors import DeadlockError, SimulationError
from ..params import MachineParams, RunOptions, preset
from ..pipeline.processor import Processor
from .protocol import JobKind, Submission, Tier

#: Default whole-job wall-clock budget (seconds) when the submission
#: does not set one.  Generous for the sync tiers, the real governor
#: for symx certification jobs.
DEFAULT_WALL_CLOCK = 20.0

#: Default simulation budgets: a service must never let one job spin
#: forever, so these are deliberately modest (clients raise them
#: explicitly when they mean it).
DEFAULT_MAX_CYCLES = 200_000
DEFAULT_WATCHDOG_CYCLES = 50_000


class AnalysisEngine:
    """Executes one :class:`Submission` at a time, degradation-aware."""

    def __init__(
        self,
        machine: Optional[MachineParams] = None,
        default_wall_clock: float = DEFAULT_WALL_CLOCK,
        default_max_cycles: int = DEFAULT_MAX_CYCLES,
        default_watchdog_cycles: int = DEFAULT_WATCHDOG_CYCLES,
        summary_cache: Optional[SummaryCache] = None,
    ) -> None:
        self.machine = machine or preset("tiny")
        self.default_wall_clock = default_wall_clock
        self.default_max_cycles = default_max_cycles
        self.default_watchdog_cycles = default_watchdog_cycles
        #: Region-granular summary tier (shared with the server's
        #: result cache): repeated submissions of the same code skip
        #: the CFG/loop analysis entirely — the summaries are keyed on
        #: a hash of the program's code, so even differently-named
        #: submissions of identical programs hit.
        self.summary_cache = summary_cache if summary_cache is not None \
            else SummaryCache()

    # ---- entry point ------------------------------------------------------

    def execute(
        self,
        submission: Submission,
        cancel: Optional[threading.Event] = None,
    ) -> Dict[str, object]:
        """Run one job to a result dict.  Never raises: any failure is
        folded into a ``"status": "error"`` result so one poisoned job
        cannot take a worker (or the server) down with it."""
        started = time.monotonic()
        try:
            if submission.kind is JobKind.SIMULATE:
                result = self._simulate(submission, cancel, started)
            else:
                result = self._analyze(submission, cancel, started)
        except SimulationError as exc:
            result = self._error_result(submission, exc, expected=True)
        except Exception as exc:  # noqa: BLE001 - per-job isolation
            result = self._error_result(submission, exc, expected=False)
        result["timing"] = {
            "wall_s": round(time.monotonic() - started, 6),
        }
        return result

    # ---- helpers ----------------------------------------------------------

    def _deadline(self, submission: Submission,
                  started: float) -> float:
        budget = submission.budgets.wall_clock
        if budget is None:
            budget = self.default_wall_clock
        return started + budget

    @staticmethod
    def _cancel_check(
        cancel: Optional[threading.Event],
    ) -> Optional[Callable[[], bool]]:
        return cancel.is_set if cancel is not None else None

    @staticmethod
    def _cancelled(cancel: Optional[threading.Event]) -> bool:
        return cancel is not None and cancel.is_set()

    def _error_result(self, submission: Submission, exc: Exception,
                      expected: bool) -> Dict[str, object]:
        result: Dict[str, object] = {
            "status": "error",
            "kind": submission.kind.value,
            "tier_requested": submission.tier.value,
            "name": submission.name,
            "error": {
                "type": type(exc).__name__,
                "message": str(exc),
            },
        }
        if not expected:
            # Unexpected failures keep a traceback for the operator
            # (structured, not a crashed worker).
            result["error"]["traceback"] = traceback.format_exc(limit=8)  # type: ignore[index]
        return result

    # ---- analyze ladder ---------------------------------------------------

    def _analyze(
        self,
        submission: Submission,
        cancel: Optional[threading.Event],
        started: float,
    ) -> Dict[str, object]:
        program = submission.program()
        deadline = self._deadline(submission, started)
        tier = submission.tier

        result: Dict[str, object] = {
            "status": "ok",
            "kind": "analyze",
            "name": submission.name,
            "tier_requested": tier.value,
            "degraded": False,
            "warnings": [],
        }

        # Floor tier: always computed (it feeds valueset and is the
        # answer of last resort).
        taint_report = analyze_program(program, name=submission.name)
        result["taint"] = taint_report.to_dict()
        result["tier_answered"] = Tier.TAINT.value

        if tier is Tier.TAINT:
            return result

        summaries = compute_program_summaries(
            program, window=DEFAULT_WINDOW, cache=self.summary_cache)
        refined = refine_report(
            program, taint_report,
            secret_words=submission.secret_words,
            summaries=summaries,
        )
        result["valueset"] = refined.to_dict()
        result["tier_answered"] = Tier.VALUESET.value

        if tier is Tier.VALUESET:
            return result

        # Top tier: symbolic certification under the remaining
        # wall-clock budget and the job's cancel hook.  If the cheap
        # tiers already spent the whole budget, certification is not
        # attempted at all — degrading here is the deterministic twin
        # of timing out two lines below.
        budgets = submission.budgets
        remaining = deadline - time.monotonic()
        if remaining <= 0 or self._cancelled(cancel):
            cause = "cancelled" if self._cancelled(cancel) \
                else "wall_clock"
            result["degraded"] = True
            result["tier_answered"] = Tier.VALUESET.value
            result["symx"] = {
                "verdict": "UNKNOWN",
                "truncated": True,
                "skipped": True,
                "warnings": [{
                    "kind": cause,
                    "detail": "budget exhausted before certification "
                              "could start",
                }],
            }
            result["warnings"] = [  # type: ignore[assignment]
                {
                    "kind": "degraded",
                    "from_tier": Tier.SYMX.value,
                    "to_tier": Tier.VALUESET.value,
                    "cause": [cause],
                }
            ]
            if self._cancelled(cancel):
                result["cancelled"] = True
            return result
        certify_kwargs: Dict[str, object] = {
            "secret_words": submission.secret_words,
            "name": submission.name,
            "wall_clock_budget": remaining,
            "cancel_check": self._cancel_check(cancel),
            "replay": False,
            "summaries": summaries,
        }
        if budgets.max_steps is not None:
            certify_kwargs["max_steps"] = budgets.max_steps
        if budgets.max_paths is not None:
            certify_kwargs["max_paths"] = budgets.max_paths
        if budgets.max_depth is not None:
            certify_kwargs["max_depth"] = budgets.max_depth
        certified = certify_program(program, **certify_kwargs)  # type: ignore[arg-type]

        warning_kinds = {str(w.get("kind")) for w in certified.warnings}
        out_of_time = bool(warning_kinds & {"wall_clock", "cancelled"})

        result["symx"] = {
            "verdict": certified.verdict.value,
            "leaky_pcs": [f"{pc:#x}" for pc in certified.leaky_pcs],
            "paths": certified.paths,
            "steps": certified.steps,
            "truncated": certified.truncated,
            "warnings": [dict(w) for w in certified.warnings],
            "merged_paths": certified.merged_paths,
            "summarized_loops": certified.summarized_loops,
            "accelerated_loops": certified.accelerated_loops,
            "summary_cache_hit": summaries.cache_hit,
        }

        if out_of_time:
            # Budget exhausted (or job cancelled): the symx verdict is
            # UNKNOWN-by-truncation, so the *answer* degrades to the
            # tier below — tagged, with the truncated verdict kept for
            # audit.
            result["degraded"] = True
            result["tier_answered"] = Tier.VALUESET.value
            result["warnings"] = [  # type: ignore[assignment]
                {
                    "kind": "degraded",
                    "from_tier": Tier.SYMX.value,
                    "to_tier": Tier.VALUESET.value,
                    "cause": sorted(
                        warning_kinds & {"wall_clock", "cancelled"}),
                }
            ]
            if self._cancelled(cancel):
                result["cancelled"] = True
        else:
            result["tier_answered"] = Tier.SYMX.value
        return result

    # ---- simulate ---------------------------------------------------------

    def _simulate(
        self,
        submission: Submission,
        cancel: Optional[threading.Event],
        started: float,
    ) -> Dict[str, object]:
        program = submission.program()
        budgets = submission.budgets
        deadline = self._deadline(submission, started)
        watchdog = budgets.watchdog_cycles or self.default_watchdog_cycles
        options = RunOptions(
            max_cycles=budgets.max_cycles or self.default_max_cycles,
            wall_clock_budget=max(0.001, deadline - time.monotonic()),
            fault_plan=submission.fault_plan(),
            cancel_check=self._cancel_check(cancel),
        )
        result: Dict[str, object] = {
            "status": "ok",
            "kind": "simulate",
            "name": submission.name,
            "tier_requested": submission.tier.value,
            "degraded": False,
            "warnings": [],
        }
        processor = Processor(
            program,
            machine=self.machine,
            security=submission.security_config(),
            watchdog_cycles=watchdog,
            options=options,
        )
        try:
            report = processor.run()
        except DeadlockError as exc:
            # The poisoned-job case: the pipeline wedged (e.g. a fault
            # plan squashing every commit).  The watchdog turned the
            # hang into a structured error; report it as a degraded
            # result and keep the worker.
            result["degraded"] = True
            result["warnings"] = [  # type: ignore[assignment]
                {"kind": "deadlock", "detail": str(exc)}
            ]
            result["report"] = {"termination": "deadlock",
                                "halted": False}
            return result
        result["report"] = report.to_dict()
        if report.termination in ("wall_clock", "cycle_budget",
                                  "cancelled"):
            # Ran out of budget before HALT: the partial report is
            # still useful, but it is not the run the client asked
            # for — tag it.
            result["degraded"] = True
            result["warnings"] = [  # type: ignore[assignment]
                {"kind": report.termination,
                 "detail": f"simulation ended by {report.termination} "
                           f"after {report.cycles} cycle(s)"}
            ]
            if report.termination == "cancelled":
                result["cancelled"] = True
        return result


def strip_timing(result: Dict[str, object]) -> Dict[str, object]:
    """Result identity modulo wall-clock facts (kill-resume test)."""
    cleaned = {key: value for key, value in result.items()
               if key != "timing"}
    report = cleaned.get("report")
    if isinstance(report, dict):
        cleaned["report"] = dict(report)
    symx = cleaned.get("symx")
    if isinstance(symx, dict):
        # Path/step counts under a *wall-clock* truncation are timing-
        # dependent; verdict and provenance are not.  The summary-
        # cache hit flag depends on what ran before this job (a
        # resumed run hits where the original missed), so it is
        # timing-like too.
        trimmed = dict(symx)
        if trimmed.get("truncated"):
            trimmed.pop("paths", None)
            trimmed.pop("steps", None)
        trimmed.pop("summary_cache_hit", None)
        cleaned["symx"] = trimmed
    return cleaned
