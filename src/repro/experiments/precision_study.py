"""Three-tier static precision study: taint → value-set → symbolic.

The static stack now has three layers of increasing strength and cost:

1. **taint** (PR 1) — the S-Pattern scanner.  Sound over-approximation;
   every flag is only a *suspicion*.
2. **+valueset** (PR 3) — strided-interval refinement.  Can *refute* a
   finding for a machine-checkable syntactic reason (in-bounds /
   no-alias), but never prove a program safe nor show a leak is real.
3. **+symx** (this PR) — the bounded symbolic certifier.  Can *prove*
   speculative noninterference (``PROVED_SAFE``), *demonstrate* a leak
   with a concrete witness replayed on the dynamic pipeline
   (``LEAKY``), or honestly give up within budget (``UNKNOWN``).

This study runs all three tiers over the labelled gadget corpus and
the SPEC-like workloads and tabulates findings, refutations, proofs,
witnesses and runtime per tier.  The headline acceptance metric is
``resolved``: a case counts as resolved when a tier gives it a
*definitive* answer — taint alone resolves nothing (suspicion is not
an answer), value-set resolves fully-refuted benign cases, and symx
resolves everything it proves safe or demonstrates leaky with a
reproduced witness.  The symbolic tier must resolve strictly more
cases than taint+valueset.

Over the labelled rows (the corpus and any ingested gadgets) the study
also reports the scanner's false-positive and false-negative rates
before and after value-set refinement: the refutation layer must
remove the masked false positives without losing any real gadget.
"""
from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from ..analysis.corpus import (
    CORPUS_VARIANTS,
    GADGET_KINDS,
    build_corpus_variant,
    corpus_secret_words,
    ingested_gadgets,
)
from ..analysis.summaries import summarize_program
from ..analysis.symx import (
    DEFAULT_MAX_PATHS,
    DEFAULT_MAX_STEPS,
    CertifyResult,
    Verdict,
    certify_program,
)
from ..analysis.taint import DEFAULT_WINDOW, analyze_program
from ..analysis.valueset import refine_report
from ..isa.program import Program
from ..params import MachineParams
from ..workloads import spec_names, spec_program
from .formatting import text_table


@dataclass(frozen=True)
class PrecisionRow:
    """One program's verdicts and runtimes across the three tiers."""

    name: str
    group: str                     # "corpus", "ingested" or "spec"
    #: Ground-truth label when known (corpus only; ``None`` for SPEC).
    is_gadget: Optional[bool]

    # Tier 1: taint scan.
    findings: int
    taint_s: float

    # Tier 2: + value-set refinement.
    confirmed: int
    refuted: int
    valueset_s: float

    # Tier 3: + symbolic certification.
    verdict: str                   # program-level Verdict value
    proved_findings: int           # findings with a PROVED_SAFE sink
    witnesses: int                 # confirmed leaks (with witnesses)
    replayed: int                  # witnesses reproduced dynamically
    symx_s: float

    # Summary provenance (how the certifier got its answer).
    merged_paths: int = 0          # join-point path fusions
    summarized_loops: int = 0      # loop headers havocked
    accelerated_loops: int = 0     # havocked with proven induction caps

    @property
    def resolved_taint(self) -> bool:
        """Tier 1 never resolves: a finding is a suspicion, a clean
        scan of a possibly-leaky program is silence, not proof."""
        return False

    @property
    def resolved_valueset(self) -> bool:
        """Tier 2 resolves a case only by refuting *every* finding —
        a benign program proven benign syntactically."""
        return self.findings > 0 and self.confirmed == 0

    @property
    def resolved_symx(self) -> bool:
        """Tier 3 resolves with a whole-program proof or a dynamically
        reproduced counterexample."""
        if self.verdict == Verdict.PROVED_SAFE.value:
            return True
        return (self.verdict == Verdict.LEAKY.value
                and self.witnesses > 0 and self.replayed == self.witnesses)

    @property
    def correct(self) -> Optional[bool]:
        """Whether the symbolic verdict matches the corpus label."""
        if self.is_gadget is None:
            return None
        if self.is_gadget:
            return self.verdict == Verdict.LEAKY.value
        return self.verdict == Verdict.PROVED_SAFE.value


@dataclass
class PrecisionStudyResult:
    """The full three-tier table."""

    rows: List[PrecisionRow]
    window: int
    scale: float

    def _count(self, attribute: str) -> int:
        return sum(1 for row in self.rows if getattr(row, attribute))

    @property
    def resolved_by_tier(self) -> Dict[str, int]:
        return {
            "taint": self._count("resolved_taint"),
            "valueset": self._count("resolved_valueset"),
            "symx": self._count("resolved_symx"),
        }

    @property
    def symx_strictly_stronger(self) -> bool:
        """The acceptance criterion: the symbolic tier resolves
        strictly more cases than taint+valueset combined."""
        resolved = self.resolved_by_tier
        return resolved["symx"] > max(resolved["taint"],
                                      resolved["valueset"])

    @property
    def unknown_count(self) -> int:
        """Rows the certifier gave up on — the ratchet metric."""
        return sum(1 for row in self.rows
                   if row.verdict == Verdict.UNKNOWN.value)

    def _error_rate(self, is_gadget: bool, count: str) -> float:
        """Share of labelled rows with label ``is_gadget`` the scanner
        gets wrong, judging a row flagged when ``count`` (``findings``
        before refinement, ``confirmed`` after) is non-zero."""
        rows = [row for row in self.rows if row.is_gadget is is_gadget]
        wrong = sum(1 for row in rows
                    if (getattr(row, count) > 0) is not is_gadget)
        return wrong / len(rows) if rows else 0.0

    @property
    def fp_rate_before(self) -> float:
        return self._error_rate(False, "findings")

    @property
    def fp_rate_after(self) -> float:
        return self._error_rate(False, "confirmed")

    @property
    def fn_rate_before(self) -> float:
        return self._error_rate(True, "findings")

    @property
    def fn_rate_after(self) -> float:
        return self._error_rate(True, "confirmed")

    def tier_runtime(self, tier: str) -> float:
        attribute = {"taint": "taint_s", "valueset": "valueset_s",
                     "symx": "symx_s"}[tier]
        return sum(getattr(row, attribute) for row in self.rows)

    def render(self) -> str:
        headers = ["program", "group", "findings", "conf/ref",
                   "verdict", "wit(repl)", "t1 ms", "t2 ms", "t3 ms"]
        table_rows = []
        for row in self.rows:
            table_rows.append([
                row.name,
                row.group,
                str(row.findings),
                f"{row.confirmed}/{row.refuted}",
                row.verdict,
                f"{row.witnesses}({row.replayed})",
                f"{row.taint_s * 1e3:.1f}",
                f"{row.valueset_s * 1e3:.1f}",
                f"{row.symx_s * 1e3:.1f}",
            ])
        resolved = self.resolved_by_tier
        summarized = sum(row.summarized_loops for row in self.rows)
        accelerated = sum(row.accelerated_loops for row in self.rows)
        merged = sum(row.merged_paths for row in self.rows)
        footer = (
            f"resolved cases: taint {resolved['taint']}/{len(self.rows)}"
            f", +valueset {resolved['valueset']}/{len(self.rows)}"
            f", +symx {resolved['symx']}/{len(self.rows)}"
            f"  [{'symx strictly stronger' if self.symx_strictly_stronger else 'NO TIER GAIN'}]"
            f"\nlabelled rows: false-positive rate "
            f"{self.fp_rate_before:.0%} -> {self.fp_rate_after:.0%}, "
            f"false-negative rate {self.fn_rate_before:.0%} -> "
            f"{self.fn_rate_after:.0%} after refinement"
            f"\nsummaries: {summarized} loop(s) havocked "
            f"({accelerated} accelerated), {merged} path merge(s)"
        )
        return (
            text_table(
                headers, table_rows,
                title=(f"precision study: taint vs +valueset vs +symx "
                       f"(window {self.window}, scale {self.scale:g})"),
            )
            + "\n" + footer
        )

    def to_dict(self) -> Dict[str, object]:
        return {
            "window": self.window,
            "scale": self.scale,
            "resolved_by_tier": self.resolved_by_tier,
            "symx_strictly_stronger": self.symx_strictly_stronger,
            "unknown_count": self.unknown_count,
            "fp_rate_before": self.fp_rate_before,
            "fp_rate_after": self.fp_rate_after,
            "fn_rate_before": self.fn_rate_before,
            "fn_rate_after": self.fn_rate_after,
            "summaries": {
                "summarized_loops": sum(row.summarized_loops
                                        for row in self.rows),
                "accelerated_loops": sum(row.accelerated_loops
                                         for row in self.rows),
                "merged_paths": sum(row.merged_paths
                                    for row in self.rows),
            },
            "runtimes_s": {tier: self.tier_runtime(tier)
                           for tier in ("taint", "valueset", "symx")},
            "rows": [
                {
                    "name": row.name,
                    "group": row.group,
                    "is_gadget": row.is_gadget,
                    "findings": row.findings,
                    "confirmed": row.confirmed,
                    "refuted": row.refuted,
                    "verdict": row.verdict,
                    "proved_findings": row.proved_findings,
                    "witnesses": row.witnesses,
                    "replayed": row.replayed,
                    "correct": row.correct,
                    "taint_s": row.taint_s,
                    "valueset_s": row.valueset_s,
                    "symx_s": row.symx_s,
                    "merged_paths": row.merged_paths,
                    "summarized_loops": row.summarized_loops,
                    "accelerated_loops": row.accelerated_loops,
                }
                for row in self.rows
            ],
        }


#: One study input: name, group, label, program and its secret words.
_Case = Tuple[str, str, Optional[bool], Program, Tuple[int, ...]]


def _cases(benchmarks: Optional[Iterable[str]],
           scale: float) -> Iterator[_Case]:
    """The study's programs in row order, each built when reached."""
    for kind in GADGET_KINDS:
        for variant in CORPUS_VARIANTS:
            yield (f"{kind}-{variant}", "corpus", variant == "unsafe",
                   build_corpus_variant(kind, variant),
                   corpus_secret_words())
    # Fuzz-found gadgets extend the corpus without renumbering it:
    # always appended after the built-in grid, never interleaved.
    for gadget in ingested_gadgets():
        yield (gadget.name, "ingested", gadget.is_gadget, gadget.build(),
               gadget.secrets())
    for name in (benchmarks if benchmarks is not None else spec_names()):
        yield name, "spec", None, spec_program(name, scale=scale), ()


def _study_row(case: _Case, *, window: int,
               machine: Optional[MachineParams], max_paths: int,
               max_steps: int, replay: bool) -> PrecisionRow:
    """Run all three tiers for one program."""
    name, group, is_gadget, program, secret_words = case
    started = time.perf_counter()
    report = analyze_program(program, window=window, name=name)
    taint_s = time.perf_counter() - started

    summaries = summarize_program(program, window=window)

    started = time.perf_counter()
    refined = refine_report(program, report, secret_words=secret_words,
                            summaries=summaries)
    valueset_s = time.perf_counter() - started

    certified: CertifyResult = certify_program(
        program, secret_words=secret_words, window=window,
        max_paths=max_paths, max_steps=max_steps, replay=replay,
        machine=machine, name=name, summaries=summaries,
    )
    proved = sum(
        1 for finding in report.findings
        if certified.verdict_for(finding.sink_pc) is Verdict.PROVED_SAFE
    )
    replayed = sum(1 for leak in certified.leaks
                   if leak.replay is not None and leak.replay.reproduced)
    return PrecisionRow(
        name=name,
        group=group,
        is_gadget=is_gadget,
        findings=len(report.findings),
        taint_s=taint_s,
        confirmed=len(refined.confirmed),
        refuted=len(refined.refuted),
        valueset_s=valueset_s,
        verdict=certified.verdict.value,
        proved_findings=proved,
        witnesses=len(certified.leaks),
        replayed=replayed,
        symx_s=certified.duration_s,
        merged_paths=certified.merged_paths,
        summarized_loops=certified.summarized_loops,
        accelerated_loops=certified.accelerated_loops,
    )


def run_precision_study(
    machine: Optional[MachineParams] = None,
    benchmarks: Optional[Iterable[str]] = None,
    scale: float = 0.1,
    window: Optional[int] = None,
    max_paths: int = DEFAULT_MAX_PATHS,
    max_steps: int = DEFAULT_MAX_STEPS,
    replay: bool = True,
) -> PrecisionStudyResult:
    """Run all three precision tiers over the corpus and SPEC suite.

    Rows come in a fixed order: the built-in corpus grid, then the
    ingested gadgets, then ``benchmarks`` (every SPEC-like profile when
    ``None``; ``[]`` measures the labelled corpus alone).

    The window defaults to the analysis default (the certifier's
    always-mispredict semantics and the taint pass then agree on the
    speculation bound).  SPEC workloads carry no labelled secrets, so
    their certification claims hinge on completeness alone: a clean
    ``PROVED_SAFE`` at default budgets, or an honest ``UNKNOWN`` when
    the loop structure exhausts the path budget.
    """
    window = window if window is not None else DEFAULT_WINDOW
    rows = [_study_row(case, window=window, machine=machine,
                       max_paths=max_paths, max_steps=max_steps,
                       replay=replay)
            for case in _cases(benchmarks, scale)]
    return PrecisionStudyResult(rows=rows, window=window, scale=scale)
