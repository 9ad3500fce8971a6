"""Automatic minimal fence placement ("repair") for static findings.

The paper's argument is economic: serializing *everything* (the
lfence-everywhere mitigation) is ruinously expensive, so defenses must
be selective.  This module is the software end of that spectrum — it
synthesizes a small set of ``FENCE`` instructions that provably breaks
every surviving S-Pattern, to compare against both the blanket
mitigation (:func:`fence_all`) and the paper's hardware filters.

The placement loop is synthesize-and-verify:

1. rewrite the program with the current fence set
   (:func:`repro.isa.program.insert_fences` — jump targets landing on
   a fenced instruction are redirected to its protecting fence, so a
   fence guards *every* path into the instruction);
2. re-run the taint scan, then (optionally) the value-set refinement —
   only *confirmed* findings need repair, so provably-in-bounds
   chains never cost a fence;
3. greedily fence the candidate PC that participates in the most
   surviving findings (a finding is broken by a fence before any of
   its tainting loads or before its sink, which closes the window on
   that path); ties go to the lowest address;
4. repeat until the scan is clean.

Termination: a fence immediately before a finding's sink always kills
that finding (the window state entering the sink is serialized on all
paths, fall-through and jump alike), so every iteration retires at
least one candidate and the loop is bounded by the number of memory
instructions — the fence-all placement, which trivially analyzes
clean.

Verification is three-way (the last leg lives with the attack
harness): the rewritten program re-analyzes clean by construction,
:func:`oracle_equivalent` checks the in-order architectural state is
unchanged modulo the address remapping, and the fenced attack programs
must recover zero secret bytes.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Set, Tuple

from ..isa.instructions import Opcode
from ..isa.oracle import run_oracle
from ..isa.program import FenceRewrite, Program, insert_fences
from .memdep import compute_memdep_summary, v4_finding_may_bypass
from .report import AnalysisReport, Finding, GadgetKind
from .symx import CertifyResult, Verdict, certify_program
from .taint import DEFAULT_WINDOW, analyze_program
from .valueset import RefinedReport, refine_report


def fence_all(program: Program) -> FenceRewrite:
    """The blanket mitigation: a FENCE before every memory
    instruction.  Trivially analyzes clean — every speculation window
    is closed before any access could transmit — and serves as the
    upper bound the synthesized placement is measured against."""
    pcs = [address for address, instruction in program.iter_addressed()
           if instruction.is_memory]
    return insert_fences(program, pcs)


def uses_rdcycle(program: Program) -> bool:
    """Whether the program reads the cycle counter.  ``RDCYCLE``
    results shift when fences retire, so oracle equivalence is only
    checked for RDCYCLE-free programs (attack programs are instead
    verified end-to-end by the zero-leak harness check)."""
    return any(instruction.op is Opcode.RDCYCLE
               for instruction in program.instructions)


def oracle_equivalent(original: Program, rewrite: FenceRewrite,
                      max_instructions: int = 1_000_000) -> bool:
    """In-order architectural equivalence of the original and fenced
    images.  Values that are code addresses (call return addresses,
    ``li_label`` results) legitimately shift by the inserted fences;
    they are compared modulo :meth:`FenceRewrite.remap_address`."""
    before = run_oracle(original, max_instructions=max_instructions)
    after = run_oracle(rewrite.program, max_instructions=max_instructions)
    if before.halted != after.halted:
        return False

    def matches(old: int, new: int) -> bool:
        return new == old or new == rewrite.remap_address(old)

    if len(before.registers) != len(after.registers):
        return False
    if not all(matches(old, new) for old, new
               in zip(before.registers, after.registers)):
        return False
    if set(before.memory) != set(after.memory):
        return False
    return all(matches(value, after.memory[address])
               for address, value in before.memory.items())


@dataclass
class FenceSynthesis:
    """Result of :func:`synthesize_fences`."""

    original: Program
    rewrite: FenceRewrite
    #: Original-image addresses a fence was placed before, in order
    #: of insertion (the greedy priority order).
    fence_pcs: Tuple[int, ...]
    #: Synthesize-and-verify iterations (final clean scan included).
    iterations: int
    #: Scan of the final rewritten program (clean on success).
    report: AnalysisReport
    #: Refinement of the final scan (``None`` with ``refine=False``).
    refined: Optional[RefinedReport]
    secret_words: Tuple[int, ...]
    #: Symbolic certificate for the *fenced* image (``certify=True``):
    #: must be ``PROVED_SAFE`` for the synthesis to be trusted
    #: end-to-end.
    certificate: Optional[CertifyResult] = None
    #: Symbolic certificate for the *original* image: ``LEAKY`` with a
    #: replayed witness whenever a fence was actually needed.
    original_certificate: Optional[CertifyResult] = None
    #: Sink PCs (final-image coordinates) of V4 findings left unfenced
    #: because the memory-dependence analysis proved every store→load
    #: pair disjoint — no store-barrier fence is needed there.
    memdep_refuted: Tuple[int, ...] = ()

    @property
    def program(self) -> Program:
        return self.rewrite.program

    @property
    def fence_count(self) -> int:
        return len(self.fence_pcs)

    @property
    def clean(self) -> bool:
        """No surviving (confirmed) findings in the final image.
        Findings refuted by memory-dependence facts (provably
        non-bypassable V4 pairs) do not count as surviving."""
        survivors = (self.refined.confirmed if self.refined is not None
                     else self.report.findings)
        refuted = set(self.memdep_refuted)
        return all(f.sink_pc in refuted for f in survivors)

    @property
    def certified(self) -> bool:
        """The fenced image carries a ``PROVED_SAFE`` certificate."""
        return (self.certificate is not None
                and self.certificate.verdict is Verdict.PROVED_SAFE)

    def render(self) -> str:
        placements = ", ".join(f"{pc:#x}" for pc in self.fence_pcs) or "-"
        refuted = (len(self.refined.refuted)
                   if self.refined is not None else 0)
        return (
            f"fence synthesis: {self.report.name}  "
            f"{self.fence_count} fence(s) before [{placements}] "
            f"in {self.iterations} iteration(s); final scan "
            f"{'clean' if self.clean else 'NOT CLEAN'}"
            + (f" ({refuted} finding(s) refuted, no fence needed)"
               if refuted else "")
            + (f" ({len(self.memdep_refuted)} V4 finding(s) "
               "non-bypassable, no store barrier needed)"
               if self.memdep_refuted else "")
            + (f"; certificate {self.certificate.verdict.value}"
               if self.certificate is not None else "")
        )

    def to_dict(self) -> Dict[str, object]:
        return {
            "name": self.report.name,
            "fence_pcs": list(self.fence_pcs),
            "fence_count": self.fence_count,
            "iterations": self.iterations,
            "clean": self.clean,
            "refuted": (len(self.refined.refuted)
                        if self.refined is not None else 0),
            "memdep_refuted": len(self.memdep_refuted),
            "certificate": (self.certificate.to_dict()
                            if self.certificate is not None else None),
            "original_certificate": (
                self.original_certificate.to_dict()
                if self.original_certificate is not None else None),
        }


def _surviving(report: AnalysisReport,
               refined: Optional[RefinedReport]) -> List[Finding]:
    if refined is not None:
        return list(refined.confirmed)
    return list(report.findings)


def _memdep_filter(
    program: Program,
    findings: List[Finding],
    window: int,
) -> Tuple[List[Finding], List[Finding]]:
    """Split ``findings`` into (needs repair, memdep-refuted): a V4
    finding whose source store provably cannot be bypassed by any of
    its loads needs no store-barrier fence.  Non-V4 findings always
    need repair; the summary is only computed when V4 findings exist."""
    if not any(f.kind is GadgetKind.SPECTRE_V4 for f in findings):
        return findings, []
    summary = compute_memdep_summary(program, window=window)
    keep: List[Finding] = []
    dropped: List[Finding] = []
    for finding in findings:
        if (finding.kind is GadgetKind.SPECTRE_V4
                and not v4_finding_may_bypass(summary, finding)):
            dropped.append(finding)
        else:
            keep.append(finding)
    return keep, dropped


def synthesize_fences(
    program: Program,
    window: int = DEFAULT_WINDOW,
    secret_words: Iterable[int] = (),
    refine: bool = True,
    certify: bool = False,
    memdep: bool = True,
    name: str = "program",
) -> FenceSynthesis:
    """Greedily place the fewest fences that silence every surviving
    finding of ``program``.

    With ``refine`` (the default) findings refuted by the value-set
    pass are not repaired — masking is already a sufficient
    mitigation.  ``secret_words`` is forwarded to the refinement;
    data addresses are untouched by the rewriting, so the same words
    remain valid in every candidate image.

    With ``certify``, the symbolic certifier
    (:func:`repro.analysis.symx.certify_program`) runs as a post-pass
    on both images: the fenced image must come back ``PROVED_SAFE``
    (exposed as :attr:`FenceSynthesis.certified`), and the original is
    certified for comparison — ``LEAKY`` with a replayable witness
    whenever the placement actually repaired something.

    With ``memdep`` (the default) the store sets of
    :mod:`repro.analysis.memdep` are consulted for V4 findings: a
    store-barrier fence is only placed on may-bypass pairs — a finding
    whose store→load pairs are all provably disjoint is reported in
    :attr:`FenceSynthesis.memdep_refuted` instead of fenced.
    """
    secrets = tuple(sorted(set(secret_words)))
    fence_pcs: Set[int] = set()
    ordered_pcs: List[int] = []
    # Bounded by fence-all: each iteration fences a new memory-path
    # candidate and the all-fenced image scans clean.
    budget = sum(1 for _, instr in program.iter_addressed()
                 if instr.is_memory) + 1
    iterations = 0
    while True:
        iterations += 1
        rewrite = insert_fences(program, ordered_pcs)
        report = analyze_program(rewrite.program, window=window, name=name)
        refined = (refine_report(rewrite.program, report,
                                 secret_words=secrets)
                   if refine else None)
        surviving = _surviving(report, refined)
        memdep_dropped: List[Finding] = []
        if memdep and surviving:
            surviving, memdep_dropped = _memdep_filter(
                rewrite.program, surviving, window)
        if not surviving or iterations > budget:
            break
        to_original = {new: old for old, new in rewrite.to_new.items()}
        coverage: Dict[int, int] = {}
        for finding in surviving:
            for pc in (*finding.tainting_loads, finding.sink_pc):
                original_pc = to_original.get(pc)
                if original_pc is not None and original_pc not in fence_pcs:
                    coverage[original_pc] = coverage.get(original_pc, 0) + 1
        if not coverage:
            # Unreachable: a surviving finding's sink is an original
            # instruction without a fence (else the scan would be
            # clean at that sink).  Guard against looping regardless.
            break
        best = min(coverage, key=lambda pc: (-coverage[pc], pc))
        fence_pcs.add(best)
        ordered_pcs.append(best)
    certificate: Optional[CertifyResult] = None
    original_certificate: Optional[CertifyResult] = None
    if certify:
        certificate = certify_program(
            rewrite.program, secret_words=secrets, window=window,
            name=f"{name}+fences")
        original_certificate = certify_program(
            program, secret_words=secrets, window=window, name=name)
    return FenceSynthesis(
        original=program,
        rewrite=rewrite,
        fence_pcs=tuple(ordered_pcs),
        iterations=iterations,
        report=report,
        refined=refined,
        secret_words=secrets,
        certificate=certificate,
        original_certificate=original_certificate,
        memdep_refuted=tuple(sorted(
            f.sink_pc for f in memdep_dropped)),
    )
