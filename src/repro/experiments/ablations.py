"""Design-choice ablations called out in DESIGN.md.

- *Matrix ablation* (Section VI.C(1)): a branch-only security
  dependence matrix is cheaper (23.0% average overhead in the paper vs
  53.6% for the full Baseline) but leaves memory-memory speculation
  (Spectre V4) unprotected - both effects are measured here.
- *ICache-hit filter* (Section VII.B): performance cost of stalling
  unsafe next-PC fetches that miss the L1I.
- *LFENCE ablation* (Section VIII context): the blunt software
  mitigation - a fence after every conditional branch - compared with
  Conditional Speculation on the same workloads.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Optional

from ..attacks import build_spectre_v4, run_attack
from ..core.policy import SecurityConfig
from ..isa.builder import ProgramBuilder
from ..isa.instructions import COND_BRANCH_OPS
from ..params import MachineParams, paper_config
from ..pipeline.processor import Processor
from ..stats import safe_div
from ..workloads import spec_names, spec_spec
from ..workloads.synthetic import build_workload
from .formatting import percent, text_table
from .runner import average, run_benchmark


# ---------------------------------------------------------------------------
# Matrix ablation (branch-only vs full security dependence)
# ---------------------------------------------------------------------------

@dataclass
class MatrixAblationResult:
    #: benchmark -> overhead under {"full", "branch_only"} Baseline.
    overheads: Dict[str, Dict[str, float]]
    #: Spectre V4 leaks under a branch-only matrix (paper: it must).
    v4_leaks_with_branch_only: bool
    v4_blocked_with_full: bool

    def average_overhead(self, kind: str) -> float:
        return average(per[kind] for per in self.overheads.values())

    def render(self) -> str:
        headers = ["benchmark", "full baseline", "branch-only"]
        body = [
            [name, percent(per["full"]), percent(per["branch_only"])]
            for name, per in self.overheads.items()
        ]
        body.append(["average",
                     percent(self.average_overhead("full")),
                     percent(self.average_overhead("branch_only"))])
        lines = [
            text_table(headers, body,
                       title="Matrix ablation (Section VI.C(1))"),
            f"Spectre V4 with branch-only matrix: "
            f"{'LEAKS (as expected)' if self.v4_leaks_with_branch_only else 'blocked (?)'}",
            f"Spectre V4 with full matrix: "
            f"{'blocked (as expected)' if self.v4_blocked_with_full else 'LEAKS (?)'}",
        ]
        return "\n".join(lines)


def run_matrix_ablation(
    benchmarks: Optional[Iterable[str]] = None,
    machine: Optional[MachineParams] = None,
    scale: float = 1.0,
) -> MatrixAblationResult:
    """Compare full vs branch-only Baseline, and verify the security
    consequence (V4 evades a branch-only matrix)."""
    machine = machine if machine is not None else paper_config()
    overheads: Dict[str, Dict[str, float]] = {}
    for name in benchmarks or spec_names():
        origin = run_benchmark(name, machine=machine, scale=scale)
        full = run_benchmark(
            name, machine=machine, scale=scale,
            security=SecurityConfig.baseline(),
        )
        branch_only = run_benchmark(
            name, machine=machine, scale=scale,
            security=SecurityConfig("baseline", branch_only_matrix=True),
        )
        overheads[name] = {
            "full": safe_div(full.cycles, origin.cycles, 1.0) - 1.0,
            "branch_only":
                safe_div(branch_only.cycles, origin.cycles, 1.0) - 1.0,
        }
    v4_branch_only = run_attack(
        build_spectre_v4(machine=machine), machine=machine,
        security=SecurityConfig("cache_hit_tpbuf",
                                branch_only_matrix=True),
    )
    v4_full = run_attack(
        build_spectre_v4(machine=machine), machine=machine,
        security=SecurityConfig.cache_hit_tpbuf(),
    )
    return MatrixAblationResult(
        overheads=overheads,
        v4_leaks_with_branch_only=v4_branch_only.success,
        v4_blocked_with_full=not v4_full.success,
    )


# ---------------------------------------------------------------------------
# ICache-hit filter (Section VII.B)
# ---------------------------------------------------------------------------

@dataclass
class ICacheStudyResult:
    #: benchmark -> (overhead without icache filter, with it).
    overheads: Dict[str, Dict[str, float]]

    def average_extra(self) -> float:
        return average(
            per["with_icache"] - per["without"]
            for per in self.overheads.values()
        )

    def render(self) -> str:
        headers = ["benchmark", "tpbuf", "tpbuf+icache", "extra"]
        body = [
            [name, percent(per["without"]), percent(per["with_icache"]),
             percent(per["with_icache"] - per["without"], 2)]
            for name, per in self.overheads.items()
        ]
        body.append(["average", "", "", percent(self.average_extra(), 2)])
        return text_table(
            headers, body,
            title="Section VII.B: ICache-hit filter cost "
                  "(on top of cache-hit + TPBuf)",
        )


def run_icache_filter_study(
    benchmarks: Optional[Iterable[str]] = None,
    machine: Optional[MachineParams] = None,
    scale: float = 1.0,
) -> ICacheStudyResult:
    """Measure the extra cost of the ICache-hit filter extension."""
    machine = machine if machine is not None else paper_config()
    overheads: Dict[str, Dict[str, float]] = {}
    for name in benchmarks or spec_names():
        origin = run_benchmark(name, machine=machine, scale=scale)
        without = run_benchmark(
            name, machine=machine, scale=scale,
            security=SecurityConfig.cache_hit_tpbuf(),
        )
        with_icache = run_benchmark(
            name, machine=machine, scale=scale,
            security=SecurityConfig("cache_hit_tpbuf", icache_filter=True),
        )
        overheads[name] = {
            "without": safe_div(without.cycles, origin.cycles, 1.0) - 1.0,
            "with_icache":
                safe_div(with_icache.cycles, origin.cycles, 1.0) - 1.0,
        }
    return ICacheStudyResult(overheads=overheads)


# ---------------------------------------------------------------------------
# LFENCE software-mitigation ablation
# ---------------------------------------------------------------------------

class _FenceAfterBranchBuilder(ProgramBuilder):
    """Builder that inserts a FENCE in front of every conditional
    branch, serializing the pipeline around each check regardless of
    which way it goes - a conservative model of the blunt
    lfence-per-branch compiler mitigation this hardware defense is an
    alternative to (emitting on the fall-through path only would let
    taken branches skip the fence)."""

    def _branch(self, op, rs1, rs2, target):
        if op in COND_BRANCH_OPS:
            self.fence()
        return super()._branch(op, rs1, rs2, target)


@dataclass
class FenceAblationResult:
    #: benchmark -> overhead under {"lfence", "tpbuf"}.
    overheads: Dict[str, Dict[str, float]]

    def average_overhead(self, kind: str) -> float:
        return average(per[kind] for per in self.overheads.values())

    def render(self) -> str:
        headers = ["benchmark", "lfence-after-branch",
                   "cache-hit + tpbuf"]
        body = [
            [name, percent(per["lfence"]), percent(per["tpbuf"])]
            for name, per in self.overheads.items()
        ]
        body.append(["average",
                     percent(self.average_overhead("lfence")),
                     percent(self.average_overhead("tpbuf"))])
        return text_table(
            headers, body,
            title="Software LFENCE mitigation vs Conditional Speculation",
        )


def run_fence_ablation(
    benchmarks: Optional[Iterable[str]] = None,
    machine: Optional[MachineParams] = None,
    scale: float = 1.0,
) -> FenceAblationResult:
    """Compare fence-after-every-branch against the hardware defense."""
    machine = machine if machine is not None else paper_config()
    overheads: Dict[str, Dict[str, float]] = {}
    for name in benchmarks or spec_names():
        spec = spec_spec(name)
        plain = build_workload(spec, scale=scale)
        fenced = build_workload(spec, scale=scale,
                                builder_factory=_FenceAfterBranchBuilder)
        origin_cycles = Processor(
            plain, machine=machine, security=SecurityConfig.origin(),
        ).run().cycles
        fenced_cycles = Processor(
            fenced, machine=machine, security=SecurityConfig.origin(),
        ).run().cycles
        tpbuf_cycles = Processor(
            plain, machine=machine,
            security=SecurityConfig.cache_hit_tpbuf(),
        ).run().cycles
        overheads[name] = {
            "lfence": safe_div(fenced_cycles, origin_cycles, 1.0) - 1.0,
            "tpbuf": safe_div(tpbuf_cycles, origin_cycles, 1.0) - 1.0,
        }
    return FenceAblationResult(overheads=overheads)
