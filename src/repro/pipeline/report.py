"""Simulation report: the statistics the paper's tables are built from."""
from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Any, Dict, List

from ..stats import safe_div


@dataclass
class SimReport:
    """Everything measured in one simulation run.

    The named properties map directly onto the paper's metrics:

    - :attr:`l1d_hit_rate` - Table V "L1 Hit Rate" (Origin column).
    - :attr:`blocked_rate` - Table V "Blocked Rate": committed (correct
      path) memory instructions that were blocked at least once.
    - :attr:`speculative_hit_rate` - Table V "Cache Hit Rate of
      Speculative Memory Access".
    - :attr:`spattern_mismatch_rate` - Table V "S-Pattern Mismatch
      Rate".
    - :attr:`safe_fraction` - Section VI.C "recognizes N% of
      speculative accesses as safe".
    """

    name: str
    #: Registry name of the active defense (``repro.core.defense``).
    mode: str
    cycles: int = 0
    committed: int = 0
    committed_loads: int = 0
    committed_stores: int = 0
    committed_branches: int = 0
    committed_mem_blocked: int = 0
    halted: bool = False
    #: What ended the run: ``"halt"``, ``"cycle_budget"``,
    #: ``"wall_clock"``, ``"cancelled"`` or ``"deadlock"`` ("" until
    #: finalized).  A budget or a cancel ends the run with a report;
    #: only a deadlock raises (:class:`~repro.errors.DeadlockError`).
    termination: str = ""
    #: Per-kind injected fault counts when the run carried a
    #: :class:`~repro.robustness.faults.FaultInjector` (else empty).
    injected_faults: Dict[str, int] = field(default_factory=dict)
    # Speculation bookkeeping.
    suspect_issues: int = 0
    block_events: int = 0
    squashes: int = 0
    squashed_instructions: int = 0
    memory_order_violations: int = 0
    branch_mispredicts: int = 0
    branches_resolved: int = 0
    # Filter bookkeeping (suspect accesses reaching the L1D).
    suspect_accesses: int = 0
    suspect_l1_hits: int = 0
    tpbuf_queries: int = 0
    tpbuf_safe: int = 0
    # Whole-run cache behaviour.
    l1d_hits: int = 0
    l1d_misses: int = 0
    l1i_hits: int = 0
    l1i_misses: int = 0
    # ICache filter (Section VII.B).
    icache_stall_cycles: int = 0
    # Raw counter groups for deep dives.
    raw: Dict[str, Dict[str, int]] = field(default_factory=dict)

    # ---- derived metrics ---------------------------------------------------

    @property
    def ipc(self) -> float:
        return safe_div(self.committed, self.cycles)

    @property
    def l1d_hit_rate(self) -> float:
        return safe_div(self.l1d_hits, self.l1d_hits + self.l1d_misses)

    @property
    def committed_memory(self) -> int:
        return self.committed_loads + self.committed_stores

    @property
    def blocked_rate(self) -> float:
        return safe_div(self.committed_mem_blocked, self.committed_memory)

    @property
    def speculative_hit_rate(self) -> float:
        return safe_div(self.suspect_l1_hits, self.suspect_accesses)

    @property
    def spattern_mismatch_rate(self) -> float:
        return safe_div(self.tpbuf_safe, self.tpbuf_queries)

    @property
    def branch_mispredict_rate(self) -> float:
        return safe_div(self.branch_mispredicts, self.branches_resolved)

    @property
    def safe_fraction(self) -> float:
        """Suspect accesses that a filter let proceed."""
        if self.suspect_accesses == 0:
            return 0.0
        blocked = self.suspect_accesses - self.suspect_l1_hits \
            - self.tpbuf_safe
        return 1.0 - max(0, blocked) / self.suspect_accesses

    def overhead_vs(self, origin: "SimReport") -> float:
        """Relative slowdown against an Origin run of the same program."""
        return safe_div(self.cycles, origin.cycles, default=1.0) - 1.0

    # ---- (de)serialization -------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe dict (checkpoint rows, exports)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "SimReport":
        """Inverse of :meth:`to_dict`; unknown keys are ignored so old
        checkpoints stay loadable across report-schema growth."""
        fields = {f for f in cls.__dataclass_fields__}
        payload = {k: v for k, v in data.items() if k in fields}
        # Older records name a zoo defense in "defense" next to the
        # paper mode it was anchored to in "mode".
        payload["mode"] = data.get("defense") or data["mode"]
        return cls(**payload)

    # ---- rendering --------------------------------------------------------------

    def render(self) -> str:
        lines = [
            f"run '{self.name}' mode={self.mode}",
            f"  cycles={self.cycles} committed={self.committed} "
            f"ipc={self.ipc:.3f} halted={self.halted}"
            + (f" termination={self.termination}"
               if self.termination and self.termination != "halt" else ""),
            f"  loads={self.committed_loads} stores={self.committed_stores} "
            f"branches={self.committed_branches} "
            f"mispredict_rate={self.branch_mispredict_rate:.3%}",
            f"  l1d_hit_rate={self.l1d_hit_rate:.3%} "
            f"blocked_rate={self.blocked_rate:.3%} "
            f"spec_hit_rate={self.speculative_hit_rate:.3%}",
            f"  squashes={self.squashes} "
            f"order_violations={self.memory_order_violations} "
            f"spattern_mismatch={self.spattern_mismatch_rate:.3%}",
        ]
        if self.injected_faults:
            total = sum(self.injected_faults.values())
            detail = " ".join(
                f"{kind}={count}" for kind, count
                in sorted(self.injected_faults.items())
            )
            lines.append(f"  injected_faults={total} ({detail})")
        return "\n".join(lines)


def compare_table(reports: List[SimReport], origin: SimReport) -> str:
    """Small helper: normalized-runtime table for a list of reports."""
    lines = [f"{'mode':<18}{'cycles':>10}{'norm':>8}{'ipc':>8}"]
    for report in reports:
        norm = safe_div(report.cycles, origin.cycles, default=1.0)
        lines.append(
            f"{report.mode:<18}{report.cycles:>10}"
            f"{norm:>8.3f}{report.ipc:>8.3f}"
        )
    return "\n".join(lines)
