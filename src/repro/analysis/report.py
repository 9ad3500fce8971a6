"""Structured findings of the static gadget detector."""
from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, List, Mapping, Optional, Tuple

#: Version of the JSON document emitted by ``repro analyze --json``.
#: Bump whenever a field is added, removed or reinterpreted so
#: downstream tooling can detect format drift (guarded by a golden-file
#: test).  History: 1 = PR 1 initial format; 2 = added
#: ``schema_version`` itself and the optional ``refinement`` block;
#: 3 = optional per-finding ``certificate`` block (symbolic verdict,
#: witness, dynamic replay, solver stats) from ``repro analyze
#: --certify``; 4 = summary provenance: the refinement block gains
#: ``accelerated`` refutation reasons, certificates gain a ``summary``
#: block (``merged_paths``, ``summarized_loops``, ``accelerated_loops``,
#: ``summary_cache_hit``) and the certify block reports the same
#: counters; 5 = optional per-finding ``memdep`` block (may-bypass
#: store PCs and store→load disjointness proofs from
#: :mod:`repro.analysis.memdep`).
SCHEMA_VERSION = 5


class GadgetKind(Enum):
    """Which Spectre family a finding's speculation source belongs to.

    The kind is determined by the *source* instruction: a conditional
    branch opens a bounds-check-bypass window (V1), an indirect jump a
    branch-target-injection window (V2), a return a ret2spec window
    (RSB), and a store a speculative-store-bypass window (V4).
    """

    SPECTRE_V1 = "spectre-v1"
    SPECTRE_V2 = "spectre-v2"
    SPECTRE_RSB = "spectre-rsb"
    SPECTRE_V4 = "spectre-v4"


@dataclass(frozen=True)
class Finding:
    """One static S-Pattern: a speculation source, the speculative
    load(s) whose value escapes, and the second memory access that
    transmits it."""

    kind: GadgetKind
    #: PC of the speculation source (branch / indirect / store).
    source_pc: int
    #: PC of the transmitting access (the tainted-address memory op).
    sink_pc: int
    #: PCs of the speculative loads whose values reach the sink address.
    tainting_loads: Tuple[int, ...]
    source_disasm: str = ""
    sink_disasm: str = ""

    @property
    def suggested_fence_pc(self) -> int:
        """Where a FENCE would break the gadget: immediately before the
        first speculative load feeding the sink (falling back to the
        sink itself for degenerate chains)."""
        if self.tainting_loads:
            return min(self.tainting_loads)
        return self.sink_pc

    def render(self) -> str:
        lines = [
            f"[{self.kind.value}] source {self.source_pc:#x}"
            f"  {self.source_disasm}".rstrip(),
            f"    sink   {self.sink_pc:#x}  {self.sink_disasm}".rstrip(),
        ]
        if self.tainting_loads:
            loads = ", ".join(f"{pc:#x}" for pc in self.tainting_loads)
            lines.append(f"    via speculative load(s) at {loads}")
        lines.append(
            f"    suggested fence before {self.suggested_fence_pc:#x}"
        )
        return "\n".join(lines)


@dataclass
class AnalysisReport:
    """All findings of one program scan plus scan metadata."""

    name: str
    window: int
    instructions: int
    blocks: int
    findings: List[Finding] = field(default_factory=list)
    #: Memory-instruction PCs that may issue as *suspect* under the
    #: dynamic security matrix (the static over-approximation).
    suspect_pcs: Tuple[int, ...] = ()

    @property
    def clean(self) -> bool:
        return not self.findings

    def by_kind(self) -> Dict[GadgetKind, List[Finding]]:
        grouped: Dict[GadgetKind, List[Finding]] = {}
        for finding in self.findings:
            grouped.setdefault(finding.kind, []).append(finding)
        return grouped

    def count(self, kind: Optional[GadgetKind] = None) -> int:
        if kind is None:
            return len(self.findings)
        return sum(1 for f in self.findings if f.kind is kind)

    def render(self) -> str:
        header = (
            f"static scan: {self.name}  "
            f"({self.instructions} instructions, {self.blocks} blocks, "
            f"window {self.window})"
        )
        if self.clean:
            return f"{header}\n  no speculative gadgets found"
        lines = [header]
        for kind, findings in sorted(
            self.by_kind().items(), key=lambda item: item[0].value
        ):
            lines.append(f"  {kind.value}: {len(findings)} finding(s)")
        for finding in self.findings:
            lines.append(finding.render())
        return "\n".join(lines)

    def to_dict(
        self,
        certificates: Optional[Mapping[int, Dict[str, object]]] = None,
        memdep: Optional[Mapping[int, Dict[str, object]]] = None,
    ) -> Dict[str, object]:
        """JSON-friendly form (CLI ``--json``).

        ``certificates`` (schema v3) optionally maps a finding's
        ``sink_pc`` to its symbolic certificate block — the per-sink
        verdict, witness, dynamic replay result and solver statistics
        produced by :func:`repro.analysis.symx.finding_certificates`.
        ``memdep`` (schema v5) likewise maps ``sink_pc`` to the
        finding's memory-dependence block (may-bypass store PCs and
        disjointness proofs from
        :func:`repro.analysis.memdep.finding_memdep_block`).  Findings
        without an entry simply omit the block, so documents written
        without the extra passes stay v2-shaped apart from the
        version number.
        """
        findings = []
        for f in self.findings:
            entry: Dict[str, object] = {
                "kind": f.kind.value,
                "source_pc": f.source_pc,
                "sink_pc": f.sink_pc,
                "tainting_loads": list(f.tainting_loads),
                "suggested_fence_pc": f.suggested_fence_pc,
                "source": f.source_disasm,
                "sink": f.sink_disasm,
            }
            if certificates is not None and f.sink_pc in certificates:
                entry["certificate"] = certificates[f.sink_pc]
            if memdep is not None and f.sink_pc in memdep:
                entry["memdep"] = memdep[f.sink_pc]
            findings.append(entry)
        return {
            "schema_version": SCHEMA_VERSION,
            "name": self.name,
            "window": self.window,
            "instructions": self.instructions,
            "blocks": self.blocks,
            "findings": findings,
            "suspect_pcs": list(self.suspect_pcs),
        }
