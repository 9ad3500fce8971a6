"""Table V: filter analysis - per-benchmark L1 hit rate, blocked rates
under the three mechanisms, the speculative-access hit rate seen by the
Cache-hit filter, and the TPBuf S-Pattern mismatch rate."""
from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Any, Dict, Iterable, List, Optional

from ..params import MachineParams
from ..workloads import spec_names
from .formatting import artifact_document, percent, text_table
from .runner import SweepEngine, average


@dataclass
class Table5Row:
    benchmark: str
    l1_hit_rate: float            # Origin column
    baseline_blocked: float       # Baseline "Blocked Rate"
    cachehit_blocked: float       # Cache-hit Filter "Blocked Rate"
    spec_hit_rate: float          # hit rate of suspect accesses (C-h)
    tpbuf_blocked: float          # C-h + TPBuf "Blocked Rate"
    spattern_mismatch: float      # "S-Pattern Mismatch Rate"

    def rates(self) -> Dict[str, float]:
        """The six measured rates, keyed by field name."""
        return {key: value for key, value in asdict(self).items()
                if key != "benchmark"}


@dataclass
class Table5Result:
    rows: List[Table5Row] = field(default_factory=list)

    def row(self, benchmark: str) -> Table5Row:
        for row in self.rows:
            if row.benchmark == benchmark:
                return row
        raise KeyError(benchmark)

    def averages(self) -> Table5Row:
        return Table5Row(
            benchmark="average",
            l1_hit_rate=average(r.l1_hit_rate for r in self.rows),
            baseline_blocked=average(r.baseline_blocked for r in self.rows),
            cachehit_blocked=average(r.cachehit_blocked for r in self.rows),
            spec_hit_rate=average(r.spec_hit_rate for r in self.rows),
            tpbuf_blocked=average(r.tpbuf_blocked for r in self.rows),
            spattern_mismatch=average(
                r.spattern_mismatch for r in self.rows),
        )

    def to_dict(self) -> Dict[str, Any]:
        return artifact_document(
            "table5",
            benchmarks={row.benchmark: row.rates() for row in self.rows},
            average=self.averages().rates(),
        )

    def render(self) -> str:
        headers = ["benchmark", "L1 hit", "base blk", "c-h blk",
                   "spec hit", "tpbuf blk", "S-mismatch"]

        def cells(row: Table5Row) -> List[str]:
            return [
                row.benchmark,
                percent(row.l1_hit_rate),
                percent(row.baseline_blocked),
                percent(row.cachehit_blocked),
                percent(row.spec_hit_rate),
                percent(row.tpbuf_blocked),
                percent(row.spattern_mismatch),
            ]

        body = [cells(row) for row in self.rows]
        body.append(cells(self.averages()))
        return text_table(headers, body, title="Table V: filter analysis")


def run_table5(
    benchmarks: Optional[Iterable[str]] = None,
    machine: Optional[MachineParams] = None,
    scale: float = 1.0,
    checkpoint: Optional[str] = None,
    resume: bool = False,
    workers: int = 1,
) -> Table5Result:
    """Regenerate Table V (checkpoint/resume/workers and failures as in
    :func:`~repro.experiments.figure5.run_figure5`)."""
    reports = SweepEngine(benchmarks=list(benchmarks or spec_names()),
                          machine=machine, scale=scale,
                          checkpoint=checkpoint, resume=resume,
                          workers=workers).run().reports()
    result = Table5Result()
    for name, per_mode in reports.items():
        origin = per_mode["origin"]
        baseline = per_mode["baseline"]
        cachehit = per_mode["cache_hit"]
        tpbuf = per_mode["cache_hit_tpbuf"]
        result.rows.append(Table5Row(
            benchmark=name,
            l1_hit_rate=origin.l1d_hit_rate,
            baseline_blocked=baseline.blocked_rate,
            cachehit_blocked=cachehit.blocked_rate,
            spec_hit_rate=cachehit.speculative_hit_rate,
            tpbuf_blocked=tpbuf.blocked_rate,
            spattern_mismatch=tpbuf.spattern_mismatch_rate,
        ))
    return result
