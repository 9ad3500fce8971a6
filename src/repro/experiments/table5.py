"""Table V: filter analysis - per-benchmark L1 hit rate, blocked rates
under the three mechanisms, the speculative-access hit rate seen by the
Cache-hit filter, and the TPBuf S-Pattern mismatch rate."""
from __future__ import annotations

import sys
from dataclasses import dataclass, field
from typing import Iterable, List, Optional

from ..params import MachineParams
from ..workloads import spec_names
from .formatting import percent, text_table
from .runner import SweepEngine, average, run_modes


@dataclass
class Table5Row:
    benchmark: str
    l1_hit_rate: float            # Origin column
    baseline_blocked: float       # Baseline "Blocked Rate"
    cachehit_blocked: float       # Cache-hit Filter "Blocked Rate"
    spec_hit_rate: float          # hit rate of suspect accesses (C-h)
    tpbuf_blocked: float          # C-h + TPBuf "Blocked Rate"
    spattern_mismatch: float      # "S-Pattern Mismatch Rate"


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
    """Regenerate Table V (checkpoint/resume/workers as in
    :func:`~repro.experiments.figure5.run_figure5`)."""
    sweep = None
    if checkpoint is not None or resume or workers > 1:
        engine = SweepEngine(benchmarks=list(benchmarks or spec_names()),
                             machine=machine, scale=scale,
                             checkpoint=checkpoint, resume=resume,
                             workers=workers)
        sweep = engine.run()
        benchmarks = engine.benchmarks

    result = Table5Result()
    for name in benchmarks or spec_names():
        if sweep is not None:
            reports = sweep.reports_for(name)
            if len(reports) < 4:
                print(f"table5: skipping {name}: incomplete reports",
                      file=sys.stderr)
                continue
        else:
            reports = run_modes(name, machine=machine, scale=scale)
        origin = reports["origin"]
        baseline = reports["baseline"]
        cachehit = reports["cache_hit"]
        tpbuf = reports["cache_hit_tpbuf"]
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
