"""Figure 5: normalized execution time of the four configurations over
the SPEC CPU 2006 suite."""
from __future__ import annotations

import sys
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional

from ..core.defense import PAPER_DEFENSES
from ..params import MachineParams
from ..stats import safe_div
from ..workloads import spec_names
from .formatting import text_table
from .runner import SweepEngine, average, run_modes


#: The protected configurations Figure 5 normalizes against Origin.
PROTECTED = PAPER_DEFENSES[1:]


@dataclass
class Figure5Row:
    benchmark: str
    #: Cycles per defense registry name.
    cycles: Dict[str, int]

    def normalized(self, mode: str) -> float:
        return safe_div(self.cycles[mode], self.cycles["origin"], 1.0)

    def overhead(self, mode: str) -> float:
        return self.normalized(mode) - 1.0


@dataclass
class Figure5Result:
    rows: List[Figure5Row] = field(default_factory=list)

    def average_overhead(self, mode: str) -> float:
        return average(row.overhead(mode) for row in self.rows)

    def row(self, benchmark: str) -> Figure5Row:
        for row in self.rows:
            if row.benchmark == benchmark:
                return row
        raise KeyError(benchmark)

    def render(self) -> str:
        headers = ["benchmark", *PROTECTED]
        body = [
            [row.benchmark] + [f"{row.normalized(mode):.3f}"
                               for mode in PROTECTED]
            for row in self.rows
        ]
        body.append(
            ["average"] + [f"{1.0 + self.average_overhead(mode):.3f}"
                           for mode in PROTECTED]
        )
        return text_table(
            headers, body,
            title="Figure 5: execution time normalized to Origin",
        )

    def render_bars(self, width: int = 50) -> str:
        """ASCII bar-chart rendering of the normalized runtimes (the
        visual shape of the paper's Figure 5)."""
        glyphs = {"baseline": "#", "cache_hit": "+", "cache_hit_tpbuf": "="}
        peak = max(
            (row.normalized(mode) for row in self.rows
             for mode in PROTECTED),
            default=1.0,
        )
        scale = width / max(peak, 1.0)
        lines = ["Figure 5 (bar view; 'origin' = full width "
                 f"{'|' * int(round(scale))}...)"]
        for row in self.rows:
            lines.append(f"{row.benchmark}")
            for mode in PROTECTED:
                value = row.normalized(mode)
                bar = glyphs[mode] * int(round(value * scale))
                lines.append(f"  {mode[:9]:<9} {bar} {value:.2f}")
        return "\n".join(lines)


def run_figure5(
    benchmarks: Optional[Iterable[str]] = None,
    machine: Optional[MachineParams] = None,
    scale: float = 1.0,
    checkpoint: Optional[str] = None,
    resume: bool = False,
    workers: int = 1,
) -> Figure5Result:
    """Regenerate Figure 5 (normalized runtime, 4 modes x suite).

    With ``checkpoint`` the per-(benchmark, mode) runs stream through a
    :class:`~repro.experiments.runner.SweepEngine`, so an interrupted
    regeneration picks up where it left off with ``resume=True``;
    ``workers > 1`` fans the runs across a process pool (also via the
    engine), with identical results.
    """
    result = Figure5Result()
    if checkpoint is None and not resume and workers <= 1:
        for name in benchmarks or spec_names():
            reports = run_modes(name, machine=machine, scale=scale)
            result.rows.append(Figure5Row(
                benchmark=name,
                cycles={mode: report.cycles
                        for mode, report in reports.items()},
            ))
        return result

    engine = SweepEngine(benchmarks=list(benchmarks or spec_names()),
                         machine=machine, scale=scale,
                         checkpoint=checkpoint, resume=resume,
                         workers=workers)
    sweep = engine.run()
    for name in engine.benchmarks:
        reports = sweep.reports_for(name)
        if len(reports) < len(engine.defenses):
            print(f"figure5: skipping {name}: incomplete reports "
                  f"({len(reports)}/{len(engine.defenses)} modes ok)",
                  file=sys.stderr)
            continue
        result.rows.append(Figure5Row(
            benchmark=name,
            cycles={mode: report.cycles
                    for mode, report in reports.items()},
        ))
    return result
