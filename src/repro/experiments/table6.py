"""Table VI: sensitivity of the three mechanisms to core complexity
(A57-like mobile, i7-like desktop, Xeon-like server)."""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional

from ..core.defense import PAPER_DEFENSES
from ..params import MachineParams, a57_like, i7_like, xeon_like
from ..stats import safe_div
from ..workloads import spec_names
from .formatting import artifact_document, percent, text_table
from .runner import SweepEngine, average

#: The three mechanisms (every paper defense but Origin).
_MODES = PAPER_DEFENSES[1:]


def default_machines() -> List[MachineParams]:
    return [a57_like(), i7_like(), xeon_like()]


@dataclass
class Table6Result:
    #: machine name -> benchmark -> defense name -> overhead.
    overheads: Dict[str, Dict[str, Dict[str, float]]] = \
        field(default_factory=dict)

    def average_overhead(self, machine: str, mode: str) -> float:
        per_bench = self.overheads[machine]
        return average(per_bench[name][mode] for name in per_bench)

    @property
    def machines(self) -> List[str]:
        return list(self.overheads)

    def to_dict(self) -> Dict[str, Any]:
        return artifact_document(
            "table6",
            machines={
                machine: {benchmark: dict(per_mode)
                          for benchmark, per_mode in per_bench.items()}
                for machine, per_bench in self.overheads.items()
            },
        )

    def render(self) -> str:
        machines = self.machines
        headers = ["benchmark"]
        for machine in machines:
            for mode in _MODES:
                headers.append(f"{machine}:{mode[:4]}")
        benchmarks = list(next(iter(self.overheads.values())))
        body = []
        for name in benchmarks:
            row = [name]
            for machine in machines:
                for mode in _MODES:
                    row.append(percent(self.overheads[machine][name][mode]))
            body.append(row)
        avg = ["average"]
        for machine in machines:
            for mode in _MODES:
                avg.append(percent(self.average_overhead(machine, mode)))
        body.append(avg)
        return text_table(
            headers, body,
            title="Table VI: overhead sensitivity to core complexity",
        )


def run_table6(
    machines: Optional[List[MachineParams]] = None,
    benchmarks: Optional[Iterable[str]] = None,
    scale: float = 1.0,
) -> Table6Result:
    """Regenerate Table VI over the three core presets, one
    :class:`~repro.experiments.runner.SweepEngine` run per preset (a
    failed run raises as in
    :func:`~repro.experiments.figure5.run_figure5`)."""
    names = list(benchmarks or spec_names())
    result = Table6Result()
    for machine in machines or default_machines():
        reports = SweepEngine(benchmarks=names, machine=machine,
                              scale=scale).run().reports()
        result.overheads[machine.name] = {
            name: {mode: safe_div(per_mode[mode].cycles,
                                  per_mode["origin"].cycles, 1.0) - 1.0
                   for mode in _MODES}
            for name, per_mode in reports.items()
        }
    return result
