"""Table IV: security analysis of the three mechanisms against six
attack scenarios (plus the unprotected Origin sanity column)."""
from __future__ import annotations

import sys
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..errors import SimulationError

from ..attacks import (
    AttackResult,
    build_spectre_prime,
    build_spectre_v1,
    run_attack,
)
from ..attacks.common import AttackProgram
from ..attacks.layout import AttackLayout
from ..attacks.sidechannel import (
    EvictReloadChannel,
    EvictTimeChannel,
    FlushFlushChannel,
    FlushReloadChannel,
    PrimeProbeChannel,
)
from ..core.defense import PAPER_DEFENSES
from ..core.policy import SecurityConfig
from ..params import MachineParams, paper_config
from .formatting import text_table

#: The six rows of Table IV, in paper order.  Each entry carries the
#: paper's expected protection verdict per mechanism (True = protected).
SCENARIOS: List[tuple] = [
    (
        "Flush+Reload, share data",
        lambda machine: build_spectre_v1(
            channel=FlushReloadChannel(), machine=machine),
        {"baseline": True, "cache_hit": True, "cache_hit_tpbuf": True},
    ),
    (
        "Flush+Flush, share data",
        lambda machine: build_spectre_v1(
            channel=FlushFlushChannel(), machine=machine),
        {"baseline": True, "cache_hit": True, "cache_hit_tpbuf": True},
    ),
    (
        "Evict+Reload, share data",
        lambda machine: build_spectre_v1(
            channel=EvictReloadChannel(), machine=machine),
        {"baseline": True, "cache_hit": True, "cache_hit_tpbuf": True},
    ),
    (
        "Prime+Probe, share data",
        lambda machine: build_spectre_prime(machine=machine),
        {"baseline": True, "cache_hit": True, "cache_hit_tpbuf": True},
    ),
    (
        "Prime+Probe, no shared data",
        lambda machine: build_spectre_v1(
            channel=PrimeProbeChannel(),
            layout=AttackLayout.same_page(), machine=machine),
        {"baseline": True, "cache_hit": True, "cache_hit_tpbuf": False},
    ),
    (
        "Evict+Time, no shared data",
        lambda machine: build_spectre_v1(
            channel=EvictTimeChannel(),
            layout=AttackLayout.same_page(), machine=machine),
        {"baseline": True, "cache_hit": True, "cache_hit_tpbuf": False},
    ),
]


@dataclass
class Table4Row:
    scenario: str
    #: defense name -> the attack result under that defense.
    results: Dict[str, AttackResult]
    expected: Dict[str, bool]

    def protected(self, mode: str) -> bool:
        return not self.results[mode].success

    def matches_paper(self) -> bool:
        """Origin must leak; each mechanism must match the paper's
        check/cross for this scenario."""
        if self.protected("origin"):
            return False
        return all(
            self.protected(mode) == self.expected[mode]
            for mode in PAPER_DEFENSES[1:]
        )


@dataclass
class Table4Result:
    rows: List[Table4Row] = field(default_factory=list)

    def all_match_paper(self) -> bool:
        return all(row.matches_paper() for row in self.rows)

    def render(self) -> str:
        headers = ["attack scenario", "origin", "baseline",
                   "cache-hit", "cache-hit+tpbuf", "paper"]
        body = []
        for row in self.rows:
            cells = [row.scenario]
            for mode in PAPER_DEFENSES:
                cells.append("safe" if row.protected(mode) else "LEAK")
            cells.append("match" if row.matches_paper() else "MISMATCH")
            body.append(cells)
        return text_table(
            headers, body,
            title="Table IV: security analysis "
                  "(safe = secret not recovered)",
        )


def run_table4(
    machine: Optional[MachineParams] = None,
    scenarios: Optional[List[str]] = None,
    isolate: bool = False,
) -> Table4Result:
    """Regenerate Table IV by running every attack scenario under the
    unprotected core and all three mechanisms.

    With ``isolate`` a scenario whose simulation raises
    :class:`SimulationError` is dropped (with a stderr note) instead of
    aborting the table.
    """
    machine = machine if machine is not None else paper_config()
    result = Table4Result()
    for name, build, expected in SCENARIOS:
        if scenarios is not None and name not in scenarios:
            continue
        results: Dict[str, AttackResult] = {}
        try:
            for mode in PAPER_DEFENSES:
                attack: AttackProgram = build(machine)
                results[mode] = run_attack(
                    attack, machine=machine, security=SecurityConfig(mode),
                )
        except SimulationError as exc:
            if not isolate:
                raise
            print(f"table4: skipping scenario {name!r}: "
                  f"{type(exc).__name__}: {exc}", file=sys.stderr)
            continue
        result.rows.append(
            Table4Row(scenario=name, results=results, expected=expected)
        )
    return result
