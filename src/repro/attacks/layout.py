"""Shared memory layout for the attack programs.

All attacks use the same address-space conventions so the gadget and
channel emitters compose.  The layout distinguishes the *cross-page*
transmit array (one page per candidate value, the classic Spectre
probe array and the pattern TPBuf's S-Pattern targets) from the
*same-page* transmit array (one cache line per candidate inside the
secret's own page - the layout that evades the S-Pattern and defeats
TPBuf in the two non-shared scenarios of Table IV).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from ..errors import SimulationError
from ..memory.tlb import PageTable

PAGE = 4096
LINE = 64


@dataclass
class AttackLayout:
    """Address-space plan for one attack program."""

    #: Number of candidate secret values (alphabet size).
    n_values: int = 16
    #: The secret byte the attack tries to recover.
    secret_value: int = 7
    #: Training iterations before the malicious trigger.
    n_train: int = 6

    code_base: int = 0x1000
    #: Victim bounds variable (its own page; flushed/evicted to open
    #: the speculation window).
    size_addr: int = 0x8000
    #: Victim array whose out-of-bounds read reaches the secret.
    array1_base: int = 0x6000
    #: The secret word.  Placed in the last line of its page so the
    #: same-page transmit lines (offsets 0..n*64) never alias it.
    secret_addr: int = 0x10FC0
    #: Cross-page transmit array (victim mapping).
    probe_base: int = 0x100000
    #: Attacker's alias of the transmit array (shared scenarios).
    attacker_probe_base: int = 0x400000
    #: Attacker-private region used to build eviction sets.
    evict_region_base: int = 0x800000
    #: Timing results, one word per candidate.
    results_base: int = 0x80000
    #: Per-iteration victim inputs (x values).
    inputs_base: int = 0x82000
    #: Victim indirect-jump function pointer (Spectre V2).
    fnptr_addr: int = 0x84000

    #: Transmit stride.  The cross-page default is PAGE + LINE (the
    #: classic probe-array stride): each candidate gets its own page
    #: *and* a distinct line offset, so page-granular receivers
    #: (Flush+Reload) and set-granular receivers (Prime+Probe) both
    #: distinguish candidates.  The same-page layout uses LINE.
    probe_stride: int = PAGE + LINE

    def __post_init__(self) -> None:
        if not 2 <= self.n_values <= 256:
            raise SimulationError("n_values must be in [2, 256]")
        if not 0 <= self.secret_value < self.n_values:
            raise SimulationError("secret must be a valid candidate")

    # ---- derived addresses -------------------------------------------------

    @property
    def oob_index(self) -> int:
        """x such that ``array1_base + 8 * x == secret_addr``."""
        delta = self.secret_addr - self.array1_base
        if delta % 8 != 0:
            raise SimulationError("secret not word-aligned w.r.t. array1")
        return delta // 8

    @property
    def n_iterations(self) -> int:
        return self.n_train + 1

    def probe_line(self, value: int) -> int:
        """Victim-side transmit address for candidate ``value``."""
        return self.probe_base + value * self.probe_stride

    def attacker_probe_line(self, value: int) -> int:
        """Attacker-side (possibly aliased) measurement address."""
        return self.attacker_probe_base + value * self.probe_stride

    def result_addr(self, value: int) -> int:
        return self.results_base + value * 8

    def input_addr(self, iteration: int) -> int:
        return self.inputs_base + iteration * 8

    @staticmethod
    def same_page(n_values: int = 16, secret_value: int = 7,
                  **overrides) -> "AttackLayout":
        """A layout whose transmit lines live inside the secret's page
        (the S-Pattern-evading layout of the non-shared scenarios)."""
        layout = AttackLayout(
            n_values=n_values,
            secret_value=secret_value,
            probe_stride=LINE,
            **overrides,
        )
        # Transmit inside the secret page.
        secret_page = layout.secret_addr & ~(PAGE - 1)
        layout.probe_base = secret_page
        layout.attacker_probe_base = secret_page  # no alias: not shared
        if layout.n_values * LINE > layout.secret_addr - secret_page:
            raise SimulationError(
                "same-page transmit lines would overlap the secret line"
            )
        return layout

    # ---- page-table construction ------------------------------------------------

    def build_page_table(self, page_bytes: int = PAGE,
                         shared_probe: bool = True) -> PageTable:
        """Pre-map every region so PPNs are known to the code
        generators (the threat model grants the attacker knowledge of
        the layout).

        ``shared_probe`` maps the attacker's probe alias onto the same
        physical pages as the victim's transmit array (Flush+Reload
        style page sharing); the non-shared scenarios skip it.
        """
        table = PageTable(page_bytes=page_bytes)
        for base in (self.code_base, self.size_addr, self.array1_base,
                     self.secret_addr, self.results_base, self.inputs_base,
                     self.fnptr_addr):
            vpn = base // page_bytes
            if table.lookup(vpn) is None:
                table.map_page(vpn)
        # Victim transmit pages.
        for value in range(self.n_values):
            vpn = self.probe_line(value) // page_bytes
            if table.lookup(vpn) is None:
                table.map_page(vpn)
        if shared_probe and self.attacker_probe_base != self.probe_base:
            for value in range(self.n_values):
                victim_vpn = self.probe_line(value) // page_bytes
                attacker_vpn = self.attacker_probe_line(value) // page_bytes
                if table.lookup(attacker_vpn) is None:
                    table.map_shared(attacker_vpn, victim_vpn)
        return table

    def initial_data(self) -> Dict[int, int]:
        """Initial memory image: secret, bounds, benign array1 and the
        per-iteration victim inputs (in-bounds for training, the
        out-of-bounds index on the final iteration)."""
        data: Dict[int, int] = {
            self.secret_addr: self.secret_value,
            self.size_addr: 1,          # array1 has one legal element
            self.array1_base: 0,        # benign value -> candidate 0
        }
        for iteration in range(self.n_iterations):
            x = 0 if iteration < self.n_train else self.oob_index
            data[self.input_addr(iteration)] = x
        return data
