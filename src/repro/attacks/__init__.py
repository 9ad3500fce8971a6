"""Spectre proof-of-concept attacks and cache side-channel receivers.

Each attack is a complete simulated program (trainer + victim gadget +
side-channel receiver) plus a pre-constructed page table, following the
paper's threat model: the attacker runs on the same machine, knows the
victim's layout, and - in the *shared* scenarios - shares read-only
pages with the victim.

The harness runs an attack under a chosen protection mode and reports
whether the secret was recovered through the side channel.
"""
from .layout import AttackLayout
from .sidechannel import (
    Channel,
    EvictReloadChannel,
    EvictTimeChannel,
    FlushFlushChannel,
    FlushReloadChannel,
    PrimeProbeChannel,
)
from .harness import AttackResult, run_attack
from .evaluation import SweepResult, sweep_attack
from .spectre_v1 import build_spectre_v1
from .spectre_v2 import build_spectre_v2
from .spectre_v4 import build_spectre_v4
from .spectre_prime import build_spectre_prime
from .spectre_rsb import build_spectre_rsb

#: The attack suite by name.  Every builder takes ``layout=`` and
#: ``machine=``; all but ``prime`` (whose receiver is its Prime+Probe
#: channel) also take ``channel=``.
ATTACKS = {
    "v1": build_spectre_v1,
    "v2": build_spectre_v2,
    "v4": build_spectre_v4,
    "rsb": build_spectre_rsb,
    "prime": build_spectre_prime,
}

__all__ = [
    "ATTACKS",
    "AttackLayout",
    "Channel",
    "FlushReloadChannel",
    "FlushFlushChannel",
    "EvictReloadChannel",
    "PrimeProbeChannel",
    "EvictTimeChannel",
    "AttackResult",
    "run_attack",
    "SweepResult",
    "sweep_attack",
    "build_spectre_v1",
    "build_spectre_v2",
    "build_spectre_v4",
    "build_spectre_prime",
    "build_spectre_rsb",
]
