"""Replayable counterexamples for the symbolic certifier.

A :class:`Witness` is a *concrete* pair of initial states — identical
public memory, two different secret valuations — that the symbolic
engine (:mod:`repro.analysis.symx`) claims distinguishes the program's
speculative observations.  :func:`replay_witness` runs both states on
the **dynamic pipeline** (:class:`~repro.pipeline.processor.Processor`
in unsafe ORIGIN mode) and diffs the cache lines each run touches,
wrong path included.  A leak is *reproduced* when every line the
certifier predicted shows up in that dynamic difference.

This is the same cross-validation discipline PR 1 established for the
suspect set, applied per-counterexample: a ``LEAKY`` verdict is only
as strong as its replay.

Replay staging
--------------

Two details make transient leaks dynamically visible, both mirroring
the attack drivers in :mod:`repro.attacks`:

- *Warm data, cold trigger.*  The witness lists ``warm_words`` — the
  initial-memory words feeding the observed address chain (the victim
  recently touched its own data; ``emit_prewarm`` documents the same
  standard Spectre assumption).  Replay installs those lines in the
  hierarchy before cycle 0.  Trigger words (the bounds check's input,
  a return-target word) are *not* in the chain and stay cold, keeping
  the speculation window open.
- *Line addresses are virtual.*  The probe records ``vaddr //
  line_bytes``: physical frames are allocated on first touch, so two
  runs that differ architecturally can map the same virtual line to
  different physical ones.
"""
from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, Iterable, Mapping, Optional, Set, Tuple

from ..core.policy import SecurityConfig
from ..isa.instructions import WORD_BYTES, mask64
from ..isa.program import Program
from ..params import MachineParams, RunOptions
from ..pipeline.dyninst import DynInst
from ..pipeline.processor import Processor
from ..pipeline.trace import PipelineTracer
from ..robustness.faults import FaultPlan

_WORD_ALIGN = ~(WORD_BYTES - 1)


@dataclass(frozen=True)
class Witness:
    """A concrete, self-contained counterexample to SNI.

    ``public_memory`` holds word-address/value pairs shared by both
    runs; ``secret_memory_a``/``secret_memory_b`` are the two secret
    valuations (same addresses, at least one differing value).
    ``predicted_lines`` are the virtual line indices the certifier's
    reference semantics expects to differ between the runs.
    """

    kind: str
    source_pc: int
    sink_pc: int
    public_memory: Tuple[Tuple[int, int], ...]
    secret_memory_a: Tuple[Tuple[int, int], ...]
    secret_memory_b: Tuple[Tuple[int, int], ...]
    warm_words: Tuple[int, ...]
    predicted_lines: Tuple[int, ...]
    line_bytes: int = 64

    def initial_memory(self, variant: str) -> Dict[int, int]:
        """The memory override for run ``"a"`` or ``"b"``."""
        secrets = (self.secret_memory_a if variant == "a"
                   else self.secret_memory_b)
        overrides = dict(self.public_memory)
        overrides.update(secrets)
        return {mask64(addr) & _WORD_ALIGN: mask64(value)
                for addr, value in overrides.items()}

    def to_dict(self) -> Dict[str, object]:
        return {
            "kind": self.kind,
            "source_pc": self.source_pc,
            "sink_pc": self.sink_pc,
            "public_memory": [list(pair) for pair in self.public_memory],
            "secret_memory_a": [list(pair)
                                for pair in self.secret_memory_a],
            "secret_memory_b": [list(pair)
                                for pair in self.secret_memory_b],
            "warm_words": list(self.warm_words),
            "predicted_lines": list(self.predicted_lines),
            "line_bytes": self.line_bytes,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "Witness":
        def pairs(key: str) -> Tuple[Tuple[int, int], ...]:
            raw = data.get(key, [])
            assert isinstance(raw, list)
            return tuple((int(pair[0]), int(pair[1])) for pair in raw)

        def ints(key: str) -> Tuple[int, ...]:
            raw = data.get(key, [])
            assert isinstance(raw, list)
            return tuple(int(v) for v in raw)

        return cls(
            kind=str(data["kind"]),
            source_pc=int(data["source_pc"]),  # type: ignore[arg-type]
            sink_pc=int(data["sink_pc"]),  # type: ignore[arg-type]
            public_memory=pairs("public_memory"),
            secret_memory_a=pairs("secret_memory_a"),
            secret_memory_b=pairs("secret_memory_b"),
            warm_words=ints("warm_words"),
            predicted_lines=ints("predicted_lines"),
            line_bytes=int(data.get("line_bytes", 64)),  # type: ignore[arg-type]
        )


@dataclass(frozen=True)
class ReplayResult:
    """Outcome of replaying a witness on the dynamic pipeline."""

    #: Every predicted line appears in the dynamic line difference.
    reproduced: bool
    #: Virtual line indices touched by exactly one of the two runs.
    leaked_lines: Tuple[int, ...]
    #: The difference comes from squashed (transient) loads only.
    transient_only: bool
    cycles_a: int
    cycles_b: int
    fault_seed: Optional[int] = None

    def to_dict(self) -> Dict[str, object]:
        return {
            "reproduced": self.reproduced,
            "leaked_lines": list(self.leaked_lines),
            "transient_only": self.transient_only,
            "cycles_a": self.cycles_a,
            "cycles_b": self.cycles_b,
            "fault_seed": self.fault_seed,
        }


class _LineProbe(PipelineTracer):
    """Records the virtual cache line of every load that reached the
    hierarchy — retired and squashed alike."""

    def __init__(self, line_bytes: int) -> None:
        super().__init__(limit=10_000_000)
        self.line_bytes = line_bytes
        self.committed_lines: Set[int] = set()
        self.squashed_lines: Set[int] = set()

    def _line_of(self, inst: DynInst) -> Optional[int]:
        if not inst.instr.is_load:
            return None
        if inst.mem_level is None or inst.vaddr is None:
            return None
        return inst.vaddr // self.line_bytes

    def on_retire(self, inst: DynInst, cycle: int) -> None:
        line = self._line_of(inst)
        if line is not None:
            self.committed_lines.add(line)

    def on_squash(self, inst: DynInst, cycle: int) -> None:
        line = self._line_of(inst)
        if line is not None:
            self.squashed_lines.add(line)

    @property
    def all_lines(self) -> Set[int]:
        return self.committed_lines | self.squashed_lines


def _run_variant(
    program: Program,
    witness: Witness,
    variant: str,
    *,
    machine: Optional[MachineParams],
    fault_plan: Optional[FaultPlan],
    max_cycles: Optional[int],
) -> Tuple[_LineProbe, int]:
    staged = dataclasses.replace(
        program,
        initial_memory={**program.initial_memory,
                        **witness.initial_memory(variant)},
    )
    probe = _LineProbe(witness.line_bytes)
    cpu = Processor(
        staged,
        machine=machine,
        security=SecurityConfig.origin(),
        tracer=probe,
        options=RunOptions(fault_plan=fault_plan),
    )
    # Warm the dependency-chain lines (see module docstring): translate
    # through the DTLB, then fill through the data hierarchy.
    for word in witness.warm_words:
        translation = cpu.dtlb.translate(mask64(word))
        cpu.hierarchy.data_access(translation.paddr)
    report = cpu.run(max_cycles=max_cycles)
    return probe, report.cycles


def replay_witness(
    program: Program,
    witness: Witness,
    *,
    machine: Optional[MachineParams] = None,
    fault_plan: Optional[FaultPlan] = None,
    max_cycles: Optional[int] = None,
) -> ReplayResult:
    """Replay ``witness`` on the unsafe (ORIGIN) pipeline.

    Both runs execute the *original* ``program`` with only the
    witness's initial-memory overrides applied, so the replay shares
    nothing with the symbolic engine except the claim under test.  The
    same ``fault_plan`` (if any) seeds both runs identically — each
    run builds its own injector from the plan — keeping the replay
    deterministic under fault injection.
    """
    probe_a, cycles_a = _run_variant(
        program, witness, "a",
        machine=machine, fault_plan=fault_plan, max_cycles=max_cycles)
    probe_b, cycles_b = _run_variant(
        program, witness, "b",
        machine=machine, fault_plan=fault_plan, max_cycles=max_cycles)
    leaked = probe_a.all_lines ^ probe_b.all_lines
    committed = probe_a.committed_lines | probe_b.committed_lines
    reproduced = bool(leaked) and set(witness.predicted_lines) <= leaked
    seed = fault_plan.seed if fault_plan is not None else None
    return ReplayResult(
        reproduced=reproduced,
        leaked_lines=tuple(sorted(leaked)),
        transient_only=bool(leaked) and not (leaked & committed),
        cycles_a=cycles_a,
        cycles_b=cycles_b,
        fault_seed=seed,
    )


def replay_all(
    program: Program,
    witnesses: Iterable[Witness],
    *,
    machine: Optional[MachineParams] = None,
    fault_plan: Optional[FaultPlan] = None,
) -> Tuple[ReplayResult, ...]:
    """Replay several witnesses against one program."""
    return tuple(
        replay_witness(program, witness, machine=machine,
                       fault_plan=fault_plan)
        for witness in witnesses
    )


__all__ = ["ReplayResult", "Witness", "replay_all", "replay_witness"]
