"""Minimal single-gadget driver programs for the static scanner.

Each driver wraps one of the shared gadget emitters from
:mod:`repro.attacks.gadgets` in the smallest runnable program: no
training loops, no side-channel receiver — just the speculation source
and the S-Pattern (or a mitigated variant).  Every gadget comes in
three flavours:

- ``unsafe`` — the plain gadget; must be flagged *and* survive
  value-set refinement (it can really read a secret);
- ``fenced`` — serializing-FENCE mitigation; must analyze clean;
- ``masked`` — index-masking mitigation; still an S-Pattern to the
  taint pass (the precision cost of its over-approximation) but
  provably in-bounds, so value-set refinement must refute it.

They serve three masters: ``tests/test_taint_analysis.py`` asserts the
flag/clean split, the cross-validation tests check static coverage of
the dynamic suspect set, and the precision study
(:mod:`repro.experiments.precision_study`) measures the false-positive
rate before/after refinement.
"""
from __future__ import annotations

import dataclasses
import json
import os
from typing import Callable, Dict, Tuple

from ..attacks.gadgets import (
    MASKED_WORDS,
    R_ARG_PROBE,
    R_ARG_PTR,
    R_RET,
    R_X,
    emit_bounds_check_gadget,
    emit_indirect_gadget_body,
    emit_store_bypass_gadget,
    emit_transmit,
)
from ..attacks.layout import AttackLayout
from ..isa.builder import ProgramBuilder
from ..isa.program import Program

GADGET_KINDS: Tuple[str, ...] = ("v1", "v2", "v4", "rsb")

#: Mitigation flavours every corpus gadget is built in.
CORPUS_VARIANTS: Tuple[str, ...] = ("unsafe", "fenced", "masked")


def corpus_secret_words() -> Tuple[int, ...]:
    """Word addresses holding secrets in every corpus driver (the
    shared :class:`AttackLayout` secret) — passed to the value-set
    refinement so constant-address secret reads are never refuted."""
    return (AttackLayout().secret_addr,)


def _make_builder(layout: AttackLayout) -> ProgramBuilder:
    builder = ProgramBuilder(base_address=layout.code_base)
    for address, value in sorted(layout.initial_data().items()):
        builder.data_word(address, value)
    # Give array1 a full masked-access window of initialized words so
    # the region the masked variants stay inside actually exists.
    for index in range(MASKED_WORDS):
        address = layout.array1_base + index * 8
        if address not in layout.initial_data():
            builder.data_word(address, 0)
    return builder


def build_v1_gadget(fenced: bool = False, masked: bool = False) -> Program:
    """Bounds-check bypass: one in-bounds call of the V1 victim.  The
    input ``x`` is loaded from memory (like the real attack's input
    array), so its value is statically unknown — the unsafe variant
    cannot be refuted as in-bounds."""
    layout = AttackLayout()
    builder = _make_builder(layout)
    builder.li(9, layout.input_addr(0))
    builder.load(R_X, 9, note="prewarm input line")
    builder.load(R_X, 9, note="victim input x (fast hit)")
    emit_bounds_check_gadget(builder, layout, "demo",
                             fenced=fenced, masked=masked)
    builder.halt()
    return builder.build()


def build_v2_gadget(fenced: bool = False, masked: bool = False) -> Program:
    """Branch-target injection: an indirect jump plus a gadget body
    that is only reachable speculatively (it sits after HALT)."""
    layout = AttackLayout()
    builder = _make_builder(layout)
    builder.li(R_ARG_PTR, layout.secret_addr)
    builder.li(R_ARG_PROBE, layout.probe_base)
    builder.li_label(R_RET, "v2_done")
    builder.li_label(20, "v2_gadget_demo")
    builder.jmpi(20)
    builder.label("v2_done")
    builder.halt()
    emit_indirect_gadget_body(builder, layout, "demo",
                              fenced=fenced, masked=masked)
    return builder.build()


def build_v4_gadget(fenced: bool = False, masked: bool = False) -> Program:
    """Speculative store bypass: sanitizing store with a delinquent
    address followed by the stale-secret load and transmit."""
    layout = AttackLayout()
    builder = _make_builder(layout)
    builder.data_word(layout.fnptr_addr, layout.secret_addr)
    emit_store_bypass_gadget(builder, layout, "demo", layout.fnptr_addr,
                             fenced=fenced, masked=masked)
    builder.halt()
    return builder.build()


#: Word holding the rsb victim's architectural return target.  A *cold*
#: data word (never prewarmed), so the dynamic RET resolves slowly and
#: the stale RAS prediction gets a real speculation window — the same
#: role ``clflush`` plays in the full ``spectre_rsb`` attack.
RSB_RETADDR_ADDR = 0x86000


def build_rsb_gadget(fenced: bool = False, masked: bool = False) -> Program:
    """ret2spec: the victim function rewrites its return target (loaded
    from cold memory), so the RAS-predicted return speculatively
    executes the gadget planted after the call site."""
    layout = AttackLayout()
    builder = _make_builder(layout)
    builder.li(12, layout.input_addr(0) if masked else layout.secret_addr)
    builder.call("rsb_victim_demo")
    # ---- return-site gadget: executes only under the stale RAS
    # prediction, before the RET resolves to the benign exit.
    if fenced:
        builder.fence()
    if masked:
        builder.load(13, 12, note="public input read")
        builder.andi(13, 13, MASKED_WORDS - 1)
        builder.shli(13, 13, 3)
        builder.li(11, layout.array1_base)
        builder.add(13, 11, 13)
        builder.load(13, 13, note="masked in-bounds read")
    else:
        builder.load(13, 12, note="secret read via stale return prediction")
    emit_transmit(builder, layout, 13)
    builder.jmp("rsb_done")
    builder.label("rsb_victim_demo")
    builder.li(9, RSB_RETADDR_ADDR)
    builder.load(31, 9, note="return target from (cold) memory")
    builder.ret()
    builder.label("rsb_done")
    builder.halt()
    program = builder.build()
    # The return-target word holds a code label only known post-build;
    # `insert_fences` remaps label-valued data words, so the fenced
    # rewrite keeps pointing at (the fence before) `rsb_done`.
    return dataclasses.replace(
        program,
        initial_memory={**program.initial_memory,
                        RSB_RETADDR_ADDR: program.labels["rsb_done"]},
    )


GADGET_BUILDERS: Dict[str, Callable[..., Program]] = {
    "v1": build_v1_gadget,
    "v2": build_v2_gadget,
    "v4": build_v4_gadget,
    "rsb": build_rsb_gadget,
}


def build_gadget_program(kind: str, fenced: bool = False,
                         masked: bool = False) -> Program:
    """Driver program for ``kind`` (one of :data:`GADGET_KINDS`)."""
    return GADGET_BUILDERS[kind](fenced=fenced, masked=masked)


def build_corpus_variant(kind: str, variant: str) -> Program:
    """Driver for ``kind`` in one of :data:`CORPUS_VARIANTS`."""
    if variant not in CORPUS_VARIANTS:
        raise ValueError(f"unknown corpus variant {variant!r}")
    return build_gadget_program(
        kind,
        fenced=(variant == "fenced"),
        masked=(variant == "masked"),
    )


def corpus_spec_program(spec: str) -> Program:
    """The driver a ``corpus:<kind>[:<variant>]`` spec names (variant
    ``unsafe`` when omitted); raises ``ValueError`` on any other
    string."""
    parts = spec.split(":")
    kind = parts[1] if len(parts) > 1 else ""
    variant = parts[2] if len(parts) > 2 else "unsafe"
    if parts[0] != "corpus" or kind not in GADGET_KINDS \
            or variant not in CORPUS_VARIANTS or len(parts) > 3:
        raise ValueError(
            f"bad corpus spec {spec!r}: expected "
            f"corpus:{{{','.join(GADGET_KINDS)}}}"
            f"[:{{{','.join(CORPUS_VARIANTS)}}}]")
    return build_corpus_variant(kind, variant)


# ---------------------------------------------------------------------------
# Externally ingested gadgets (fuzz-found S-Pattern variants)
# ---------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class IngestedGadget:
    """One externally discovered gadget, stored as assembler text.

    Ingested entries *extend* the corpus: the precision study appends
    them after the built-in ``kind × variant`` grid, so the built-in
    rows keep their identities and ordering no matter how many gadgets
    a fuzz campaign adds.  ``secret_words`` defaults to the shared
    corpus secret when empty.
    """

    name: str
    source: str
    base_address: int = 0x1000
    is_gadget: bool = True
    secret_words: Tuple[int, ...] = ()
    #: Provenance, e.g. ``"fuzz-evolve:cache_hit"``.
    origin: str = ""

    def build(self) -> Program:
        from ..isa.assembler import assemble
        return assemble(self.source, base_address=self.base_address)

    def secrets(self) -> Tuple[int, ...]:
        return self.secret_words or corpus_secret_words()

    def to_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "source": self.source,
            "base_address": self.base_address,
            "is_gadget": self.is_gadget,
            "secret_words": list(self.secret_words),
            "origin": self.origin,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "IngestedGadget":
        secret_raw = data.get("secret_words", [])
        assert isinstance(secret_raw, list)
        return cls(
            name=str(data["name"]),
            source=str(data["source"]),
            base_address=int(data.get("base_address", 0x1000)),  # type: ignore[arg-type]
            is_gadget=bool(data.get("is_gadget", True)),
            secret_words=tuple(int(w) for w in secret_raw),
            origin=str(data.get("origin", "")),
        )


#: Registry of ingested gadgets, in registration order (name-keyed so
#: re-registration replaces rather than duplicates).
_INGESTED: Dict[str, IngestedGadget] = {}


def register_ingested_gadget(gadget: IngestedGadget) -> None:
    """Add ``gadget`` to the corpus extension (replaces same name)."""
    _INGESTED[gadget.name] = gadget


def ingested_gadgets() -> Tuple[IngestedGadget, ...]:
    """Currently registered extensions, in registration order."""
    return tuple(_INGESTED.values())


def clear_ingested_gadgets() -> None:
    """Empty the extension registry (tests and CLI resets)."""
    _INGESTED.clear()


def load_ingested_gadgets(directory: "os.PathLike[str] | str") -> int:
    """Register every ``*.json`` gadget file under ``directory``.

    Files are :meth:`IngestedGadget.to_dict` payloads.  Returns the
    number registered; a missing directory registers nothing.
    """
    if not os.path.isdir(directory):
        return 0
    count = 0
    for entry in sorted(os.listdir(directory)):
        if not entry.endswith(".json"):
            continue
        with open(os.path.join(directory, entry)) as handle:
            data = json.load(handle)
        assert isinstance(data, dict)
        register_ingested_gadget(IngestedGadget.from_dict(data))
        count += 1
    return count
