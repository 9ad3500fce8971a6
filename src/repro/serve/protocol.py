"""Wire protocol and job model of the ``repro serve`` daemon.

Submissions arrive as JSON over HTTP and are normalized into a
:class:`Submission` — a frozen, canonical description of exactly one
unit of analysis work.  Canonicalization matters: the content-addressed
result cache keys on :meth:`Submission.cache_key`, which hashes the
*disassembly of the assembled program* (so two textual variants of the
same program share one cache entry) together with every semantic knob
(kind, tier, mode, secrets, budgets, fault plan).  Anything that can
change the answer is in the key; anything that cannot (client id,
submission time) is not.

The degradation ladder is ordered by :class:`Tier`: ``taint`` (cheap,
always affordable) < ``valueset`` (refinement) < ``symx``
(certification).  The engine always answers from the highest tier it
could afford — see :mod:`repro.serve.engine`.
"""
from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, Mapping, Optional, Tuple, Type, TypeVar

from ..errors import AssemblyError, ServeError
from ..isa.assembler import assemble, disassemble
from ..isa.program import Program
from ..robustness.faults import FaultPlan


class SubmissionError(ServeError):
    """The request body is malformed; maps to a 400 response."""


class Tier(Enum):
    """Analysis tiers, ordered by cost (the degradation ladder)."""

    TAINT = "taint"
    VALUESET = "valueset"
    SYMX = "symx"

    @property
    def rank(self) -> int:
        return _TIER_RANK[self]

    def below(self) -> Optional["Tier"]:
        """The next cheaper tier (what a timed-out answer degrades
        to), or ``None`` for the floor tier."""
        if self is Tier.TAINT:
            return None
        return _TIER_ORDER[self.rank - 1]


_TIER_ORDER = (Tier.TAINT, Tier.VALUESET, Tier.SYMX)
_TIER_RANK = {tier: index for index, tier in enumerate(_TIER_ORDER)}

#: Tiers answered inline in the HTTP request (cheap enough for
#: interactive latency); the rest run as background jobs.
SYNC_TIERS = (Tier.TAINT, Tier.VALUESET)


class JobKind(Enum):
    """What a job does: run the static stack, or run the simulator."""

    ANALYZE = "analyze"
    SIMULATE = "simulate"


class JobState(Enum):
    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"


@dataclass(frozen=True)
class Budgets:
    """Per-job resource budgets; every field optional (server default
    applies).  Part of the cache key — a tighter budget may honestly
    produce a weaker (degraded) answer, so answers under different
    budgets never alias."""

    #: Whole-job wall-clock budget in seconds.
    wall_clock: Optional[float] = None
    #: symx exploration budgets.
    max_steps: Optional[int] = None
    max_paths: Optional[int] = None
    max_depth: Optional[int] = None
    #: Simulation budgets.
    max_cycles: Optional[int] = None
    watchdog_cycles: Optional[int] = None

    def __post_init__(self) -> None:
        if self.wall_clock is not None and self.wall_clock <= 0:
            raise SubmissionError("budgets.wall_clock must be positive")
        for name in ("max_steps", "max_paths", "max_depth",
                     "max_cycles", "watchdog_cycles"):
            value = getattr(self, name)
            if value is not None and value <= 0:
                raise SubmissionError(f"budgets.{name} must be positive")

    def to_dict(self) -> Dict[str, object]:
        return {name: value for name in (
            "wall_clock", "max_steps", "max_paths", "max_depth",
            "max_cycles", "watchdog_cycles",
        ) if (value := getattr(self, name)) is not None}

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "Budgets":
        known = ("wall_clock", "max_steps", "max_paths", "max_depth",
                 "max_cycles", "watchdog_cycles")
        unknown = set(data) - set(known)
        if unknown:
            raise SubmissionError(
                f"unknown budget field(s): {sorted(unknown)}")
        kwargs: Dict[str, object] = {}
        for name in known:
            if name not in data:
                continue
            value = data[name]
            if name == "wall_clock":
                if not isinstance(value, (int, float)) \
                        or isinstance(value, bool):
                    raise SubmissionError(
                        "budgets.wall_clock must be a number")
                kwargs[name] = float(value)
            else:
                if not isinstance(value, int) or isinstance(value, bool):
                    raise SubmissionError(
                        f"budgets.{name} must be an integer")
                kwargs[name] = value
        return cls(**kwargs)  # type: ignore[arg-type]


@dataclass(frozen=True)
class Submission:
    """One canonicalized unit of work.

    ``source`` is always the *canonical* assembler text — the
    disassembly of the assembled program — regardless of how the
    request spelled the program (inline ``asm``, a ``corpus:...``
    spec, or a SPEC ``benchmark`` name).
    """

    kind: JobKind
    source: str
    name: str = "program"
    tier: Tier = Tier.SYMX
    mode: str = "origin"
    secret_words: Tuple[int, ...] = ()
    budgets: Budgets = field(default_factory=Budgets)
    #: Optional fault-injection plan fields (poisoned/chaos traffic;
    #: simulate jobs only).  Kept as a sorted-key dict fingerprint so
    #: it participates in the cache key.
    fault: Optional[Tuple[Tuple[str, object], ...]] = None
    client: str = "anonymous"

    # ---- derived ---------------------------------------------------------

    def program(self) -> Program:
        return assemble(self.source)

    def fault_plan(self) -> Optional[FaultPlan]:
        if self.fault is None:
            return None
        return FaultPlan(**dict(self.fault))  # type: ignore[arg-type]

    def security_config(self) -> "SecurityConfig":
        """The full defense configuration (``mode`` accepts any
        registered zoo name, not just the paper's four)."""
        from ..core.policy import SecurityConfig
        return SecurityConfig(self.mode)

    def cache_key(self) -> str:
        """Content-addressed identity: canonical program text plus
        every semantic knob, hashed.  Client identity and timing are
        deliberately excluded."""
        payload = {
            "kind": self.kind.value,
            "source": self.source,
            "tier": self.tier.value,
            "mode": self.mode,
            "secret_words": list(self.secret_words),
            "budgets": self.budgets.to_dict(),
            "fault": [list(pair) for pair in self.fault]
            if self.fault is not None else None,
        }
        blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()

    @property
    def synchronous(self) -> bool:
        """Whether this job is answered inline in the HTTP request
        (cheap tiers) or as a background job (symx, simulate)."""
        return self.kind is JobKind.ANALYZE and self.tier in SYNC_TIERS

    # ---- (de)serialization -----------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        data: Dict[str, object] = {
            "kind": self.kind.value,
            "asm": self.source,
            "name": self.name,
            "tier": self.tier.value,
            "mode": self.mode,
            "client": self.client,
        }
        if self.secret_words:
            data["secret_words"] = list(self.secret_words)
        if self.budgets.to_dict():
            data["budgets"] = self.budgets.to_dict()
        if self.fault is not None:
            data["fault"] = dict(self.fault)
        return data

    @classmethod
    def from_request(cls, data: object) -> "Submission":
        """Validate and canonicalize one JSON request body.

        The program may arrive as inline assembler text (``asm``), a
        built-in gadget driver (``spec``, e.g. ``corpus:v1``) or a
        SPEC workload (``benchmark`` plus optional ``scale``).
        Raises :class:`SubmissionError` with a client-presentable
        message on any malformed field.
        """
        if not isinstance(data, dict):
            raise SubmissionError("request body must be a JSON object")
        known = {"kind", "asm", "spec", "benchmark", "scale", "name",
                 "tier", "mode", "secret_words", "budgets", "fault",
                 "client"}
        unknown = set(data) - known
        if unknown:
            raise SubmissionError(
                f"unknown field(s): {sorted(unknown)}")

        kind = _parse_enum(JobKind, data.get("kind", "analyze"), "kind")
        tier = _parse_enum(Tier, data.get("tier", "symx"), "tier")
        mode = data.get("mode", "origin")
        if not isinstance(mode, str):
            raise SubmissionError("mode must be a string")
        # Any registered defense (or alias) is a valid mode; the
        # canonical name is what lands in the cache key.
        from ..core.defense import DefenseConfigError, defense_names, \
            normalize_defense_name
        try:
            mode = normalize_defense_name(mode)
        except DefenseConfigError:
            raise SubmissionError(
                f"unknown mode {mode!r}; choose from "
                f"{list(defense_names())}") from None

        program, name, default_secrets = _resolve_program(data)
        secrets = _parse_secret_words(
            data.get("secret_words"), default_secrets)

        budgets_data = data.get("budgets", {})
        if not isinstance(budgets_data, dict):
            raise SubmissionError("budgets must be an object")
        budgets = Budgets.from_dict(budgets_data)

        fault = _parse_fault(data.get("fault"))
        if fault is not None and kind is not JobKind.SIMULATE:
            raise SubmissionError(
                "fault plans only apply to simulate jobs")

        client = data.get("client", "anonymous")
        if not isinstance(client, str) or not client:
            raise SubmissionError("client must be a non-empty string")

        explicit_name = data.get("name")
        if explicit_name is not None:
            if not isinstance(explicit_name, str) or not explicit_name:
                raise SubmissionError("name must be a non-empty string")
            name = explicit_name

        # Canonical form is the *fixpoint* of disassembly: a first
        # pass may keep builder-attached comments, so normalize once
        # more through the assembler (comments do not survive it).
        source = disassemble(program)
        canonical = disassemble(assemble(source))
        return cls(
            kind=kind,
            source=canonical,
            name=name,
            tier=tier,
            mode=mode,
            secret_words=secrets,
            budgets=budgets,
            fault=fault,
            client=client,
        )

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "Submission":
        """Inverse of :meth:`to_dict` (checkpoint recovery path —
        trusted input, already canonical)."""
        return cls.from_request(dict(data))


_E = TypeVar("_E", bound=Enum)


def _parse_enum(enum_cls: Type[_E], value: object,
                field_name: str) -> _E:
    if not isinstance(value, str):
        raise SubmissionError(f"{field_name} must be a string")
    try:
        return enum_cls(value)
    except ValueError:
        raise SubmissionError(
            f"unknown {field_name} {value!r}; choose from "
            f"{[member.value for member in enum_cls]}"
        ) from None


def _resolve_program(
    data: Mapping[str, object],
) -> Tuple[Program, str, Tuple[int, ...]]:
    """Resolve exactly one of ``asm`` / ``spec`` / ``benchmark`` into
    ``(program, display_name, default_secret_words)``."""
    given = [key for key in ("asm", "spec", "benchmark") if key in data]
    if len(given) != 1:
        raise SubmissionError(
            "provide exactly one of 'asm', 'spec' or 'benchmark'")
    if "asm" in data:
        asm = data["asm"]
        if not isinstance(asm, str) or not asm.strip():
            raise SubmissionError("asm must be a non-empty string")
        if len(asm) > 1_000_000:
            raise SubmissionError("asm too large (1MB limit)")
        try:
            return assemble(asm), "inline", ()
        except AssemblyError as exc:
            raise SubmissionError(f"assembly failed: {exc}") from None
    if "spec" in data:
        spec = data["spec"]
        if not isinstance(spec, str) or not spec.startswith("corpus:"):
            raise SubmissionError(
                "spec must be a 'corpus:<kind>[:<variant>]' string")
        from ..analysis.corpus import corpus_secret_words, corpus_spec_program
        try:
            program = corpus_spec_program(spec)
        except ValueError as exc:
            raise SubmissionError(str(exc)) from None
        return program, spec, corpus_secret_words()
    benchmark = data["benchmark"]
    if not isinstance(benchmark, str):
        raise SubmissionError("benchmark must be a string")
    scale = data.get("scale", 1.0)
    if not isinstance(scale, (int, float)) or isinstance(scale, bool) \
            or not 0 < float(scale) <= 1.0:
        raise SubmissionError("scale must be a number in (0, 1]")
    from ..workloads import spec_names, spec_program
    if benchmark not in spec_names():
        raise SubmissionError(
            f"unknown benchmark {benchmark!r}; choose from "
            f"{spec_names()}")
    return (spec_program(benchmark, scale=float(scale)),
            f"{benchmark}@{scale}", ())


def _parse_secret_words(
    value: object, default: Tuple[int, ...],
) -> Tuple[int, ...]:
    if value is None:
        return tuple(sorted(set(default)))
    if not isinstance(value, list) \
            or not all(isinstance(w, int) and not isinstance(w, bool)
                       for w in value):
        raise SubmissionError("secret_words must be a list of integers")
    return tuple(sorted(set(value)))


_FAULT_FIELDS = frozenset(
    f for f in FaultPlan.__dataclass_fields__)


def _parse_fault(
    value: object,
) -> Optional[Tuple[Tuple[str, object], ...]]:
    if value is None:
        return None
    if not isinstance(value, dict):
        raise SubmissionError("fault must be an object of FaultPlan fields")
    unknown = set(value) - _FAULT_FIELDS
    if unknown:
        raise SubmissionError(
            f"unknown fault field(s): {sorted(unknown)}")
    try:
        FaultPlan(**value)
    except TypeError as exc:
        raise SubmissionError(f"bad fault plan: {exc}") from None
    return tuple(sorted(value.items()))


@dataclass
class JobRecord:
    """Lifecycle state of one job (the unit the checkpoint persists)."""

    job_id: str
    submission: Submission
    state: JobState = JobState.QUEUED
    result: Optional[Dict[str, object]] = None
    #: Wall-clock timestamps (informational; excluded from identity).
    submitted_at: float = 0.0
    finished_at: float = 0.0
    #: True when this record was recovered from a checkpoint after a
    #: restart rather than submitted in this server's lifetime.
    recovered: bool = False

    @property
    def done(self) -> bool:
        return self.state is JobState.DONE

    def public_view(self) -> Dict[str, object]:
        """What ``GET /v1/jobs/<id>`` returns."""
        view: Dict[str, object] = {
            "job_id": self.job_id,
            "state": self.state.value,
            "kind": self.submission.kind.value,
            "tier": self.submission.tier.value,
            "name": self.submission.name,
        }
        if self.result is not None:
            view["result"] = self.result
        return view

    def to_record(self) -> Dict[str, object]:
        record: Dict[str, object] = {
            "job_id": self.job_id,
            "state": self.state.value,
            "submission": self.submission.to_dict(),
            "submitted_at": self.submitted_at,
        }
        if self.result is not None:
            record["result"] = self.result
        if self.finished_at:
            record["finished_at"] = self.finished_at
        return record

    @classmethod
    def from_record(cls, record: Mapping[str, object]) -> "JobRecord":
        submission = Submission.from_dict(
            record["submission"])  # type: ignore[arg-type]
        state = JobState(record.get("state", "queued"))
        result = record.get("result")
        return cls(
            job_id=str(record["job_id"]),
            submission=submission,
            state=state,
            result=dict(result) if isinstance(result, dict) else None,
            submitted_at=float(record.get("submitted_at", 0.0)),  # type: ignore[arg-type]
            finished_at=float(record.get("finished_at", 0.0)),  # type: ignore[arg-type]
            recovered=True,
        )
