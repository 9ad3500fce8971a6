"""Lightweight statistics plumbing shared by all simulator components.

A :class:`StatGroup` is a named bag of integer counters with helpers for
ratios and merging.  Components own their group; the processor gathers
them into a single report at the end of a run.
"""
from __future__ import annotations

from typing import Dict, Iterable, Mapping


class StatGroup(dict):
    """A named collection of monotonically increasing counters.

    The group is the counter mapping itself, so a counter is bumped
    with ``group[key] += amount`` and costs no method call.  A counter
    never bumped reads as 0 and is not created by the read: only the
    counters a run bumped appear in :meth:`as_dict`.
    """

    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        super().__init__()
        self.name = name

    def __missing__(self, key: str) -> int:
        return 0

    def get(self, key: str, default: int = 0) -> int:  # type: ignore[override]
        """Current value of ``key`` (``default``, 0, if never bumped)."""
        return dict.get(self, key, default)

    def ratio(self, numerator: str, denominator: str, default: float = 0.0) -> float:
        """``numerator / denominator`` guarding against a zero denominator."""
        denom = self[denominator]
        if denom == 0:
            return default
        return self[numerator] / denom

    def merge(self, other: "StatGroup") -> None:
        """Fold another group's counters into this one."""
        for key, value in other.items():
            self[key] += value

    def as_dict(self) -> Dict[str, int]:
        """A plain-dict snapshot of all counters."""
        return dict(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        inner = ", ".join(f"{k}={v}" for k, v in sorted(self.items()))
        return f"StatGroup({self.name}: {inner})"


def combine(groups: Iterable[StatGroup]) -> Dict[str, Dict[str, int]]:
    """Snapshot many groups into a nested plain dict keyed by group name."""
    merged: Dict[str, Dict[str, int]] = {}
    for group in groups:
        merged[group.name] = group.as_dict()
    return merged


def safe_div(numerator: float, denominator: float, default: float = 0.0) -> float:
    """Division that returns ``default`` when the denominator is zero."""
    if denominator == 0:
        return default
    return numerator / denominator


def geometric_mean(values: Iterable[float]) -> float:
    """Geometric mean of positive values (0.0 for an empty sequence)."""
    values = list(values)
    if not values:
        return 0.0
    product = 1.0
    for value in values:
        if value <= 0:
            raise ValueError("geometric mean requires positive values")
        product *= value
    return product ** (1.0 / len(values))


def format_percent(value: float, digits: int = 1) -> str:
    """Render a fraction as a percent string, e.g. 0.128 -> '12.8%'."""
    return f"{value * 100:.{digits}f}%"


def overhead(measured_cycles: float, baseline_cycles: float) -> float:
    """Relative slowdown of ``measured`` vs ``baseline`` (0.0 = equal)."""
    return safe_div(measured_cycles, baseline_cycles, default=1.0) - 1.0


def summarize(mapping: Mapping[str, float]) -> str:
    """One-line ``key=value`` rendering used in logs and examples."""
    return " ".join(f"{key}={value:.4g}" for key, value in mapping.items())
