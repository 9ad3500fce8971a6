"""A small cycle-keyed event queue for deferred pipeline actions
(functional-unit completions, cache-stage callbacks, fill completions).

Events referencing squashed instructions are skipped at fire time - the
instruction object's ``squashed`` flag is the cancellation mechanism,
mirroring how real pipelines let in-flight operations drain.
"""
from __future__ import annotations

from collections import defaultdict
from typing import Callable, DefaultDict, List, Optional

Action = Callable[[], None]


class EventQueue:
    """Cycle -> list of thunks."""

    def __init__(self) -> None:
        self._events: DefaultDict[int, List[Action]] = defaultdict(list)
        self._pending = 0

    def schedule(self, cycle: int, action: Action) -> None:
        self._events[cycle].append(action)
        self._pending += 1

    def fire(self, cycle: int) -> int:
        """Run all events due at ``cycle``; returns how many ran."""
        actions = self._events.pop(cycle, None)
        if not actions:
            return 0
        self._pending -= len(actions)
        for action in actions:
            action()
        return len(actions)

    def next_deadline(self) -> Optional[int]:
        """The earliest cycle with a scheduled event (None if none)."""
        return min(self._events, default=None)

    @property
    def pending(self) -> int:
        return self._pending

    def clear(self) -> None:
        self._events.clear()
        self._pending = 0
