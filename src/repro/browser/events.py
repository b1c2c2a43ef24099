"""Structured browser event log.

Every instrumentation hook appends one ``BrowserEvent``; the crawler's
harvest step reconstructs WPN records purely from this log, mirroring how
the paper's pipeline consumes its instrumented-Chromium logs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List


class EventKind:
    """Event type constants (string enum kept simple for log readability)."""

    PERMISSION_REQUESTED = "permission_requested"
    PERMISSION_DECIDED = "permission_decided"
    DOUBLE_PERMISSION_PROMPT = "double_permission_prompt"
    SW_REGISTERED = "sw_registered"
    SW_NETWORK_REQUEST = "sw_network_request"
    SUBSCRIPTION_CREATED = "subscription_created"
    NOTIFICATION_SHOWN = "notification_shown"
    NOTIFICATION_CLICKED = "notification_clicked"
    NOTIFICATION_ACTION_CLICKED = "notification_action_clicked"
    NOTIFICATION_CLOSED = "notification_closed"
    NAVIGATION = "navigation"
    REDIRECT = "redirect"
    PAGE_RENDERED = "page_rendered"
    TAB_CRASHED = "tab_crashed"

    ALL = (
        PERMISSION_REQUESTED,
        PERMISSION_DECIDED,
        DOUBLE_PERMISSION_PROMPT,
        SW_REGISTERED,
        SW_NETWORK_REQUEST,
        SUBSCRIPTION_CREATED,
        NOTIFICATION_SHOWN,
        NOTIFICATION_CLICKED,
        NOTIFICATION_ACTION_CLICKED,
        NOTIFICATION_CLOSED,
        NAVIGATION,
        REDIRECT,
        PAGE_RENDERED,
        TAB_CRASHED,
    )


@dataclass(frozen=True)
class BrowserEvent:
    """One instrumentation record: kind, simulated time, free-form payload."""

    kind: str
    time_min: float
    data: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in EventKind.ALL:
            raise ValueError(f"unknown event kind: {self.kind!r}")


class EventLog:
    """Append-only in-memory event log with simple querying."""

    def __init__(self):
        self._events: List[BrowserEvent] = []

    def emit(self, kind: str, time_min: float, **data: Any) -> BrowserEvent:
        event = BrowserEvent(kind=kind, time_min=time_min, data=data)
        self._events.append(event)
        return event

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[BrowserEvent]:
        return iter(self._events)

    def since(self, index: int) -> List[BrowserEvent]:
        """The events from position ``index`` on, in emission order."""
        return self._events[index:]

    def of_kind(self, kind: str) -> List[BrowserEvent]:
        """All events of one kind, in emission order."""
        return [e for e in self._events if e.kind == kind]

    def count(self, kind: str) -> int:
        return sum(1 for e in self._events if e.kind == kind)

    def extend_from(self, other: "EventLog") -> None:
        """Merge another log (e.g. one container's) into this one."""
        self._events.extend(other._events)
