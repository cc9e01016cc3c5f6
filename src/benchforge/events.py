"""Producer half of the metric protocol: the event record and its canonical encoding.

A worker imports only this module; the decoder, the stream framer and
the observation log live in ``benchforge.protocol``, which re-exports
these names. See ``docs/protocol.md`` for the wire grammar.
"""

from __future__ import annotations

import json
from typing import Any, NamedTuple

from . import _Checked

EVENT_KINDS = frozenset(
    {
        "config",
        "start",
        "phase",
        "rate",
        "loss",
        "gpudata",
        "progress",
        "success",
        "error",
        "stop",
        "end",
    }
)


class ProtocolError(ValueError):
    """Raised when an event cannot be encoded."""


class _MetricEventFields(NamedTuple):
    event: str
    time: float
    task: str
    data: dict[str, Any]


class MetricEvent(_Checked, _MetricEventFields):
    """One line of the metric protocol. ``data`` defaults to a fresh ``{}``."""

    __slots__ = ()

    def __new__(cls, event: str, time: float, task: str, data: dict[str, Any] | None = None):
        if event not in EVENT_KINDS:
            raise ProtocolError(f"unknown event kind {event!r}")
        return super().__new__(cls, event, time, task, {} if data is None else data)


# Payload keys are sorted by the encoder; the top-level keys are written in their fixed order.
_ENCODE = json.JSONEncoder(sort_keys=True, separators=(",", ":"), allow_nan=False, ensure_ascii=False).encode


def encode_event(event: MetricEvent) -> str:
    """Encode an event as exactly one canonical JSON line.

    Top-level keys appear in the fixed order event, time, task, data;
    payload keys are sorted. Output is UTF-8 safe and ends with ``\\n``.
    """
    try:
        line = (
            f'{{"event":{_ENCODE(event.event)},"time":{_ENCODE(event.time)},'
            f'"task":{_ENCODE(event.task)},"data":{_ENCODE(event.data)}}}'
        )
    except (TypeError, ValueError) as exc:  # TypeError also when payload keys cannot be sorted
        raise ProtocolError(f"payload not serializable: {exc}") from exc
    if "\n" in line:
        raise ProtocolError("encoded event contains interior newline")
    return line + "\n"
