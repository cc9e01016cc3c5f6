"""Line-delimited metric event protocol.

Benchmark workers emit one JSON object per line on a dedicated metric
channel; the harness ingests the stream, tolerating garbage lines (a
worker's stderr may interleave when no dedicated channel is available).

Wire grammar: ``<json-object>\\n`` with required keys ``event``, ``time``,
``task``, ``data``. Numbers are plain decimals, never NaN or Inf. See
``docs/protocol.md`` for the full schema and the conformance corpus.
"""

from __future__ import annotations

import json
import math
import sys
from array import array
from operator import truediv
from typing import Any, BinaryIO, Iterable, Iterator, NamedTuple, Union

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

# Event kinds that may appear at most once per emitting process.
TERMINAL_KINDS = frozenset({"success", "error"})

# Bytes per read when a stream is pulled from a file or a pipe.
CHUNK_BYTES = 65536

assert array("I").itemsize == 4  # ObservationLog.task_index is stored as u32 in a fold sidecar


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


class Rejection(NamedTuple):
    """A line the decoder could not accept; ingestion continues past it."""

    line: str
    reason: str


StreamItem = Union[MetricEvent, Rejection]


class ObservationLog:
    """Folded outcome of one worker process.

    Its observations are four columns: ``work`` and ``elapsed`` (float
    arrays), ``warmup`` (a bytearray of 0 and 1) and ``task_index`` into
    ``tasks``, which numbers the task names in order of first use.
    """

    def __init__(
        self,
        terminal: str = "error",  # the first terminal event's kind; error when the stream has none
        faults: int = 0,  # timings dropped: end not after start, or a span or rate out of range
        message: str = "",
    ) -> None:
        self.work = array("d")
        self.elapsed = array("d")
        self.warmup = bytearray()
        self.task_index = array("I")
        self.tasks: dict[str, int] = {}
        self.terminal = terminal
        self.faults = faults
        self.message = message
        # Lines the decoder rejected, and the reasons of the first few of them.
        self.rejected = 0
        self.rejection_reasons: list[str] = []

    def add(self, work: float, elapsed: float, warmup: bool = False, task: str = "train") -> None:
        """Append one observation of ``work`` units in ``elapsed`` seconds; it refuses either not > 0."""
        if not (work > 0 and elapsed > 0):
            raise ValueError(f"work and elapsed must be positive, got {work}, {elapsed}")
        self.work.append(work)
        self.elapsed.append(elapsed)
        self.warmup.append(1 if warmup else 0)
        self.task_index.append(self.tasks.setdefault(task, len(self.tasks)))

    def rates(self) -> list[float]:
        return list(map(truediv, self.work, self.elapsed))


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


def _reject_constant(name: str) -> Any:
    raise ValueError(f"non-finite number {name} not allowed")


# Largest finite float: JSON 1e999 decodes to inf, and a longer integer cannot become a float.
_FLOAT_MAX = sys.float_info.max

# One scanner for every line; ``json.loads`` would build a new decoder per call.
_SCAN = json.JSONDecoder(parse_constant=_reject_constant).scan_once
_WHITESPACE = json.decoder.WHITESPACE.match

# Longest quoted kind an "unknown kind" reason repeats; the kind can be as long as its line.
_KIND_QUOTED_MAX = 64


def decode_event(line: str) -> StreamItem:
    """Decode one line into a MetricEvent, or a Rejection explaining why not.

    Rejections carry the raw line so callers can log or re-route it;
    they never abort the stream.
    """
    raw = line.rstrip("\n")
    stripped = raw.strip()
    if not stripped:
        return Rejection(raw, "empty line")
    # JSONDecoder.decode, inlined: its two calls and whitespace skips add ~40 % to the scan.
    # ``stripped`` has no whitespace at either end, and the error texts are json.loads's.
    try:
        if stripped.startswith("\ufeff"):
            raise json.JSONDecodeError("Unexpected UTF-8 BOM (decode using utf-8-sig)", stripped, 0)
        try:
            obj, end = _SCAN(stripped, 0)
        except StopIteration as err:
            raise json.JSONDecodeError("Expecting value", stripped, err.value) from None
        if end != len(stripped):
            raise json.JSONDecodeError("Extra data", stripped, _WHITESPACE(stripped, end).end())
    except ValueError as exc:
        return Rejection(raw, f"not valid JSON: {exc}")
    except RecursionError:  # the scanner recurses once per nested array or object
        return Rejection(raw, "nesting too deep")
    if not isinstance(obj, dict):
        return Rejection(raw, "not a JSON object")
    try:
        kind, time, task, data = obj["event"], obj["time"], obj["task"], obj["data"]
    except KeyError:
        missing = [k for k in ("event", "time", "task", "data") if k not in obj]
        return Rejection(raw, f"missing keys: {', '.join(missing)}")

    if not isinstance(kind, str) or kind not in EVENT_KINDS:
        quoted = repr(kind)
        if len(quoted) > _KIND_QUOTED_MAX:
            quoted = quoted[:_KIND_QUOTED_MAX] + "..."
        return Rejection(raw, f"unknown kind {quoted}")
    if isinstance(time, bool) or not isinstance(time, (int, float)):
        return Rejection(raw, "time must be a number")
    if not -_FLOAT_MAX <= time <= _FLOAT_MAX:
        return Rejection(raw, "time must be finite")
    if not isinstance(task, str):
        return Rejection(raw, "task must be a string")
    if not isinstance(data, dict):
        return Rejection(raw, "data must be an object")

    if kind == "rate":
        problem = _check_rate_payload(data)
        if problem:
            return Rejection(raw, problem)

    # The kind is checked above, so MetricEvent.__new__ would only check it again.
    return tuple.__new__(MetricEvent, (kind, float(time), task, data))


def _check_rate_payload(data: dict[str, Any]) -> str | None:
    rate = data.get("rate")
    if isinstance(rate, bool) or not isinstance(rate, (int, float)) or rate <= 0:
        return "rate payload requires numeric rate > 0"
    batch = data.get("batch")
    if isinstance(batch, bool) or not isinstance(batch, (int, float)) or batch <= 0:
        return "rate payload requires numeric batch > 0"
    if not isinstance(data.get("units"), str):
        return "rate payload requires text units"
    t0, t1 = data.get("t0", 0.0), data.get("t1", 0.0)
    try:
        finite = math.isfinite(rate) and math.isfinite(batch) and math.isfinite(t0) and math.isfinite(t1)
    except (TypeError, OverflowError):  # t0 or t1 is not a number, or an integer beyond float range
        finite = False
    return None if finite else "rate payload requires finite rate, batch, t0 and t1"


class StreamDecoder:
    """Incremental line framer over an arbitrary byte-chunk sequence.

    Output is invariant to chunk boundaries: a partial trailing line is
    kept until completed by a later chunk or by ``finish()``. Framing is
    linear in the bytes fed under any chunking: a chunk without a newline
    is only set aside, and the pieces of a line are joined once, when the
    chunk that ends it arrives. The complete lines of a chunk are decoded
    to text at once; a newline byte never occurs inside a multi-byte UTF-8
    sequence, so this gives the text a per-line decode would.
    """

    def __init__(self) -> None:
        self._pending: list[bytes] = []

    def feed(self, chunk: bytes) -> list[StreamItem]:
        self._pending.append(chunk)
        if b"\n" not in chunk:
            return []
        joined = b"".join(self._pending)
        end = joined.rfind(b"\n")
        self._pending = [joined[end + 1 :]]
        text = joined[:end].decode("utf-8", errors="replace")
        return [decode_event(line) for line in text.split("\n")]

    def finish(self) -> list[StreamItem]:
        """Flush a trailing unterminated line, if any."""
        line = b"".join(self._pending)
        self._pending = []
        return [decode_event(line.decode("utf-8", errors="replace"))] if line else []


def read_stream(source: Iterable[bytes] | BinaryIO) -> Iterator[StreamItem]:
    """Yield events and rejections from a byte source, in arrival order.

    ``source`` may be any iterable of byte chunks or a binary file-like
    object (read in ``CHUNK_BYTES`` chunks). A read failure terminates the stream
    with a Rejection marker; items already yielded remain valid.
    """
    decoder = StreamDecoder()
    chunks: Iterable[bytes]
    if hasattr(source, "read"):
        chunks = iter(lambda: source.read(CHUNK_BYTES), b"")  # type: ignore[union-attr]
    else:
        chunks = source
    try:
        for chunk in chunks:
            yield from decoder.feed(chunk)
    except OSError as exc:
        yield from decoder.finish()
        yield Rejection("", f"source read failure: {exc}")
        return
    yield from decoder.finish()

