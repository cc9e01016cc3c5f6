"""Metric protocol codec and framing tests."""

import io
import json
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from benchforge.protocol import (
    EVENT_KINDS,
    MetricEvent,
    ProtocolError,
    Rejection,
    StreamDecoder,
    decode_event,
    encode_event,
    read_stream,
)


# Beyond the float range: json decodes it to an int that float() cannot convert.
HUGE_INT = "1" + "0" * 400
NOT_FINITE = "rate payload requires finite rate, batch, t0 and t1"


def make_random_event(rng: random.Random) -> MetricEvent:
    kind = rng.choice(sorted(EVENT_KINDS))
    time = round(rng.uniform(0, 1e6), 6)
    task = rng.choice(["train", "worker-0", "worker-1", "main", "rang-é"])
    if kind == "rate":
        batch = rng.randint(1, 4096)
        elapsed = round(rng.uniform(1e-3, 10.0), 9)
        data = {
            "rate": batch / elapsed,
            "units": rng.choice(["images", "tokens", "steps"]),
            "batch": batch,
        }
        if rng.random() < 0.3:
            data["warmup"] = True
        if rng.random() < 0.3:
            data["t0"] = time - elapsed
            data["t1"] = time
    elif kind == "loss":
        data = {"loss": rng.uniform(-5, 5)}
    elif kind == "gpudata":
        data = {"device": f"d{rng.randint(0, 7)}", "memory": [rng.randint(0, 1 << 30)]}
    else:
        data = {"n": rng.randint(0, 100), "note": rng.choice(["", "ok", "déjà"])}
    return MetricEvent(kind, time, task, data)


class TestEncode:
    def test_rate_event_fields(self):
        event = MetricEvent(
            "rate", 1.0, "train", {"rate": 32 / 0.5, "units": "images", "batch": 32}
        )
        line = encode_event(event)
        assert line.endswith("\n")
        assert "\n" not in line[:-1]
        assert '"rate":64.0' in line
        assert '"batch":32' in line

    def test_end_event_empty_payload(self):
        line = encode_event(MetricEvent("end", 2.0, "train", {}))
        assert '"event":"end"' in line
        assert '"data":{}' in line

    def test_deterministic_key_order(self):
        a = encode_event(MetricEvent("progress", 1.0, "t", {"b": 1, "a": 2}))
        b = encode_event(MetricEvent("progress", 1.0, "t", {"a": 2, "b": 1}))
        assert a == b

    def test_non_serializable_payload_raises(self):
        with pytest.raises(ProtocolError):
            encode_event(MetricEvent("config", 0.0, "t", {"bad": object()}))

    def test_nan_rejected(self):
        with pytest.raises(ProtocolError):
            encode_event(MetricEvent("loss", 0.0, "t", {"loss": float("nan")}))

    def test_unknown_kind_rejected_at_construction(self):
        with pytest.raises(ProtocolError):
            MetricEvent("foo", 0.0, "t", {})


class TestDecode:
    def test_canonical_rate_line(self):
        line = '{"event":"rate","time":1.0,"task":"train","data":{"rate":64.0,"units":"images","batch":32}}'
        event = decode_event(line)
        assert isinstance(event, MetricEvent)
        assert event.event == "rate"
        assert event.data["batch"] == 32

    def test_garbage_is_rejected_not_fatal(self):
        item = decode_event("not json at all")
        assert isinstance(item, Rejection)
        assert item.line == "not json at all"

    def test_unknown_kind_rejection(self):
        item = decode_event('{"event":"foo","time":1.0,"task":"t","data":{}}')
        assert isinstance(item, Rejection)
        assert "unknown kind" in item.reason

    def test_unknown_kind_reason_is_capped(self):
        assert decode_event('{"event":"foo","time":1.0,"task":"t","data":{}}').reason == "unknown kind 'foo'"
        kind = "k" * 1_000_000
        item = decode_event(json.dumps({"event": kind, "time": 1.0, "task": "t", "data": {}}))
        assert item.reason == "unknown kind '" + "k" * 63 + "..."
        assert len(item.line) > 1_000_000

    @pytest.mark.parametrize(
        "line",
        ["[" * 100_000, '{"a":' * 100_000, '{"event":' + "[" * 100_000 + "]" * 100_000],
        ids=["arrays", "objects", "kind"],
    )
    def test_deep_nesting_is_rejected_not_fatal(self, line):
        # The JSON scanner recurses once per level; the recursion limit must not escape.
        assert decode_event(line) == Rejection(line, "nesting too deep")
        items = StreamDecoder().feed(line.encode() + b"\n" + b'{"event":"end","time":1,"task":"t","data":{}}\n')
        assert [type(item) for item in items] == [Rejection, MetricEvent]

    def test_missing_keys_rejection(self):
        item = decode_event('{"event":"end","time":1.0}')
        assert isinstance(item, Rejection)
        assert "missing keys" in item.reason

    def test_non_finite_rejected(self):
        item = decode_event('{"event":"loss","time":Infinity,"task":"t","data":{}}')
        assert isinstance(item, Rejection)

    def test_invalid_rate_payload_rejected(self):
        item = decode_event('{"event":"rate","time":1.0,"task":"t","data":{"rate":-1,"units":"x","batch":2}}')
        assert isinstance(item, Rejection)

    @pytest.mark.parametrize(
        "time, data, reason",
        [
            ("1e999", "{}", "time must be finite"),
            ("-1e999", "{}", "time must be finite"),
            (HUGE_INT, "{}", "time must be finite"),
            ("1", '{"batch":2,"rate":1e999,"units":"x"}', NOT_FINITE),
            ("1", '{"batch":1e999,"rate":2,"t0":0,"t1":1,"units":"x"}', NOT_FINITE),
            ("1", f'{{"batch":{HUGE_INT},"rate":2,"units":"x"}}', NOT_FINITE),
            ("1", '{"batch":2,"rate":2,"t0":-1e999,"t1":1,"units":"x"}', NOT_FINITE),
            ("1", '{"batch":2,"rate":2,"t0":0,"t1":1e999,"units":"x"}', NOT_FINITE),
            ("1", '{"batch":2,"rate":2,"t0":0,"t1":"1","units":"x"}', NOT_FINITE),
        ],
        ids=["time-inf", "time-minus-inf", "time-huge-int", "rate-inf", "batch-inf", "batch-huge-int",
             "t0-inf", "t1-inf", "t1-text"],
    )
    def test_out_of_range_numbers_rejected_with_reason(self, time, data, reason):
        line = f'{{"event":"rate","time":{time},"task":"t","data":{data}}}'
        assert decode_event(line) == Rejection(line, reason)

    def test_unknown_payload_keys_preserved(self):
        line = '{"event":"rate","time":1.0,"task":"t","data":{"rate":2.0,"units":"x","batch":2,"mystery":[1,2]}}'
        event = decode_event(line)
        assert isinstance(event, MetricEvent)
        assert event.data["mystery"] == [1, 2]


class TestRoundTrip:
    def test_decode_encode_identity_randomized(self):
        rng = random.Random(20260810)
        for _ in range(2000):
            event = make_random_event(rng)
            assert decode_event(encode_event(event)) == event

    def test_encode_is_stable(self):
        rng = random.Random(7)
        for _ in range(200):
            event = make_random_event(rng)
            line = encode_event(event)
            again = decode_event(line)
            assert encode_event(again) == line


class TestStream:
    def test_two_lines_three_chunks(self):
        lines = (
            encode_event(MetricEvent("start", 0.0, "t", {}))
            + encode_event(MetricEvent("end", 1.0, "t", {}))
        ).encode()
        chunks = [lines[:10], lines[10:30], lines[30:]]
        items = list(read_stream(chunks))
        assert len(items) == 2
        assert all(isinstance(i, MetricEvent) for i in items)

    def test_garbage_interleaved(self):
        rng = random.Random(3)
        events = [make_random_event(rng) for _ in range(10)]
        payload = b""
        garbage = [b"oops\n", b'{"event":"nope"}\n', b"{broken\n"]
        for i, event in enumerate(events):
            payload += encode_event(event).encode()
            if i < 3:
                payload += garbage[i]
        items = list(read_stream([payload]))
        assert len([item for item in items if isinstance(item, MetricEvent)]) == 10
        assert len([item for item in items if isinstance(item, Rejection)]) == 3

    def test_chunk_boundary_invariance(self):
        rng = random.Random(99)
        events = [make_random_event(rng) for _ in range(300)]
        payload = b"".join(encode_event(e).encode() for e in events)
        for trial in range(20):
            chop = random.Random(trial)
            chunks, pos = [], 0
            while pos < len(payload):
                step = chop.randint(1, 97)
                chunks.append(payload[pos : pos + step])
                pos += step
            decoded = [item for item in read_stream(chunks) if isinstance(item, MetricEvent)]
            assert decoded == events

    def test_trailing_partial_line_recovered_at_end(self):
        event = MetricEvent("end", 1.0, "t", {})
        unterminated = encode_event(event).encode()[:-1]
        items = list(read_stream([unterminated]))
        assert items == [event]

    def test_file_like_source(self):
        event = MetricEvent("progress", 2.0, "t", {"n": 1})
        stream = io.BytesIO(encode_event(event).encode())
        assert [item for item in read_stream(stream) if isinstance(item, MetricEvent)] == [event]

    def test_read_failure_preserves_prior_events(self):
        good = encode_event(MetricEvent("start", 0.0, "t", {})).encode()

        def chunks():
            yield good
            raise OSError("pipe burst")

        items = list(read_stream(chunks()))
        assert isinstance(items[0], MetricEvent)
        assert isinstance(items[-1], Rejection)
        assert "read failure" in items[-1].reason


class TestGoldenCorpus:
    def test_corpus_has_twenty_lines(self, protocol_corpus):
        assert len(protocol_corpus) == 20

    def test_corpus_decodes_and_reencodes_bit_exact(self, protocol_corpus):
        for line in protocol_corpus:
            event = decode_event(line)
            assert isinstance(event, MetricEvent), line
            assert encode_event(event) == line

    def test_corpus_covers_every_kind(self, protocol_corpus):
        kinds = {json.loads(line)["event"] for line in protocol_corpus}
        assert kinds == set(EVENT_KINDS)

    def test_corpus_framing_is_chunk_invariant(self, protocol_corpus):
        payload = "".join(protocol_corpus).encode()
        whole = [item for item in read_stream([payload]) if isinstance(item, MetricEvent)]
        byte_at_a_time = [item for item in read_stream([bytes([b]) for b in payload]) if isinstance(item, MetricEvent)]
        assert whole == byte_at_a_time
        assert len(whole) == 20


class TestDecoderState:
    def test_feed_and_finish(self):
        decoder = StreamDecoder()
        event = MetricEvent("stop", 3.0, "t", {})
        raw = encode_event(event).encode()
        assert decoder.feed(raw[:5]) == []
        assert decoder.feed(raw[5:-1]) == []
        assert decoder.finish() == [event]
        assert decoder.finish() == []


BOM_REASON = (
    "not valid JSON: Unexpected UTF-8 BOM (decode using utf-8-sig): line 1 column 1 (char 0)"
)


def reference_items(payload: bytes) -> list:
    """Decode ``payload`` line by line, with no framer involved."""
    lines = payload.split(b"\n")
    if lines[-1] == b"":
        lines.pop()
    return [decode_event(line.decode("utf-8", errors="replace")) for line in lines]


_scalars = st.one_of(
    st.integers(-(10**6), 10**6),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=8),
    st.booleans(),
)
_events = st.builds(
    MetricEvent,
    event=st.sampled_from(sorted(EVENT_KINDS)),
    time=st.floats(0, 1e6, allow_nan=False),
    task=st.text(max_size=8),
    data=st.dictionaries(st.text(max_size=6), _scalars, max_size=4),
)
_lines = st.one_of(
    _events.map(lambda e: encode_event(e).encode()[:-1]),
    st.binary(max_size=24).map(lambda b: b.replace(b"\n", b"")),
    st.just(b""),
    _events.map(lambda e: b"\xef\xbb\xbf" + encode_event(e).encode()[:-1]),
    st.sampled_from([b"\xff", b"\xe2\x82", b"\xc3", "\u20ac".encode(), "\U0001f600".encode()]),
    st.text(max_size=12).map(lambda t: t.replace("\n", "").encode()),
)


@st.composite
def payloads(draw) -> bytes:
    lines = draw(st.lists(st.tuples(_lines, st.booleans()), max_size=12))
    payload = b"".join(line + (b"\r\n" if crlf else b"\n") for line, crlf in lines)
    return payload + draw(_lines)


def chop(payload: bytes, cuts: list[int]) -> list[bytes]:
    edges = [0, *sorted(cuts), len(payload)]
    return [payload[a:b] for a, b in zip(edges, edges[1:])]


class TestFramingProperties:
    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_items_identical_under_any_chunking(self, data):
        payload = data.draw(payloads())
        cuts = data.draw(st.lists(st.integers(0, len(payload)), max_size=20))
        expected = reference_items(payload)
        assert list(read_stream([payload])) == expected
        assert list(read_stream(chop(payload, cuts))) == expected

    @settings(max_examples=50, deadline=None)
    @given(payloads())
    def test_byte_at_a_time_matches_reference(self, payload):
        one_byte_chunks = [payload[i : i + 1] for i in range(len(payload))]
        assert list(read_stream(one_byte_chunks)) == reference_items(payload)

    def test_split_multibyte_character_and_invalid_bytes(self):
        event = MetricEvent("progress", 1.0, "t\u20ac\U0001f600", {"note": "d\u00e9j\u00e0"})
        payload = (
            encode_event(event).encode()
            + b"bad \xe2\x82 tail\r\n"
            + b"\xff\xfe\n"
            + encode_event(event).encode()[:-1]
        )
        expected = reference_items(payload)
        assert expected[0] == event and expected[-1] == event
        assert isinstance(expected[1], Rejection) and "\ufffd" in expected[1].line
        for cut in range(len(payload) + 1):
            assert list(read_stream([payload[:cut], payload[cut:]])) == expected

    def test_empty_chunks_add_nothing(self):
        decoder = StreamDecoder()
        assert decoder.feed(b"") == []
        assert decoder.finish() == []


def _refuse_constant(name):
    raise ValueError(f"non-finite number {name} not allowed")


_json_ish = st.one_of(
    st.text(alphabet=' \t\r\x0b{}[]":,0123456789.-eEtrufalsNaIiy\ufeffx', max_size=30),
    st.tuples(_events.map(lambda e: encode_event(e)[:-1]), st.text(" \t{}x1", max_size=4)).map("".join),
)


class TestJsonReasons:
    @settings(max_examples=400, deadline=None)
    @given(_json_ish)
    def test_invalid_json_keeps_the_json_loads_reason(self, text):
        item = decode_event(text)
        stripped = text.strip()
        if not stripped:
            assert item == Rejection(text, "empty line")
            return
        try:
            json.loads(stripped, parse_constant=_refuse_constant)
        except ValueError as exc:
            assert item == Rejection(text, f"not valid JSON: {exc}")
        else:
            assert not (isinstance(item, Rejection) and item.reason.startswith("not valid JSON"))


class TestByteOrderMark:
    def test_bom_line_keeps_json_loads_reason(self):
        line = "\ufeff" + encode_event(MetricEvent("end", 1.0, "t", {}))
        assert decode_event(line) == Rejection(line[:-1], BOM_REASON)

    def test_bom_line_in_stream(self):
        raw = b"\xef\xbb\xbf" + encode_event(MetricEvent("end", 1.0, "t", {})).encode()
        (item,) = read_stream([raw])
        assert isinstance(item, Rejection)
        assert item.reason == BOM_REASON


def _long_payload(lines: int) -> bytes:
    rng = random.Random(5)
    out = []
    for i in range(lines):
        data = {"rate": 10.0 + rng.random(), "units": "items", "batch": 32, "pad": "x" * 40}
        out.append(encode_event(MetricEvent("rate", float(i), "train", data)))
    return "".join(out).encode()


class TestLinearFraming:
    def test_one_call_costs_no_more_than_chunked(self):
        payload = _long_payload(30_000)
        assert len(payload) >= 4_000_000
        started = time.perf_counter()
        chunked = list(read_stream(payload[i : i + 65536] for i in range(0, len(payload), 65536)))
        chunked_s = time.perf_counter() - started
        started = time.perf_counter()
        whole = list(read_stream([payload]))
        whole_s = time.perf_counter() - started
        assert len(whole) == 30_000
        assert whole == chunked
        assert whole_s <= 2 * chunked_s + 0.5

    def test_long_line_in_small_chunks_is_linear(self):
        piece = b"x" * 4096
        started = time.perf_counter()
        items = list(read_stream(piece for _ in range(16 * 1024 * 1024 // len(piece))))
        elapsed = time.perf_counter() - started
        assert len(items) == 1
        assert isinstance(items[0], Rejection)
        assert elapsed < 1.0
