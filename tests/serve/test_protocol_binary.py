"""Binary columnar codec: roundtrips, malformed frames, negotiation.

ISSUE 7 satellite coverage, mirroring the JSON live-socket suite in
``test_protocol.py``: binary frames must roundtrip exactly, malformed or
truncated binary payloads must come back as protocol errors (never a
dropped session or a crashed server), an oversized binary frame must be
drained, a mid-frame disconnect must not poison the listener, and a
server without binary support must negotiate the session down to JSON.
"""

import pickle
import socket
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.router import QueryOutput
from repro.core.shared_aggregation import AggregationResult
from repro.core.shared_join import JoinedTuple
from repro.minispe.record import RecordBatch
from repro.minispe.windows import Window
from repro.serve import ServeClient
from repro.serve.protocol import (
    BINARY_FLAG,
    HEADER_BYTES,
    MAX_FRAME_BYTES,
    ProtocolError,
    decode_binary_payload,
    encode_push_binary,
    encode_result_binary,
    negotiate_codec,
    read_frame_sock,
    write_frame_sock,
)
from repro.workloads.datagen import DataGenerator, DataTuple

_HEADER = struct.Struct(">I")


def _events(count, seed=3):
    generator = DataGenerator(seed=seed)
    return [(17 * i + 1, generator.next_tuple()) for i in range(count)]


def _payload(frame_bytes):
    """Strip the length prefix off an encoded frame."""
    return frame_bytes[HEADER_BYTES:]


class TestBinaryPushCodec:
    def test_push_roundtrips_to_columnar_batch(self):
        events = _events(32)
        frame = decode_binary_payload(_payload(encode_push_binary("A", events)))
        assert frame["t"] == "push"
        assert frame["stream"] == "A"
        assert frame["_decoded"]
        batch = frame["batch"]
        assert isinstance(batch, RecordBatch)
        assert batch.is_columnar
        assert len(batch) == len(events)
        assert list(batch.timestamps()) == [ts for ts, _ in events]
        assert list(batch.keys()) == [value.key for _, value in events]
        # lazy materialisation reproduces the exact tuples
        assert [(r.timestamp, r.value) for r in batch.records] == events

    def test_empty_push_roundtrips(self):
        frame = decode_binary_payload(_payload(encode_push_binary("B", [])))
        assert len(frame["batch"]) == 0
        assert frame["batch"].records == []

    def test_wrong_arity_raises_for_json_fallback(self):
        class Odd:
            key = 1
            fields = (1, 2, 3, 4)  # four fields, not five

        with pytest.raises((ValueError, struct.error)):
            encode_push_binary("A", [(0, Odd())])

    def test_int64_overflow_raises_for_json_fallback(self):
        events = [(0, DataTuple(key=2**70, fields=(1, 2, 3, 4, 5)))]
        with pytest.raises((struct.error, OverflowError)):
            encode_push_binary("A", events)

    def test_columnar_batch_accessors_and_pickle(self):
        events = _events(8)
        batch = decode_binary_payload(
            _payload(encode_push_binary("A", events))
        )["batch"]
        fields = batch.field_columns()
        assert len(fields) == 5
        assert [column[0] for column in fields] == list(events[0][1].fields)
        (kept,) = batch.select([row == 3 for row in range(8)], [{}])
        assert kept.value == events[3][1]
        # memoryview columns cannot pickle; __reduce__ materialises
        clone = pickle.loads(pickle.dumps(batch))
        assert clone.records == batch.records
        assert not clone.is_columnar


class TestBinaryResultCodec:
    def _roundtrip(self, outputs, dropped=0):
        encoded = encode_result_binary("q1", outputs, dropped)
        assert encoded is not None
        frame = decode_binary_payload(_payload(encoded))
        assert frame["t"] == "result"
        assert frame["query_id"] == "q1"
        return frame

    def test_tuple_results_roundtrip(self):
        outputs = [
            QueryOutput(timestamp=ts, value=value) for ts, value in _events(5)
        ]
        frame = self._roundtrip(outputs, dropped=2)
        assert frame["outputs"] == outputs
        assert frame["dropped"] == 2

    def test_aggregation_results_roundtrip(self):
        outputs = [
            QueryOutput(
                timestamp=10 * i,
                value=AggregationResult(
                    key=i, window=Window(10 * i, 10 * i + 10), value=7 * i
                ),
            )
            for i in range(4)
        ]
        assert self._roundtrip(outputs)["outputs"] == outputs

    def test_joined_results_roundtrip(self):
        outputs = [
            QueryOutput(
                timestamp=i,
                value=JoinedTuple(
                    key=i,
                    parts=(
                        DataTuple(key=i, fields=(1, 2, 3, 4, 5)),
                        DataTuple(key=i, fields=(6, 7, 8, 9, 10)),
                    ),
                    timestamp=i + 1,
                ),
            )
            for i in range(3)
        ]
        assert self._roundtrip(outputs)["outputs"] == outputs

    def test_mixed_kinds_fall_back_to_json(self):
        outputs = [
            QueryOutput(timestamp=0, value=DataTuple(key=1, fields=(1, 2, 3, 4, 5))),
            QueryOutput(
                timestamp=1,
                value=AggregationResult(key=1, window=Window(0, 10), value=2),
            ),
        ]
        assert encode_result_binary("q", outputs) is None

    def test_non_int_agg_value_falls_back_to_json(self):
        outputs = [
            QueryOutput(
                timestamp=0,
                value=AggregationResult(key=1, window=Window(0, 10), value=1.5),
            )
        ]
        assert encode_result_binary("q", outputs) is None


def _keyword_decode(payload):
    """The result decoder before positional construction: one keyword
    constructor call per object, one ``Window`` per result."""
    view = memoryview(payload)
    (length,) = struct.unpack_from(">H", view, 1)
    offset = 3 + length + 4
    value_kind, arity = view[offset], view[offset + 1]
    (count,) = struct.unpack_from(">I", view, offset + 2)
    offset += 6
    if count == 0:
        return []
    columns = []
    while offset < len(view):
        columns.append(struct.unpack_from(f"<{count}q", view, offset))
        offset += 8 * count
    ts = columns[0]
    if value_kind == 0:
        keys, f0, f1, f2, f3, f4 = columns[1:]
        return [
            QueryOutput(
                timestamp=ts[i],
                value=DataTuple(
                    key=keys[i], fields=(f0[i], f1[i], f2[i], f3[i], f4[i])
                ),
            )
            for i in range(count)
        ]
    if value_kind == 1:
        keys, starts, ends, values = columns[1:]
        return [
            QueryOutput(
                timestamp=ts[i],
                value=AggregationResult(
                    key=keys[i], window=Window(starts[i], ends[i]),
                    value=values[i],
                ),
            )
            for i in range(count)
        ]
    keys, join_ts = columns[1:3]
    parts = [columns[3 + 6 * p:9 + 6 * p] for p in range(arity)]
    return [
        QueryOutput(
            timestamp=ts[i],
            value=JoinedTuple(
                key=keys[i],
                parts=tuple(
                    DataTuple(key=pkey[i], fields=tuple(f[i] for f in pfields))
                    for pkey, *pfields in parts
                ),
                timestamp=join_ts[i],
            ),
        )
        for i in range(count)
    ]


_i64 = st.integers(-(2**63), 2**63 - 1)
_small = st.integers(-1000, 1000)


def _data_tuples():
    return st.builds(DataTuple, key=_small, fields=st.tuples(*[_i64] * 5))


@st.composite
def _result_batches(draw):
    kind = draw(st.sampled_from(["tuple", "agg", "joined"]))
    size = draw(st.integers(0, 12))
    times = draw(st.lists(_i64, min_size=size, max_size=size))
    if kind == "tuple":
        values = draw(st.lists(_data_tuples(), min_size=size, max_size=size))
    elif kind == "agg":
        windows = draw(
            st.lists(
                st.tuples(_small, st.integers(1, 50)).map(
                    lambda pair: Window(pair[0], pair[0] + pair[1])
                ),
                min_size=1, max_size=3,
            )
        )
        values = [
            AggregationResult(
                key=draw(_small), window=draw(st.sampled_from(windows)),
                value=draw(_i64),
            )
            for _ in range(size)
        ]
    else:
        arity = draw(st.integers(1, 3))
        values = [
            JoinedTuple(
                key=draw(_small),
                parts=tuple(draw(_data_tuples()) for _ in range(arity)),
                timestamp=draw(_i64),
            )
            for _ in range(size)
        ]
    return [QueryOutput(ts, value) for ts, value in zip(times, values)]


class TestPositionalResultDecode:
    """Decoding builds the same objects the keyword decoder built."""

    def _check(self, outputs):
        payload = _payload(encode_result_binary("q-7", outputs, 3))
        decoded = decode_binary_payload(payload)["outputs"]
        expected = _keyword_decode(payload)
        assert decoded == expected == outputs
        assert repr(decoded) == repr(expected)

    def test_golden_batches_decode_as_before(self):
        from tests.serve.test_result_path import _codec_batches

        for kind, outputs in _codec_batches().items():
            if kind != "agg_float":  # a float aggregate travels as JSON
                self._check(outputs)

    @settings(max_examples=80, deadline=None)
    @given(_result_batches())
    def test_drawn_frames_decode_as_before(self, outputs):
        self._check(outputs)

    def test_one_window_per_distinct_bounds(self):
        outputs = [
            QueryOutput(9, AggregationResult(key, Window(0, 10), key))
            for key in range(4)
        ]
        decoded = decode_binary_payload(
            _payload(encode_result_binary("q", outputs))
        )["outputs"]
        assert len({id(output.value.window) for output in decoded}) == 1


class TestMalformedBinaryPayloads:
    def _push_payload(self, count=4):
        return bytearray(_payload(encode_push_binary("A", _events(count))))

    def test_empty_payload(self):
        with pytest.raises(ProtocolError) as excinfo:
            decode_binary_payload(b"")
        assert excinfo.value.code == "bad_binary"

    def test_unknown_kind_byte(self):
        with pytest.raises(ProtocolError) as excinfo:
            decode_binary_payload(b"\x7f\x00\x00")
        assert excinfo.value.code == "bad_binary"

    def test_truncated_mid_column(self):
        payload = self._push_payload()
        with pytest.raises(ProtocolError) as excinfo:
            decode_binary_payload(bytes(payload[:-5]))
        assert excinfo.value.code == "bad_binary"

    def test_declared_count_exceeds_payload(self):
        payload = self._push_payload(4)
        # count lives right after kind(1) + u16 len + name("A" = 1 byte)
        struct.pack_into(">I", payload, 4, 1_000)
        with pytest.raises(ProtocolError) as excinfo:
            decode_binary_payload(bytes(payload))
        assert excinfo.value.code == "bad_binary"

    def test_truncated_in_name(self):
        with pytest.raises(ProtocolError) as excinfo:
            decode_binary_payload(b"\x01\x00\x40AB")
        assert excinfo.value.code == "bad_binary"

    def test_unknown_result_value_kind(self):
        payload = bytearray(
            _payload(
                encode_result_binary(
                    "q",
                    [
                        QueryOutput(
                            timestamp=0,
                            value=DataTuple(key=1, fields=(1, 2, 3, 4, 5)),
                        )
                    ],
                )
            )
        )
        # value_kind byte: kind(1) + u16(2) + "q"(1) + dropped u32(4)
        payload[8] = 99
        with pytest.raises(ProtocolError) as excinfo:
            decode_binary_payload(bytes(payload))
        assert excinfo.value.code == "bad_binary"


class TestCodecNegotiation:
    def test_first_supported_codec_wins(self):
        assert negotiate_codec(["binary", "json"]) == "binary"
        assert negotiate_codec(["json", "binary"]) == "json"

    def test_absent_or_malformed_offer_defaults_to_json(self):
        assert negotiate_codec(None) == "json"
        assert negotiate_codec("binary") == "json"
        assert negotiate_codec(["zstd"]) == "json"

    def test_server_without_binary_negotiates_down(self, make_server):
        handle = make_server(codecs=("json",))
        client = ServeClient(
            "127.0.0.1", handle.port, client_id="fallback", codec="binary"
        )
        assert client.codec == "json"
        created = client.create_query(
            sql="SELECT * FROM A WHERE A.F0 > 40", at_ms=0
        )
        assert created.status == "admit"
        assert client.push("A", _events(16)) == 16
        client.watermark(10**9)
        client.drain()
        assert client.fetch_results(created.query_id)
        client.close()


class TestBinaryFramesOnLiveConnection:
    """Binary framing abuse must be answered, never fatal."""

    def test_malformed_binary_frame_gets_error_reply(self, make_server):
        handle = make_server()
        client = ServeClient("127.0.0.1", handle.port, client_id="bmal")
        sock = client._sock
        payload = b"\x01\x00\x40short"  # name length overruns payload
        sock.sendall(_HEADER.pack(BINARY_FLAG | len(payload)) + payload)
        reply = read_frame_sock(sock)
        assert reply["t"] == "error"
        assert reply["code"] == "bad_binary"
        # same session still works afterwards
        assert client.ping()
        client.close()

    def test_oversized_binary_frame_is_drained_and_survivable(
        self, make_server
    ):
        handle = make_server()
        client = ServeClient("127.0.0.1", handle.port, client_id="bbig")
        sock = client._sock
        length = MAX_FRAME_BYTES + 1
        sock.sendall(_HEADER.pack(BINARY_FLAG | length))
        sock.sendall(b"\0" * length)
        reply = read_frame_sock(sock)
        assert reply["t"] == "error"
        assert reply["code"] == "frame_too_large"
        assert client.ping()
        client.close()

    def test_mid_frame_disconnect_leaves_server_healthy(self, make_server):
        handle = make_server()
        probe = ServeClient("127.0.0.1", handle.port, client_id="probe")
        sock = socket.create_connection(("127.0.0.1", handle.port), timeout=5)
        # Declare a binary frame, send half of it, hang up.
        payload = _payload(encode_push_binary("A", _events(64)))
        sock.sendall(_HEADER.pack(BINARY_FLAG | len(payload)))
        sock.sendall(payload[: len(payload) // 2])
        sock.close()
        # The listener must still serve existing and new sessions.
        assert probe.ping()
        fresh = ServeClient("127.0.0.1", handle.port, client_id="fresh")
        assert fresh.ping()
        fresh.close()
        probe.close()

    def test_binary_and_json_sessions_see_identical_results(
        self, make_server
    ):
        events = _events(96, seed=11)
        fetched = {}
        for codec in ("json", "binary"):
            # Fresh server per codec: the manual clock only moves forward,
            # so a second at_ms=0 query on one server would be in the past.
            handle = make_server()
            client = ServeClient(
                "127.0.0.1", handle.port, client_id=f"eq-{codec}", codec=codec
            )
            assert client.codec == codec
            created = client.create_query(
                sql="SELECT * FROM A WHERE A.F0 > 40", at_ms=0
            )
            assert created.status == "admit"
            assert client.push("A", events) == len(events)
            client.watermark(10**9)
            client.drain()
            fetched[codec] = [
                (output.timestamp, repr(output.value))
                for output in client.fetch_results(created.query_id)
            ]
            client.delete_query(created.query_id)
            client.close()
        assert fetched["json"] == fetched["binary"]
        assert fetched["json"]  # the predicate keeps some rows


class TestPipelinedIngest:
    def test_push_nowait_flush_accepts_everything(self, make_server):
        handle = make_server()
        client = ServeClient(
            "127.0.0.1", handle.port, client_id="pipe", coalesce_tuples=32
        )
        created = client.create_query(
            sql="SELECT * FROM A WHERE A.F0 > 40", at_ms=0
        )
        events = _events(200, seed=5)
        for i in range(0, len(events), 10):
            client.push_nowait("A", events[i : i + 10])
        accepted = client.flush_ingest()
        assert accepted == len(events)
        client.watermark(10**9)
        client.drain()
        assert client.fetch_results(created.query_id)
        client.close()

    def test_pipelined_results_match_sync_push(self, make_server):
        events = _events(150, seed=7)
        fetched = []
        for pipelined in (False, True):
            handle = make_server()
            client = ServeClient(
                "127.0.0.1", handle.port, client_id=f"p{pipelined}"
            )
            created = client.create_query(
                sql="SELECT * FROM A WHERE A.F0 > 40", at_ms=0
            )
            if pipelined:
                for i in range(0, len(events), 25):
                    client.push_nowait("A", events[i : i + 25])
                assert client.flush_ingest() == len(events)
            else:
                for i in range(0, len(events), 25):
                    client.push("A", events[i : i + 25])
            client.watermark(10**9)
            client.drain()
            fetched.append(
                [
                    (output.timestamp, repr(output.value))
                    for output in client.fetch_results(created.query_id)
                ]
            )
            client.delete_query(created.query_id)
            client.close()
        assert fetched[0] == fetched[1]

    def test_control_frame_drains_pipelined_ingest_first(self, make_server):
        """Ordering barrier: a watermark after push_nowait must observe
        every buffered tuple."""
        handle = make_server()
        client = ServeClient("127.0.0.1", handle.port, client_id="barrier")
        created = client.create_query(
            sql="SELECT * FROM A WHERE A.F0 > 0", at_ms=0
        )
        events = _events(40, seed=13)
        client.push_nowait("A", events)
        client.watermark(10**9)
        client.drain()
        outputs = client.fetch_results(created.query_id)
        assert len(outputs) == sum(
            1 for _, value in events if value.fields[0] > 0
        )
        client.close()
