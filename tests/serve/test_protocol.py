"""Wire-frame codec: exact roundtrips and malformed-input behaviour.

Satellite 1 of ISSUE 5: every frame type must roundtrip end-to-end
(encode → decode) across empty, unicode-heavy, and maximum-size
payloads, and malformed frames must come back as protocol errors on a
live connection — never as a dropped session.
"""

import json
import socket
import struct

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.serde import (
    output_from_dict,
    output_to_dict,
    value_from_dict,
    value_to_dict,
)
from repro.core.router import QueryOutput
from repro.core.shared_aggregation import AggregationResult
from repro.core.shared_join import JoinedTuple
from repro.minispe.windows import Window
from repro.serve import ServeClient
from repro.serve.protocol import (
    FRAME_SCHEMAS,
    HEADER_BYTES,
    MAX_FRAME_BYTES,
    ProtocolError,
    decode_events,
    decode_frame,
    encode_events,
    encode_frame,
    read_frame_sock,
    write_frame_sock,
)
from repro.workloads.datagen import DataTuple

# ---------------------------------------------------------------------------
# Frame construction helpers
# ---------------------------------------------------------------------------

_FIELD_FILLERS = {
    "client_id": "c", "session_id": "s", "credits": 1, "seq": 1,
    "query_id": "q", "stream": "A", "events": [], "timestamp": 0,
    "status": "ok", "outputs": [], "event": "live", "op": "kill_worker",
    "code": "bad", "message": "msg", "accepted": 0, "workers": 2,
}


def minimal_frame(kind):
    """The smallest valid frame of one type (required fields only)."""
    frame = {"t": kind}
    for field in FRAME_SCHEMAS[kind]:
        frame[field] = _FIELD_FILLERS[field]
    return frame


ALL_KINDS = sorted(FRAME_SCHEMAS)

UNICODE_PAYLOAD = "héllo-wörld ☃ \U0001f300 رمز ✓"

json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**53), max_value=2**53)
    | st.text(max_size=40),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=10), children, max_size=4),
    max_leaves=12,
)


class TestFrameRoundtrip:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_every_frame_type_roundtrips(self, kind):
        frame = minimal_frame(kind)
        assert decode_frame(encode_frame(frame)[HEADER_BYTES:]) == frame

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_unicode_payloads_roundtrip(self, kind):
        frame = minimal_frame(kind)
        frame["note"] = UNICODE_PAYLOAD
        for field in FRAME_SCHEMAS[kind]:
            if isinstance(frame[field], str) and field != "t":
                frame[field] = UNICODE_PAYLOAD + frame[field]
        assert decode_frame(encode_frame(frame)[HEADER_BYTES:]) == frame

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_empty_optional_payloads_roundtrip(self, kind):
        frame = minimal_frame(kind)
        frame.update({"extra": "", "blob": [], "map": {}})
        assert decode_frame(encode_frame(frame)[HEADER_BYTES:]) == frame

    def test_max_size_frame_roundtrips(self):
        # Fill up to just under the frame cap; the decoded copy must be
        # identical down to the last byte of the filler.
        frame = minimal_frame("push")
        overhead = len(encode_frame(dict(frame, filler=""))) - HEADER_BYTES
        frame["filler"] = "x" * (MAX_FRAME_BYTES - overhead)
        encoded = encode_frame(frame)
        assert len(encoded) - HEADER_BYTES == MAX_FRAME_BYTES
        assert decode_frame(encoded[HEADER_BYTES:]) == frame

    def test_oversized_frame_is_rejected_at_encode(self):
        frame = minimal_frame("push")
        frame["filler"] = "x" * (MAX_FRAME_BYTES + 1)
        with pytest.raises(ProtocolError) as excinfo:
            encode_frame(frame)
        assert excinfo.value.code == "frame_too_large"

    @settings(max_examples=60, suppress_health_check=[HealthCheck.too_slow])
    @given(kind=st.sampled_from(ALL_KINDS), extra=json_values)
    def test_property_arbitrary_json_extras_roundtrip(self, kind, extra):
        frame = minimal_frame(kind)
        frame["extra"] = extra
        assert decode_frame(encode_frame(frame)[HEADER_BYTES:]) == frame


class TestMalformedFrames:
    def test_non_json_payload(self):
        with pytest.raises(ProtocolError) as excinfo:
            decode_frame(b"\xff\xfe not json")
        assert excinfo.value.code == "bad_json"

    def test_non_object_payload(self):
        with pytest.raises(ProtocolError) as excinfo:
            decode_frame(json.dumps([1, 2, 3]).encode())
        assert excinfo.value.code == "bad_frame"

    def test_unknown_frame_type(self):
        with pytest.raises(ProtocolError) as excinfo:
            decode_frame(json.dumps({"t": "no_such"}).encode())
        assert excinfo.value.code == "unknown_frame"

    @pytest.mark.parametrize(
        "kind", [k for k in ALL_KINDS if FRAME_SCHEMAS[k]]
    )
    def test_missing_required_field(self, kind):
        frame = minimal_frame(kind)
        frame.pop(FRAME_SCHEMAS[kind][0])
        with pytest.raises(ProtocolError) as excinfo:
            decode_frame(json.dumps(frame).encode())
        assert excinfo.value.code == "missing_field"


class _ScriptedSocket:
    """Just enough of a socket for :func:`read_frame_sock`: serves a
    header, then zeros forever, and remembers how it was read."""

    def __init__(self, header, payload_bytes):
        self._header = header
        self._left = payload_bytes
        self.largest_recv = 0
        self.payload_served = 0

    def recv(self, count):
        if self._header:
            chunk, self._header = self._header[:count], self._header[count:]
            return chunk
        self.largest_recv = max(self.largest_recv, count)
        served = min(count, self._left)
        self._left -= served
        self.payload_served += served
        return bytes(served)


class TestBlockingSocketReads:
    def test_oversized_frame_is_drained_in_bounded_chunks(self):
        # A hostile length prefix must not make the reader buffer the
        # declared size before it complains.
        declared = 4 * MAX_FRAME_BYTES
        sock = _ScriptedSocket(struct.pack(">I", declared), declared)
        with pytest.raises(ProtocolError) as excinfo:
            read_frame_sock(sock)
        assert excinfo.value.code == "frame_too_large"
        assert sock.payload_served == declared  # the stream stays in sync
        assert sock.largest_recv <= 1 << 16

    def test_eof_raises_instead_of_returning_none(self):
        with pytest.raises(ConnectionError):
            read_frame_sock(_ScriptedSocket(b"", 0))
        with pytest.raises(ConnectionError):  # also mid-drain
            read_frame_sock(
                _ScriptedSocket(struct.pack(">I", MAX_FRAME_BYTES + 1), 10)
            )


class TestEventCodec:
    def test_events_roundtrip(self):
        events = [
            (7, DataTuple(key=3, fields=(1, 2, 3, 4, 5))),
            (0, DataTuple(key=0, fields=(0, 0, 0, 0, 0))),
        ]
        assert decode_events(encode_events(events)) == events

    @settings(max_examples=50)
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=2**40),
                st.integers(min_value=0, max_value=2**20),
                st.lists(
                    st.integers(min_value=0, max_value=2**30),
                    min_size=5, max_size=5,
                ),
            ),
            max_size=20,
        )
    )
    def test_property_events_roundtrip(self, rows):
        events = [
            (ts, DataTuple(key=key, fields=tuple(fields)))
            for ts, key, fields in rows
        ]
        assert decode_events(encode_events(events)) == events

    def test_malformed_rows_raise_protocol_error(self):
        for rows in ([[1]], [[1, 2]], ["nope"], [[1, 2, [3]]]):
            with pytest.raises(ProtocolError) as excinfo:
                decode_events(rows)
            assert excinfo.value.code == "bad_event"


class TestValueSerde:
    """The result-value serde the result frames ride on."""

    VALUES = [
        DataTuple(key=5, fields=(9, 8, 7, 6, 5)),
        JoinedTuple(
            key=2,
            parts=(
                DataTuple(key=2, fields=(1, 2, 3, 4, 5)),
                DataTuple(key=2, fields=(5, 4, 3, 2, 1)),
            ),
            timestamp=13,
        ),
        AggregationResult(key=4, window=Window(10, 20), value=6),
    ]

    @pytest.mark.parametrize("value", VALUES, ids=["tuple", "joined", "agg"])
    def test_value_roundtrip_is_exact(self, value):
        restored = value_from_dict(value_to_dict(value))
        assert restored == value
        assert repr(restored) == repr(value)

    @pytest.mark.parametrize("value", VALUES, ids=["tuple", "joined", "agg"])
    def test_output_roundtrip_through_json(self, value):
        output = QueryOutput(timestamp=42, value=value)
        over_wire = json.loads(json.dumps(output_to_dict(output)))
        restored = output_from_dict(over_wire)
        assert restored == output
        assert repr(restored.value) == repr(output.value)


class TestMalformedFramesOnLiveConnection:
    """A garbage frame must be answered, not fatal (ISSUE 5 satellite 1)."""

    def test_error_reply_then_session_keeps_working(self, make_server):
        handle = make_server()
        client = ServeClient("127.0.0.1", handle.port, client_id="mal")
        sock = client._sock

        write_frame_sock(sock, {"t": "ping"})  # warm path sanity
        assert read_frame_sock(sock)["t"] == "pong"

        # Raw invalid JSON payload with a correct length prefix:
        payload = b"this is not json at all {{{"
        sock.sendall(struct.pack(">I", len(payload)) + payload)
        reply = read_frame_sock(sock)
        assert reply["t"] == "error"
        assert reply["code"] == "bad_json"

        # Missing required field:
        payload = json.dumps({"t": "subscribe"}).encode()
        sock.sendall(struct.pack(">I", len(payload)) + payload)
        reply = read_frame_sock(sock)
        assert reply["t"] == "error"
        assert reply["code"] == "missing_field"

        # The same connection still serves real traffic afterwards.
        assert client.ping()
        stats = client.stats()
        assert stats["sessions_connected"] == 1
        client.close()

    def test_resize_frame_is_an_unknown_frame(self, make_server):
        # The process backend's pool keeps the size it starts with: a
        # ``resize`` frame is answered like any frame kind the protocol
        # does not define, and the pool is left as it was.
        handle = make_server(backend="process", workers=2)
        client = ServeClient("127.0.0.1", handle.port, client_id="resize")
        write_frame_sock(client._sock, {"t": "resize", "seq": 99, "workers": 4})
        reply = read_frame_sock(client._sock)
        assert reply["t"] == "error"
        assert reply["code"] == "unknown_frame"
        stats = client.stats()
        assert stats["workers"] == stats["alive_workers"] == 2
        client.close()

    def test_oversized_frame_is_answered_and_survivable(self, make_server):
        handle = make_server()
        client = ServeClient("127.0.0.1", handle.port, client_id="big")
        sock = client._sock
        # Declare an oversized length; the server drains and answers.
        length = MAX_FRAME_BYTES + 1
        sock.sendall(struct.pack(">I", length))
        sock.sendall(b"\0" * length)
        reply = read_frame_sock(sock)
        assert reply["t"] == "error"
        assert reply["code"] == "frame_too_large"
        assert client.ping()
        client.close()

    def test_handshake_required_before_anything_else(self, make_server):
        handle = make_server()
        sock = socket.create_connection(("127.0.0.1", handle.port), timeout=5)
        try:
            write_frame_sock(sock, {"t": "ping"})
            reply = read_frame_sock(sock)
            assert reply["t"] == "error"
            assert reply["code"] == "handshake_required"
        finally:
            sock.close()

    def test_bad_token_is_rejected(self, make_server):
        handle = make_server(auth_token="sesame")
        from repro.serve import ServeError

        with pytest.raises(ServeError) as excinfo:
            ServeClient(
                "127.0.0.1", handle.port, client_id="x", token="wrong"
            )
        assert excinfo.value.code == "auth_failed"
        client = ServeClient(
            "127.0.0.1", handle.port, client_id="x", token="sesame"
        )
        assert client.ping()
        client.close()
