"""The wire protocol of the serving layer: length-prefixed frames.

One frame is a 4-byte big-endian header followed by the payload.  The
header's low 31 bits are the payload length; the high bit selects the
payload codec:

* **clear** — UTF-8 JSON encoding a single object with a ``t`` (type)
  field.  JSON keeps the protocol debuggable with ``nc``/``jq`` and —
  because Python's ``json`` roundtrips ints and floats exactly —
  preserves the byte-equality guarantees the integration tests assert.
* **set** — a struct-packed *binary columnar* payload, used only for
  the two high-volume data-plane frames (``push`` and ``result``).
  Events travel as parallel little-endian int64 columns (``ts``,
  ``key``, ``f0..f4``) rather than per-event JSON lists, and are
  decoded zero-copy via ``memoryview.cast`` on little-endian hosts.
  See :func:`encode_push_binary` / :func:`encode_result_binary` for
  the exact layouts.

Because ``MAX_FRAME_BYTES`` is far below 2**31, a JSON frame can never
set the high bit, so both codecs interleave safely on one connection.
Which codec a peer *sends* is negotiated in the handshake: the client
offers ``codecs`` in its ``hello`` and the server picks one, echoing
``codec`` in the ``hello_ack``.  Old peers simply omit the fields and
everything stays JSON.  Decoding is negotiation-independent — a binary
frame is identified by its header bit alone.

Frame catalogue (client → server unless noted)::

    hello         {t, client_id, token?, protocol}
    hello_ack     {t, session_id, credits, server{...}}          (reply)
    create_query  {t, seq, query? | sql?, at_ms?}
    delete_query  {t, seq, query_id, at_ms?}
    ack           {t, seq, status, ...}                          (reply)
    push          {t, stream, events: [[ts, key, [f0..f4]], ..]}
    push_ack      {t, credits, accepted}                         (reply)
    watermark     {t, timestamp, stream?}
    subscribe     {t, seq, query_id, from_start?}
    unsubscribe   {t, seq, query_id}
    result        {t, query_id, outputs, dropped}               (pushed)
    query_event   {t, event, query_id, sequence}                (pushed)
    fetch_results {t, seq, query_id}
    results       {t, seq, query_id, outputs, base}              (reply)
    stats         {t, seq}
    obs_snapshot  {t, seq}
    chaos         {t, seq, op, shard?}
    resize        {t, seq, workers}
    drain         {t, seq, checkpoint?}
    shutdown      {t, seq}
    ping          {t} / pong {t}                            (both ways)
    error         {t, seq?, code, message}                       (reply)

Control frames carry a client-chosen ``seq`` that the server echoes in
its reply and uses for idempotent deduplication: re-sending a frame
with an already-applied ``seq`` (after a reconnect) replays the cached
response instead of re-applying the command.

Malformed input — oversized length prefixes, undecodable bytes, frames
missing required fields — raises :class:`ProtocolError`, which servers
answer with an ``error`` frame on the *same* connection; a framing
error never kills the session (the length prefix keeps the stream in
sync even when a payload is garbage).
"""

from __future__ import annotations

import asyncio
import json
import socket
import struct
import sys
from itertools import repeat
from typing import Any, Collection, Dict, List, Optional, Tuple

from repro.core.router import QueryOutput, ResultChunk
from repro.core.shared_aggregation import AggregationResult
from repro.core.shared_join import JoinedTuple
from repro.minispe.record import RecordBatch
from repro.minispe.windows import Window
from repro.workloads.datagen import DataTuple

PROTOCOL_VERSION = 1
MAX_FRAME_BYTES = 8 * 1024 * 1024
"""Upper bound on one frame's payload (8 MiB, either codec)."""

_HEADER = struct.Struct(">I")
HEADER_BYTES = _HEADER.size

CODEC_JSON = "json"
CODEC_BINARY = "binary"
SUPPORTED_CODECS = (CODEC_BINARY, CODEC_JSON)
"""Codecs this build speaks, in server preference order."""

BINARY_FLAG = 0x8000_0000
"""High header bit: the payload is binary columnar, not JSON."""
_LENGTH_MASK = 0x7FFF_FFFF


class ProtocolError(Exception):
    """A malformed or invalid frame (answered, never fatal)."""

    def __init__(self, code: str, message: str) -> None:
        super().__init__(message)
        self.code = code
        self.message = message


# Required fields per frame type (value = field must be present).
FRAME_SCHEMAS: Dict[str, Tuple[str, ...]] = {
    "hello": ("client_id",),
    "hello_ack": ("session_id", "credits"),
    "create_query": ("seq",),
    "delete_query": ("seq", "query_id"),
    "ack": ("seq", "status"),
    "push": ("stream", "events"),
    "push_ack": ("credits", "accepted"),
    "watermark": ("timestamp",),
    "subscribe": ("seq", "query_id"),
    "unsubscribe": ("seq", "query_id"),
    "result": ("query_id", "outputs"),
    "query_event": ("event", "query_id"),
    "fetch_results": ("seq", "query_id"),
    "results": ("seq", "query_id", "outputs"),
    "stats": ("seq",),
    "obs_snapshot": ("seq",),
    "chaos": ("seq", "op"),
    "resize": ("seq", "workers"),
    "drain": ("seq",),
    "shutdown": ("seq",),
    "ping": (),
    "pong": (),
    "error": ("code", "message"),
}


def validate_frame(frame: Any) -> Dict[str, Any]:
    """Check the decoded object is a known frame with required fields."""
    if not isinstance(frame, dict):
        raise ProtocolError("bad_frame", "frame payload is not an object")
    kind = frame.get("t")
    required = FRAME_SCHEMAS.get(kind)
    if required is None:
        raise ProtocolError("unknown_frame", f"unknown frame type {kind!r}")
    missing = [name for name in required if name not in frame]
    if missing:
        raise ProtocolError(
            "missing_field",
            f"frame {kind!r} is missing field(s): {', '.join(missing)}",
        )
    return frame


def encode_frame(frame: Dict[str, Any]) -> bytes:
    """Serialise one frame: length prefix + compact JSON payload."""
    payload = json.dumps(
        frame, separators=(",", ":"), ensure_ascii=False
    ).encode("utf-8")
    if len(payload) > MAX_FRAME_BYTES:
        raise ProtocolError(
            "frame_too_large",
            f"encoded frame is {len(payload)} bytes "
            f"(limit {MAX_FRAME_BYTES})",
        )
    return _HEADER.pack(len(payload)) + payload


def decode_frame(payload: bytes) -> Dict[str, Any]:
    """Parse and validate one frame payload (without the prefix)."""
    try:
        frame = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise ProtocolError("bad_json", f"undecodable frame: {error}") from None
    return validate_frame(frame)


def error_frame(
    code: str, message: str, seq: Optional[int] = None
) -> Dict[str, Any]:
    """Build the standard ``error`` reply for a protocol violation."""
    frame: Dict[str, Any] = {"t": "error", "code": code, "message": message}
    if seq is not None:
        frame["seq"] = seq
    return frame


# -- asyncio transport ---------------------------------------------------------------

async def read_frame(
    reader: asyncio.StreamReader, max_bytes: int = MAX_FRAME_BYTES
) -> Optional[Dict[str, Any]]:
    """Read one frame; ``None`` on clean EOF.

    An oversized declared length is drained (the prefix keeps the
    stream in sync) and reported as a :class:`ProtocolError`, so the
    caller can answer with an ``error`` frame and keep the connection.
    """
    try:
        header = await reader.readexactly(HEADER_BYTES)
    except (asyncio.IncompleteReadError, ConnectionResetError):
        return None
    (raw,) = _HEADER.unpack(header)
    binary = bool(raw & BINARY_FLAG)
    length = raw & _LENGTH_MASK
    if length > max_bytes:
        remaining = length
        while remaining:
            chunk = await reader.read(min(remaining, 1 << 16))
            if not chunk:
                return None
            remaining -= len(chunk)
        raise ProtocolError(
            "frame_too_large",
            f"declared frame length {length} exceeds limit {max_bytes}",
        )
    try:
        payload = await reader.readexactly(length)
    except (asyncio.IncompleteReadError, ConnectionResetError):
        return None
    if binary:
        return decode_binary_payload(payload)
    return decode_frame(payload)


# -- blocking-socket transport (sync client) -----------------------------------------

def recv_exactly(sock: socket.socket, count: int) -> bytes:
    """Read exactly ``count`` bytes from a blocking socket.

    Raises :class:`ConnectionError` on EOF mid-read so callers share
    one reconnect path for every flavour of dropped connection.
    """
    chunks: List[bytes] = []
    remaining = count
    while remaining:
        chunk = sock.recv(remaining)
        if not chunk:
            raise ConnectionError("connection closed mid-frame")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def read_frame_sock(
    sock: socket.socket, max_bytes: int = MAX_FRAME_BYTES
) -> Dict[str, Any]:
    """Blocking-socket counterpart of :func:`read_frame`.

    EOF raises :class:`ConnectionError` (it never returns ``None``); an
    oversized declared length is drained in bounded chunks that are not
    retained, then reported as a :class:`ProtocolError`.
    """
    (raw,) = _HEADER.unpack(recv_exactly(sock, HEADER_BYTES))
    binary = bool(raw & BINARY_FLAG)
    length = raw & _LENGTH_MASK
    if length > max_bytes:
        remaining = length
        while remaining:
            remaining -= len(recv_exactly(sock, min(remaining, 1 << 16)))
        raise ProtocolError(
            "frame_too_large",
            f"declared frame length {length} exceeds limit {max_bytes}",
        )
    payload = recv_exactly(sock, length)
    if binary:
        return decode_binary_payload(payload)
    return decode_frame(payload)


def write_frame_sock(sock: socket.socket, frame: Dict[str, Any]) -> None:
    """Send one frame on a blocking socket."""
    sock.sendall(encode_frame(frame))


# -- data-plane payload helpers ------------------------------------------------------

def encode_events(events: List[Tuple[int, Any]]) -> List[list]:
    """Pack ``(timestamp, DataTuple)`` pairs into the push-frame form.

    The wire shape is ``[timestamp, key, [f0..f4]]`` per event — flat
    lists rather than tagged objects, because ingestion is the
    high-volume path and the five-field workload tuple is the only
    payload the engine accepts.
    """
    return [
        [timestamp, value.key, list(value.fields)]
        for timestamp, value in events
    ]


def decode_events(rows: List[list]) -> List[Tuple[int, Any]]:
    """Inverse of :func:`encode_events`; validates row shape."""
    events: List[Tuple[int, Any]] = []
    try:
        for row in rows:
            timestamp, key, fields = row
            events.append(
                (int(timestamp), DataTuple(key=key, fields=tuple(fields)))
            )
    except (TypeError, ValueError) as error:
        raise ProtocolError(
            "bad_event", f"malformed push event row: {error}"
        ) from None
    return events


# -- binary columnar codec -----------------------------------------------------------
#
# Binary payload layouts (all multi-byte header fields big-endian, all
# column data little-endian int64):
#
#   push:    u8 kind=1 | u16 stream_len | stream utf-8
#            | u32 n | ts[n] | key[n] | f0[n] .. f4[n]
#   result:  u8 kind=2 | u16 query_id_len | query_id utf-8
#            | u32 dropped | u8 value_kind | u8 arity | u32 n | columns
#   push (traced):
#            u8 kind=3 | u64 trace_id | u64 ingest_ns
#            | <same body as kind 1 after the kind byte>
#
# Kind 3 exists so trace-stamped pushes ride a *separate* frame kind:
# untraced pushes stay byte-identical to the kind-1 layout (the wire
# byte-equality tests pin that), and old peers reject kind 3 cleanly as
# an unknown frame rather than mis-parsing 16 extra header bytes.
#
# ``value_kind`` selects the column set of a result frame:
#   0 DataTuple           ts | key | f0..f4
#   1 AggregationResult   ts | key | win_start | win_end | value
#   2 JoinedTuple         ts | key | join_ts
#                         | per part (arity×): pkey | pf0..pf4
#
# A result batch that mixes value kinds, carries non-int payloads, or
# overflows int64 is *not* expressible here — the sender falls back to
# a JSON ``result`` frame for that batch, which is always legal.

_BIN_PUSH = 1
_BIN_RESULT = 2
_BIN_PUSH_TRACED = 3

_VK_TUPLE = 0
_VK_AGG = 1
_VK_JOINED = 2

_U16 = struct.Struct(">H")
_U32 = struct.Struct(">I")
_TRACE_HDR = struct.Struct(">QQ")
_RESULT_HEAD = struct.Struct(">BH")
_RESULT_COUNTS = struct.Struct(">IBBI")
"""A result frame's header around the query id: kind and id length;
then dropped, value kind, arity and result count."""
_LITTLE_ENDIAN_HOST = sys.byteorder == "little"
_INT64_PACKERS = [struct.Struct(f"<{n}q").pack for n in range(65)]
"""Packers of ``n`` little-endian int64s for the small frames most results
travel in, compiled once at import: created later and cached, long-lived
packers scattered over the heap and raised ``join-100q``'s RSS."""


def _int64_column(n: int) -> Any:
    return _INT64_PACKERS[n] if n < 65 else struct.Struct(f"<{n}q").pack


def negotiate_codec(offered: Any, supported: Tuple[str, ...] = SUPPORTED_CODECS) -> str:
    """Server-side codec pick: first offered codec we support.

    ``offered`` is the client hello's ``codecs`` list (absent or
    malformed → JSON, the compatibility default).
    """
    if isinstance(offered, (list, tuple)):
        for codec in offered:
            if codec in supported:
                return str(codec)
    return CODEC_JSON


def _frame_bytes(payload: bytes) -> bytes:
    if len(payload) > MAX_FRAME_BYTES:
        raise ProtocolError(
            "frame_too_large",
            f"encoded binary frame is {len(payload)} bytes "
            f"(limit {MAX_FRAME_BYTES})",
        )
    return _HEADER.pack(BINARY_FLAG | len(payload)) + payload


def encode_push_binary(
    stream: str,
    events: List[Tuple[int, Any]],
    trace: Optional[Tuple[int, int]] = None,
) -> bytes:
    """Encode one push frame (header included) as binary columns.

    ``trace`` is an optional ``(trace_id, ingest_ns)`` wire trace
    context; with it the frame uses kind 3 (trace header + identical
    body), without it the kind-1 layout is byte-for-byte unchanged.

    Raises ``struct.error`` / ``TypeError`` / ``AttributeError`` when
    the events don't fit the columnar contract (non-int values, int64
    overflow, wrong arity) — callers catch those and fall back to JSON.
    """
    name = stream.encode("utf-8")
    n = len(events)
    if n:
        # Transpose in C: one zip for (ts, value) pairs, one for the
        # field columns.  strict=True keeps the old per-row arity check
        # (a 4-field payload must fall back to JSON, not truncate).
        ts, values = zip(*events)
        f0, f1, f2, f3, f4 = zip(
            *(value.fields for value in values), strict=True
        )
        keys = tuple(value.key for value in values)
        cols = (ts, keys, f0, f1, f2, f3, f4)
    else:
        cols = ((),) * 7
    column = _int64_column(n)
    if trace is None:
        header = (struct.pack(">BH", _BIN_PUSH, len(name)),)
    else:
        header = (
            bytes((_BIN_PUSH_TRACED,)),
            _TRACE_HDR.pack(trace[0], trace[1]),
            _U16.pack(len(name)),
        )
    payload = b"".join(
        header + (name, _U32.pack(n)) + tuple(column(*col) for col in cols)
    )
    return _frame_bytes(payload)


def encode_result_binary(
    query_id: str, outputs: Collection[Any], dropped: int = 0
) -> Optional[bytes]:
    """Encode one ``result`` frame (header included) as binary columns.

    ``outputs`` is a list of :class:`~repro.core.router.QueryOutput` s
    or a cursor's :class:`~repro.core.router.ResultChunk`; a chunk of
    window runs is packed straight from the runs' columns, with the same
    bytes.  Returns ``None`` when the batch is not expressible in
    columnar form (mixed value kinds, non-int payloads, int64 overflow)
    — the caller then ships the batch as a JSON frame instead.
    """
    try:
        return _encode_result_binary(query_id, outputs, dropped)
    except (struct.error, TypeError, AttributeError, ValueError):
        return None


def _encode_result_binary(
    query_id: str, outputs: Collection[Any], dropped: int
) -> Optional[bytes]:
    n = len(outputs)
    if type(outputs) is ResultChunk:
        window_columns = outputs.window_columns() if n else None
        if window_columns is not None:
            ts, columns = window_columns
            if set(map(type, columns[-1])) != {int}:
                return None  # an AVG, a bool: not an int64 aggregate
            return _pack_result(query_id, dropped, n, _VK_AGG, 0, ts, columns)
        ts, values = outputs.columns()
    else:
        ts = [output.timestamp for output in outputs]
        values = [output.value for output in outputs]
    encoded = _value_columns(values)
    if encoded is None:
        return None
    value_kind, arity, columns = encoded
    return _pack_result(query_id, dropped, n, value_kind, arity, ts, columns)


def _value_columns(values: List[Any]) -> Optional[Tuple[int, int, List[List[int]]]]:
    """``(value kind, arity, columns)`` of one result frame's values, or
    None when they do not fit one columnar kind."""
    if not values:
        return _VK_TUPLE, 0, []
    first = type(values[0])
    if any(type(value) is not first for value in values):
        return None
    if first is DataTuple:
        columns = [[value.key for value in values]]
        columns += [[value.fields[i] for value in values] for i in range(5)]
        return _VK_TUPLE, 0, columns
    if first is AggregationResult:
        aggregates = [value.value for value in values]
        if any(type(aggregate) is not int for aggregate in aggregates):
            return None
        return _VK_AGG, 0, [
            [value.key for value in values],
            [value.window.start for value in values],
            [value.window.end for value in values],
            aggregates,
        ]
    if first is JoinedTuple:
        arity = len(values[0].parts)
        if arity == 0 or arity > 255:
            return None
        if any(len(value.parts) != arity for value in values):
            return None
        if any(
            type(part) is not DataTuple
            for value in values
            for part in value.parts
        ):
            return None
        columns = [
            [value.key for value in values],
            [value.timestamp for value in values],
        ]
        for p in range(arity):
            columns.append([value.parts[p].key for value in values])
            columns += [
                [value.parts[p].fields[i] for value in values]
                for i in range(5)
            ]
        return _VK_JOINED, arity, columns
    return None


def _pack_result(
    query_id: str,
    dropped: int,
    n: int,
    value_kind: int,
    arity: int,
    ts: List[int],
    columns: List[List[int]],
) -> bytes:
    """One binary ``result`` frame: header, then one ``struct`` call per
    little-endian int64 column (``struct.error`` on overflow)."""
    qid = query_id.encode("utf-8")
    column = _int64_column(n)
    payload = b"".join(
        [
            _RESULT_HEAD.pack(_BIN_RESULT, len(qid)),
            qid,
            _RESULT_COUNTS.pack(dropped, value_kind, arity, n),
            column(*ts),
        ]
        + [column(*col) for col in columns]
    )
    return _frame_bytes(payload)


def _read_i64_column(view: memoryview, offset: int, count: int):
    """One int64 column from ``view`` — zero-copy on little-endian hosts."""
    end = offset + 8 * count
    if end > len(view):
        raise ProtocolError("bad_binary", "binary frame truncated mid-column")
    column = view[offset:end]
    if _LITTLE_ENDIAN_HOST:
        return column.cast("q"), end
    return struct.unpack(f"<{count}q", column), end


def _read_name(view: memoryview, offset: int) -> Tuple[str, int]:
    if offset + 2 > len(view):
        raise ProtocolError("bad_binary", "binary frame truncated in header")
    (length,) = _U16.unpack_from(view, offset)
    offset += 2
    if offset + length > len(view):
        raise ProtocolError("bad_binary", "binary frame truncated in name")
    try:
        name = bytes(view[offset : offset + length]).decode("utf-8")
    except UnicodeDecodeError as error:
        raise ProtocolError(
            "bad_binary", f"undecodable name in binary frame: {error}"
        ) from None
    return name, offset + length


def _read_u32(view: memoryview, offset: int) -> Tuple[int, int]:
    if offset + 4 > len(view):
        raise ProtocolError("bad_binary", "binary frame truncated in header")
    (value,) = _U32.unpack_from(view, offset)
    return value, offset + 4


def decode_binary_payload(payload: bytes) -> Dict[str, Any]:
    """Decode one binary payload into its frame-dict equivalent.

    The returned frame carries already-decoded payload objects — a
    *columnar* :class:`~repro.minispe.record.RecordBatch` under
    ``batch`` for ``push`` (columns aliasing the frame buffer, fed
    straight to :meth:`AStreamEngine.push_batch`; row objects
    materialise lazily, and columnar-aware operators may never build
    them), :class:`~repro.core.router.QueryOutput` objects for
    ``result`` — and is marked ``_decoded`` so handlers skip the JSON
    payload codec.
    """
    view = memoryview(payload)
    if len(view) < 1:
        raise ProtocolError("bad_binary", "empty binary frame")
    kind = view[0]
    if kind == _BIN_PUSH:
        return _decode_push_binary(view)
    if kind == _BIN_RESULT:
        return _decode_result_binary(view)
    if kind == _BIN_PUSH_TRACED:
        return _decode_push_binary(view, traced=True)
    raise ProtocolError("bad_binary", f"unknown binary frame kind {kind}")


_DATA_TUPLE_BUILDER = None
"""Lazily-built ``(key, fields) -> DataTuple`` row materialiser shared
by every decoded columnar batch (closure over the workload type)."""


def _tuple_builder():
    new = object.__new__
    set_attr = object.__setattr__

    def build(key, fields):
        # The wire layout already guarantees the arity that the frozen
        # dataclass __post_init__ would re-check, so construction
        # bypasses __init__ entirely (it is the decode hot path's
        # dominant cost otherwise).
        value = new(DataTuple)
        set_attr(value, "key", key)
        set_attr(value, "fields", fields)
        return value

    return build


def _decode_push_binary(
    view: memoryview, traced: bool = False
) -> Dict[str, Any]:
    global _DATA_TUPLE_BUILDER

    trace = None
    offset = 1
    if traced:
        if len(view) < 1 + _TRACE_HDR.size:
            raise ProtocolError(
                "bad_binary", "traced push frame truncated in trace header"
            )
        trace = _TRACE_HDR.unpack_from(view, 1)
        offset = 1 + _TRACE_HDR.size
    stream, offset = _read_name(view, offset)
    count, offset = _read_u32(view, offset)
    if len(view) != offset + 7 * 8 * count:
        raise ProtocolError(
            "bad_binary",
            f"push frame length {len(view)} does not match "
            f"{count} declared events",
        )
    ts, offset = _read_i64_column(view, offset, count)
    keys, offset = _read_i64_column(view, offset, count)
    fields = []
    for _ in range(5):
        column, offset = _read_i64_column(view, offset, count)
        fields.append(column)
    builder = _DATA_TUPLE_BUILDER
    if builder is None:
        builder = _DATA_TUPLE_BUILDER = _tuple_builder()
    # Zero-copy hand-off: the columns alias the frame buffer and ride
    # into the engine as a columnar RecordBatch — rows materialise only
    # where an operator actually needs them as objects.
    batch = RecordBatch.from_columns(ts, keys, fields, builder)
    frame = {"t": "push", "stream": stream, "batch": batch,
             "_decoded": True}
    if trace is not None:
        batch.trace = trace
        frame["trace"] = {"id": trace[0], "ingest_ns": trace[1]}
    return frame


def _decode_result_binary(view: memoryview) -> Dict[str, Any]:
    query_id, offset = _read_name(view, 1)
    dropped, offset = _read_u32(view, offset)
    if offset + 2 > len(view):
        raise ProtocolError("bad_binary", "binary frame truncated in header")
    value_kind = view[offset]
    arity = view[offset + 1]
    offset += 2
    count, offset = _read_u32(view, offset)
    if value_kind == _VK_TUPLE:
        column_count = 7
    elif value_kind == _VK_AGG:
        column_count = 5
    elif value_kind == _VK_JOINED:
        column_count = 3 + 6 * arity
    else:
        raise ProtocolError(
            "bad_binary", f"unknown result value kind {value_kind}"
        )
    if len(view) != offset + column_count * 8 * count:
        raise ProtocolError(
            "bad_binary",
            f"result frame length {len(view)} does not match "
            f"{count} declared outputs",
        )
    ts, offset = _read_i64_column(view, offset, count)
    # Positional construction over the columns; one Window per distinct
    # (start, end) in the frame.
    if value_kind == _VK_TUPLE:
        keys, offset = _read_i64_column(view, offset, count)
        fields = []
        for _ in range(5):
            column, offset = _read_i64_column(view, offset, count)
            fields.append(column)
        values: Any = map(DataTuple, keys, zip(*fields))
    elif value_kind == _VK_AGG:
        keys, offset = _read_i64_column(view, offset, count)
        starts, offset = _read_i64_column(view, offset, count)
        ends, offset = _read_i64_column(view, offset, count)
        aggregates, offset = _read_i64_column(view, offset, count)
        windows: Dict[Tuple[int, int], Window] = {}

        def window_of(start: int, end: int) -> Window:
            window = windows.get((start, end))
            if window is None:
                window = windows[(start, end)] = Window(start, end)
            return window

        values = map(AggregationResult, keys, map(window_of, starts, ends),
                     aggregates)
    else:
        keys, offset = _read_i64_column(view, offset, count)
        join_ts, offset = _read_i64_column(view, offset, count)
        part_columns = []
        for _ in range(arity):
            pkey, offset = _read_i64_column(view, offset, count)
            pfields = []
            for _ in range(5):
                column, offset = _read_i64_column(view, offset, count)
                pfields.append(column)
            part_columns.append(map(DataTuple, pkey, zip(*pfields)))
        parts = zip(*part_columns) if part_columns else repeat((), count)
        values = map(JoinedTuple, keys, parts, join_ts)
    outputs = list(map(QueryOutput, ts, values))
    return {
        "t": "result",
        "query_id": query_id,
        "outputs": outputs,
        "dropped": dropped,
        "_decoded": True,
    }
