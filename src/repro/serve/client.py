"""Client SDK for the stream service: one session core, two transports.

:class:`_SessionCore` is the client half of the frame protocol of
:mod:`repro.serve.protocol` with no socket and no event loop in it: it
builds every request, owns the seq / credit / subscription bookkeeping,
tells the reply to an outstanding request from streamed data, and says
how long to back off before a re-dial.  :class:`ServeClient` (a blocking
socket on the caller's thread) and :class:`AsyncServeClient` (asyncio
streams + a reader task) only move bytes for it — dial, send, read one
frame, sleep — and share their request methods via :class:`_ClientAPI`.

The driver's :class:`~repro.workloads.driver.RetryPolicy` becomes a
transport-level resilience loop:

* **reconnect** — a dropped connection (or an ack timeout) triggers a
  fresh dial with seeded exponential backoff; a *refusal* during the
  re-dial handshake (bad token, protocol mismatch) is not retryable and
  propagates as :class:`ServeError`;
* **resubscribe** — subscriptions the client holds are re-issued after
  every reconnect (the server's re-subscribe is idempotent, so nothing
  double-delivers);
* **idempotent resubmission** — every control request carries a client
  sequence number; after a reconnect the unacknowledged request is
  re-sent verbatim and the server either applies it or replays the
  cached reply, so a create/delete lands exactly once no matter how
  many times the wire fails under it.
"""

from __future__ import annotations

import asyncio
import random
import socket
import struct
import time
from collections import deque
from dataclasses import dataclass
from itertools import count
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Tuple

from repro.core.query import Query
from repro.core.router import QueryOutput
from repro.core.serde import output_from_dict, query_to_dict
from repro.obs.tracing import new_trace_id
from repro.serve.protocol import (
    CODEC_BINARY,
    CODEC_JSON,
    PROTOCOL_VERSION,
    ProtocolError,
    encode_events,
    encode_frame,
    encode_push_binary,
    read_frame,
    read_frame_sock,
)
from repro.workloads.driver import RetryPolicy

Frame = Dict[str, Any]  # one decoded protocol frame


class ServeError(RuntimeError):
    """A server-side error reply (carries the protocol error code)."""

    def __init__(self, code: str, message: str) -> None:
        super().__init__(f"{code}: {message}")
        self.code = code
        """The protocol error code (e.g. ``unknown_query``)."""


class ConnectionLost(ConnectionError):
    """The transport died mid-exchange (the retry loop's signal)."""


@dataclass
class ControlResult:
    """Outcome of one acknowledged control request."""

    status: str
    """``admit`` / ``defer`` / ``reject`` / ``ok`` / ``not_subscribed``."""
    query_id: Optional[str] = None
    sequence: Optional[int] = None
    """Changelog sequence at which the request took effect (None while
    the server's batched flush has not applied it yet)."""
    raw: Optional[Frame] = None
    """The full reply frame, for fields the dataclass does not lift."""


class FetchedResults(list):
    """A ``fetch_results`` reply: the outputs the query's channel
    retains, as a list, plus ``base``, the count of earlier results a
    subscription trim dropped (0 when nothing was)."""

    base = 0


def _fetched(reply: Frame) -> FetchedResults:
    fetched = FetchedResults(map(output_from_dict, reply.get("outputs", [])))
    fetched.base = int(reply.get("base", 0))
    return fetched


def _decode_reply(frame: Frame) -> ControlResult:
    """Lift an ack frame into a :class:`ControlResult`."""
    return ControlResult(
        status=str(frame.get("status", "ok")),
        query_id=frame.get("query_id"),
        sequence=frame.get("sequence"),
        raw=frame,
    )


_DECODERS: Dict[str, Callable[[Frame], Any]] = {
    "fetch_results": _fetched,
    "stats": lambda reply: reply.get("stats", {}),
    "obs_snapshot": lambda reply: {
        "snapshot": reply.get("snapshot", {}),
        "events": reply.get("events", []),
    },
    "ping": lambda reply: reply.get("t") == "pong",
}
"""Request kind → how its reply becomes the public return value (every
other sequenced kind answers with an ack: :func:`_decode_reply`)."""


def _checked(reply: Frame) -> Frame:
    """Pass a reply frame through; an ``error`` reply raises."""
    if reply.get("t") == "error":
        raise ServeError(reply["code"], reply["message"])
    return reply


def _frame(kind: str, **fields: Any) -> Frame:
    """Assemble one frame (Nones omitted)."""
    present = {k: v for k, v in fields.items() if v is not None}
    return {"t": kind, **present}


def _control_frame(kind: str, seq: int, **fields: Any) -> Frame:
    """Assemble one sequenced control frame (Nones omitted)."""
    return _frame(kind, seq=seq, **fields)


class _Op(NamedTuple):
    """One request the core built, ready for a transport to carry:
    ``frame`` is what the reply is matched against (a binary push has
    only a stub here), ``raw`` the wire image (encoded once, re-sent
    verbatim on retries) and ``finish`` turns the reply frame into the
    public return value (``None``: no reply comes, as for ``watermark``)."""

    frame: Frame
    raw: bytes
    finish: Optional[Callable[[Frame], Any]]


class _SessionCore:
    """The client half of the protocol as a sans-IO state machine:
    requests come out as bytes (:meth:`hello`) or :class:`_Op` values,
    incoming frames go in through :meth:`welcome` and :meth:`receive`,
    and nothing here blocks, sleeps or touches a socket."""

    def __init__(
        self,
        client_id: str,
        token: Optional[str],
        retry: Optional[RetryPolicy],
        codec: str,
        trace_sample_every: int,
        deliver: Callable[[str, List[QueryOutput]], None],
    ) -> None:
        self.client_id = client_id
        self.token = token
        self.retry = retry or RetryPolicy()
        self.rng = random.Random(self.retry.seed)
        self.ack_timeout_s = self.retry.ack_timeout_ms / 1_000.0
        """How long a transport waits for one reply before re-dialling."""
        if codec not in (CODEC_BINARY, CODEC_JSON):
            raise ValueError(f"unknown codec {codec!r}")
        self.offered_codecs = sorted({codec, CODEC_JSON})  # JSON: the fallback
        self.codec = CODEC_JSON
        """The codec the *server* granted at the last handshake; stays
        JSON against servers that never heard of codec negotiation."""
        self.seq = 0
        self.credits = 0
        self.server_info: Dict[str, Any] = {}
        self.reconnects = 0
        self.subscriptions: Dict[str, bool] = {}
        """query_id → from_start flag, replayed after reconnects."""
        self.tagged: Dict[int, Any] = {}
        """``seq`` → the waiter of an outstanding sequenced request."""
        self.untagged: deque = deque()
        """Waiters of outstanding un-sequenced requests (push, ping):
        the server answers in order, so replies are matched FIFO."""
        self.deliver = deliver
        """The transport's sink for a ``result`` frame's decoded
        outputs, called as ``deliver(query_id, outputs)``."""
        self.shed: Dict[str, int] = {}
        """query_id → results the server reported shedding."""
        self.events: List[Frame] = []
        """Out-of-band ``query_event`` frames, oldest first."""
        self.trace_every = max(0, trace_sample_every)
        """Stamp every Nth :meth:`push` with a wire trace context (0:
        never).  The server closes the trace at subscriber delivery and
        returns its span breakdown on the push ack, harvested into
        :attr:`trace_summaries` / :attr:`wire_latencies_ms`."""
        self.pushes = 0
        self.trace_summaries: deque = deque(maxlen=256)
        self.wire_latencies_ms: List[float] = []

    # -- handshake and retry policy ------------------------------------------

    def hello(self) -> bytes:
        """The handshake frame for a (re)connect."""
        return encode_frame(_frame(
            "hello",
            protocol=PROTOCOL_VERSION,
            client_id=self.client_id,
            codecs=self.offered_codecs,
            token=self.token,
        ))

    def welcome(self, reply: Optional[Frame]) -> List[_Op]:
        """Adopt the server's ``hello_ack`` (a refusal raises); returns
        the ``subscribe`` requests that restore the subscriptions."""
        if reply is None:
            raise ConnectionLost("server closed during handshake")
        _checked(reply)
        self.server_info = reply.get("server", {})
        self.credits = int(reply.get("credits", 0))
        granted = reply.get("codec")
        self.codec = granted if granted in self.offered_codecs else CODEC_JSON
        return [
            self.subscribe(query_id, from_start)
            for query_id, from_start in list(self.subscriptions.items())
        ]

    def next_redial(self, tries: int, frame: Frame, error: Exception) -> float:
        """Seconds to back off before the re-dial that follows the
        ``tries``-th failed attempt at sending ``frame``; raises once
        the retry policy is exhausted."""
        if tries >= self.retry.max_attempts:
            raise ConnectionLost(
                f"request {frame.get('t')} failed after "
                f"{self.retry.max_attempts} attempts: {error!r}"
            ) from error
        self.reconnects += 1
        return self.retry.backoff_ms(tries, self.rng) / 1_000.0

    # -- request builders ----------------------------------------------------

    def next_seq(self) -> int:
        """Allocate the next client sequence number."""
        self.seq += 1
        return self.seq

    def control(self, kind: str, **fields: Any) -> _Op:
        """One sequenced control request (``None`` fields omitted)."""
        frame = _control_frame(kind, self.next_seq(), **fields)
        finish = _DECODERS.get(kind, _decode_reply)
        return _Op(frame, encode_frame(frame), finish)

    def subscribe(self, query_id: str, from_start: bool) -> _Op:
        """``subscribe``, remembered for replay after reconnects."""
        self.subscriptions[query_id] = from_start
        return self.control(
            "subscribe", query_id=query_id, from_start=from_start
        )

    def unsubscribe(self, query_id: str) -> _Op:
        """``unsubscribe``, and stop replaying the subscription."""
        self.subscriptions.pop(query_id, None)
        return self.control("unsubscribe", query_id=query_id)

    def ping(self) -> _Op:
        """``ping`` → whether a ``pong`` came back."""
        frame = {"t": "ping"}
        return _Op(frame, encode_frame(frame), _DECODERS["ping"])

    def watermark(self, timestamp: int, stream: Optional[str]) -> _Op:
        """``watermark`` (the server sends no reply)."""
        frame = _frame("watermark", timestamp=timestamp, stream=stream)
        return _Op(frame, encode_frame(frame), None)

    def push(self, stream: str, events: List[Tuple[int, Any]]) -> _Op:
        """``push`` → the accepted count; every Nth one trace-stamped."""
        trace = None
        if self.trace_every:
            self.pushes += 1
            if self.pushes % self.trace_every == 0:
                trace = (new_trace_id(), time.monotonic_ns())
        raw = self.encode_push(stream, events, trace)
        return _Op({"t": "push"}, raw, self.finish_push)

    def encode_push(
        self,
        stream: str,
        events: List[Tuple[int, Any]],
        trace: Optional[Tuple[int, int]] = None,
    ) -> bytes:
        """The wire image of one push frame in the session codec."""
        if self.codec == CODEC_BINARY:
            try:
                return encode_push_binary(stream, events, trace=trace)
            except (ProtocolError, struct.error, TypeError,
                    AttributeError, ValueError):
                pass  # the columns cannot carry these events: use JSON
        stamp = trace and {"id": trace[0], "ingest_ns": trace[1]}
        return encode_frame(_frame(
            "push", stream=stream, events=encode_events(events), trace=stamp
        ))

    def finish_push(self, reply: Frame) -> int:
        """Absorb one ``push_ack``: credits, trace summary → accepted."""
        self.credits = int(reply.get("credits", self.credits))
        summary = reply.get("trace")
        if summary:
            self.trace_summaries.append(summary)
            e2e_ns = summary.get("e2e_ns")
            if e2e_ns is not None:
                self.wire_latencies_ms.append(e2e_ns / 1e6)
        return int(reply.get("accepted", 0))

    # -- reply matching ------------------------------------------------------

    def expect(self, seq: Optional[int], waiter: Any) -> None:
        """Register a request about to be sent: its ``seq`` (``None``
        for the kinds answered in send order) and whatever the transport
        wants back from :meth:`receive` when the reply arrives."""
        if seq is None:
            self.untagged.append(waiter)
        else:
            self.tagged[seq] = waiter

    def forget(self, seq: Optional[int], waiter: Any) -> None:
        """Stop waiting for one request (no-op once it is settled)."""
        if self.tagged.get(seq) is waiter:
            del self.tagged[seq]
        elif waiter in self.untagged:
            self.untagged.remove(waiter)

    def abandon(self) -> List[Any]:
        """The transport died: drop (and return) every waiter."""
        orphans = [*self.tagged.values(), *self.untagged]
        self.tagged.clear()
        self.untagged.clear()
        return orphans

    def receive(self, frame: Frame) -> Any:
        """Take one incoming frame: *the* reply, or streamed data?

        Returns the waiter of the outstanding request the frame answers
        (:func:`_checked` turns the frame into its outcome), or ``None``
        after filing a streamed ``result`` / ``query_event`` frame or
        dropping a reply nobody waits for any more (a late ack).
        """
        kind = frame.get("t")
        if kind in ("ack", "results"):
            return self.tagged.pop(frame.get("seq"), None)
        if kind in ("push_ack", "pong"):
            return self.untagged.popleft() if self.untagged else None
        if kind == "error":
            seq = frame.get("seq")
            if seq is not None:
                return self.tagged.pop(seq, None)
            return self.untagged.popleft() if self.untagged else None
        if kind == "result":
            query_id, outputs = frame["query_id"], frame["outputs"]
            if not frame.get("_decoded", False):
                outputs = [output_from_dict(doc) for doc in outputs]
            self.deliver(query_id, outputs)
            dropped = int(frame.get("dropped", 0))
            if dropped:
                self.shed[query_id] = self.shed.get(query_id, 0) + dropped
        elif kind == "query_event":
            self.events.append(frame)
        return None


class _ClientAPI:
    """The request methods of both clients, written once.

    Each names its frame and fields, lets the session core build the
    request, and hands it to the transport's ``_call(op)``.  Return
    annotations give the value a call resolves to: :class:`ServeClient`
    returns it, :class:`AsyncServeClient` returns an awaitable of it.
    """

    _core: _SessionCore
    _call: Callable[[_Op], Any]

    @property
    def reconnects(self) -> int:
        """Times the transport was re-dialled after the first connect."""
        return self._core.reconnects

    @property
    def server_info(self) -> Dict[str, Any]:
        """The server's handshake self-description."""
        return self._core.server_info

    @property
    def codec(self) -> str:
        """The wire codec the server granted (``json``/``binary``)."""
        return self._core.codec

    @property
    def trace_summaries(self) -> deque:
        """Closed wire traces returned on push acks, newest last."""
        return self._core.trace_summaries

    @property
    def wire_latencies_ms(self) -> List[float]:
        """End-to-end latency (ms) of every closed wire trace."""
        return self._core.wire_latencies_ms

    # -- control plane -----------------------------------------------------

    def create_query(
        self,
        query: Optional[Query] = None,
        sql: Optional[str] = None,
        at_ms: Optional[int] = None,
        slo_ms: Optional[float] = None,
    ) -> ControlResult:
        """Create one ad-hoc query (a :class:`Query` or SQL text).

        ``slo_ms`` declares a wire-to-delivery latency SLO target for
        the query; the server tracks its burn rate and feeds it to QoS
        shedding.
        """
        if (query is None) == (sql is None):
            raise ValueError("pass exactly one of query= or sql=")
        document = query_to_dict(query) if query is not None else None
        return self._call(self._core.control(
            "create_query", query=document, sql=sql, at_ms=at_ms, slo_ms=slo_ms
        ))

    def delete_query(
        self, query_id: str, at_ms: Optional[int] = None
    ) -> ControlResult:
        """Delete one live query."""
        return self._call(
            self._core.control("delete_query", query_id=query_id, at_ms=at_ms)
        )

    # -- data plane --------------------------------------------------------

    def push(self, stream: str, events: List[Tuple[int, Any]]) -> int:
        """Push one event micro-batch; returns the accepted count.

        On a binary-negotiated session the batch ships as columnar
        int64 arrays; events the columns cannot carry (a non-standard
        payload type, an int64 overflow) fall back to the JSON form.
        With ``trace_sample_every`` set, every Nth push is stamped with
        a wire trace context; the closed trace comes back on the ack.
        """
        return self._call(self._core.push(stream, events))

    def watermark(
        self, timestamp: int, stream: Optional[str] = None
    ) -> None:
        """Advance the server's event time (fires due windows)."""
        return self._call(self._core.watermark(timestamp, stream))

    # -- results -----------------------------------------------------------

    def subscribe(
        self, query_id: str, from_start: bool = True
    ) -> ControlResult:
        """Start streaming a query's results to this client."""
        return self._call(self._core.subscribe(query_id, from_start))

    def unsubscribe(self, query_id: str) -> ControlResult:
        """Stop streaming a query's results."""
        return self._call(self._core.unsubscribe(query_id))

    def fetch_results(self, query_id: str) -> FetchedResults:
        """Pull what a query's channel retains, in canonical order.

        That is every result, unless the query has subscribers: its
        channel then keeps only what some subscriber has not taken yet,
        and the list's ``base`` counts the results dropped before it."""
        op = self._core.control("fetch_results", query_id=query_id)
        return self._call(op)

    def take_events(self) -> List[Dict[str, Any]]:
        """Drain out-of-band ``query_event`` notifications."""
        events, self._core.events = self._core.events, []
        return events

    # -- ops ---------------------------------------------------------------

    def ping(self) -> bool:
        """Round-trip liveness probe."""
        return self._call(self._core.ping())

    def stats(self) -> Dict[str, Any]:
        """The server's live stats block."""
        return self._call(self._core.control("stats"))

    def obs_snapshot(self) -> Dict[str, Any]:
        """The server's telemetry snapshot + recent events."""
        return self._call(self._core.control("obs_snapshot"))

    def chaos_kill_worker(self, shard: int = 0) -> ControlResult:
        """SIGKILL one shard worker (process backend chaos hook)."""
        op = self._core.control("chaos", op="kill_worker", shard=shard)
        return self._call(op)

    def resize(self, workers: int) -> ControlResult:
        """Start a live worker-pool resize (process backend).

        Returns once the migration has begun; the server's ticker
        completes the per-shard restores while ingest keeps flowing.
        The reply's ``raw["migration_active"]`` reports whether shards
        are still pending.
        """
        return self._call(self._core.control("resize", workers=workers))

    def drain(self, checkpoint: Optional[bool] = None) -> ControlResult:
        """Settle all in-flight work server-side (optionally checkpoint)."""
        return self._call(self._core.control("drain", checkpoint=checkpoint))

    def shutdown(self) -> ControlResult:
        """Ask the server to drain, checkpoint, and exit."""
        return self._call(self._core.control("shutdown"))


class ServeClient(_ClientAPI):
    """Blocking client for the stream service (sockets + retries)."""

    def __init__(
        self,
        host: str,
        port: int,
        client_id: str = "client",
        token: Optional[str] = None,
        retry: Optional[RetryPolicy] = None,
        connect_timeout_s: float = 5.0,
        codec: str = CODEC_BINARY,
        coalesce_tuples: int = 512,
        trace_sample_every: int = 0,
    ) -> None:
        results: Dict[str, List[QueryOutput]] = {}
        self._results = results
        """query_id → streamed outputs not yet taken.  The core's sink
        holds this dict, not the client: no cycle keeps a socket open."""

        def sink(query_id: str, outputs: List[QueryOutput]) -> None:
            results.setdefault(query_id, []).extend(outputs)

        self._core = _SessionCore(
            client_id, token, retry, codec, trace_sample_every, sink
        )
        self._address = (host, port)
        self._connect_timeout_s = connect_timeout_s
        self._sock: Optional[socket.socket] = None
        self._coalesce = max(1, coalesce_tuples)
        """Tuples buffered by :meth:`push_nowait` before a frame ships."""
        self._ingest_buffer: List[Tuple[int, Any]] = []
        self._ingest_stream: Optional[str] = None
        self._ingest_accepted = 0
        self.connect()

    # -- transport -----------------------------------------------------------

    def connect(self) -> None:
        """Dial, handshake, and resubscribe (used for reconnects too)."""
        self.close_transport()
        sock = socket.create_connection(
            self._address, timeout=self._connect_timeout_s
        )
        try:
            sock.settimeout(self._core.ack_timeout_s)
            sock.sendall(self._core.hello())
            replay = self._core.welcome(read_frame_sock(sock))
        except BaseException:
            sock.close()
            raise
        self._sock = sock
        for op in replay:
            self._call(op)

    def close_transport(self) -> None:
        """Drop the socket without touching session state."""
        # Pipelined frames in flight die with the connection; the
        # coalescing buffer (never sent) survives and flushes later.
        self._core.abandon()
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None

    def close(self) -> None:
        """Close the client for good."""
        self.close_transport()

    def __enter__(self) -> "ServeClient":
        """Context-manager entry (the constructor already connected)."""
        return self

    def __exit__(self, *exc_info: Any) -> None:
        """Context-manager exit: close the transport."""
        self.close()

    def _send(self, raw: bytes) -> None:
        if self._sock is None:
            raise ConnectionLost("not connected")
        try:
            self._sock.sendall(raw)
        except OSError as error:
            self._core.abandon()
            raise ConnectionLost(str(error)) from error

    def _read_frame(self) -> Frame:
        if self._sock is None:
            raise ConnectionLost("not connected")
        try:
            return read_frame_sock(self._sock)
        except OSError as error:  # EOF, reset, or the ack timeout
            self._core.abandon()
            raise ConnectionLost(str(error)) from error

    # -- the retry loop ----------------------------------------------------

    def _call(self, op: _Op) -> Any:
        if op.finish is None:
            self._drain_ingest()
            return self._send(op.raw)
        return op.finish(self._request(op.frame, op.raw))

    def _request(self, frame: Frame, raw: Optional[bytes] = None) -> Frame:
        """Send one frame and return its reply, retrying per policy.

        The same frame (``raw`` is its wire image) — same client ``seq``
        — is re-sent verbatim after every reconnect, so the server's
        idempotency cache makes a control request apply exactly once.
        """
        raw = encode_frame(frame) if raw is None else raw
        seq, waiter = frame.get("seq"), object()
        for attempt in count(1):
            try:
                if attempt > 1:
                    self.connect()
                # Order barrier: pipelined ingest fully lands before
                # any other frame leaves the client.
                self._drain_ingest()
                self._core.expect(seq, waiter)
                self._send(raw)
                while True:
                    reply = self._read_frame()
                    if self._core.receive(reply) is waiter:
                        return _checked(reply)
            except OSError as error:  # ConnectionLost, or a failed re-dial
                delay_s = self._core.next_redial(attempt, frame, error)
            finally:
                self._core.forget(seq, waiter)
            time.sleep(delay_s)

    # -- pipelined ingest, streamed results --------------------------------

    def push_nowait(self, stream: str, events: List[Tuple[int, Any]]) -> None:
        """Buffer events for pipelined ingest (the high-throughput path).

        Events coalesce into frames of ``coalesce_tuples`` tuples that
        ship without waiting for their acks — up to the server's credit
        grant may be in flight at once, so frame encode, server-side
        ingest, and ack reads overlap instead of alternating.  A stream
        switch flushes the buffer (per-stream order is preserved); call
        :meth:`flush_ingest` to force everything out and collect the
        accepted count.  Unlike :meth:`push`, delivery is at-most-once:
        frames in flight when the transport dies are **not** replayed
        after the reconnect.
        """
        if self._ingest_stream is not None and stream != self._ingest_stream:
            self._flush_ingest_frame()
        self._ingest_stream = stream
        self._ingest_buffer.extend(events)
        if len(self._ingest_buffer) >= self._coalesce:
            self._flush_ingest_frame()

    def flush_ingest(self) -> int:
        """Flush buffered events and drain every outstanding ack.

        Returns the tuple count the server accepted since the previous
        flush (acks harvested opportunistically along the way included).
        """
        self._drain_ingest()
        accepted, self._ingest_accepted = self._ingest_accepted, 0
        return accepted

    def _drain_ingest(self) -> None:
        self._flush_ingest_frame()
        while self._core.untagged:
            self._read_ingest_ack()

    def _flush_ingest_frame(self) -> None:
        if not self._ingest_buffer:
            return
        stream, events = self._ingest_stream, self._ingest_buffer
        self._ingest_stream, self._ingest_buffer = None, []
        self._send(self._core.encode_push(stream, events))
        self._core.expect(None, "pipelined push")
        window = max(1, self._core.credits)
        while len(self._core.untagged) >= window:
            self._read_ingest_ack()

    def _read_ingest_ack(self) -> None:
        reply = self._read_frame()
        if self._core.receive(reply) is not None:
            self._ingest_accepted += self._core.finish_push(_checked(reply))

    def take_results(
        self, query_id: str, wait_ms: int = 0
    ) -> Tuple[List[QueryOutput], int]:
        """Drain streamed results received so far: ``(outputs, shed)``.

        ``wait_ms`` > 0 keeps reading the socket until at least one
        result for ``query_id`` is queued or the wait elapses.
        """
        deadline = time.monotonic() + wait_ms / 1_000.0
        # A shed count ends the wait too: it must surface even when the
        # server had nothing left to deliver with it.
        shed = self._core.shed
        while not (self._results.get(query_id) or query_id in shed):
            remaining = deadline - time.monotonic()
            if remaining <= 0 or self._sock is None:
                break
            self._sock.settimeout(max(remaining, 0.01))
            try:
                self._core.receive(read_frame_sock(self._sock))
            except socket.timeout:
                break
            except OSError as error:
                raise ConnectionLost(str(error)) from error
            finally:
                self._sock.settimeout(self._core.ack_timeout_s)
        return self._results.pop(query_id, []), shed.pop(query_id, 0)


class AsyncServeClient(_ClientAPI):
    """Asyncio client: background reader + per-query result queues."""

    def __init__(
        self,
        host: str,
        port: int,
        client_id: str = "client",
        token: Optional[str] = None,
        retry: Optional[RetryPolicy] = None,
        codec: str = CODEC_BINARY,
        trace_sample_every: int = 0,
    ) -> None:
        self._core = _SessionCore(
            client_id, token, retry, codec, trace_sample_every, self._deliver
        )
        self._address = (host, port)
        self._writer: Optional[asyncio.StreamWriter] = None
        self._reader_task: Optional[asyncio.Task] = None
        self._queues: Dict[str, asyncio.Queue] = {}
        self.shed = self._core.shed
        """query_id → results the server reported shedding."""
        self._closed = False

    # -- transport -----------------------------------------------------------

    async def connect(self) -> "AsyncServeClient":
        """Dial, handshake, start the reader, resubscribe."""
        await self._teardown_transport()
        reader, writer = await asyncio.open_connection(*self._address)
        try:
            writer.write(self._core.hello())
            await writer.drain()
            replay = self._core.welcome(await read_frame(reader))
        except BaseException:
            writer.close()
            raise
        self._writer = writer
        self._reader_task = asyncio.create_task(self._read_loop(reader))
        for op in replay:
            await self._call(op)
        return self

    async def close(self) -> None:
        """Close the client for good."""
        self._closed = True
        await self._teardown_transport()

    async def __aenter__(self) -> "AsyncServeClient":
        """Async context-manager entry: connect."""
        return await self.connect()

    async def __aexit__(self, *exc_info: Any) -> None:
        """Async context-manager exit: close."""
        await self.close()

    async def _teardown_transport(self) -> None:
        if self._reader_task is not None:
            self._reader_task.cancel()
            try:
                await self._reader_task
            except asyncio.CancelledError:
                pass
            self._reader_task = None
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except OSError:
                pass
            self._writer = None
        self._fail_waiters(ConnectionLost("transport closed"))

    def _fail_waiters(self, error: Exception) -> None:
        for future in self._core.abandon():
            if not future.done():
                future.set_exception(error)

    async def _read_loop(self, reader: asyncio.StreamReader) -> None:
        try:
            while True:
                frame = await read_frame(reader)
                if frame is None:
                    raise ConnectionLost("server closed the connection")
                future = self._core.receive(frame)
                if future is not None and not future.done():
                    future.set_result(frame)
        except (ProtocolError, OSError) as error:
            self._fail_waiters(ConnectionLost(str(error)))

    async def _send(self, raw: bytes) -> None:
        if self._writer is None:
            raise ConnectionLost("not connected")
        try:
            self._writer.write(raw)
            await self._writer.drain()
        except OSError as error:
            raise ConnectionLost(str(error)) from error

    # -- the retry loop ----------------------------------------------------

    async def _call(self, op: _Op) -> Any:
        if op.finish is None:
            return await self._send(op.raw)
        return op.finish(await self._request(op.frame, op.raw))

    async def _request(
        self, frame: Frame, raw: Optional[bytes] = None
    ) -> Frame:
        """Send + await reply with reconnect/backoff/resubmit per policy."""
        raw = encode_frame(frame) if raw is None else raw
        seq = frame.get("seq")
        for attempt in count(1):
            future = asyncio.get_running_loop().create_future()
            try:
                if attempt > 1:
                    await self.connect()
                self._core.expect(seq, future)
                await self._send(raw)
                return _checked(await asyncio.wait_for(
                    future, timeout=self._core.ack_timeout_s
                ))
            except (OSError, asyncio.TimeoutError) as error:
                # ConnectionLost, the ack timeout, or a failed re-dial.
                if self._closed:
                    raise
                delay_s = self._core.next_redial(attempt, frame, error)
            finally:
                self._core.forget(seq, future)
            await asyncio.sleep(delay_s)

    # -- streamed results --------------------------------------------------

    def _deliver(self, query_id: str, outputs: List[QueryOutput]) -> None:
        queue = self._queues.setdefault(query_id, asyncio.Queue())
        for output in outputs:
            queue.put_nowait(output)

    async def next_result(
        self, query_id: str, timeout_s: Optional[float] = None
    ) -> Optional[QueryOutput]:
        """The next streamed result for a query (None on timeout)."""
        queue = self._queues.setdefault(query_id, asyncio.Queue())
        try:
            return await asyncio.wait_for(queue.get(), timeout=timeout_s)
        except asyncio.TimeoutError:
            return None

    def pending_results(self, query_id: str) -> int:
        """Streamed results queued locally for a query."""
        queue = self._queues.get(query_id)
        return queue.qsize() if queue is not None else 0
