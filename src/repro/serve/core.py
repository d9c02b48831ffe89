"""The stream service as a sans-IO state machine: one core, any transport.

:class:`ServerCore` puts a front door on the engine: many clients create
and delete ad-hoc queries at runtime, feed events, and stream their
results back — the paper's serving setting (§1).  It holds no socket and
no event loop.  A transport hands it *inputs* — ``receive(conn, frame)``
per decoded frame (or the :class:`ProtocolError` decoding raised),
``disconnect(conn)``, ``tick(now, congested)`` and ``stop(drain)`` — and
carries out the *effects* it returns: ``(conn, item)`` pairs, in order,
where ``item`` is a frame dict, pre-encoded frame bytes, a deferred frame
(a callable, built once everything before it is on the wire), ``CLOSE``
or ``STOP``.  :class:`~repro.serve.server.AStreamServer` is the asyncio
transport; the tests also join this core to the client's session core
with an in-memory pipe.

The engine (inline or process-sharded) sits behind an
:class:`~repro.serve.gate.EngineGate` that serialises access and
supervises worker recovery.  Plane by plane:

* **control** — ``create_query`` / ``delete_query`` (a serde document
  or SQL text) pass admission and are flushed into a changelog at once,
  so the ack carries the sequence at which the request took effect; a
  deferred create is announced by a ``query_event`` when a tick admits
  it.  Frames apply in arrival order: sequences are a global order;
* **data** — ``push`` micro-batches enter the engine's batch path,
  paced by per-session ingest credits;
* **results** — the :class:`~repro.serve.subscriptions.SubscriptionHub`
  buffers per subscription (shedding visibly when full); results leave
  as soon as the push or watermark that made them is applied, and on
  the tick (held leftovers, congested connections, poll mode), on
  ``drain`` and on ``stop``;
* **ops** — ``stats`` / ``obs_snapshot`` frames, Prometheus exposition,
  the ``chaos`` kill hook, the tick's supervision duties, and a drain
  that checkpoints the engine before exit.

The process backend's worker pool keeps the size it starts with
(``ServeConfig.workers``): a dead worker — found by a failed send, or
by the liveness probe on the tick — is recovered by rebuilding the
whole pool at that size from the last checkpoint and the input log.
"""

from __future__ import annotations

import hmac
import json
import logging
import os
import time
import uuid
from collections import Counter, deque
from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Collection,
    Deque,
    Dict,
    Hashable,
    List,
    Optional,
    Tuple,
    Union,
)

from repro.core.admission import (
    AdmissionController,
    AdmissionDecision,
    AdmissionPolicy,
)
from repro.core.changelog import Changelog
from repro.core.engine import AStreamEngine, EngineConfig
from repro.core.parallel_engine import ProcessAStreamEngine
from repro.core.qos import QoSMonitor, QoSThresholds
from repro.core.serde import SerdeError, output_to_dict, query_from_dict
from repro.core.sql import SqlError, parse_query
from repro.minispe.cluster import ClusterSpec, SimulatedCluster
from repro.minispe.parallel import ShardWorkerError
from repro.minispe.record import RecordBatch
from repro.obs import MetricsRegistry, render_prometheus, write_flight_record
from repro.obs.cost import cost_summary
from repro.obs.slo import SLOTracker
from repro.obs.tracing import WireTraceBook, breakdown_from_snapshot
from repro.serve.gate import EngineGate
from repro.serve.protocol import (
    CODEC_BINARY,
    PROTOCOL_VERSION,
    SUPPORTED_CODECS,
    ProtocolError,
    decode_events,
    encode_result_binary,
    error_frame,
    negotiate_codec,
)
from repro.serve.state import (
    DEFAULT_INGEST_CREDITS,
    SessionRegistry,
    SessionState,
)
from repro.serve.subscriptions import DEFAULT_BUFFER_OUTPUTS, SubscriptionHub

logger = logging.getLogger("repro.serve.server")

Frame = Dict[str, Any]
Conn = Hashable
"""A transport's handle for one connection (the core only compares them)."""

CLOSE = "close"
"""Effect item: close this connection (after the frames before it)."""
STOP = "stop"
"""Effect item: stop the server once this batch of effects is written."""

Effect = Tuple[Optional[Conn], Union[Frame, bytes, str, Callable[[], Frame]]]

DEAD_LETTER_LIMIT = 256
"""Push batches parked after recovery + retry both failed; the oldest
are evicted beyond this depth."""

SLO_BURN_PRESSURE = 2.0
"""Burn rate at/above which subscription pressure (halved buffers) is
applied to the offending query; also the QoS violation line."""

_SEQUENCED = frozenset({
    "create_query", "delete_query", "subscribe", "unsubscribe",
    "fetch_results", "stats", "obs_snapshot", "chaos", "drain", "shutdown",
})
"""Frame kinds carrying a client ``seq``: answered once, replayed from
the session's idempotency cache on a resubmission."""


@dataclass
class ServeConfig:
    """One server deployment's knobs."""

    host: str = "127.0.0.1"
    port: int = 0
    """TCP port for the frame protocol (0 = ephemeral)."""
    auth_token: Optional[str] = None
    """Shared-secret session auth; ``None`` accepts any client."""
    backend: str = "inline"
    """``inline`` or ``process`` (sharded worker pool)."""
    workers: int = 2
    """Worker processes for the process backend."""
    streams: Tuple[str, ...] = ("A", "B")
    max_join_arity: int = 1
    changelog_batch_size: int = 100
    changelog_timeout_ms: int = 50
    log_inputs: bool = True
    """Keep the input log so the server can checkpoint/recover."""
    observe: bool = False
    """Enable the engine's telemetry subsystem (obs_snapshot carries the
    full registry/trace/events picture when on)."""
    metrics_port: Optional[int] = None
    """HTTP ``/metrics`` sidecar port (None disables, 0 = ephemeral)."""
    max_active_queries: Optional[int] = None
    max_deployment_latency_ms: Optional[float] = None
    """QoS threshold: deferring admissions above this deployment
    latency (None disables the check)."""
    subscriber_buffer: int = DEFAULT_BUFFER_OUTPUTS
    result_frame_outputs: int = 512
    """Max outputs per streamed ``result`` frame."""
    ingest_credits: int = DEFAULT_INGEST_CREDITS
    clock: str = "wall"
    """``wall`` stamps control requests with server uptime;``manual``
    advances only on client-supplied ``at_ms``/watermarks, keeping runs
    deterministic for equivalence testing."""
    heartbeat_interval_s: Optional[float] = None
    """Process-backend worker liveness probe cadence (None disables the
    pool monitor; deaths then surface on the next data-path send)."""
    ack_deadline_s: Optional[float] = None
    """Process-backend wedge detector: a worker with outstanding frames
    and no ack progress for this long is killed and reported."""
    codecs: Tuple[str, ...] = SUPPORTED_CODECS
    """Wire codecs this server negotiates, in preference-filter order;
    ``("json",)`` pins every session to JSON (the old-server shape the
    client fallback tests simulate)."""
    slo_target_ms: Optional[float] = None
    """Default wire-to-delivery latency SLO for every created query
    (``create_query`` frames override per query with ``slo_ms``).
    None tracks latency without a target (burn rates read 0)."""
    flight_dir: Optional[str] = None
    """Directory for flight-recorder dumps written when the gate
    performs a recovery (``ASTREAM_FLIGHT_DIR`` is the env fallback;
    both unset disables the recorder)."""

    def __post_init__(self) -> None:
        if self.backend not in ("inline", "process"):
            raise ValueError(f"unknown backend {self.backend!r}")
        for codec in self.codecs:
            if codec not in SUPPORTED_CODECS:
                raise ValueError(f"unknown codec {codec!r}")
        if "json" not in self.codecs:
            raise ValueError("the json codec cannot be disabled")
        if self.clock not in ("wall", "manual"):
            raise ValueError(f"unknown clock mode {self.clock!r}")
        if self.flight_dir is None:
            self.flight_dir = os.environ.get("ASTREAM_FLIGHT_DIR") or None


def build_engine(
    config: ServeConfig, qos: Optional[QoSMonitor] = None
) -> AStreamEngine:
    """Construct the hosted engine for a serve config."""
    engine_config = EngineConfig(
        streams=config.streams,
        max_join_arity=config.max_join_arity,
        parallelism=1,
        changelog_batch_size=config.changelog_batch_size,
        changelog_timeout_ms=config.changelog_timeout_ms,
        retain_results=True,
        log_inputs=config.log_inputs,
        observe=config.observe,
    )
    if config.backend == "process":
        # Delivery sampling stays off: QoS latency over IPC would tax
        # the very throughput the server exists to provide; the poll
        # flusher reads merged channels instead.
        return ProcessAStreamEngine(
            engine_config,
            cluster=SimulatedCluster(ClusterSpec(nodes=1)),
            workers=config.workers,
            deliver_sample_every=0,
            heartbeat_interval_s=config.heartbeat_interval_s,
            ack_deadline_s=config.ack_deadline_s,
        )
    return AStreamEngine(
        engine_config,
        cluster=SimulatedCluster(ClusterSpec(nodes=1)),
        on_deliver=qos.on_deliver if qos is not None else None,
    )


class ServerCore:
    """The server half of the frame protocol, with no I/O in it: frames
    and timer events in, ordered per-connection effects out."""

    def __init__(
        self,
        config: Optional[ServeConfig] = None,
        engine: Optional[AStreamEngine] = None,
    ) -> None:
        self.config = config or ServeConfig()
        self.registry = MetricsRegistry()
        self.qos = QoSMonitor(
            now_fn=self.now_ms,
            thresholds=QoSThresholds(
                max_deployment_latency_ms=(
                    self.config.max_deployment_latency_ms
                ),
                max_slo_burn_rate=SLO_BURN_PRESSURE,
            ),
        )
        self.wire_traces = WireTraceBook()
        self.slo = SLOTracker()
        self._pressured: set = set()
        """Queries currently under SLO-burn subscription pressure."""
        self.engine = engine if engine is not None else build_engine(
            self.config, qos=self.qos
        )
        self.pool: Optional[ProcessAStreamEngine] = (
            self.engine
            if isinstance(self.engine, ProcessAStreamEngine)
            else None
        )
        """The engine again when it is the process-sharded backend (the
        one place the core tells the backends apart), else None."""
        self.gate = EngineGate(self.engine, on_recovery=self._on_recovery)
        self.admission = AdmissionController(
            self.engine,
            self.qos,
            AdmissionPolicy(
                max_active_queries=self.config.max_active_queries,
                defer_on_qos_violation=(
                    self.config.max_deployment_latency_ms is not None
                ),
            ),
        )
        self.dead_letters: Deque[Tuple[str, list]] = deque(
            maxlen=DEAD_LETTER_LIMIT
        )
        self._dead_lettered_total = 0
        self.sessions = SessionRegistry()
        self.hub = SubscriptionHub(
            self.engine,
            tap_mode=self.pool is None,
            buffer_capacity=self.config.subscriber_buffer,
        )
        self._sessions_by_conn: Dict[Conn, SessionState] = {}
        """Connections past the handshake → their session."""
        self._conn_of: Dict[str, Conn] = {}
        """client_id → the connection its pushed frames go to (the
        newest one the client opened)."""
        self._awaiting_flush: Dict[str, List[SessionState]] = {}
        """query_id → sessions waiting for the changelog that makes their
        request effective (a deferred create, say)."""
        self._out: List[Effect] = []
        """Effects built by the input being handled, in order."""
        self._congested: Collection[Conn] = ()
        """Connections the last tick found congested: skipped by every
        flush that is not forced, until a tick finds them clear."""
        self._handlers: Dict[str, Callable[[Conn, Frame], Any]] = {
            "hello": self._hello,
            "ping": self._ping,
            "push": self._push,
            "watermark": self._watermark,
            "create_query": self._create,
            "delete_query": self._delete,
            "subscribe": self._subscribe,
            "unsubscribe": self._unsubscribe,
            "fetch_results": self._fetch_results,
            "stats": self._stats,
            "obs_snapshot": self._obs_snapshot,
            "chaos": self._chaos,
            "drain": self._drain,
            "shutdown": self._shutdown,
        }
        """Every frame kind the server accepts → its handler: the reply
        frame (or a deferred one), or None for no reply."""
        self._started_monotonic = time.monotonic()
        self._manual_now_ms = 0
        self._last_sequence = 0
        self._last_changelog_ms = 0
        self._shutdown_checkpoint: Optional[int] = None

    # -- clock -------------------------------------------------------------

    def now_ms(self) -> int:
        """The server's control-plane clock (see ``ServeConfig.clock``)."""
        if self.config.clock == "manual":
            return self._manual_now_ms
        return int((time.monotonic() - self._started_monotonic) * 1_000)

    def _observe_time(self, at_ms: Optional[int]) -> int:
        """Fold a client-supplied timestamp into the clock; return now."""
        if at_ms is not None:
            self._manual_now_ms = max(self._manual_now_ms, int(at_ms))
            return int(at_ms)
        return self.now_ms()

    def _control_time(self, frame: Frame) -> int:
        """The event time of a ``create_query``/``delete_query`` frame.

        Epochs only move forward: a changelog stamped behind one already
        applied is refused by the operators' epoch timelines — after its
        marker has reached some of them.  Such a frame is rejected here,
        before the request reaches the session, so the connection and
        the engine stay usable.
        """
        at_ms = frame.get("at_ms")
        if at_ms is not None and int(at_ms) < self._last_changelog_ms:
            raise ProtocolError(
                "bad_time",
                f"at_ms {at_ms} lies before the last applied changelog "
                f"at {self._last_changelog_ms}",
            )
        return self._observe_time(at_ms)

    # -- inputs ------------------------------------------------------------

    def receive(
        self, conn: Conn, frame: Union[Frame, ProtocolError]
    ) -> List[Effect]:
        """One frame from ``conn`` (or the :class:`ProtocolError` that
        reading it raised) → the effects it causes, reply last.

        A bad frame is answered with an ``error`` and the session kept;
        before the handshake completes, any failure also closes the
        connection.
        """
        session = self._sessions_by_conn.get(conn)
        seq = None
        try:
            if isinstance(frame, ProtocolError):
                raise frame
            kind = frame["t"]
            if session is None and kind != "hello":
                raise ProtocolError(
                    "handshake_required", "first frame must be hello"
                )
            seq = frame.get("seq")
            if session is not None:
                session.frames_in += 1
                self.registry.counter("serve_frames_in").inc()
            handler = self._handlers.get(kind)
            if handler is None or (kind == "hello" and session is not None):
                raise ProtocolError(
                    "unexpected_frame",
                    f"server does not accept {kind!r} frames",
                )
            reply = session.replay(seq) if kind in _SEQUENCED else None
            if reply is not None:
                self.registry.counter("serve_idempotent_replays").inc()
            else:
                reply = handler(conn, frame)
                if kind in _SEQUENCED:
                    session.remember(seq, reply)
                    self.registry.counter("serve_frames_out").inc()
        except ProtocolError as error:
            if session is not None:
                self.registry.counter("serve_protocol_errors").inc()
            reply = error_frame(error.code, error.message, seq=seq)
        effects = self._take_out()
        if reply is not None:
            effects.append((conn, reply))
        if conn not in self._sessions_by_conn:  # a refused handshake
            effects.append((conn, CLOSE))
        return effects

    def disconnect(self, conn: Conn) -> None:
        """``conn`` is gone; its session (and its subscriptions' buffered
        results) stays for the client's reconnect."""
        session = self._sessions_by_conn.pop(conn, None)
        if session is None or self._conn_of.get(session.client_id) != conn:
            return  # refused, or superseded by the client's newer connection
        del self._conn_of[session.client_id]
        self.sessions.detach(session)

    def tick(self, now: int, congested: Collection[Conn] = ()) -> List[Effect]:
        """The timer: session timeout flushes, deferred admissions and
        their ``query_event`` announcements, supervision duties, then one
        ``result`` frame per subscription — skipping the ``congested``
        connections (and so does every push's and watermark's flush until
        the next tick), whose results keep buffering (and eventually
        shedding) in the hub instead of in kernel memory."""
        self._congested = congested
        try:
            changelog = self.gate.call(self.engine.tick, now)
            if changelog is not None:
                self._applied([changelog])
            if self.admission.deferred_count:
                with self.gate.locked():
                    if self.admission.retry_deferred(now):
                        self._applied(self.engine.flush_session(now))
            self._supervision_tick()
            with self.gate.locked():
                self.hub.poll()
            self._flush(force=False)
        except ShardWorkerError:
            logger.warning("tick hit a dead worker; next op recovers",
                           exc_info=True)
        return self._take_out()

    def stop(self, drain: bool) -> List[Effect]:
        """Shutdown's last words: with ``drain``, settle in-flight work,
        take a final checkpoint (with ``log_inputs``) so a restarted
        server could recover the query population, and flush every
        subscription."""
        if drain:
            try:
                self._drain_engine(checkpoint=self.config.log_inputs)
                self._flush(force=True)
            except ShardWorkerError:
                logger.warning("drain failed during shutdown", exc_info=True)
        return self._take_out()

    def shutdown(self) -> None:
        """Release the engine (worker processes included) — after
        :meth:`stop`'s frames are out, so clients do not wait on a pool
        teardown for their last results."""
        self.engine.shutdown()
        logger.info("server stopped (final checkpoint: %s)",
                    self._shutdown_checkpoint)

    def _take_out(self) -> List[Effect]:
        effects, self._out = self._out, []
        return effects

    def _push_to(self, session: SessionState, item: Any) -> None:
        """Queue a pushed (unrequested) frame for the session's live
        connection; dropped while the client is away."""
        conn = self._conn_of.get(session.client_id)
        if conn is not None:
            self._out.append((conn, item))
            self.registry.counter("serve_frames_out").inc()

    # -- engine upkeep -----------------------------------------------------

    def _drain_engine(self, checkpoint: bool) -> None:
        self.gate.call(self.engine.drain)
        self.hub.poll()
        if checkpoint and self.config.log_inputs:
            # Recovery only ever restores the latest checkpoint: keep it
            # and the log suffix after it, nothing older.  One atomic
            # section, so no other thread sees the log half compacted.
            with self.gate.locked():
                self._shutdown_checkpoint = self.gate.call(
                    self.engine.checkpoint
                )
                self.gate.call(self.engine.compact_input_log)

    def _on_recovery(self, info) -> None:
        # Replay may have applied changelogs past what this core saw.
        self._last_sequence = max(
            self._last_sequence, self.engine.session._next_sequence - 1
        )
        self.registry.counter("serve_recoveries").inc()
        logger.info(
            "supervised recovery: checkpoint %s, replayed %d",
            info.checkpoint_id,
            info.replayed_elements,
        )
        if self.config.flight_dir:
            # Post-incident forensics must never turn a successful
            # recovery into a failure — best-effort only.
            try:
                self._dump_flight_record(info)
            except Exception:
                logger.warning("flight-recorder dump failed", exc_info=True)

    def _dump_flight_record(self, info) -> None:
        """Write the pre-incident picture next to a completed recovery."""
        incident = len(self.gate.recoveries)
        snapshot: Optional[Dict[str, Any]] = None
        events_jsonl = ""
        if self.engine.obs is not None:
            try:
                snapshot = self.engine.obs_snapshot()
            except ShardWorkerError:
                snapshot = None
            events_jsonl = "\n".join(
                json.dumps(event, sort_keys=True, default=str)
                for event in self.engine.obs.events.tail(256)
            )
        paths = write_flight_record(
            self.config.flight_dir,
            f"recovery_{incident}",
            info={
                "incident": incident,
                "checkpoint_id": info.checkpoint_id,
                "replayed_elements": info.replayed_elements,
                "now_ms": self.now_ms(),
                "slo": self.slo.summary(),
            },
            snapshot=snapshot,
            wire_traces={
                "summary": self.wire_traces.snapshot(),
                "tail": self.wire_traces.tail(),
            },
            events_jsonl=events_jsonl,
        )
        logger.info("flight record written: %s", sorted(paths.values()))

    def _supervision_tick(self) -> None:
        """Per-tick supervision duties (process backend only): drain
        liveness-detected worker deaths into a gate-bookkept recovery,
        and retry dead-lettered pushes."""
        pool = self.pool
        if pool is None:
            return
        with self.gate.locked():
            failures = pool.poll_worker_failures()
            if failures:
                self.registry.counter("serve_worker_failures").inc(
                    len(failures)
                )
                if pool.alive_workers < pool.workers:
                    # Proactive recovery: the idle death was found by the
                    # heartbeat probe, not by a failed send — recover now
                    # so detection latency bounds repair latency.
                    first = failures[0]
                    try:
                        self.gate._recover(
                            ShardWorkerError(
                                first.shard, f"liveness probe: {first.reason}"
                            )
                        )
                    except ShardWorkerError:
                        logger.warning(
                            "proactive recovery failed", exc_info=True
                        )
            if self.dead_letters:
                self._retry_dead_letters()

    def _retry_dead_letters(self) -> None:
        """Re-ingest parked pushes FIFO; stop at the first failure."""
        while self.dead_letters:
            stream, events = self.dead_letters[0]
            # Binary pushes park as columnar RecordBatches, JSON pushes
            # as (timestamp, value) pairs — re-ingest each through the
            # seam it arrived on.
            ingest = (
                self.engine.push_batch
                if isinstance(events, RecordBatch)
                else self.engine.push_many
            )
            try:
                self.gate.call(ingest, stream, events)
            except ShardWorkerError:
                return
            self.dead_letters.popleft()
            self.registry.counter("serve_dead_letters_replayed").inc(
                len(events)
            )

    def _applied(self, changelogs: List[Changelog]) -> None:
        """Track changelogs that took effect and resolve their waiters
        with a ``query_event`` carrying the changelog sequence."""
        for changelog in changelogs:
            sequence = changelog.sequence
            self._last_sequence = max(self._last_sequence, sequence)
            self._last_changelog_ms = max(
                self._last_changelog_ms, changelog.timestamp_ms
            )
            for activation in changelog.created:
                self._announce(activation.query.query_id, "live", sequence)
            for deactivation in changelog.deleted:
                self._announce(deactivation.query_id, "stopped", sequence)

    def _announce(
        self, query_id: str, event: str, sequence: Optional[int]
    ) -> None:
        """Tell every session waiting on ``query_id`` that it went
        ``event`` (``live``/``stopped``), at ``sequence`` if a changelog
        applied it."""
        for session in self._awaiting_flush.pop(query_id, ()):
            session.owned_queries[query_id] = event
            frame = {"t": "query_event", "event": event, "query_id": query_id}
            if sequence is not None:
                frame["sequence"] = sequence
            self._push_to(session, frame)

    # -- handshake and liveness ----------------------------------------------

    def _hello(self, conn: Conn, frame: Frame) -> Frame:
        expected = self.config.auth_token
        if expected is not None:
            supplied = frame.get("token") or ""
            if not hmac.compare_digest(str(supplied), expected):
                self.registry.counter("serve_auth_failures").inc()
                raise ProtocolError("auth_failed", "invalid auth token")
        client_id = str(frame["client_id"]) or f"anon-{uuid.uuid4().hex[:8]}"
        session = self.sessions.attach(
            client_id, credits=self.config.ingest_credits
        )
        session.codec = negotiate_codec(
            frame.get("codecs"), self.config.codecs
        )
        self._sessions_by_conn[conn] = session
        self._conn_of[client_id] = conn
        return {
            "t": "hello_ack",
            "session_id": session.session_id,
            "credits": session.credits,
            "codec": session.codec,
            "server": {
                "protocol": PROTOCOL_VERSION,
                "backend": self.config.backend,
                "streams": list(self.config.streams),
                "max_join_arity": self.config.max_join_arity,
                "workers": self.pool.workers if self.pool is not None else 1,
            },
        }

    def _ping(self, conn: Conn, frame: Frame) -> Frame:
        return {"t": "pong"}

    # -- control plane -----------------------------------------------------

    def _parse_query_payload(self, frame: Frame):
        if "query" in frame:
            try:
                return query_from_dict(frame["query"])
            except (SerdeError, KeyError, TypeError, ValueError) as error:
                raise ProtocolError(
                    "bad_query", f"undecodable query document: {error}"
                ) from None
        if "sql" in frame:
            try:
                return parse_query(frame["sql"])
            except SqlError as error:
                raise ProtocolError("bad_sql", str(error)) from None
        raise ProtocolError(
            "missing_field", "create_query needs a query document or sql text"
        )

    def _create(self, conn: Conn, frame: Frame) -> Frame:
        session = self._sessions_by_conn[conn]
        query = self._parse_query_payload(frame)
        query_id = query.query_id
        slo_ms = frame.get("slo_ms", self.config.slo_target_ms)
        if slo_ms is not None:
            try:
                slo_ms = float(slo_ms)
                if slo_ms <= 0:
                    raise ValueError
            except (TypeError, ValueError):
                raise ProtocolError(
                    "bad_slo", f"slo_ms must be a positive number, "
                    f"got {frame.get('slo_ms')!r}"
                ) from None
        now = self._control_time(frame)
        with self.gate.locked():
            try:
                decision = self.admission.submit(query, now)
            except ShardWorkerError as error:
                # The submit reached the session before the dead worker
                # surfaced; recovery + flush makes it effective exactly
                # once (the marker is in the replayed input log).
                self.gate._recover(error)
                decision = AdmissionDecision.ADMIT
            except ValueError as error:
                raise ProtocolError("bad_query", str(error)) from None
            flushed: List[Changelog] = []
            if decision is AdmissionDecision.ADMIT:
                flushed = self.gate.call(self.engine.flush_session, now)
        self._applied(flushed)
        reply: Frame = {
            "t": "ack",
            "seq": frame["seq"],
            "status": decision.value,
            "query_id": query_id,
        }
        if decision is not AdmissionDecision.REJECT:
            self.slo.declare(query_id, slo_ms, tenant=session.client_id)
            if slo_ms is not None:
                reply["slo_ms"] = slo_ms
        if decision is AdmissionDecision.ADMIT:
            self.registry.counter("serve_queries_created").inc()
            sequence = _sequence_of(flushed, query_id, "created")
            if sequence is None and query_id in self.engine.session.registry:
                # A supervised recovery replayed the changelog marker
                # before the explicit flush ran; the query is live but
                # its activation rode the replay, not this flush.
                sequence = self._last_sequence
            if sequence is not None:
                session.owned_queries[query_id] = "live"
                reply["sequence"] = sequence
            else:
                session.owned_queries[query_id] = "pending"
                self._awaiting_flush.setdefault(query_id, []).append(session)
        elif decision is AdmissionDecision.DEFER:
            self.registry.counter("serve_admission_deferred").inc()
            session.owned_queries[query_id] = "pending"
            self._awaiting_flush.setdefault(query_id, []).append(session)
        else:
            self.registry.counter("serve_admission_rejected").inc()
        return reply

    def _delete(self, conn: Conn, frame: Frame) -> Frame:
        session = self._sessions_by_conn[conn]
        query_id = str(frame["query_id"])
        now = self._control_time(frame)
        flushed: List[Changelog] = []
        with self.gate.locked():
            parked = any(
                request.query.query_id == query_id
                for request in self.admission.deferred
            )
            if not parked and query_id not in self.engine.session.registry:
                raise ProtocolError(
                    "unknown_query", f"no live query {query_id!r}"
                )
            try:
                self.admission.stop(query_id, now)
            except ShardWorkerError as error:
                self.gate._recover(error)
            if not parked:
                flushed = self.gate.call(self.engine.flush_session, now)
        self._applied(flushed)
        self.registry.counter("serve_queries_deleted").inc()
        self.slo.forget(query_id)
        self.qos.forget(query_id)
        if query_id in self._pressured:
            self._pressured.discard(query_id)
            self.hub.set_pressure(query_id, False)
        reply: Frame = {
            "t": "ack",
            "seq": frame["seq"],
            "status": "ok",
            "query_id": query_id,
        }
        if parked:
            # Never admitted: no changelog applied the create or this
            # delete, so neither its waiter nor this ack gets a sequence.
            self._announce(query_id, "stopped", None)
            session.owned_queries[query_id] = "stopped"
            return reply
        sequence = _sequence_of(flushed, query_id, "deleted")
        if sequence is None and query_id not in self.engine.session.registry:
            sequence = self._last_sequence
        if sequence is not None:
            session.owned_queries[query_id] = "stopped"
            reply["sequence"] = sequence
        else:
            self._awaiting_flush.setdefault(query_id, []).append(session)
        return reply

    # -- data plane --------------------------------------------------------

    def _push(
        self, conn: Conn, frame: Frame
    ) -> Union[Frame, Callable[[], Frame]]:
        """Ingest one micro-batch → its ``push_ack``.  A traced push
        force-flushes the subscriptions and returns the ack *deferred*:
        the transport puts those results on the wire first, so the
        closing ``subscription`` stamp comes after delivery."""
        session = self._sessions_by_conn[conn]
        if session.credits <= 0:
            raise ProtocolError(
                "no_credits",
                "push received with zero ingest credits; await push_ack",
            )
        stream = frame["stream"]
        if stream not in self.config.streams:
            raise ProtocolError("unknown_stream", f"unknown stream {stream!r}")
        trace = _trace_of(frame)
        t_client = time.monotonic_ns() if trace is not None else 0
        # Binary push frames arrive as columnar RecordBatches (columns
        # aliasing the frame buffer, rows unbuilt); JSON frames still
        # need the row codec and the pair-to-record rebuild in
        # push_many.
        if frame.get("_decoded"):
            events = frame["batch"]
            ingest = self.engine.push_batch
        else:
            events = decode_events(frame["events"])
            ingest = self.engine.push_many
        dead_lettered = 0
        t_server = time.monotonic_ns() if trace is not None else 0
        try:
            if not events:
                accepted = 0
            elif trace is not None and not frame.get("_decoded"):
                # JSON path: thread the context through push_many's
                # trace seam (the binary decoder already stamped the
                # batch itself).
                accepted = self.gate.call(ingest, stream, events, trace)
            else:
                accepted = self.gate.call(ingest, stream, events)
        except ShardWorkerError:
            # Recovery + retry both failed inside the gate: park the
            # batch instead of dropping it or killing the session.  The
            # tick re-ingests FIFO once the engine is healthy.
            self.dead_letters.append((stream, events))
            self._dead_lettered_total += len(events)
            self.registry.counter("serve_dead_lettered").inc(len(events))
            accepted = 0
            dead_lettered = len(events)
        t_shard = time.monotonic_ns() if trace is not None else 0
        session.tuples_in += accepted
        self.registry.counter("serve_push_frames").inc()
        self.registry.counter("serve_tuples_ingested").inc(accepted)
        ack: Frame = {"t": "push_ack", "credits": session.credits,
                      "accepted": accepted}
        if dead_lettered:
            ack["dead_lettered"] = dead_lettered
        if trace is None:
            self._flush_applied()
            return ack
        # Close the wire span at delivery: poll the merged channels
        # (poll backend) and force-flush subscriptions.  gate.call, not
        # gate.locked(): the traced push may have landed on a live shard
        # while another shard sits dead, so the cross-shard poll needs
        # the gate's recovery supervision.
        self.gate.call(self.hub.poll)
        delivered = self._flush(force=True)

        def close_trace() -> Frame:
            record = self.wire_traces.close(
                trace[0],
                (
                    ("ingest", trace[1]),
                    ("client", t_client),
                    ("server", t_server),
                    ("shard", t_shard),
                    ("subscription", time.monotonic_ns()),
                ),
                queries=sorted(delivered),
            )
            self._account_wire_trace(trace, record, delivered)
            ack["trace"] = {
                "id": trace[0],
                "e2e_ns": record["e2e_ns"],
                "spans": [[stage, span] for stage, span in record["spans"]],
                "queries": record["queries"],
            }
            return ack

        return close_trace

    def _account_wire_trace(
        self,
        trace: Tuple[int, int],
        record: Dict[str, Any],
        delivered: Dict[str, int],
    ) -> None:
        """Fold one closed wire trace into the SLO/QoS/metrics surfaces."""
        registry = self.registry
        registry.counter("serve_traced_pushes").inc()
        e2e_ms = record["e2e_ns"] / 1e6
        registry.histogram("serve_wire_e2e_ms").record(e2e_ms)
        for stage, span_ns in record["spans"]:
            registry.counter("serve_trace_stage_ns", stage=stage).inc(
                max(0, span_ns)
            )
        if self.pool is not None:
            detail = [
                span
                for span in self.pool.take_wire_spans()
                if span.get("id") == trace[0]
            ]
            if detail:
                self.wire_traces.attach_detail(trace[0], detail)
        for query_id in delivered:
            tenant = self.slo.tenant(query_id)
            self.slo.observe(query_id, e2e_ms)
            registry.histogram("query_latency_ms", query=query_id).record(
                e2e_ms
            )
            if tenant is not None:
                registry.histogram(
                    "tenant_latency_ms", tenant=tenant
                ).record(e2e_ms)
            self.qos.observe_burn(query_id, self.slo.burn_rate(query_id))
        if delivered:
            self._apply_slo_pressure()

    def _apply_slo_pressure(self) -> None:
        """Reconcile subscription pressure with the burning-query set."""
        burning = set(self.slo.burning_queries(SLO_BURN_PRESSURE))
        for query_id in burning - self._pressured:
            self.hub.set_pressure(query_id, True)
            self.registry.counter("serve_slo_pressure_applied").inc()
        for query_id in self._pressured - burning:
            self.hub.set_pressure(query_id, False)
        self._pressured = burning

    def _watermark(self, conn: Conn, frame: Frame) -> None:
        timestamp = int(frame["timestamp"])
        self._observe_time(timestamp)
        stream = frame.get("stream")
        if stream is not None and stream not in self.config.streams:
            raise ProtocolError("unknown_stream", f"unknown stream {stream!r}")
        try:
            self.gate.call(self.engine.watermark, timestamp, stream)
        except KeyError as error:
            raise ProtocolError("unknown_stream", str(error)) from None
        self._flush_applied()

    # -- results -----------------------------------------------------------

    def _subscribe(self, conn: Conn, frame: Frame) -> Frame:
        session = self._sessions_by_conn[conn]
        query_id = str(frame["query_id"])
        from_start = bool(frame.get("from_start", True))
        with self.gate.locked():
            subscription = self.hub.subscribe(session, query_id, from_start)
        return {
            "t": "ack",
            "seq": frame["seq"],
            "status": "ok",
            "query_id": query_id,
            "backlog": subscription.pending,
        }

    def _unsubscribe(self, conn: Conn, frame: Frame) -> Frame:
        session = self._sessions_by_conn[conn]
        query_id = str(frame["query_id"])
        existed = self.hub.unsubscribe(session, query_id)
        return {
            "t": "ack",
            "seq": frame["seq"],
            "status": "ok" if existed else "not_subscribed",
            "query_id": query_id,
        }

    def _fetch_results(self, conn: Conn, frame: Frame) -> Frame:
        """What the query's channel retains, in canonical order, and its
        ``base``: how many earlier results a subscription trim dropped."""
        query_id = str(frame["query_id"])
        with self.gate.locked():
            outputs = self.gate.call(self.engine.canonical_results, query_id)
            base = self.engine.channels.base(query_id)
        return {
            "t": "results",
            "seq": frame["seq"],
            "query_id": query_id,
            "outputs": [output_to_dict(output) for output in outputs],
            "base": base,
        }

    def _flush_applied(self) -> None:
        """An applied push or watermark sends the results it made at
        once, so the tick is only their upper bound, not their pace."""
        self._flush(force=False)

    def _flush(self, force: bool) -> Dict[str, int]:
        """Queue pending subscription results as ``result`` frames for
        connected subscribers: one frame per subscription, leftovers held
        and the connections the last tick found congested skipped; or
        (``force``) everything pending, congested connections included.

        Only the hub's due subscriptions are visited: those whose channel
        received results since the last flush, and those held back by
        the frame limit, congestion or an absent connection.  Each
        visited query's channel is then trimmed behind its slowest
        cursor.

        Returns per-query delivered-output counts — the traced-push path
        closes its wire span against exactly the queries whose results
        went out before the closing stamp.
        """
        limit = self.config.result_frame_outputs
        delivered: Dict[str, int] = Counter()
        hub = self.hub
        out = self._out
        frames = streamed = shed = 0
        due = hub.due()
        for subscription in due:
            session = subscription.session
            query_id = subscription.query_id
            if session.subscriptions.get(query_id) is not subscription:
                continue  # unsubscribed since it became due
            conn = self._conn_of.get(session.client_id)
            if conn is None or (not force and conn in self._congested):
                hub.hold(subscription)
                continue
            pending = subscription.pending
            while pending:
                batch, dropped = subscription.take(limit)
                out.append((conn, _result_frame(session, query_id, batch, dropped)))
                frames += 1
                shed += dropped
                if batch:
                    streamed += len(batch)
                    delivered[query_id] += len(batch)
                    pending -= len(batch)
                if not force:
                    # One frame per subscription per flush keeps it short.
                    if pending:
                        hub.hold(subscription)
                    break
        if frames:
            self.registry.counter("serve_frames_out").inc(frames)
            self.registry.counter("serve_results_streamed").inc(streamed)
        if shed:
            self.registry.counter("serve_results_shed").inc(shed)
        for query_id in {subscription.query_id for subscription in due}:
            hub.release(query_id)
        return delivered

    # -- ops surface -------------------------------------------------------

    def _cost(self) -> Optional[Dict[str, Any]]:
        """The engine's cost attribution, or None (logged) when reading
        it fails even after the gate's recovery."""
        try:
            return self.gate.call(self.engine.cost_attribution)
        except ShardWorkerError:
            logger.warning("cost attribution unavailable", exc_info=True)
            return None

    def _stats(self, conn: Conn, frame: Frame) -> Frame:
        with self.gate.locked():
            active = self.engine.active_query_count
            counts = self.engine.result_counts()
            sharing = self.engine.sharing_summary()
            retained = self.engine.channels.retained()
        cost = self._cost()
        stats: Dict[str, Any] = {
            "backend": self.config.backend,
            "active_queries": active,
            "sharing": sharing,
            "changelog_sequence": self._last_sequence,
            "result_counts": counts,
            "retained_results": retained,
            "sessions_connected": self.sessions.connected_count,
            "subscriptions": self.hub.subscription_count,
            "results_shed": self.hub.dropped_total,
            "recoveries": len(self.gate.recoveries),
            "deferred": self.admission.deferred_count,
            "now_ms": self.now_ms(),
            "dead_letter_depth": len(self.dead_letters),
            "dead_lettered_total": self._dead_lettered_total,
            "slo": self.slo.summary(),
            "slo_pressure": sorted(self._pressured),
            "wire_latency": {
                "traced_pushes": self.wire_traces.e2e_count,
                "e2e_total_ns": self.wire_traces.e2e_total_ns,
                "breakdown": breakdown_from_snapshot(
                    self.wire_traces.snapshot()
                ),
            },
            "cost": None if cost is None else {
                "total_ns": cost["total_ns"],
                "unattributed_ns": cost["unattributed_ns"],
                "queries": cost["queries"],
                "top": cost_summary(cost),
            },
        }
        pool = self.pool
        if pool is not None:
            stats["workers"] = pool.workers
            stats["alive_workers"] = pool.alive_workers
            stats.update(pool.worker_failure_counters())
        return {
            "t": "ack", "seq": frame["seq"], "status": "ok", "stats": stats
        }

    def _obs_snapshot(self, conn: Conn, frame: Frame) -> Frame:
        if self.engine.obs is None:
            snapshot: Dict[str, Any] = {"registry": self.registry.snapshot()}
            events: List[Dict[str, Any]] = []
        else:
            snapshot = self.gate.call(self.engine.obs_snapshot)
            snapshot["registry"] = {
                **snapshot.get("registry", {}),
                **self.registry.snapshot(),
            }
            events = self.engine.obs.events.tail(64)
        snapshot["slo"] = self.slo.summary()
        snapshot["wire_trace"] = self.wire_traces.snapshot()
        snapshot["cost"] = self._cost()
        return {
            "t": "ack",
            "seq": frame["seq"],
            "status": "ok",
            "snapshot": snapshot,
            "events": events,
        }

    def _chaos(self, conn: Conn, frame: Frame) -> Frame:
        op = frame.get("op")
        if op != "kill_worker":
            raise ProtocolError("bad_chaos", f"unknown chaos op {op!r}")
        if self.pool is None:
            raise ProtocolError(
                "unsupported", "kill_worker needs the process backend"
            )
        shard = int(frame.get("shard", 0))
        with self.gate.locked():
            self.pool.kill_worker(shard)
        self.registry.counter("serve_chaos_kills").inc()
        return {
            "t": "ack", "seq": frame["seq"], "status": "ok", "shard": shard
        }

    def _drain(self, conn: Conn, frame: Frame) -> Frame:
        checkpoint = bool(frame.get("checkpoint", True))
        with self.gate.locked():
            self._drain_engine(checkpoint=checkpoint)
        self._flush(force=True)
        return {
            "t": "ack",
            "seq": frame["seq"],
            "status": "ok",
            "checkpoint": self._shutdown_checkpoint if checkpoint else None,
        }

    def _shutdown(self, conn: Conn, frame: Frame) -> Frame:
        self._out.append((None, STOP))
        return {"t": "ack", "seq": frame["seq"], "status": "ok"}

    # -- metrics -----------------------------------------------------------

    def _refresh_gauges(self) -> None:
        gauges = {
            "serve_sessions_connected": self.sessions.connected_count,
            "serve_subscriptions": self.hub.subscription_count,
            "serve_pending_outputs": self.hub.pending_outputs,
            "serve_retained_results": self.engine.channels.retained(),
            "serve_active_queries": self.engine.active_query_count,
            "serve_changelog_sequence": self._last_sequence,
            "serve_dead_letter_depth": len(self.dead_letters),
            "slo_burn_rate": self.slo.max_burn_rate(),
            "slo_pressure_active": len(self._pressured),
            "slo_violations": self.slo.violations_total,
        }
        pool = self.pool
        if pool is not None:
            gauges.update(
                serve_workers=pool.workers,
                serve_alive_workers=pool.alive_workers,
            )
        for name, value in gauges.items():
            self.registry.gauge(name, merge="max").set(value)

    def render_metrics(self) -> str:
        """The Prometheus exposition body for ``GET /metrics``."""
        self._refresh_gauges()
        snapshot = dict(self.registry.snapshot())
        if self.engine.obs is not None:
            try:
                engine_snapshot = self.gate.call(self.engine.obs_snapshot)
                snapshot = {
                    **engine_snapshot.get("registry", {}),
                    **snapshot,
                }
            except ShardWorkerError:
                logger.warning("metrics scrape skipped engine snapshot",
                               exc_info=True)
        return render_prometheus(snapshot)


def _trace_of(frame: Frame) -> Optional[Tuple[int, int]]:
    """A push frame's trace context ``(id, ingest_ns)``, if any."""
    context = frame.get("trace")
    if context is None:
        return None
    try:
        return (int(context["id"]), int(context["ingest_ns"]))
    except (KeyError, TypeError, ValueError):
        raise ProtocolError(
            "bad_trace", "trace needs integer id and ingest_ns fields"
        ) from None


def _result_frame(
    session: SessionState, query_id: str, outputs: Collection[Any], dropped: int
) -> Union[Frame, bytes]:
    """One ``result`` frame in the session's negotiated codec.

    Binary sessions get the columnar encoding when the batch fits it
    (homogeneous int64-sized values); anything else falls back to a
    JSON frame, which every client accepts regardless of codec.
    """
    if session.codec == CODEC_BINARY:
        data = encode_result_binary(query_id, outputs, dropped)
        if data is not None:
            return data
    return {
        "t": "result",
        "query_id": query_id,
        "outputs": [output_to_dict(output) for output in outputs],
        "dropped": dropped,
    }


def _sequence_of(
    changelogs: List[Changelog], query_id: str, direction: str
) -> Optional[int]:
    """The sequence of the changelog that ``created``/``deleted``
    ``query_id``, if one of ``changelogs`` did."""
    for changelog in changelogs:
        if direction == "created":
            touched = [item.query.query_id for item in changelog.created]
        else:
            touched = [item.query_id for item in changelog.deleted]
        if query_id in touched:
            return changelog.sequence
    return None
