"""The load generator: one process, two connections, two threads.

The pusher is a :class:`ServeClient` on the calling thread; the
subscriber is a second connection read by one thread that stamps every
``result`` frame on receipt.  A run is: set-up (repeated, so its time
has a median), warm-up, phase S (closed-loop saturation), phase L
(open-loop, on a schedule fixed in advance), teardown.
"""

from __future__ import annotations

import queue
import socket
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from bench.reference import Reference
from bench.server import ServerError, ServerProcess
from bench.stats import Receipt
from bench.workloads import Control, Schedule, Tick
from repro.core.query import Comparison, FieldPredicate, SelectionQuery
from repro.core.router import QueryOutput
from repro.core.serde import output_from_dict
from repro.serve import ServeClient
from repro.serve.protocol import (
    CODEC_BINARY,
    CODEC_JSON,
    PROTOCOL_VERSION,
    read_frame_sock,
    write_frame_sock,
)
from repro.workloads.datagen import DataTuple

HOST = "127.0.0.1"
SETUP_SAMPLES = 7
SETUP_BUDGET_S = 3.0
"""Set-up repeats until it has seven samples or has spent this long."""
DELIVERY_TIMEOUT_S = 30.0
OVERLOAD_LAG_S = 1.0
PROBE_SAMPLES = 200
STALL_PROBE_SAMPLES = 40


class Subscriber:
    """The subscriber connection and its reader thread."""

    def __init__(self, port: int) -> None:
        self._sock = socket.create_connection((HOST, port), timeout=5.0)
        write_frame_sock(
            self._sock,
            {
                "t": "hello",
                "protocol": PROTOCOL_VERSION,
                "client_id": "bench-subscriber",
                "codecs": [CODEC_BINARY, CODEC_JSON],
            },
        )
        reply = read_frame_sock(self._sock)
        if reply.get("t") != "hello_ack":
            raise ServerError(f"subscriber handshake refused: {reply}")
        self._sock.settimeout(None)
        self.receipts: Dict[str, List[Receipt]] = {}
        self.outputs: Dict[str, List[QueryOutput]] = {}
        self.shed = 0
        self.received = 0
        self.last_result_ns = 0
        self._lock = threading.Lock()
        self._target: Optional[int] = None
        self._reached = threading.Event()
        self._reached_ns = 0
        self._acks: "queue.Queue[Dict[str, Any]]" = queue.Queue()
        self._seq = 0
        self._thread = threading.Thread(
            target=self._read_loop, name="bench-subscriber", daemon=True
        )
        self._thread.start()

    def _read_loop(self) -> None:
        try:
            while True:
                frame = read_frame_sock(self._sock)
                now = time.perf_counter_ns()
                kind = frame.get("t")
                if kind == "result":
                    self._on_result(frame, now)
                elif kind in ("ack", "error"):
                    self._acks.put(frame)
        except (ConnectionError, OSError):
            return  # closed by close() or by the server's shutdown

    def _on_result(self, frame: Dict[str, Any], now: int) -> None:
        outputs = frame["outputs"]
        if not frame.get("_decoded"):
            outputs = [output_from_dict(document) for document in outputs]
        query_id = frame["query_id"]
        self.outputs.setdefault(query_id, []).extend(outputs)
        self.receipts.setdefault(query_id, []).append((now, len(outputs)))
        with self._lock:
            self.shed += int(frame.get("dropped", 0))
            self.received += len(outputs)
            self.last_result_ns = now
            if (
                self._target is not None
                and self.received >= self._target
                and not self._reached.is_set()
            ):
                self._reached_ns = now
                self._reached.set()

    def subscribe(self, query_id: str) -> None:
        """Subscribe from the start of the query's output; waits for the ack."""
        self._seq += 1
        write_frame_sock(
            self._sock,
            {"t": "subscribe", "seq": self._seq, "query_id": query_id,
             "from_start": True},
        )
        reply = self._acks.get(timeout=DELIVERY_TIMEOUT_S)
        if reply.get("t") != "ack":
            raise ServerError(f"subscribe {query_id} failed: {reply}")

    def expect(self, total: int) -> None:
        """Arm the arrival of the ``total``-th result as the next stop."""
        with self._lock:
            self._target = total
            self._reached.clear()
            if self.received >= total:
                self._reached_ns = self.last_result_ns
                self._reached.set()

    def wait_reached(self) -> Optional[int]:
        """Receipt time of the expected result (None when it never came)."""
        if not self._reached.wait(DELIVERY_TIMEOUT_S):
            return None
        return self._reached_ns

    def close(self) -> None:
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._sock.close()
        self._thread.join(5.0)
        if self._thread.is_alive():
            raise ServerError("subscriber thread did not stop")


Block = Tuple[int, float, int]
"""``(wall ns, server CPU s, tuples sent so far)`` at a block boundary."""


@dataclass
class Measurement:
    """Raw numbers of one run (tracing off)."""

    setup_s: List[float]
    s_tuples: int
    s_wall_s: float
    s_server_cpu_s: float
    s_loadgen_cpu_s: float
    s_blocks: List[Block]
    l_due_ns: Dict[int, int]
    l_lag_max_ms: float
    overloaded: bool
    rss_peak_mib: float
    setup_deploy_ms: List[float]
    churn_deploy_ms: List[float]
    accepted: int
    pushed: int
    shed: int
    receipts: Dict[str, List[Receipt]]
    outputs: Dict[str, List[QueryOutput]]
    problems: List[str] = field(default_factory=list)
    probes: Dict[str, float] = field(default_factory=dict)


class _Session:
    """One live server with its two connections."""

    def __init__(self, schedule: Schedule) -> None:
        started = time.perf_counter()
        self.server = ServerProcess(schedule.workload.backend)
        try:
            self.pusher = ServeClient(HOST, self.server.port, client_id="bench-pusher")
            self.subscriber = Subscriber(self.server.port)
            self.deploy_ms: List[float] = []
            for query in schedule.population:
                self.control(Control("create", query.query_id, query), 0, self.deploy_ms)
        except BaseException:
            self.server.kill()
            raise
        self.setup_s = time.perf_counter() - started

    def control(self, control: Control, at_ms: int, timings_ms: List[float]) -> None:
        """One create/delete, timed from send to sequence-bearing ack."""
        started = time.perf_counter()
        if control.op == "create":
            result = self.pusher.create_query(query=control.query, at_ms=at_ms)
            expected = "admit"
        else:
            result = self.pusher.delete_query(control.query_id, at_ms=at_ms)
            expected = "ok"
        timings_ms.append((time.perf_counter() - started) * 1e3)
        if result.status != expected or result.sequence is None:
            raise ServerError(f"{control.op} {control.query_id}: {result.raw}")
        if control.op == "create":
            self.subscriber.subscribe(control.query_id)

    def close(self) -> List[str]:
        """Tear down; returns what did not stop cleanly."""
        problems: List[str] = []
        try:
            self.server.stop(self.pusher)
        except ServerError as error:
            problems.append(str(error))
        self.pusher.close()
        self.subscriber.close()
        return problems


def _closed_loop(
    session: _Session,
    ticks: List[Tick],
    deploy_ms: List[float],
    blocks: Optional[List[Block]] = None,
) -> None:
    """Push ``ticks`` as fast as the credit window allows.

    With ``blocks``, a sample is taken at the start of every
    event-second and at the end, which divides the phase into blocks.
    """
    pusher = session.pusher
    sent = 0
    for tick in ticks:
        if blocks is not None and tick.start_ms % 1_000 == 0:
            blocks.append(
                (time.perf_counter_ns(), session.server.cpu_seconds(), sent)
            )
        sent += tick.tuples
        for control in tick.controls:
            session.control(control, tick.start_ms, deploy_ms)
        for stream, events in tick.batches:
            pusher.push_nowait(stream, events)
        pusher.watermark(tick.watermark_ms)
    if blocks is not None:
        blocks.append((time.perf_counter_ns(), session.server.cpu_seconds(), sent))


def measure(
    schedule: Schedule, reference: Reference, probes: bool = False
) -> Measurement:
    """Run the schedule against a fresh server subprocess."""
    setups: List[float] = []
    problems: List[str] = []
    while True:
        session = _Session(schedule)
        setups.append(session.setup_s)
        if len(setups) >= SETUP_SAMPLES or sum(setups) >= SETUP_BUDGET_S:
            break
        problems.extend(session.close())
    try:
        return _drive(session, schedule, reference, setups, problems, probes)
    except BaseException:
        session.server.kill()
        raise


def _drive(
    session: _Session,
    schedule: Schedule,
    reference: Reference,
    setups: List[float],
    problems: List[str],
    probes: bool,
) -> Measurement:
    pusher, subscriber, server = session.pusher, session.subscriber, session.server
    churn_ms: List[float] = []
    phases: Dict[str, List[Tuple[int, Tick]]] = {"warmup": [], "S": [], "L": []}
    for index, tick in enumerate(schedule.ticks):
        phases[tick.phase].append((index, tick))

    _closed_loop(session, [tick for _, tick in phases["warmup"]], churn_ms)
    pusher.ping()  # the warm-up has been processed before the clock starts

    # Phase S: saturation, closed loop.
    subscriber.expect(sum(reference.counts_through(schedule.last_index("S")).values()))
    cpu_before = server.cpu_seconds()
    own_before = time.process_time()
    s_started = time.perf_counter_ns()
    blocks: List[Block] = []
    _closed_loop(session, [tick for _, tick in phases["S"]], churn_ms, blocks)
    accepted = pusher.flush_ingest()
    # The clock stops at the last expected result; only then the drain.
    # Sent right after the final watermark, the drain's checkpoint (1.1 s
    # on ``agg-1000q``) raced the 20 ms subscription ticker: results not
    # yet flushed waited behind it, in about half the runs.
    s_ended = subscriber.wait_reached()
    pusher.drain()
    own_cpu = time.process_time() - own_before
    server_cpu = server.cpu_seconds() - cpu_before
    if s_ended is None:
        problems.append("phase S: expected results never arrived")
        s_ended = time.perf_counter_ns()

    # Phase L: open loop; every tick is due at a time fixed before it starts.
    subscriber.expect(reference.total)
    period_ns = schedule.workload.l_tick_ms * 1_000_000
    l_started = time.perf_counter_ns() + period_ns
    due_ns: Dict[int, int] = {}
    lag_ns = lag_max_ns = 0
    for position, (index, tick) in enumerate(phases["L"]):
        due = due_ns[index] = l_started + position * period_ns
        wait = due - time.perf_counter_ns()
        if wait > 0:
            time.sleep(wait / 1e9)
        lag_ns = time.perf_counter_ns() - due
        lag_max_ns = max(lag_max_ns, lag_ns)
        for control in tick.controls:
            session.control(control, tick.start_ms, churn_ms)
        for stream, events in tick.batches:
            accepted += pusher.push(stream, events)
        pusher.watermark(tick.watermark_ms)
    if subscriber.wait_reached() is None:
        problems.append("phase L: expected results never arrived")
    pusher.drain()

    probe_values = (
        _probe(session, schedule.ticks[-1].watermark_ms) if probes else {}
    )
    rss = server.rss_peak_mib()
    problems.extend(session.close())
    return Measurement(
        setup_s=setups,
        s_tuples=schedule.tuples("S"),
        s_wall_s=(s_ended - s_started) / 1e9,
        s_server_cpu_s=server_cpu,
        s_loadgen_cpu_s=own_cpu,
        s_blocks=blocks,
        l_due_ns=due_ns,
        l_lag_max_ms=lag_max_ns / 1e6,
        overloaded=lag_ns / 1e9 > OVERLOAD_LAG_S,
        rss_peak_mib=rss,
        setup_deploy_ms=session.deploy_ms,
        churn_deploy_ms=churn_ms,
        accepted=accepted,
        pushed=sum(tick.tuples for tick in schedule.ticks),
        shed=subscriber.shed,
        receipts=subscriber.receipts,
        outputs=subscriber.outputs,
        problems=problems,
        probes=probe_values,
    )


PROBE_QUERY_ID = "bench-probe"


def _median_of(samples: List[float]) -> float:
    ordered = sorted(samples)
    return ordered[len(ordered) // 2]


def _probe(session: _Session, now_ms: int) -> Dict[str, float]:
    """Over-the-wire costs of ``serve.server``/``gate``/``subscriptions``.

    Probe tuples go to stream B.  Those stamped far behind the watermark
    match no query at all; those stamped ``now_ms`` (the schedule's last
    watermark) match only the probe selection created at that time.  No
    watermark follows, so no workload query emits for either and the
    delivered results stay comparable with the reference.
    """
    pusher, subscriber = session.pusher, session.subscriber
    value = DataTuple(key=0, fields=(0, 0, 0, 0, 0))
    late, current = [(0, value)], [(now_ms, value)]

    def timed(call, *args) -> float:
        started = time.perf_counter_ns()
        call(*args)
        return float(time.perf_counter_ns() - started)

    ping = [timed(pusher.ping) for _ in range(PROBE_SAMPLES)]
    push = [timed(pusher.push, "B", late) for _ in range(PROBE_SAMPLES)]
    stalled = []
    for _ in range(STALL_PROBE_SAMPLES):
        pusher.watermark(0)  # does not advance event time; stays un-acked
        stalled.append(timed(pusher.push, "B", late))

    probe = SelectionQuery(
        stream="B",
        predicate=FieldPredicate(0, Comparison.GE, 0),
        query_id=PROBE_QUERY_ID,
    )
    session.control(Control("create", probe.query_id, probe), now_ms, [])
    waits = []
    for _ in range(PROBE_SAMPLES):
        subscriber.expect(subscriber.received + 1)
        pusher.push("B", current)
        acked = time.perf_counter_ns()
        arrived = subscriber.wait_reached()
        if arrived is None:
            raise ServerError("probe result never arrived")
        waits.append(float(arrived - acked))
    return {
        "server.ping_rtt_us": _median_of(ping) / 1e3,
        "server.push_rtt_us": _median_of(push) / 1e3,
        "server.push_after_watermark_ms": _median_of(stalled) / 1e6,
        "subscriptions.flush_wait_ms": _median_of(waits) / 1e6,
    }
