"""The server core on its own: no socket, no thread, no sleep.

:class:`ServerCore` is joined to the client's :class:`_SessionCore` by an
in-memory pipe that carries encoded frames both ways through the
protocol codecs, so the wire scenarios of ``test_equivalence.py`` and
``test_client_parity.py`` run again with nothing but function calls —
and must come out byte-equal to the in-process oracle and to the socket
runs.
"""

import ast
import inspect
import logging
import textwrap
from collections import deque
from itertools import count

import pytest

from repro.minispe.parallel import ShardWorkerError
from repro.serve import ServeConfig
from repro.serve import core as core_module
from repro.serve import server as server_module
from repro.serve.client import (
    ConnectionLost,
    _checked,
    _ClientAPI,
    _SessionCore,
)
from repro.serve.core import CLOSE, STOP, ServerCore
from repro.serve.protocol import (
    BINARY_FLAG,
    FRAME_SCHEMAS,
    HEADER_BYTES,
    ProtocolError,
    decode_binary_payload,
    decode_frame,
    encode_frame,
)
from repro.workloads.datagen import DataTuple
from tests.serve import test_client_parity as parity
from tests.serve.test_equivalence import (
    EVENTS,
    SC1,
    SC2,
    STEP_MS,
    _canonical,
    _steps,
    run_in_process,
    run_over_wire,
)

SQL_SELECT = "SELECT * FROM A WHERE A.F0 > 10"


def _decode(raw):
    """One wire image back into its frame, as a socket reader would."""
    header = int.from_bytes(raw[:HEADER_BYTES], "big")
    payload = raw[HEADER_BYTES:]
    assert len(payload) == header & ~BINARY_FLAG
    if header & BINARY_FLAG:
        return decode_binary_payload(payload)
    return decode_frame(payload)


class Pipe:
    """One :class:`ServerCore` and in-memory connections to it: what the
    asyncio transport does with effects, minus the sockets."""

    def __init__(self, **overrides):
        config = ServeConfig(**{"clock": "manual", **overrides})
        self.server = ServerCore(config)
        self.inboxes = {}
        self.closed = set()
        self.stopped = False
        self._conns = count(1)

    def dial(self):
        conn = next(self._conns)
        self.inboxes[conn] = deque()
        return conn

    def hang_up(self, conn):
        if conn not in self.closed:
            self.closed.add(conn)
            self.server.disconnect(conn)

    def send(self, conn, raw):
        self.carry(self.server.receive(conn, _decode(raw)))

    def tick(self):
        self.carry(self.server.tick(self.server.now_ms()))

    def carry(self, effects):
        for conn, item in effects:
            if item is STOP:
                self.stopped = True
                continue
            if callable(item):
                item = item()
            if conn in self.closed:
                continue
            if item is CLOSE:
                self.hang_up(conn)
                continue
            raw = item if isinstance(item, bytes) else encode_frame(item)
            self.inboxes[conn].append(_decode(raw))

    def close(self):
        self.carry(self.server.stop(drain=False))
        self.server.shutdown()


class PipeClient(_ClientAPI):
    """The client SDK's request methods and session core over a pipe."""

    def __init__(self, pipe, client_id="client", token=None, retry=None,
                 codec="binary", trace_sample_every=0):
        results = {}
        self._results = results

        def sink(query_id, outputs):
            results.setdefault(query_id, []).extend(outputs)

        self._core = _SessionCore(
            client_id, token, retry, codec, trace_sample_every, sink
        )
        self._pipe = pipe
        self._conn = None
        self.connect()

    def connect(self):
        if self._conn is not None:
            self._pipe.hang_up(self._conn)
        self._conn = self._pipe.dial()
        self._pipe.send(self._conn, self._core.hello())
        for op in self._core.welcome(self._next()):
            self._call(op)

    def sever(self):
        self._pipe.hang_up(self._conn)
        self._core.abandon()

    def close(self):
        self._pipe.hang_up(self._conn)

    def _send(self, raw):
        if self._conn in self._pipe.closed:
            raise ConnectionLost("the pipe is closed")
        self._pipe.send(self._conn, raw)

    def _next(self):
        inbox = self._pipe.inboxes[self._conn]
        if inbox:
            return inbox.popleft()
        if self._conn in self._pipe.closed:
            raise ConnectionLost("the server closed the pipe")
        raise AssertionError("the server core left a request unanswered")

    def _call(self, op):
        if op.finish is None:
            return self._send(op.raw)
        return op.finish(self._request(op.frame, op.raw))

    def _request(self, frame, raw=None):
        raw = encode_frame(frame) if raw is None else raw
        seq, waiter = frame.get("seq"), object()
        for attempt in count(1):
            try:
                if attempt > 1:
                    self.connect()  # no back-off sleep: nothing to wait for
                self._core.expect(seq, waiter)
                self._send(raw)
                while True:
                    reply = self._next()
                    if self._core.receive(reply) is waiter:
                        return _checked(reply)
            except ConnectionLost as error:
                self._core.next_redial(attempt, frame, error)
            finally:
                self._core.forget(seq, waiter)

    def collect(self, query_id, count, ticks=100):
        """Tick the server until ``count`` results streamed in."""
        outputs = self._results.pop(query_id, [])
        while len(outputs) < count and ticks:
            self._pipe.tick()
            ticks -= 1
            inbox = self._pipe.inboxes[self._conn]
            while inbox:
                self._core.receive(inbox.popleft())
            outputs += self._results.pop(query_id, [])
        return outputs


@pytest.fixture
def make_pipe():
    """Factory fixture: server cores behind pipes, shut down at test end."""
    pipes = []

    def factory(**overrides):
        pipes.append(Pipe(**overrides))
        return pipes[-1]

    yield factory
    for pipe in pipes:
        pipe.close()


def _events(count_, start=0):
    return [
        (start + i, DataTuple(key=i, fields=(50, 1, 2, 3, 4)))
        for i in range(count_)
    ]


class TestCorePin:
    def test_core_names_no_socket_no_event_loop_and_never_awaits(self):
        for source in (inspect.getsource(ServerCore),
                       inspect.getsource(core_module)):
            tree = ast.parse(textwrap.dedent(source))
            names = {
                node.id for node in ast.walk(tree) if isinstance(node, ast.Name)
            }
            modules = {
                name.split(".")[0]
                for node in ast.walk(tree)
                for name in (
                    [alias.name for alias in node.names]
                    if isinstance(node, ast.Import)
                    else [node.module or ""]
                    if isinstance(node, ast.ImportFrom)
                    else []
                )
            }
            assert not (names | modules) & {"socket", "asyncio", "select"}
            assert not any(
                isinstance(node, (ast.AsyncFunctionDef, ast.Await,
                                  ast.AsyncFor, ast.AsyncWith))
                for node in ast.walk(tree)
            )

    def test_every_frame_kind_is_dispatched_from_one_table(self, make_pipe):
        accepted = set(make_pipe().server._handlers)
        sequenced = core_module._SEQUENCED
        assert len(sequenced) == 10
        assert accepted == {"hello", "ping", "push", "watermark"} | sequenced
        assert accepted <= set(FRAME_SCHEMAS)

    def test_the_transport_writes_to_a_stream_writer_in_one_function(self):
        tree = ast.parse(inspect.getsource(server_module))
        writing = {
            function.name
            for function in ast.walk(tree)
            if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef))
            and any(
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("write", "writelines")
                for node in ast.walk(function)
            )
        }
        assert writing == {"_send"}


class TestEffects:
    def test_handshake_refusals_close_and_bad_frames_do_not(self, make_pipe):
        server = make_pipe(auth_token="sesame").server
        refused = {"t": "error", "code": "handshake_required",
                   "message": "first frame must be hello"}
        assert server.receive(1, {"t": "ping"}) == [(1, refused), (1, CLOSE)]
        [(conn, reply), close] = server.receive(
            2, {"t": "hello", "client_id": "x", "token": "wrong"}
        )
        assert (conn, reply["code"], close) == (2, "auth_failed", (2, CLOSE))
        [(_, ack)] = server.receive(
            3, {"t": "hello", "client_id": "x", "token": "sesame"}
        )
        assert ack["t"] == "hello_ack"
        assert server.receive(3, ProtocolError("bad_json", "nope")) == [
            (3, {"t": "error", "code": "bad_json", "message": "nope"})
        ]
        assert server.receive(3, {"t": "watermark", "timestamp": 5}) == []
        [(_, reply)] = server.receive(3, {"t": "ack", "seq": 1, "status": "x"})
        assert reply["code"] == "unexpected_frame"

    def test_results_leave_with_push_or_watermark_drain_and_stop(
        self, make_pipe
    ):
        pipe = make_pipe(result_frame_outputs=2)
        client = PipeClient(pipe)
        query_id = client.create_query(sql=SQL_SELECT, at_ms=0).query_id
        client.subscribe(query_id, from_start=False)

        def streamed():
            return [o.timestamp for o in client._results.pop(query_id, [])]

        assert client.push("A", _events(3)) == 3
        assert streamed() == [0, 1]  # one frame, ahead of the ack
        client.watermark(10)
        assert client.ping() and streamed() == [2]  # the leftover
        traced = client._core.encode_push(
            "A", _events(3, start=10), trace=(7, 0)
        )
        ack = client._request({"t": "push"}, traced)
        assert streamed() == [10, 11, 12]  # all of it, before the ack
        assert ack["trace"]["queries"] == [query_id]
        server = pipe.server
        pipe.carry(server.tick(server.now_ms(), congested={client._conn}))
        client.push("A", _events(1, start=20))
        client.watermark(30)
        assert client.ping() and streamed() == []  # congested: held
        client.drain()
        assert streamed() == [20]
        client.push("A", _events(1, start=30))
        effects = pipe.server.stop(drain=True)
        assert [conn for conn, _ in effects] == [client._conn]

    def test_a_failing_cost_read_is_logged_and_reported_as_null(
        self, make_pipe, caplog
    ):
        pipe = make_pipe()
        client = PipeClient(pipe)

        def planted():
            raise ShardWorkerError(0, "planted cost-read failure")

        pipe.server.engine.cost_attribution = planted
        pipe.server.gate.max_recoveries = 0  # no recovery to retry behind
        with caplog.at_level(logging.WARNING, logger="repro.serve.server"):
            assert client.stats()["cost"] is None
            assert client.obs_snapshot()["snapshot"]["cost"] is None
        warnings = [
            record for record in caplog.records
            if record.getMessage() == "cost attribution unavailable"
        ]
        assert len(warnings) == 2
        assert client.ping()


# -- equivalence twins -----------------------------------------------------------


_ORACLE = {}


def _oracle(schedule):
    if id(schedule) not in _ORACLE:
        _ORACLE[id(schedule)] = run_in_process(schedule)
    return _ORACLE[id(schedule)]


def run_through_pipe(schedule, make_pipe, backend, codec):
    """``run_over_wire`` with a pipe for the socket, every query also
    subscribed: the sorted streamed results.

    Subscribed from the start with nothing shed, the stream is the
    complete result; a subscribed channel keeps only what its subscriber
    has not taken, so the fetch is the stream's tail from ``base`` on."""
    pipe = make_pipe(backend=backend, workers=2)
    client = PipeClient(pipe, client_id="equiv", codec=codec)
    assert client.codec == codec
    requests = _steps(schedule)
    query_ids = []
    for step_start, batches in EVENTS:
        for request in requests.get(step_start, ()):
            if request.kind == "create":
                result = client.create_query(
                    query=request.query, at_ms=request.at_ms
                )
                assert result.status == "admit"
                assert result.sequence is not None
                query_ids.append(request.query.query_id)
                client.subscribe(request.query.query_id)
            else:
                result = client.delete_query(
                    request.query_id, at_ms=request.at_ms
                )
                assert result.status == "ok"
        for stream, events in batches.items():
            assert client.push(stream, events) == len(events)
        client.watermark(step_start + STEP_MS)
    client.drain()
    fetches = {query_id: client.fetch_results(query_id) for query_id in query_ids}
    counts = client.stats()["result_counts"]
    collected = {
        query_id: client.collect(query_id, counts.get(query_id, 0))
        for query_id in query_ids
    }
    assert client._core.shed == {}
    for query_id, outputs in collected.items():
        fetched = fetches[query_id]
        assert fetched.base + len(fetched) == len(outputs)
        if backend == "process":
            assert fetched.base == 0  # poll mode never trims
        tail = _canonical({query_id: outputs[fetched.base:]})[query_id]
        assert sorted(tail) == _canonical({query_id: fetched})[query_id]
    streamed = {
        query_id: sorted(
            (output.timestamp, repr(output.value)) for output in outputs
        )
        for query_id, outputs in collected.items()
    }
    return streamed


class TestEquivalenceTwins:
    @pytest.mark.parametrize("codec", ["json", "binary"])
    @pytest.mark.parametrize("backend", ["inline", "process"])
    @pytest.mark.parametrize(
        "schedule", [SC1, SC2], ids=["sc1-join", "sc2-agg"]
    )
    def test_pipe_equals_oracle_and_socket(
        self, make_pipe, make_server, schedule, backend, codec
    ):
        reference = _oracle(schedule)
        assert reference and any(reference.values())
        piped = run_through_pipe(schedule, make_pipe, backend, codec)
        assert piped == reference
        over_socket, _ = run_over_wire(
            schedule, make_server, backend=backend, codec=codec
        )
        assert piped == over_socket


# -- parity twins ----------------------------------------------------------------


@pytest.fixture
def connect():
    """``test_client_parity``'s client factory, over a pipe."""

    def factory(pipe, client_id="parity", **kwargs):
        return PipeClient(pipe, client_id=client_id, **kwargs)

    return factory


@pytest.mark.parametrize("codec", ["json", "binary"])
def test_round_trip_through_the_pipe(make_pipe, connect, codec):
    parity.test_create_subscribe_push_watermark_results(
        make_pipe, connect, codec
    )


@pytest.mark.parametrize(
    "scenario",
    [
        parity.test_severed_transport_reconnects_resubscribes_and_resubmits,
        parity.test_server_error_frame_raises_and_the_session_survives,
        parity.test_refusal_during_the_redial_handshake_is_not_retried,
        parity.test_bad_token_is_refused_at_first_connect,
    ],
    ids=["sever-resubmit", "error-frame", "redial-refusal", "bad-token"],
)
def test_parity_scenario_through_the_pipe(make_pipe, connect, scenario):
    scenario(make_pipe, connect)
