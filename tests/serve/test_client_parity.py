"""One scenario, both client flavours, one live server.

:class:`ServeClient` and :class:`AsyncServeClient` are two transports
under one session core; whatever the wire does to one it must do to the
other.  Each test runs unchanged against both — the asyncio client is
driven from blocking test code on a private event loop.
"""

import asyncio
import inspect
import time

import pytest

from repro.serve import AsyncServeClient, ServeClient, ServeError
from repro.serve.client import _control_frame
from repro.workloads.datagen import DataTuple
from repro.workloads.driver import RetryPolicy

SQL_SELECT = "SELECT * FROM A WHERE A.F0 > 10"
FAST_RETRY = RetryPolicy(
    max_attempts=3, backoff_base_ms=10, jitter_ms=0, ack_timeout_ms=5_000
)


def _events(count, start=0):
    return [
        (start + i, DataTuple(key=i, fields=(50, 1, 2, 3, 4)))
        for i in range(count)
    ]


class Blocking:
    """The blocking client, plus the two things the scenarios need that
    the flavours spell differently."""

    def __init__(self, port, **kwargs):
        self.client = ServeClient("127.0.0.1", port, **kwargs)

    def __getattr__(self, name):
        return getattr(self.client, name)

    def sever(self):
        self.client._sock.close()

    def collect(self, query_id, count, timeout_s=10.0):
        outputs, deadline = [], time.monotonic() + timeout_s
        while len(outputs) < count and time.monotonic() < deadline:
            outputs += self.client.take_results(query_id, wait_ms=200)[0]
        return outputs


class Driven:
    """The asyncio client, every awaitable run to completion on a
    private loop so the same blocking scenario can drive it."""

    def __init__(self, port, **kwargs):
        self.loop = asyncio.new_event_loop()
        self.client = AsyncServeClient("127.0.0.1", port, **kwargs)
        try:
            self.loop.run_until_complete(self.client.connect())
        except BaseException:
            self.loop.close()
            raise

    def __getattr__(self, name):
        attribute = getattr(self.client, name)
        if not callable(attribute):
            return attribute

        def call(*args, **kwargs):
            result = attribute(*args, **kwargs)
            if inspect.isawaitable(result):
                return self.loop.run_until_complete(result)
            return result

        return call

    def sever(self):
        self.client._writer.close()

    def collect(self, query_id, count, timeout_s=10.0):
        outputs = []
        while len(outputs) < count:
            output = self.next_result(query_id, timeout_s=timeout_s)
            if output is None:
                break
            outputs.append(output)
        return outputs

    def close(self):
        self.loop.run_until_complete(self.client.close())
        self.loop.close()


@pytest.fixture(params=[Blocking, Driven], ids=["blocking", "asyncio"])
def connect(request):
    """Factory: a connected client of the parametrised flavour."""
    clients = []

    def factory(handle, client_id="parity", **kwargs):
        client = request.param(handle.port, client_id=client_id, **kwargs)
        clients.append(client)
        return client

    yield factory
    for client in clients:
        client.close()


@pytest.mark.parametrize("codec", ["json", "binary"])
def test_create_subscribe_push_watermark_results(make_server, connect, codec):
    handle = make_server()
    client = connect(handle, codec=codec)
    assert client.codec == codec  # "json" pins it, the default negotiates up
    assert client.server_info["backend"] == "inline"
    created = client.create_query(sql=SQL_SELECT, at_ms=0)
    assert created.status == "admit" and created.sequence is not None
    assert client.subscribe(created.query_id).status == "ok"
    assert client.push("A", _events(5)) == 5
    assert client.watermark(10) is None
    streamed = client.collect(created.query_id, 5)
    assert sorted(output.timestamp for output in streamed) == [0, 1, 2, 3, 4]
    # Subscribed from the start, so ``streamed`` is complete; the fetch
    # returns what the channel still retains, from its ``base`` on.
    fetched = client.fetch_results(created.query_id)
    assert fetched.base + len(fetched) == 5
    assert sorted(map(repr, fetched)) == sorted(
        map(repr, streamed[fetched.base:])
    )
    assert client.ping() is True
    assert client.stats()["active_queries"] == 1
    assert "snapshot" in client.obs_snapshot()
    assert client.drain().status == "ok"
    assert client.unsubscribe(created.query_id).status == "ok"
    assert client.unsubscribe(created.query_id).status == "not_subscribed"
    assert client.delete_query(created.query_id, at_ms=20).status == "ok"
    assert client.stats()["active_queries"] == 0
    assert client.reconnects == 0


def test_severed_transport_reconnects_resubscribes_and_resubmits(
    make_server, connect
):
    handle = make_server()
    client = connect(handle, retry=FAST_RETRY)
    created = client.create_query(sql=SQL_SELECT, at_ms=0)
    client.subscribe(created.query_id)

    # An ack lost with the connection: the identical frame (same client
    # seq) goes out again after the re-dial and the server answers it
    # from the idempotency cache instead of creating a second query.
    frame = _control_frame(
        "create_query", client._core.next_seq(), sql=SQL_SELECT, at_ms=1
    )
    first = client._request(frame)
    client.sever()
    replayed = client._request(frame)
    assert client.reconnects == 1
    assert replayed == first
    assert client.stats()["active_queries"] == 2

    # The subscription was re-issued on the new connection.
    assert client.push("A", _events(2)) == 2
    client.watermark(10)
    streamed = client.collect(created.query_id, 2)
    assert sorted(output.timestamp for output in streamed) == [0, 1]


def test_server_error_frame_raises_and_the_session_survives(
    make_server, connect
):
    handle = make_server()
    client = connect(handle)
    with pytest.raises(ServeError) as excinfo:
        client.delete_query("no-such-query")
    assert excinfo.value.code == "unknown_query"
    with pytest.raises(ServeError) as excinfo:
        client.push("Z", _events(1))  # an un-sequenced request's error
    assert excinfo.value.code == "unknown_stream"
    assert client.ping() is True
    assert client.reconnects == 0


def test_refusal_during_the_redial_handshake_is_not_retried(
    make_server, connect
):
    handle = make_server(auth_token="sesame")
    client = connect(handle, token="sesame", retry=FAST_RETRY)
    assert client.ping() is True
    client._core.token = "revoked"
    client.sever()
    with pytest.raises(ServeError) as excinfo:
        client.ping()
    assert excinfo.value.code == "auth_failed"
    assert client.reconnects == 1  # one re-dial, refused, no second try


def test_bad_token_is_refused_at_first_connect(make_server, connect):
    handle = make_server(auth_token="sesame")
    with pytest.raises(ServeError) as excinfo:
        connect(handle, token="wrong")
    assert excinfo.value.code == "auth_failed"
