"""Wire pacing: the server, not the socket, sets the pace of results.

* the blocking client's socket and the asyncio client's socket both
  send each frame at once (``TCP_NODELAY``): a push written behind an
  unanswered watermark does not wait out Nagle and the peer's delayed
  ACK;
* an applied push or watermark flushes the results it made in its own
  effects, ahead of the push's ``push_ack``: one ``result`` frame per
  due subscription, the rest held for later flushes, in order;
* the connections the last tick found congested are skipped by those
  flushes until a tick finds them clear.
"""

import asyncio
import socket

import pytest

from repro.serve import AsyncServeClient, ServeClient
from repro.serve.protocol import encode_frame
from tests.serve.test_server_core import (  # noqa: F401
    SQL_SELECT,
    PipeClient,
    _decode,
    _events,
    make_pipe,
)

SQL_SUM = "SELECT SUM(A.F1) FROM A RANGE 100ms WHERE A.F0 > 10 GROUP BY A.KEY"
CODECS = ["json", "binary"]


def _nodelay(sock):
    return sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)


def test_the_blocking_client_socket_sends_each_frame_at_once(make_server):
    handle = make_server()
    with ServeClient("127.0.0.1", handle.port, client_id="blocking") as client:
        assert _nodelay(client._sock) == 1
        client.connect()  # a redial sets it again
        assert _nodelay(client._sock) == 1


def test_the_asyncio_client_socket_sends_each_frame_at_once(make_server):
    handle = make_server()

    async def scenario():
        async with AsyncServeClient(
            "127.0.0.1", handle.port, client_id="async"
        ) as client:
            return _nodelay(client._writer.get_extra_info("socket"))

    assert asyncio.run(scenario()) == 1


def _receive(client, effects):
    """Hand ``effects`` to ``client`` as its socket would; returns the
    frame kinds in order (results land in ``client._results``)."""
    kinds = []
    for conn, item in effects:
        assert conn == client._conn
        frame = _decode(item if isinstance(item, bytes) else encode_frame(item))
        kinds.append(frame["t"])
        client._core.receive(frame)
    return kinds


def _push(pipe, client, events):
    raw = client._core.encode_push("A", events)
    return _receive(client, pipe.server.receive(client._conn, _decode(raw)))


def _watermark(pipe, client, timestamp):
    frame = {"t": "watermark", "timestamp": timestamp}
    return _receive(client, pipe.server.receive(client._conn, frame))


def _tick(pipe, client, congested=()):
    server = pipe.server
    return _receive(client, server.tick(server.now_ms(), congested))


def _stamps(client, query_id):
    return [o.timestamp for o in client._results.pop(query_id, [])]


@pytest.mark.parametrize("codec", CODECS)
def test_a_push_returns_its_results_ahead_of_its_ack(make_pipe, codec):
    pipe = make_pipe()
    client = PipeClient(pipe, codec=codec)
    query_id = client.create_query(sql=SQL_SELECT, at_ms=0).query_id
    client.subscribe(query_id)
    assert _push(pipe, client, _events(3)) == ["result", "push_ack"]
    assert _stamps(client, query_id) == [0, 1, 2]
    assert _tick(pipe, client) == []  # nothing left for the tick


@pytest.mark.parametrize("codec", CODECS)
def test_a_window_firing_watermark_returns_its_results(make_pipe, codec):
    pipe = make_pipe()
    client = PipeClient(pipe, codec=codec)
    query_id = client.create_query(sql=SQL_SUM, at_ms=0).query_id
    client.subscribe(query_id)
    assert _push(pipe, client, _events(3)) == ["push_ack"]  # window open
    assert _watermark(pipe, client, 50) == []
    assert _watermark(pipe, client, 200) == ["result"]
    outputs = client._results.pop(query_id)
    assert len(outputs) == 3  # one sum per key
    assert _tick(pipe, client) == []


@pytest.mark.parametrize("codec", CODECS)
def test_a_congested_connection_waits_for_an_uncongested_tick(
    make_pipe, codec
):
    pipe = make_pipe()
    client = PipeClient(pipe, codec=codec)
    query_id = client.create_query(sql=SQL_SELECT, at_ms=0).query_id
    client.subscribe(query_id)
    assert _tick(pipe, client, congested={client._conn}) == []
    assert _push(pipe, client, _events(3)) == ["push_ack"]
    assert _watermark(pipe, client, 50) == []
    assert _tick(pipe, client, congested={client._conn}) == []
    assert _stamps(client, query_id) == []
    assert _tick(pipe, client) == ["result"]
    assert _stamps(client, query_id) == [0, 1, 2]
    # Clear again: the next push is flushed by itself.
    assert _push(pipe, client, _events(1, start=10)) == ["result", "push_ack"]
    assert _stamps(client, query_id) == [10]


@pytest.mark.parametrize("codec", CODECS)
def test_leftovers_leave_across_later_flushes_in_order(make_pipe, codec):
    pipe = make_pipe(result_frame_outputs=2)
    client = PipeClient(pipe, codec=codec)
    query_id = client.create_query(sql=SQL_SELECT, at_ms=0).query_id
    client.subscribe(query_id)
    assert _push(pipe, client, _events(5)) == ["result", "push_ack"]
    assert _stamps(client, query_id) == [0, 1]
    assert _watermark(pipe, client, 50) == ["result"]
    assert _stamps(client, query_id) == [2, 3]
    assert _tick(pipe, client) == ["result"]
    assert _stamps(client, query_id) == [4]
    assert _tick(pipe, client) == []
