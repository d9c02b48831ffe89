"""Server behaviour: sessions, idempotency, flow control, subscriptions.

The tentpole contract of ISSUE 5, tested over real loopback sockets:
authenticated sessions, changelog-sequence acks, idempotent
resubmission across reconnects, credit-based ingest, bounded
subscription buffers with visible shedding, admission gating, the ops
surface (stats/obs_snapshot/metrics), and graceful drain/shutdown.
"""

import asyncio
import time
import urllib.request

import pytest

from repro.core.engine import AStreamEngine, EngineConfig
from repro.serve import AsyncServeClient, ServeClient, ServeError
from repro.workloads.datagen import DataTuple
from repro.workloads.driver import RetryPolicy
from repro.workloads.querygen import QueryGenerator
from tests.obs import test_stats_surface as stats_surface

SQL_SELECT = "SELECT * FROM A WHERE A.F0 > 10"


def _tuple(key=1, f0=50):
    return DataTuple(key=key, fields=(f0, 1, 2, 3, 4))


def _client(handle, client_id="t", **kwargs):
    return ServeClient("127.0.0.1", handle.port, client_id=client_id, **kwargs)


class TestControlPlane:
    def test_create_acks_carry_increasing_changelog_sequences(
        self, make_server
    ):
        handle = make_server()
        client = _client(handle)
        sequences = []
        query_ids = []
        for index in range(5):
            result = client.create_query(sql=SQL_SELECT, at_ms=index)
            assert result.status == "admit"
            sequences.append(result.sequence)
            query_ids.append(result.query_id)
        assert sequences == sorted(sequences)
        assert len(set(sequences)) == len(sequences)
        for index, query_id in enumerate(query_ids):
            result = client.delete_query(query_id, at_ms=10 + index)
            assert result.status == "ok"
            assert result.sequence > sequences[-1]
        assert client.stats()["active_queries"] == 0
        client.close()

    def test_create_from_query_document(self, make_server):
        handle = make_server()
        client = _client(handle)
        query = QueryGenerator(streams=("A", "B"), seed=5).selection_query()
        result = client.create_query(query=query, at_ms=0)
        assert result.status == "admit"
        assert result.query_id == query.query_id
        client.close()

    def test_bad_sql_is_an_error_not_a_disconnect(self, make_server):
        handle = make_server()
        client = _client(handle)
        with pytest.raises(ServeError) as excinfo:
            client.create_query(sql="SELECT nonsense garbage", at_ms=0)
        assert excinfo.value.code == "bad_sql"
        assert client.ping()  # session survived
        client.close()

    def test_stale_at_ms_is_an_error_not_a_disconnect(self, make_server):
        """A control frame timed behind an applied changelog is refused
        before it reaches the session: error frame, same connection."""
        handle = make_server()
        client = _client(handle)
        first = client.create_query(sql=SQL_SELECT, at_ms=1_000)
        with pytest.raises(ServeError) as excinfo:
            client.create_query(sql=SQL_SELECT, at_ms=400)
        assert excinfo.value.code == "bad_time"
        with pytest.raises(ServeError) as excinfo:
            client.delete_query(first.query_id, at_ms=999)
        assert excinfo.value.code == "bad_time"
        # Connection and engine are still usable: a normal create works.
        result = client.create_query(sql=SQL_SELECT, at_ms=1_000)
        assert result.status == "admit"
        assert result.sequence > first.sequence
        assert client.reconnects == 0
        assert client.stats()["active_queries"] == 2
        client.close()

    def test_delete_unknown_query_is_an_error(self, make_server):
        handle = make_server()
        client = _client(handle)
        with pytest.raises(ServeError) as excinfo:
            client.delete_query("no-such-query", at_ms=0)
        assert excinfo.value.code == "unknown_query"
        client.close()

    def test_admission_cap_rejects(self, make_server):
        handle = make_server(max_active_queries=1)
        client = _client(handle)
        first = client.create_query(sql=SQL_SELECT, at_ms=0)
        assert first.status == "admit"
        second = client.create_query(sql=SQL_SELECT, at_ms=1)
        assert second.status == "reject"
        assert client.stats()["active_queries"] == 1
        client.close()

    def test_shedding_defers_then_query_event_announces_live(
        self, make_server
    ):
        handle = make_server()
        client = _client(handle)
        handle.run(_set_shedding(handle.server, True))
        deferred = client.create_query(sql=SQL_SELECT, at_ms=0)
        assert deferred.status == "defer"
        assert deferred.sequence is None
        handle.run(_set_shedding(handle.server, False))
        # The ticker retries deferred admissions; the query_event frame
        # arrives on this connection with the changelog sequence.
        deadline = time.monotonic() + 10
        events = []
        while time.monotonic() < deadline and not events:
            client.take_results(deferred.query_id, wait_ms=200)
            events = client.take_events()
        assert events, "query_event never arrived"
        assert events[0]["event"] == "live"
        assert events[0]["query_id"] == deferred.query_id
        assert events[0]["sequence"] >= 1
        client.close()

    def test_deleting_a_deferred_create_stops_it_without_a_sequence(
        self, make_server
    ):
        """No changelog applied either request: the creator's waiter is
        dropped with a ``stopped`` event, and neither carries a sequence."""
        handle = make_server()
        client = _client(handle)
        handle.run(_set_shedding(handle.server, True))
        deferred = client.create_query(sql=SQL_SELECT, at_ms=0)
        assert deferred.status == "defer"
        deleted = client.delete_query(deferred.query_id, at_ms=1)
        assert (deleted.status, deleted.sequence) == ("ok", None)
        assert "sequence" not in deleted.raw
        assert client.take_events() == [{
            "t": "query_event", "event": "stopped",
            "query_id": deferred.query_id,
        }]
        handle.run(_set_shedding(handle.server, False))
        client.take_results(deferred.query_id, wait_ms=200)  # a few ticks
        assert client.take_events() == []
        assert handle.run(_awaiting_flush(handle.server)) == {}
        stats = client.stats()
        assert (stats["active_queries"], stats["deferred"]) == (0, 0)
        client.close()


async def _awaiting_flush(server):
    """The server's parked request → waiters map, read loop-side."""
    return dict(server.core._awaiting_flush)


async def _set_shedding(server, on):
    """Toggle admission shedding on the server's loop."""
    if on:
        server.core.admission.enter_shedding()
    else:
        server.core.admission.shedding = False


class TestIdempotency:
    def test_duplicate_seq_replays_cached_reply(self, make_server):
        handle = make_server()
        client = _client(handle)
        result = client.create_query(sql=SQL_SELECT, at_ms=0)
        # Re-send the exact same frame (same client seq) as a retry
        # after a lost ack would: the reply must be byte-identical and
        # no second query may appear.
        from repro.serve.client import _control_frame

        frame = _control_frame(
            "create_query", client._core.seq, sql=SQL_SELECT, at_ms=0
        )
        replayed = client._request(frame)
        assert replayed["query_id"] == result.query_id
        assert replayed["sequence"] == result.sequence
        assert client.stats()["active_queries"] == 1
        client.close()

    def test_resubmission_after_reconnect_is_exactly_once(self, make_server):
        handle = make_server()
        client = _client(
            handle,
            retry=RetryPolicy(max_attempts=3, backoff_base_ms=10,
                              jitter_ms=0, ack_timeout_ms=5_000),
        )
        created = client.create_query(sql=SQL_SELECT, at_ms=0)
        # Sever the transport behind the client's back; the next request
        # must reconnect (same client_id), resubmit, and succeed without
        # duplicating anything.
        client._sock.close()
        stats = client.stats()
        assert client.reconnects >= 1
        assert stats["active_queries"] == 1
        # The session (and its idempotency cache) survived server-side.
        deleted = client.delete_query(created.query_id, at_ms=5)
        assert deleted.status == "ok"
        client.close()

    def test_subscriptions_resubscribe_after_reconnect(self, make_server):
        handle = make_server()
        client = _client(
            handle,
            retry=RetryPolicy(max_attempts=3, backoff_base_ms=10,
                              jitter_ms=0, ack_timeout_ms=5_000),
        )
        created = client.create_query(sql=SQL_SELECT, at_ms=0)
        client.subscribe(created.query_id)
        client._sock.close()
        client.ping()  # forces the reconnect + resubscribe
        client.push("A", [(1, _tuple())])
        client.watermark(10)
        outputs, shed = client.take_results(created.query_id, wait_ms=5_000)
        assert [output.timestamp for output in outputs] == [1]
        assert shed == 0
        client.close()


class TestDataPlane:
    def test_push_roundtrip_and_credits(self, make_server):
        handle = make_server(ingest_credits=7)
        client = _client(handle)
        assert client._core.credits == 7
        accepted = client.push("A", [(i, _tuple(key=i)) for i in range(10)])
        assert accepted == 10
        assert client._core.credits == 7  # request/response returns it
        client.close()

    def test_push_unknown_stream_is_an_error(self, make_server):
        handle = make_server()
        client = _client(handle)
        with pytest.raises(ServeError) as excinfo:
            client.push("NOPE", [(1, _tuple())])
        assert excinfo.value.code == "unknown_stream"
        client.close()

    def test_per_stream_watermarks(self, make_server):
        handle = make_server()
        client = _client(handle)
        created = client.create_query(sql=SQL_SELECT, at_ms=0)
        client.push("A", [(1, _tuple())])
        client.watermark(5, stream="A")
        client.watermark(5, stream="B")
        results = client.fetch_results(created.query_id)
        assert len(results) == 1
        client.close()


class TestSubscriptions:
    def test_streamed_results_match_fetched(self, make_server):
        handle = make_server()
        client = _client(handle)
        created = client.create_query(sql=SQL_SELECT, at_ms=0)
        client.subscribe(created.query_id)
        client.push("A", [(i, _tuple(key=i)) for i in range(20)])
        client.watermark(30)
        streamed, shed = client.take_results(created.query_id, wait_ms=5_000)
        fetched = client.fetch_results(created.query_id)
        assert shed == 0
        assert sorted(o.timestamp for o in streamed) == list(range(20))
        assert fetched.base + len(fetched) == 20
        assert sorted(
            (o.timestamp, repr(o.value)) for o in streamed[fetched.base:]
        ) == [(o.timestamp, repr(o.value)) for o in fetched]
        client.close()

    def test_from_start_backlog_then_live_tail(self, make_server):
        handle = make_server()
        client = _client(handle)
        created = client.create_query(sql=SQL_SELECT, at_ms=0)
        client.push("A", [(1, _tuple())])
        client.watermark(5)
        client.drain()
        client.subscribe(created.query_id, from_start=True)
        client.push("A", [(6, _tuple())])
        client.watermark(10)
        deadline = time.monotonic() + 10
        got = []
        while time.monotonic() < deadline and len(got) < 2:
            outputs, _ = client.take_results(created.query_id, wait_ms=500)
            got.extend(outputs)
        assert sorted(o.timestamp for o in got) == [1, 6]
        client.close()

    def test_slow_consumer_sheds_oldest_and_reports(self, make_server):
        handle = make_server(subscriber_buffer=8)
        client = _client(handle)
        created = client.create_query(sql=SQL_SELECT, at_ms=0)
        # Subscribe but do not read; overflow the 8-slot buffer
        # server-side before the flusher can ship anything by staying
        # inside one gate-held batch.
        handle.run(_subscribe_direct(handle.server, client, created.query_id))
        handle.run(
            _push_direct(handle.server, "A",
                         [(i, _tuple(key=i)) for i in range(50)], 60)
        )
        outputs, shed = client.take_results(created.query_id, wait_ms=10_000)
        total_seen = len(outputs)
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline and total_seen + shed < 50:
            more, more_shed = client.take_results(
                created.query_id, wait_ms=500
            )
            total_seen += len(more)
            shed += more_shed
        assert shed > 0, "expected visible shedding"
        assert total_seen + shed == 50
        assert client.stats()["results_shed"] == shed
        client.close()

    def test_unsubscribe_stops_delivery(self, make_server):
        handle = make_server()
        client = _client(handle)
        created = client.create_query(sql=SQL_SELECT, at_ms=0)
        client.subscribe(created.query_id)
        assert client.unsubscribe(created.query_id).status == "ok"
        assert client.unsubscribe(created.query_id).status == "not_subscribed"
        client.push("A", [(1, _tuple())])
        client.watermark(5)
        outputs, _ = client.take_results(created.query_id, wait_ms=300)
        assert outputs == []
        client.close()


async def _subscribe_direct(server, client, query_id):
    """Register a subscription for the client's session, loop-side."""
    session = server.core.sessions.get(client._core.client_id)
    server.core.hub.subscribe(session, query_id, from_start=True)
    client._core.subscriptions[query_id] = True


async def _push_direct(server, stream, events, watermark):
    """Push + watermark in one gate hold so the flusher can't drain."""
    with server.core.gate.locked():
        server.core.engine.push_many(stream, events)
        server.core.engine.watermark(watermark)
        server.core._observe_time(watermark)
        if not server.core.hub.tap_mode:
            server.core.hub.poll()


class TestOpsSurface:
    def test_stats_frame(self, make_server):
        handle = make_server()
        client = _client(handle)
        client.create_query(sql=SQL_SELECT, at_ms=0)
        stats = client.stats()
        assert stats["backend"] == "inline"
        assert stats["active_queries"] == 1
        assert stats["sessions_connected"] == 1
        client.close()

    @pytest.mark.parametrize("backend", ["inline", "process"])
    def test_stats_frame_reads_the_engine_stats_snapshot(
        self, make_server, backend
    ):
        # ISSUE 19: the frame's sharing block is a projection of the one
        # stats snapshot, so it equals the in-process engine's view of
        # the same input on both backends.
        reference = stats_surface.run(
            AStreamEngine(EngineConfig(streams=("A", "B"), parallelism=1))
        )
        expected = reference.sharing_summary()
        reference.shutdown()
        assert expected["A"]["cover_skips"] > 0

        handle = make_server(backend=backend, workers=2)
        client = _client(handle)
        for sql in stats_surface.SQLS:
            client.create_query(sql=sql, at_ms=0)
        by_stream = {"A": [], "B": []}
        for stream, ts, value in stats_surface.events():
            by_stream[stream].append((ts, value))
        for stream, batch in by_stream.items():
            assert client.push(stream, batch) == len(batch)
        client.watermark(stats_surface.TUPLES)
        client.drain()
        assert client.stats()["sharing"] == expected
        client.close()

    def test_obs_snapshot_over_the_wire(self, make_server):
        handle = make_server(observe=True)
        client = _client(handle)
        created = client.create_query(sql=SQL_SELECT, at_ms=0)
        client.push("A", [(1, _tuple())])
        client.watermark(5)
        snapshot = client.obs_snapshot()
        registry = snapshot["snapshot"]["registry"]
        assert any(
            entry.get("name") == "serve_frames_in"
            for entry in registry.values()
        )
        assert "trace" in snapshot["snapshot"]
        assert isinstance(snapshot["events"], list)
        assert client.fetch_results(created.query_id)
        client.close()

    def test_obs_snapshot_without_observe_still_answers(self, make_server):
        handle = make_server(observe=False)
        client = _client(handle)
        snapshot = client.obs_snapshot()
        assert "registry" in snapshot["snapshot"]
        client.close()

    def test_http_metrics_endpoint(self, make_server):
        handle = make_server(metrics_port=0)
        client = _client(handle)
        client.create_query(sql=SQL_SELECT, at_ms=0)
        port = handle.server.metrics_port
        body = urllib.request.urlopen(
            f"http://127.0.0.1:{port}/metrics", timeout=10
        ).read().decode()
        assert "serve_frames_in_total" in body
        assert "serve_active_queries" in body
        health = urllib.request.urlopen(
            f"http://127.0.0.1:{port}/healthz", timeout=10
        ).read().decode()
        assert health == "ok\n"
        with pytest.raises(urllib.error.HTTPError):
            urllib.request.urlopen(
                f"http://127.0.0.1:{port}/nope", timeout=10
            )
        client.close()

    def test_drain_checkpoints_and_shutdown_is_clean(self, make_server):
        handle = make_server()
        client = _client(handle)
        client.create_query(sql=SQL_SELECT, at_ms=0)
        client.push("A", [(1, _tuple())])
        drained = client.drain(checkpoint=True)
        assert drained.raw["checkpoint"] is not None
        result = client.shutdown()
        assert result.status == "ok"
        handle._thread.join(15)
        assert not handle._thread.is_alive()
        client.close()


class TestAsyncClient:
    def test_async_end_to_end(self, make_server):
        handle = make_server()

        async def scenario():
            async with AsyncServeClient(
                "127.0.0.1", handle.port, client_id="async"
            ) as client:
                created = await client.create_query(sql=SQL_SELECT, at_ms=0)
                assert created.status == "admit"
                assert created.sequence is not None
                await client.subscribe(created.query_id)
                await client.push(
                    "A", [(i, _tuple(key=i)) for i in range(3)]
                )
                await client.watermark(10)
                got = []
                for _ in range(3):
                    output = await client.next_result(
                        created.query_id, timeout_s=10
                    )
                    assert output is not None
                    got.append(output.timestamp)
                assert sorted(got) == [0, 1, 2]
                fetched = await client.fetch_results(created.query_id)
                assert fetched.base + len(fetched) == 3
                stats = await client.stats()
                assert stats["active_queries"] == 1
                assert await client.ping()
                deleted = await client.delete_query(
                    created.query_id, at_ms=20
                )
                assert deleted.status == "ok"

        asyncio.run(scenario())

    def test_async_reconnect_resubmits(self, make_server):
        handle = make_server()

        async def scenario():
            client = AsyncServeClient(
                "127.0.0.1", handle.port, client_id="async-r",
                retry=RetryPolicy(max_attempts=3, backoff_base_ms=10,
                                  jitter_ms=0, ack_timeout_ms=5_000),
            )
            await client.connect()
            created = await client.create_query(sql=SQL_SELECT, at_ms=0)
            client._writer.close()  # sever the transport
            stats = await client.stats()
            assert stats["active_queries"] == 1
            assert client.reconnects >= 1
            await client.delete_query(created.query_id, at_ms=5)
            await client.close()

        asyncio.run(scenario())
