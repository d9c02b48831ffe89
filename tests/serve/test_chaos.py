"""A SIGKILLed worker under a live server must be invisible to clients.

The serve-smoke scenario: drive SC1 through the client SDK against the
process backend, kill a shard worker mid-run with the ``chaos`` frame,
and assert the session survives, results stay byte-identical to a
fault-free in-process run, and drain/shutdown still exit cleanly.  A
kill just before a checkpointing ``drain`` is recovered by the drain
itself, and a re-sent ``drain`` frame replays its ack instead of
draining again.
"""

from repro.serve import ServeClient
from repro.serve.client import _control_frame
from repro.workloads.querygen import QueryGenerator
from repro.workloads.scenarios import sc1_schedule

from tests.serve.test_equivalence import (
    EVENTS,
    STEP_MS,
    STREAMS,
    _canonical,
    _steps,
    run_in_process,
)

SCHEDULE = sc1_schedule(
    QueryGenerator(streams=STREAMS, seed=53), 1, 3, kind="agg"
)
KILL_AT_STEP = len(EVENTS) // 2


class TestServeChaos:
    def test_worker_kill_mid_run_recovers_and_matches(self, make_server):
        reference = run_in_process(SCHEDULE)
        assert reference and any(reference.values())

        handle = make_server(backend="process", workers=2)
        client = ServeClient("127.0.0.1", handle.port, client_id="chaos")
        requests = _steps(SCHEDULE)
        query_ids = []
        for index, (step_start, batches) in enumerate(EVENTS):
            if index == KILL_AT_STEP:
                assert client.chaos_kill_worker(0).status == "ok"
            for request in requests.get(step_start, ()):
                if request.kind == "create":
                    result = client.create_query(
                        query=request.query, at_ms=request.at_ms
                    )
                    assert result.status == "admit"
                    query_ids.append(request.query.query_id)
                else:
                    assert (
                        client.delete_query(
                            request.query_id, at_ms=request.at_ms
                        ).status
                        == "ok"
                    )
            for stream, events in batches.items():
                assert client.push(stream, events) == len(events)
            client.watermark(step_start + STEP_MS)

        drained = client.drain(checkpoint=True)
        assert drained.status == "ok"
        assert drained.raw["checkpoint"] is not None

        stats = client.stats()
        assert stats["recoveries"] >= 1, "the kill must have been supervised"
        assert stats["sessions_connected"] == 1

        fetched = _canonical(
            {
                query_id: client.fetch_results(query_id)
                for query_id in query_ids
            }
        )
        assert fetched == reference

        assert client.shutdown().status == "ok"
        handle._thread.join(20)
        assert not handle._thread.is_alive()
        client.close()


def _drain_frame(client):
    return _control_frame("drain", client._core.next_seq(), checkpoint=True)


class TestServeDrainAfterKill:
    def test_kill_just_before_a_checkpointing_drain_recovers(
        self, make_server
    ):
        handle = make_server(backend="process", workers=2)
        client = ServeClient("127.0.0.1", handle.port, client_id="killdrain")
        query_id = client.create_query(
            sql="SELECT * FROM A WHERE A.F0 > 10", at_ms=0
        ).query_id
        for step_start, batches in EVENTS[:4]:
            for stream, events in batches.items():
                assert client.push(stream, events) == len(events)
            client.watermark(step_start + STEP_MS)
        before = client.fetch_results(query_id)
        assert before

        # The kill lands first; the drain's gate call recovers the pool
        # (checkpoint + input-log replay), and its ack still carries the
        # id of the checkpoint it took.
        assert client.chaos_kill_worker(0).status == "ok"
        ack = client._request(_drain_frame(client))
        assert ack["status"] == "ok"
        assert ack["checkpoint"] is not None

        stats = client.stats()
        assert stats["recoveries"] == 1
        assert stats["alive_workers"] == stats["workers"] == 2
        assert client.fetch_results(query_id) == before
        client.close()

    def test_a_resent_drain_frame_replays_its_ack(self, make_server):
        handle = make_server()
        client = ServeClient("127.0.0.1", handle.port, client_id="redrain")
        step_start, batches = EVENTS[0]
        for stream, events in batches.items():
            client.push(stream, events)
        frame = _drain_frame(client)
        first = client._request(frame)
        assert first["status"] == "ok"
        assert first["checkpoint"] is not None

        # The same frame (same client seq) answers from the session's
        # idempotency cache: no second drain, so no second checkpoint.
        assert client._request(frame) == first
        assert client._request(_drain_frame(client))["checkpoint"] == (
            first["checkpoint"] + 1
        )
        client.close()
