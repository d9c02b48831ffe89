"""SC1/SC2 results over the wire must be byte-identical to in-process.

The acceptance bar of ISSUE 5: drive the paper's scenario schedules
through the client SDK against a live server — inline and process
backends — and compare the canonical per-query results byte-for-byte
against an in-process engine run with the same flush discipline.  The
wire (serde roundtrips, framing, subscription fan-out) must be a pure
re-encoding of the same computation.
"""

import pytest

from repro.core.engine import AStreamEngine, EngineConfig
from repro.serve import ServeClient
from repro.workloads.datagen import DataGenerator
from repro.workloads.querygen import QueryGenerator
from repro.workloads.scenarios import sc1_schedule, sc2_schedule

STREAMS = ("A", "B")
STEP_MS = 250
DURATION_MS = 6_000
TUPLES_PER_STEP = 12

# Built once: query ids carry a process-global counter, so the wire and
# in-process runs must share one schedule object.
SC1 = sc1_schedule(QueryGenerator(streams=STREAMS, seed=41), 1, 3, kind="join")
SC2 = sc2_schedule(QueryGenerator(streams=STREAMS, seed=41), 2, 3, 2, kind="agg")


def _events():
    """Deterministic per-stream, per-step micro-batches."""
    generators = {stream: DataGenerator(seed=9) for stream in STREAMS}
    plan = []
    for step_start in range(0, DURATION_MS, STEP_MS):
        batches = {}
        for stream in STREAMS:
            batches[stream] = [
                (
                    step_start + (i * STEP_MS) // TUPLES_PER_STEP,
                    generators[stream].next_tuple(),
                )
                for i in range(TUPLES_PER_STEP)
            ]
        plan.append((step_start, batches))
    return plan


EVENTS = _events()


def _steps(schedule):
    """Requests grouped by the step in which they fall due."""
    by_step = {}
    for request in schedule.sorted():
        step = (request.at_ms // STEP_MS) * STEP_MS
        by_step.setdefault(step, []).append(request)
    return by_step


def _canonical(fetch):
    """query_id → [(timestamp, repr(value))] in canonical order."""
    return {
        query_id: [
            (output.timestamp, repr(output.value)) for output in outputs
        ]
        for query_id, outputs in fetch.items()
    }


def run_in_process(schedule):
    """The oracle: same schedule, direct engine calls, flush-on-submit."""
    engine = AStreamEngine(EngineConfig(streams=STREAMS))
    requests = _steps(schedule)
    query_ids = []
    for step_start, batches in EVENTS:
        for request in requests.get(step_start, ()):
            if request.kind == "create":
                engine.submit(request.query, request.at_ms)
                query_ids.append(request.query.query_id)
            else:
                engine.stop(request.query_id, request.at_ms)
            engine.flush_session(request.at_ms)
        for stream, events in batches.items():
            engine.push_many(stream, events)
        engine.watermark(step_start + STEP_MS)
    engine.drain()
    fetched = {
        query_id: engine.canonical_results(query_id)
        for query_id in query_ids
    }
    engine.shutdown()
    return _canonical(fetched)


def run_over_wire(
    schedule, make_server, backend, workers=2, subscribe=False, codec="binary"
):
    """The same schedule through the client SDK against a live server."""
    handle = make_server(backend=backend, workers=workers)
    client = ServeClient(
        "127.0.0.1", handle.port, client_id="equiv", codec=codec
    )
    assert client.codec == codec
    requests = _steps(schedule)
    query_ids = []
    streamed = {}
    for step_start, batches in EVENTS:
        for request in requests.get(step_start, ()):
            if request.kind == "create":
                result = client.create_query(
                    query=request.query, at_ms=request.at_ms
                )
                assert result.status == "admit"
                assert result.sequence is not None
                query_ids.append(request.query.query_id)
                if subscribe:
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
    fetched = {
        query_id: client.fetch_results(query_id) for query_id in query_ids
    }
    if subscribe:
        import time

        deadline = time.monotonic() + 30
        counts = client.stats()["result_counts"]
        expected = {qid: counts.get(qid, 0) for qid in query_ids}
        collected = {qid: [] for qid in query_ids}
        while time.monotonic() < deadline:
            for query_id in query_ids:
                outputs, shed = client.take_results(query_id, wait_ms=100)
                assert shed == 0
                collected[query_id].extend(outputs)
            if all(
                len(collected[qid]) >= expected[qid] for qid in query_ids
            ):
                break
        streamed = {
            qid: sorted(
                (output.timestamp, repr(output.value))
                for output in outputs
            )
            for qid, outputs in collected.items()
        }
        # A subscribed channel keeps only what the subscriber has not
        # taken: the fetch is the streamed tail from its ``base`` on.
        for qid, outputs in collected.items():
            assert fetched[qid].base + len(fetched[qid]) == expected[qid]
            assert sorted(
                (output.timestamp, repr(output.value))
                for output in outputs[fetched[qid].base:]
            ) == _canonical(fetched)[qid], qid
    client.close()
    return _canonical(fetched), streamed


class TestWireEquivalence:
    @pytest.mark.parametrize("codec", ["json", "binary"])
    @pytest.mark.parametrize(
        "schedule", [SC1, SC2], ids=["sc1-join", "sc2-agg"]
    )
    def test_inline_backend_byte_equal(self, make_server, schedule, codec):
        reference = run_in_process(schedule)
        assert reference and any(reference.values())
        over_wire, _ = run_over_wire(
            schedule, make_server, backend="inline", codec=codec
        )
        assert over_wire == reference

    @pytest.mark.parametrize("codec", ["json", "binary"])
    @pytest.mark.parametrize(
        "schedule", [SC1, SC2], ids=["sc1-join", "sc2-agg"]
    )
    def test_process_backend_byte_equal(self, make_server, schedule, codec):
        reference = run_in_process(schedule)
        over_wire, _ = run_over_wire(
            schedule, make_server, backend="process", workers=2, codec=codec
        )
        assert over_wire == reference

    def test_streamed_results_match_fetched_multiset(self, make_server):
        reference = run_in_process(SC1)
        _, streamed = run_over_wire(
            SC1, make_server, backend="inline", subscribe=True
        )
        # Subscribed from the start with nothing shed, the stream is the
        # complete result; run_over_wire checks the fetch against its tail.
        assert streamed == reference
