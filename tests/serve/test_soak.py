"""Concurrent multi-client soak: churn + streaming under one server.

Satellite 3 of ISSUE 5: several clients create/delete ad-hoc queries at
hundreds of ops per second while another client pushes events and
streams an aggregation query's results.  Afterwards:

* **changelog consistency** — every acknowledged control op carries a
  changelog sequence; sequences are globally unique, each client
  observes its own in strictly increasing order, and the server's final
  sequence covers them all;
* **byte-equality** — the streamed query's results match the
  brute-force oracle (``tests/core/oracle``) and the streamed multiset
  equals the fetched canonical results;
* **throughput** — the control plane sustains >= 200 create/delete
  ops/sec across the churn clients on loopback (the acceptance bar).
"""

import threading
import time

from repro.core.query import AggregationQuery
from repro.serve import ServeClient
from repro.workloads.datagen import DataGenerator
from repro.workloads.querygen import QueryGenerator
from tests.core.oracle import agg_outputs_multiset, expected_agg_multiset

STREAMS = ("A", "B")
CHURN_CLIENTS = 4
CHURN_PAIRS_PER_CLIENT = 60  # 2 ops per pair -> 480 control ops total
MIN_OPS_PER_SEC = 200
STEP_MS = 100
STEPS = 40
TUPLES_PER_STEP = 10


def _churn(port, index, generator_seed, record, errors, barrier):
    """One churn client: create/delete pairs as fast as acks return."""
    try:
        client = ServeClient(
            "127.0.0.1", port, client_id=f"churn-{index}"
        )
        generator = QueryGenerator(streams=STREAMS, seed=generator_seed)
        barrier.wait(timeout=30)
        sequences = []
        for _ in range(CHURN_PAIRS_PER_CLIENT):
            created = client.create_query(query=generator.selection_query())
            assert created.status == "admit"
            deleted = client.delete_query(created.query_id)
            assert deleted.status == "ok"
            sequences.append(("create", created.query_id, created.sequence))
            sequences.append(("delete", created.query_id, deleted.sequence))
        record(index, sequences)
        client.close()
    except Exception as error:  # propagate to the main thread
        errors.append((index, error))


class TestMultiClientSoak:
    def test_soak_churn_with_streaming_consumer(self, make_server):
        handle = make_server(backend="inline", clock="manual")
        port = handle.port

        # The streaming consumer: one long-lived aggregation query.
        streamer = ServeClient("127.0.0.1", port, client_id="streamer")
        agg_query = QueryGenerator(streams=STREAMS, seed=71).aggregation_query(
            stream="A"
        )
        assert isinstance(agg_query, AggregationQuery)
        created = streamer.create_query(query=agg_query, at_ms=0)
        assert created.status == "admit"
        streamer.subscribe(agg_query.query_id)

        per_client = {}
        errors = []
        barrier = threading.Barrier(CHURN_CLIENTS + 1)

        def record(index, sequences):
            per_client[index] = sequences

        threads = [
            threading.Thread(
                target=_churn,
                args=(port, index, 100 + index, record, errors, barrier),
                daemon=True,
            )
            for index in range(CHURN_CLIENTS)
        ]
        for thread in threads:
            thread.start()
        barrier.wait(timeout=30)
        churn_started = time.perf_counter()

        # Meanwhile: push data and stream results.
        generator = DataGenerator(seed=3)
        pushed = []
        streamed = []
        for step in range(STEPS):
            base = step * STEP_MS
            events = [
                (base + (i * STEP_MS) // TUPLES_PER_STEP,
                 generator.next_tuple())
                for i in range(TUPLES_PER_STEP)
            ]
            pushed.extend(events)
            assert streamer.push("A", events) == len(events)
            streamer.watermark(base + STEP_MS)
            outputs, shed = streamer.take_results(
                agg_query.query_id, wait_ms=10
            )
            assert shed == 0
            streamed.extend(outputs)

        for thread in threads:
            thread.join(timeout=120)
            assert not thread.is_alive(), "churn client hung"
        churn_elapsed = time.perf_counter() - churn_started
        assert not errors, errors

        # -- throughput ----------------------------------------------------
        total_ops = CHURN_CLIENTS * CHURN_PAIRS_PER_CLIENT * 2
        ops_per_sec = total_ops / churn_elapsed
        assert ops_per_sec >= MIN_OPS_PER_SEC, (
            f"control plane sustained only {ops_per_sec:.0f} ops/s "
            f"({total_ops} ops in {churn_elapsed:.2f}s)"
        )

        # -- changelog consistency -----------------------------------------
        assert len(per_client) == CHURN_CLIENTS
        all_sequences = []
        for index, sequences in per_client.items():
            observed = [sequence for _, _, sequence in sequences]
            assert all(s is not None for s in observed), index
            assert observed == sorted(observed), (
                f"client {index} saw out-of-order changelog sequences"
            )
            assert len(set(observed)) == len(observed), index
            all_sequences.extend(observed)
        assert len(set(all_sequences)) == len(all_sequences), (
            "two control ops shared a changelog sequence"
        )
        stats = streamer.stats()
        assert stats["changelog_sequence"] >= max(all_sequences)
        assert stats["active_queries"] == 1  # only the streamed query

        # -- byte-equality vs the oracle -----------------------------------
        streamer.drain()
        watermark = STEPS * STEP_MS
        remaining, shed = streamer.take_results(
            agg_query.query_id, wait_ms=5_000
        )
        assert shed == 0
        streamed.extend(remaining)
        # Keep draining until the stream has caught up with the channel.
        delivered = streamer.stats()["result_counts"][agg_query.query_id]
        deadline = time.monotonic() + 30
        while len(streamed) < delivered and time.monotonic() < deadline:
            more, shed = streamer.take_results(
                agg_query.query_id, wait_ms=250
            )
            assert shed == 0
            streamed.extend(more)

        expected = expected_agg_multiset(agg_query, 0, pushed, watermark)
        assert agg_outputs_multiset(streamed) == expected
        # The subscribed channel keeps only the untaken tail.
        fetched = streamer.fetch_results(agg_query.query_id)
        assert fetched.base + len(fetched) == delivered
        assert sorted(
            (output.timestamp, repr(output.value))
            for output in streamed[fetched.base:]
        ) == [(output.timestamp, repr(output.value)) for output in fetched]

        streamer.close()
