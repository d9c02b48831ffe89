"""Wire-to-delivery tracing, latency SLOs, and cost attribution (ISSUE 9).

The tentpole contract over real loopback sockets: a traced push's ack
carries a span breakdown that telescopes to the end-to-end number
*exactly* (sum of spans == e2e, by the boundary-stamp construction), on
both backends and both codecs; declared SLO targets surface burn rates
in ``stats`` and drive subscription pressure; traced pushes survive a
worker kill mid-stream; a gate recovery drops a flight-recorder dump.
"""

import json

import pytest

from repro.serve import ServeClient, ServeError
from repro.workloads.datagen import DataTuple

SQL_SELECT = "SELECT * FROM A WHERE A.F0 > 10"
WIRE_STAGES = ["client", "server", "shard", "subscription"]


def _tuple(key=1, f0=50):
    return DataTuple(key=key, fields=(f0, 1, 2, 3, 4))


def _client(handle, client_id="trace", **kwargs):
    return ServeClient("127.0.0.1", handle.port, client_id=client_id, **kwargs)


def _assert_telescopes(summary):
    """Span sums must equal e2e exactly — no hidden/overlapping time."""
    spans = summary["spans"]
    assert [stage for stage, _ in spans] == WIRE_STAGES
    assert sum(ns for _, ns in spans) == summary["e2e_ns"]
    assert summary["e2e_ns"] > 0


class TestTelescopingSpans:
    @pytest.mark.parametrize("backend", ["inline", "process"])
    @pytest.mark.parametrize("codec", ["json", "binary"])
    def test_ack_spans_sum_to_e2e_exactly(self, make_server, backend, codec):
        handle = make_server(
            backend=backend,
            workers=2,
            codecs=("binary", "json") if codec == "binary" else ("json",),
        )
        client = _client(handle, codec=codec, trace_sample_every=1)
        assert client.codec == codec
        created = client.create_query(sql=SQL_SELECT, at_ms=0)
        assert created.status == "admit"
        client.subscribe(created.query_id)
        for i in range(8):
            assert client.push("A", [(i, _tuple())]) == 1
        assert len(client.trace_summaries) == 8
        assert len(client.wire_latencies_ms) == 8
        for summary in client.trace_summaries:
            _assert_telescopes(summary)
            # The pushed tuple matched the predicate, so the trace must
            # attribute the delivery to our query.
            assert created.query_id in summary["queries"]
        client.close()

    def test_sampling_cadence_traces_every_nth_push(self, make_server):
        handle = make_server()
        client = _client(handle, trace_sample_every=4)
        created = client.create_query(sql=SQL_SELECT, at_ms=0)
        assert created.status == "admit"
        for i in range(12):
            client.push("A", [(i, _tuple())])
        assert len(client.trace_summaries) == 3
        client.close()

    def test_untraced_pushes_carry_no_trace_block(self, make_server):
        handle = make_server()
        client = _client(handle)  # trace_sample_every=0: never traced
        created = client.create_query(sql=SQL_SELECT, at_ms=0)
        assert created.status == "admit"
        for i in range(5):
            client.push("A", [(i, _tuple())])
        assert not client.trace_summaries
        assert not client.wire_latencies_ms
        stats = client.stats()
        assert stats["wire_latency"]["traced_pushes"] == 0
        client.close()

    def test_stats_wire_latency_block_aggregates_traces(self, make_server):
        handle = make_server()
        client = _client(handle, trace_sample_every=1)
        created = client.create_query(sql=SQL_SELECT, at_ms=0)
        assert created.status == "admit"
        client.subscribe(created.query_id)
        for i in range(6):
            client.push("A", [(i, _tuple())])
        wire = client.stats()["wire_latency"]
        assert wire["traced_pushes"] == 6
        assert wire["e2e_total_ns"] > 0
        breakdown = wire["breakdown"]
        assert breakdown["sampled"] == 6
        assert set(breakdown["stages"]) == set(WIRE_STAGES)
        client.close()


class TestLatencySLOs:
    def test_declared_slo_surfaces_in_stats(self, make_server):
        handle = make_server()
        client = _client(handle, client_id="tenant-a", trace_sample_every=1)
        created = client.create_query(sql=SQL_SELECT, at_ms=0, slo_ms=5_000.0)
        assert created.status == "admit"
        assert created.raw["slo_ms"] == 5_000.0
        client.subscribe(created.query_id)
        for i in range(8):
            client.push("A", [(i, _tuple())])
        slo = client.stats()["slo"]
        assert slo["observed_total"] == 8
        entry = slo["queries"][created.query_id]
        assert entry["target_ms"] == 5_000.0
        assert entry["tenant"] == "tenant-a"
        assert entry["count"] == 8
        assert 0 < entry["p50"] <= entry["p99"]
        # A 5s loopback budget is never violated.
        assert entry["burn_rate"] == 0.0
        assert slo["tenants"]["tenant-a"]["count"] == 8
        assert not client.stats()["slo_pressure"]
        client.close()

    def test_bad_slo_rejected_without_disconnect(self, make_server):
        handle = make_server()
        client = _client(handle)
        with pytest.raises(ServeError) as excinfo:
            client.create_query(sql=SQL_SELECT, at_ms=0, slo_ms=-1.0)
        assert excinfo.value.code == "bad_slo"
        assert client.ping()
        client.close()

    def test_impossible_slo_burns_and_applies_pressure(self, make_server):
        handle = make_server()
        client = _client(handle, trace_sample_every=1)
        # A 1ns budget: every loopback delivery violates, so the burn
        # rate saturates at window/(1-objective) and pressure engages.
        created = client.create_query(sql=SQL_SELECT, at_ms=0, slo_ms=1e-6)
        assert created.status == "admit"
        client.subscribe(created.query_id)
        for i in range(8):
            client.push("A", [(i, _tuple())])
        stats = client.stats()
        entry = stats["slo"]["queries"][created.query_id]
        assert entry["burn_rate"] >= 1.0
        assert stats["slo"]["violations_total"] == 8
        assert created.query_id in stats["slo_pressure"]
        assert any(
            "slo_burn" in violation
            for violation in handle.server.core.qos.violations()
        )
        # Deleting the query lifts the pressure and forgets its state.
        client.delete_query(created.query_id, at_ms=100)
        stats = client.stats()
        assert created.query_id not in stats["slo_pressure"]
        assert created.query_id not in stats["slo"]["queries"]
        client.close()

    def test_server_default_slo_applies_to_all_queries(self, make_server):
        handle = make_server(slo_target_ms=2_000.0)
        client = _client(handle, trace_sample_every=1)
        created = client.create_query(sql=SQL_SELECT, at_ms=0)
        assert created.status == "admit"
        assert created.raw["slo_ms"] == 2_000.0
        client.subscribe(created.query_id)
        client.push("A", [(0, _tuple())])
        entry = client.stats()["slo"]["queries"][created.query_id]
        assert entry["target_ms"] == 2_000.0
        client.close()


class TestChaosTracing:
    def test_traced_pushes_survive_worker_kill(self, make_server):
        handle = make_server(backend="process", workers=2)
        client = _client(handle, trace_sample_every=1)
        created = client.create_query(sql=SQL_SELECT, at_ms=0, slo_ms=10_000.0)
        assert created.status == "admit"
        client.subscribe(created.query_id)
        for i in range(4):
            assert client.push("A", [(i, _tuple(key=i))]) == 1
        assert client.chaos_kill_worker(0).status == "ok"
        for i in range(4, 8):
            assert client.push("A", [(i, _tuple(key=i))]) == 1
        stats = client.stats()
        assert stats["recoveries"] >= 1
        # Every push before and after the kill closed a telescoping
        # trace and fed the SLO tracker.
        assert len(client.trace_summaries) == 8
        for summary in client.trace_summaries:
            _assert_telescopes(summary)
        assert stats["slo"]["queries"][created.query_id]["count"] == 8
        client.close()


class TestFlightRecorder:
    def test_recovery_dumps_flight_record(self, make_server, tmp_path):
        flight_dir = tmp_path / "flight"
        handle = make_server(
            backend="process", workers=2, flight_dir=str(flight_dir)
        )
        client = _client(handle, trace_sample_every=1)
        created = client.create_query(sql=SQL_SELECT, at_ms=0)
        assert created.status == "admit"
        client.subscribe(created.query_id)
        for i in range(3):
            client.push("A", [(i, _tuple(key=i))])
        assert client.chaos_kill_worker(0).status == "ok"
        client.push("A", [(3, _tuple(key=3))])  # triggers the recovery
        assert client.stats()["recoveries"] >= 1
        dumps = sorted(flight_dir.glob("flight_recovery_*.json"))
        assert dumps, "recovery must drop a flight record"
        record = json.loads(dumps[0].read_text())
        assert record["kind"] == "flight_record"
        assert record["info"]["incident"] >= 1
        assert "checkpoint_id" in record["info"]
        assert record["info"]["slo"]["observed_total"] >= 3
        # The wire-trace tail holds the pushes leading up to the kill.
        tail = record["wire_traces"]["tail"]
        assert len(tail) >= 3
        for trace in tail:
            assert sum(ns for _, ns in trace["spans"]) == trace["e2e_ns"]
        client.close()

    def test_flight_dir_env_fallback(self, make_server, tmp_path, monkeypatch):
        monkeypatch.setenv("ASTREAM_FLIGHT_DIR", str(tmp_path / "env_flight"))
        handle = make_server(backend="process", workers=2)
        assert handle.server.config.flight_dir == str(tmp_path / "env_flight")
        handle.stop()


class TestCostAttribution:
    def test_stats_cost_block_conserves_engine_cpu(self, make_server):
        # ``observe`` turns on the per-push CPU meter the attribution
        # splits; the plain hot path keeps it off.
        handle = make_server(observe=True)
        client = _client(handle, trace_sample_every=1)
        ids = [
            client.create_query(
                sql=f"SELECT * FROM A WHERE A.F0 > {bound}", at_ms=0
            ).query_id
            for bound in (10, 10, 400)
        ]
        for i in range(30):
            client.push("A", [(i, _tuple(key=i, f0=(i * 37) % 1000))])
        cost = client.stats()["cost"]
        assert cost["total_ns"] > 0
        assert set(cost["queries"]) == set(ids)
        assert (
            sum(cost["queries"].values()) + cost["unattributed_ns"]
            == cost["total_ns"]
        )
        # The two identical predicates share one covering evaluation, so
        # their attributed shares match; the third differs.
        assert cost["queries"][ids[0]] == pytest.approx(
            cost["queries"][ids[1]], rel=0.01, abs=2
        )
        top = cost["top"]
        assert top[0]["cpu_ns"] >= top[-1]["cpu_ns"]
        client.close()

    def test_process_backend_cost_merges_across_shards(self, make_server):
        handle = make_server(
            backend="process",
            workers=2,
            observe=True,
        )
        client = _client(handle)
        ids = [
            client.create_query(
                sql=f"SELECT * FROM A WHERE A.F0 > {bound}", at_ms=0
            ).query_id
            for bound in (10, 500)
        ]
        for i in range(40):
            client.push("A", [(i, _tuple(key=i, f0=(i * 53) % 1000))])
        cost = client.stats()["cost"]
        assert cost["total_ns"] > 0, "worker CPU meters must be summed"
        assert set(cost["queries"]) == set(ids)
        assert (
            sum(cost["queries"].values()) + cost["unattributed_ns"]
            == cost["total_ns"]
        )
        client.close()
