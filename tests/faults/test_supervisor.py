"""Supervisor: detection, recovery, MTTR, checkpoints, load shedding."""

import pytest

from repro.baseline.engine import QueryAtATimeEngine
from repro.core.admission import AdmissionController, AdmissionDecision
from repro.core.qos import QoSMonitor, QoSThresholds
from repro.core.query import (
    AggregationKind,
    AggregationQuery,
    AggregationSpec,
    TruePredicate,
    WindowSpec,
)
from repro.faults import (
    FaultEvent,
    FaultInjector,
    FaultKind,
    FaultPlan,
    Supervisor,
    SupervisorPolicy,
)
from repro.minispe.checkpoint import CheckpointFailed
from repro.minispe.cluster import ClusterSpec, SimulatedCluster
from tests.conftest import field_tuple, go_live, make_engine


def _agg_query(query_id="sup-agg", stream="A"):
    return AggregationQuery(
        stream=stream,
        predicate=TruePredicate(),
        window_spec=WindowSpec.tumbling(1_000),
        aggregation=AggregationSpec(kind=AggregationKind.COUNT),
        query_id=query_id,
    )


def _supervised_engine(plan, **policy_kwargs):
    cluster = SimulatedCluster(ClusterSpec(nodes=4))
    engine = make_engine(streams=("A",), cluster=cluster, log_inputs=True)
    go_live(engine, [_agg_query()])
    injector = FaultInjector(plan, cluster=cluster)
    injector.attach(engine.runtime)
    supervisor = Supervisor(
        engine,
        injector=injector,
        policy=SupervisorPolicy(**policy_kwargs),
    )
    return engine, injector, supervisor


class TestRecovery:
    def test_node_crash_recovers_with_positive_mttr(self):
        plan = FaultPlan().add(
            FaultEvent(at_ms=1_000, kind=FaultKind.NODE_CRASH, node=1)
        )
        engine, injector, supervisor = _supervised_engine(plan)
        assert supervisor.heartbeat(500) is None
        event = supervisor.heartbeat(1_000)
        assert event is not None
        assert event.mttr_ms > 0
        assert event.recovered_at_ms > event.detected_at_ms
        assert supervisor.busy_until_ms == event.recovered_at_ms
        assert injector.unhandled_failures() == []
        # The injector was re-attached to the fresh runtime.
        assert injector.attached
        assert engine.runtime._channel_hook is not None

    def test_recovery_restores_correct_outputs(self):
        plan = FaultPlan().add(
            FaultEvent(at_ms=0, kind=FaultKind.CHANNEL_DROP,
                       edge="select:A->agg:A", count=3)
        )
        engine, injector, supervisor = _supervised_engine(plan)
        supervisor.heartbeat(0)  # arms the drop
        for ts in range(0, 1_000, 100):
            engine.push("A", ts, field_tuple(key=1, f0=ts))
        # Three tuples were silently dropped; the supervisor notices at
        # the next heartbeat and replays everything fault-free.
        event = supervisor.heartbeat(1_000)
        assert event is not None
        # 10 records + the query-creation changelog marker.
        assert event.replayed_elements == 11
        engine.watermark(2_000)
        results = engine.results("sup-agg")
        assert len(results) == 1
        assert results[0].value.value == 10  # nothing missing

    def test_recovery_uses_latest_checkpoint(self):
        plan = FaultPlan().add(
            FaultEvent(at_ms=5_000, kind=FaultKind.NODE_CRASH, node=0)
        )
        engine, injector, supervisor = _supervised_engine(
            plan, checkpoint_interval_ms=2_000
        )
        for step in range(5):
            now = step * 1_000
            supervisor.heartbeat(now)
            engine.push("A", now, field_tuple(key=1, f0=step))
        event = supervisor.heartbeat(5_000)
        assert supervisor.checkpoints_taken >= 2
        assert event.checkpoint_id is not None
        # Replay covers only the post-checkpoint suffix.
        assert event.replayed_elements < 5

    def test_notify_failure_external_cause(self):
        engine, injector, supervisor = _supervised_engine(FaultPlan())
        event = supervisor.notify_failure(3_000, RuntimeError("boom"))
        assert "boom" in event.cause
        assert event.mttr_ms > 0
        assert supervisor.recovery_count == 1

    def test_mean_mttr_over_multiple_recoveries(self):
        plan = FaultPlan()
        plan.add(FaultEvent(at_ms=1_000, kind=FaultKind.NODE_CRASH, node=0))
        plan.add(FaultEvent(at_ms=2_000, kind=FaultKind.NODE_RESTORE, node=0))
        plan.add(FaultEvent(at_ms=3_000, kind=FaultKind.NODE_CRASH, node=1))
        engine, injector, supervisor = _supervised_engine(plan)
        for now in range(0, 4_000, 500):
            supervisor.heartbeat(now)
        assert supervisor.recovery_count == 2
        assert supervisor.mean_mttr_ms > 0


class TestCheckpointing:
    def test_periodic_checkpoints_and_compaction(self):
        engine, injector, supervisor = _supervised_engine(
            FaultPlan(), checkpoint_interval_ms=1_000
        )
        for step in range(10):
            now = step * 500
            engine.push("A", now, field_tuple(key=1))
            supervisor.heartbeat(now)
        assert supervisor.checkpoints_taken >= 4
        # Compaction keeps the input log bounded near one interval's data.
        assert engine.input_log_size <= 3

    def test_checkpointing_disabled_for_baseline(self):
        cluster = SimulatedCluster(ClusterSpec(nodes=4))
        engine = QueryAtATimeEngine(cluster=cluster, parallelism=1)
        engine.submit(_agg_query(), now_ms=0)
        supervisor = Supervisor(engine, cluster=cluster)
        supervisor.heartbeat(10_000)
        assert supervisor.checkpoints_taken == 0

    def test_zero_interval_disables_checkpoints(self):
        engine, injector, supervisor = _supervised_engine(
            FaultPlan(), checkpoint_interval_ms=0
        )
        supervisor.heartbeat(60_000)
        assert supervisor.checkpoints_taken == 0

    def test_only_a_failed_checkpoint_is_counted_and_skipped(self):
        engine, injector, supervisor = _supervised_engine(
            FaultPlan(), checkpoint_interval_ms=1_000
        )

        def unacknowledged():
            raise CheckpointFailed(7, "instance did not acknowledge")

        engine.checkpoint = unacknowledged
        supervisor.heartbeat(1_000)
        assert supervisor.checkpoint_failures == 1
        assert supervisor.checkpoints_taken == 0

        def crash():
            raise RuntimeError("planted")

        engine.checkpoint = crash
        with pytest.raises(RuntimeError, match="planted"):
            supervisor.heartbeat(2_000)
        assert supervisor.checkpoint_failures == 1


class TestBaselineRecovery:
    def test_baseline_full_restart(self):
        cluster = SimulatedCluster(ClusterSpec(nodes=4))
        engine = QueryAtATimeEngine(cluster=cluster, parallelism=1)
        engine.submit(_agg_query(), now_ms=0)
        plan = FaultPlan().add(
            FaultEvent(at_ms=1_000, kind=FaultKind.NODE_CRASH, node=2)
        )
        injector = FaultInjector(plan, cluster=cluster)
        supervisor = Supervisor(engine, injector=injector, cluster=cluster)
        event = supervisor.heartbeat(1_000)
        assert event is not None
        assert event.checkpoint_id is None  # no checkpoint/replay path
        assert event.replayed_elements == 0
        assert event.mttr_ms > 0
        assert engine.active_query_count == 1


class TestLoadSheddingEscalation:
    def _setup(self):
        plan = FaultPlan().add(
            FaultEvent(at_ms=1_000, kind=FaultKind.NODE_CRASH, node=0)
        )
        cluster = SimulatedCluster(ClusterSpec(nodes=4))
        engine = make_engine(streams=("A",), cluster=cluster, log_inputs=True)
        go_live(engine, [_agg_query()])
        qos = QoSMonitor(
            thresholds=QoSThresholds(max_deployment_latency_ms=0.001)
        )
        admission = AdmissionController(engine, qos)
        injector = FaultInjector(plan, cluster=cluster)
        injector.attach(engine.runtime)
        supervisor = Supervisor(
            engine,
            injector=injector,
            admission=admission,
            qos=qos,
            policy=SupervisorPolicy(escalate_after_violations=3),
        )
        return engine, qos, admission, supervisor

    def test_persistent_violations_trigger_shedding(self):
        engine, qos, admission, supervisor = self._setup()
        supervisor.heartbeat(1_000)  # crash + recovery
        assert not admission.shedding
        for now in (2_000, 3_000, 4_000):  # three violating heartbeats
            supervisor.heartbeat(now)
        assert admission.shedding
        assert supervisor.shedding_escalations == 1
        decision = admission.submit(_agg_query("shed-q"), now_ms=5_000)
        assert decision is AdmissionDecision.DEFER

    def test_no_escalation_without_a_recovery(self):
        engine, qos, admission, supervisor = self._setup()
        for now in (100, 200, 300, 400):  # violations but no recovery yet
            supervisor.heartbeat(now)
        assert not admission.shedding

    def test_shedding_clears_when_qos_recovers(self):
        engine, qos, admission, supervisor = self._setup()
        for now in (1_000, 2_000, 3_000, 4_000):
            supervisor.heartbeat(now)
        assert admission.shedding
        qos.thresholds = QoSThresholds()  # boundaries relaxed: QoS holds
        supervisor.heartbeat(5_000)
        assert not admission.shedding


class TestDeterminism:
    def test_same_plan_same_recovery_log(self):
        def run():
            plan = FaultPlan()
            plan.add(FaultEvent(at_ms=1_000, kind=FaultKind.NODE_CRASH, node=0))
            plan.add(FaultEvent(at_ms=2_500, kind=FaultKind.CHANNEL_DROP,
                                edge="select:A->agg:A", count=2))
            engine, injector, supervisor = _supervised_engine(plan)
            for step in range(8):
                now = step * 500
                supervisor.heartbeat(now)
                engine.push("A", now, field_tuple(key=1, f0=step))
            engine.watermark(8_000)
            return (
                supervisor.log_lines(),
                injector.log_lines(),
                [(r.timestamp, repr(r.value)) for r in engine.results("sup-agg")],
            )

        assert run() == run()
