"""Micro-batching must be invisible in the output (ISSUE tentpole).

Full SC1/SC2 scenario runs are repeated with ``batch_size`` 1, 7, and 64
and the per-query outputs compared byte-for-byte: the vectorized batch
path (RecordBatch routing, ``process_batch`` operators, batched driver
pushes) is a pure encoding of the per-record element sequence — down to
the global order in which results reach the query channels, which pins
that a fired window leaving as one batch delivers exactly as its results
did one by one.  The same holds under a seeded chaos :class:`FaultPlan`
— whole-batch retries after supervised recovery must not duplicate or
lose a single tuple, also when the fault strikes inside the router's
result path (between fired windows, each of which is one record).
"""

import pytest

from repro.core.engine import AStreamEngine, EngineConfig
from repro.core.qos import QoSMonitor
from repro.faults import (
    FaultEvent,
    FaultInjector,
    FaultKind,
    FaultPlan,
    Supervisor,
    SupervisorPolicy,
)
from repro.minispe.cluster import ClusterSpec, SimulatedCluster
from repro.workloads.driver import (
    AStreamAdapter,
    BaselineAdapter,
    Driver,
    DriverConfig,
    RetryPolicy,
)
from repro.baseline.deployment import BaselineDeploymentModel
from repro.baseline.engine import QueryAtATimeEngine
from repro.workloads.querygen import QueryGenerator
from repro.workloads.scenarios import sc1_schedule, sc2_schedule

STREAMS = ("A", "B")
BATCH_SIZES = (1, 7, 64)
CONFIG = dict(input_rate_tps=100.0, duration_s=8.0, step_ms=250)


def _sc1():
    return sc1_schedule(
        QueryGenerator(streams=STREAMS, seed=21), 1, 4, kind="join"
    )


def _sc2():
    return sc2_schedule(
        QueryGenerator(streams=STREAMS, seed=21), 2, 3, 2, kind="agg"
    )


def _fault_plan() -> FaultPlan:
    plan = FaultPlan(name="batch-chaos")
    plan.add(FaultEvent(at_ms=2_000, kind=FaultKind.NODE_CRASH, node=0))
    plan.add(FaultEvent(at_ms=3_500, kind=FaultKind.NODE_RESTORE, node=0))
    plan.add(
        FaultEvent(at_ms=3_000, kind=FaultKind.CHANNEL_DROP,
                   edge="select:A->join:A~B", count=2)
    )
    plan.add(
        FaultEvent(at_ms=4_500, kind=FaultKind.CHANNEL_DUPLICATE,
                   edge="select:B->join:A~B", count=2)
    )
    plan.add(
        FaultEvent(at_ms=5_000, kind=FaultKind.OPERATOR_EXCEPTION,
                   vertex="select:A", after_records=40, repeat=1)
    )
    return plan


def _between_windows_fault_plan(router: str) -> FaultPlan:
    """The router's deliver hook raises on its 3rd record after 4 s: a
    join result, or (a fired window being one record) the 3rd window."""
    plan = FaultPlan(name="between-windows-fire")
    plan.add(
        FaultEvent(at_ms=4_000, kind=FaultKind.OPERATOR_EXCEPTION,
                   vertex=router, after_records=2, repeat=1)
    )
    return plan


def _run_astream(schedule, batch_size: int, plan: FaultPlan = None,
                 deliveries: list = None):
    """Run one schedule; ``deliveries`` (when given) collects the global
    ``on_deliver`` call sequence as (query id, timestamp, value)."""
    qos = QoSMonitor(sample_every=32)
    cluster = SimulatedCluster(ClusterSpec(nodes=4))

    def on_deliver(query_id, timestamp, count):
        # One call per hand-over: its results are the channel's last
        # ``count``, so expanding gives the per-result sequence.
        if deliveries is not None:
            end = engine.channels.length(query_id)
            for output in engine.channels.read(query_id, end - count, end):
                deliveries.append(
                    (query_id, output.timestamp, repr(output.value))
                )
        qos.on_deliver(query_id, timestamp, count)

    engine = AStreamEngine(
        EngineConfig(streams=STREAMS, parallelism=1,
                     log_inputs=plan is not None),
        cluster=cluster,
        on_deliver=on_deliver,
    )
    supervisor = None
    if plan is not None:
        injector = FaultInjector(plan, cluster=cluster)
        injector.attach(engine.runtime)
        supervisor = Supervisor(
            engine,
            injector=injector,
            policy=SupervisorPolicy(checkpoint_interval_ms=2_000),
        )
    report = Driver(
        AStreamAdapter(engine),
        schedule,
        STREAMS,
        DriverConfig(batch_size=batch_size, **CONFIG),
        qos=qos,
        retry=RetryPolicy() if plan is not None else None,
        supervisor=supervisor,
    ).run()
    outputs = {
        query_id: [
            (output.timestamp, repr(output.value))
            for output in engine.results(query_id)
        ]
        for query_id in sorted(engine.channels.query_ids())
    }
    return report, outputs, supervisor


def _run_baseline(schedule, batch_size: int):
    qos = QoSMonitor(sample_every=32)
    engine = QueryAtATimeEngine(
        cluster=SimulatedCluster(ClusterSpec(nodes=64)),
        deployment=BaselineDeploymentModel(
            cold_start_ms=0, job_submit_ms=0, job_stop_ms=0, per_instance_ms=0
        ),
        parallelism=1,
        on_deliver=qos.on_deliver,
    )
    Driver(
        BaselineAdapter(engine),
        schedule,
        STREAMS,
        DriverConfig(batch_size=batch_size, **CONFIG),
        qos=qos,
    ).run()
    return {
        query_id: [
            (output.timestamp, repr(output.value))
            for output in engine.results(query_id)
        ]
        for query_id in sorted(engine.channels.query_ids())
    }


class TestAStreamBatchEquivalence:
    @pytest.mark.parametrize("scenario", [_sc1, _sc2], ids=["sc1", "sc2"])
    def test_outputs_byte_equal_across_batch_sizes(self, scenario):
        schedule = scenario()
        reference_order = []
        _, reference, _ = _run_astream(
            schedule, batch_size=1, deliveries=reference_order
        )
        assert reference and any(reference.values())
        for batch_size in BATCH_SIZES[1:]:
            order = []
            _, outputs, _ = _run_astream(
                schedule, batch_size=batch_size, deliveries=order
            )
            assert set(outputs) == set(reference)
            for query_id in reference:
                assert outputs[query_id] == reference[query_id], (
                    f"batch_size={batch_size} diverged on {query_id}"
                )
            assert order == reference_order, (
                f"batch_size={batch_size} changed the delivery order"
            )

    @pytest.mark.parametrize("scenario", [_sc1, _sc2], ids=["sc1", "sc2"])
    def test_outputs_byte_equal_under_chaos(self, scenario):
        schedule = scenario()
        _, oracle, _ = _run_astream(schedule, batch_size=1)
        for batch_size in BATCH_SIZES:
            _, outputs, supervisor = _run_astream(
                schedule, batch_size=batch_size, plan=_fault_plan()
            )
            assert supervisor.recovery_count >= 1, batch_size
            assert set(outputs) == set(oracle)
            for query_id in oracle:
                assert outputs[query_id] == oracle[query_id], (
                    f"chaos batch_size={batch_size} diverged on {query_id}"
                )

    @pytest.mark.parametrize(
        "scenario, router",
        [(_sc1, "router:join:A~B"), (_sc2, "router:agg:A")],
        ids=["sc1", "sc2"],
    )
    def test_fault_inside_a_fired_window_batch(self, scenario, router):
        schedule = scenario()
        _, oracle, _ = _run_astream(schedule, batch_size=1)
        for batch_size in BATCH_SIZES:
            _, outputs, supervisor = _run_astream(
                schedule, batch_size=batch_size,
                plan=_between_windows_fault_plan(router),
            )
            assert supervisor.recovery_count >= 1, batch_size
            assert outputs == oracle, f"batch_size={batch_size}"

    def test_chaos_batch_runs_are_seed_deterministic(self):
        schedule = _sc1()
        first = _run_astream(schedule, batch_size=7, plan=_fault_plan())
        second = _run_astream(schedule, batch_size=7, plan=_fault_plan())
        assert first[1] == second[1]
        assert first[2].log_lines() == second[2].log_lines()


class TestBaselineBatchEquivalence:
    def test_outputs_byte_equal_across_batch_sizes(self):
        schedule = _sc1()
        reference = _run_baseline(schedule, batch_size=1)
        assert reference and any(reference.values())
        for batch_size in BATCH_SIZES[1:]:
            outputs = _run_baseline(schedule, batch_size=batch_size)
            assert outputs == reference, f"batch_size={batch_size}"
