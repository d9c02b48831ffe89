"""Multi-tenant ad-hoc dashboard: SC2-style churn through the driver.

Simulates a team of analysts issuing short-lived queries against live
streams — the paper's second workload scenario — and prints the QoS
numbers a platform owner watches: per-query deployment latency,
event-time latency, slowest and overall data throughput.

Run with::

    python examples/adhoc_dashboard.py
"""

from repro.core.engine import AStreamEngine, EngineConfig
from repro.core.qos import QoSMonitor
from repro.harness.metrics import ScenarioMetrics
from repro.minispe.cluster import ClusterSpec, SimulatedCluster
from repro.workloads.driver import AStreamAdapter, Driver, DriverConfig
from repro.workloads.querygen import QueryGenerator
from repro.workloads.scenarios import sc2_schedule


def main() -> None:
    generator = QueryGenerator(streams=("A", "B"), seed=42, window_max_seconds=3)
    # 6 analysts' queries per 4-second wave, previous wave retired.
    schedule = sc2_schedule(
        generator, queries_per_batch=6, batch_interval_s=4, batches=4,
        kind="join",
    )
    print(f"workload: {schedule.name} "
          f"({len(schedule)} requests, peak {schedule.peak_parallelism} live)")

    qos = QoSMonitor(sample_every=32)
    cluster = SimulatedCluster(ClusterSpec(nodes=4))
    engine = AStreamEngine(
        EngineConfig(streams=("A", "B"), parallelism=1, retain_results=False),
        cluster=cluster,
        on_deliver=qos.on_deliver,
    )
    driver = Driver(
        AStreamAdapter(engine),
        schedule,
        ("A", "B"),
        DriverConfig(input_rate_tps=500.0, duration_s=18.0),
        qos=qos,
    )
    report = driver.run()
    # Four nodes is the paper's reference cluster: no scale-out factor.
    metrics = ScenarioMetrics(report)

    print("\n=== platform dashboard =====================================")
    print(f" tuples processed        {report.tuples_pushed:>12,}")
    print(f" wall-clock              {report.wall_seconds:>11.2f}s")
    print(f" slowest data throughput {metrics.slowest_data_throughput_tps:>12,.0f} t/s")
    print(f" overall data throughput {metrics.overall_data_throughput_tps:>12,.0f} t/s")
    print(f" mean event-time latency {metrics.mean_event_time_latency_ms:>11.0f}ms")
    print(f" p99 event-time latency  {metrics.p99_event_time_latency_ms:>11.0f}ms")
    print(f" mean deploy latency     {metrics.mean_deployment_latency_ms:>11.0f}ms")
    print(f" query throughput        {metrics.query_throughput_qps:>11.2f} q/s")
    print(f" sustained               {str(metrics.sustained):>12}")
    print("\nper-wave deployment latency (first query of each wave):")
    for requested_at, latency in metrics.deployment_timeline()[::6]:
        print(f"  t={requested_at / 1000.0:5.1f}s -> {latency / 1000.0:5.2f}s")
    violations = qos.violations(report.deployment_latencies_ms)
    print(f"\nQoS violations: {violations or 'none'}")
    engine.shutdown()


if __name__ == "__main__":
    main()
