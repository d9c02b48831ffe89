"""Figure 10: query deployment latency timeline at 1 q/s.

Paper series: per-query deployment latency for Flink (climbing to ~80 s,
910 s summed over 20 queries) and AStream (~7 s first deployment, then
within the 1 s changelog timeout).
"""

from repro.harness.figures import fig10_deployment_timeline


def bench_fig10(benchmark, quick, record_figure):
    result = benchmark.pedantic(
        fig10_deployment_timeline, kwargs={"quick": quick}, rounds=1, iterations=1
    )
    record_figure(result)
    flink = [row["latency_s"] for row in result.rows if row["sut"] == "flink"]
    astream = [row["latency_s"] for row in result.rows if row["sut"] == "astream"]
    # Flink queues deployments: latency strictly climbs, far past 10 s.
    assert flink == sorted(flink)
    assert flink[-1] > 20
    assert sum(flink) > 10 * sum(astream[1:])
    # AStream: one-off topology deployment, then bounded by the timeout.
    assert astream[0] > 5
    assert max(astream[2:]) <= 1.5
