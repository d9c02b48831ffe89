"""Figure 11: SC1 mean query deployment latency.

Paper series: AStream/Flink single query plus AStream's SC1
configurations; Flink's single deployment is several seconds while
AStream's steady-state deployments sit within the changelog timeout.
"""

from repro.harness.figures import fig11_sc1_deployment


def bench_fig11(benchmark, quick, record_figure):
    result = benchmark.pedantic(
        fig11_sc1_deployment, kwargs={"quick": quick}, rounds=1, iterations=1
    )
    record_figure(result)
    for row in result.rows:
        if row["sut"] == "flink":
            # A Flink job deployment is in the multi-second range.
            assert row["mean_deploy_s"] > 3
        elif row["config"] != "single query":
            # AStream steady-state deployment: bounded by batching (the
            # mean includes the one-off cold start in the max only).
            assert row["mean_deploy_s"] < 3
