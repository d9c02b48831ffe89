"""Smoke tests for the figure experiments.

The full figure runs are benchmarks; here we verify the cheapest figures
end-to-end (shape assertions included) and the registry's completeness.
"""

import pytest

from repro.harness import figures
from repro.harness.report import render_table


class TestRegistry:
    def test_every_paper_figure_has_an_experiment(self):
        expected = {f"fig{number:02d}" for number in range(9, 21)}
        # Companions (e.g. the measured process-backend scaling run)
        # may extend the registry; every paper figure must be present.
        assert expected <= set(figures.ALL_FIGURES)
        assert "fig17_measured" in figures.ALL_FIGURES

    def test_all_entries_callable(self):
        for name, experiment in figures.ALL_FIGURES.items():
            assert callable(experiment), name


class TestFigure10:
    def test_shapes(self):
        result = figures.fig10_deployment_timeline(quick=True)
        flink = [row for row in result.rows if row["sut"] == "flink"]
        astream = [row for row in result.rows if row["sut"] == "astream"]
        # Flink deployment latency climbs monotonically (queueing).
        flink_latencies = [row["latency_s"] for row in flink]
        assert flink_latencies == sorted(flink_latencies)
        assert flink_latencies[-1] > 20
        # AStream pays the cold start once, then stays within the
        # changelog timeout (~1s).
        astream_latencies = [row["latency_s"] for row in astream]
        assert astream_latencies[0] > 5
        assert max(astream_latencies[2:]) <= 1.5
        assert render_table(result)


class TestFigure18:
    def test_component_percentages_sum_to_100(self):
        result = figures.fig18_overhead(quick=True)
        # The split comes from the observe spans: every quick
        # parallelism must have traced some overhead and yield a row.
        assert [row["query_parallelism"] for row in result.rows] == [1, 2, 8, 32]
        for row in result.rows:
            total = (
                row["queryset_gen_pct"]
                + row["bitset_ops_pct"]
                + row["router_copy_pct"]
            )
            assert total == pytest.approx(100.0, abs=0.1)
            assert 0.0 <= row["total_overhead_pct"] <= 100.0
