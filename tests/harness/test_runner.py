"""Tests for the experiment runner."""

import pytest

from repro.core.engine import AStreamEngine
from repro.baseline import QueryAtATimeEngine
from repro.core.qos import QoSMonitor
from repro.harness.runner import (
    RunnerConfig,
    build_sut,
    run_scenario,
    sustainable_query_search,
)


def _quick_config(**overrides) -> RunnerConfig:
    defaults = dict(input_rate_tps=100.0, duration_s=3.0)
    defaults.update(overrides)
    return RunnerConfig(**defaults)


class TestBuildSut:
    def test_astream(self):
        engine, adapter = build_sut(_quick_config(sut="astream"), QoSMonitor())
        assert isinstance(engine, AStreamEngine)
        assert adapter.name == "astream"

    def test_flink(self):
        engine, adapter = build_sut(_quick_config(sut="flink"), QoSMonitor())
        assert isinstance(engine, QueryAtATimeEngine)
        assert adapter.name == "flink"

    def test_flink_free_has_zero_deploy_cost(self):
        engine, _ = build_sut(_quick_config(sut="flink-free"), QoSMonitor())
        assert engine.deployment.job_submit_ms == 0
        assert engine.deployment.cold_start_ms == 0

    def test_unknown_rejected(self):
        with pytest.raises(ValueError):
            build_sut(_quick_config(sut="nope"), QoSMonitor())


class TestRunScenario:
    def test_sc1(self):
        metrics = run_scenario(
            _quick_config(), scenario="sc1",
            queries_per_second=2, query_parallelism=2, kind="agg",
        )
        assert metrics.slowest_data_throughput_tps > 0
        assert metrics.report.active_queries_final == 2

    def test_single(self):
        metrics = run_scenario(_quick_config(), scenario="single", kind="join")
        assert metrics.report.active_queries_final == 1

    def test_sc2(self):
        metrics = run_scenario(
            _quick_config(duration_s=5.0), scenario="sc2",
            queries_per_batch=2, batch_interval_s=2, batches=2, kind="agg",
        )
        assert metrics.report.active_queries_final == 2

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ValueError):
            run_scenario(_quick_config(), scenario="sc9")

    def test_speedup_applied(self):
        four = run_scenario(_quick_config(nodes=4), scenario="single", kind="agg")
        assert four.speedup == pytest.approx(1.0)
        eight = run_scenario(_quick_config(nodes=8), scenario="single", kind="agg")
        assert eight.speedup == pytest.approx(2 ** 0.5)
        # Worker processes are measured, not modelled: no factor on top.
        measured = run_scenario(
            _quick_config(nodes=8, backend="process", workers=1),
            scenario="single",
            kind="agg",
        )
        assert measured.speedup == pytest.approx(1.0)

    def test_engine_exposed_for_component_stats(self):
        metrics = run_scenario(
            _quick_config(), scenario="single", kind="join"
        )
        stats = metrics.engine.component_stats()
        assert stats["predicate_evaluations"] > 0


class TestSustainableSearch:
    def test_zero_when_nothing_sustains(self):
        config = _quick_config(duration_s=2.0)
        count = sustainable_query_search(
            config, low=1, high=4, min_throughput_tps=10**12
        )
        assert count == 0

    def test_finds_a_positive_count_at_modest_threshold(self):
        config = _quick_config(duration_s=2.0)
        count = sustainable_query_search(
            config, low=1, high=8, min_throughput_tps=10.0
        )
        assert count >= 1

    def test_capacity_error_reads_as_not_sustained(self, monkeypatch):
        from repro.harness import runner
        from repro.minispe.cluster import ClusterCapacityError

        def full(*args, **kwargs):
            raise ClusterCapacityError("cluster is full")

        monkeypatch.setattr(runner, "run_scenario", full)
        assert sustainable_query_search(_quick_config(), low=1, high=4) == 0

    def test_a_crashing_probe_surfaces(self, monkeypatch):
        # A bug in a probe run must not read as a capacity number.
        from repro.harness import runner

        def crash(*args, **kwargs):
            raise RuntimeError("planted")

        monkeypatch.setattr(runner, "run_scenario", crash)
        with pytest.raises(RuntimeError, match="planted"):
            sustainable_query_search(_quick_config(), low=1, high=4)
