"""Tests for the QoS monitor."""

import pytest

from repro.core.qos import QoSMonitor, QoSThresholds


class TestSampling:
    def test_samples_every_nth_delivery(self):
        monitor = QoSMonitor(sample_every=3)
        monitor.now_ms = 1_000
        for _ in range(9):
            monitor.on_deliver("q", 400)
        assert monitor.latency.count == 3
        assert monitor.mean_latency_ms() == 600

    def test_per_query_counters(self):
        monitor = QoSMonitor(sample_every=1)
        monitor.on_deliver("a", 0)
        monitor.on_deliver("a", 0)
        monitor.on_deliver("b", 0)
        assert monitor.per_query_delivered == {"a": 2, "b": 1}
        assert monitor.slowest_query() == "b"
        assert monitor.overall_delivered() == 3

    def test_custom_now_fn(self):
        clock = {"now": 500}
        monitor = QoSMonitor(now_fn=lambda: clock["now"], sample_every=1)
        monitor.on_deliver("q", 100)
        assert monitor.latency.mean() == 400

    def test_validation(self):
        with pytest.raises(ValueError):
            QoSMonitor(sample_every=0)

    def test_slowest_query_empty(self):
        assert QoSMonitor().slowest_query() is None


class TestViolations:
    def test_no_violations_by_default(self):
        monitor = QoSMonitor(sample_every=1)
        monitor.on_deliver("q", 0)
        assert monitor.violations() == []

    def test_latency_violation(self):
        monitor = QoSMonitor(
            sample_every=1,
            thresholds=QoSThresholds(max_event_time_latency_ms=100),
        )
        monitor.now_ms = 1_000
        monitor.on_deliver("q", 0)
        assert any("latency" in problem for problem in monitor.violations())

    def test_deployment_violation(self):
        monitor = QoSMonitor(
            thresholds=QoSThresholds(max_deployment_latency_ms=1_000),
        )
        problems = monitor.violations(deployment_latencies_ms=[500, 5_000])
        assert any("deployments exceed" in problem for problem in problems)

    def test_throughput_violation(self):
        monitor = QoSMonitor(
            sample_every=1,
            thresholds=QoSThresholds(min_query_throughput=5),
        )
        monitor.on_deliver("starved", 0)
        assert any("minimum result rate" in p for p in monitor.violations())


class TestBoundedState:
    def test_a_million_deliveries_with_churn_keep_recent_samples_only(self):
        """A scripted schedule of 10**6 deliveries: 50 queries live at a
        time, one deleted and one created every 2,000 deliveries, a sample
        on every delivery.  The latency stores keep the newest
        ``RECENT_SAMPLES`` and the per-query counts only the live
        queries, however long the schedule runs."""
        from repro.core.qos import RECENT_SAMPLES

        clock = {"now": 0}
        monitor = QoSMonitor(now_fn=lambda: clock["now"], sample_every=1)
        live = [f"q{index}" for index in range(50)]
        created = len(live)
        for delivery in range(1_000_000):
            if delivery and delivery % 2_000 == 0:
                monitor.forget(live.pop(0))
                live.append(f"q{created}")
                created += 1
            clock["now"] = delivery
            monitor.on_deliver(live[delivery % len(live)], delivery - delivery % 7)
        assert created == 549
        assert monitor.latency.count == len(monitor.latency_series) == RECENT_SAMPLES
        assert RECENT_SAMPLES < 1_000_000
        assert monitor.latency.dropped == 1_000_000 - RECENT_SAMPLES
        # The newest samples are the ones kept, in order.
        assert monitor.latency_series[0] == (1_000_000 - RECENT_SAMPLES, (1_000_000 - RECENT_SAMPLES) % 7)
        assert monitor.latency_series[-1] == (999_999, 999_999 % 7)
        assert sorted(monitor.latency.samples()) == sorted(lag for _, lag in monitor.latency_series)
        assert set(monitor.per_query_delivered) == set(live)
        assert monitor.overall_delivered() < 1_000_000

    def test_forget_drops_a_query_and_keeps_the_rest(self):
        monitor = QoSMonitor(sample_every=1)
        monitor.on_deliver("a", 0)
        monitor.on_deliver("b", 0, 3)
        monitor.observe_burn("a", 2.0)
        monitor.forget("a")
        monitor.forget("never-seen")
        assert monitor.per_query_delivered == {"b": 3}
        assert monitor.per_query_burn == {}
        assert monitor.latency.count == 2
