"""Tests for QoS-driven admission control."""

import pytest

from repro.core.admission import (
    AdmissionController,
    AdmissionDecision,
    AdmissionPolicy,
)
from repro.core.qos import QoSMonitor, QoSThresholds
from repro.core.query import SelectionQuery, TruePredicate
from tests.conftest import field_tuple, make_engine


def _query(name: str) -> SelectionQuery:
    return SelectionQuery(stream="A", predicate=TruePredicate(), query_id=name)


def _controller(thresholds=None, policy=None):
    qos = QoSMonitor(sample_every=1, thresholds=thresholds or QoSThresholds())
    engine = make_engine()
    return AdmissionController(engine, qos, policy), engine, qos


class TestAdmit:
    def test_healthy_system_admits(self):
        controller, engine, _ = _controller()
        decision = controller.submit(_query("q1"), now_ms=0)
        assert decision is AdmissionDecision.ADMIT
        engine.flush_session(0)
        assert engine.active_query_count == 1
        assert controller.admitted_total == 1

    def test_deletions_always_pass(self):
        controller, engine, _ = _controller(
            policy=AdmissionPolicy(max_active_queries=1)
        )
        controller.submit(_query("q1"), now_ms=0)
        engine.flush_session(0)
        controller.stop("q1", now_ms=10)
        engine.flush_session(10)
        assert engine.active_query_count == 0


class TestReject:
    def test_population_cap(self):
        controller, engine, _ = _controller(
            policy=AdmissionPolicy(max_active_queries=2)
        )
        assert controller.submit(_query("q1"), 0) is AdmissionDecision.ADMIT
        assert controller.submit(_query("q2"), 0) is AdmissionDecision.ADMIT
        # Pending (not yet flushed) requests count against the cap too.
        assert controller.submit(_query("q3"), 0) is AdmissionDecision.REJECT
        assert controller.rejected_total == 1

    def test_cap_frees_up_after_deletion(self):
        controller, engine, _ = _controller(
            policy=AdmissionPolicy(max_active_queries=1)
        )
        controller.submit(_query("q1"), 0)
        engine.flush_session(0)
        controller.stop("q1", now_ms=10)
        engine.flush_session(10)
        assert controller.submit(_query("q2"), 20) is AdmissionDecision.ADMIT


class TestDefer:
    def _violated_controller(self):
        thresholds = QoSThresholds(max_event_time_latency_ms=10)
        controller, engine, qos = _controller(thresholds=thresholds)
        # Manufacture a latency violation: deliver a very old tuple.
        qos.now_ms = 100_000
        qos.on_deliver("someone", 0)
        assert qos.violations()
        return controller, engine, qos

    def test_qos_violation_defers(self):
        controller, engine, _ = self._violated_controller()
        decision = controller.submit(_query("q1"), now_ms=0)
        assert decision is AdmissionDecision.DEFER
        assert controller.deferred_count == 1
        assert engine.session.pending_count == 0

    def test_retry_after_recovery(self):
        controller, engine, qos = self._violated_controller()
        controller.submit(_query("q1"), now_ms=0)
        # QoS recovers (new monitor state: reset the histogram).
        qos.latency.reset()
        admitted = controller.retry_deferred(now_ms=500)
        assert admitted == 1
        assert controller.deferred_count == 0
        engine.flush_session(500)
        assert engine.active_query_count == 1

    def test_retry_keeps_parked_while_violated(self):
        controller, _, _ = self._violated_controller()
        controller.submit(_query("q1"), now_ms=0)
        assert controller.retry_deferred(now_ms=500) == 0
        assert controller.deferred_count == 1

    def test_stopping_a_deferred_query_unparks_it(self):
        controller, engine, _ = self._violated_controller()
        controller.submit(_query("q1"), now_ms=0)
        controller.stop("q1", now_ms=100)
        assert controller.deferred_count == 0
        assert engine.session.pending_count == 0

    def test_deferred_overflow_rejects(self):
        thresholds = QoSThresholds(max_event_time_latency_ms=10)
        policy = AdmissionPolicy(max_deferred=1)
        qos = QoSMonitor(sample_every=1, thresholds=thresholds)
        engine = make_engine()
        controller = AdmissionController(engine, qos, policy)
        qos.now_ms = 100_000
        qos.on_deliver("someone", 0)
        assert controller.submit(_query("q1"), 0) is AdmissionDecision.DEFER
        assert controller.submit(_query("q2"), 0) is AdmissionDecision.REJECT

    def test_defer_disabled_admits_despite_violation(self):
        thresholds = QoSThresholds(max_event_time_latency_ms=10)
        qos = QoSMonitor(sample_every=1, thresholds=thresholds)
        engine = make_engine()
        controller = AdmissionController(
            engine, qos, AdmissionPolicy(defer_on_qos_violation=False)
        )
        qos.now_ms = 100_000
        qos.on_deliver("someone", 0)
        assert controller.submit(_query("q1"), 0) is AdmissionDecision.ADMIT
