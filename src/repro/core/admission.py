"""QoS-driven admission control for ad-hoc queries.

§3.4 ends with: "If measurements for a particular metric are beyond
acceptable boundaries, new resources can be added; however, elastic
scaling is out of the scope of this paper."  Without elastic scaling,
the remaining lever a multi-tenant operator has is *admission*: refuse
or defer new ad-hoc queries while the running population's QoS is at
risk, instead of letting one tenant degrade everyone.

:class:`AdmissionController` sits in front of an
:class:`~repro.core.engine.AStreamEngine`:

* **admit** — QoS healthy and below the population cap: forward to the
  shared session;
* **defer** — a soft limit tripped (e.g. event-time latency over the
  threshold): the request is parked and retried on :meth:`retry_deferred`
  once the metrics recover;
* **reject** — a hard limit tripped (population cap reached).

Deletions are always admitted — they can only help QoS.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import List, Optional

from repro.core.engine import AStreamEngine
from repro.core.qos import QoSMonitor
from repro.core.query import Query


class AdmissionDecision(enum.Enum):
    """Outcome of one admission check."""

    ADMIT = "admit"
    DEFER = "defer"
    REJECT = "reject"


@dataclass
class AdmissionPolicy:
    """Operator-configured limits."""

    max_active_queries: Optional[int] = None
    """Hard cap on concurrently active queries (None = unlimited)."""
    defer_on_qos_violation: bool = True
    """Park new queries while QoS thresholds are violated."""
    max_deferred: int = 1_000
    """Beyond this many parked requests, further queries are rejected."""


@dataclass
class _DeferredRequest:
    query: Query
    requested_at_ms: int


class AdmissionController:
    """Gates ad-hoc query creations on live QoS measurements."""

    def __init__(
        self,
        engine: AStreamEngine,
        qos: QoSMonitor,
        policy: Optional[AdmissionPolicy] = None,
    ) -> None:
        self.engine = engine
        self.qos = qos
        self.policy = policy or AdmissionPolicy()
        self.deferred: List[_DeferredRequest] = []
        self.admitted_total = 0
        self.rejected_total = 0
        self.deferred_total = 0
        self.shedding = False
        """While True, every new creation is deferred regardless of the
        current QoS reading — set by the fault supervisor when violations
        persist after a recovery (§3.4's "external component")."""

    # -- load shedding (supervisor escalation) -------------------------------

    def enter_shedding(self) -> None:
        """Park all new query creations until :meth:`exit_shedding`."""
        self.shedding = True

    def exit_shedding(self, now_ms: int) -> int:
        """Resume admissions; re-runs the parked queue, returns admits."""
        self.shedding = False
        return self.retry_deferred(now_ms)

    # -- intake ---------------------------------------------------------------

    def submit(self, query: Query, now_ms: int) -> AdmissionDecision:
        """Admit, defer, or reject one query-creation request."""
        decision = self._decide()
        if decision is AdmissionDecision.ADMIT:
            self.engine.submit(query, now_ms)
            self.admitted_total += 1
        elif decision is AdmissionDecision.DEFER:
            self.deferred.append(_DeferredRequest(query, now_ms))
            self.deferred_total += 1
        else:
            self.rejected_total += 1
        return decision

    def stop(self, query_id: str, now_ms: int) -> None:
        """Deletions always pass through (they relieve pressure)."""
        parked = [
            request
            for request in self.deferred
            if request.query.query_id == query_id
        ]
        if parked:
            self.deferred = [
                request
                for request in self.deferred
                if request.query.query_id != query_id
            ]
            return
        self.engine.stop(query_id, now_ms)

    def _decide(self) -> AdmissionDecision:
        policy = self.policy
        pending = self.engine.session.pending_count
        active = self.engine.active_query_count + pending
        if (
            policy.max_active_queries is not None
            and active >= policy.max_active_queries
        ):
            return AdmissionDecision.REJECT
        if self.shedding:
            if len(self.deferred) >= policy.max_deferred:
                return AdmissionDecision.REJECT
            return AdmissionDecision.DEFER
        if policy.defer_on_qos_violation and self._qos_violated():
            if len(self.deferred) >= policy.max_deferred:
                return AdmissionDecision.REJECT
            return AdmissionDecision.DEFER
        return AdmissionDecision.ADMIT

    def _qos_violated(self) -> bool:
        latencies = [
            float(event.deployment_latency_ms)
            for event in self.engine.deployment_events
            if event.kind == "create"
        ]
        return bool(self.qos.violations(latencies))

    # -- recovery ----------------------------------------------------------------

    def retry_deferred(self, now_ms: int) -> int:
        """Re-run admission for parked requests; returns how many got in."""
        admitted = 0
        still_parked: List[_DeferredRequest] = []
        for request in self.deferred:
            if self._decide() is AdmissionDecision.ADMIT:
                self.engine.submit(request.query, now_ms)
                self.admitted_total += 1
                admitted += 1
            else:
                still_parked.append(request)
        self.deferred = still_parked
        return admitted

    @property
    def deferred_count(self) -> int:
        """Requests currently parked."""
        return len(self.deferred)
