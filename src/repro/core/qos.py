"""Quality-of-service monitoring (§3.4).

In an ad-hoc multi-query environment, QoS spans more metrics than a
classic SPE benchmark: individual query throughput, overall query
throughput, data throughput, data (event-time) latency, and query
deployment latency.  :class:`QoSMonitor` collects all of them from a
running :class:`~repro.core.engine.AStreamEngine`:

* event-time latency is sampled at the sinks, like AStream's extension
  of Flink's latency markers — the monitor hooks the router's delivery
  callback and periodically samples a tuple, measuring the distance
  between its event time and the current (virtual) processing time;
* deployment latency comes from the engine's deployment events;
* throughput counters come from the per-query channels.

If measurements exceed acceptable boundaries, an external component can
react (elastic scaling is out of scope — §3.4); the monitor exposes
:meth:`violations` for that purpose.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.obs.registry import Histogram


@dataclass
class QoSThresholds:
    """Acceptable boundaries; None disables a check."""

    max_event_time_latency_ms: Optional[float] = None
    max_deployment_latency_ms: Optional[float] = None
    min_query_throughput: Optional[float] = None
    max_slo_burn_rate: Optional[float] = None
    """Per-query SLO error-budget burn rate (violating fraction over the
    allowed fraction) above which the query is flagged; the serving
    layer uses the same threshold to apply subscription pressure."""


class QoSMonitor:
    """Samples QoS metrics from an engine's sinks and deployment events.

    ``now_fn`` supplies the current virtual processing time, so latency
    samples measure event-time lag the way the paper's driver does
    (Figure 5: tuple event time vs its emission time from the SUT).
    """

    def __init__(
        self,
        now_fn: Optional[Callable[[], int]] = None,
        sample_every: int = 100,
        thresholds: Optional[QoSThresholds] = None,
    ) -> None:
        if sample_every <= 0:
            raise ValueError(f"sample_every must be positive, got {sample_every}")
        self.now_ms = 0
        """Fallback clock when no ``now_fn`` is given; the driver updates
        it every step."""
        self._now_fn = now_fn or (lambda: self.now_ms)
        self._sample_every = sample_every
        self.thresholds = thresholds or QoSThresholds()
        self.latency = Histogram("event_time_latency_ms")
        self.latency_series: List[tuple] = []
        """Timestamped samples ``(now_ms, lag_ms)`` for timeline figures."""
        self.per_query_latency: Dict[str, Histogram] = {}
        self.per_query_delivered: Dict[str, int] = {}
        self.per_query_burn: Dict[str, float] = {}
        """Latest SLO burn rate reported per query (serving layer)."""
        self._since_sample = 0

    # -- wiring ---------------------------------------------------------------

    def on_deliver(self, query_id: str, timestamp: int, count: int = 1) -> None:
        """Router delivery hook: ``count`` results of ``query_id`` were
        handed over, the last at ``timestamp``.  Counts them, and samples
        latency once when the hand-over crosses ``sample_every``."""
        self.per_query_delivered[query_id] = (
            self.per_query_delivered.get(query_id, 0) + count
        )
        self._since_sample += count
        if self._since_sample >= self._sample_every:
            self._since_sample %= self._sample_every
            now = self._now_fn()
            lag = now - timestamp
            self.latency.record(lag)
            self.latency_series.append((now, lag))
            per_query = self.per_query_latency.get(query_id)
            if per_query is None:
                per_query = Histogram(f"latency:{query_id}")
                self.per_query_latency[query_id] = per_query
            per_query.record(lag)

    def observe_burn(self, query_id: str, burn_rate: float) -> None:
        """Record the latest SLO error-budget burn rate for a query."""
        self.per_query_burn[query_id] = burn_rate

    # -- reporting ----------------------------------------------------------------

    def mean_latency_ms(self) -> float:
        """Mean sampled event-time latency across all queries."""
        return self.latency.mean()

    def slowest_query(self) -> Optional[str]:
        """The query with the fewest delivered results (min-QoS view)."""
        if not self.per_query_delivered:
            return None
        return min(self.per_query_delivered, key=self.per_query_delivered.get)

    def overall_delivered(self) -> int:
        """Results delivered across all queries."""
        return sum(self.per_query_delivered.values())

    def violations(
        self, deployment_latencies_ms: List[float] = ()
    ) -> List[str]:
        """Human-readable threshold violations (empty = QoS holds)."""
        problems = []
        limits = self.thresholds
        if (
            limits.max_event_time_latency_ms is not None
            and self.latency.count
            and self.latency.mean() > limits.max_event_time_latency_ms
        ):
            problems.append(
                f"mean event-time latency {self.latency.mean():.0f}ms exceeds "
                f"{limits.max_event_time_latency_ms:.0f}ms"
            )
        if limits.max_deployment_latency_ms is not None:
            late = [
                latency
                for latency in deployment_latencies_ms
                if latency > limits.max_deployment_latency_ms
            ]
            if late:
                problems.append(
                    f"{len(late)} deployments exceed "
                    f"{limits.max_deployment_latency_ms:.0f}ms"
                )
        if limits.min_query_throughput is not None:
            starved = [
                query_id
                for query_id, delivered in self.per_query_delivered.items()
                if delivered < limits.min_query_throughput
            ]
            if starved:
                problems.append(
                    f"{len(starved)} queries below the minimum result rate"
                )
        if limits.max_slo_burn_rate is not None:
            burning = [
                query_id
                for query_id, burn in self.per_query_burn.items()
                if burn >= limits.max_slo_burn_rate
            ]
            for query_id in sorted(burning):
                problems.append(
                    f"slo_burn: query {query_id} burning error budget at "
                    f"{self.per_query_burn[query_id]:.2f}x "
                    f"(limit {limits.max_slo_burn_rate:.2f}x)"
                )
        return problems
