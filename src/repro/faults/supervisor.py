"""Supervised recovery: detect injected failures, restore, measure MTTR.

The :class:`Supervisor` plays the role of Flink's job manager + restart
strategy on top of either engine:

* each :meth:`Supervisor.heartbeat` advances the fault injector's
  virtual clock, redelivers delayed records that came due, and checks for
  executed faults that corrupted state (node crashes, channel
  drops/duplicates, operator exceptions);
* any such fault triggers a **recovery**: the injector is detached, the
  engine recovers (checkpoint restore + fault-free input-log replay for
  :class:`~repro.core.engine.AStreamEngine`; full topology redeploy for
  the baseline), the injector is reattached to the fresh runtime, and a
  :class:`RecoveryEvent` records detection time, completion time, and
  MTTR — recovery deployment cost is charged through the cluster's
  :class:`~repro.minispe.cluster.DeploymentCostModel` in virtual time;
* between failures the supervisor takes **periodic checkpoints** (and
  optionally compacts the input log), which bound the replay a future
  recovery pays — the trade-off ``benchmarks/bench_fault_recovery.py``
  sweeps;
* if QoS violations persist after recoveries, the supervisor escalates
  to **load shedding** via the admission controller (§3.4's "external
  component" reacting to measurements beyond acceptable boundaries): new
  query creations are parked until QoS recovers.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import List, Optional

from repro.core.admission import AdmissionController
from repro.core.engine import RecoveryInfo
from repro.core.qos import QoSMonitor
from repro.faults.injector import FaultInjector, FaultRecord
from repro.minispe.checkpoint import CheckpointFailed
from repro.minispe.cluster import SimulatedCluster

logger = logging.getLogger("repro.faults.supervisor")


@dataclass
class SupervisorPolicy:
    """Operator-configured recovery behaviour."""

    checkpoint_interval_ms: int = 2_000
    """Virtual time between periodic checkpoints (0 disables them)."""
    detection_latency_ms: int = 50
    """Heartbeat-to-detection lag charged before recovery starts."""
    escalate_after_violations: int = 3
    """Consecutive post-recovery heartbeats with QoS violations before
    load shedding kicks in."""
    compact_log_on_checkpoint: bool = True
    """Truncate the engine's input log after each periodic checkpoint."""


@dataclass
class RecoveryEvent:
    """One supervised recovery, for MTTR/replay metrics and determinism
    assertions (same plan + same seed → identical event logs)."""

    cause: str
    detected_at_ms: int
    recovered_at_ms: int
    mttr_ms: int
    checkpoint_id: Optional[int] = None
    replayed_elements: int = 0
    faults: List[FaultRecord] = field(default_factory=list, repr=False)

    def describe(self) -> str:
        """Stable line for recovery-log comparisons."""
        return (
            f"detected@{self.detected_at_ms}ms recovered@{self.recovered_at_ms}ms "
            f"mttr={self.mttr_ms}ms ckpt={self.checkpoint_id} "
            f"replayed={self.replayed_elements} cause={self.cause}"
        )


class Supervisor:
    """Failure detection + supervised recovery for one engine.

    Works with both engines: ``engine.recover()`` returning a
    :class:`~repro.core.engine.RecoveryInfo` (AStream) or a plain count
    (baseline).  Checkpointing engages only when the engine supports it
    (``EngineConfig(log_inputs=True)``).
    """

    def __init__(
        self,
        engine,
        injector: Optional[FaultInjector] = None,
        cluster: Optional[SimulatedCluster] = None,
        admission: Optional[AdmissionController] = None,
        qos: Optional[QoSMonitor] = None,
        policy: Optional[SupervisorPolicy] = None,
    ) -> None:
        self.engine = engine
        self.injector = injector
        self.cluster = cluster or getattr(engine, "cluster", None)
        self.admission = admission
        self.qos = qos
        self.policy = policy or SupervisorPolicy()
        self.recovery_events: List[RecoveryEvent] = []
        self.busy_until_ms = 0
        """Virtual time until which the SUT is occupied by recovery work;
        the driver charges it as queueing delay / ACK timeout."""
        self.checkpoints_taken = 0
        self.checkpoint_failures = 0
        self.shedding_escalations = 0
        self.worker_failures_detected = 0
        """Dead/wedged shard workers surfaced by the pool's liveness
        monitor (heartbeat probing) and recovered here, with MTTR
        accounted like any other supervised recovery."""
        self._last_checkpoint_ms = 0
        self._violation_streak = 0
        config = getattr(engine, "config", None)
        self._can_checkpoint = bool(
            getattr(config, "log_inputs", False) and hasattr(engine, "checkpoint")
        )

    # -- main loop ----------------------------------------------------------

    def heartbeat(self, now_ms: int) -> Optional[RecoveryEvent]:
        """One supervision step: advance faults, recover, maybe checkpoint.

        Ordering matters: failures detected at this heartbeat are
        recovered *before* the periodic checkpoint fires, so a checkpoint
        never snapshots state corrupted by an unhandled fault.
        """
        event = None
        if self.injector is not None:
            self.injector.advance(now_ms)
            self.injector.drain_due_redeliveries(now_ms)
            failures = self.injector.unhandled_failures()
            if failures:
                event = self._recover(now_ms, failures)
        if event is None:
            event = self._probe_workers(now_ms)
        self._maybe_checkpoint(now_ms)
        self._check_qos(now_ms)
        return event

    def _probe_workers(self, now_ms: int) -> Optional[RecoveryEvent]:
        """Escalate proactively detected worker deaths into recovery.

        The process backend's pool monitor (``heartbeat_interval_s``)
        detects idle deaths and ack-deadline wedges between data-path
        calls; draining them here bounds detection latency by the
        supervision heartbeat instead of the next failed send.
        """
        poll = getattr(self.engine, "poll_worker_failures", None)
        if poll is None:
            return None
        failures = poll()
        if not failures:
            return None
        self.worker_failures_detected += len(failures)
        cause = "; ".join(
            f"worker_death: shard {failure.shard} ({failure.reason})"
            for failure in failures
        )
        return self._recover(now_ms, [], cause=cause)

    def notify_failure(self, now_ms: int, error: BaseException) -> RecoveryEvent:
        """A data-path call raised (e.g. an injected operator exception):
        recover immediately so the caller can retry the element."""
        failures = (
            self.injector.unhandled_failures() if self.injector is not None else []
        )
        if failures:
            return self._recover(now_ms, failures)
        return self._recover(now_ms, [], cause=f"external: {error}")

    # -- recovery -----------------------------------------------------------

    def _recover(
        self,
        now_ms: int,
        failures: List[FaultRecord],
        cause: Optional[str] = None,
    ) -> RecoveryEvent:
        if cause is None:
            cause = "; ".join(record.event.describe() for record in failures)
        detected_at = now_ms + self.policy.detection_latency_ms
        injector = self.injector
        if injector is not None and injector.attached:
            # Replay must be fault-free: a fault plan describes failures of
            # the crashed execution, not of its recovery.
            injector.detach()
        result = self.engine.recover()
        if isinstance(result, RecoveryInfo):
            checkpoint_id = result.checkpoint_id
            replayed = result.replayed_elements
        else:
            checkpoint_id = None
            replayed = 0
        runtime = getattr(self.engine, "runtime", None)
        if injector is not None and runtime is not None:
            injector.attach(runtime)
        cost_ms = self._recovery_cost_ms()
        recovered_at = detected_at + cost_ms
        self.busy_until_ms = max(self.busy_until_ms, recovered_at)
        fired_at = min(
            (record.fired_at_ms for record in failures), default=now_ms
        )
        event = RecoveryEvent(
            cause=cause,
            detected_at_ms=detected_at,
            recovered_at_ms=recovered_at,
            mttr_ms=recovered_at - fired_at,
            checkpoint_id=checkpoint_id,
            replayed_elements=replayed,
            faults=list(failures),
        )
        for record in failures:
            record.handled = True
        self.recovery_events.append(event)
        obs = getattr(self.engine, "obs", None)
        if obs is not None:
            for record in failures:
                obs.registry.counter("faults_injected").inc()
                obs.events.emit(
                    "fault_injected",
                    t_ms=record.fired_at_ms,
                    fault=record.event.describe(),
                )
            obs.registry.counter("supervised_recoveries").inc()
            obs.registry.histogram("mttr_ms").record(event.mttr_ms)
            obs.registry.histogram("recovery_replayed_elements").record(
                event.replayed_elements
            )
            obs.events.emit(
                "supervised_recovery",
                t_ms=now_ms,
                cause=cause,
                detected_at_ms=event.detected_at_ms,
                recovered_at_ms=event.recovered_at_ms,
                mttr_ms=event.mttr_ms,
                checkpoint_id=event.checkpoint_id,
                replayed_elements=event.replayed_elements,
            )
        logger.info(
            "supervised recovery: %s (mttr=%dms, replayed=%d)",
            cause,
            event.mttr_ms,
            event.replayed_elements,
        )
        return event

    def _recovery_cost_ms(self) -> int:
        instances = self._instance_count()
        if self.cluster is not None:
            return self.cluster.recovery_cost_ms(instances)
        return 0

    def _instance_count(self) -> int:
        graph = getattr(self.engine, "graph", None)
        if graph is not None:
            return graph.total_instances()
        jobs = getattr(self.engine, "_jobs", None)
        if jobs:
            return sum(job.instances for job in jobs.values())
        return 1

    # -- checkpointing ------------------------------------------------------

    def _maybe_checkpoint(self, now_ms: int) -> None:
        interval = self.policy.checkpoint_interval_ms
        if not self._can_checkpoint or interval <= 0:
            return
        if now_ms - self._last_checkpoint_ms < interval:
            return
        self._last_checkpoint_ms = now_ms
        try:
            self.engine.checkpoint()
        except CheckpointFailed:
            # Incomplete snapshot: skip this round, the previous
            # checkpoint stays authoritative for recovery.
            self.checkpoint_failures += 1
            return
        self.checkpoints_taken += 1
        if self.policy.compact_log_on_checkpoint:
            self.engine.compact_input_log()

    # -- QoS escalation -----------------------------------------------------

    def _check_qos(self, now_ms: int) -> None:
        if self.qos is None or self.admission is None:
            return
        if not self.recovery_events:
            return  # only escalate for *post-recovery* degradation
        latencies = [
            float(event.deployment_latency_ms)
            for event in getattr(self.engine, "deployment_events", [])
            if event.kind == "create"
        ]
        if self.qos.violations(latencies):
            self._violation_streak += 1
            if (
                self._violation_streak >= self.policy.escalate_after_violations
                and not self.admission.shedding
            ):
                self.admission.enter_shedding()
                self.shedding_escalations += 1
        else:
            self._violation_streak = 0
            if self.admission.shedding:
                self.admission.exit_shedding(now_ms)

    # -- metrics ------------------------------------------------------------

    @property
    def recovery_count(self) -> int:
        """Number of supervised recoveries performed so far."""
        return len(self.recovery_events)

    @property
    def mean_mttr_ms(self) -> float:
        """Mean time to recovery over all supervised recoveries."""
        if not self.recovery_events:
            return 0.0
        return sum(event.mttr_ms for event in self.recovery_events) / len(
            self.recovery_events
        )

    @property
    def total_replayed_elements(self) -> int:
        """Input-log entries replayed across all recoveries."""
        return sum(event.replayed_elements for event in self.recovery_events)

    def log_lines(self) -> List[str]:
        """The recovery log (stable; determinism assertions)."""
        return [event.describe() for event in self.recovery_events]
