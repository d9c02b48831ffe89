"""Worker liveness probing: idle deaths and wedges, bounded detection.

Before the monitor, a worker that died while *idle* was invisible until
the next data-path send raised; a worker wedged mid-op held the
coordinator's blocked ``recv`` forever.  The pool's heartbeat monitor
(``heartbeat_interval_s``) bounds idle-death detection by the probe
period, and the ack deadline (``ack_deadline_s``) SIGKILLs a worker
with outstanding frames and no pipe progress so recovery can proceed.
The supervisor drains both via ``poll_worker_failures`` and escalates
into an ordinary supervised recovery with MTTR accounting.
"""

import os
import signal
import time

import pytest

from repro.core.engine import EngineConfig
from repro.core.parallel_engine import ProcessAStreamEngine
from repro.faults.supervisor import Supervisor, SupervisorPolicy
from repro.minispe.parallel import ProcessShardPool, ShardProgram
from repro.workloads.querygen import QueryGenerator
from repro.workloads.scenarios import sc1_schedule

HEARTBEAT_S = 0.05
DETECTION_BOUND_S = 2.0
"""Generous CI bound — the point is that detection is bounded by probe
cadence at all, not by the (possibly never) next data-path send."""


class SleepyProgram(ShardProgram):
    """Toy program that can wedge inside an op."""

    def __init__(self, shard_index, shard_count):
        self.shard_index = shard_index
        self.shard_count = shard_count
        self.values = []

    def apply(self, op):
        kind = op[0]
        if kind == "add":
            self.values.append(op[1])
            return None
        if kind == "sleep":
            time.sleep(op[1])
            return None
        if kind == "values":
            return list(self.values)
        raise ValueError(f"unknown op {kind!r}")

    def take_deliveries(self, limit=None):
        return []


def _wait_for_failures(poll, timeout_s=DETECTION_BOUND_S):
    """Poll until the liveness monitor reports; returns (failures, s)."""
    started = time.monotonic()
    while time.monotonic() - started < timeout_s:
        failures = poll()
        if failures:
            return failures, time.monotonic() - started
        time.sleep(0.01)
    return [], time.monotonic() - started


class TestPoolLiveness:
    def test_idle_worker_death_detected_within_probe_bound(self):
        pool = ProcessShardPool(
            2, SleepyProgram, heartbeat_interval_s=HEARTBEAT_S
        )
        try:
            assert pool.sync(("values",)) == [[], []]  # both alive
            # Kill behind the pool's back: the process dies while idle,
            # with no in-flight frame to error on.
            os.kill(pool._handles[0].process.pid, signal.SIGKILL)
            failures, elapsed = _wait_for_failures(pool.poll_failures)
            assert failures, (
                f"idle death not detected within {DETECTION_BOUND_S}s"
            )
            assert failures[0].shard == 0
            assert failures[0].reason == "exit"
            assert elapsed < DETECTION_BOUND_S
            assert pool.alive_workers == 1
            # The surviving shard still answers.
            assert pool.sync_one(1, ("values",)) == []
        finally:
            pool.terminate()

    def test_wedged_worker_hits_ack_deadline(self):
        pool = ProcessShardPool(
            2,
            SleepyProgram,
            frame_records=1,  # each submit ships (and counts) immediately
            heartbeat_interval_s=HEARTBEAT_S,
            ack_deadline_s=0.3,
        )
        try:
            pool.submit(0, ("sleep", 60.0))
            pool.submit(0, ("add", 1))  # outstanding work behind the wedge
            failures, _ = _wait_for_failures(pool.poll_failures)
            assert failures
            assert failures[0].shard == 0
            assert failures[0].reason == "ack_deadline"
            assert pool.alive_workers == 1
        finally:
            pool.terminate()

    def test_no_monitor_means_no_proactive_detection(self):
        pool = ProcessShardPool(2, SleepyProgram)
        try:
            os.kill(pool._handles[0].process.pid, signal.SIGKILL)
            time.sleep(0.2)
            assert pool.poll_failures() == []  # only the next send notices
        finally:
            pool.terminate()


class TestSupervisedWorkerDeath:
    def test_idle_death_recovers_with_mttr_accounting(self):
        engine = ProcessAStreamEngine(
            EngineConfig(streams=("A", "B"), parallelism=1, log_inputs=True),
            workers=2,
            heartbeat_interval_s=HEARTBEAT_S,
        )
        supervisor = Supervisor(
            engine, policy=SupervisorPolicy(checkpoint_interval_ms=0)
        )
        try:
            schedule = sc1_schedule(
                QueryGenerator(streams=("A", "B"), seed=71), 1, 2, kind="agg"
            )
            for request in schedule.sorted():
                if request.kind == "create":
                    engine.submit(request.query, now_ms=0)
            for offset in range(40):
                engine.push("A", offset * 10, {"v": offset})
            engine.watermark(1_000)
            engine.checkpoint()
            # The worker dies idle; only the heartbeat probe can see it.
            os.kill(
                engine.runtime.pool._handles[0].process.pid, signal.SIGKILL
            )
            deadline = time.monotonic() + DETECTION_BOUND_S
            event = None
            now_ms = 2_000
            while event is None and time.monotonic() < deadline:
                event = supervisor.heartbeat(now_ms)
                now_ms += 50
                time.sleep(0.01)
            assert event is not None, "supervisor never saw the death"
            assert "worker_death: shard 0 (exit)" in event.cause
            assert event.mttr_ms >= 0
            assert supervisor.worker_failures_detected == 1
            assert supervisor.recovery_count == 1
            assert supervisor.mean_mttr_ms == event.mttr_ms
            assert engine.alive_workers == 2  # recovery rebuilt the pool
            counters = engine.worker_failure_counters()
            assert counters["worker_failures_by_reason"] == {"exit": 1}
            # The replayed engine still answers data-path calls.
            engine.push("A", 2_000, {"v": 99})
            engine.drain()
        finally:
            engine.shutdown()
