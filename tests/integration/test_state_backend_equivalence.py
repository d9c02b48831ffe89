"""The state backend must be invisible in the output (ISSUE 10).

``EngineConfig.state_backend`` swaps the physical home of keyed window
state — in-memory dicts vs the spill-to-disk LSM store — without
touching the computation, so SC-style scenario runs must stay
byte-identical across ``{memory, lsm}`` on both the inline and the
process engine, through a SIGKILLed worker recovered from an
(incremental) checkpoint + input-log replay, and through a live resize
whose migration re-splits spilled state by key hash.
"""

import pytest

from repro.core.engine import AStreamEngine, EngineConfig
from repro.core.parallel_engine import ProcessAStreamEngine
from repro.workloads.datagen import DataGenerator
from repro.workloads.querygen import QueryGenerator
from repro.workloads.scenarios import sc1_schedule, sc2_schedule

STREAMS = ("A", "B")
STEPS = 20
STEP_MS = 250
RECORDS_PER_STEP = 20
BACKENDS = ("memory", "lsm")

# Built once: query ids carry a process-global counter, so comparison
# runs must share one schedule or identical queries get different ids.
SC1_SCHEDULE = sc1_schedule(
    QueryGenerator(streams=STREAMS, seed=101), 1, 4, kind="agg"
)
SC2_SCHEDULE = sc2_schedule(
    QueryGenerator(streams=STREAMS, seed=102), 2, 3, 2, kind="agg"
)


def _canonical(engine):
    return {
        query_id: [
            (output.timestamp, repr(output.value))
            for output in engine.canonical_results(query_id)
        ]
        for query_id in sorted(engine.result_counts())
    }


def _run(
    schedule,
    state_backend="memory",
    workers=None,
    kill_at_step=None,
    resize_at_step=None,
    resize_to=4,
):
    """Drive one scenario; ``workers=None`` runs the inline engine.

    The driver is bypassed so kills and resizes land at exact points in
    the element sequence; every run sees the identical interleaving of
    submissions, records, watermarks, and checkpoint barriers.  The lsm
    runs use a tiny memtable so slices genuinely spill to segments.
    """
    config = EngineConfig(
        streams=STREAMS,
        parallelism=1,
        log_inputs=True,
        state_backend=state_backend,
        state_memtable_entries=32,
    )
    if workers is None:
        engine = AStreamEngine(config)
    else:
        engine = ProcessAStreamEngine(config, workers=workers)
    data = DataGenerator(seed=5)
    events = sorted(schedule.requests, key=lambda event: event.at_ms)
    index = 0
    recovery = None
    for step in range(STEPS):
        now = step * STEP_MS
        engine.watermark(now)
        while index < len(events) and events[index].at_ms <= now:
            event = events[index]
            index += 1
            if event.kind == "create":
                engine.submit(event.query, now_ms=now)
            else:
                engine.stop(event.query_id, now_ms=now)
        engine.tick(now)
        if workers is not None and step == resize_at_step:
            engine.begin_resize(resize_to)
            assert engine.migration_active
        for stream in STREAMS:
            for offset in range(RECORDS_PER_STEP):
                engine.push(stream, now + offset * 12, data.next_tuple())
        if workers is not None and engine.migration_active:
            engine.migration_step()
        if step % 6 == 3:
            engine.checkpoint()
        if kill_at_step is not None and step == kill_at_step:
            if workers is None:
                recovery = engine.recover()
            else:
                engine.kill_worker(0)
                assert engine.alive_workers == workers - 1
                recovery = engine.recover()
                assert engine.alive_workers == workers
    engine.watermark(STEPS * STEP_MS + 10_000)
    if hasattr(engine, "drain"):
        engine.drain()
    outputs = _canonical(engine)
    summary = engine.state_summary()
    engine.shutdown()
    return outputs, summary, recovery


class TestBackendEquivalence:
    @pytest.mark.parametrize(
        "schedule", [SC1_SCHEDULE, SC2_SCHEDULE], ids=["sc1", "sc2"]
    )
    def test_lsm_equals_memory_inline_and_process(self, schedule):
        oracle, _, _ = _run(schedule, state_backend="memory")
        assert oracle and any(oracle.values())
        lsm, summary, _ = _run(schedule, state_backend="lsm")
        assert lsm == oracle
        assert summary["state_backend"] == "lsm"
        assert summary["spilled_bytes"] > 0, "lsm run never spilled"
        for backend in BACKENDS:
            outputs, _, _ = _run(schedule, state_backend=backend, workers=2)
            assert outputs == oracle, f"process/{backend} diverged"

    def test_lsm_runs_are_deterministic(self):
        first = _run(SC1_SCHEDULE, state_backend="lsm")[0]
        second = _run(SC1_SCHEDULE, state_backend="lsm")[0]
        assert first == second


class TestLsmChaos:
    def test_kill_and_recover_on_lsm_is_exactly_once(self):
        oracle, _, _ = _run(SC1_SCHEDULE, state_backend="memory")
        faulted, _, recovery = _run(
            SC1_SCHEDULE, state_backend="lsm", workers=2, kill_at_step=10
        )
        assert recovery is not None and recovery.replayed_elements > 0
        assert faulted == oracle

    def test_inline_recover_restores_spilled_state(self):
        oracle, _, _ = _run(SC1_SCHEDULE, state_backend="memory")
        recovered, _, _ = _run(
            SC1_SCHEDULE, state_backend="lsm", kill_at_step=10
        )
        assert recovered == oracle

    def test_live_resize_on_lsm_preserves_outputs(self):
        oracle, _, _ = _run(SC1_SCHEDULE, state_backend="memory")
        for start, target in ((2, 4), (4, 2)):
            outputs, _, _ = _run(
                SC1_SCHEDULE,
                state_backend="lsm",
                workers=start,
                resize_at_step=7,
                resize_to=target,
            )
            assert outputs == oracle, f"lsm resize {start}->{target} diverged"

