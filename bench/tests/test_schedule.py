"""The schedule is a pure function of (workload, seed, seconds)."""

from bench.workloads import WORKLOADS, build_schedule


def test_same_seed_gives_identical_frames():
    for name in ("agg-100q-churn", "join-100q"):
        first = build_schedule(WORKLOADS[name], 7, 0.5)
        second = build_schedule(WORKLOADS[name], 7, 0.5)
        assert first.frame_hash() == second.frame_hash()
        assert first.identity() == second.identity()


def test_other_seed_gives_other_frames_but_the_same_queries():
    first = build_schedule(WORKLOADS["agg-100q"], 7, 0.5)
    second = build_schedule(WORKLOADS["agg-100q"], 8, 0.5)
    assert first.frame_hash() != second.frame_hash()
    assert first.population == second.population
    assert [len(tick.batches[0][1]) for tick in first.ticks] == [
        len(tick.batches[0][1]) for tick in second.ticks
    ]


def test_process_twin_shares_the_inline_input_prefix():
    inline = build_schedule(WORKLOADS["agg-100q"], 7, 1.0)
    twin = build_schedule(WORKLOADS["agg-100q-proc2"], 7, 1.0)
    assert twin.population == inline.population
    shared = min(len(twin.phase("S")), len(inline.phase("S")))
    assert shared > 0
    assert [t.batches for t in twin.phase("S")[:shared]] == [
        t.batches for t in inline.phase("S")[:shared]
    ]


def test_churn_replaces_ten_queries_every_event_second():
    schedule = build_schedule(WORKLOADS["agg-100q-churn"], 7, 1.0)
    rounds = [tick for tick in schedule.ticks if tick.controls]
    assert rounds, "a one-second run still crosses event-second boundaries"
    live = {query.query_id for query in schedule.population}
    for tick in rounds:
        assert [c.op for c in tick.controls] == ["delete"] * 10 + ["create"] * 10
        for control in tick.controls:
            if control.op == "delete":
                live.remove(control.query_id)
            else:
                live.add(control.query_id)
        assert len(live) == 100


def test_phase_s_is_whole_event_seconds():
    for workload in WORKLOADS.values():
        ticks = build_schedule(workload, 7, 1.0).phase("S")
        assert ticks[0].start_ms % 1_000 == 0
        assert ticks[-1].watermark_ms % 1_000 == 0


def test_replay_visits_the_schedule_in_wire_order():
    schedule = build_schedule(WORKLOADS["agg-100q-churn"], 7, 1.0)
    seen = []
    schedule.replay(
        lambda control, now_ms, index: seen.append(("control", index, control.op)),
        lambda index, tick, stream, events: seen.append(("push", index, stream)),
        lambda index, tick: seen.append(("watermark", index, tick.phase)),
        phases=("warmup", "S"),
    )
    assert seen[:100] == [("control", -1, "create")] * 100
    per_tick = {}
    for kind, index, _ in seen[100:]:
        per_tick.setdefault(index, []).append(kind)
    assert sorted(per_tick) == [
        i for i, tick in enumerate(schedule.ticks) if tick.phase != "L"
    ]
    for index, kinds in per_tick.items():
        controls = len(schedule.ticks[index].controls)
        assert kinds == ["control"] * controls + ["push", "watermark"]
