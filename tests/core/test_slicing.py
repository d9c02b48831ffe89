"""Tests and property tests for dynamic window slicing."""

import pickle

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.query import WindowSpec
from repro.core.slicing import (
    EpochTimeline,
    Slice,
    SliceIndex,
    SliceManager,
)


class TestEpochTimeline:
    def test_initial_epoch(self):
        timeline = EpochTimeline()
        assert timeline.epoch_for(0) == (0, 0, None)
        assert timeline.current_sequence == 0

    def test_epoch_lookup(self):
        timeline = EpochTimeline()
        timeline.append(1, 1_000)
        timeline.append(2, 3_000)
        assert timeline.epoch_for(500) == (0, 0, 1_000)
        assert timeline.epoch_for(1_000) == (1, 1_000, 3_000)
        assert timeline.epoch_for(9_999) == (2, 3_000, None)

    def test_out_of_order_rejected(self):
        timeline = EpochTimeline()
        with pytest.raises(ValueError):
            timeline.append(2, 0)
        timeline.append(1, 1_000)
        with pytest.raises(ValueError):
            timeline.append(2, 500)


class TestSlice:
    def test_validation(self):
        with pytest.raises(ValueError):
            Slice(start=5, end=5, epoch=0)

    def test_covers_and_id(self):
        slice_ = Slice(start=10, end=20, epoch=3)
        assert slice_.covers(10)
        assert not slice_.covers(20)
        assert slice_.id == (3, 10)


class TestSliceIndex:
    def test_get_or_create_idempotent(self):
        index = SliceIndex()
        first = index.get_or_create(0, 10, 0)
        second = index.get_or_create(0, 10, 0)
        assert first is second
        assert index.created_total == 1

    def test_overlapping(self):
        index = SliceIndex()
        for start in (0, 10, 20, 30):
            index.get_or_create(start, start + 10, 0)
        overlapping = index.overlapping(5, 25)
        assert [s.start for s in overlapping] == [0, 10, 20]

    def test_expire_before(self):
        index = SliceIndex()
        for start in (0, 10, 20):
            index.get_or_create(start, start + 10, 0)
        expired = index.expire_before(20)
        assert [s.start for s in expired] == [0, 10]
        assert len(index) == 1
        assert index.expired_total == 2

    def test_expire_before_regressed_watermark_is_noop(self):
        index = SliceIndex()
        for start in (0, 10, 20):
            index.get_or_create(start, start + 10, 0)
        assert [s.start for s in index.expire_before(20)] == [0, 10]
        # A lagging shard-local watermark must not expire anything more
        # (and must not scan): the expiry horizon is monotonic.
        assert index.expire_before(5) == []
        assert len(index) == 1
        assert [s.start for s in index.expire_before(30)] == [20]

    def test_iteration_in_time_order(self):
        index = SliceIndex()
        index.get_or_create(20, 30, 0)
        index.get_or_create(0, 10, 0)
        assert [s.start for s in index] == [0, 20]


class TestSliceManager:
    def test_session_windows_rejected(self):
        manager = SliceManager()
        with pytest.raises(ValueError):
            manager.register_query(0, WindowSpec.session(1_000), 0)

    def test_slice_bounds_from_single_query(self):
        manager = SliceManager()
        manager.register_query(0, WindowSpec.tumbling(2_000), 1_000)
        manager.on_epoch(1, 1_000)
        start, end, epoch = manager.slice_bounds(1_500)
        assert (start, end, epoch) == (1_000, 3_000, 1)
        start, end, _ = manager.slice_bounds(3_100)
        assert (start, end) == (3_000, 5_000)

    def test_overlapping_queries_create_finer_slices(self):
        """Figure 4e: window edges of all active queries cut slices."""
        manager = SliceManager()
        manager.register_query(0, WindowSpec.tumbling(3_000), 0)
        manager.register_query(1, WindowSpec.tumbling(2_000), 0)
        manager.on_epoch(1, 0)
        # Edges: {0, 3000, 6000...} and {0, 2000, 4000...}.
        assert manager.slice_bounds(500)[:2] == (0, 2_000)
        assert manager.slice_bounds(2_500)[:2] == (2_000, 3_000)
        assert manager.slice_bounds(3_500)[:2] == (3_000, 4_000)

    def test_changelog_is_a_slice_edge(self):
        manager = SliceManager()
        manager.register_query(0, WindowSpec.tumbling(10_000), 0)
        manager.on_epoch(1, 0)
        manager.on_epoch(2, 4_000)
        assert manager.slice_bounds(3_999)[:2] == (0, 4_000)
        assert manager.slice_bounds(4_000)[0] == 4_000

    def test_late_record_uses_its_epochs_view(self):
        """A query registered at epoch 2 must not re-slice epoch-1 data."""
        manager = SliceManager()
        manager.register_query(0, WindowSpec.tumbling(4_000), 0)
        manager.on_epoch(1, 0)
        manager.register_query(1, WindowSpec.tumbling(1_000), 4_000)
        manager.on_epoch(2, 4_000)
        # Late record at 2500 (epoch 1): only slot 0's edges apply.
        assert manager.slice_bounds(2_500)[:2] == (0, 4_000)
        # Record in epoch 2 sees both queries' edges.
        assert manager.slice_bounds(4_500)[:2] == (4_000, 5_000)

    def test_unregistered_query_stops_cutting_new_epochs(self):
        manager = SliceManager()
        manager.register_query(0, WindowSpec.tumbling(1_000), 0)
        manager.on_epoch(1, 0)
        manager.unregister_query(0)
        manager.on_epoch(2, 5_000)
        start, end, epoch = manager.slice_bounds(6_500)
        assert epoch == 2
        assert end - start >= 1_000  # no 1s edges anymore

    def test_max_retention(self):
        manager = SliceManager()
        assert manager.max_retention_ms == 0
        manager.register_query(0, WindowSpec.sliding(5_000, 1_000), 0)
        manager.register_query(1, WindowSpec.tumbling(2_000), 0)
        assert manager.max_retention_ms == 5_000
        # A tie on the maximum survives losing one of the tied queries.
        manager.register_query(2, WindowSpec.tumbling(5_000), 0)
        manager.unregister_query(0)
        assert manager.max_retention_ms == 5_000
        # Unregistering the longest window falls back to the next one.
        manager.unregister_query(2)
        assert manager.max_retention_ms == 2_000
        # Re-registering a live slot replaces its old length.
        manager.register_query(3, WindowSpec.tumbling(8_000), 0)
        assert manager.max_retention_ms == 8_000
        manager.register_query(3, WindowSpec.tumbling(1_000), 0)
        assert manager.max_retention_ms == 2_000
        manager.unregister_query(1)
        assert manager.max_retention_ms == 1_000
        manager.unregister_query(3)
        manager.unregister_query(3)  # unknown slot: no-op
        assert manager.max_retention_ms == 0


class TestDueWindows:
    def test_windows_anchored_at_creation(self):
        manager = SliceManager()
        manager.register_query(0, WindowSpec.tumbling(2_000), 1_000)
        manager.on_epoch(1, 1_000)
        assert manager.due_windows(2_999) == [(0, 1_000, 3_000)]
        assert manager.due_windows(2_999) == []  # fired once
        assert manager.due_windows(7_000) == [
            (0, 3_000, 5_000), (0, 5_000, 7_000),
        ]

    def test_sliding_windows_fire_per_slide(self):
        manager = SliceManager()
        manager.register_query(0, WindowSpec.sliding(2_000, 1_000), 0)
        manager.on_epoch(1, 0)
        due = manager.due_windows(3_999)
        assert due == [(0, 0, 2_000), (0, 1_000, 3_000), (0, 2_000, 4_000)]

    def test_deleted_queries_stop_firing(self):
        manager = SliceManager()
        manager.register_query(0, WindowSpec.tumbling(1_000), 0)
        manager.on_epoch(1, 0)
        manager.unregister_query(0)
        assert manager.due_windows(10_000) == []


    def test_a_watermark_visits_only_the_queries_with_a_window_due(self, monkeypatch):
        manager = SliceManager()
        for slot in range(1_000):
            manager.register_query(slot, WindowSpec.tumbling(60_000), 0)
        manager.register_query(1_000, WindowSpec.tumbling(1_000), 0)
        manager.on_epoch(1, 0)
        calls = []
        original = WindowSpec.windows_for

        def counting(spec, created_at_ms, fire_index):
            calls.append(fire_index)
            return original(spec, created_at_ms, fire_index)

        monkeypatch.setattr(WindowSpec, "windows_for", counting)
        for second in range(1, 11):
            due = manager.due_windows(second * 1_000 - 1)
            assert due == [(1_000, (second - 1) * 1_000, second * 1_000)]
        # A walk over the population reads a window of every query on
        # every watermark (10,010 calls); the heap reads the due query's.
        assert len(calls) == 10 * 2

    @settings(max_examples=150, deadline=None)
    @given(
        steps=st.lists(
            st.one_of(
                st.tuples(
                    st.just("create"),
                    st.integers(0, 7),  # slot
                    st.integers(1, 4),  # length, seconds
                    st.integers(1, 4),  # slide, seconds (capped at length)
                    st.integers(0, 20),  # created at, in 250 ms
                ),
                st.tuples(st.just("delete"), st.integers(0, 7)),
                st.tuples(st.just("watermark"), st.integers(0, 12)),  # in 250 ms
                st.tuples(st.just("restore")),
            ),
            max_size=40,
        )
    )
    def test_heap_matches_a_walk_over_every_query(self, steps):
        """After any create/delete/watermark schedule, with checkpoint
        round trips in between, the firing heap returns exactly what a
        walk over every query returns: by slot, then by fire index."""
        manager = SliceManager()
        walked = {}  # slot -> [spec, created, next fire index]
        watermark = 0

        def walk(watermark_ms):
            due = []
            for slot in sorted(walked):
                spec, created, index = walked[slot]
                while True:
                    start, end = spec.windows_for(created, index)
                    if end - 1 > watermark_ms:
                        break
                    due.append((slot, start, end))
                    index += 1
                walked[slot][2] = index
            return due

        for step in steps:
            if step[0] == "create":
                _, slot, length, slide, created = step
                spec = WindowSpec.sliding(length * 1_000, min(slide, length) * 1_000)
                manager.register_query(slot, spec, created * 250)
                walked[slot] = [spec, created * 250, 0]
            elif step[0] == "delete":
                manager.unregister_query(step[1])
                walked.pop(step[1], None)
            elif step[0] == "watermark":
                watermark += step[1] * 250
                assert manager.due_windows(watermark) == walk(watermark)
            else:
                manager = pickle.loads(pickle.dumps(manager))
        watermark += 20_000
        assert manager.due_windows(watermark) == walk(watermark)


@st.composite
def _query_populations(draw):
    count = draw(st.integers(1, 5))
    queries = []
    for slot in range(count):
        length = draw(st.integers(1, 5)) * 1_000
        slide = draw(st.integers(1, length // 1_000)) * 1_000
        created = draw(st.integers(0, 4)) * 500
        queries.append((slot, WindowSpec.sliding(length, slide), created))
    return queries


class TestSlicingProperties:
    @settings(max_examples=60)
    @given(_query_populations(), st.integers(0, 20_000))
    def test_slice_contains_timestamp_and_no_edge_inside(self, queries, ts):
        """The slice covering ts contains ts, and no query window edge
        falls strictly inside the slice."""
        manager = SliceManager()
        for slot, spec, created in queries:
            manager.register_query(slot, spec, created)
        manager.on_epoch(1, 0)
        start, end, _ = manager.slice_bounds(ts)
        assert start <= ts < end
        for slot, spec, created in queries:
            for offset in (0, spec.length_ms):
                anchor = created + offset
                edge = anchor
                while edge < end:
                    if edge > start:
                        assert edge >= end or edge <= start, (
                            f"edge {edge} inside slice [{start}, {end})"
                        )
                    edge += spec.slide_ms

    @settings(max_examples=60)
    @given(_query_populations())
    def test_slices_tile_the_timeline(self, queries):
        """Walking slice bounds covers the timeline without gaps/overlap."""
        manager = SliceManager()
        for slot, spec, created in queries:
            manager.register_query(slot, spec, created)
        manager.on_epoch(1, 0)
        cursor = 0
        for _ in range(50):
            start, end, _ = manager.slice_bounds(cursor)
            assert start <= cursor < end
            cursor = end
            if cursor > 30_000:
                break

    @settings(max_examples=60)
    @given(_query_populations())
    def test_windows_are_unions_of_whole_slices(self, queries):
        """Every query window's edges are slice boundaries."""
        manager = SliceManager()
        for slot, spec, created in queries:
            manager.register_query(slot, spec, created)
        manager.on_epoch(1, 0)
        for slot, spec, created in queries:
            for fire_index in range(3):
                w_start, w_end = spec.windows_for(created, fire_index)
                # The slice starting at w_start must begin exactly there.
                assert manager.slice_bounds(w_start)[0] == w_start
                # The slice containing w_end - 1 must close exactly at w_end.
                assert manager.slice_bounds(w_end - 1)[1] == w_end


class TestPruning:
    def test_timeline_prune_keeps_covering_epoch(self):
        timeline = EpochTimeline()
        timeline.append(1, 1_000)
        timeline.append(2, 2_000)
        timeline.append(3, 3_000)
        dropped = timeline.prune_before(2_500)
        assert dropped == 2  # epochs 0 and 1 gone
        # Lookups at and after the horizon still resolve.
        assert timeline.epoch_for(2_500)[0] == 2
        assert timeline.epoch_for(9_999)[0] == 3

    def test_timeline_prune_regressed_watermark_is_noop(self):
        # Shard-local watermarks can lag each other; a prune call with
        # an older timestamp than one already applied must not assume
        # it is the global minimum and must leave the timeline alone.
        timeline = EpochTimeline()
        timeline.append(1, 1_000)
        timeline.append(2, 2_000)
        timeline.append(3, 3_000)
        assert timeline.prune_before(2_500) == 2
        assert timeline.prune_before(1_500) == 0
        assert timeline.epoch_for(2_500)[0] == 2
        # Advancing past the old horizon prunes again.
        assert timeline.prune_before(3_500) == 1

    def test_timeline_prune_noop_before_first(self):
        timeline = EpochTimeline()
        timeline.append(1, 1_000)
        assert timeline.prune_before(500) == 0
        assert len(timeline) == 2

    def test_manager_prune_drops_views_in_lockstep(self):
        manager = SliceManager()
        manager.register_query(0, WindowSpec.tumbling(1_000), 0)
        manager.on_epoch(1, 0)
        manager.unregister_query(0)
        manager.on_epoch(2, 5_000)
        manager.register_query(1, WindowSpec.tumbling(2_000), 9_000)
        manager.on_epoch(3, 9_000)
        dropped = manager.prune_before(9_500)
        assert dropped == 3
        # Bounds after pruning still come from the surviving view.
        start, end, epoch = manager.slice_bounds(10_000)
        assert epoch == 3
        assert end - start <= 2_000

    def test_prune_then_bounds_at_horizon(self):
        manager = SliceManager()
        manager.register_query(0, WindowSpec.tumbling(1_000), 0)
        manager.on_epoch(1, 0)
        manager.on_epoch(2, 4_000)
        manager.prune_before(4_000)
        # The epoch covering the horizon survives and still slices.
        assert manager.slice_bounds(4_500)[2] == 2


class TestEpochsAtOneTime:
    """A changelog at the same event time as the previous one shadows its
    epoch entry for good, so the entry and its view are replaced."""

    @staticmethod
    def _spec(slot: int) -> WindowSpec:
        return WindowSpec.sliding(1_000 * (1 + slot % 4), 500 * (1 + slot % 2))

    def _built(self, epochs: int) -> SliceManager:
        manager = SliceManager()
        for slot in range(epochs):
            manager.register_query(slot, self._spec(slot), 0)
            manager.on_epoch(slot + 1, 0)
        manager.register_query(epochs, WindowSpec.tumbling(700), 2_500)
        manager.on_epoch(epochs + 1, 2_500)
        return manager

    def test_a_thousand_epochs_keep_two_views(self):
        manager = self._built(1_000)
        # Epoch 0, the last epoch at t=0, and the one at 2,500.
        assert len(manager._views) == len(manager.timeline) == 3
        assert len(manager._views[1]) == 1_000
        assert manager.timeline.epoch_for(0) == (1_000, 0, 2_500)
        assert manager.timeline.epoch_for(2_499) == (1_000, 0, 2_500)
        assert manager.timeline.epoch_for(2_500) == (1_001, 2_500, None)

    def test_epoch_zero_is_kept(self):
        manager = SliceManager()
        manager.on_epoch(1, 0)
        manager.on_epoch(2, 0)
        assert manager.timeline._sequences == [0, 2]
        assert manager._views == [{}, {}]

    def test_bounds_match_an_appending_slicer(self):
        manager = self._built(40)
        appending = _appending_copy(manager, epochs=40)
        for timestamp in range(0, 6_000, 37):
            assert manager.slice_bounds(timestamp) == appending.slice_bounds(
                timestamp
            ), timestamp
            assert manager.timeline.epoch_for(
                timestamp
            ) == appending.timeline.epoch_for(timestamp)

    def test_pickled_slicer_with_dead_entries_restores(self):
        import pickle

        # What a checkpoint written before the replace holds: one entry
        # and one view per epoch, all but the last at t=0 dead.
        old = pickle.loads(pickle.dumps(_appending_copy(self._built(40), 40)))
        fresh = self._built(40)
        assert len(old._views) == 42
        for timestamp in range(0, 6_000, 37):
            assert old.slice_bounds(timestamp) == fresh.slice_bounds(timestamp)
        # Further epochs at the last entry's time replace it on both.
        for manager in (old, fresh):
            manager.register_query(99, WindowSpec.tumbling(300), 2_500)
            manager.on_epoch(42, 2_500)
        assert len(old._views) == 42 and len(fresh._views) == 3
        for timestamp in range(0, 6_000, 37):
            assert old.slice_bounds(timestamp) == fresh.slice_bounds(timestamp)
        assert old.prune_before(3_000) == 41 and fresh.prune_before(3_000) == 2
        assert old.slice_bounds(4_000) == fresh.slice_bounds(4_000)


def _appending_copy(manager: SliceManager, epochs: int) -> SliceManager:
    """``manager`` rebuilt the way slicers appended before epochs at one
    time replaced each other: an entry and a view per epoch."""
    old = SliceManager()
    current = {}
    for slot in range(epochs):
        current[slot] = manager._views[1][slot]
        old.timeline._starts.append(0)
        old.timeline._sequences.append(slot + 1)
        old._views.append(dict(current))
    old.timeline._starts.append(2_500)
    old.timeline._sequences.append(epochs + 1)
    old._views.append(dict(manager._views[-1]))
    old._current = dict(manager._current)
    old._count_lengths()
    return old
