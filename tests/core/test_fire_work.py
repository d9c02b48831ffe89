"""Work counts of one firing watermark, with no clock.

1,000 single-field SUM queries in 5 segment groups, with three window
shapes anchored at one creation time, fire four windows per query at
one watermark over three distinct windows.  The fire must cost what the
distinct windows cost, not what the firing queries cost:

* one ``SliceIndex.overlapping`` call per distinct window;
* one changelog-set lookup per (distinct window, overlapping slice);
* one key sort per (group, window) that has firing members;
* one ``WindowSpec.windows_for`` call per due window;
* one output batch for the whole watermark, one run record per
  non-empty window of a query, in the ``due_windows`` order.

The runs equal a per-slot fold of the records.
"""

from __future__ import annotations

import random
from typing import Dict, List

from repro.core import shared_aggregation as aggregation_module
from repro.core.changelog import ChangelogTable
from repro.core.query import WindowSpec
from repro.core.selection import QS_TAG
from repro.core.slicing import SliceIndex
from repro.minispe.record import RecordBatch, Watermark
from tests.core.test_fold_work import (
    SUM,
    _between,
    _marker,
    _operator,
    _per_slot_fold,
    _query,
    _tagged,
)

WINDOWS = (
    WindowSpec.tumbling(1_000),
    WindowSpec.tumbling(2_000),
    WindowSpec.sliding(2_000, 1_000),
)


def test_one_watermark_fires_by_the_window_not_by_the_query(monkeypatch):
    rng = random.Random(9)
    queries = {}
    for slot in range(1_000):
        low = rng.randrange(60)
        queries[slot] = _query(
            WINDOWS[slot % 3], SUM, _between(slot % 5, low, low + rng.randrange(20, 40))
        )
    operator = _operator()
    out: List = []
    operator.set_collector(out.append)
    operator.on_marker(_marker(1, 0, created=list(queries.items()), width=1_000))
    records = _tagged(rng, 40, queries, 0) + _tagged(rng, 40, queries, 1_000)
    operator.process_batch(records)
    out.clear()  # the marker
    groups = operator._layouts[operator._slices.get(0).epoch].groups
    assert len(groups) == 5 and all(group.shares for group in groups)

    counts: Dict[str, int] = {"overlapping": 0, "cl_set": 0, "key_sorts": 0, "windows_for": 0}

    def counting(name, call):
        def counted(*args, **kwargs):
            counts[name] += 1
            return call(*args, **kwargs)

        return counted

    def counting_sorted(items, *args, **kwargs):
        if kwargs.get("key") is repr:
            counts["key_sorts"] += 1
        return sorted(items, *args, **kwargs)

    monkeypatch.setattr(SliceIndex, "overlapping", counting("overlapping", SliceIndex.overlapping))
    monkeypatch.setattr(ChangelogTable, "cl_set", counting("cl_set", ChangelogTable.cl_set))
    monkeypatch.setattr(WindowSpec, "windows_for", counting("windows_for", WindowSpec.windows_for))
    monkeypatch.setattr(aggregation_module, "sorted", counting_sorted, raising=False)
    due = []
    due_windows = operator._slicer.due_windows

    def recording(watermark_ms):
        due.extend(due_windows(watermark_ms))
        return due

    monkeypatch.setattr(operator._slicer, "due_windows", recording)
    operator.on_watermark(Watermark(1_999))
    monkeypatch.undo()

    # [0, 1000) and [1000, 2000) of the 1 s tumbling queries, [0, 2000)
    # of the others: 1,334 due windows over 3 distinct ones and 2 slices.
    distinct = {(start, end) for _, start, end in due}
    assert distinct == {(0, 1_000), (1_000, 2_000), (0, 2_000)}
    assert len(due) == 2 * 334 + 666
    assert counts == {
        "overlapping": 3,
        "cl_set": 1 + 1 + 2,
        "key_sorts": 5 * 3,
        "windows_for": len(due),
    }

    (batch, watermark) = out
    assert isinstance(batch, RecordBatch) and isinstance(watermark, Watermark)
    fired = {
        (record.tags[QS_TAG].bit_length() - 1, record.value.window.start): record.value
        for record in batch.records
    }
    assert [
        (record.tags[QS_TAG].bit_length() - 1, record.value.window.start)
        for record in batch.records
    ] == [(slot, start) for slot, start, _ in due if (slot, start) in fired]
    for slot, start, end in due:
        inside = [record for record in records if start <= record.timestamp < end]
        expected = _per_slot_fold({slot: queries[slot]}, inside).get(slot, {})
        run = fired.get((slot, start))
        assert (dict(zip(run.keys, run.values)) if run else {}) == expected
        if run:
            assert run.keys == sorted(expected, key=repr)
    assert operator.results_emitted == sum(len(run) for run in fired.values())
