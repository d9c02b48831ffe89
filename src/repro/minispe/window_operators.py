"""Per-query (non-shared) windowed operators.

These are the substrate's standard window operators — the ones a
query-at-a-time engine deploys once *per query*.  They implement the same
semantics as AStream's shared operators but without slicing, query-sets,
or cross-query sharing, so they double as the *reference implementation*
the property tests compare the shared operators against.

Outputs carry the timestamp ``window.max_timestamp()`` (the Flink
convention), so downstream windows and latency measurements see the
event-time at which the result became complete.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.minispe.operators import Operator, TwoInputOperator
from repro.minispe.record import Record, Watermark
from repro.minispe.state import KeyedState
from repro.minispe.windows import (
    EventTimeTrigger,
    Trigger,
    Window,
    WindowAssigner,
    merge_session_windows,
)


@dataclass(frozen=True)
class WindowResult:
    """One fired window's output for one key."""

    key: Any
    window: Window
    value: Any


class WindowedAggregateOperator(Operator):
    """Keyed windowed aggregation (e.g. ``SUM(field) GROUP BY key``).

    ``init`` produces a fresh accumulator, ``add(acc, value)`` folds one
    tuple in, ``merge(acc, acc)`` combines two accumulators (needed for
    session-window merges), and ``finish(acc)`` extracts the result.
    """

    def __init__(
        self,
        assigner: WindowAssigner,
        init: Callable[[], Any],
        add: Callable[[Any, Any], Any],
        merge: Optional[Callable[[Any, Any], Any]] = None,
        finish: Callable[[Any], Any] = lambda acc: acc,
        trigger: Optional[Trigger] = None,
        name: str = "window_agg",
    ) -> None:
        super().__init__(name)
        self._assigner = assigner
        self._init = init
        self._add = add
        self._merge = merge
        self._finish = finish
        self._trigger = trigger or EventTimeTrigger()
        if assigner.is_session() and merge is None:
            raise ValueError("session windows require a merge function")
        # (key, window) -> accumulator; for sessions windows get merged.
        self._accumulators = KeyedState()

    def process_batch(self, records: List[Record]) -> None:
        assigner_assign = self._assigner.assign
        is_session = self._assigner.is_session()
        peek = self._accumulators.peek
        put = self._accumulators.put
        init = self._init
        add = self._add
        on_element = self._trigger.on_element
        for record in records:
            key = record.key
            value = record.value
            for window in assigner_assign(record.timestamp):
                if is_session:
                    window = self._merge_session(key, window)
                state_key = (key, window)
                acc = peek(state_key)
                if acc is None:
                    acc = init()
                put(state_key, add(acc, value))
                if on_element(record, window):
                    self.output_batch(self._fire([state_key]))

    def _merge_session(self, key: Any, proto: Window) -> Window:
        """Merge ``proto`` with this key's overlapping session windows."""
        overlapping = [
            window
            for (existing_key, window) in self._accumulators.keys()
            if existing_key == key and window.intersects(proto)
        ]
        if not overlapping:
            return proto
        merged = merge_session_windows(overlapping + [proto])[0]
        acc = self._init()
        for window in overlapping:
            acc = self._merge(
                acc, self._accumulators.peek((key, window))
            )
            self._accumulators.remove((key, window))
        self._accumulators.put((key, merged), acc)
        return merged

    def on_watermark(self, watermark: Watermark) -> None:
        ready = [
            state_key
            for state_key in self._accumulators.keys()
            if self._trigger.on_watermark(watermark, state_key[1])
        ]
        # Deterministic emission order: by window, then key representation.
        ready.sort(key=lambda sk: (sk[1], repr(sk[0])))
        self.output_batch(self._fire(ready))
        self.output(watermark)

    def _fire(self, state_keys: List[Tuple[Any, Window]]) -> List[Record]:
        """Close the given ``(key, window)`` accumulators; their results."""
        results: List[Record] = []
        for state_key in state_keys:
            acc = self._accumulators.peek(state_key)
            if acc is None:
                continue
            self._accumulators.remove(state_key)
            key, window = state_key
            results.append(
                Record(
                    window.max_timestamp(),
                    WindowResult(key=key, window=window, value=self._finish(acc)),
                    key,
                )
            )
        return results

    def snapshot(self) -> Any:
        return self._accumulators.snapshot()

    def restore(self, snapshot: Any) -> None:
        self._accumulators.restore(dict(snapshot))

    def pending_windows(self) -> int:
        """Number of (key, window) accumulators currently buffered."""
        return len(self._accumulators)


@dataclass(frozen=True)
class JoinResult:
    """One joined pair emitted by a windowed join."""

    key: Any
    window: Window
    left: Any
    right: Any


class WindowedJoinOperator(TwoInputOperator):
    """Keyed windowed equi-join (``A.KEY = B.KEY`` within a window).

    Both inputs are buffered per ``(key, window)``; when the watermark
    closes a window the per-key cross product is emitted.  Session windows
    are not supported for joins (the paper's join template, Figure 7, uses
    RANGE/SLICE windows).
    """

    def __init__(
        self,
        assigner: WindowAssigner,
        trigger: Optional[Trigger] = None,
        result_fn: Callable[[Any, Any, Any, Window], Any] = None,
        name: str = "window_join",
    ) -> None:
        super().__init__(name)
        if assigner.is_session():
            raise ValueError("windowed join does not support session windows")
        self._assigner = assigner
        self._trigger = trigger or EventTimeTrigger()
        self._forwarded_watermark_ms = -1
        self._result_fn = result_fn or (
            lambda key, left, right, window: JoinResult(
                key=key, window=window, left=left, right=right
            )
        )
        # window -> key -> ([left values], [right values])
        self._buffers: Dict[Window, Dict[Any, Tuple[List[Any], List[Any]]]] = {}

    def process_left_batch(self, records: List[Record]) -> None:
        self._buffer_batch(records, side=0)

    def process_right_batch(self, records: List[Record]) -> None:
        self._buffer_batch(records, side=1)

    def _buffer_batch(self, records: List[Record], side: int) -> None:
        assign = self._assigner.assign
        buffers = self._buffers
        for record in records:
            item = (record.value, record.timestamp)
            key = record.key
            for window in assign(record.timestamp):
                per_key = buffers.setdefault(window, {})
                sides = per_key.get(key)
                if sides is None:
                    sides = per_key[key] = ([], [])
                sides[side].append(item)

    def on_watermark(self, watermark: Watermark) -> None:
        ready = [
            window
            for window in self._buffers
            if self._trigger.on_watermark(watermark, window)
        ]
        for window in sorted(ready):
            self._fire(window)
        # Hold the forwarded watermark back by the window length: results
        # carry the newest component timestamp, which can be that much
        # older than the input watermark (see the shared join).
        held_back = watermark.timestamp - self._assigner.max_window_length()
        if held_back > self._forwarded_watermark_ms:
            self._forwarded_watermark_ms = held_back
            self.output(Watermark(held_back))

    def _fire(self, window: Window) -> None:
        per_key = self._buffers.pop(window, None)
        if per_key is None:
            return
        results: List[Record] = []
        for key in sorted(per_key, key=repr):
            left_values, right_values = per_key[key]
            for left, left_ts in left_values:
                for right, right_ts in right_values:
                    # Result event time = newest contributing tuple, the
                    # same convention as the shared join, so latency
                    # comparisons between the SUTs are apples-to-apples.
                    results.append(
                        Record(
                            max(left_ts, right_ts),
                            self._result_fn(key, left, right, window),
                            key,
                        )
                    )
        self.output_batch(results)

    def snapshot(self) -> Any:
        return {
            window: {key: (list(l), list(r)) for key, (l, r) in per_key.items()}
            for window, per_key in self._buffers.items()
        }

    def restore(self, snapshot: Any) -> None:
        self._buffers = {
            window: {key: (list(l), list(r)) for key, (l, r) in per_key.items()}
            for window, per_key in snapshot.items()
        }

    def buffered_tuples(self) -> int:
        """Total tuples currently buffered across windows and keys."""
        return sum(
            len(left) + len(right)
            for per_key in self._buffers.values()
            for left, right in per_key.values()
        )
