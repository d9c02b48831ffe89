"""Sink operators.

Sinks terminate a dataflow.  :class:`CollectSink` gathers records into an
in-memory list (tests, examples); :class:`CallbackSink` hands each record
to user code (the harness uses it to timestamp query outputs for
event-time latency, §3.4); :class:`CountingSink` only counts, for
throughput measurements where materialising outputs would dominate.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional

from repro.minispe.operators import Operator
from repro.minispe.record import Record, Watermark


class CollectSink(Operator):
    """Collect every record into :attr:`collected` (in arrival order)."""

    def __init__(self, name: str = "collect_sink") -> None:
        super().__init__(name)
        self.collected: List[Record] = []

    def process_batch(self, records: List[Record]) -> None:
        self.collected.extend(records)

    def values(self) -> List[Any]:
        """The collected record payloads."""
        return [record.value for record in self.collected]

    def snapshot(self) -> Any:
        return list(self.collected)

    def restore(self, snapshot: Any) -> None:
        self.collected = list(snapshot)

    def on_watermark(self, watermark: Watermark) -> None:
        # Terminal vertex: nothing downstream to forward to.
        pass

    def on_marker(self, marker) -> None:
        pass


class CallbackSink(Operator):
    """Invoke ``callback(record)`` for every record."""

    def __init__(
        self,
        callback: Callable[[Record], None],
        name: str = "callback_sink",
        watermark_callback: Optional[Callable[[Watermark], None]] = None,
    ) -> None:
        super().__init__(name)
        self._callback = callback
        self._watermark_callback = watermark_callback

    def process_batch(self, records: List[Record]) -> None:
        callback = self._callback
        for record in records:
            callback(record)

    def on_watermark(self, watermark: Watermark) -> None:
        if self._watermark_callback is not None:
            self._watermark_callback(watermark)

    def on_marker(self, marker) -> None:
        pass


class CountingSink(Operator):
    """Count records without retaining them (cheap throughput sink)."""

    def __init__(self, name: str = "counting_sink") -> None:
        super().__init__(name)
        self.count = 0

    def process_batch(self, records: List[Record]) -> None:
        self.count += len(records)

    def snapshot(self) -> Any:
        return self.count

    def restore(self, snapshot: Any) -> None:
        self.count = int(snapshot)

    def on_watermark(self, watermark: Watermark) -> None:
        pass

    def on_marker(self, marker) -> None:
        pass
