"""Operator framework: the extension point AStream builds on.

An :class:`Operator` is a user-defined, stateful dataflow vertex.  The
runtime instantiates one copy per parallel instance, calls
:meth:`Operator.open` with an :class:`OperatorContext`, and then feeds it
stream elements:

* :meth:`Operator.process_batch` for data — a
  :class:`~repro.minispe.record.RecordBatch` is the only data unit that
  crosses an operator boundary, and a single record is a batch of one,
* :meth:`Operator.on_watermark` when the *aligned* watermark (the minimum
  over all input channels) advances,
* :meth:`Operator.on_marker` for changelog markers, and
* :meth:`Operator.snapshot` / :meth:`Operator.restore` for checkpoints.

**One override.**  An operator implements its data body exactly once:
either ``process_batch(records)`` (every built-in operator does) or, for
a per-record operator, ``process(record)``, which the default
``process_batch`` loops over.  The other method is the base class's
one-line adaptor, so both stay callable on every operator.  Two-input
operators follow the same rule with ``process_left[_batch]`` /
``process_right[_batch]``.

Operators emit downstream by calling :meth:`Operator.output_batch` (data)
and :meth:`Operator.output` (control elements).  This mirrors
the low-level operator API that the paper's Flink implementation extends
(custom triggers, evictors, and window functions — §5) and that PyFlink
does not expose, which is why this substrate exists.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.minispe.record import (
    ChangelogMarker,
    Record,
    RecordBatch,
    StreamElement,
    Watermark,
)


class OperatorContext:
    """Per-instance runtime context handed to :meth:`Operator.open`."""

    def __init__(
        self,
        operator_name: str,
        instance_index: int,
        parallelism: int,
        metrics: Optional[Any] = None,
    ) -> None:
        self.operator_name = operator_name
        self.instance_index = instance_index
        self.parallelism = parallelism
        self.metrics = metrics

    def __repr__(self) -> str:
        return (
            f"OperatorContext({self.operator_name!r}, "
            f"{self.instance_index}/{self.parallelism})"
        )


class Operator:
    """Base class for one-input operators."""

    def __init__(self, name: str = "") -> None:
        self.name = name or type(self).__name__
        self._collector: Optional[Callable[[StreamElement], None]] = None
        self.context: Optional[OperatorContext] = None

    # -- lifecycle ---------------------------------------------------------

    def open(self, context: OperatorContext) -> None:
        """Called once before any element is processed."""
        self.context = context

    def close(self) -> None:
        """Called once after the last element; flush any pending output."""

    # -- element handling --------------------------------------------------

    def process(self, record: Record) -> None:
        """Handle one data record: a batch of one."""
        self.process_batch([record])

    def process_batch(self, records: List[Record]) -> None:
        """Handle the records of one batch arriving on one channel.

        This is the data body built-in operators override (emitting whole
        output batches via :meth:`output_batch`).  The default loops over
        an overridden :meth:`process` — the extension point for per-record
        operators; semantics are those of processing the records one by
        one, in order.
        """
        _require_override(self, Operator, "process")
        process = self.process
        for record in records:
            process(record)

    def on_watermark(self, watermark: Watermark) -> None:
        """Handle an aligned watermark.  Default: forward it."""
        self.output(watermark)

    def on_marker(self, marker: ChangelogMarker) -> None:
        """Handle a changelog marker.  Default: forward it."""
        self.output(marker)

    # -- checkpointing -----------------------------------------------------

    def snapshot(self) -> Any:
        """Return this instance's state for a checkpoint (default: none)."""
        return None

    def restore(self, snapshot: Any) -> None:
        """Restore this instance's state from :meth:`snapshot` output."""

    # -- introspection -----------------------------------------------------

    def stats(self) -> Dict[str, Tuple[float, str]]:
        """This instance's counters: name → ``(value, merge hint)``.

        The one place an operator declares what it counts.  The hint says
        how values combine across parallel instances and shards —
        ``"sum"`` for additive work or state, ``"max"`` for facts every
        instance reports identically — and is the ``merge=`` argument of
        :meth:`repro.obs.registry.MetricsRegistry.gauge`.  Called off the
        data path, so it may compute (``len`` of a store, a walk over
        plan groups); the hot path keeps bumping plain attributes.
        """
        return {}

    # -- emission ----------------------------------------------------------

    def set_collector(self, collector: Callable[[StreamElement], None]) -> None:
        """Wire the downstream collector (runtime-internal)."""
        self._collector = collector

    def output(self, element: StreamElement) -> None:
        """Emit ``element`` to the downstream edge(s).

        Control elements travel as they are; a lone :class:`Record` (what
        a per-record operator emits) is wrapped into a batch of one, so no
        edge ever carries a bare record.
        """
        if type(element) is Record:
            element = RecordBatch([element])
        if self._collector is None:
            raise RuntimeError(
                f"operator {self.name!r} emitted before being wired to a job"
            )
        self._collector(element)

    def output_batch(self, records: List[Record]) -> None:
        """Emit ``records`` downstream as one batch, in one routing pass.

        Empty batches are dropped here so downstream operators never see
        them.
        """
        if records:
            self.output(RecordBatch(records))


def _require_override(operator: Operator, base: type, method: str) -> None:
    """Fail clearly (not by unbounded recursion) when ``operator``
    overrides neither ``method`` nor its ``_batch`` sibling."""
    if getattr(type(operator), method) is getattr(base, method):
        raise NotImplementedError(
            f"{type(operator).__name__} must override {method} or {method}_batch"
        )


class TwoInputOperator(Operator):
    """Base class for binary operators (e.g. stream joins).

    The runtime routes batches from input 0 to :meth:`process_left_batch`
    and from input 1 to :meth:`process_right_batch`; watermarks and
    markers are aligned across *both* inputs before the ``on_*`` hooks
    fire.  The one-override rule applies per side.
    """

    def process_batch(self, records: List[Record]) -> None:
        raise RuntimeError(
            "two-input operators receive data via "
            "process_left_batch/process_right_batch"
        )

    def process_left(self, record: Record) -> None:
        """Handle one record from the first input: a batch of one."""
        self.process_left_batch([record])

    def process_right(self, record: Record) -> None:
        """Handle one record from the second input: a batch of one."""
        self.process_right_batch([record])

    def process_left_batch(self, records: List[Record]) -> None:
        """Handle a batch from the first input (default: loop over an
        overridden :meth:`process_left`)."""
        _require_override(self, TwoInputOperator, "process_left")
        process = self.process_left
        for record in records:
            process(record)

    def process_right_batch(self, records: List[Record]) -> None:
        """Handle a batch from the second input (default: loop over an
        overridden :meth:`process_right`)."""
        _require_override(self, TwoInputOperator, "process_right")
        process = self.process_right
        for record in records:
            process(record)


class MapOperator(Operator):
    """Apply ``fn`` to each record value, preserving timestamp and key."""

    def __init__(self, fn: Callable[[Any], Any], name: str = "map") -> None:
        super().__init__(name)
        self._fn = fn

    def process_batch(self, records: List[Record]) -> None:
        fn = self._fn
        self.output_batch(
            [
                Record(r.timestamp, fn(r.value), r.key, dict(r.tags))
                for r in records
            ]
        )


class FilterOperator(Operator):
    """Keep only records whose value satisfies ``predicate``."""

    def __init__(self, predicate: Callable[[Any], bool], name: str = "filter") -> None:
        super().__init__(name)
        self._predicate = predicate

    def process_batch(self, records: List[Record]) -> None:
        predicate = self._predicate
        self.output_batch([r for r in records if predicate(r.value)])


class KeyByOperator(Operator):
    """Re-key records with ``key_fn`` (the shuffle happens on the edge)."""

    def __init__(self, key_fn: Callable[[Any], Any], name: str = "key_by") -> None:
        super().__init__(name)
        self._key_fn = key_fn

    def process_batch(self, records: List[Record]) -> None:
        key_fn = self._key_fn
        self.output_batch(
            [
                Record(r.timestamp, r.value, key_fn(r.value), dict(r.tags))
                for r in records
            ]
        )


class FlatMapOperator(Operator):
    """Apply ``fn`` returning an iterable of values; emit one record each."""

    def __init__(self, fn: Callable[[Any], List[Any]], name: str = "flat_map") -> None:
        super().__init__(name)
        self._fn = fn

    def process_batch(self, records: List[Record]) -> None:
        fn = self._fn
        out: List[Record] = []
        for r in records:
            timestamp, key, tags = r.timestamp, r.key, r.tags
            for value in fn(r.value):
                out.append(Record(timestamp, value, key, dict(tags)))
        self.output_batch(out)
