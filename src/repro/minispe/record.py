"""Stream element model: records, watermarks, markers, and barriers.

Everything that flows through a dataflow edge is a :class:`StreamElement`.
Four concrete kinds exist:

* :class:`Record` — a data tuple with an event-time timestamp and an
  optional partitioning key.
* :class:`RecordBatch` — the records travelling one channel together,
  and the only form in which data crosses an operator boundary.  Batches
  amortise the per-element Python dispatch cost (isinstance chains, hook
  checks, router fan-out); they carry **no** extra semantics — a batch is
  exactly its records in order, and control elements never ride inside
  one.
* :class:`Watermark` — an assertion that no record with a smaller event
  time will arrive on this channel (the Flink/Dataflow watermark model).
* :class:`ChangelogMarker` — AStream's query-changelog woven into the
  stream.  Markers are event-time-stamped so replays are deterministic
  (paper §3.3): the changelog timestamp is the time at which the query
  change was performed by the user, not a system clock reading.
* :class:`CheckpointBarrier` — a barrier injected by the checkpoint
  coordinator; operators snapshot their state when a barrier has been
  received on all input channels (barrier alignment).

:class:`Record` is the hottest allocation in the engine (every operator
emission creates one), so it is a plain ``__slots__`` class rather than a
dataclass; treat instances as immutable by convention.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from typing import Any, Optional


class StreamElement:
    """Base class for everything flowing through a stream channel."""

    __slots__ = ()

    timestamp: int


_EMPTY_TAGS: dict = {}


class Record(StreamElement):
    """A data tuple.

    ``value`` holds the payload (for generated workloads a
    :class:`repro.workloads.datagen.DataTuple`); ``key`` is the hash
    partitioning key.  A record may carry extra per-engine metadata in
    ``tags`` — AStream stores the query-set bitset there so the substrate
    does not need to know about query sharing.  Records are immutable by
    convention; derive new ones with :meth:`with_tag`.
    """

    __slots__ = ("timestamp", "value", "key", "tags")

    def __init__(
        self,
        timestamp: int,
        value: Any,
        key: Any = None,
        tags: Optional[dict] = None,
    ) -> None:
        self.timestamp = timestamp
        self.value = value
        self.key = key
        self.tags = tags if tags is not None else _EMPTY_TAGS

    def with_tag(self, name: str, tag_value: Any) -> "Record":
        """Return a copy of this record with ``tags[name]`` set."""
        new_tags = dict(self.tags)
        new_tags[name] = tag_value
        return Record(self.timestamp, self.value, self.key, new_tags)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Record):
            return NotImplemented
        return (
            self.timestamp == other.timestamp
            and self.value == other.value
            and self.key == other.key
        )

    def __hash__(self) -> int:
        return hash((self.timestamp, self.value, self.key))

    def __repr__(self) -> str:
        return (
            f"Record(timestamp={self.timestamp}, value={self.value!r}, "
            f"key={self.key!r}, tags={self.tags!r})"
        )


class RecordBatch(StreamElement):
    """A micro-batch of :class:`Record`\\ s flowing as one stream element.

    A batch is the only data element on an edge: the runtime partitions
    it into per-target sub-batches in one pass and hands each to an
    operator's ``process_batch``; a lone record is a batch of one.
    Semantically a batch is transparent: delivering ``RecordBatch([r1,
    r2])`` on a channel is equivalent to delivering ``RecordBatch([r1])``
    then ``RecordBatch([r2])``.  Watermarks, changelog markers, and
    checkpoint barriers act as batch *flush points* — a batch never spans
    one, so event-time semantics, marker alignment, and barrier alignment
    do not depend on how records are batched.

    A batch may alternatively be *columnar*: built from parallel arrays
    (:meth:`from_columns`, the binary wire codec's zero-copy decode
    target).  Columnar batches defer building their ``Record`` objects —
    ``records`` materialises them on first touch, so every existing
    consumer works unchanged, while columnar-aware operators read the
    parallel arrays directly via :meth:`timestamps` / :meth:`keys` /
    :meth:`field_columns` and never pay per-row materialisation for rows
    they drop (:meth:`select`).  A row-built batch offers the same
    accessors as views over its records.

    Treat ``records`` as immutable once the batch has been emitted; the
    runtime may deliver the same list object to several broadcast targets.

    A batch may carry a wire trace context in ``trace`` — an opaque
    ``(trace_id, ingest_ns)`` pair stamped by a client push.  The trace
    rides the batch across process boundaries but is metadata only: it
    never affects routing, equality, or results (byte-equality between
    traced and untraced runs is part of the serve test matrix).
    """

    __slots__ = ("_records", "_columns", "trace")

    def __init__(self, records: list, trace=None) -> None:
        self._records = records
        self._columns = None
        self.trace = trace

    @classmethod
    def from_columns(cls, timestamps, keys, fields, builder) -> "RecordBatch":
        """Build a columnar batch from parallel arrays.

        ``timestamps``/``keys`` are row-aligned sequences; ``fields`` is a
        tuple of per-field column sequences; ``builder(key, field_tuple)``
        constructs one row's value object on materialisation.  Any
        indexable sequence works — the wire codec passes ``memoryview``
        casts straight off the frame buffer (zero copy).
        """
        batch = cls.__new__(cls)
        batch._records = None
        batch._columns = (timestamps, keys, tuple(fields), builder)
        batch.trace = None
        return batch

    @property
    def records(self) -> list:
        """The batch's records (materialised on demand when columnar)."""
        records = self._records
        if records is None:
            records = self._materialize()
            self._records = records
        return records

    @property
    def is_columnar(self) -> bool:
        """True while parallel arrays back this batch (records may or
        may not have been materialised from them yet)."""
        return self._columns is not None

    def timestamps(self):
        """The row-aligned timestamp column."""
        if self._columns is not None:
            return self._columns[0]
        return [record.timestamp for record in self._records]

    def keys(self):
        """The row-aligned partitioning-key column."""
        if self._columns is not None:
            return self._columns[1]
        return [record.key for record in self._records]

    def field_columns(self):
        """Per-field value columns.  A row-built batch answers with a view
        that builds one field's column from its rows' ``fields`` the first
        time that field is read, so values that expose no ``fields`` are
        never asked for them unless a consumer reads a field."""
        if self._columns is not None:
            return self._columns[2]
        return _FieldColumns(self._records)

    def values(self) -> list:
        """Every row's value object, in row order (built, for a columnar
        batch)."""
        if self._records is not None:
            return [record.value for record in self._records]
        _, keys, fields, builder = self._columns
        return list(map(builder, keys, zip(*fields)))

    def part(self, low: int, high: int) -> "RecordBatch":
        """Rows ``[low, high)`` as a batch of their own."""
        if self._records is not None:
            return RecordBatch(self._records[low:high])
        timestamps, keys, fields, builder = self._columns
        return RecordBatch.from_columns(
            timestamps[low:high],
            keys[low:high],
            [column[low:high] for column in fields],
            builder,
        )

    def select(self, keep, tags, values=None) -> list:
        """The rows whose ``keep`` entry is true, as new records in row
        order, the i-th carrying the i-th of ``tags`` (on top of the row's
        own tags, when it already is a built record).

        Consumers that drop most rows of a columnar batch use this to pay
        value construction only for survivors: the builder runs for the
        kept rows alone, unless ``values`` (:meth:`values`) already holds
        every row's value.
        """
        if self._records is not None:
            return [
                Record(
                    record.timestamp,
                    record.value,
                    record.key,
                    {**record.tags, **row_tags} if record.tags else row_tags,
                )
                for record, row_tags in zip(compress(self._records, keep), tags)
            ]
        timestamps, keys, fields, builder = self._columns
        if values is None:
            kept = map(builder, compress(keys, keep), compress(zip(*fields), keep))
        else:
            kept = compress(values, keep)
        return list(
            map(Record, compress(timestamps, keep), kept, compress(keys, keep), tags)
        )

    def _materialize(self) -> list:
        timestamps, keys, fields, builder = self._columns
        records = []
        append = records.append
        for timestamp, key, field_tuple in zip(timestamps, keys, zip(*fields)):
            append(Record(timestamp, builder(key, field_tuple), key))
        return records

    @property
    def timestamp(self) -> int:
        """Event time of the first record (batches are arrival-ordered)."""
        if self._columns is not None:
            timestamps = self._columns[0]
            return timestamps[0] if len(timestamps) else -1
        return self._records[0].timestamp if self._records else -1

    def __len__(self) -> int:
        if self._records is not None:
            return len(self._records)
        return len(self._columns[0])

    def __iter__(self):
        return iter(self.records)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RecordBatch):
            return NotImplemented
        return self.records == other.records

    def __reduce__(self):
        # Columns may be memoryview casts into a network buffer; a batch
        # crossing a process boundary (shard workers, checkpoints)
        # materialises into plain records first.
        if self.trace is None:
            return (RecordBatch, (self.records,))
        return (RecordBatch, (self.records, self.trace))

    def __repr__(self) -> str:
        kind = "columnar, " if self._columns is not None else ""
        return f"RecordBatch({kind}{len(self)} records)"


class _FieldColumns:
    """The field columns of row-built records, each built on first read."""

    __slots__ = ("_records", "_built")

    def __init__(self, records: list) -> None:
        self._records = records
        self._built: dict = {}

    def __getitem__(self, index: int) -> list:
        column = self._built.get(index)
        if column is None:
            column = self._built[index] = [
                record.value.fields[index] for record in self._records
            ]
        return column


@dataclass(frozen=True)
class Watermark(StreamElement):
    """Event-time watermark: no record with ``timestamp`` < this will follow."""

    timestamp: int


@dataclass(frozen=True)
class ChangelogMarker(StreamElement):
    """A query changelog woven into the data stream.

    ``changelog`` is a :class:`repro.core.changelog.Changelog`.  The marker
    is broadcast to every downstream operator instance so all shared
    operators observe query creations/deletions at the same event-time
    position in the stream.
    """

    timestamp: int
    changelog: Any = None


@dataclass(frozen=True)
class CheckpointBarrier(StreamElement):
    """Checkpoint barrier for exactly-once snapshots (Chandy-Lamport style)."""

    timestamp: int
    checkpoint_id: int = 0


def is_data(element: StreamElement) -> bool:
    """Return True if ``element`` carries user data (record or batch)."""
    return isinstance(element, (Record, RecordBatch))


def is_control(element: StreamElement) -> bool:
    """Return True for control elements (watermarks, markers, barriers)."""
    return not isinstance(element, (Record, RecordBatch))
