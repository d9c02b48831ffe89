"""Query specifications: predicates, windows, and query types.

These model the paper's generated workload (Figures 7 and 8) plus the
complex queries of §4.7:

* selection predicates ``field[i] <op> VAL`` with ``<, >, ==, <=, >=``
  (plus arbitrary callables, since AStream can share black-box UDF
  selections that classical multi-query optimization cannot — §6.2);
* window specs ``[RANGE length] [SLICE slide]`` (tumbling when
  ``slide == length``), and session windows with a gap;
* :class:`SelectionQuery` — filter only;
* :class:`AggregationQuery` — ``SELECT agg(field) ... GROUP BY key`` over
  a window (Figure 8);
* :class:`JoinQuery` — windowed equi-join on the partitioning key with a
  per-stream selection predicate (Figure 7);
* :class:`ComplexQuery` — a pipeline of selections, an n-ary windowed
  join (1 ≤ n ≤ 5), and a windowed aggregation (§4.7).

A query's *plan* tells the engine which shared operators serve it; see
:meth:`Query.stages`.
"""

from __future__ import annotations

import copy
import dataclasses
import enum
import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple


_query_id_counter = itertools.count(1)


def _fresh_query_id(prefix: str) -> str:
    return f"{prefix}-{next(_query_id_counter)}"


class Comparison(enum.Enum):
    """The binary comparison operators of §4.2.2."""

    LT = "<"
    GT = ">"
    EQ = "=="
    LE = "<="
    GE = ">="

    def apply(self, left: Any, right: Any) -> bool:
        """Evaluate ``left <op> right``."""
        if self is Comparison.LT:
            return left < right
        if self is Comparison.GT:
            return left > right
        if self is Comparison.EQ:
            return left == right
        if self is Comparison.LE:
            return left <= right
        return left >= right


class Frozen:
    """Mixin for frozen dataclasses: ``copy.deepcopy`` shares them.

    Checkpoints and restores deep-copy operator state.  A value that can
    never change after construction needs no private copy, so it is
    returned as is and only the mutable containers around it are copied
    (DESIGN.md, "Checkpoints share what cannot change").  A value whose
    fields hold something not frozen -- a query with a
    :class:`CallablePredicate` -- says so in :meth:`holds_only_frozen`
    and is copied field by field, as before.  Pickling is untouched, so
    process-backend shard snapshots still cross processes by value.
    """

    def holds_only_frozen(self) -> bool:
        """False when a field holds a value that is not frozen."""
        return True

    def __deepcopy__(self, memo: Dict[int, Any]) -> Any:
        if self.holds_only_frozen():
            return self
        return dataclasses.replace(
            self,
            **{
                item.name: copy.deepcopy(getattr(self, item.name), memo)
                for item in dataclasses.fields(self)
                if item.init
            },
        )


def is_frozen(value: Any) -> bool:
    """True when ``value`` is shared, not copied, by ``copy.deepcopy``."""
    return isinstance(value, Frozen) and value.holds_only_frozen()


class Predicate:
    """Base class for selection predicates."""

    def evaluate(self, value: Any) -> bool:
        """Return True when ``value`` satisfies the predicate."""
        raise NotImplementedError


@dataclass(frozen=True)
class FieldPredicate(Predicate, Frozen):
    """``fields[field_index] <op> constant`` — the generated predicate form.

    ``value`` objects are expected to expose ``fields`` (a sequence), as
    the workload's :class:`~repro.workloads.datagen.DataTuple` does.
    """

    field_index: int
    op: Comparison
    constant: float

    def __post_init__(self) -> None:
        if self.field_index < 0:
            raise ValueError(
                f"field index must be non-negative, got {self.field_index}"
            )

    def evaluate(self, value: Any) -> bool:
        return self.op.apply(value.fields[self.field_index], self.constant)

    def __str__(self) -> str:
        return f"fields[{self.field_index}] {self.op.value} {self.constant}"


@dataclass(frozen=True)
class TruePredicate(Predicate, Frozen):
    """Accept everything (no WHERE clause)."""

    def evaluate(self, value: Any) -> bool:
        return True

    def __str__(self) -> str:
        return "true"


class CallablePredicate(Predicate):
    """Wrap an arbitrary function — a black-box UDF selection."""

    def __init__(self, fn: Callable[[Any], bool], label: str = "udf") -> None:
        self._fn = fn
        self._label = label

    def evaluate(self, value: Any) -> bool:
        return bool(self._fn(value))

    def __str__(self) -> str:
        return self._label


class WindowKind(enum.Enum):
    """Supported window families (§3.1.3)."""

    TUMBLING = "tumbling"
    SLIDING = "sliding"
    SESSION = "session"


@dataclass(frozen=True)
class WindowSpec(Frozen):
    """A per-query window configuration.

    For time windows, ``length_ms``/``slide_ms`` mirror the templates'
    ``RANGE``/``SLICE`` values; session windows carry ``gap_ms`` only.
    """

    kind: WindowKind
    length_ms: int = 0
    slide_ms: int = 0
    gap_ms: int = 0

    @classmethod
    def tumbling(cls, length_ms: int) -> "WindowSpec":
        """A tumbling window of ``length_ms``."""
        if length_ms <= 0:
            raise ValueError(f"window length must be positive, got {length_ms}")
        return cls(WindowKind.TUMBLING, length_ms=length_ms, slide_ms=length_ms)

    @classmethod
    def sliding(cls, length_ms: int, slide_ms: int) -> "WindowSpec":
        """A sliding window; collapses to tumbling when slide == length."""
        if length_ms <= 0:
            raise ValueError(f"window length must be positive, got {length_ms}")
        if not 0 < slide_ms <= length_ms:
            raise ValueError(
                f"slide must be in (0, length], got slide={slide_ms} "
                f"length={length_ms}"
            )
        if slide_ms == length_ms:
            return cls.tumbling(length_ms)
        return cls(WindowKind.SLIDING, length_ms=length_ms, slide_ms=slide_ms)

    @classmethod
    def session(cls, gap_ms: int) -> "WindowSpec":
        """A session window with inactivity gap ``gap_ms``."""
        if gap_ms <= 0:
            raise ValueError(f"session gap must be positive, got {gap_ms}")
        return cls(WindowKind.SESSION, gap_ms=gap_ms)

    @property
    def is_session(self) -> bool:
        """True for session windows."""
        return self.kind is WindowKind.SESSION

    def retention_ms(self) -> int:
        """How long a tuple can matter to this window after its timestamp."""
        if self.is_session:
            return self.gap_ms
        return self.length_ms

    def make_assigner(self):
        """Build the substrate window assigner for this spec.

        Used by the query-at-a-time baseline, whose jobs run the
        substrate's standard (epoch-aligned) window operators.
        """
        from repro.minispe.windows import (
            SessionWindows,
            SlidingWindows,
            TumblingWindows,
        )

        if self.kind is WindowKind.TUMBLING:
            return TumblingWindows(self.length_ms)
        if self.kind is WindowKind.SLIDING:
            return SlidingWindows(self.length_ms, self.slide_ms)
        return SessionWindows(self.gap_ms)

    def windows_for(self, created_at_ms: int, fire_index: int) -> Tuple[int, int]:
        """The ``fire_index``-th window ``[start, end)`` of an ad-hoc query.

        Ad-hoc query windows are anchored at the query's creation time
        (Figure 4d: windows begin when the query is submitted), so slicing
        is genuinely dynamic — each new query contributes new slice edges.
        """
        if self.is_session:
            raise ValueError("session windows are data-driven, not indexed")
        start = created_at_ms + fire_index * self.slide_ms
        return start, start + self.length_ms

    def __str__(self) -> str:
        if self.is_session:
            return f"session(gap={self.gap_ms}ms)"
        if self.kind is WindowKind.TUMBLING:
            return f"tumbling({self.length_ms}ms)"
        return f"sliding({self.length_ms}ms, {self.slide_ms}ms)"


class AggregationKind(enum.Enum):
    """Aggregation functions supported by the shared aggregation."""

    SUM = "sum"
    COUNT = "count"
    MIN = "min"
    MAX = "max"
    AVG = "avg"


@dataclass(frozen=True)
class AggregationSpec(Frozen):
    """``agg(fields[field_index]) GROUP BY key`` (Figure 8)."""

    kind: AggregationKind = AggregationKind.SUM
    field_index: int = 0

    def initial(self) -> Any:
        """Fresh accumulator."""
        if self.kind in (AggregationKind.SUM, AggregationKind.COUNT):
            return 0
        if self.kind is AggregationKind.AVG:
            return (0, 0)  # (sum, count)
        return None  # MIN / MAX start undefined

    def add(self, acc: Any, value: Any) -> Any:
        """Fold one tuple's field into the accumulator."""
        if self.kind is AggregationKind.COUNT:
            return acc + 1
        sample = value.fields[self.field_index]
        if self.kind is AggregationKind.SUM:
            return acc + sample
        if self.kind is AggregationKind.AVG:
            return (acc[0] + sample, acc[1] + 1)
        if acc is None:
            return sample
        if self.kind is AggregationKind.MIN:
            return min(acc, sample)
        return max(acc, sample)

    def merge(self, left: Any, right: Any) -> Any:
        """Combine two accumulators (for cross-slice combination)."""
        if self.kind in (AggregationKind.SUM, AggregationKind.COUNT):
            return left + right
        if self.kind is AggregationKind.AVG:
            return (left[0] + right[0], left[1] + right[1])
        if left is None:
            return right
        if right is None:
            return left
        if self.kind is AggregationKind.MIN:
            return min(left, right)
        return max(left, right)

    def finish(self, acc: Any) -> Any:
        """Extract the final value from an accumulator."""
        if self.kind is AggregationKind.AVG:
            total, count = acc
            return total / count if count else 0.0
        return acc


@dataclass(frozen=True)
class Stage(Frozen):
    """One shared-operator stage of a query plan.

    ``operator`` names the engine vertex (e.g. ``select:A``, ``join:1``,
    ``agg:A``); the engine subscribes the query's slot at each stage.
    """

    operator: str
    is_output: bool = False
    """True for the stage whose results are routed to the query's sink."""


class Query:
    """Base class for query specifications submitted to an engine."""

    query_id: str
    streams: Tuple[str, ...]

    def stages(self) -> List[Stage]:
        """The shared-operator stages serving this query, in plan order."""
        raise NotImplementedError

    def predicate_for(self, stream: str) -> Predicate:
        """The selection predicate this query applies to ``stream``."""
        raise NotImplementedError

    @property
    def window(self) -> Optional[WindowSpec]:
        """The window of the query's output stage (None for selections)."""
        return None

    def holds_only_frozen(self) -> bool:
        """True unless a predicate is not frozen (a black-box UDF)."""
        return all(
            is_frozen(self.predicate_for(stream)) for stream in self.streams
        )


@dataclass(frozen=True)
class SelectionQuery(Query, Frozen):
    """Filter one stream with a predicate; results go straight to the sink."""

    stream: str
    predicate: Predicate
    query_id: str = field(default_factory=lambda: _fresh_query_id("sel"))

    @property
    def streams(self) -> Tuple[str, ...]:
        """The single stream this selection reads."""
        return (self.stream,)

    def stages(self) -> List[Stage]:
        return [Stage(f"select:{self.stream}", is_output=True)]

    def predicate_for(self, stream: str) -> Predicate:
        if stream != self.stream:
            raise KeyError(f"query {self.query_id} does not read {stream!r}")
        return self.predicate


@dataclass(frozen=True)
class AggregationQuery(Query, Frozen):
    """Windowed grouped aggregation over one stream (Figure 8)."""

    stream: str
    predicate: Predicate
    window_spec: WindowSpec
    aggregation: AggregationSpec = AggregationSpec()
    query_id: str = field(default_factory=lambda: _fresh_query_id("agg"))

    @property
    def streams(self) -> Tuple[str, ...]:
        """The single stream this aggregation reads."""
        return (self.stream,)

    @property
    def window(self) -> WindowSpec:
        return self.window_spec

    def stages(self) -> List[Stage]:
        return [
            Stage(f"select:{self.stream}"),
            Stage(f"agg:{self.stream}", is_output=True),
        ]

    def predicate_for(self, stream: str) -> Predicate:
        if stream != self.stream:
            raise KeyError(f"query {self.query_id} does not read {stream!r}")
        return self.predicate


@dataclass(frozen=True)
class JoinQuery(Query, Frozen):
    """Windowed equi-join of two streams on the key (Figure 7)."""

    left_stream: str
    right_stream: str
    left_predicate: Predicate
    right_predicate: Predicate
    window_spec: WindowSpec
    query_id: str = field(default_factory=lambda: _fresh_query_id("join"))

    def __post_init__(self) -> None:
        if self.left_stream == self.right_stream:
            raise ValueError("self-joins need distinct stream aliases")
        if self.window_spec.is_session:
            raise ValueError("windowed joins use time windows (Figure 7)")

    @property
    def streams(self) -> Tuple[str, ...]:
        """Both joined streams, left first."""
        return (self.left_stream, self.right_stream)

    @property
    def window(self) -> WindowSpec:
        return self.window_spec

    def stages(self) -> List[Stage]:
        return [
            Stage(f"select:{self.left_stream}"),
            Stage(f"select:{self.right_stream}"),
            Stage(f"join:{self.left_stream}~{self.right_stream}", is_output=True),
        ]

    def predicate_for(self, stream: str) -> Predicate:
        if stream == self.left_stream:
            return self.left_predicate
        if stream == self.right_stream:
            return self.right_predicate
        raise KeyError(f"query {self.query_id} does not read {stream!r}")


@dataclass(frozen=True)
class ComplexQuery(Query, Frozen):
    """Selection + n-ary windowed join + windowed aggregation (§4.7).

    The n-ary join over streams ``S0 .. Sn`` executes as a left-deep
    cascade of shared binary joins (the paper: "the output of the shared
    join operator can be shared with other downstream join operators",
    §3.1.5); the final aggregation runs over the join output.
    """

    join_streams: Tuple[str, ...]
    predicates: Tuple[Predicate, ...]
    join_window: WindowSpec
    aggregation_window: WindowSpec
    aggregation: AggregationSpec = AggregationSpec()
    query_id: str = field(default_factory=lambda: _fresh_query_id("cx"))

    def __post_init__(self) -> None:
        if len(self.join_streams) < 2:
            raise ValueError("a complex query joins at least two streams")
        if len(self.predicates) != len(self.join_streams):
            raise ValueError(
                f"need one predicate per stream: {len(self.predicates)} "
                f"predicates for {len(self.join_streams)} streams"
            )
        if self.join_window.is_session:
            raise ValueError("windowed joins use time windows (Figure 7)")

    @property
    def streams(self) -> Tuple[str, ...]:
        """All joined streams, in cascade order."""
        return self.join_streams

    @property
    def window(self) -> WindowSpec:
        return self.aggregation_window

    @property
    def join_arity(self) -> int:
        """Number of binary join stages in the cascade."""
        return len(self.join_streams) - 1

    def stages(self) -> List[Stage]:
        plan = [Stage(f"select:{stream}") for stream in self.join_streams]
        left = self.join_streams[0]
        for right in self.join_streams[1:]:
            plan.append(Stage(f"join:{left}~{right}"))
            left = f"{left}~{right}"
        plan.append(Stage(f"agg:{left}", is_output=True))
        return plan

    def predicate_for(self, stream: str) -> Predicate:
        for candidate, predicate in zip(self.join_streams, self.predicates):
            if candidate == stream:
                return predicate
        raise KeyError(f"query {self.query_id} does not read {stream!r}")
