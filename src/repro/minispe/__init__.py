"""A miniature distributed stream processing engine (the substrate).

``repro.minispe`` stands in for Apache Flink 1.5.2, which the AStream paper
uses as its underlying SPE.  It provides the pieces AStream's shared layer
needs operator-internal access to:

* an event-time data model with records, watermarks, changelog markers, and
  checkpoint barriers (:mod:`repro.minispe.record`);
* an operator framework with user-defined stateful operators
  (:mod:`repro.minispe.operators`);
* window assigners, triggers, and evictors for tumbling, sliding, and
  session windows (:mod:`repro.minispe.windows`);
* per-query (non-shared) windowed aggregation and join operators used by
  the query-at-a-time baseline (:mod:`repro.minispe.window_operators`);
* a job graph with forward / hash / broadcast partitioning
  (:mod:`repro.minispe.graph`) and a deterministic push-based runtime with
  simulated operator parallelism (:mod:`repro.minispe.runtime`);
* keyed and operator state with snapshot support (:mod:`repro.minispe.state`)
  plus a checkpoint coordinator and replay-based recovery
  (:mod:`repro.minispe.checkpoint`);
* a simulated cluster with a deployment-cost model
  (:mod:`repro.minispe.cluster`); the metrics primitives re-exported here
  live in :mod:`repro.obs.registry`.

The engine executes the data path for real (tuples are materialised,
predicates evaluated, joins computed); only the *cluster* is simulated.
"""

from repro.minispe.record import (
    ChangelogMarker,
    CheckpointBarrier,
    Record,
    RecordBatch,
    StreamElement,
    Watermark,
)
from repro.minispe.time import VirtualClock
from repro.minispe.operators import (
    FilterOperator,
    MapOperator,
    Operator,
    TwoInputOperator,
)
from repro.minispe.windows import (
    SessionWindows,
    SlidingWindows,
    TumblingWindows,
    Window,
    WindowAssigner,
)
from repro.minispe.graph import JobGraph, Partitioning
from repro.minispe.runtime import JobRuntime
from repro.minispe.state import KeyedState, OperatorState
from repro.minispe.checkpoint import CheckpointCoordinator, SourceLog
from repro.minispe.cluster import ClusterSpec, SimulatedCluster
from repro.obs.registry import Counter, Gauge, Histogram

__all__ = [
    "ChangelogMarker",
    "CheckpointBarrier",
    "CheckpointCoordinator",
    "ClusterSpec",
    "Counter",
    "FilterOperator",
    "Gauge",
    "Histogram",
    "JobGraph",
    "JobRuntime",
    "KeyedState",
    "MapOperator",
    "Operator",
    "OperatorState",
    "Partitioning",
    "Record",
    "RecordBatch",
    "SessionWindows",
    "SimulatedCluster",
    "SlidingWindows",
    "SourceLog",
    "StreamElement",
    "TumblingWindows",
    "TwoInputOperator",
    "VirtualClock",
    "Watermark",
    "Window",
    "WindowAssigner",
]
