"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import pytest

from repro.core.engine import AStreamEngine, EngineConfig
from repro.minispe.cluster import ClusterSpec, SimulatedCluster
from repro.core.shared_aggregation import WindowRun
from repro.minispe.record import Record, RecordBatch
from repro.workloads.datagen import DataTuple


def make_tuple(key: int = 0, fields: Sequence[int] = (0, 0, 0, 0, 0)) -> DataTuple:
    """Build a workload tuple with explicit fields."""
    return DataTuple(key=key, fields=tuple(fields))


def field_tuple(key: int, **field_values: int) -> DataTuple:
    """Build a tuple setting individual fields: ``field_tuple(1, f0=42)``."""
    fields = [0, 0, 0, 0, 0]
    for name, value in field_values.items():
        if not name.startswith("f"):
            raise ValueError(f"field names look like f0..f4, got {name!r}")
        fields[int(name[1:])] = value
    return DataTuple(key=key, fields=tuple(fields))


def flat_collector(out: list):
    """An operator collector that appends emitted elements to ``out``,
    unpacking each emitted batch into its records, and each fired-window
    run into one record per result (key, ``AggregationResult``)."""

    def collect(element) -> None:
        if not isinstance(element, RecordBatch):
            out.append(element)
            return
        for record in element.records:
            run = record.value
            if type(run) is WindowRun:
                out.extend(
                    Record(record.timestamp, result, result.key, record.tags)
                    for result in run.results()
                )
            else:
                out.append(record)

    return collect


@pytest.fixture
def small_cluster() -> SimulatedCluster:
    """A 4-node cluster like the paper's smaller configuration."""
    return SimulatedCluster(ClusterSpec(nodes=4))


def make_engine(
    streams: Tuple[str, ...] = ("A", "B"),
    parallelism: int = 1,
    cluster: Optional[SimulatedCluster] = None,
    **config_overrides,
) -> AStreamEngine:
    """A compact AStream engine for unit tests."""
    return AStreamEngine(
        EngineConfig(streams=streams, parallelism=parallelism, **config_overrides),
        cluster=cluster or SimulatedCluster(ClusterSpec(nodes=4)),
    )


def go_live(engine: AStreamEngine, queries, now_ms: int = 0) -> int:
    """Submit queries and force the changelog; returns the marker time."""
    for query in queries:
        engine.submit(query, now_ms)
    engine.flush_session(now_ms)
    return now_ms
