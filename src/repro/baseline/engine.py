"""The query-at-a-time engine: one independent pipeline per query.

This is the Flink execution model the paper compares against:

* every query creation deploys a **new** topology (filter → windowed
  join/aggregation → sink), paying job submission and operator placement
  each time and occupying task slots for its own operator instances;
* the input stream is forked to every running job, so a tuple is
  filtered, shuffled, and windowed once *per query* — there is no shared
  computation, no query-sets, no slicing;
* when the cluster runs out of slots the deployment fails with
  :class:`~repro.minispe.cluster.ClusterCapacityError` — the paper's
  "throws an exception" failure mode (§4.4); the driver's queueing of
  the several-second deployments produces the "ever-increasing latency"
  one (Figure 10a).

A job consumes its streams from the latest offset at creation time
(tuples with event time before the query's creation are not delivered),
matching how an ad-hoc Flink job attaches to a message bus.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from repro.baseline.deployment import BaselineDeploymentModel
from repro.core.engine import DeploymentEvent
from repro.core.query import (
    AggregationQuery,
    ComplexQuery,
    JoinQuery,
    Query,
    SelectionQuery,
)
from repro.core.router import QueryChannels, QueryOutput
from repro.core.shared_join import JoinedTuple
from repro.minispe.cluster import SimulatedCluster
from repro.minispe.graph import JobGraph, Partitioning
from repro.minispe.operators import FilterOperator
from repro.minispe.record import Record, RecordBatch, Watermark
from repro.minispe.runtime import JobRuntime
from repro.minispe.sinks import CallbackSink
from repro.minispe.window_operators import (
    WindowedAggregateOperator,
    WindowedJoinOperator,
)


class UnsustainableWorkload(RuntimeError):
    """Raised when the baseline cannot keep up (the paper's failure)."""


@dataclass
class _Job:
    """One deployed query's topology."""

    query: Query
    runtime: JobRuntime
    created_at_ms: int
    streams: tuple
    instances: int


class QueryAtATimeEngine:
    """Flink-model baseline: no sharing, one topology per query.

    The public surface mirrors :class:`repro.core.engine.AStreamEngine`
    (submit / stop / push / watermark / results) so the harness drives
    both SUTs identically.
    """

    def __init__(
        self,
        cluster: Optional[SimulatedCluster] = None,
        deployment: Optional[BaselineDeploymentModel] = None,
        parallelism: Optional[int] = None,
        on_deliver=None,
        retain_results: bool = True,
    ) -> None:
        self.cluster = cluster or SimulatedCluster()
        self.deployment = deployment or BaselineDeploymentModel()
        self._parallelism = (
            parallelism
            if parallelism is not None
            else self.cluster.parallelism_for()
        )
        self.channels = QueryChannels(
            retain_results=retain_results, on_deliver=on_deliver
        )
        self._jobs: Dict[str, _Job] = {}
        self._first_deploy = True
        self.deployment_events: List[DeploymentEvent] = []
        self._last_watermark_ms = -1

    # -- query control -----------------------------------------------------

    def submit(self, query: Query, now_ms: int) -> str:
        """Deploy a new topology for ``query``; returns the query id.

        Raises :class:`~repro.minispe.cluster.ClusterCapacityError` when
        the cluster has no free slots for another topology.
        """
        graph = self._build_graph(query)
        instances = graph.total_instances()
        self.cluster.allocate(query.query_id, instances)
        runtime = JobRuntime(graph)
        self._jobs[query.query_id] = _Job(
            query=query,
            runtime=runtime,
            created_at_ms=now_ms,
            streams=tuple(query.streams),
            instances=instances,
        )
        self.channels.open_channel(query.query_id)
        deploy_ms = self.deployment.deploy_ms(
            instances, self.cluster.spec.nodes, first=self._first_deploy
        )
        self._first_deploy = False
        self.deployment_events.append(
            DeploymentEvent(
                query_id=query.query_id,
                kind="create",
                requested_at_ms=now_ms,
                changelog_at_ms=now_ms,
                ready_at_ms=now_ms + deploy_ms,
            )
        )
        return query.query_id

    def stop(self, query_id: str, now_ms: int) -> None:
        """Stop and tear down one query's topology."""
        job = self._jobs.pop(query_id, None)
        if job is None:
            raise KeyError(f"query {query_id!r} is not running")
        job.runtime.close()
        self.cluster.release(query_id)
        self.channels.close_channel(query_id)
        self.deployment_events.append(
            DeploymentEvent(
                query_id=query_id,
                kind="delete",
                requested_at_ms=now_ms,
                changelog_at_ms=now_ms,
                ready_at_ms=now_ms + self.deployment.stop_ms(),
            )
        )

    def deploy_cost_ms(self, query: Query) -> int:
        """The virtual-time cost the driver should charge for ``query``."""
        graph = self._build_graph(query)
        return self.deployment.deploy_ms(
            graph.total_instances(), self.cluster.spec.nodes, self._first_deploy
        )

    # -- topology per query kind -----------------------------------------------

    def _build_graph(self, query: Query) -> JobGraph:
        if isinstance(query, SelectionQuery):
            return self._selection_graph(query)
        if isinstance(query, AggregationQuery):
            return self._aggregation_graph(query)
        if isinstance(query, JoinQuery):
            return self._join_graph(query)
        if isinstance(query, ComplexQuery):
            return self._complex_graph(query)
        raise TypeError(f"unsupported query type {type(query).__name__}")

    def _sink_factory(self, query_id: str):
        deliver = self.channels.deliver

        def make_sink():
            return CallbackSink(
                lambda record, qid=query_id: deliver(
                    qid, record.timestamp, record.value
                ),
                name=f"sink:{query_id}",
            )

        return make_sink

    def _selection_graph(self, query: SelectionQuery) -> JobGraph:
        graph = JobGraph(query.query_id)
        graph.add_source("src")
        graph.add_operator(
            "filter",
            lambda: FilterOperator(query.predicate.evaluate),
            parallelism=self._parallelism,
        )
        graph.add_operator("sink", self._sink_factory(query.query_id))
        graph.connect("src", "filter", Partitioning.REBALANCE)
        graph.connect("filter", "sink", Partitioning.REBALANCE)
        return graph

    def _aggregation_graph(self, query: AggregationQuery) -> JobGraph:
        spec = query.aggregation
        graph = JobGraph(query.query_id)
        graph.add_source("src")
        graph.add_operator(
            "filter",
            lambda: FilterOperator(query.predicate.evaluate),
            parallelism=self._parallelism,
        )
        graph.add_operator(
            "window_agg",
            lambda: WindowedAggregateOperator(
                query.window_spec.make_assigner(),
                init=spec.initial,
                add=spec.add,
                merge=spec.merge,
                finish=spec.finish,
            ),
            parallelism=self._parallelism,
        )
        graph.add_operator("sink", self._sink_factory(query.query_id))
        graph.connect("src", "filter", Partitioning.REBALANCE)
        graph.connect("filter", "window_agg", Partitioning.HASH)
        graph.connect("window_agg", "sink", Partitioning.REBALANCE)
        return graph

    def _join_graph(self, query: JoinQuery) -> JobGraph:
        graph = JobGraph(query.query_id)
        graph.add_source(f"src:{query.left_stream}")
        graph.add_source(f"src:{query.right_stream}")
        graph.add_operator(
            "filter_left",
            lambda: FilterOperator(query.left_predicate.evaluate),
            parallelism=self._parallelism,
        )
        graph.add_operator(
            "filter_right",
            lambda: FilterOperator(query.right_predicate.evaluate),
            parallelism=self._parallelism,
        )
        graph.add_operator(
            "window_join",
            lambda: WindowedJoinOperator(query.window_spec.make_assigner()),
            parallelism=self._parallelism,
        )
        graph.add_operator("sink", self._sink_factory(query.query_id))
        graph.connect(f"src:{query.left_stream}", "filter_left", Partitioning.REBALANCE)
        graph.connect(
            f"src:{query.right_stream}", "filter_right", Partitioning.REBALANCE
        )
        graph.connect("filter_left", "window_join", Partitioning.HASH, input_index=0)
        graph.connect("filter_right", "window_join", Partitioning.HASH, input_index=1)
        graph.connect("window_join", "sink", Partitioning.REBALANCE)
        return graph

    def _complex_graph(self, query: ComplexQuery) -> JobGraph:
        spec = query.aggregation
        graph = JobGraph(query.query_id)
        for stream, predicate in zip(query.join_streams, query.predicates):
            graph.add_source(f"src:{stream}")
            graph.add_operator(
                f"filter:{stream}",
                lambda p=predicate: FilterOperator(p.evaluate),
                parallelism=self._parallelism,
            )
            graph.connect(f"src:{stream}", f"filter:{stream}", Partitioning.REBALANCE)

        def flatten(key, left, right, window):
            left_parts = left.parts if isinstance(left, JoinedTuple) else (left,)
            right_parts = right.parts if isinstance(right, JoinedTuple) else (right,)
            return JoinedTuple(
                key=key,
                parts=left_parts + right_parts,
                timestamp=window.max_timestamp(),
            )

        upstream = f"filter:{query.join_streams[0]}"
        for depth, stream in enumerate(query.join_streams[1:], start=1):
            join_name = f"join{depth}"
            graph.add_operator(
                join_name,
                lambda: WindowedJoinOperator(
                    query.join_window.make_assigner(), result_fn=flatten
                ),
                parallelism=self._parallelism,
            )
            graph.connect(upstream, join_name, Partitioning.HASH, input_index=0)
            graph.connect(
                f"filter:{stream}", join_name, Partitioning.HASH, input_index=1
            )
            upstream = join_name
        graph.add_operator(
            "window_agg",
            lambda: WindowedAggregateOperator(
                query.aggregation_window.make_assigner(),
                init=spec.initial,
                add=spec.add,
                merge=spec.merge,
                finish=spec.finish,
            ),
            parallelism=self._parallelism,
        )
        graph.add_operator("sink", self._sink_factory(query.query_id))
        graph.connect(upstream, "window_agg", Partitioning.HASH)
        graph.connect("window_agg", "sink", Partitioning.REBALANCE)
        return graph

    # -- fault tolerance ---------------------------------------------------------

    def recover(self) -> int:
        """Supervised restart after a failure: redeploy every running job.

        The query-at-a-time model has no shared checkpoint/replay path:
        each job's topology is rebuilt from scratch and its in-flight
        window state is lost (the tuples-before-creation semantics of an
        ad-hoc job re-attaching to the bus).  Slot allocations and result
        channels are preserved.  Returns the number of jobs redeployed.
        """
        for job in self._jobs.values():
            # No close(): a crash discards in-flight state, it does not
            # flush pending windows.
            job.runtime = JobRuntime(self._build_graph(job.query))
        return len(self._jobs)

    # -- data path ----------------------------------------------------------------

    def push(self, stream: str, timestamp: int, value: Any, key: Any = None) -> None:
        """Fork one tuple to every running job that reads ``stream``.

        This is the baseline's fundamental cost: with *k* matching
        queries the tuple is processed *k* times.
        """
        if key is None:
            key = getattr(value, "key", None)
        record = Record(timestamp=timestamp, value=value, key=key)
        for job in self._jobs.values():
            if stream in job.streams and timestamp >= job.created_at_ms:
                source = self._source_name(job, stream)
                job.runtime.push(source, record)

    def push_many(self, stream: str, tuples: List) -> int:
        """Fork a micro-batch of ``(timestamp, value)`` tuples to jobs.

        Records are materialised once; each matching job receives the
        sub-batch of tuples at or after its creation time (the same
        attach-from-latest-offset rule as :meth:`push`).  Returns the
        number of tuples injected.
        """
        records = [
            Record(
                timestamp=timestamp,
                value=value,
                key=getattr(value, "key", None),
            )
            for timestamp, value in tuples
        ]
        if not records:
            return 0
        for job in self._jobs.values():
            if stream not in job.streams:
                continue
            created = job.created_at_ms
            eligible = [r for r in records if r.timestamp >= created]
            if not eligible:
                continue
            job.runtime.push(
                self._source_name(job, stream), RecordBatch(eligible)
            )
        return len(records)

    def watermark(self, timestamp: int) -> None:
        """Advance event time on every stream of every job."""
        if timestamp <= self._last_watermark_ms:
            return
        self._last_watermark_ms = timestamp
        watermark = Watermark(timestamp=timestamp)
        for job in self._jobs.values():
            for source in job.runtime.graph.sources():
                job.runtime.push(source.name, watermark)

    @staticmethod
    def _source_name(job: _Job, stream: str) -> str:
        if len(job.streams) == 1:
            return "src"
        return f"src:{stream}"

    # -- results & stats --------------------------------------------------------------

    def results(self, query_id: str) -> List[QueryOutput]:
        """Results delivered to a query so far."""
        return self.channels.results(query_id)

    def canonical_results(self, query_id: str) -> List[QueryOutput]:
        """Results in the deterministic cross-backend merge order.

        Lets equivalence tests compare the baseline against either
        AStream backend without caring about arrival order.
        """
        return self.channels.canonical_results(query_id)

    def result_count(self, query_id: str) -> int:
        """Number of results delivered to a query."""
        return self.channels.count(query_id)

    def result_counts(self) -> Dict[str, int]:
        """Delivered-result count per query (driver reporting)."""
        return {
            query_id: self.channels.count(query_id)
            for query_id in self.channels.query_ids()
        }

    @property
    def active_query_count(self) -> int:
        """Currently running jobs."""
        return len(self._jobs)

    @property
    def used_slots(self) -> int:
        """Task slots occupied by all running jobs."""
        return self.cluster.used_slots

    def shutdown(self) -> None:
        """Stop every job and release all slots."""
        for query_id in list(self._jobs):
            job = self._jobs.pop(query_id)
            job.runtime.close()
            self.cluster.release(query_id)
