"""Job graph: vertices, edges, and partitioning strategies.

A :class:`JobGraph` is the logical dataflow a job submits to the runtime:
*source* vertices (fed by the driver), *operator* vertices (each with an
operator factory and a parallelism), and edges carrying a
:class:`Partitioning` strategy plus the input index they feed on binary
operators.

The main assumption of the paper (§2) — operators can be shared as long as
they have common upstream operators and common partitioning keys — shows
up here: AStream builds a single graph whose shared join/aggregation
vertices are hash-partitioned on the common key.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional


class Partitioning(enum.Enum):
    """How records are distributed across downstream parallel instances."""

    FORWARD = "forward"
    """Instance *i* sends to instance *i* (parallelism must match)."""

    HASH = "hash"
    """Route by ``hash(record.key) % parallelism`` — keyed streams."""

    BROADCAST = "broadcast"
    """Every record goes to every downstream instance."""

    REBALANCE = "rebalance"
    """Round-robin across downstream instances."""


@dataclass
class Edge:
    """A directed dataflow edge."""

    source: str
    target: str
    partitioning: Partitioning = Partitioning.FORWARD
    input_index: int = 0
    """Which input of the target this edge feeds (0 or 1 for joins)."""


@dataclass
class Vertex:
    """A logical dataflow vertex."""

    name: str
    operator_factory: Optional[Callable[[], Any]]
    """None for sources (they are fed externally by the driver)."""
    parallelism: int = 1
    is_source: bool = field(default=False)

    def __post_init__(self) -> None:
        if self.parallelism <= 0:
            raise ValueError(
                f"vertex {self.name!r}: parallelism must be positive, "
                f"got {self.parallelism}"
            )


class JobGraph:
    """A logical streaming dataflow graph.

    Vertices are added with :meth:`add_source` / :meth:`add_operator` and
    wired with :meth:`connect`.  :meth:`validate` checks structural rules
    before the runtime deploys the graph.
    """

    def __init__(self, name: str = "job") -> None:
        self.name = name
        self.vertices: Dict[str, Vertex] = {}
        self.edges: List[Edge] = []

    # -- construction ------------------------------------------------------

    def add_source(self, name: str) -> "JobGraph":
        """Add a source vertex (fed externally; parallelism 1)."""
        self._add_vertex(Vertex(name, None, parallelism=1, is_source=True))
        return self

    def add_operator(
        self,
        name: str,
        operator_factory: Callable[[], Any],
        parallelism: int = 1,
    ) -> "JobGraph":
        """Add an operator vertex built from ``operator_factory``."""
        self._add_vertex(Vertex(name, operator_factory, parallelism))
        return self

    def connect(
        self,
        source: str,
        target: str,
        partitioning: Partitioning = Partitioning.FORWARD,
        input_index: int = 0,
    ) -> "JobGraph":
        """Wire ``source`` → ``target`` with the given partitioning."""
        if source not in self.vertices:
            raise KeyError(f"unknown edge source vertex {source!r}")
        if target not in self.vertices:
            raise KeyError(f"unknown edge target vertex {target!r}")
        if input_index not in (0, 1):
            raise ValueError(f"input_index must be 0 or 1, got {input_index}")
        self.edges.append(Edge(source, target, partitioning, input_index))
        return self

    def _add_vertex(self, vertex: Vertex) -> None:
        if vertex.name in self.vertices:
            raise ValueError(f"duplicate vertex name {vertex.name!r}")
        self.vertices[vertex.name] = vertex

    # -- queries -----------------------------------------------------------

    def sources(self) -> List[Vertex]:
        """All source vertices."""
        return [vertex for vertex in self.vertices.values() if vertex.is_source]

    def out_edges(self, name: str) -> List[Edge]:
        """Edges leaving vertex ``name``."""
        return [edge for edge in self.edges if edge.source == name]

    def in_edges(self, name: str) -> List[Edge]:
        """Edges entering vertex ``name``."""
        return [edge for edge in self.edges if edge.target == name]

    # -- validation --------------------------------------------------------

    def validate(self) -> None:
        """Check structural invariants; raise ``ValueError`` on violation.

        Rules: at least one source; no cycles; forward edges connect equal
        parallelism; every non-source vertex has at least one input; no
        vertex feeds the same input index from conflicting edge sets in a
        way the runtime cannot align (a binary input index may have several
        upstream edges — union semantics — but a unary operator must only
        use input 0).
        """
        if not self.sources():
            raise ValueError("job graph has no source vertex")
        for vertex in self.vertices.values():
            if not vertex.is_source and not self.in_edges(vertex.name):
                raise ValueError(f"vertex {vertex.name!r} has no inputs")
        for edge in self.edges:
            if edge.partitioning is Partitioning.FORWARD:
                up = self.vertices[edge.source].parallelism
                down = self.vertices[edge.target].parallelism
                if up != down:
                    raise ValueError(
                        f"forward edge {edge.source!r}->{edge.target!r} "
                        f"connects parallelism {up} to {down}"
                    )
        self._check_acyclic()

    def _check_acyclic(self) -> None:
        # Kahn's algorithm over vertex names.
        indegree = {name: 0 for name in self.vertices}
        for edge in self.edges:
            indegree[edge.target] += 1
        frontier = [name for name, deg in indegree.items() if deg == 0]
        visited = 0
        while frontier:
            name = frontier.pop()
            visited += 1
            for edge in self.out_edges(name):
                indegree[edge.target] -= 1
                if indegree[edge.target] == 0:
                    frontier.append(edge.target)
        if visited != len(self.vertices):
            raise ValueError("job graph contains a cycle")

    def topological_order(self) -> List[str]:
        """Vertex names in a deterministic topological order."""
        indegree = {name: 0 for name in self.vertices}
        for edge in self.edges:
            indegree[edge.target] += 1
        frontier = sorted(name for name, deg in indegree.items() if deg == 0)
        order: List[str] = []
        while frontier:
            name = frontier.pop(0)
            order.append(name)
            ready = []
            for edge in self.out_edges(name):
                indegree[edge.target] -= 1
                if indegree[edge.target] == 0:
                    ready.append(edge.target)
            frontier.extend(sorted(ready))
            frontier.sort()
        if len(order) != len(self.vertices):
            raise ValueError("job graph contains a cycle")
        return order

    def total_instances(self) -> int:
        """Total number of parallel operator instances in this graph."""
        return sum(
            vertex.parallelism
            for vertex in self.vertices.values()
            if not vertex.is_source
        )

    def __repr__(self) -> str:
        return (
            f"JobGraph({self.name!r}, vertices={len(self.vertices)}, "
            f"edges={len(self.edges)})"
        )
