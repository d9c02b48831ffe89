"""AStream: the paper's contribution — ad-hoc shared stream processing.

This package implements the shared-computation layer of Karimov, Rabl &
Markl, *AStream: Ad-hoc Shared Stream Processing* (SIGMOD 2019) on top of
the :mod:`repro.minispe` substrate:

* :mod:`repro.core.bitset` — query-set bitsets (§2.1.1);
* :mod:`repro.core.query` — query specifications (selection predicates,
  window specs, join/aggregation/complex queries);
* :mod:`repro.core.registry` — query-slot allocation with bit reuse
  (Figure 3c) and the naive append-only policy for ablation (Figure 3b);
* :mod:`repro.core.changelog` — changelogs, changelog-sets, and the
  Equation 1 dynamic program (Figure 4b/4c);
* :mod:`repro.core.session` — the shared session: request batching and
  changelog generation (§3.1.1);
* :mod:`repro.core.selection` — shared selection, tagging tuples with
  query-sets (§3.1.2);
* :mod:`repro.core.slicing` — dynamic window slicing (§3.1.3, Figure 4e);
* :mod:`repro.core.storage` — per-slice tuple stores: grouped-by-query-set
  vs flat list, with the adaptive switch heuristic (§3.1.4, §3.2.3);
* :mod:`repro.core.shared_join` — incremental shared windowed join with a
  pairwise computation history (§3.1.4, Figure 4f);
* :mod:`repro.core.shared_aggregation` — shared windowed aggregation with
  per-slice per-query partials (§3.1.5);
* :mod:`repro.core.router` — routing result tuples to per-query channels
  (§3.1.6);
* :mod:`repro.core.engine` — the user-facing :class:`AStreamEngine`
  facade wiring everything into one never-redeployed topology (Figure 2);
* :mod:`repro.core.qos` — quality-of-service metrics (§3.4).
"""

from repro.core.bitset import QuerySet
from repro.core.changelog import Changelog, ChangelogTable, QueryActivation
from repro.core.engine import AStreamEngine, EngineConfig
from repro.core.query import (
    AggregationQuery,
    AggregationSpec,
    ComplexQuery,
    FieldPredicate,
    JoinQuery,
    Predicate,
    SelectionQuery,
    TruePredicate,
    WindowSpec,
)
from repro.core.admission import (
    AdmissionController,
    AdmissionDecision,
    AdmissionPolicy,
)
from repro.core.registry import QueryRegistry, SlotPolicy
from repro.core.serde import (
    SerdeError,
    load_schedule,
    query_from_dict,
    query_to_dict,
    save_schedule,
    schedule_from_dict,
    schedule_to_dict,
)
from repro.core.session import QueryRequest, SharedSession
from repro.core.sql import SqlError, parse_query

__all__ = [
    "AdmissionController",
    "AdmissionDecision",
    "AdmissionPolicy",
    "AStreamEngine",
    "AggregationQuery",
    "AggregationSpec",
    "Changelog",
    "ChangelogTable",
    "ComplexQuery",
    "EngineConfig",
    "FieldPredicate",
    "JoinQuery",
    "Predicate",
    "QueryActivation",
    "QueryRegistry",
    "QueryRequest",
    "QuerySet",
    "SelectionQuery",
    "SerdeError",
    "SharedSession",
    "SlotPolicy",
    "SqlError",
    "TruePredicate",
    "WindowSpec",
    "load_schedule",
    "parse_query",
    "query_from_dict",
    "query_to_dict",
    "save_schedule",
    "schedule_from_dict",
    "schedule_to_dict",
]
