"""SQL → normalized-plan equivalence (ISSUE 8 satellite).

The serve layer accepts the same query as a serde document or as SQL
text (``create_query`` routes through ``query_from_dict`` /
``parse_query``).  The sharing optimizer must not care which spelling
arrived: canonical form is representation-independent, so both land in
the same sharing group with the same covering plan.
"""

from repro.core.planner import normalize
from repro.core.query import Comparison, FieldPredicate, SelectionQuery
from repro.core.selection import QS_TAG
from repro.core.serde import query_from_dict, query_to_dict
from repro.core.sql import ConjunctionPredicate, parse_query
from repro.minispe.record import Record
from tests.conftest import field_tuple, flat_collector, go_live, make_engine

SQL = "SELECT * FROM A WHERE A.F0 >= 25 AND A.F0 <= 40"


def _doc_query(query_id: str) -> SelectionQuery:
    """The same region as ``SQL``, spelled as a serde doc — with the
    conjuncts permuted, so value-identity dedup alone cannot merge it
    with the SQL parse."""
    document = query_to_dict(
        SelectionQuery(
            stream="A",
            predicate=ConjunctionPredicate(
                (
                    FieldPredicate(0, Comparison.LE, 40),
                    FieldPredicate(0, Comparison.GE, 25),
                )
            ),
            query_id=query_id,
        )
    )
    return query_from_dict(document)


def test_sql_and_doc_forms_normalize_identically():
    sql_query = parse_query(SQL)
    doc_query = _doc_query("doc-1")
    sql_norm = normalize(sql_query.predicate_for("A"))
    doc_norm = normalize(doc_query.predicate_for("A"))
    # Different predicate objects (permuted conjuncts)...
    assert sql_query.predicate_for("A") != doc_query.predicate_for("A")
    # ...same canonical region.
    assert sql_norm.canonical_key == doc_norm.canonical_key


def test_both_representations_land_in_one_sharing_group():
    engine = make_engine(streams=("A",))
    go_live(engine, [parse_query(SQL), _doc_query("doc-2")])
    operator = engine.selection_operators("A")[0]
    stats = operator.sharing_group_stats()
    assert stats["groups"] == 1
    assert stats["grouped_slots"] == 2
    assert stats["direct_predicates"] == 0
    plan = operator._views[-1].plan
    assert plan.groups[0].slots_mask == 0b11
    engine.shutdown()


def test_shared_group_tags_both_queries_identically():
    engine = make_engine(streams=("A",))
    go_live(engine, [parse_query(SQL), _doc_query("doc-3")])
    operator = engine.selection_operators("A")[0]
    tagged = []
    operator.set_collector(flat_collector(tagged))
    operator.process(Record(timestamp=5, value=field_tuple(1, f0=30), key=1))
    operator.process(Record(timestamp=6, value=field_tuple(1, f0=80), key=1))
    records = [element for element in tagged if isinstance(element, Record)]
    assert len(records) == 1  # f0=80 matches neither spelling
    assert records[0].tags[QS_TAG] == 0b11  # f0=30 matches both
    engine.shutdown()
