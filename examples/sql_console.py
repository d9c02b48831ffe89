"""SQL console: ad-hoc queries in the paper's template SQL, with
QoS-gated admission.

Parses Figure 7/8-style statements, submits them through the
:class:`~repro.core.admission.AdmissionController`, and prints results —
the workflow of an analyst at a multi-tenant streaming platform.

Run with::

    python examples/sql_console.py
"""

from repro import AStreamEngine, EngineConfig, parse_query
from repro.core.admission import (
    AdmissionController,
    AdmissionPolicy,
)
from repro.core.qos import QoSMonitor, QoSThresholds
from repro.workloads.datagen import DataGenerator

STATEMENTS = [
    # Figure 7: windowed equi-join with per-stream predicates.
    "SELECT * FROM A, B RANGE 2 "
    "WHERE A.KEY = B.KEY AND A.FIELD1 > 40 AND B.FIELD2 <= 70",
    # Figure 8: windowed grouped aggregation.
    "SELECT SUM(A.FIELD1) FROM A RANGE 3 SLICE 1 "
    "WHERE A.FIELD3 >= 20 GROUP BY A.KEY",
    # Session analytics.
    "SELECT COUNT(*) FROM B SESSION 1 GROUP BY KEY",
    # §4.7 complex pipeline: join cascade + aggregation.
    "SELECT MAX(A.FIELD2) FROM A, B RANGE 2 AGGREGATE RANGE 4 "
    "WHERE A.KEY = B.KEY AND A.FIELD1 > 10 GROUP BY KEY",
]


def main() -> None:
    qos = QoSMonitor(
        sample_every=32,
        thresholds=QoSThresholds(max_event_time_latency_ms=30_000),
    )
    engine = AStreamEngine(
        EngineConfig(streams=("A", "B")),
        on_deliver=qos.on_deliver,
    )
    controller = AdmissionController(
        engine, qos, AdmissionPolicy(max_active_queries=10)
    )

    submitted = []
    for statement in STATEMENTS:
        query = parse_query(statement)
        decision = controller.submit(query, now_ms=0)
        print(f"[{decision.value:6s}] {type(query).__name__:16s} {statement}")
        submitted.append(query)
    engine.flush_session(0)
    print(f"\n{engine.active_query_count} queries live on one shared topology\n")

    gen_a, gen_b = DataGenerator(seed=11, key_max=50), DataGenerator(seed=12, key_max=50)
    for ts in range(0, 8_000, 25):
        engine.push("A", ts, gen_a.next_tuple())
        engine.push("B", ts, gen_b.next_tuple())
    engine.watermark(16_000)

    for query in submitted:
        outputs = engine.results(query.query_id)
        print(f"{query.query_id:8s} {len(outputs):6d} results", end="")
        if outputs and hasattr(outputs[0].value, "window"):
            sample = outputs[0].value
            print(f"   e.g. key={sample.key} window=[{sample.window.start},"
                  f"{sample.window.end}) value={sample.value}")
        else:
            print()
    print(f"\nadmission: {controller.admitted_total} admitted, "
          f"{controller.deferred_total} deferred, "
          f"{controller.rejected_total} rejected")
    print("\nselection sharing per stream (covering groups, §7):")
    for stream, summary in engine.sharing_summary().items():
        print(f"  {stream}: {summary['groups']:.0f} groups over "
              f"{summary['grouped_slots']:.0f} query slots, "
              f"{summary['direct_predicates']:.0f} direct predicates")
    engine.shutdown()


if __name__ == "__main__":
    main()
