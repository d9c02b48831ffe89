"""Command-line entry point: regenerate the paper's figures.

Usage::

    python -m repro list                      # available experiments
    python -m repro figures                   # run all (quick scale)
    python -m repro figures --only fig10 fig17
    python -m repro figures --full            # paper-scale query counts
    python -m repro sql "SELECT * FROM A, B RANGE 3 WHERE A.KEY = B.KEY"
    python -m repro serve --port 4650 --backend process --workers 4
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import List

from repro.harness.figures import ALL_FIGURES
from repro.harness.report import render_table


def _cmd_list(_args) -> int:
    print("available experiments:")
    for name, experiment in sorted(ALL_FIGURES.items()):
        summary = (experiment.__doc__ or "").strip().splitlines()[0]
        print(f"  {name:8s} {summary}")
    return 0


def _cmd_figures(args) -> int:
    names: List[str] = args.only or sorted(ALL_FIGURES)
    unknown = [name for name in names if name not in ALL_FIGURES]
    if unknown:
        print(f"unknown experiments: {', '.join(unknown)}", file=sys.stderr)
        print(f"known: {', '.join(sorted(ALL_FIGURES))}", file=sys.stderr)
        return 2
    quick = not args.full
    for name in names:
        started = time.perf_counter()
        result = ALL_FIGURES[name](quick=quick)
        elapsed = time.perf_counter() - started
        print(render_table(result))
        print(f"[{name} completed in {elapsed:.1f}s]\n")
        if args.csv:
            from pathlib import Path

            from repro.harness.report import render_csv

            directory = Path(args.csv)
            directory.mkdir(parents=True, exist_ok=True)
            target = directory / f"{name}.csv"
            target.write_text(render_csv(result))
            print(f"[wrote {target}]\n")
    return 0


def _cmd_sql(args) -> int:
    from repro.core.sql import SqlError, parse_query

    try:
        query = parse_query(args.statement)
    except SqlError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    if args.json:
        import json

        from repro.core.serde import query_to_dict

        print(json.dumps(query_to_dict(query), indent=2))
        return 0
    print(f"{type(query).__name__} ({query.query_id})")
    print(f"  streams: {', '.join(query.streams)}")
    for stage in query.stages():
        marker = "  -> sink" if stage.is_output else ""
        print(f"  stage: {stage.operator}{marker}")
    return 0


def main(argv: List[str] = None) -> int:
    """Parse arguments and dispatch."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="AStream (SIGMOD 2019) reproduction harness",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    commands.add_parser("list", help="list figure experiments")

    figures = commands.add_parser("figures", help="run figure experiments")
    figures.add_argument(
        "--only", nargs="+", metavar="FIG",
        help="run only these experiments (e.g. fig10 fig17)",
    )
    figures.add_argument(
        "--full", action="store_true",
        help="paper-scale query counts (minutes per figure)",
    )
    figures.add_argument(
        "--csv", metavar="DIR",
        help="also write each figure's rows as CSV into this directory",
    )

    commands.add_parser(
        "summary", help="print the saved benchmark results (benchmarks/results)"
    )

    sql = commands.add_parser("sql", help="parse a template-SQL statement")
    sql.add_argument("statement", help="the SQL text (quote it)")
    sql.add_argument(
        "--json", action="store_true",
        help="print the parsed query as JSON (repro.core.serde format)",
    )

    serve = commands.add_parser(
        "serve", help="host the engine as a networked stream service"
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=4650,
        help="frame-protocol TCP port (0 = ephemeral; default 4650)",
    )
    serve.add_argument(
        "--backend", choices=("inline", "process"), default="inline",
        help="hosted engine: in-process or sharded worker pool",
    )
    serve.add_argument(
        "--workers", type=int, default=2,
        help="worker processes for the process backend",
    )
    serve.add_argument(
        "--streams", nargs="+", default=["A", "B"], metavar="NAME",
        help="input stream names (default: A B)",
    )
    serve.add_argument(
        "--max-join-arity", type=int, default=1,
        help="largest n-ary join the engine accepts",
    )
    serve.add_argument(
        "--token", default=None,
        help="require this shared-secret token from clients",
    )
    serve.add_argument(
        "--metrics-port", type=int, default=None,
        help="serve Prometheus /metrics over HTTP on this port",
    )
    serve.add_argument(
        "--observe", action="store_true",
        help="enable the engine telemetry subsystem",
    )
    serve.add_argument(
        "--clock", choices=("wall", "manual"), default="wall",
        help="control-plane clock (manual = client-driven, deterministic)",
    )
    serve.add_argument(
        "--max-active-queries", type=int, default=None,
        help="admission cap on concurrently live queries",
    )
    serve.add_argument(
        "--heartbeat-interval", type=float, default=None, metavar="SECONDS",
        help="worker liveness probe cadence (process backend)",
    )
    serve.add_argument(
        "--ack-deadline", type=float, default=None, metavar="SECONDS",
        help="kill + report a worker with no ack progress for this long",
    )
    serve.add_argument(
        "--slo-target-ms", type=float, default=None, metavar="MS",
        help="server-wide wire-latency SLO for queries with no own target",
    )
    serve.add_argument(
        "--flight-dir", default=None, metavar="DIR",
        help="write flight-recorder dumps here on supervised recoveries "
        "(default: $ASTREAM_FLIGHT_DIR)",
    )

    args = parser.parse_args(argv)
    if args.command == "list":
        return _cmd_list(args)
    if args.command == "figures":
        return _cmd_figures(args)
    if args.command == "summary":
        return _cmd_summary(args)
    if args.command == "serve":
        return _cmd_serve(args)
    return _cmd_sql(args)


def _cmd_serve(args) -> int:
    import asyncio
    import logging

    from repro.serve import AStreamServer, ServeConfig

    logging.basicConfig(
        level=logging.INFO,
        format="%(asctime)s %(name)s %(levelname)s %(message)s",
    )
    config = ServeConfig(
        host=args.host,
        port=args.port,
        backend=args.backend,
        workers=args.workers,
        streams=tuple(args.streams),
        max_join_arity=args.max_join_arity,
        auth_token=args.token,
        metrics_port=args.metrics_port,
        observe=args.observe,
        clock=args.clock,
        max_active_queries=args.max_active_queries,
        heartbeat_interval_s=args.heartbeat_interval,
        ack_deadline_s=args.ack_deadline,
        slo_target_ms=args.slo_target_ms,
        flight_dir=args.flight_dir,
    )

    async def run() -> int:
        server = AStreamServer(config)
        await server.start()
        print(f"serving on {config.host}:{server.port}", flush=True)
        if server.metrics_port is not None:
            print(
                f"metrics on http://{config.host}:{server.metrics_port}"
                "/metrics",
                flush=True,
            )
        try:
            await server.serve_forever()
        except (KeyboardInterrupt, asyncio.CancelledError):
            pass
        finally:
            await server.stop()
        return 0

    try:
        return asyncio.run(run())
    except KeyboardInterrupt:
        return 0


def _cmd_summary(_args) -> int:
    from pathlib import Path

    results_dir = Path(__file__).parent.parent.parent / "benchmarks" / "results"
    tables = sorted(results_dir.glob("*.txt")) if results_dir.exists() else []
    if not tables:
        print(
            "no saved results; run `pytest benchmarks/ --benchmark-only` first",
            file=sys.stderr,
        )
        return 1
    for table in tables:
        print(table.read_text().rstrip())
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
