"""Command line: ``python -m bench run | trace | compare``.

``run --workload W --seed N --seconds S --trace 0|1`` is the single-run
contract BENCHMARK.json's ``command`` names: it prints one JSON object
as its last line.  Without ``--workload`` every workload runs and a
report is printed and written to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
from typing import Any, Dict, List

from bench import OUT_DIR
from bench.compare import (
    FingerprintMismatch,
    compare_files,
    fingerprint_record,
    repeatability,
)
from bench.run import DEMOTED, END_TO_END, run_workload
from bench.server import adopt_orphans, stop_children
from bench.trace import PER_LAYER, trace_workload
from bench.workloads import WORKLOADS

DEFAULT_SEED = 11
DEFAULT_SECONDS = 10.0
SMOKE_SECONDS = DEFAULT_SECONDS / 20


def _contract_line(record: Dict[str, Any], units: Dict[str, str]) -> str:
    """The one JSON object the driver reads from the last line."""
    return json.dumps(
        {
            "correct": record["correct"],
            "attempted": record["attempted"],
            "failed": record["failed"],
            "metrics": {
                name: {"value": value, "unit": units[name]}
                for name, value in record["metrics"].items()
            },
        }
    )


def _print_record(record: Dict[str, Any], units: Dict[str, str]) -> None:
    state = "correct" if record["correct"] else f"FAILED ({record['failed']})"
    print(f"== {record['workload']}  seed {record['seed']}  "
          f"input {record['input']}  {state}")
    for name, value in record["metrics"].items():
        print(f"  {name:46s} {value:14.4f} {units[name]}")
    demoted = dict(DEMOTED)
    for name, value in record.get("diagnostics", {}).items():
        shown = f"{value:.4f}" if isinstance(value, float) else str(value)
        print(f"    {name:44s} {shown:>14s} {demoted.get(name, '')}")
    for finding in record["findings"][:10]:
        print(f"  ! {finding}")
    sys.stdout.flush()


def _cmd_run(args: argparse.Namespace) -> int:
    traced = bool(args.trace)
    units = {name: unit for name, unit, *_ in (PER_LAYER if traced else END_TO_END)}
    measure = trace_workload if traced else run_workload
    seconds = SMOKE_SECONDS if args.smoke else args.seconds
    if args.workload is not None:
        record = measure(args.workload, args.seed, seconds)
        _print_record(record, units)
        print(_contract_line(record, units))
        return 0 if record["correct"] else 1

    records: List[Dict[str, Any]] = []
    for round_index in range(args.sets):
        # Interleaved (A B C ... A B C ...): a slow spell of the host
        # lands on every workload's set alike.
        for name in WORKLOADS:
            record = measure(name, args.seed, seconds)
            record["set"] = round_index
            _print_record(record, units)
            records.append(record)
    document = {"host": fingerprint_record(), "seed": args.seed,
                "seconds": seconds, "traced": traced, "records": records}
    OUT_DIR.mkdir(exist_ok=True)
    path = args.out or str(OUT_DIR / ("layers.json" if traced else "results.json"))
    with open(path, "w") as handle:
        json.dump(document, handle, indent=1)
    print(f"wrote {path}")
    if args.sets > 1 and not traced:
        print(repeatability(records, END_TO_END))
    return 0 if all(record["correct"] for record in records) else 1


def main(argv: List[str] = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m bench")
    commands = parser.add_subparsers(dest="command", required=True)
    for name in ("run", "trace"):
        sub = commands.add_parser(name)
        sub.add_argument("--workload", choices=sorted(WORKLOADS))
        sub.add_argument("--seed", type=int, default=DEFAULT_SEED)
        sub.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
        sub.add_argument("--smoke", action="store_true",
                         help="1/20 size: exercises verification and output")
        sub.add_argument("--out", help="where to write the all-workload report")
    run = commands.choices["run"]
    run.add_argument("--trace", type=int, choices=(0, 1), default=0)
    run.add_argument("--sets", type=int, default=1,
                     help="run every workload this many times, interleaved")
    # ``trace`` is ``run --trace 1``; repeatability is about the
    # end-to-end metrics, so only the untraced run takes ``--sets``.
    commands.choices["trace"].set_defaults(trace=1, sets=1)
    compare = commands.add_parser("compare")
    compare.add_argument("before")
    compare.add_argument("after")
    args = parser.parse_args(argv)
    if args.command == "run" and args.trace and args.sets > 1:
        parser.error("--sets compares end-to-end metrics: use it with --trace 0")
    if args.command == "compare":
        try:
            print(compare_files(args.before, args.after, END_TO_END))
        except FingerprintMismatch as error:
            print(error, file=sys.stderr)
            return 2
        return 0
    # No path out of a run leaves a process behind: a SIGTERM unwinds
    # like any other exit, and whatever is still below us then is killed
    # and waited for.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    adopt_orphans()
    try:
        return _cmd_run(args)
    finally:
        left = stop_children()
        if left:
            print(f"stopped leftover processes: {left}", file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
