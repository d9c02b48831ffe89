"""End to end at 1/20 size: real server, verification, JSON emission."""

import json
import subprocess
import sys

from bench import REPO_ROOT
from bench.run import END_TO_END
from bench.trace import PER_LAYER
from bench.workloads import WORKLOADS


def _bench(*args):
    return subprocess.run(
        [sys.executable, "-m", "bench", *args],
        cwd=REPO_ROOT, capture_output=True, text=True, timeout=300,
    )


def test_smoke_run_covers_all_six_workloads(tmp_path):
    out = tmp_path / "results.json"
    done = _bench("run", "--smoke", "--out", str(out))
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    document = json.loads(out.read_text())
    assert [r["workload"] for r in document["records"]] == list(WORKLOADS)
    assert {"cpu_model", "nproc", "python", "commit"} <= set(document["host"])
    for record in document["records"]:
        assert record["correct"] and record["failed"] == 0
        assert record["diagnostics"]["result_loss_ratio"] == 0.0
        assert set(record["metrics"]) == {name for name, *_ in END_TO_END}
        for name, *_ in END_TO_END:
            assert f"  {name} " in done.stdout


def test_single_run_contract_prints_one_json_object_last():
    for trace, expected in ((0, END_TO_END), (1, PER_LAYER)):
        done = _bench(
            "run", "--workload", "select-8q-fanout", "--seed", "3",
            "--seconds", "1", "--trace", str(trace),
        )
        assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
        result = json.loads(done.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["attempted"] >= 1
        assert set(result["metrics"]) == {name for name, *_ in expected}
        units = {name: unit for name, unit, *_ in expected}
        for name, entry in result["metrics"].items():
            assert entry["unit"] == units[name]
            assert isinstance(entry["value"], (int, float))
