"""BENCHMARK.json says what the code measures, within the driver's limits."""

import json
import re

from bench import REPO_ROOT
from bench.run import DEMOTED, END_TO_END
from bench.trace import PER_LAYER
from bench.workloads import WORKLOADS

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")


def _document():
    return json.loads((REPO_ROOT / "BENCHMARK.json").read_text())


def test_keys_and_limits():
    document = _document()
    assert set(document) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert document["paths"] == ["bench"]
    assert document["command"][:3] == ["python3", "-m", "bench"]
    assert 1 <= document["run_seconds"] <= 60
    assert 2 <= len(document["workloads"]) <= 8
    assert 1 <= len(document["end_to_end"]) <= 16
    assert 1 <= len(document["per_layer"]) <= 128
    names = (
        [w["name"] for w in document["workloads"]]
        + [m["name"] for m in document["end_to_end"]]
        + [m["name"] for m in document["per_layer"]]
    )
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for metric in document["end_to_end"] + document["per_layer"]:
        assert UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher")
    for workload in document["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    assert len((REPO_ROOT / "BENCHMARK.json").read_bytes()) < 64 * 1024


def test_metrics_match_the_code_tables():
    document = _document()
    assert [
        (m["name"], m["unit"], m["better"], m["bound"]) for m in document["end_to_end"]
    ] == list(END_TO_END)
    assert all(0 < m["bound"] <= 0.25 for m in document["end_to_end"])
    assert ("setup_s", "s", "lower") in [
        (m["name"], m["unit"], m["better"]) for m in document["end_to_end"]
    ]
    assert [
        (m["name"], m["unit"], m["better"]) for m in document["per_layer"]
    ] == list(PER_LAYER)
    assert not {name for name, _ in DEMOTED} & {name for name, *_ in END_TO_END}


def test_gated_workloads_are_known_and_keep_churn_and_the_thousand():
    gated = [w["name"] for w in _document()["workloads"]]
    assert set(gated) <= set(WORKLOADS)
    assert {"agg-100q-churn", "agg-1000q"} <= set(gated)
    for workload in _document()["workloads"]:
        assert workload["why"] == WORKLOADS[workload["name"]].why
