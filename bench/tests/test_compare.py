"""The paired comparison rule and the host-fingerprint refusal."""

import json

import pytest

from bench.compare import FingerprintMismatch, compare_files, judge, repeatability

METRICS = (("throughput_tps", "tuples/s", "higher", 0.10),)


def test_regression_needs_the_median_to_worsen_beyond_the_bound():
    steady = [100.0, 101.0, 99.0, 100.5, 99.5] * 2
    assert judge(steady, [v * 0.95 for v in steady], "higher", 0.10)["verdict"] == "unchanged"
    assert judge(steady, [v * 0.85 for v in steady], "higher", 0.10)["verdict"] == "regressed"
    assert judge(steady, [v * 1.2 for v in steady], "lower", 0.10)["verdict"] == "regressed"


def test_gain_needs_ten_pairs_nine_wins_and_a_shift_beyond_the_spread():
    steady = [100.0, 101.0, 99.0, 100.5, 99.5] * 2
    better = [v * 1.05 for v in steady]
    assert judge(steady, better, "higher", 0.10)["verdict"] == "improved"
    assert judge(steady[:5], better[:5], "higher", 0.10)["verdict"] == "unchanged"
    mixed = better[:7] + [v * 0.99 for v in steady[7:]]
    assert judge(steady, mixed, "higher", 0.10)["verdict"] == "unchanged"


def test_spread_wider_than_the_bound_is_unresolved_not_unchanged():
    noisy = [80.0, 120.0, 90.0, 115.0, 100.0, 85.0, 110.0, 95.0, 125.0, 75.0]
    assert judge(noisy, noisy, "higher", 0.10)["verdict"] == "unresolved"
    assert judge([100.0], [50.0], "higher", 0.10)["verdict"] == "unresolved"


def _document(tmp_path, name, host, values):
    path = tmp_path / name
    path.write_text(json.dumps({
        "host": host,
        "records": [
            {"workload": "agg-100q", "metrics": {"throughput_tps": v}, "set": i % 2}
            for i, v in enumerate(values)
        ],
    }))
    return str(path)


def test_files_from_different_hosts_are_refused(tmp_path):
    here = {"cpu_model": "x", "nproc": 2, "python": "3.11.7", "commit": "a"}
    there = dict(here, nproc=64, commit="b")
    before = _document(tmp_path, "a.json", here, [100.0, 101.0])
    after = _document(tmp_path, "b.json", there, [300.0, 301.0])
    with pytest.raises(FingerprintMismatch):
        compare_files(before, after, METRICS)
    same = _document(tmp_path, "c.json", dict(here, commit="c"), [80.0, 81.0])
    assert "regressed" in compare_files(before, same, METRICS)


def test_repeatability_flags_sets_that_disagree_beyond_the_bound():
    records = [
        {"workload": "w", "set": 0, "metrics": {"throughput_tps": 100.0}},
        {"workload": "w", "set": 1, "metrics": {"throughput_tps": 80.0}},
    ]
    assert "EXCEEDS BOUND" in repeatability(records, METRICS)
    records[1]["metrics"]["throughput_tps"] = 97.0
    assert "EXCEEDS BOUND" not in repeatability(records, METRICS)
