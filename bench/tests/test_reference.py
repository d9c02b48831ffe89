"""The reference cache is keyed by the code that computed it."""

from bench import reference as ref
from bench.workloads import WORKLOADS, build_schedule


def test_cache_misses_and_prunes_when_the_engine_source_changes(tmp_path, monkeypatch):
    source = tmp_path / "src" / "repro"
    source.mkdir(parents=True)
    (source / "engine.py").write_text("A = 1\n")
    monkeypatch.setattr(ref, "SRC_DIR", tmp_path / "src")
    monkeypatch.setattr(ref, "OUT_DIR", tmp_path / "out")
    schedule = build_schedule(WORKLOADS["select-8q-fanout"], 7, 0.2)

    first, cached = ref.load_or_compute(schedule)
    assert not cached
    again, cached = ref.load_or_compute(schedule)
    assert cached and again == first

    before = ref.code_identity()
    (source / "engine.py").write_text("A = 2\n")
    assert ref.code_identity() != before
    _, cached = ref.load_or_compute(schedule)
    assert not cached
    kept = list((tmp_path / "out").glob("reference_*.json"))
    assert [path.name.split("_")[1] for path in kept] == [ref.code_identity()]
