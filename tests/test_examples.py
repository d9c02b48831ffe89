"""Smoke tests: every example must run end-to-end and say something.

Examples are documentation that executes; letting them rot is worse
than having none.  Each is run as a subprocess exactly the way the
README instructs (``python examples/<name>.py``).
"""

import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).parent.parent / "examples"

_EXPECTED_MARKERS = {
    "quickstart.py": ["live queries: 2", "join results:", "router copies"],
    "online_gaming.py": ["Q1 (marketing)", "pro-player sessions", "deployment latencies"],
    "adhoc_dashboard.py": ["platform dashboard", "slowest data throughput", "QoS violations"],
    "complex_pipeline.py": ["cx-2way", "cx-4way (added ad-hoc", "slice-pair joins"],
    "sql_console.py": ["[admit ]", "queries live on one shared topology", "admission:", "selection sharing per stream"],
    "auction_analytics.py": ["hottest auctions", "meeting the reserve", "active queries at shutdown: 2"],
    "serve_quickstart.py": ["admitted over the wire", "streamed results:", "drained with checkpoint", "clean shutdown"],
}


@pytest.mark.parametrize("example", sorted(_EXPECTED_MARKERS))
def test_example_runs(example):
    completed = subprocess.run(
        [sys.executable, str(EXAMPLES_DIR / example)],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert completed.returncode == 0, completed.stderr[-2_000:]
    for marker in _EXPECTED_MARKERS[example]:
        assert marker in completed.stdout, (
            f"{example} output missing {marker!r}:\n"
            f"{completed.stdout[-2_000:]}"
        )


def test_every_example_is_covered():
    on_disk = {path.name for path in EXAMPLES_DIR.glob("*.py")}
    assert on_disk == set(_EXPECTED_MARKERS)
