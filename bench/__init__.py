"""The repo's benchmark: client ``push`` -> subscriber result, measured.

One load-generator process (a pusher connection on the main thread, a
subscriber connection on one reader thread) drives the real server,
started as a subprocess with shipped defaults, through six named
workloads.  See ``bench/README.md`` for the metric, workload and layer
tables; ``python -m bench run`` prints every end-to-end metric and
``python -m bench trace`` every per-layer metric.
"""

import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC_DIR = REPO_ROOT / "src"
OUT_DIR = Path(__file__).resolve().parent / "out"
"""Git-ignored scratch: reference cache, span files, result files."""

# The driver runs ``python3 -m bench`` with no PYTHONPATH; the server
# subprocess gets the same path through its environment (bench.server).
if str(SRC_DIR) not in sys.path:
    sys.path.insert(0, str(SRC_DIR))
