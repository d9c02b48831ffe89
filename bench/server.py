"""The system under test as a subprocess: spawn, observe, tear down.

The server is started exactly as a user would start it —
``python -m repro serve --port 0 --backend <b> --workers 2 --clock
manual`` and nothing else — in its own process group, so that a hang at
shutdown, a leftover worker or a leftover spill directory fails the run
visibly instead of being swallowed (ROADMAP aim 3).
"""

from __future__ import annotations

import ctypes
import glob
import os
import select
import signal
import subprocess
import sys
import tempfile
import time
from typing import List

from bench import OUT_DIR, SRC_DIR

READY_TIMEOUT_S = 30.0
TEARDOWN_TIMEOUT_S = 10.0
_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")
_SPILL_GLOB = os.path.join(tempfile.gettempdir(), "astream-state-*")


class ServerError(RuntimeError):
    """The server did not start, or did not stop cleanly."""


def _stat_fields(pid: int) -> List[str]:
    with open(f"/proc/{pid}/stat") as handle:
        # comm may contain spaces; the fields after the last ')' are fixed.
        return handle.read().rsplit(")", 1)[1].split()


def _children(pid: int) -> List[int]:
    found: List[int] = []
    for path in glob.glob(f"/proc/{pid}/task/*/children"):
        try:
            with open(path) as handle:
                found.extend(int(child) for child in handle.read().split())
        except OSError:
            pass
    return found


def adopt_orphans() -> None:
    """Have orphaned descendants re-parented to this process, not init.

    A killed server's workers (or any helper a library starts behind our
    back) then stay visible to :func:`stop_children` instead of
    outliving the run as somebody else's children.
    """
    pr_set_child_subreaper = 36
    try:
        ctypes.CDLL(None, use_errno=True).prctl(pr_set_child_subreaper, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass  # not Linux: only direct children are stopped


def stop_children() -> List[int]:
    """SIGKILL and wait for every process still below this one.

    The last step on every path out of the benchmark; returns the pids
    it found, which after a clean run is none.
    """
    found: List[int] = []
    while True:
        pids = _children(os.getpid())
        if not pids:
            return found
        found.extend(pids)
        for pid in pids:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        for pid in pids:
            try:
                os.waitpid(pid, 0)
            except ChildProcessError:
                pass
        # killed children's own children are now ours: go round again


class ServerProcess:
    """One ``python -m repro serve`` subprocess and its worker tree."""

    def __init__(self, backend: str) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC_DIR)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        self._spill_before = set(glob.glob(_SPILL_GLOB))
        OUT_DIR.mkdir(exist_ok=True)
        self.log_path = OUT_DIR / "server.log"
        with open(self.log_path, "w") as log:
            self._process = subprocess.Popen(
                [
                    sys.executable, "-m", "repro", "serve",
                    "--port", "0",
                    "--backend", backend,
                    "--workers", "2",
                    "--clock", "manual",
                ],
                stdout=subprocess.PIPE,
                stderr=log,
                env=env,
                text=True,
                start_new_session=True,
            )
        self.pid = self._process.pid
        try:
            self.port = self._await_ready()
        except BaseException:
            self.kill()
            raise

    def _await_ready(self) -> int:
        """Parse the port from the ``serving on host:port`` line."""
        deadline = time.monotonic() + READY_TIMEOUT_S
        stdout = self._process.stdout
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0 or not select.select([stdout], [], [], remaining)[0]:
                raise ServerError(f"server not ready within {READY_TIMEOUT_S:.0f} s")
            line = stdout.readline()
            if not line:
                raise ServerError(
                    f"server exited with code {self._process.wait()} before ready"
                )
            if line.startswith("serving on "):
                return int(line.rsplit(":", 1)[1])

    # -- observation -------------------------------------------------------

    def tree(self) -> List[int]:
        """Pids of the server and every live descendant (the workers)."""
        pids, frontier = [self.pid], [self.pid]
        while frontier:
            frontier = [child for pid in frontier for child in _children(pid)]
            pids.extend(frontier)
        return pids

    def cpu_seconds(self) -> float:
        """On-CPU time consumed so far by the whole process tree.

        Per-thread ``schedstat`` run time where the kernel keeps it
        (nanosecond resolution, so a one-second block is measurable);
        otherwise user+system from ``stat`` at clock-tick resolution.
        """
        total = 0.0
        for pid in self.tree():
            try:
                threads = glob.glob(f"/proc/{pid}/task/*/schedstat")
                if threads:
                    for path in threads:
                        with open(path) as handle:
                            total += int(handle.read().split()[0]) / 1e9
                else:
                    fields = _stat_fields(pid)
                    total += (int(fields[11]) + int(fields[12])) / _CLOCK_TICKS
            except OSError:
                continue  # the process or thread exited between listing and reading
        return total

    def rss_peak_mib(self) -> float:
        """``VmHWM`` summed over the process tree (call before stop)."""
        total_kib = 0
        for pid in self.tree():
            try:
                with open(f"/proc/{pid}/status") as handle:
                    for line in handle:
                        if line.startswith("VmHWM:"):
                            total_kib += int(line.split()[1])
            except OSError:
                continue
        return total_kib / 1024.0

    # -- teardown ----------------------------------------------------------

    def stop(self, client) -> None:
        """Ask the server to shut down and hold it to a bounded exit.

        Raises :class:`ServerError` when the server had to be killed,
        exited non-zero, left a worker behind or left a spill directory.
        """
        workers = [pid for pid in self.tree() if pid != self.pid]
        problems: List[str] = []
        try:
            client.shutdown()
        except (ConnectionError, OSError) as error:
            problems.append(f"shutdown request failed: {error}")
        try:
            code = self._process.wait(TEARDOWN_TIMEOUT_S)
            if code != 0:
                problems.append(f"server exited with code {code}")
        except subprocess.TimeoutExpired:
            problems.append(
                f"server still running {TEARDOWN_TIMEOUT_S:.0f} s after shutdown"
            )
        leftover = [pid for pid in workers if os.path.exists(f"/proc/{pid}")]
        if leftover:
            problems.append(f"leftover worker processes: {leftover}")
        self.kill()
        spilled = set(glob.glob(_SPILL_GLOB)) - self._spill_before
        if spilled:
            problems.append(f"leftover spill directories: {sorted(spilled)}")
        if problems:
            raise ServerError("; ".join(problems))

    def kill(self) -> None:
        """SIGKILL the whole process group and reap the server."""
        try:
            os.killpg(self.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self._process.wait()
        self._process.stdout.close()
