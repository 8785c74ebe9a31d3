"""The real daemon as a subprocess: boot, probe, snapshot, stop.

The daemon is ``python -m repro.cli serve --port 0 --cache-dir <fresh
empty dir>`` with every other flag at its default.  The traced variant
runs the same command line through ``traced_serve.py``.
"""

from __future__ import annotations

import http.client
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Optional

BOOT_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 30.0
_LISTENING = "listening on http://"


class DaemonError(RuntimeError):
    pass


class Daemon:
    """One daemon process rooted at a checkout, with its own cache dir."""

    def __init__(self, root: Path, work_dir: Path,
                 trace_dir: Optional[Path] = None) -> None:
        self.root = Path(root)
        self.work_dir = Path(work_dir)
        self.cache_dir = self.work_dir / "cache"
        self.trace_dir = trace_dir
        self.proc: Optional[subprocess.Popen] = None
        self.port: Optional[int] = None
        self._stderr = None

    def start(self) -> float:
        """Boot; returns seconds from spawn to the first ``/healthz`` 200."""
        self.cache_dir.mkdir(parents=True)
        serve = ["serve", "--port", "0", "--cache-dir", str(self.cache_dir)]
        if self.trace_dir is None:
            argv = [sys.executable, "-m", "repro.cli", *serve]
        else:
            launcher = Path(__file__).resolve().parent / "traced_serve.py"
            argv = [sys.executable, str(launcher), str(self.trace_dir), *serve]
        env = dict(os.environ)
        src = str(self.root / "src")
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p
        )
        env["TMPDIR"] = str(self.work_dir)
        self._stderr = open(self.work_dir / "daemon.err", "wb")
        started = time.perf_counter()
        self.proc = subprocess.Popen(
            argv, cwd=self.root, env=env, stdout=subprocess.PIPE,
            stderr=self._stderr, text=True, start_new_session=True,
        )
        line = self.proc.stdout.readline()
        if _LISTENING not in line:
            self.stop()
            raise DaemonError(f"daemon did not start: {line!r} (see daemon.err)")
        self.port = int(line.strip().rsplit(":", 1)[1])
        while True:
            try:
                status, _ = self.get("/healthz")
                if status == 200:
                    return time.perf_counter() - started
            except OSError:
                pass
            if time.perf_counter() - started > BOOT_TIMEOUT_S:
                self.stop()
                raise DaemonError("daemon never answered /healthz")
            time.sleep(0.005)

    def get(self, path: str):
        """One request on a fresh connection (probes, not measured load)."""
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=60)
        try:
            conn.request("GET", path)
            response = conn.getresponse()
            return response.status, response.read()
        finally:
            conn.close()

    def metrics(self) -> dict:
        status, body = self.get("/metrics")
        if status != 200:
            raise DaemonError(f"GET /metrics answered {status}")
        return json.loads(body)

    def rss_peak_mb(self) -> float:
        """The daemon process's peak resident set (VmHWM), in MiB."""
        with open(f"/proc/{self.proc.pid}/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise DaemonError("no VmHWM in /proc status")

    def stop(self) -> None:
        """SIGTERM (the daemon drains and exits 0), then reap the group."""
        if self.proc is None:
            return
        proc, self.proc = self.proc, None
        if proc.poll() is None:
            proc.send_signal(signal.SIGTERM)
            try:
                proc.wait(STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                pass
        # Pool workers share the daemon's process group: make sure none
        # outlives it, and wait until the whole group is gone.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
        proc.stdout.close()
        self._stderr.close()
        deadline = time.perf_counter() + STOP_TIMEOUT_S
        while _group_alive(proc.pid):
            if time.perf_counter() > deadline:
                raise DaemonError("daemon process group did not exit")
            time.sleep(0.01)


def _group_alive(pgid: int) -> bool:
    """Whether a live (non-zombie) process is left in group ``pgid``."""
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue
        if int(fields[2]) == pgid and fields[0] != "Z":
            return True
    return False
