"""System-under-test lifecycle: boot, probe, account, and always kill.

Two systems are benchmarked, both unmodified:

* :class:`HttpServer` — ``scripts/serve.py cluster`` as a real subprocess
  (HTTP front door → cluster → forked process workers → engine);
* :func:`boot_inproc` — the public ``RecoveryCluster`` API in this
  process, over a city frozen to ``CityArtifacts`` and mmap-loaded.

Finding recorded in the README: SIGTERM to ``scripts/serve.py cluster``
kills only the front door — every forked worker survives as an orphan.
The server therefore runs in its own session and the whole process
*group* is killed on every exit path.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import socket
import subprocess
import sys
import time
from dataclasses import asdict
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.cluster import RecoveryCluster, ShardMap

REPO = Path(__file__).resolve().parents[2]
#: The only place the benchmark writes (git-ignored).
CACHE = REPO / "benchmarks" / "_cache" / "ledger"

READY_DEADLINE = 60.0     # seconds a boot may take before the run fails
REQUEST_TIMEOUT = 30.0    # a slower response is a failed operation
_TICK = os.sysconf("SC_CLK_TCK")


def scratch_dir(name: str) -> Path:
    """An empty directory under the ledger cache."""
    path = CACHE / name
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def http_call(port: int, payload: bytes) -> Tuple[int, bytes]:
    """One HTTP/1.0 exchange on a new connection: (status, body).

    The server speaks HTTP/1.0 and closes after each response, so a
    request is one connect, one send and reads until EOF.  A raw socket
    keeps the load generator's own CPU out of the way on a 2-core box.
    """
    with socket.create_connection(("127.0.0.1", port),
                                  timeout=REQUEST_TIMEOUT) as conn:
        conn.sendall(payload)
        chunks = []
        while True:
            chunk = conn.recv(65536)
            if not chunk:
                break
            chunks.append(chunk)
    head, _, body = b"".join(chunks).partition(b"\r\n\r\n")
    return int(head[9:12]), body


def post_bytes(path: str, body: bytes) -> bytes:
    return (f"POST {path} HTTP/1.0\r\nContent-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n\r\n").encode() + body


def get_bytes(path: str) -> bytes:
    return f"GET {path} HTTP/1.0\r\n\r\n".encode()


def _group_pids(pgid: int) -> List[int]:
    """Live pids whose process group is ``pgid`` (field 5 of /proc stat)."""
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue  # exited while we were listing
        if int(fields[2]) == pgid and fields[0] != "Z":
            pids.append(int(entry))
    return pids


def _cpu_seconds(pid: int) -> float:
    """user+sys CPU of one pid so far (0.0 once it is gone)."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
    except OSError:
        return 0.0
    return (int(fields[11]) + int(fields[12])) / _TICK


class HttpServer:
    """``scripts/serve.py cluster`` in its own process group."""

    def __init__(self, shard_map: Path, artifact_dir: Path, log: Path) -> None:
        self._shard_map = shard_map
        self._artifact_dir = artifact_dir
        self._log = log
        self._process: Optional[subprocess.Popen] = None
        self.port = 0

    def start(self) -> "HttpServer":
        """Launch on a free port and wait until ``/healthz`` answers.

        The port is picked by binding port 0 and releasing it; another
        process can take it in between, so a launch whose server dies or
        never answers is retried on a fresh port.
        """
        last_error = "server never started"
        for _ in range(3):
            with socket.socket() as probe:
                probe.bind(("127.0.0.1", 0))
                self.port = probe.getsockname()[1]
            with open(self._log, "ab") as log:
                self._process = subprocess.Popen(
                    [sys.executable, str(REPO / "scripts" / "serve.py"),
                     "cluster", "--shard-map", str(self._shard_map),
                     "--artifact-dir", str(self._artifact_dir), "--warm",
                     "--port", str(self.port)],
                    stdout=log, stderr=subprocess.STDOUT, cwd=str(REPO),
                    start_new_session=True)
            deadline = time.monotonic() + READY_DEADLINE
            while time.monotonic() < deadline:
                if self._process.poll() is not None:
                    last_error = f"server exited with {self._process.returncode}"
                    break
                try:
                    status, _ = http_call(self.port, get_bytes("/healthz"))
                except OSError:
                    time.sleep(0.02)
                    continue
                if status == 200:
                    return self
            else:
                last_error = f"server not ready within {READY_DEADLINE:.0f}s"
            self.stop()
        raise RuntimeError(f"{last_error}; see {self._log}")

    def pids(self) -> List[int]:
        return _group_pids(self._process.pid)

    def cpu_seconds(self) -> float:
        """user+sys CPU of the front door and every worker."""
        return sum(_cpu_seconds(pid) for pid in self.pids())

    def stats(self) -> Dict:
        status, body = http_call(self.port, get_bytes("/stats"))
        if status != 200:
            raise RuntimeError(f"GET /stats answered {status}")
        return json.loads(body)

    def stop(self) -> None:
        """Kill the whole process group and wait until it is empty."""
        process, self._process = self._process, None
        if process is None:
            return
        for sig in (signal.SIGTERM, signal.SIGKILL):
            try:
                os.killpg(process.pid, sig)
            except ProcessLookupError:
                break
            deadline = time.monotonic() + 3.0
            while _group_pids(process.pid) and time.monotonic() < deadline:
                process.poll()  # reap the front door so it leaves the group
                time.sleep(0.01)
        process.wait()
        if _group_pids(process.pid):
            raise RuntimeError("server processes survived SIGKILL")


def write_shard_map(path: Path, specs, serve: Optional[Dict] = None) -> Path:
    """The topology as the JSON shard-map file ``serve.py cluster`` loads."""
    payload = {"shards": [asdict(spec) for spec in specs], "serve": serve or {}}
    path.write_text(json.dumps(payload, indent=1))
    return path


def boot_inproc(specs, cities: Dict[str, object], serve: Dict,
                artifact_dir: Path):
    """A warmed in-process ``RecoveryCluster`` over frozen, mmap-loaded
    cities: the first cluster generates each city, loads its bundle and
    freezes both into the empty ``artifact_dir``; the returned one maps
    the frozen arrays."""
    shard_map = ShardMap(shards=tuple(specs), serve=serve)

    def factory(spec):
        return cities[spec.name].network()

    with RecoveryCluster(shard_map, network_factory=factory,
                         artifact_dir=str(artifact_dir)) as builder:
        builder.warm()
    cluster = RecoveryCluster(shard_map, network_factory=factory,
                              artifact_dir=str(artifact_dir))
    cluster.warm()
    return cluster
