"""The program under test, booted as a subprocess, and its one client.

Two stacks share one interface (``start`` / ``call`` / ``stats`` /
``rss_mb`` / ``stop``):

* :class:`HttpStack` — ``python -m repro serve --http 127.0.0.1:0``
  (optionally ``--shards N``), driven over keep-alive connections with
  the repo's own :class:`~repro.engine.http.HttpClientConnection`;
* :class:`BatchStack` — ``batch_stack.py``: ``Engine.from_store(...)
  .warm()`` answering ``search_many`` batches over a JSONL pipe.

With *trace_out* set the same command runs through ``tracer.py``, which
wraps the layers' public callables and writes the spans there on exit.
"""

from __future__ import annotations

import asyncio
import json
import os
import re
import signal
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.engine.http import HttpClientConnection

HERE = Path(__file__).resolve().parent
SRC = HERE.parent.parent / "src"

#: One interpreter thread per process: the numbers must not depend on
#: how many BLAS threads the box would have granted.
THREAD_PINS = {
    "PYTHONHASHSEED": "0",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}

#: Ceiling on any single wait for the program under test.
CALL_TIMEOUT = 60.0


@dataclass
class Op:
    """One client operation, encoded before the clock starts."""

    kind: str  # "read" | "write" | "batch"
    body: object  # a query mapping, a mutation mapping, or a list of queries
    wire: bytes
    tag: str = ""  # the qset of a batch op

    @classmethod
    def of(cls, body: object, tag: str = "") -> "Op":
        if isinstance(body, list):
            return cls("batch", body, json.dumps({"queries": body}).encode(), tag)
        kind = "write" if "op" in body else "read"
        return cls(kind, body, json.dumps(body).encode(), tag)

    @property
    def queries(self) -> int:
        return len(self.body) if self.kind == "batch" else 1


def child_env(trace_out: Optional[Path]) -> Dict[str, str]:
    env = dict(os.environ, **THREAD_PINS)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    env.pop("E2E_TRACE_OUT", None)
    if trace_out is not None:
        env["E2E_TRACE_OUT"] = str(trace_out)
    return env


def repro_command(trace_out: Optional[Path], *argv: str) -> List[str]:
    """``python -m repro ...``, or the same entry under the tracer."""
    if trace_out is None:
        return [sys.executable, "-m", "repro", *argv]
    return [sys.executable, str(HERE / "tracer.py"), *argv]


def _process_tree(pid: int) -> List[int]:
    pids, frontier = [], [pid]
    while frontier:
        current = frontier.pop()
        pids.append(current)
        for task in Path(f"/proc/{current}/task").glob("*/children"):
            frontier.extend(int(child) for child in task.read_text().split())
    return pids


def tree_pss_mb(pid: int) -> float:
    """Summed proportional set size of *pid* and its descendants.

    PSS, not RSS: pages shared between the router and its forked shards
    (copy-on-write heap, mmap'd slabs) are counted once, not per process.
    """
    total_kb = 0
    for member in _process_tree(pid):
        try:
            rollup = Path(f"/proc/{member}/smaps_rollup").read_text()
        except OSError:
            continue  # exited between the walk and the read
        match = re.search(r"^Pss:\s+(\d+) kB", rollup, re.MULTILINE)
        if match:
            total_kb += int(match.group(1))
    return total_kb / 1024.0


class _Stack:
    """Shared subprocess lifecycle."""

    def __init__(self, db: Path, trace_out: Optional[Path] = None):
        self.db = db
        self.trace_out = trace_out
        self.process: Optional[asyncio.subprocess.Process] = None
        self.boot_s = 0.0
        self._spawned = 0.0

    async def _spawn(self, command: List[str], **pipes) -> None:
        self._spawned = time.perf_counter()
        self.process = await asyncio.create_subprocess_exec(
            *command, env=child_env(self.trace_out), limit=1 << 26, **pipes
        )

    def booted(self) -> None:
        """Stop the boot clock (called at the first warm-up answer)."""
        if not self.boot_s:
            self.boot_s = time.perf_counter() - self._spawned

    def rss_mb(self) -> float:
        return tree_pss_mb(self.process.pid)

    def record_spans(self, enabled: bool) -> None:
        """Switch the tracer's recorder (see ``tracer.install``)."""
        self.process.send_signal(signal.SIGUSR1 if enabled else signal.SIGUSR2)

    async def _reap(self) -> None:
        if self.process is None:
            return  # the spawn itself failed
        try:
            await asyncio.wait_for(self.process.wait(), CALL_TIMEOUT)
        except asyncio.TimeoutError:
            self.process.kill()
            await self.process.wait()


class HttpStack(_Stack):
    def __init__(
        self,
        db: Path,
        *,
        shards: int = 1,
        lanes: int = 1,
        max_inflight: int = 64,
        trace_out: Optional[Path] = None,
    ):
        super().__init__(db, trace_out)
        self.shards = shards
        self.lanes = lanes
        self.max_inflight = max_inflight
        self.port = 0
        self._connections: List[HttpClientConnection] = []
        self._stderr: Optional[asyncio.Task] = None

    async def start(self) -> None:
        argv = [
            "serve", "--db", str(self.db), "--http", "127.0.0.1:0",
            "--max-inflight", str(self.max_inflight),
        ]
        if self.shards > 1:
            argv += ["--shards", str(self.shards)]
        await self._spawn(
            repro_command(self.trace_out, *argv),
            stdout=asyncio.subprocess.DEVNULL,
            stderr=asyncio.subprocess.PIPE,
        )
        seen: List[str] = []
        while True:
            line = await asyncio.wait_for(
                self.process.stderr.readline(), CALL_TIMEOUT
            )
            if not line:
                raise RuntimeError("server exited during boot:\n" + "".join(seen))
            seen.append(line.decode(errors="replace"))
            match = re.search(r"serving http://[^:]+:(\d+) \[ready", seen[-1])
            if match:
                self.port = int(match.group(1))
                break
        # Keep draining so a chatty server can never block on its pipe.
        self._stderr = asyncio.ensure_future(self.process.stderr.read())
        self._connections = [
            await HttpClientConnection.open(self.port) for _ in range(self.lanes)
        ]

    async def call(self, lane: int, op: Op) -> Tuple[int, Dict[str, object]]:
        path = "/mutate" if op.kind == "write" else "/search"
        response = await asyncio.wait_for(
            self._connections[lane].request("POST", path, body=op.wire),
            CALL_TIMEOUT,
        )
        return response.status, response.json()

    async def stats(self) -> Dict[str, object]:
        response = await self._connections[0].request("GET", "/stats")
        payload = response.json()
        # One shape for both stacks: engine sections at the top level,
        # the HTTP tier's own counters under "server".
        return dict(payload["engine"], server=payload["server"])

    async def stop(self) -> None:
        for connection in self._connections:
            await connection.aclose()
        if self.process is not None and self.process.returncode is None:
            self.process.send_signal(signal.SIGTERM)
        await self._reap()
        if self._stderr is not None:
            await self._stderr


class BatchStack(_Stack):
    lanes = 1

    async def start(self) -> None:
        await self._spawn(
            [sys.executable, str(HERE / "batch_stack.py"), str(self.db)],
            stdin=asyncio.subprocess.PIPE,
            stdout=asyncio.subprocess.PIPE,
        )

    async def _exchange(self, wire: bytes) -> Dict[str, object]:
        self.process.stdin.write(wire + b"\n")
        await self.process.stdin.drain()
        line = await asyncio.wait_for(self.process.stdout.readline(), CALL_TIMEOUT)
        if not line:
            raise ConnectionError("batch stack closed its pipe")
        return json.loads(line)

    async def call(self, lane: int, op: Op) -> Tuple[int, Dict[str, object]]:
        payload = await self._exchange(op.wire)
        return (500 if "error" in payload else 200), payload

    async def stats(self) -> Dict[str, object]:
        return dict(await self._exchange(b'{"op": "stats"}'), server={})

    async def stop(self) -> None:
        if self.process is not None and self.process.returncode is None:
            self.process.stdin.close()
        await self._reap()
