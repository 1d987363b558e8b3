"""Closed-loop load generation against one booted stack.

One asyncio process drives ``stack.lanes`` callers that each wait for
their reply before sending the next request (closed loop: a slow program
receives less load, and with no more callers than cores the numbers
measure the program, not the scheduler).  The callers share one
pre-encoded operation sequence, so the order of operations on the wire
is the generator's order whatever the interleaving of replies.
"""

from __future__ import annotations

import asyncio
import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional

from stack import CALL_TIMEOUT, Op, child_env, repro_command

#: Warm-up operations before the timed phase (drawn from a disjoint seed).
WARMUP_READS = 50
#: Post-phase probes: sequential writes on the idle stack (workloads
#: whose mix has no writes) and reads after the last acknowledged write
#: (``sharded_rw``'s correctness gate).
PROBE_WRITES = 15
PROBE_READS = 50
#: Target length of the alternating untraced / traced slices (``--trace 1``).
SLICE_S = 0.5


@dataclass
class Record:
    """One operation as the client saw it."""

    op: Op
    start: float
    end: float
    status: int
    payload: Dict[str, object]

    @property
    def ok(self) -> bool:
        return self.status == 200 and "error" not in self.payload

    @property
    def ms(self) -> float:
        return (self.end - self.start) * 1e3


@dataclass
class Phase:
    """Timed stretches of the operation sequence, measured together."""

    records: List[Record] = field(default_factory=list)
    started: float = 0.0
    ended: float = 0.0
    #: seconds the stretches lasted (the gaps between them excluded)
    wall_s: float = 0.0

    def extend(self, other: "Phase") -> None:
        self.records += other.records
        self.started = self.started or other.started
        self.ended = other.ended
        self.wall_s += other.wall_s

    def of_kind(self, *kinds: str) -> List[Record]:
        return [record for record in self.records if record.op.kind in kinds]

    @property
    def qps(self) -> float:
        """Successful operations (queries and writes) per second."""
        done = sum(record.op.queries for record in self.records if record.ok)
        return done / self.wall_s if self.wall_s else 0.0


@dataclass
class Pass:
    """Everything one boot-drive-stop cycle observed.

    ``timed`` ran with no span recorded (the phase every end-to-end
    metric comes from); ``traced`` holds the slices of the same sequence
    that ran with the recorder on (``--trace 1``).
    """

    boot_s: float = 0.0
    warmup: List[Record] = field(default_factory=list)
    timed: Phase = field(default_factory=Phase)
    traced: Phase = field(default_factory=Phase)
    probe: List[Record] = field(default_factory=list)
    stats_before: Dict[str, object] = field(default_factory=dict)
    stats_after: Dict[str, object] = field(default_factory=dict)
    rss_mb: float = 0.0
    sidecar_bytes: int = 0
    spans: List[list] = field(default_factory=list)

    @property
    def records(self) -> List[Record]:
        """Every operation issued, in order."""
        return self.warmup + self.timed.records + self.traced.records + self.probe


async def call(stack, lane: int, op: Op) -> Record:
    start = time.perf_counter()
    try:
        status, payload = await stack.call(lane, op)
    except (OSError, asyncio.TimeoutError, asyncio.IncompleteReadError, ValueError) as exc:
        # A dead connection or an unparseable reply is a failed operation,
        # not a crashed benchmark.
        status, payload = 0, {"error": f"{type(exc).__name__}: {exc}"}
    return Record(op, start, time.perf_counter(), status, payload)


async def drive(stack, ops: Iterator[Op], seconds: Optional[float] = None) -> Phase:
    """Run *ops* through the stack's lanes until they are exhausted or
    *seconds* have passed.  Operations in flight at the deadline are
    awaited, never cut."""
    records: List[Record] = []
    started = time.perf_counter()
    deadline = started + seconds if seconds is not None else float("inf")

    async def caller(lane: int) -> None:
        while time.perf_counter() < deadline:
            op = next(ops, None)
            if op is None:
                return
            records.append(await call(stack, lane, op))

    await asyncio.gather(*(caller(lane) for lane in range(stack.lanes)))
    ended = time.perf_counter()
    return Phase(records, started, ended, ended - started)


async def index_store(db: Path, trace_out: Optional[Path]) -> float:
    """``python -m repro index --db``; returns its wall seconds."""
    started = time.perf_counter()
    process = await asyncio.create_subprocess_exec(
        *repro_command(trace_out, "index", "--db", str(db)),
        env=child_env(trace_out),
        stdout=asyncio.subprocess.DEVNULL,
    )
    code = await asyncio.wait_for(process.wait(), 10 * CALL_TIMEOUT)
    if code != 0:
        raise RuntimeError(f"repro index exited with {code}")
    return time.perf_counter() - started


def load_spans(path: Optional[Path]) -> List[list]:
    if path is None or not path.exists():
        return []
    return json.loads(path.read_text())["spans"]


async def run_pass(
    stack,
    warmup: List[Op],
    ops: List[Op],
    probe: List[Op],
    seconds: float,
) -> Pass:
    """Boot, warm up, drive the timed phase, probe, stop.

    A stack started under the tracer records its boot; its measured
    region then alternates ``SLICE_S``-second slices with the recorder
    off and on over one continuing sequence, so the untraced reference
    and the traced half see the same cache and plan state and their
    throughputs differ by the tracing overhead only.  The first tenth of
    *seconds* is an unmeasured lead-in (the first-touch misses of the
    hot pool land there, not in the first untraced slice).
    """
    outcome = Pass()
    traced = stack.trace_out is not None
    await stack.start()
    try:
        first = await call(stack, 0, warmup[0])
        stack.booted()
        outcome.boot_s = stack.boot_s
        outcome.warmup = [first, *(await drive(stack, iter(warmup[1:]))).records]
        sequence = iter(ops)
        if not traced:
            outcome.stats_before = await stack.stats()
            outcome.timed = await drive(stack, sequence, seconds)
        else:
            stack.record_spans(False)
            outcome.warmup += (await drive(stack, sequence, 0.1 * seconds)).records
            outcome.stats_before = await stack.stats()
            pairs = max(1, round(0.9 * seconds / (2 * SLICE_S)))
            for number in range(2 * pairs):
                recording = number % 2 == 1  # ends recording: the probe is traced
                stack.record_spans(recording)
                await stack.stats()  # a round trip: the switch has been handled
                (outcome.traced if recording else outcome.timed).extend(
                    await drive(stack, sequence, 0.9 * seconds / (2 * pairs))
                )
        outcome.rss_mb = stack.rss_mb()
        outcome.stats_after = await stack.stats()
        for op in probe:
            outcome.probe.append(await call(stack, 0, op))
        sidecar = Path(f"{stack.db}.slabs")
        if sidecar.is_dir():
            outcome.sidecar_bytes = sum(
                entry.stat().st_size for entry in sidecar.iterdir()
            )
    finally:
        await stack.stop()
    outcome.spans = load_spans(stack.trace_out)
    return outcome
