"""One end-to-end serving benchmark run: one workload, one seed.

    python3 benchmarks/e2e/run.py --workload http_unique --seed 1 \
        --seconds 10 --trace 0

prepares a private copy of the seeded I1x5 store, runs ``python -m
repro index`` on it, boots the real program as a subprocess, drives the
workload closed-loop for ``--seconds``, verifies answers against an
in-process oracle, and prints every metric by name with its unit; the
last line of stdout is the machine-readable result.  ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` boots the same program
under ``tracer.py`` and reports the per-layer metrics instead
(``--seconds`` is then split between an untraced and a traced phase).
See ``README.md`` next to this file.
"""

from __future__ import annotations

import argparse
import asyncio
import itertools
import json
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path
from typing import Dict, Iterator, List, Optional

HERE = Path(__file__).resolve().parent
REPO = HERE.parent.parent
SRC = REPO / "src"

WORKLOADS = ("http_unique", "http_hot", "batch_grid", "sharded_rw")
#: Verify every N-th read of the timed phase against the oracle.
VERIFY_EVERY = 10
#: Pre-encoded operations per second of timed phase; a phase that would
#: outrun this stops early and says so instead of paying encode time
#: inside the measurement.
OPS_PER_SECOND = {"http_unique": 400, "http_hot": 2000, "batch_grid": 40, "sharded_rw": 1000}


def parse_args(argv: Optional[List[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True, help="workload seed")
    parser.add_argument("--seconds", type=float, required=True, help="timed phase")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true", help="I1 (scale 1) instead of I1x5"
    )
    parser.add_argument(
        "--max-inflight", type=int, default=64,
        help="admission bound passed to `serve` (below the caller count it "
        "forces 429s: the failure-accounting test)",
    )
    parser.add_argument(
        "--out", type=Path, default=None,
        help="also write the full result (metrics of both kinds, environment "
        "stamp) to this JSON file",
    )
    return parser.parse_args(argv)


def environment(args, lanes: int, shards: int) -> Dict[str, object]:
    """What two result files must share to be compared like for like
    (taken before the run starts, so the load average is the box's own)."""
    import numpy
    import scipy

    from stack import THREAD_PINS

    try:
        commit = subprocess.run(
            ["git", "-C", str(REPO), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = ""
    try:
        build = numpy.show_config(mode="dicts").get("Build Dependencies", {})
    except TypeError:  # numpy < 1.25 only prints its configuration
        build = {}
    blas = build.get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "loadavg_start": os.getloadavg(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "thread_pins": THREAD_PINS,
        "callers": lanes,
        "shards": shards,
        "workload_seed": args.seed,
        "seconds": args.seconds,
        "smoke": args.smoke,
        "git_commit": commit or "not a git checkout",
    }


def expected(kernel, query: Dict[str, object]) -> List[Dict[str, object]]:
    """The oracle's answer in the wire shape of ``QueryResponse.to_dict``."""
    from batch_stack import decode_query

    seeker, keywords, k = decode_query(query)
    result = kernel.search(seeker, keywords, k=k)
    return [
        {"uri": str(r.uri), "lower": r.lower, "upper": r.upper} for r in result.results
    ]


def mismatches(kernel, answered: Iterator) -> int:
    """How many ``(query, served results)`` pairs differ from the oracle
    bit for bit (JSON round-trips floats exactly)."""
    memo: Dict[str, List] = {}
    wrong = 0
    for query, served in answered:
        key = json.dumps(query, sort_keys=True)
        if key not in memo:
            memo[key] = expected(kernel, query)
        wrong += served != memo[key]
    return wrong


def sampled(records) -> Iterator:
    """Every ``VERIFY_EVERY``-th query of the phase, in issue order."""
    position = itertools.count()
    for record in records:
        if not record.ok or record.op.kind == "write":
            continue
        queries = record.op.body if record.op.kind == "batch" else [record.op.body]
        answers = record.payload.get("results") if record.op.kind == "batch" else [record.payload]
        for query, answer in zip(queries, answers):
            if next(position) % VERIFY_EVERY == 0:
                yield query, answer.get("results")


async def bench(args: argparse.Namespace) -> Dict[str, object]:
    import prepare
    from layers import end_to_end_metrics, layer_metrics
    from loadgen import PROBE_READS, PROBE_WRITES, WARMUP_READS, index_store, load_spans, run_pass
    from repro.core.search import S3kSearch
    from repro.engine.request import MutationRequest
    from repro.storage import SQLiteStore
    from stack import BatchStack, HttpStack, Op

    cores = os.cpu_count() or 1
    sharded = args.workload == "sharded_rw"
    http = args.workload != "batch_grid"
    shards = min(cores, 2) if sharded else 1
    lanes = min(cores, 4) if http else 1

    stamp = environment(args, lanes, shards)
    run_dir = prepare.RESULTS / f"run-{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    try:
        db, prep = prepare.fresh_store(run_dir, args.smoke)
        with SQLiteStore(db) as store:
            instance = store.load_instance()

        def operations(seed, count: int) -> List[Op]:
            requests = prepare.Requests(instance, seed)
            if args.workload == "batch_grid":
                source = (Op.of(batch, tag) for tag, batch in requests.grid())
            else:
                stream = {
                    "http_unique": requests.unique,
                    "http_hot": requests.hot,
                    "sharded_rw": requests.mixed,
                }[args.workload]
                source = (Op.of(body) for body in stream())
            return list(itertools.islice(source, count))

        queries_per_op = prepare.BATCH_SIZE if args.workload == "batch_grid" else 1
        warmup = operations(f"{args.seed}-warmup", -(-WARMUP_READS // queries_per_op))
        ops = operations(args.seed, int(OPS_PER_SECOND[args.workload] * args.seconds) + 1)
        if sharded:
            # The timed phase's own first reads (hot pool and unique alike):
            # entries the caches held while the writes evicted around them.
            probe = ops[:PROBE_READS]
        else:
            writes = prepare.Requests(instance, args.seed).writes("probe")
            probe = [Op.of(body) for body in itertools.islice(writes, PROBE_WRITES)]

        trace_out = run_dir / "serve.spans.json" if args.trace else None
        index_trace = run_dir / "index.spans.json" if args.trace else None
        if http:
            stack = HttpStack(
                db, shards=shards, lanes=lanes,
                max_inflight=args.max_inflight, trace_out=trace_out,
            )
        else:
            stack = BatchStack(db, trace_out)
        index_s = await index_store(db, index_trace)
        outcome = await run_pass(stack, warmup, ops, probe, args.seconds)

        # -- correctness gate ------------------------------------------------
        records = outcome.records
        failed = sum(not record.ok for record in records)
        failed += sum(
            record.payload.get("mode") != "delta"
            for record in records
            if record.ok and record.op.kind == "write"
        )
        if sharded:
            # Reads raced the writes, so only the probe after the last
            # acknowledged write has one right answer: a from-scratch
            # kernel over an instance that applied the same writes.
            for record in records:
                if record.ok and record.op.kind == "write":
                    instance.add_tag(MutationRequest.from_obj(record.op.body).to_tag())
            failed += mismatches(
                S3kSearch(instance),
                (
                    (record.op.body, record.payload.get("results"))
                    for record in outcome.probe
                    if record.ok
                ),
            )
        else:
            with SQLiteStore(db) as store:
                index = store.load_connection_index(instance, strict=True)
            oracle = S3kSearch(instance, connection_index=index)
            failed += mismatches(oracle, sampled(records))

        lines = end_to_end_metrics(outcome, index_s)
        layer_lines = {}
        if args.trace:
            layer_lines = layer_metrics(
                outcome, load_spans(index_trace), db.stat().st_size, http
            )
        exhausted = len(records) - len(outcome.warmup) - len(outcome.probe) >= len(ops)
        return {
            "workload": args.workload,
            "correct": failed == 0 and not exhausted,
            "attempted": len(records),
            "failed": failed,
            "operations_exhausted": exhausted,
            "end_to_end": lines,
            "per_layer": layer_lines,
            "samples": {
                "reads": len(outcome.timed.of_kind("read", "batch")),
                "writes": len(outcome.timed.of_kind("write"))
                or sum(record.op.kind == "write" for record in outcome.probe),
            },
            "preparation": prep,
            "environment": dict(stamp, instance_config=prep["config"]),
        }
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"error: {SRC}/repro not found — run from a checkout of the repo", file=sys.stderr)
        return 2
    sys.path[:0] = [str(HERE), str(SRC)]
    from stack import THREAD_PINS

    if any(os.environ.get(name) != value for name, value in THREAD_PINS.items()):
        # PYTHONHASHSEED and the BLAS pools are read at interpreter / import
        # time: pin them and start over, so generator and oracle run under
        # the same settings as the program under test.
        os.execve(
            sys.executable,
            [sys.executable, str(Path(__file__).resolve()), *(argv if argv is not None else sys.argv[1:])],
            dict(os.environ, **THREAD_PINS),
        )
    result = asyncio.run(bench(args))
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(result, indent=2) + "\n")
    reported = result["per_layer"] if args.trace else result["end_to_end"]
    print(
        f"{result['workload']} seed={args.seed}: attempted {result['attempted']} "
        f"failed {result['failed']} (reads {result['samples']['reads']}, "
        f"writes {result['samples']['writes']})"
    )
    for name, (value, unit) in reported.items():
        print(f"{name:40s} {value:14.4f} {unit}")
    print(
        json.dumps(
            {
                "correct": result["correct"],
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in reported.items()
                },
            }
        )
    )
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
