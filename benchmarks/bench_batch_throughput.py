"""Batched S3k throughput: ConnectionIndex + caches vs the PR 1 engine.

Serving heavy traffic means answering many queries concurrently, not one
BFS at a time.  This bench runs the same 64-query traffic slice through

* the **PR 1 baseline** — batched lock-step execution, per-batch keyword
  sharing, no precomputed index, no cross-batch caches
  (``use_connection_index=False, result_cache_size=0, plan_cache_size=0``);
* the **indexed engine** — the default configuration: precomputed
  per-keyword :class:`ConnectionIndex` (zero query-time fixpoint work)
  plus the cross-batch plan cache (the result cache is disabled here so
  the uniform numbers measure the index, not answer replay);

under three traffic mixes on the I1-shaped synthetic instance:

* ``uniform`` — every query effectively unique: PR 1 broke even here
  because each distinct keyword set paid the per-component connection
  fixpoint; the index turns the gather phase into array unions, which is
  where the >= 1.5x acceptance target of ISSUE 2 lives;
* ``zipf`` — keyword popularity follows a Zipf law, as real search
  traffic does: batch-level sharing already helps, the index widens it;
* ``hot`` — trending-query traffic from a small hot pool: duplicate
  in-flight queries coalesce, and (measured separately) the LRU result
  cache replays whole answers across batches.

All served results are asserted bit-identical to sequential PR 1
execution.  Alongside the human-readable table the bench emits
``BENCH_batch_throughput.json`` (schema in :mod:`benchmarks.emit`) with
per-mix qps / latency percentiles, the gather-phase micro-comparison,
the offline index build time and — since ISSUE 9 — a per-mix
``phase_breakdown`` (step vs discover vs bounds vs clean/stop seconds
plus the certification counters: bracket-screened *fast* vs exact
position-pass *full*), so the perf
trajectory is tracked across PRs.
"""

import random
import time
from typing import List, Tuple

from repro.core import ComponentConnections, S3kSearch
from repro.core.extension import extend_query
from repro.eval import format_table
from repro.queries import Workload, run_workload_batched
from repro.queries.workload import (
    QuerySpec,
    connected_seekers,
    document_frequencies,
    frequency_buckets,
)

from benchmarks.conftest import write_result
from benchmarks.emit import workload_entry, write_bench_json

N_QUERIES = 64
BATCH_SIZE = 32
#: Deterministic workload seed (the instance seed lives in conftest).
SEED = 17
#: (mix name, hot-pool size, Zipf exponent); pool size N_QUERIES*4 with
#: exponent 0 degenerates to (near-)uniform traffic.
TRAFFIC_MIXES = (
    ("uniform", N_QUERIES * 4, 0.0),
    ("zipf", N_QUERIES * 2, 1.0),
    ("hot", 16, 1.2),
)
#: Acceptance floors: ISSUE 1 (hot mix, batching) and ISSUE 2 (uniform
#: mix vs the PR 1 baseline; gather phase alone).
HOT_TARGET = 2.0
UNIQUE_TARGET = 1.5
GATHER_TARGET = 5.0
TIMING_ROUNDS = 3
#: Batched-loop phases timed inside ``search_many`` (ISSUE 9): the
#: mat-mat step, component discovery, the ``reduceat`` bounds refresh,
#: and clean/stop certification.
PHASES = ("step", "discover", "bounds", "clean_stop")
#: Certification counters worth tracking next to the phase seconds.
COUNTERS = (
    "stop_checks_fast",
    "stop_checks_full",
    "clean_checks_fast",
    "clean_checks_full",
    "bounds_refresh_rows",
)


def _phase_delta(before, after):
    """Per-phase seconds + counters accrued between two
    ``exploration_stats`` snapshots (covers all TIMING_ROUNDS rounds of
    one timed run; shares are over the four exploration phases only)."""
    seconds = {
        phase: float(after[f"phase_{phase}_seconds"])
        - float(before.get(f"phase_{phase}_seconds", 0.0))
        for phase in PHASES
    }
    total = sum(seconds.values()) or 1.0
    breakdown = {"timing_rounds": TIMING_ROUNDS}
    for phase in PHASES:
        breakdown[f"{phase}_seconds"] = round(seconds[phase], 4)
        breakdown[f"{phase}_share"] = round(seconds[phase] / total, 3)
    for counter in COUNTERS:
        breakdown[counter] = int(after[counter]) - int(before.get(counter, 0))
    return breakdown


def _traffic(instance, pool_size: int, zipf_s: float, seed: int = SEED) -> Workload:
    """A 64-query traffic slice: Zipf-weighted draws from a query pool."""
    rng = random.Random(seed)
    _, common = frequency_buckets(document_frequencies(instance))
    seekers = connected_seekers(instance)
    pool = [
        QuerySpec(rng.choice(seekers), (rng.choice(common),), 5)
        for _ in range(pool_size)
    ]
    weights = [1.0 / (rank + 1) ** zipf_s for rank in range(pool_size)]
    workload = Workload(name="traffic", frequency="+", n_keywords=1, k=5)
    workload.queries = rng.choices(pool, weights=weights, k=N_QUERIES)
    return workload


def _pr1_engine(instance) -> S3kSearch:
    """The PR 1 baseline: batch-local sharing only, no precomputation."""
    return S3kSearch(
        instance,
        use_connection_index=False,
        result_cache_size=0,
        plan_cache_size=0,
    )


def _sequential_seconds(engine: S3kSearch, workload: Workload) -> Tuple[float, list]:
    results = []
    best = float("inf")
    for _ in range(TIMING_ROUNDS):
        results = []
        started = time.perf_counter()
        for spec in workload.queries:
            results.append(engine.search(spec.seeker, spec.keywords, k=spec.k))
        best = min(best, time.perf_counter() - started)
    return best, results


def _batched(engine: S3kSearch, workload: Workload):
    stats = None
    best = float("inf")
    for _ in range(TIMING_ROUNDS):
        started = time.perf_counter()
        stats = run_workload_batched(engine, workload, batch_size=BATCH_SIZE)
        best = min(best, time.perf_counter() - started)
    return best, stats


def _gather_work(engine: S3kSearch, instance, keyword_sets):
    """(component, extensions) pairs the gather phase runs over.

    The keyword extension and component matching are identical under both
    strategies, so they are resolved once, outside the timed region.
    """
    work = []
    for keywords in keyword_sets:
        extensions = extend_query(instance, keywords)
        for ident in engine._matching_components(extensions):
            work.append((engine.component_index.component(ident), extensions))
    return work


def _fixpoint_gather_ms(instance, work) -> float:
    """Query-time worklist fixpoint + candidate extraction (PR 1)."""
    for _rounds in range(2):  # round 0 warms lazy structures
        started = time.perf_counter()
        for component, extensions in work:
            ComponentConnections(instance, component, extensions).candidate_documents()
        elapsed = time.perf_counter() - started
    return elapsed * 1e3


def _indexed_gather_ms(index, work) -> float:
    """Per-atom slice unions + coverage gather (the precomputed path)."""
    for _rounds in range(2):
        started = time.perf_counter()
        for component, extensions in work:
            for extension in extensions.values():
                index.keyword_evidence(component.ident, extension)
            index.candidate_documents(component.ident, extensions)
        elapsed = time.perf_counter() - started
    return elapsed * 1e3


def test_batch_throughput(benchmark, twitter_instance):
    instance = twitter_instance
    pr1 = _pr1_engine(instance)
    build_started = time.perf_counter()
    indexed = S3kSearch(instance, result_cache_size=0)
    indexed.connection_index.ensure_all()
    index_build_seconds = time.perf_counter() - build_started

    rows: List[List[object]] = []
    speedups = {}
    workload_records = []
    phase_breakdown = {}
    for name, pool_size, zipf_s in TRAFFIC_MIXES:
        workload = _traffic(instance, pool_size, zipf_s)
        unique = len({(q.seeker, q.keywords, q.k) for q in workload.queries})
        # Warm both engines (lazy side caches fill on first contact).
        pr1.search_many(workload.queries[:8])
        indexed.search_many(workload.queries[:8])
        seq_seconds, seq_results = _sequential_seconds(pr1, workload)
        pr1_seconds, pr1_stats = _batched(pr1, workload)
        explore_before = dict(indexed.exploration_stats)
        idx_seconds, idx_stats = _batched(indexed, workload)
        phase_breakdown[name] = _phase_delta(
            explore_before, indexed.exploration_stats
        )
        for single, via_pr1, via_index in zip(
            seq_results, pr1_stats.results, idx_stats.results
        ):
            assert single.results == via_pr1.results  # bit-identical answers
            assert single.results == via_index.results
        # hot acceptance (ISSUE 1) stays relative to sequential execution;
        # the uniform acceptance (ISSUE 2) is relative to PR 1's batching.
        speedups[name] = {
            "vs_seq": seq_seconds / idx_seconds,
            "vs_pr1": pr1_seconds / idx_seconds,
        }
        workload_records.append(
            workload_entry(
                name,
                unique,
                baseline_qps=N_QUERIES / pr1_seconds,
                qps=N_QUERIES / idx_seconds,
                latencies_ms={
                    key: value * 1e3
                    for key, value in idx_stats.latency_summary().items()
                },
            )
        )
        rows.append(
            [
                name,
                f"{unique}/{N_QUERIES}",
                f"{N_QUERIES / seq_seconds:.0f}",
                f"{N_QUERIES / pr1_seconds:.0f}",
                f"{N_QUERIES / idx_seconds:.0f}",
                f"{speedups[name]['vs_pr1']:.2f}x",
                f"{speedups[name]['vs_seq']:.2f}x",
            ]
        )

    # Gather phase alone (evidence + candidate extraction — the stage the
    # index precomputes): fixpoint vs slice unions, no caches.
    rng = random.Random(SEED)
    _, common = frequency_buckets(document_frequencies(instance))
    keyword_sets = [(rng.choice(common),) for _ in range(40)]
    work = _gather_work(pr1, instance, keyword_sets)
    gather_fixpoint_ms = _fixpoint_gather_ms(instance, work)
    gather_index_ms = _indexed_gather_ms(indexed.connection_index, work)
    gather_speedup = gather_fixpoint_ms / gather_index_ms

    # Result cache on hot traffic: whole answers replay across batches.
    cached_engine = S3kSearch(instance)
    hot_workload = _traffic(instance, 16, 1.2)
    run_workload_batched(cached_engine, hot_workload, batch_size=BATCH_SIZE)
    cache_stats = run_workload_batched(
        cached_engine, hot_workload, batch_size=BATCH_SIZE
    ).cache_stats

    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    table = format_table(
        [
            "traffic mix",
            "unique",
            "seq q/s",
            f"PR1 q/s (b={BATCH_SIZE})",
            f"indexed q/s (b={BATCH_SIZE})",
            "vs PR1",
            "vs seq",
        ],
        rows,
        title="ConnectionIndex vs PR 1 batched S3k throughput on I1 (64 queries)",
    )
    gather_line = (
        f"gather phase over 40 unique keyword sets: fixpoint "
        f"{gather_fixpoint_ms:.1f} ms, index {gather_index_ms:.1f} ms "
        f"({gather_speedup:.1f}x); index build {index_build_seconds * 1e3:.0f} ms"
    )
    uniform_phases = phase_breakdown["uniform"]
    stop_total = (
        uniform_phases["stop_checks_fast"] + uniform_phases["stop_checks_full"]
    )
    clean_total = (
        uniform_phases["clean_checks_fast"]
        + uniform_phases["clean_checks_full"]
    )
    # Every timed iteration refreshed bounds and certified a clean pass
    # through the one exploration loop.
    assert uniform_phases["bounds_refresh_rows"] > 0
    assert clean_total > 0
    phase_line = (
        "uniform exploration split: "
        + ", ".join(
            f"{phase} {uniform_phases[f'{phase}_share'] * 100:.0f}%"
            for phase in PHASES
        )
        + f"; screen hit rates: stop "
        f"{uniform_phases['stop_checks_fast'] / max(stop_total, 1) * 100:.0f}%, "
        f"clean "
        f"{uniform_phases['clean_checks_fast'] / max(clean_total, 1) * 100:.0f}%"
    )
    write_result(
        "batch_throughput", table + "\n" + gather_line + "\n" + phase_line
    )

    index_stats = indexed.connection_index.stats()
    write_bench_json(
        "batch_throughput",
        {
            "instance": "I1",
            "seed": SEED,
            "n_queries": N_QUERIES,
            "batch_size": BATCH_SIZE,
            "index_build_seconds": round(index_build_seconds, 4),
            "index_size_bytes": int(index_stats["size_bytes"]),
            "index_evidence_entries": int(index_stats["evidence_entries"]),
            "workloads": workload_records,
            "phase_breakdown": phase_breakdown,
            "gather_phase": {
                "keyword_sets": len(keyword_sets),
                "fixpoint_ms": round(gather_fixpoint_ms, 3),
                "index_ms": round(gather_index_ms, 3),
                "speedup": round(gather_speedup, 3),
            },
            "hot_result_cache": cache_stats,
        },
    )

    assert speedups["hot"]["vs_seq"] >= HOT_TARGET, (
        f"hot-traffic batched speedup {speedups['hot']['vs_seq']:.2f}x "
        f"below the {HOT_TARGET}x target"
    )
    assert speedups["uniform"]["vs_pr1"] >= UNIQUE_TARGET, (
        f"unique-traffic indexed speedup {speedups['uniform']['vs_pr1']:.2f}x "
        f"below the {UNIQUE_TARGET}x target"
    )
    assert gather_speedup >= GATHER_TARGET, (
        f"gather-phase speedup {gather_speedup:.1f}x "
        f"below the {GATHER_TARGET}x target"
    )
    assert cache_stats["hits"] > 0, "hot traffic should replay cached answers"
