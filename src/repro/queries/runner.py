"""Workload execution and timing summaries (for Figures 5-7).

Two execution modes share the timing machinery:

* **sequential** (:func:`run_workload`) — one query at a time through any
  runner callable, as in the paper's experiments;
* **batched** (:func:`run_workload_batched`) — slices of the workload go
  through :meth:`S3kSearch.search_many`, which advances all queries of a
  batch in lock-step over one stacked mat-mat proximity step.  The
  per-batch statistics keep both the per-query submission-to-answer
  latencies (what a waiting caller observes) and the per-batch wall times
  (what sizes the serving capacity), summarized as percentiles via
  :func:`repro.eval.reporting.latency_percentiles`.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from ..eval.reporting import latency_percentiles
from .workload import QuerySpec, Workload


@dataclass
class TimingSummary:
    """min / quartiles / max of per-query run times, in seconds."""

    name: str
    times: List[float] = field(default_factory=list)

    @property
    def median(self) -> float:
        return statistics.median(self.times) if self.times else 0.0

    @property
    def mean(self) -> float:
        return statistics.fmean(self.times) if self.times else 0.0

    def quartiles(self) -> Dict[str, float]:
        """The five numbers plotted in Figure 7."""
        if not self.times:
            return {"min": 0.0, "q1": 0.0, "median": 0.0, "q3": 0.0, "max": 0.0}
        ordered = sorted(self.times)
        q = statistics.quantiles(ordered, n=4) if len(ordered) > 1 else [ordered[0]] * 3
        return {
            "min": ordered[0],
            "q1": q[0],
            "median": statistics.median(ordered),
            "q3": q[2],
            "max": ordered[-1],
        }


def run_workload(
    run_query: Callable[[QuerySpec], object],
    workload: Workload,
    label: str = "",
) -> TimingSummary:
    """Run every query of *workload* through *run_query*, timing each."""
    summary = TimingSummary(name=label or workload.name)
    for spec in workload.queries:
        started = time.perf_counter()
        run_query(spec)
        summary.times.append(time.perf_counter() - started)
    return summary


@dataclass
class BatchStats:
    """Aggregate outcome of a batched workload run."""

    name: str
    batch_size: int
    #: per-query submission-to-answer latency, seconds (input order)
    query_latencies: List[float] = field(default_factory=list)
    #: wall time of each ``search_many`` call, seconds
    batch_times: List[float] = field(default_factory=list)
    #: queries whose submission-to-answer latency exceeded the deadline —
    #: the caller-observed SLO miss count, independent of why the
    #: exploration stopped
    deadline_misses: int = 0
    results: List[object] = field(default_factory=list)
    #: engine result-cache hit / miss / occupancy counters observed right
    #: after the run (all zero for engines without a result cache)
    cache_stats: Dict[str, int] = field(default_factory=dict)
    #: full ``Engine.stats()`` snapshot when the executor is an
    #: :class:`~repro.engine.facade.Engine` facade (empty for bare kernels)
    engine_stats: Dict[str, Dict[str, object]] = field(default_factory=dict)
    #: kernel fast-/slow-path certification counters and per-phase wall
    #: seconds observed right after the run (``S3kSearch.exploration_stats``
    #: shape; empty for executors without an exploration kernel)
    exploration_stats: Dict[str, object] = field(default_factory=dict)

    @property
    def n_queries(self) -> int:
        return len(self.query_latencies)

    @property
    def total_seconds(self) -> float:
        return sum(self.batch_times)

    @property
    def throughput(self) -> float:
        """Answered queries per second of batch wall time."""
        return self.n_queries / self.total_seconds if self.total_seconds else 0.0

    def latency_summary(self) -> Dict[str, float]:
        """Percentiles of the per-query latencies (see ISSUE: SLO tails)."""
        return latency_percentiles(self.query_latencies)

    def batch_summary(self) -> Dict[str, float]:
        """Percentiles of the per-batch wall times."""
        return latency_percentiles(self.batch_times)


def run_workload_batched(
    engine,
    workload: Workload,
    batch_size: int = 32,
    deadline: Optional[float] = None,
    label: str = "",
    **search_kwargs,
) -> BatchStats:
    """Run *workload* through ``engine.search_many`` in batches.

    *deadline* is the per-query anytime budget in seconds: a query that
    exceeds it is retired from its batch with its current best
    candidates.  ``deadline_misses`` counts every query whose observed
    submission-to-answer latency reached the deadline, whatever stopped
    its exploration.  Extra *search_kwargs* (e.g. ``semantic=False``)
    are forwarded to ``search_many``.
    """
    stats = BatchStats(name=label or workload.name, batch_size=batch_size)
    for batch in workload.batches(batch_size):
        started = time.perf_counter()
        results = engine.search_many(batch, time_budget=deadline, **search_kwargs)
        stats.batch_times.append(time.perf_counter() - started)
        for result in results:
            stats.query_latencies.append(result.wall_time)
            if deadline is not None and result.wall_time >= deadline:
                stats.deadline_misses += 1
        stats.results.extend(results)
    stats.cache_stats = dict(getattr(engine, "cache_stats", {}) or {})
    stats.exploration_stats = dict(
        getattr(engine, "exploration_stats", {}) or {}
    )
    if hasattr(engine, "stats") and callable(engine.stats):
        snapshot = engine.stats()
        if isinstance(snapshot, dict):
            stats.engine_stats = snapshot
    return stats


def engine_runner(
    engine,
    *,
    k: Optional[int] = None,
    semantic: bool = True,
    max_iterations: Optional[int] = None,
    time_budget: Optional[float] = None,
) -> Callable[[object], object]:
    """Adapter: a per-query runner over an Engine facade or a kernel.

    The single normalization point is
    :meth:`repro.engine.QueryRequest.from_obj`; the keyword defaults
    fill whatever a query object does not specify (a
    :class:`QuerySpec`'s own ``k`` always wins).  Accepts both the
    :class:`~repro.engine.facade.Engine` facade and a bare
    :class:`~repro.core.search.S3kSearch` kernel.
    """
    from ..engine.facade import Engine
    from ..engine.request import QueryRequest

    if k is None:
        # An Engine carries its own configured default; the kernel's
        # signature default is 5.
        k = engine.config.default_k if isinstance(engine, Engine) else 5

    def coerce(query: object) -> "QueryRequest":
        return QueryRequest.from_obj(
            query,
            default_k=k,
            semantic=semantic,
            max_iterations=max_iterations,
            time_budget=time_budget,
        )

    if isinstance(engine, Engine):
        def run(query: object):
            return engine.search(coerce(query))

        return run

    def run(query: object):
        request = coerce(query)
        return engine.search(
            request.seeker,
            request.keywords,
            k=request.k,
            semantic=request.semantic,
            max_iterations=request.max_iterations,
            time_budget=request.time_budget,
        )

    return run


def topks_runner(searcher) -> Callable[[QuerySpec], object]:
    """Adapter: a QuerySpec runner over a :class:`TopkSSearcher`."""

    def run(spec: QuerySpec):
        return searcher.search(
            str(spec.seeker), [str(kw) for kw in spec.keywords], k=spec.k
        )

    return run
