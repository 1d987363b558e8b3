"""The Engine facade: one object that owns the whole serving lifecycle.

``Engine`` is the single supported entry point for answering S3k
queries.  It owns

* the **instance** (loaded from a :class:`~repro.storage.sqlite_store.
  SQLiteStore` or passed in), kept saturated;
* the **kernel** — an internal :class:`~repro.core.search.S3kSearch`
  holding the shared immutable indexes, the precomputed
  :class:`~repro.core.connection_index.ConnectionIndex` (adopted from
  persisted slabs when fresh, with a loud
  :class:`~repro.core.connection_index.StaleIndexError` when they are
  not), and the result / plan LRU caches;
* **version-based invalidation** — mutations through the facade (or
  directly on the instance) bump :attr:`S3Instance.version`; the facade
  rebuilds its kernel before the next answer, so no structural index is
  ever served stale;
* the **async serving path** — an asyncio
  :class:`~repro.engine.batcher.Batcher` per event loop accumulating
  concurrent ``await engine.asearch(...)`` calls into deadline-bounded
  micro-batches, collapsing identical in-flight requests, and
  dispatching to the kernel's lock-step ``search_many`` in a
  single-worker executor;
* one **stats()** surface merging engine, cache, index and batcher
  counters (what the CLI and :mod:`repro.eval.reporting` read).

The sharding seam the ROADMAP names next — one ``Engine`` per shard
behind the same request API — is exactly this boundary: everything
above speaks :class:`QueryRequest` / :class:`QueryResponse`, everything
below is per-shard state.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..core.connection_index import ConnectionIndex, StaleIndexError
from ..core.instance import S3Instance
from ..core.score import FeasibleScore
from ..core.search import S3kSearch, SearchResult
from ..social.tags import Tag
from ..storage.sqlite_store import SQLiteStore
from .batcher import DEFAULT_MAX_BATCH_SIZE, DEFAULT_MAX_DELAY, Batcher
from .request import (
    MutationRequest,
    MutationResponse,
    QueryRequest,
    QueryResponse,
)

__all__ = ["Engine", "EngineConfig", "StaleIndexError"]


@dataclass(frozen=True)
class EngineConfig:
    """Tunable knobs of an :class:`Engine` (all have serving defaults)."""

    #: default result count for requests that do not carry their own ``k``
    default_k: int = 5
    #: default semantic-extension toggle
    semantic: bool = True
    #: micro-batch size bound of the async path (size flush)
    max_batch_size: int = DEFAULT_MAX_BATCH_SIZE
    #: micro-batch latency budget in seconds (deadline flush)
    batch_deadline: float = DEFAULT_MAX_DELAY
    #: collapse identical in-flight requests onto one computation
    collapse: bool = True
    #: kernel knobs (see :class:`~repro.core.search.S3kSearch`)
    use_matrix: bool = True
    use_connection_index: bool = True
    result_cache_size: int = 1024
    #: ``None``: sized by the index (see ``S3kSearch``)
    plan_cache_size: Optional[int] = None


#: per-stage shares of ``patch_wall_seconds`` reported by
#: :meth:`S3kSearch.apply_deltas` and accumulated in ``maintenance``
_PATCH_STAGES = ("prox_patch_seconds", "connection_patch_seconds", "evict_seconds")


def _merge_batcher_counters(totals: Dict[str, float], stats: Dict[str, float]) -> None:
    """Fold one batcher's counters into *totals* (sums, except
    ``largest_batch`` which is a maximum; the derived ``mean_batch_size``
    / ``collapse_rate`` are recomputed from the merged totals)."""
    for name, value in stats.items():
        if name in ("mean_batch_size", "collapse_rate"):
            continue
        if name == "largest_batch":
            totals[name] = max(totals.get(name, 0), value)
        else:
            totals[name] = totals.get(name, 0) + value


class Engine:
    """Facade over instance + kernel + caches + async micro-batching.

    Construct from a live instance (``Engine(instance)``) or a SQLite
    store (:meth:`Engine.from_store`).  Answer queries with
    :meth:`search` (one), :meth:`search_many` (a batch, lock-step) or
    ``await`` :meth:`asearch` (concurrent callers, micro-batched under
    the configured latency budget).  All three accept anything
    :meth:`QueryRequest.from_obj` understands and return
    :class:`QueryResponse` objects with bit-identical results across
    entry points.
    """

    def __init__(
        self,
        instance: S3Instance,
        *,
        score: Optional[FeasibleScore] = None,
        connection_index: Optional[ConnectionIndex] = None,
        config: Optional[EngineConfig] = None,
    ):
        self.config = config if config is not None else EngineConfig()
        self.instance = instance
        self._score = score
        self._kernel: Optional[S3kSearch] = None
        self._kernel_version = -1
        self._kernel_ever_built = False
        self._initial_connection_index = connection_index
        self._batcher: Optional[Batcher] = None
        self._batcher_loop = None
        self._executor: Optional[ThreadPoolExecutor] = None
        # -- counters ----------------------------------------------------
        self._queries_served = 0
        self._kernel_rebuilds = 0
        self._slabs_persisted = 0
        self._slabs_adopted = 0
        #: incremental-maintenance counters (the ``maintenance`` stats block)
        self._maintenance: Dict[str, float] = {
            "mutations_applied": 0,
            "deltas_applied": 0,
            "components_patched": 0,
            "fallback_rebuilds": 0,
            "patch_wall_seconds": 0.0,
            **dict.fromkeys(_PATCH_STAGES, 0.0),
        }
        #: counters of batchers retired by event-loop changes
        self._batch_totals: Dict[str, float] = {}
        self._ensure_kernel()

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_store(
        cls,
        store: Union[str, Path, SQLiteStore],
        *,
        score: Optional[FeasibleScore] = None,
        config: Optional[EngineConfig] = None,
        stale_slabs: str = "error",
    ) -> "Engine":
        """An engine over the instance (and index slabs) of a store.

        *stale_slabs* controls what happens when a persisted
        ConnectionIndex slab no longer matches the stored instance:

        * ``"error"`` (default) — raise :class:`StaleIndexError`; a
          mismatching slab means the instance changed after ``python -m
          repro index`` ran, and silently recomputing would hide that the
          warm start the operator paid for is gone;
        * ``"rebuild"`` — skip the stale slab and rebuild it lazily.
        """
        if stale_slabs not in ("error", "rebuild"):
            raise ValueError(
                f"stale_slabs must be 'error' or 'rebuild', got {stale_slabs!r}"
            )
        config = config if config is not None else EngineConfig()
        owns_store = not isinstance(store, SQLiteStore)
        opened = SQLiteStore(store) if owns_store else store
        try:
            instance = opened.load_instance()
            persisted = opened.connection_index_slab_count()
            connection_index = None
            if config.use_connection_index:
                connection_index = opened.load_connection_index(
                    instance, strict=(stale_slabs == "error")
                )
        finally:
            if owns_store:
                opened.close()
        engine = cls(
            instance, score=score, connection_index=connection_index, config=config
        )
        engine._slabs_persisted = persisted
        if connection_index is not None:
            engine._slabs_adopted = int(
                connection_index.stats()["components_built"]
            )
        return engine

    # ------------------------------------------------------------------
    # Kernel lifecycle / invalidation
    # ------------------------------------------------------------------
    @property
    def kernel(self) -> S3kSearch:
        """The current compute kernel (re-aligned after instance mutations)."""
        return self._ensure_kernel()

    @property
    def kernel_version(self) -> int:
        """Instance version the current kernel is aligned with (-1 before
        the first build).  Running behind :attr:`S3Instance.version` is
        the pending-maintenance signal; reading it never triggers a
        rebuild."""
        return self._kernel_version

    def _ensure_kernel(self) -> S3kSearch:
        """Re-align the kernel when the instance moved underneath it.

        Delta-first: when the instance's mutation log covers the gap with
        typed deltas, the existing kernel is patched in place
        (:meth:`S3kSearch.apply_deltas`) — copy-on-patch over the
        untouched components and scoped cache eviction.  Only when a
        delta is inexpressible (opaque mutation, component merge, log
        gap) does the facade fall back to replacing the whole kernel,
        which is counted as a ``fallback_rebuild``.
        """
        if self._kernel is not None and self._kernel_version == self.instance.version:
            return self._kernel
        if self._kernel is not None and self._kernel_version >= 0:
            deltas = self.instance.deltas_since(self._kernel_version)
            if deltas:
                started = time.perf_counter()
                info = self._kernel.apply_deltas(deltas)
                if info is not None:
                    maintenance = self._maintenance
                    maintenance["deltas_applied"] += int(
                        info.get("deltas_applied", 0)
                    )
                    maintenance["components_patched"] += int(
                        info.get("components_patched", 0)
                    )
                    maintenance["patch_wall_seconds"] += (
                        time.perf_counter() - started
                    )
                    for stage in _PATCH_STAGES:
                        maintenance[stage] += float(info.get(stage, 0.0))
                    self._kernel_version = self.instance.version
                    return self._kernel
            self._maintenance["fallback_rebuilds"] += 1
        # The warm index is consumed by the first build only; rebuilds get
        # a fresh ConnectionIndex (the component partition may have moved).
        connection_index = self._initial_connection_index
        self._initial_connection_index = None
        kernel = S3kSearch(
            self.instance,
            score=self._score,
            use_matrix=self.config.use_matrix,
            use_connection_index=self.config.use_connection_index,
            connection_index=connection_index,
            result_cache_size=self.config.result_cache_size,
            plan_cache_size=self.config.plan_cache_size,
        )
        if self._kernel_ever_built:
            self._kernel_rebuilds += 1
        self._kernel_ever_built = True
        self._kernel = kernel
        self._kernel_version = self.instance.version
        return kernel

    def invalidate(self) -> None:
        """Force a kernel rebuild before the next answer.

        Mutations through the facade (or any instance mutation that bumps
        :attr:`S3Instance.version`) trigger this automatically; the
        explicit hook covers callers that mutate content the version
        counter cannot see.
        """
        self._kernel = None

    def warm(self) -> "Engine":
        """Eagerly build every ConnectionIndex slab (serve with zero
        query-time fixpoint work)."""
        kernel = self._ensure_kernel()
        if kernel.connection_index is not None:
            kernel.connection_index.ensure_all()
        return self

    # -- mutations through the facade ----------------------------------
    def add_tag(self, tag: Tag) -> None:
        """Add a tag; caches and indexes invalidate before the next answer."""
        self.instance.add_tag(tag)

    def add_comment_edge(
        self, comment: object, target: object, relation: Optional[object] = None
    ) -> None:
        """Add a commentsOn edge; invalidation as for :meth:`add_tag`."""
        self.instance.add_comment_edge(comment, target, relation)

    def add_document(self, document, posted_by: Optional[object] = None) -> None:
        self.instance.add_document(document, posted_by=posted_by)

    def add_social_edge(
        self, source: object, target: object, weight: float, **kwargs
    ) -> None:
        self.instance.add_social_edge(source, target, weight, **kwargs)

    # -- the typed write path (live mutate/query serving) ----------------
    def mutate(self, mutation: object) -> MutationResponse:
        """Apply one typed write and re-align the kernel immediately.

        Accepts anything :meth:`MutationRequest.from_obj` understands.
        Unlike the bare ``add_*`` facade methods (which leave the kernel
        stale until the next answer), this applies the mutation *and*
        runs the maintenance step under the same serialization as the
        query path, so the response's ``version`` is the first one
        answers can observe — and reports whether the kernel was patched
        incrementally (``mode="delta"``) or rebuilt.
        """
        request = MutationRequest.from_obj(mutation)
        return self._run_serialized(lambda: self._apply_mutation(request))

    async def amutate(self, mutation: object) -> MutationResponse:
        """Async :meth:`mutate`: runs on the single serving worker, so
        writes serialize with in-flight query micro-batches."""
        import asyncio

        request = MutationRequest.from_obj(mutation)
        if self._executor is None:
            self._executor = ThreadPoolExecutor(
                max_workers=1, thread_name_prefix="repro-engine"
            )
        loop = asyncio.get_running_loop()
        try:
            return await loop.run_in_executor(
                self._executor, self._apply_mutation, request
            )
        except RuntimeError:  # executor already shut down: no async work
            return self._apply_mutation(request)

    def _apply_mutation(self, request: MutationRequest) -> MutationResponse:
        """Instance write + kernel maintenance (runs on the worker)."""
        started = time.perf_counter()
        if request.op == "add_tag":
            self.instance.add_tag(request.to_tag())
        else:
            self.instance.add_comment_edge(
                request.comment, request.target, request.relation
            )
        deltas_before = self._maintenance["deltas_applied"]
        patched_before = self._maintenance["components_patched"]
        self._ensure_kernel()
        self._maintenance["mutations_applied"] += 1
        # A cold first build and an inexpressible-delta fallback both
        # count as "rebuild": only an actually consumed delta is one.
        delta_applied = self._maintenance["deltas_applied"] > deltas_before
        return MutationResponse(
            request=request,
            version=self.instance.version,
            mode="delta" if delta_applied else "rebuild",
            components_patched=int(
                self._maintenance["components_patched"] - patched_before
            ),
            latency_seconds=time.perf_counter() - started,
        )

    # ------------------------------------------------------------------
    # Request plumbing
    # ------------------------------------------------------------------
    def _coerce(
        self,
        query: object,
        k: Optional[int] = None,
        semantic: Optional[bool] = None,
        max_iterations: Optional[int] = None,
        time_budget: Optional[float] = None,
    ) -> QueryRequest:
        if isinstance(query, QueryRequest):
            # A request carries its own settings, but an *explicit* call
            # argument (engine.search(request, semantic=False)) is an
            # override — dropping it silently would compute the wrong
            # answer with no signal.
            overrides: Dict[str, object] = {}
            if k is not None:
                overrides["k"] = k
            if semantic is not None:
                overrides["semantic"] = semantic
            if max_iterations is not None:
                overrides["max_iterations"] = max_iterations
            if time_budget is not None:
                overrides["time_budget"] = time_budget
            return replace(query, **overrides) if overrides else query
        return QueryRequest.from_obj(
            query,
            default_k=k if k is not None else self.config.default_k,
            semantic=semantic if semantic is not None else self.config.semantic,
            max_iterations=max_iterations,
            time_budget=time_budget,
        )

    def _run_serialized(self, fn):
        """Run kernel work under the same serialization as the async path.

        The kernel's caches are not thread-safe, so once the serving
        executor exists (some ``asearch`` ran), sync entry points must
        not touch the kernel concurrently with an in-flight micro-batch:
        they queue behind it on the single worker.  With no executor
        (purely synchronous usage) this is a plain call.
        """
        executor = self._executor
        if executor is None:
            return fn()
        try:
            future = executor.submit(fn)
        except RuntimeError:  # executor already shut down: no async work
            return fn()
        return future.result()

    def _search_requests(
        self, requests: Sequence[QueryRequest]
    ) -> List[SearchResult]:
        """Answer normalized requests via one lock-step kernel call.

        The kernel honors each request's own settings (semantic flag,
        anytime budgets), so a mixed micro-batch needs no splitting.
        """
        results = self._ensure_kernel().search_many(requests)
        self._queries_served += len(requests)
        return results

    # ------------------------------------------------------------------
    # Entry points
    # ------------------------------------------------------------------
    def search(
        self,
        query: object,
        keywords: Optional[Sequence[object]] = None,
        k: Optional[int] = None,
        **settings,
    ) -> QueryResponse:
        """Answer one query synchronously.

        ``engine.search(request)`` with anything
        :meth:`QueryRequest.from_obj` accepts, or the kernel's calling
        shape ``engine.search(seeker, keywords, k, semantic=...)`` (``k``
        positional or keyword, as on :meth:`S3kSearch.search`).
        """
        if keywords is not None:
            query = (query, keywords)
        request = self._coerce(query, k=k, **settings)

        def compute() -> SearchResult:
            return self._ensure_kernel().search(
                request.seeker,
                request.keywords,
                k=request.k,
                semantic=request.semantic,
                max_iterations=request.max_iterations,
                time_budget=request.time_budget,
            )

        result = self._run_serialized(compute)
        self._queries_served += 1
        return QueryResponse(
            request=request,
            result=result,
            batch_size=1,
            flush_reason="sync",
            latency_seconds=result.wall_time,
        )

    def search_many(
        self, queries: Sequence[object], **settings
    ) -> List[QueryResponse]:
        """Answer a batch in lock-step; results come back in input order."""
        requests = [self._coerce(query, **settings) for query in queries]
        # Serialized against in-flight micro-batches; the Batcher itself
        # calls _search_requests directly (it already runs on the worker).
        results = self._run_serialized(lambda: self._search_requests(requests))
        return [
            QueryResponse(
                request=request,
                result=result,
                batch_size=len(requests),
                flush_reason="sync",
                latency_seconds=result.wall_time,
            )
            for request, result in zip(requests, results)
        ]

    async def asearch(self, query: object, **settings) -> QueryResponse:
        """Answer one query on the async serving path.

        Concurrent callers accumulate into micro-batches under the
        configured ``(max_batch_size, batch_deadline)`` budget; identical
        in-flight requests collapse onto one computation.  Results are
        bit-identical to :meth:`search`.
        """
        request = self._coerce(query, **settings)
        batcher = self._ensure_batcher()
        started = time.perf_counter()
        served = await batcher.submit(request)
        return QueryResponse(
            request=request,
            result=served.result,
            batch_size=served.batch_size,
            collapsed=served.collapsed,
            flush_reason=served.flush_reason,
            latency_seconds=time.perf_counter() - started,
        )

    # ------------------------------------------------------------------
    # Async plumbing
    # ------------------------------------------------------------------
    def _ensure_batcher(self) -> Batcher:
        """The batcher of the *running* event loop (one per loop).

        asyncio timers and futures are loop-bound, so a batcher created
        under a previous loop (e.g. a prior ``asyncio.run``) is retired —
        its counters fold into the engine totals — and a fresh one is
        created for the current loop.
        """
        import asyncio

        loop = asyncio.get_running_loop()
        if self._batcher is not None and self._batcher_loop is loop:
            return self._batcher
        if self._batcher is not None:
            self._retire_batcher()
        if self._executor is None:
            # One worker on purpose: the kernel's caches are not
            # thread-safe, and one exploration at a time is exactly the
            # micro-batching model (concurrency lives in the batch).
            self._executor = ThreadPoolExecutor(
                max_workers=1, thread_name_prefix="repro-engine"
            )
        self._batcher = Batcher(
            self._search_requests,
            max_batch_size=self.config.max_batch_size,
            max_delay=self.config.batch_deadline,
            executor=self._executor,
            collapse=self.config.collapse,
        )
        self._batcher_loop = loop
        return self._batcher

    def _retire_batcher(self) -> None:
        if self._batcher is None:
            return
        _merge_batcher_counters(self._batch_totals, self._batcher.stats())
        self._batcher = None
        self._batcher_loop = None

    async def aclose(self) -> None:
        """Flush pending micro-batches and release the executor."""
        if self._batcher is not None:
            await self._batcher.aclose()
            self._retire_batcher()
        self.close()

    def close(self) -> None:
        """Release the serving executor (sync side of :meth:`aclose`)."""
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None

    # ------------------------------------------------------------------
    # Stats
    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, Dict[str, object]]:
        """Every serving counter in one place.

        Sections: ``engine`` (served queries, kernel rebuilds, instance
        version), ``maintenance`` (writes applied, deltas consumed,
        components patched, fallback rebuilds, patch wall seconds and
        their proximity / connection-slab / cache-eviction shares),
        ``result_cache`` (hit / miss / occupancy), ``plan_cache`` (per
        table of seeker-independent plans — extensions, matching,
        weight bounds, candidate blocks — hits, misses, size, capacity,
        LRU and delta evictions as ``<table>_<counter>``, plus
        ``block_builds``), ``connection_index`` (slab counts incl. persisted / adopted,
        size, build time), ``batcher`` (flush and collapse counters,
        aggregated across retired event loops) and ``exploration``
        (fast-/slow-path certification counters and per-phase wall
        seconds of the batched exploration loop — the screen hit rate
        behind ``/stats``).

        A pure read: it reports the *current* kernel and never triggers
        a rebuild (a monitoring loop polling between mutations must not
        pay kernel constructions; the rebuild happens on the next
        query).  After a mutation, ``engine.instance_version`` running
        ahead of ``engine.kernel_version`` is the pending-rebuild
        signal.
        """
        kernel = self._kernel
        connection: Dict[str, object] = {}
        if kernel is not None and kernel.connection_index is not None:
            connection = dict(kernel.connection_index.stats())
            connection["slabs_persisted"] = self._slabs_persisted
            connection["slabs_adopted"] = self._slabs_adopted
        batcher: Dict[str, object] = dict(self._batch_totals)
        if self._batcher is not None:
            _merge_batcher_counters(batcher, self._batcher.stats())
        computed = batcher.get("computed", 0)
        submitted = batcher.get("submitted", 0)
        batches = batcher.get("batches", 0)
        if computed:
            batcher["collapse_rate"] = round(submitted / computed, 3)
        if batches:
            batcher["mean_batch_size"] = round(computed / batches, 3)
        return {
            "engine": {
                "queries_served": self._queries_served,
                "kernel_rebuilds": self._kernel_rebuilds,
                "instance_version": self.instance.version,
                "kernel_version": self._kernel_version,
            },
            "maintenance": {
                name: (round(value, 6) if name.endswith("_seconds") else value)
                for name, value in self._maintenance.items()
            },
            "result_cache": dict(self.cache_stats),
            "plan_cache": kernel.plan_cache_stats if kernel is not None else {},
            "connection_index": connection,
            "batcher": batcher,
            "exploration": dict(self.exploration_stats),
        }

    # -- BatchStats compatibility --------------------------------------
    @property
    def cache_stats(self) -> Dict[str, int]:
        """Result-cache counters (same shape as ``S3kSearch.cache_stats``).

        Read-only like :meth:`stats`: no kernel rebuild on access."""
        if self._kernel is None:
            return {"hits": 0, "misses": 0, "size": 0, "maxsize": 0}
        return self._kernel.cache_stats

    @property
    def exploration_stats(self) -> Dict[str, object]:
        """Kernel certification counters (same shape as
        ``S3kSearch.exploration_stats``).

        Read-only like :meth:`stats`: no kernel rebuild on access; empty
        before the first query builds a kernel."""
        if self._kernel is None:
            return {}
        return dict(self._kernel.exploration_stats)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"Engine(users={len(self.instance.users)}, "
            f"documents={len(self.instance.documents)}, "
            f"served={self._queries_served})"
        )
