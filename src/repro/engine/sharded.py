"""Process-parallel sharded serving: a router over N worker processes.

One GIL-bound interpreter caps the serving tier no matter how well the
kernel batches — and the in-process sharding experiment the ROADMAP
records *regressed* (0.67x at 4 shards: partitions contending for one
interpreter only add routing overhead).  This module is the real
design: every shard is a **full ``Engine`` in its own worker process**,
and the immutable index arrays are shared physically instead of being
deserialized per worker:

* the router builds **one** warm engine (instance, proximity matrix,
  ConnectionIndex slabs), optionally places the big arrays through a
  :class:`~repro.storage.slab_store.SlabStore` (mmap'd uncompressed-npz
  sidecars or POSIX shared memory), and then **forks** the workers —
  copy-on-write plus file/shm-backed buffers mean N shards hold one
  physical copy of every slab, not N;
* the router speaks the existing :class:`QueryRequest` /
  :class:`QueryResponse` wire format: requests pickle over a pipe per
  shard, each worker drains its pipe greedily into the engine's
  lock-step ``search_many`` (micro-batching survives the process hop),
  and answers resolve ``concurrent.futures`` futures that both the sync
  and asyncio entry points await.

**Routing and bit-identity.**  A query is routed *whole* to one shard
by a stable hash of its identity key ``(seeker, keywords)`` — never
split across shards.  Splitting a query per component and merging top-k
at gather sounds appealing (component evidence *is* independent), but
it cannot be bit-identical to single-process ``search``: the reported
``[lower, upper]`` intervals depend on the iteration at which the
threshold test fires, and a shard that sees only a subset of the
candidates stops at a different iteration, so merged intervals would
drift even though the ranking is sound.  Worse, uniform one-keyword
traffic matches most components, so per-component fan-out degenerates
into every-shard-computes-every-query — exactly the regression shape
the experiment measured.  Whole-query routing keeps results bit-equal
to ``Engine.search`` by construction, scales linearly on uniform
traffic, and the stable hash gives *affinity*: identical hot requests
land on the same shard, so per-shard result caches and in-flight
collapse keep working.  Multi-query batches (``search_many``, the HTTP
batch envelope) still fan out across all shards in parallel and gather
in input order.

**Failure containment.**  A worker that dies (OOM-kill, segfault, test
crash hook) fails only its in-flight requests — each answers a
structured 503 ``shard_unavailable`` — and the router immediately forks
a replacement from its own warm image (no index rebuild, no store
reload).  Draining stops admission first (the HTTP tier closes its
listener and waits idle) and only then stops the workers, so no
accepted request ever sees a dying shard.
"""

from __future__ import annotations

import asyncio
import itertools
import multiprocessing
import os
import threading
import time
import zlib
from concurrent.futures import Future, ThreadPoolExecutor
from typing import Dict, List, Optional, Sequence

from .errors import ShardUnavailableError
from .facade import Engine, EngineConfig, _merge_batcher_counters
from .request import (
    MutationRequest,
    MutationResponse,
    QueryRequest,
    QueryResponse,
)

__all__ = ["ShardedEngine", "ShardUnavailableError", "route_shard"]

#: Ceiling on one router→worker round trip before the caller errors out
#: (a wedged worker must fail loudly, not hang the serving tier).
DEFAULT_CALL_TIMEOUT = 60.0

#: Budget for collecting per-worker stats; a busy worker past it serves
#: its last known snapshot instead of stalling ``/stats``.
STATS_TIMEOUT = 2.0


def route_shard(request: QueryRequest, n_shards: int) -> int:
    """Stable shard of *request*: crc32 of the ``(seeker, keywords)`` key.

    Deliberately independent of ``PYTHONHASHSEED`` and of the per-request
    execution settings (``k`` / budgets): the same seeker+keywords always
    lands on the same shard, so its plan-cache entry and any identical
    in-flight request are already there.
    """
    key = "\x1f".join((str(request.seeker), *map(str, request.keywords)))
    return zlib.crc32(key.encode("utf-8")) % n_shards


def _picklable(exc: BaseException) -> BaseException:
    """Ensure an exception survives the pipe (fallback: repr in a
    RuntimeError) — a worker must never die because an error couldn't
    be reported."""
    import pickle

    try:
        pickle.loads(pickle.dumps(exc))
        return exc
    except Exception:  # noqa: BLE001 - any pickle failure takes the fallback
        return RuntimeError(f"{type(exc).__name__}: {exc!r}")


# ----------------------------------------------------------------------
# Worker side (runs in the forked child)
# ----------------------------------------------------------------------
def _worker_loop(conn, engine: Engine, worker_index: int, max_batch: int) -> None:
    """Serve one shard: drain the pipe greedily, answer via the engine.

    The first blocking ``recv`` plus a non-blocking ``poll`` drain
    rebuilds micro-batches on the worker side of the process hop: under
    load the pipe holds several queued requests and one lock-step
    ``search_many`` answers them all, exactly like the in-process
    batcher.  Control messages (``stats``, ``stop``, the test-only crash
    hook) interleave with searches in arrival order.
    """
    # The fork may have copied serving plumbing from a parent engine that
    # had already answered async traffic; its executor threads do not
    # survive the fork, so drop the references and start clean.
    engine._executor = None
    engine._batcher = None
    engine._batcher_loop = None
    started = time.monotonic()
    served = 0
    die_on_next_search = False
    stop = False

    def flush(searches: List) -> int:
        """Answer the accumulated searches in one lock-step call."""
        if not searches:
            return 0
        requests = [request for _rid, request in searches]
        try:
            results = engine._search_requests(requests)
            for (rid, _request), result in zip(searches, results):
                conn.send(("ok", rid, (result, len(requests))))
        except Exception:  # noqa: BLE001 - isolate the poisoned request
            # One bad request (unknown seeker, ...) poisons the
            # lock-step call; re-run individually so its co-batched
            # neighbors still answer, like the Batcher's fallback.
            for rid, request in searches:
                try:
                    result = engine._search_requests([request])[0]
                    conn.send(("ok", rid, (result, 1)))
                except Exception as exc:  # noqa: BLE001 - shaped upstream
                    conn.send(("err", rid, _picklable(exc)))
        return len(searches)

    while not stop:
        try:
            batch = [conn.recv()]
        except (EOFError, OSError):
            break  # router went away; nothing left to answer
        while len(batch) < max_batch and conn.poll(0):
            try:
                batch.append(conn.recv())
            except (EOFError, OSError):
                stop = True
                break
        searches: List = []
        for kind, rid, payload in batch:
            if kind == "search":
                if die_on_next_search:
                    os._exit(17)  # test crash hook: die holding requests
                searches.append((rid, payload))
            elif kind == "mutate":
                # A write is ordered after every search already drained
                # from the pipe, so co-batched queries answer from the
                # snapshot they were admitted against.
                served += flush(searches)
                searches = []
                try:
                    conn.send(("ok", rid, engine.mutate(payload)))
                except Exception as exc:  # noqa: BLE001 - shaped upstream
                    conn.send(("err", rid, _picklable(exc)))
            elif kind == "stats":
                stats = engine.stats()
                uptime = max(time.monotonic() - started, 1e-9)
                stats["worker"] = {
                    "pid": os.getpid(),
                    "worker_index": worker_index,
                    "uptime_seconds": round(uptime, 3),
                    "queries_served": served,
                    "qps": round(served / uptime, 3),
                }
                conn.send(("ok", rid, stats))
            elif kind == "exit_on_next_search":
                die_on_next_search = True
                conn.send(("ok", rid, True))
            elif kind == "stop":
                stop = True
        served += flush(searches)
    engine.close()
    conn.close()


# ----------------------------------------------------------------------
# Router side
# ----------------------------------------------------------------------
class _Shard:
    """Parent-side handle of one worker process.

    Owns the pipe, the pending-future table and a reader thread that
    resolves answers; on pipe EOF (worker death) it fails every pending
    request with :class:`ShardUnavailableError` and forks a replacement
    from the router's warm engine image.
    """

    def __init__(self, index: int, context, engine: Engine, max_batch: int):
        self.index = index
        self._context = context
        self._engine = engine
        self._max_batch = max_batch
        self._lock = threading.Lock()
        #: signalled under ``_lock`` whenever a (re)spawn installs a new
        #: worker; ``wait_for_respawn`` blocks on it instead of polling.
        self._spawned = threading.Condition(self._lock)
        self._request_ids = itertools.count()
        self._pending: Dict[int, Future] = {}
        self._closed = False
        self.generation = 0
        self.process = None
        self.conn = None
        self.last_stats: Dict[str, Dict[str, object]] = {}
        self.counters = {"routed": 0, "answered": 0, "errors": 0, "respawns": 0}
        with self._lock:
            self._start_locked()

    # -- lifecycle ------------------------------------------------------
    def _start_locked(self) -> None:
        # The generation bump and the new process / conn install happen
        # atomically under the lock: an observer that sees the new
        # generation (``wait_for_respawn``) is guaranteed to also see the
        # replacement worker, never the corpse of the old one.
        self.generation += 1
        parent_conn, child_conn = self._context.Pipe(duplex=True)
        process = self._context.Process(
            target=_worker_loop,
            args=(child_conn, self._engine, self.index, self._max_batch),
            name=f"s3k-shard-{self.index}",
            daemon=True,
        )
        process.start()
        child_conn.close()
        self.process = process
        self.conn = parent_conn
        reader = threading.Thread(
            target=self._read_loop,
            args=(parent_conn, self.generation),
            name=f"s3k-shard-{self.index}-reader",
            daemon=True,
        )
        reader.start()
        self._spawned.notify_all()

    def _read_loop(self, conn, generation: int) -> None:
        try:
            while True:
                kind, rid, payload = conn.recv()
                with self._lock:
                    future = self._pending.pop(rid, None)
                if future is None:
                    continue  # caller gave up (timeout / cancelled)
                try:
                    if kind == "ok":
                        future.set_result(payload)
                    else:
                        future.set_exception(payload)
                except Exception:  # noqa: BLE001 - future already done
                    pass
        except (EOFError, OSError):
            pass
        self._on_worker_exit(generation)

    def _on_worker_exit(self, generation: int) -> None:
        with self._lock:
            if generation != self.generation:
                return  # a newer incarnation already took over
            failed = list(self._pending.values())
            self._pending.clear()
            respawn = not self._closed
            old_process, old_conn = self.process, self.conn
            if respawn:
                self.counters["respawns"] += 1
        error = ShardUnavailableError(
            f"shard {self.index} worker exited with {len(failed)} request(s) "
            "in flight; the router is respawning it — retry"
        )
        for future in failed:
            try:
                future.set_exception(error)
            except Exception:  # noqa: BLE001 - future already done
                pass
        if not respawn:
            return
        if old_process is not None:
            old_process.join(timeout=5)
        if old_conn is not None:
            old_conn.close()
        with self._lock:
            if not self._closed and generation == self.generation:
                # Fork a replacement from the router's warm image: no
                # store reload, no index rebuild — boot cost is one fork.
                self._start_locked()

    def stop(self, timeout: float) -> None:
        """Ask the worker to exit (drain has already quiesced admission)."""
        with self._lock:
            self._closed = True
            conn = self.conn
            try:
                conn.send(("stop", -1, None))
            except (OSError, ValueError):
                pass  # already dead: join below reaps it
        process = self.process
        if process is not None:
            process.join(timeout=timeout)
            if process.is_alive():  # pragma: no cover - needs a wedged worker
                process.terminate()
                process.join(timeout=5)
        try:
            conn.close()
        except OSError:  # pragma: no cover
            pass

    # -- calls ----------------------------------------------------------
    @property
    def alive(self) -> bool:
        process = self.process
        return process is not None and process.is_alive()

    @property
    def inflight(self) -> int:
        return len(self._pending)

    def submit(self, kind: str, payload: object = None) -> Future:
        """Send one message; the returned future resolves on the answer."""
        future: Future = Future()
        with self._lock:
            if self._closed:
                future.set_exception(
                    ShardUnavailableError(f"shard {self.index} is stopped")
                )
                return future
            rid = next(self._request_ids)
            self._pending[rid] = future
            try:
                self.conn.send((kind, rid, payload))
            except (OSError, ValueError) as exc:
                self._pending.pop(rid, None)
                future.set_exception(
                    ShardUnavailableError(
                        f"shard {self.index} worker is unreachable "
                        f"({type(exc).__name__}); the router is respawning it"
                    )
                )
        return future

    def fetch_stats(self, timeout: float) -> Optional[Dict[str, Dict[str, object]]]:
        """Current worker stats, or the last known snapshot on timeout."""
        try:
            stats = self.submit("stats").result(timeout)
        except Exception:  # noqa: BLE001 - dead/busy worker: stale is fine
            return self.last_stats or None
        self.last_stats = stats
        return stats


class ShardedEngine:
    """Router facade: ``Engine``-shaped API over N worker processes.

    Speaks the same entry points as :class:`Engine` (``search``,
    ``search_many``, ``asearch``, ``mutate``, ``amutate``, ``stats``,
    ``aclose``), so the HTTP tier, the JSONL loop and the CLI front it
    unchanged.  Writes broadcast to every worker under a barrier (see
    :meth:`mutate`), so the shards stay bit-identical replicas.  Construct from
    a live instance/engine (tests, benchmarks) or from a SQLite store
    with :meth:`from_store` (production: slabs are exported to an
    mmap'able sidecar so workers share one physical copy).

    Requires the ``fork`` start method (POSIX): workers inherit the
    router's warm engine copy-on-write, which is what makes boot and
    respawn O(fork) instead of O(index build).
    """

    def __init__(
        self,
        instance=None,
        *,
        engine: Optional[Engine] = None,
        shards: int = 2,
        score=None,
        connection_index=None,
        config: Optional[EngineConfig] = None,
        slab_store=None,
        call_timeout: float = DEFAULT_CALL_TIMEOUT,
    ):
        if shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        if "fork" not in multiprocessing.get_all_start_methods():
            raise RuntimeError(
                "sharded serving requires the 'fork' start method (POSIX); "
                "run the single-process engine on this platform"
            )
        if engine is None:
            if instance is None:
                raise ValueError("ShardedEngine needs an instance or an engine")
            engine = Engine(
                instance,
                score=score,
                connection_index=connection_index,
                config=config,
            )
        # Everything a worker serves from is built once, here, pre-fork.
        engine.warm()
        self._engine = engine
        self.config = engine.config
        self.instance = engine.instance
        self.n_shards = shards
        self.slab_store = slab_store
        self._slabs_placed = 0
        if slab_store is not None:
            self._slabs_placed = self._place_slabs(slab_store)
        self._call_timeout = call_timeout
        self._context = multiprocessing.get_context("fork")
        self._closed = False
        self._close_lock = threading.Lock()
        self._hook_pool: Optional[ThreadPoolExecutor] = None
        #: serializes mutation barriers: writes reach every worker in one
        #: global order, so all shards replay the identical delta chain.
        self._mutation_lock = threading.Lock()
        self._mutation_generation = 0
        self._started = time.monotonic()
        self._shards = [
            _Shard(index, self._context, engine, self.config.max_batch_size)
            for index in range(shards)
        ]

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_store(
        cls,
        store,
        *,
        shards: int = 2,
        score=None,
        config: Optional[EngineConfig] = None,
        stale_slabs: str = "error",
        slab_backend: str = "mmap",
        sidecar_dir=None,
        call_timeout: float = DEFAULT_CALL_TIMEOUT,
    ) -> "ShardedEngine":
        """A sharded executor over a SQLite store.

        Slab bootstrap flow (``slab_backend="mmap"``, the default): the
        persisted compressed blobs are exported once to an uncompressed
        npz sidecar (``<db>.slabs/`` next to the database, or
        *sidecar_dir*), the router adopts them as read-only memory maps
        under the usual fingerprint guards (*stale_slabs* semantics as
        on :meth:`Engine.from_store`), and the forked workers inherit
        the mappings — the page cache holds one copy for all shards.
        ``"shm"`` places the arrays in POSIX shared memory instead;
        ``"heap"`` skips placement and relies on fork copy-on-write.
        """
        from pathlib import Path

        from ..storage.slab_store import MmapSlabStore, ShmSlabStore
        from ..storage.sqlite_store import SQLiteStore

        if stale_slabs not in ("error", "rebuild"):
            raise ValueError(
                f"stale_slabs must be 'error' or 'rebuild', got {stale_slabs!r}"
            )
        if slab_backend not in ("heap", "mmap", "shm"):
            raise ValueError(
                f"unknown slab backend {slab_backend!r} (heap, mmap, shm)"
            )
        config = config if config is not None else EngineConfig()
        owns_store = not isinstance(store, SQLiteStore)
        opened = SQLiteStore(store) if owns_store else store
        slab_store = None
        try:
            instance = opened.load_instance()
            persisted = opened.connection_index_slab_count()
            connection_index = None
            if config.use_connection_index:
                strict = stale_slabs == "error"
                if persisted and slab_backend == "mmap":
                    directory = (
                        Path(sidecar_dir)
                        if sidecar_dir is not None
                        else (Path(f"{store}.slabs") if owns_store else None)
                    )
                    if directory is not None:
                        opened.export_slab_sidecar(directory)
                        slab_store = MmapSlabStore(directory)
                elif slab_backend == "shm":
                    slab_store = ShmSlabStore()
                connection_index = opened.load_connection_index(
                    instance, strict=strict, slab_store=slab_store
                )
        finally:
            if owns_store:
                opened.close()
        engine = Engine(
            instance, score=score, connection_index=connection_index, config=config
        )
        engine._slabs_persisted = persisted
        if connection_index is not None:
            engine._slabs_adopted = int(
                connection_index.stats()["components_built"]
            )
        return cls(
            engine=engine,
            shards=shards,
            slab_store=slab_store,
            call_timeout=call_timeout,
        )

    def _place_slabs(self, store) -> int:
        """Export the warm indexes into *store* and re-adopt the placed
        (shared) arrays in place, so the forked workers serve from
        shm/mmap-backed buffers instead of private heap pages."""
        kernel = self._engine.kernel
        placed = 0
        index = kernel.connection_index
        if index is not None:
            existing = set(store.names())
            for ident in sorted(index._slabs):
                name = f"component_{ident}"
                if name not in existing:
                    slab = index._slabs[ident]
                    store.put(name, slab.arrays(), meta=slab.header())
            placed += index.adopt_slab_store(store)
        prox = getattr(kernel, "prox_index", None)
        if prox is not None:
            arrays = prox.transition_arrays()
            if arrays is not None:
                name = "proximity_transition"
                if name not in set(store.names()):
                    store.put(name, arrays, meta=None)
                prox.adopt_transition(store.get(name))
                placed += 1
        return placed

    # ------------------------------------------------------------------
    # Routing + the FaultInjector seam
    # ------------------------------------------------------------------
    def _search_requests(
        self, requests: Sequence[QueryRequest]
    ) -> List[QueryRequest]:
        """Pre-dispatch hook (identity).  The PR 4 ``FaultInjector``
        wraps exactly this attribute — same seam as on :class:`Engine` —
        so the failure-injection suite parks sharded requests router-side
        without the workers knowing."""
        return list(requests)

    def _hooked(self) -> bool:
        return "_search_requests" in self.__dict__

    def _ensure_hook_pool(self) -> ThreadPoolExecutor:
        if self._hook_pool is None:
            self._hook_pool = ThreadPoolExecutor(
                max_workers=8, thread_name_prefix="s3k-router-hook"
            )
        return self._hook_pool

    def shard_of(self, request: QueryRequest) -> int:
        return route_shard(request, self.n_shards)

    def _dispatch(self, request: QueryRequest) -> Future:
        shard = self._shards[self.shard_of(request)]
        shard.counters["routed"] += 1
        return shard.submit("search", request)

    def _respond(
        self, request: QueryRequest, payload, latency: Optional[float] = None
    ) -> QueryResponse:
        result, batch_size = payload
        return QueryResponse(
            request=request,
            result=result,
            batch_size=batch_size,
            flush_reason="shard",
            latency_seconds=latency if latency is not None else result.wall_time,
        )

    def _settle(self, shard_index: int, future: Future):
        shard = self._shards[shard_index]
        try:
            payload = future.result(self._call_timeout)
        except Exception:
            shard.counters["errors"] += 1
            raise
        shard.counters["answered"] += 1
        return payload

    # -- request coercion: same normalization as the in-process facade --
    _coerce = Engine._coerce

    # ------------------------------------------------------------------
    # Entry points (Engine-shaped)
    # ------------------------------------------------------------------
    def search(
        self,
        query: object,
        keywords: Optional[Sequence[object]] = None,
        k: Optional[int] = None,
        **settings,
    ) -> QueryResponse:
        """Answer one query synchronously through its shard."""
        if keywords is not None:
            query = (query, keywords)
        request = self._coerce(query, k=k, **settings)
        [request] = self._search_requests([request])
        future = self._dispatch(request)
        return self._respond(request, self._settle(self.shard_of(request), future))

    def search_many(
        self, queries: Sequence[object], **settings
    ) -> List[QueryResponse]:
        """Fan a batch out across the shards; gather in input order."""
        requests = [self._coerce(query, **settings) for query in queries]
        requests = self._search_requests(requests)
        futures = [self._dispatch(request) for request in requests]
        return [
            self._respond(request, self._settle(self.shard_of(request), future))
            for request, future in zip(requests, futures)
        ]

    async def asearch(self, query: object, **settings) -> QueryResponse:
        """Answer one query on the async serving path (what the HTTP
        tier and the JSONL loop call)."""
        request = self._coerce(query, **settings)
        started = time.perf_counter()
        if self._hooked():
            # A FaultInjector gate blocks; keep it off the event loop.
            loop = asyncio.get_running_loop()
            [request] = await loop.run_in_executor(
                self._ensure_hook_pool(), self._search_requests, [request]
            )
        shard_index = self.shard_of(request)
        shard = self._shards[shard_index]
        shard.counters["routed"] += 1
        future = shard.submit("search", request)
        try:
            payload = await asyncio.wrap_future(future)
        except asyncio.CancelledError:
            raise
        except Exception:
            shard.counters["errors"] += 1
            raise
        shard.counters["answered"] += 1
        return self._respond(
            request, payload, latency=time.perf_counter() - started
        )

    # ------------------------------------------------------------------
    # Mutations (barrier broadcast)
    # ------------------------------------------------------------------
    def mutate(self, mutation: object) -> MutationResponse:
        """Apply one typed write on every shard, with a barrier.

        The router's warm engine is mutated **first**: a worker that
        dies at any point respawns by forking that image, so the
        replacement already carries the write and never needs a replay.
        The request is then broadcast to every live worker and the call
        blocks until all of them acknowledge — once ``mutate`` returns,
        a query submitted to *any* shard answers from the new instance
        version.  Queries already in flight during the barrier may still
        answer from the pre-write snapshot; that window is the staleness
        the live-mutation benchmark measures.  Because every worker
        applies the identical :class:`MutationRequest` through the same
        deterministic delta path, the shards stay bit-identical replicas
        of each other and of a from-scratch rebuild.
        """
        request = MutationRequest.from_obj(mutation)
        started = time.perf_counter()
        with self._mutation_lock:
            response = self._engine.mutate(request)
            futures = [
                (shard, shard.submit("mutate", request))
                for shard in self._shards
            ]
            for shard, future in futures:
                try:
                    future.result(self._call_timeout)
                except Exception:  # noqa: BLE001 - dead worker: see below
                    # A worker lost mid-barrier respawns from the
                    # router's already-mutated image — the replacement
                    # is current, not stale, so the barrier holds.
                    shard.counters["errors"] += 1
            self._mutation_generation += 1
        response.latency_seconds = time.perf_counter() - started
        return response

    async def amutate(self, mutation: object) -> MutationResponse:
        """Async :meth:`mutate` (the HTTP tier and the JSONL loop call
        this): the barrier blocks, so it runs off the event loop."""
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(None, self.mutate, mutation)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Stop every worker (call only after admission has quiesced)."""
        with self._close_lock:
            if self._closed:
                return
            self._closed = True
        for shard in self._shards:
            shard.stop(timeout=10.0)
        if self._hook_pool is not None:
            self._hook_pool.shutdown(wait=False)
            self._hook_pool = None
        self._engine.close()
        store = self.slab_store
        if store is not None and hasattr(store, "close"):
            try:
                store.close()
            except Exception:  # noqa: BLE001 - cleanup must not mask serving
                pass

    async def aclose(self) -> None:
        """Async drain hook (what :meth:`HttpServer.drain` awaits)."""
        loop = asyncio.get_running_loop()
        await loop.run_in_executor(None, self.close)

    # -- test hooks -----------------------------------------------------
    def crash_worker(self, shard_index: int) -> None:
        """Arm the crash hook: the worker exits on its next search (the
        deterministic stand-in for an OOM-kill in the failure tests)."""
        self._shards[shard_index].submit("exit_on_next_search").result(
            self._call_timeout
        )

    def wait_for_respawn(self, shard_index: int, generation: int, timeout=30.0):
        """Block until shard *shard_index* is past *generation* and its
        replacement process is alive (no sleeps in tests): a condition
        wait on the shard's spawn signal, not a polling loop."""
        shard = self._shards[shard_index]
        with shard._lock:
            respawned = shard._spawned.wait_for(
                lambda: shard.generation > generation and shard.alive,
                timeout=timeout,
            )
        if not respawned:
            raise TimeoutError(f"shard {shard_index} did not respawn")

    # ------------------------------------------------------------------
    # Stats
    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, Dict[str, object]]:
        """Merged rollup plus per-shard breakdown.

        Sections: ``engine`` / ``result_cache`` / ``batcher`` /
        ``maintenance`` / ``plan_cache`` / ``exploration`` are the
        workers' counters summed (the same shapes as
        :meth:`Engine.stats`, so existing dashboards keep reading them);
        ``connection_index`` reports the router's **shared** index once
        (summing N views of one mmap would multiply its size);
        ``router`` holds routing / respawn / placement counters; one
        ``shard_<i>`` section per worker carries the per-shard
        breakdown (qps, cache hits, inflight).  Rendered by
        :func:`repro.eval.reporting.format_engine_stats`.
        """
        uptime = max(time.monotonic() - self._started, 1e-9)
        rollup_engine: Dict[str, object] = {
            "queries_served": 0,
            "kernel_rebuilds": 0,
            "instance_version": self.instance.version,
            "kernel_version": self._engine.kernel_version,
        }
        rollup_cache: Dict[str, int] = {"hits": 0, "misses": 0, "size": 0, "maxsize": 0}
        rollup_batcher: Dict[str, float] = {}
        rollup_maintenance: Dict[str, float] = {}
        rollup_exploration: Dict[str, float] = {}
        rollup_plans: Dict[str, float] = {}
        shard_sections: Dict[str, Dict[str, object]] = {}
        answered_total = 0
        for shard in self._shards:
            worker = None if self._closed else shard.fetch_stats(STATS_TIMEOUT)
            section: Dict[str, object] = {
                "alive": shard.alive,
                "pid": shard.process.pid if shard.process is not None else -1,
                "generation": shard.generation,
                "inflight": shard.inflight,
                "queries_routed": shard.counters["routed"],
                "answered": shard.counters["answered"],
                "errors": shard.counters["errors"],
                "respawns": shard.counters["respawns"],
                "qps": round(shard.counters["answered"] / uptime, 3),
            }
            answered_total += shard.counters["answered"]
            if worker is not None:
                engine_section = worker.get("engine", {})
                cache_section = worker.get("result_cache", {})
                rollup_engine["queries_served"] += engine_section.get(
                    "queries_served", 0
                )
                rollup_engine["kernel_rebuilds"] += engine_section.get(
                    "kernel_rebuilds", 0
                )
                for name in ("hits", "misses", "size"):
                    rollup_cache[name] += cache_section.get(name, 0)
                rollup_cache["maxsize"] = max(
                    rollup_cache["maxsize"], cache_section.get("maxsize", 0)
                )
                _merge_batcher_counters(rollup_batcher, worker.get("batcher", {}))
                for rollup, block in (
                    (rollup_maintenance, "maintenance"),
                    (rollup_exploration, "exploration"),
                    (rollup_plans, "plan_cache"),
                ):
                    for name, value in worker.get(block, {}).items():
                        rollup[name] = rollup.get(name, 0) + value
                section["cache_hits"] = cache_section.get("hits", 0)
                section["cache_misses"] = cache_section.get("misses", 0)
                section["worker_qps"] = worker.get("worker", {}).get("qps", 0.0)
            shard_sections[f"shard_{shard.index}"] = section
        connection = dict(self._engine.stats()["connection_index"])
        router: Dict[str, object] = {
            "shards": self.n_shards,
            "alive_shards": sum(1 for shard in self._shards if shard.alive),
            "queries_routed": sum(s.counters["routed"] for s in self._shards),
            "answered": answered_total,
            "errors": sum(s.counters["errors"] for s in self._shards),
            "worker_respawns": sum(s.counters["respawns"] for s in self._shards),
            "mutation_generation": self._mutation_generation,
            "inflight": sum(s.inflight for s in self._shards),
            "qps": round(answered_total / uptime, 3),
            "slab_backend": (
                getattr(self.slab_store, "backend", "heap-cow")
                if self.slab_store is not None
                else "heap-cow"
            ),
            "slabs_placed": self._slabs_placed,
            "uptime_seconds": round(uptime, 3),
        }
        return {
            "engine": rollup_engine,
            "router": router,
            "maintenance": rollup_maintenance,
            "result_cache": rollup_cache,
            "plan_cache": rollup_plans,
            "connection_index": connection,
            "batcher": rollup_batcher,
            "exploration": rollup_exploration,
            **shard_sections,
        }

    @property
    def cache_stats(self) -> Dict[str, int]:
        """Summed worker result-cache counters (Engine-shaped)."""
        return dict(self.stats()["result_cache"])

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        alive = sum(1 for shard in self._shards if shard.alive)
        return f"ShardedEngine(shards={self.n_shards}, alive={alive})"
