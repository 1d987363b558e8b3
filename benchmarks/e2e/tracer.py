"""Span recorder for the traced pass, and the launcher that installs it.

``python tracer.py <repro cli args>`` wraps the layers' *public*
callables with span recorders (nothing under ``src/`` is edited), runs
the normal ``repro.cli`` entry point, and writes the spans to
``$E2E_TRACE_OUT`` when it returns (i.e. after the server drained).

A span is ``[name, start, end, id, parent, extra]`` on the
``time.perf_counter`` clock.  *parent* is the span that was open in the
same asyncio task / thread when this one started (a context variable, so
concurrent requests on one event loop do not adopt each other's spans).
Two links cross a thread boundary and are recorded explicitly in
*extra* instead:

* ``Batcher.submit`` carries ``compute``: the id of the
  ``S3kSearch.search_many`` span (executor thread) that answered its
  request — several submits share one compute span;
* ``ShardedEngine.asearch`` carries ``kernel_s``: the worker kernel's
  ``wall_time`` from the returned response.  Forked shard workers record
  nothing (the recorder switches itself off in the child), so the hop is
  derived router-side.
"""

from __future__ import annotations

import contextvars
import inspect
import itertools
import json
import os
import signal
import sys
import time
from typing import Callable, Dict, List, Optional

_open_span: contextvars.ContextVar = contextvars.ContextVar("e2e_span", default=0)


class Recorder:
    def __init__(self) -> None:
        self.enabled = True
        self.spans: List[list] = []
        self._ids = itertools.count(1)
        #: request -> id of the kernel span that last answered it
        self.compute_of: Dict[object, int] = {}
        os.register_at_fork(after_in_child=lambda: self.switch(False))
        # The load generator switches recording off for the untraced
        # reference phase and back on for the traced one (same boot).
        signal.signal(signal.SIGUSR1, lambda *_: self.switch(True))
        signal.signal(signal.SIGUSR2, lambda *_: self.switch(False))

    def switch(self, enabled: bool) -> None:
        self.enabled = enabled

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": self.spans}, handle)

    # ------------------------------------------------------------------
    def wrap(
        self,
        owner: object,
        attribute: str,
        name: str,
        annotate: Optional[Callable[[dict, int, tuple, object], None]] = None,
    ) -> None:
        """Replace ``owner.attribute`` with a span-recording wrapper.

        *annotate(extra, span_id, args, result)* runs after a successful
        call and may add fields to the span's *extra* mapping.
        """
        raw = inspect.getattr_static(owner, attribute)
        function = raw.__func__ if isinstance(raw, classmethod) else raw
        recorder = self

        def finish(ident, parent, start, extra, token) -> None:
            end = time.perf_counter()
            _open_span.reset(token)
            recorder.spans.append([name, start, end, ident, parent, extra])

        if inspect.iscoroutinefunction(function):

            async def wrapper(*args, **kwargs):
                if not recorder.enabled:
                    return await function(*args, **kwargs)
                ident, parent, extra = next(recorder._ids), _open_span.get(), {}
                token = _open_span.set(ident)
                start = time.perf_counter()
                try:
                    result = await function(*args, **kwargs)
                    if annotate is not None:
                        annotate(extra, ident, args, result)
                    return result
                finally:
                    finish(ident, parent, start, extra, token)

        else:

            def wrapper(*args, **kwargs):
                if not recorder.enabled:
                    return function(*args, **kwargs)
                ident, parent, extra = next(recorder._ids), _open_span.get(), {}
                token = _open_span.set(ident)
                start = time.perf_counter()
                try:
                    result = function(*args, **kwargs)
                    if annotate is not None:
                        annotate(extra, ident, args, result)
                    return result
                finally:
                    finish(ident, parent, start, extra, token)

        wrapper.__name__ = getattr(function, "__name__", attribute)
        wrapper.__doc__ = function.__doc__
        setattr(
            owner, attribute, classmethod(wrapper) if isinstance(raw, classmethod) else wrapper
        )


def install() -> Recorder:
    """Wrap every layer boundary the benchmark attributes time to."""
    from repro.core.connection_index import ConnectionIndex
    from repro.core.prox import ProximityIndex
    from repro.core.search import S3kSearch
    from repro.engine import sharded
    from repro.engine.batcher import Batcher
    from repro.engine.facade import Engine
    from repro.engine.request import QueryRequest, QueryResponse
    from repro.engine.sharded import ShardedEngine
    from repro.storage.sqlite_store import SQLiteStore

    recorder = Recorder()

    def answered(extra, ident, args, result) -> None:
        # args = (kernel, queries, ...): remember which span answered each
        # request so Batcher.submit (another thread) can name its child.
        extra["queries"] = len(args[1])
        for query in args[1]:
            if isinstance(query, QueryRequest):
                recorder.compute_of[query] = ident

    def computed_by(extra, ident, args, result) -> None:
        extra["compute"] = recorder.compute_of.get(args[1], 0)

    def columns(extra, ident, args, result) -> None:
        extra["columns"] = int(args[1].shape[1]) if args[1].ndim == 2 else 1

    def kernel_wall(extra, ident, args, result) -> None:
        extra["kernel_s"] = float(result.wall_time)

    for owner, attribute, annotate in [
        (SQLiteStore, "load_instance", None),
        (SQLiteStore, "load_connection_index", None),
        (SQLiteStore, "export_slab_sidecar", None),
        (ConnectionIndex, "ensure_all", None),
        (ConnectionIndex, "candidate_documents", None),
        (ConnectionIndex, "keyword_evidence", None),
        (ConnectionIndex, "apply_delta", None),
        (ProximityIndex, "step", columns),
        (ProximityIndex, "step_many", columns),
        (ProximityIndex, "apply_delta", None),
        (S3kSearch, "search", None),
        (S3kSearch, "search_many", answered),
        (S3kSearch, "apply_deltas", None),
        (QueryRequest, "from_obj", None),
        (QueryResponse, "to_dict", None),
        (Batcher, "submit", computed_by),
        (Engine, "from_store", None),
        (Engine, "asearch", None),
        (Engine, "search_many", None),
        (Engine, "mutate", None),
        (Engine, "amutate", None),
        (ShardedEngine, "from_store", None),
        (ShardedEngine, "asearch", kernel_wall),
        (ShardedEngine, "mutate", None),
    ]:
        recorder.wrap(owner, attribute, f"{owner.__name__}.{attribute}", annotate)
    recorder.wrap(sharded, "route_shard", "route_shard")
    return recorder


def main(argv: List[str]) -> int:
    recorder = install()
    from repro.cli import main as cli_main

    try:
        return cli_main(argv)
    finally:
        recorder.dump(os.environ["E2E_TRACE_OUT"])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
