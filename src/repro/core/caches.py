"""Kernel-side caches of :class:`repro.core.search.S3kSearch`.

:class:`_ResultCache` replays finished answers; :class:`_BatchCache`
memoizes the seeker-independent query plans.  Both are bounded LRUs with
scoped eviction under mutation deltas.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import replace
from typing import TYPE_CHECKING, Dict, List, Optional, Set, Tuple

import numpy as np

from ..rdf.terms import Term
from .layout import _ComponentLayout

if TYPE_CHECKING:
    from .search import SearchResult


class _LRUDict(OrderedDict):
    """An ``OrderedDict`` evicting least-recently-used entries past *maxsize*."""

    def __init__(self, maxsize: int):
        super().__init__()
        self.maxsize = maxsize

    def get(self, key, default=None):
        try:
            value = super().__getitem__(key)
        except KeyError:
            return default
        self.move_to_end(key)
        return value

    def __setitem__(self, key, value) -> None:
        super().__setitem__(key, value)
        self.move_to_end(key)
        while len(self) > self.maxsize:
            self.popitem(last=False)


class _ResultMeta:
    """Delta-eviction footprint of one cached answer.

    Records everything the answer's bits depended on beyond the immutable
    indexes: the raw query keywords plus every extension atom (keyword
    extensions and inverted-index lookups), the matching component idents
    (weight bounds and candidate gathering), and the dense proximity rows
    the exploration reached (the stepping itself — a row the border never
    touched cannot change the answer when patched).
    """

    __slots__ = ("visited", "matching", "terms")

    def __init__(
        self,
        visited: np.ndarray,
        matching: frozenset,
        terms: frozenset,
    ) -> None:
        self.visited = visited
        self.matching = matching
        self.terms = terms


class _ResultCache:
    """Bounded LRU of finished answers, keyed ``(seeker, keywords,
    semantic, k)``.

    Generalizes the in-batch coalescing of identical queries across
    batches: hot / trending traffic repeats whole queries, and a finished
    threshold- or hard-cap-terminated answer is fully deterministic, so it
    can be replayed without re-exploring.  Queries carrying a *time_budget*
    or explicit *max_iterations* bypass the cache (their answers depend on
    the budget).  Hit / miss counters feed
    :func:`repro.eval.reporting.format_counter_table`.  Each entry carries
    a :class:`_ResultMeta` footprint so a mutation delta evicts only the
    answers it can actually change.
    """

    __slots__ = ("hits", "misses", "_entries")

    def __init__(self, maxsize: int):
        self.hits = 0
        self.misses = 0
        self._entries: _LRUDict = _LRUDict(maxsize)

    def __len__(self) -> int:
        return len(self._entries)

    @staticmethod
    def _snapshot(result: SearchResult) -> SearchResult:
        """A copy owning its mutable fields, so neither the caller that
        produced the entry nor any caller replaying it can corrupt the
        cached answer (``RankedResult`` elements are frozen)."""
        return replace(
            result,
            results=list(result.results),
            candidate_uris=set(result.candidate_uris),
        )

    def get(self, key: Tuple) -> Optional[SearchResult]:
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        self.hits += 1
        return self._snapshot(entry[0])

    def put(
        self,
        key: Tuple,
        result: SearchResult,
        meta: Optional[_ResultMeta] = None,
    ) -> None:
        self._entries[key] = (self._snapshot(result), meta)

    def apply_delta(
        self,
        stale_terms: Set[Term],
        touched: Set[int],
        affected_rows: np.ndarray,
        old_to_new: Optional[np.ndarray],
    ) -> int:
        """Scoped eviction after a mutation delta; returns entries dropped.

        An answer is dropped when its footprint intersects the delta —
        its terms meet a new schema object or tag keyword, its matching
        components were patched, or its exploration visited a recomputed
        transition row.  Survivors get their visited rows remapped into
        the grown universe's index space; entries without a footprint are
        dropped unconditionally.
        """
        stale_keys: List[Tuple] = []
        for key, entry in list(self._entries.items()):
            meta = entry[1]
            if meta is None:
                stale_keys.append(key)
                continue
            if meta.terms & stale_terms or meta.matching & touched:
                stale_keys.append(key)
                continue
            visited = meta.visited
            if old_to_new is not None and visited.size:
                visited = old_to_new[visited]
                meta.visited = visited
            if (
                visited.size
                and affected_rows.size
                and np.isin(visited, affected_rows).any()
            ):
                stale_keys.append(key)
        for key in stale_keys:
            del self._entries[key]
        return len(stale_keys)

    def clear(self) -> None:
        self._entries.clear()

    def stats(self) -> Dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "size": len(self._entries),
            "maxsize": self._entries.maxsize,
        }


class _BatchCache:
    """Memoization of seeker-independent query plans.

    Everything cached here depends only on the immutable indexes and the
    (keywords, semantic) pair — never on the seeker — so queries that
    repeat keywords (the common case under heavy traffic) share the
    keyword extension, the component matching, the per-keyword weight
    bounds and, most importantly, the per-component candidate layouts.
    Unbounded instances live for one :meth:`S3kSearch.search_many` batch;
    with *maxsize* the kernel keeps one bounded, LRU-evicting instance
    alive across batches, so unique-seeker traffic that repeats keywords
    never re-gathers.
    """

    def __init__(self, maxsize: Optional[int] = None) -> None:
        self.maxsize = maxsize
        factory = (lambda: _LRUDict(maxsize)) if maxsize else dict
        #: (keywords, semantic) -> extensions mapping
        self.extensions: Dict[Tuple, Dict[Term, Set[Term]]] = factory()
        #: (keywords, semantic) -> matching component idents
        self.matching: Dict[Tuple, Set[int]] = factory()
        #: (keywords, semantic) -> per-keyword weight bounds
        self.weight_bounds: Dict[Tuple, List[float]] = factory()
        #: (component ident, (keywords, semantic)) -> _ComponentLayout
        self.component_layouts: Dict[Tuple, _ComponentLayout] = factory()

    def clear(self) -> None:
        self.extensions.clear()
        self.matching.clear()
        self.weight_bounds.clear()
        self.component_layouts.clear()
