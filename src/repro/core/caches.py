"""Kernel-side caches of :class:`repro.core.search.S3kSearch`.

:class:`_ResultCache` replays finished answers; :class:`_BatchCache`
memoizes the seeker-independent query plans, its :class:`_BlockTable`
the candidate blocks with their index runs pooled in one
:class:`_IndexArena`.  All are bounded LRUs with scoped eviction under
mutation deltas.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import replace
from typing import TYPE_CHECKING, Dict, List, Optional, Set, Tuple

import numpy as np

from ..rdf.terms import Term
from .layout import _KeywordBlock

if TYPE_CHECKING:
    from .search import SearchResult


class _LRUDict(OrderedDict):
    """An ``OrderedDict`` evicting least-recently-used entries past
    *maxsize* (``None``: unbounded), with the counters ``stats`` reports."""

    def __init__(self, maxsize: Optional[int]):
        super().__init__()
        self.maxsize = maxsize
        self.hits = self.misses = 0
        self.lru_evictions = self.delta_evictions = 0

    def get(self, key, default=None):
        try:
            value = super().__getitem__(key)
        except KeyError:
            self.misses += 1
            return default
        self.hits += 1
        self.move_to_end(key)
        return value

    def peek(self, key, default=None):
        """``get`` for eviction scans: the recency order, which belongs
        to the queries, and the hit counters stay as they are."""
        return super().get(key, default)

    def __setitem__(self, key, value) -> None:
        super().__setitem__(key, value)
        self.move_to_end(key)
        while self.maxsize is not None and len(self) > self.maxsize:
            self.popitem(last=False)
            self.lru_evictions += 1

    def evict(self, key) -> None:
        """Drop *key* because a mutation delta made it stale."""
        del self[key]
        self.delta_evictions += 1

    def stats(self) -> Dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "size": len(self),
            "capacity": self.maxsize or 0,
            "lru_evictions": self.lru_evictions,
            "delta_evictions": self.delta_evictions,
        }


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

    __slots__ = ("_entries",)

    def __init__(self, maxsize: int):
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
        return None if entry is None else self._snapshot(entry[0])

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
        universe_size: int,
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
        # One mask over the (grown) universe per delta, not one
        # ``np.isin`` per cached answer.
        recomputed = np.zeros(universe_size, dtype=bool)
        recomputed[affected_rows] = True
        for key, entry in self._entries.items():
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
            if recomputed[visited].any():
                stale_keys.append(key)
        for key in stale_keys:
            self._entries.evict(key)
        return len(stale_keys)

    def clear(self) -> None:
        self._entries.clear()

    def stats(self) -> Dict[str, int]:
        entries = self._entries
        return {
            "hits": entries.hits,
            "misses": entries.misses,
            "size": len(entries),
            "maxsize": entries.maxsize,
        }


class _IndexArena:
    """Pooled storage of the dense source-index runs of all cached blocks.

    A block is handed the start of its range by :meth:`append` and reads
    it back as a slice of :attr:`runs`, a read-only view; when the
    proximity universe grows, :meth:`remap` re-indexes every range with
    one gather.  ``append`` is the only writer and writes past ``used``,
    where no handed-out slice reaches.
    """

    __slots__ = ("_data", "runs", "used", "dead", "remaps")

    def __init__(self) -> None:
        self.remaps = 0
        self.reset(0)

    def reset(self, capacity: int) -> None:
        self._adopt(np.empty(max(capacity, 1024), dtype=np.int64))
        #: elements handed out, and how many of them belong to dropped blocks
        self.used = self.dead = 0

    def _adopt(self, data: np.ndarray) -> None:
        self._data = data
        self.runs = data.view()
        self.runs.flags.writeable = False

    def append(self, indices: np.ndarray) -> int:
        start, end = self.used, self.used + indices.size
        if end > self._data.size:
            grown = np.empty(max(end, 2 * self._data.size), dtype=np.int64)
            grown[:start] = self._data[:start]
            self._adopt(grown)
        self._data[start:end] = indices
        self.used = end
        return start

    def remap(self, old_to_new: np.ndarray) -> None:
        self._adopt(old_to_new[self._data[: self.used]])
        self.remaps += 1


class _BlockTable(_LRUDict):
    """``component ident → {keyword key → block}``, the cached candidate
    blocks (:class:`~repro.core.layout._KeywordBlock`).

    The keyword key is the frozen extension, so a block depends on
    nothing but its component: a mutation delta pops the touched idents
    and no other entry is looked at.  *capacity* counts blocks; recency
    is kept per component, and past capacity the least recently gathered
    components go whole.  Dropped blocks leave dead ranges in the arena,
    compacted once they outweigh the live ones.
    """

    def __init__(self, capacity: Optional[int]) -> None:
        super().__init__(None)
        self.capacity = capacity
        self.arena = _IndexArena()
        self.size = 0
        #: sub-tables delta evictions have looked at (what a write costs)
        self.subtables_visited = 0

    def component(self, ident: int) -> Dict[frozenset, _KeywordBlock]:
        """The sub-table of *ident*, now the most recently used."""
        blocks = self.peek(ident)
        if blocks is None:
            blocks = self[ident] = {}
        else:
            self.move_to_end(ident)
        return blocks

    def grown(self, ident: int) -> None:
        """Account for one block just added under *ident*."""
        self.size += 1
        while (
            self.capacity is not None
            and self.size > self.capacity
            and next(iter(self)) != ident
        ):
            self.lru_evictions += self._release(self.popitem(last=False)[1])

    def evict_components(self, idents: Set[int]) -> int:
        """Drop the blocks of the components a delta touched."""
        dropped = 0
        for ident in idents:
            self.subtables_visited += 1
            dropped += self._release(self.pop(ident, {}))
        self.delta_evictions += dropped
        return dropped

    def _release(self, blocks: Dict[frozenset, _KeywordBlock]) -> int:
        arena = self.arena
        self.size -= len(blocks)
        arena.dead += sum(b.run_stop - b.run_start for b in blocks.values())
        if 2 * arena.dead > arena.used:
            runs = arena.runs
            arena.reset(arena.used - arena.dead)
            for live in self.values():
                for block in live.values():
                    block.run_start = arena.append(
                        runs[block.run_start : block.run_stop]
                    )
                    block.run_stop = arena.used
        return len(blocks)

    def clear(self) -> None:
        super().clear()
        self.size = 0
        self.arena.reset(0)

    def stats(self) -> Dict[str, int]:
        return dict(super().stats(), size=self.size, capacity=self.capacity or 0)


class _BatchCache:
    """Memoization of seeker-independent query plans.

    Everything cached here depends only on the immutable indexes and the
    keywords — never on the seeker — so queries that repeat keywords (the
    common case under heavy traffic) share the keyword extension, the
    component matching and the per-keyword weight bounds per ``(keywords,
    semantic)`` pair and, most importantly, the candidate blocks per
    ``(component, keyword extension)``.  Unbounded instances live for one
    :meth:`S3kSearch.search_many` batch; with *maxsize* the kernel keeps
    one bounded, LRU-evicting instance alive across batches, so
    unique-seeker traffic that repeats keywords never re-gathers.
    """

    def __init__(self, maxsize: Optional[int] = None) -> None:
        #: (keywords, semantic) -> extensions mapping
        self.extensions: _LRUDict = _LRUDict(maxsize)
        #: (keywords, semantic) -> matching component idents
        self.matching: _LRUDict = _LRUDict(maxsize)
        #: (keywords, semantic) -> per-keyword weight bounds
        self.weight_bounds: _LRUDict = _LRUDict(maxsize)
        self.blocks = _BlockTable(maxsize)

    def clear(self) -> None:
        self.extensions.clear()
        self.matching.clear()
        self.weight_bounds.clear()
        self.blocks.clear()

    def stats(self) -> Dict[str, int]:
        """Flat ``<table>_<counter>`` counters of the four tables."""
        flat = {
            f"{table}_{counter}": value
            for table in ("extensions", "matching", "weight_bounds", "blocks")
            for counter, value in getattr(self, table).stats().items()
        }
        flat["block_builds"] = self.blocks.misses
        return flat
