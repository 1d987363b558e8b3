"""The S3k top-k query answering algorithm (Section 4).

The instance is explored breadth-first from the seeker; at iteration ``n``
the *exploration border* holds the proximity mass of all length-``n``
social paths (``borderProx``, stepped by the sparse engine of
:mod:`repro.core.prox`).  Documents are collected into a candidate set as
their connected components are reached; every candidate carries a
``[lower, upper]`` score interval, refined as proximity accumulates, and a
*threshold* bounds the score of every document still unexplored.  The
search stops (Algorithm 2) when the greedy top-k assembly is provably
final — no candidate or unexplored document can change the picks; an
*anytime* mode instead stops on an iteration / time budget and returns
the best candidates by upper bound.

Two execution modes share one code path: :meth:`S3kSearch.search`
answers a single query, and :meth:`S3kSearch.search_many` advances a
whole batch of :class:`QueryState` objects in lock-step over the shared
immutable indexes, one ``T^T @ B`` mat-mat proximity step per iteration.
"""

from __future__ import annotations

import math
import time
import warnings
from collections import OrderedDict
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..rdf.namespaces import (
    NETWORK_EDGE_PROPERTIES,
    RDF_TYPE,
    RDFS_SUBCLASS,
    RDFS_SUBPROPERTY,
)
from ..rdf.saturation import saturate_from
from ..rdf.terms import Term, URI, coerce_term
from .components import Component, ComponentIndex
from .concrete_score import S3kScore
from .connection_index import ConnectionIndex
from .connections import ComponentConnections, Connection, resolve_connections
from .extension import extend_query
from .instance import CommentEdgeDelta, MutationDelta, S3Instance, TagDelta
from .prox import ProximityIndex
from .score import FeasibleScore

#: Interval slack absorbing float rounding when comparing bounds.
TIE_EPSILON = 1e-9
#: Hard cap on exploration depth (anytime fallback); the threshold stop
#: normally triggers far earlier.
DEFAULT_MAX_ITERATIONS = 300

#: minimum iterations between batch-layout rebuilds while states keep
#: growing (a rebuild concatenates every active state's layout; during
#: the early discovery storm the per-state refresh path is cheaper)
_REBUILD_INTERVAL = 4

#: Shared empty index array for iterations that reach no new nodes.


@dataclass
class Candidate:
    """A candidate answer with its score interval."""

    uri: URI
    root: URI
    depth: int
    #: query keyword -> [(structural distance, source)]
    connections: Dict[Term, List[Tuple[int, URI]]]
    sources: Set[URI]
    #: Dewey identifier of the fragment, cached for neighbor checks
    dewey: Tuple[int, ...] = ()
    lower: float = 0.0
    upper: float = math.inf
    #: flat views of ``connections`` shared with the candidate template —
    #: connection count per keyword, precomputed structural weights
    #: (``η^distance``) and sources in keyword order — from which
    #: :class:`_BoundsLayout` is rebuilt with array gathers instead of
    #: per-candidate dict walks
    kw_counts: Tuple[int, ...] = ()
    conn_weights: np.ndarray = field(
        default_factory=lambda: np.empty(0, dtype=np.float64)
    )
    conn_sources: List[URI] = field(default_factory=list)


@dataclass(frozen=True)
class RankedResult:
    """One element of the returned top-k list."""

    uri: URI
    lower: float
    upper: float


@dataclass
class SearchResult:
    """Outcome of one S3k query."""

    seeker: URI
    keywords: Tuple[Term, ...]
    k: int
    results: List[RankedResult]
    iterations: int
    terminated_by: str
    elapsed_seconds: float
    candidates_examined: int
    components_processed: int
    components_discarded: int
    candidate_uris: Set[URI] = field(default_factory=set)
    extended_keyword_count: int = 0
    #: Position of the query within its batch (0 for sequential queries).
    batch_index: int = 0
    #: Submission-to-answer latency in seconds.  Equals
    #: ``elapsed_seconds`` for sequential queries; under batched execution
    #: it includes the time spent advancing the other queries in lock-step,
    #: which is what a caller waiting on this query actually observes.
    wall_time: float = 0.0

    @property
    def uris(self) -> List[URI]:
        """Result URIs in rank order."""
        return [r.uri for r in self.results]


@dataclass
class QueryState:
    """Per-query exploration state (Section 4), separate from the indexes.

    Everything the S3k loop mutates while answering one query lives here:
    the proximity border and its accumulated mass, the candidate set with
    its score intervals, the unexplored-document threshold, and the
    termination bookkeeping.  The engine itself only holds shared immutable
    indexes, so any number of ``QueryState`` objects can be advanced
    concurrently over the same :class:`S3kSearch` — the seam that batched
    (and later sharded / async) execution builds on.
    """

    seeker: URI
    keywords: Tuple[Term, ...]
    k: int
    semantic: bool
    extensions: Dict[Term, Set[Term]]
    extended_keyword_count: int
    matching: Set[int]
    hard_cap: int
    time_budget: Optional[float]
    started: float
    batch_index: int = 0
    # -- exploration state (None / empty until prepared) ----------------
    border: Optional[np.ndarray] = None
    accumulated: Optional[np.ndarray] = None
    weight_bounds: List[float] = field(default_factory=list)
    #: boolean mask of node indexes already reached by some path — kept as
    #: an array so each iteration only Python-loops over the newly reached
    #: indexes (vectorized diff against the border's nonzero pattern)
    seen: Optional[np.ndarray] = None
    threshold: float = math.inf
    #: ``weight_bounds`` pre-tupled once so the per-iteration threshold
    #: schedule lookup hashes a ready-made key
    weight_key: Tuple[float, ...] = ()
    #: latched once ``matching ⊆ processed`` — the subset test is O(|matching|)
    #: and monotone (``processed`` only grows), so it never needs re-checking
    all_matched: bool = False
    #: flat index layout driving the vectorized bound updates; owns the
    #: authoritative ``lowers`` / ``uppers`` arrays (scattered back into
    #: the :class:`Candidate` objects lazily, only before slow paths)
    layout: Optional["_BoundsLayout"] = None
    #: set while the state's layout has grown past the batch-wide layout
    #: snapshot — the state refreshes per-state until the next rebuild
    needs_own_refresh: bool = False
    #: nonzero rows of ``seen`` captured at batch retirement (``seen``
    #: itself is dropped with the column views); feeds the result cache's
    #: scoped delta eviction
    visited_rows: Optional[np.ndarray] = None
    candidates: Dict[URI, Candidate] = field(default_factory=dict)
    processed: Set[int] = field(default_factory=set)
    candidate_uris: Set[URI] = field(default_factory=set)
    iterations: int = 0
    candidates_examined: int = 0
    components_discarded: int = 0
    terminated_by: str = "threshold"
    done: bool = False

    @property
    def cache_key(self) -> Tuple[Tuple[Term, ...], bool]:
        """Key under which query-independent work can be shared."""
        return (self.keywords, self.semantic)


def _concat(parts: List[np.ndarray], dtype) -> np.ndarray:
    return np.concatenate(parts) if parts else np.empty(0, dtype=dtype)


class _ComponentLayout:
    """Flat bounds-refresh structure of one component's candidate templates.

    The segment arrays (connection weights, per-keyword / per-candidate
    offsets, deduplicated source slots with their closed-neighborhood
    index runs, vertical-neighbor root groups) depend only on the
    component and the extended keyword set — never on the seeker — so one
    block is built per ``(component, keywords)`` pair, cached next to the
    candidate templates in :class:`_BatchCache`, and shared by every
    query state that gathers the component.  Per-state and batch-wide
    layouts are pure concatenations of these blocks with offset shifts.

    Positions are *template-indexed*: position ``p`` is the ``p``-th
    template of the component, whether or not it is live (a candidate
    with an empty connection list for some keyword has a constant
    ``[0, 0]`` interval — the score is a product over keywords — and is
    settled at creation, outside the refresh).  Source proximity is
    deduplicated per component: a source's proximity is a ``reduceat``
    over its own sorted neighborhood run, so the slot arrangement cannot
    change the float results.
    """

    __slots__ = (
        "n_all",
        "n_live",
        "live",
        "conn_weight",
        "conn_src",
        "kw_offsets",
        "cand_offsets",
        "n_conns",
        "n_kws",
        "source_concat",
        "source_offsets",
        "nonempty",
        "n_slots",
        "group_pos",
        "group_offsets",
        "depths",
        "uris",
        "pair_shallow",
        "pair_deep",
    )


class _BoundsLayout:
    """Append-only flat layout of one query's candidate/connection state.

    Grows by whole :class:`_ComponentLayout` blocks as exploration
    discovers matching components; :meth:`ensure` concatenates the block
    arrays (with offset shifts) only when something was appended since
    the last build.  Candidate positions are stable for the lifetime of
    the query — cleaning removes candidates from the *dict*, never from
    the arrays; stale rows merely keep refreshing (their bounds stay
    valid, see the screen soundness notes on the kernel methods).

    The layout owns the authoritative ``lowers`` / ``uppers`` arrays,
    refreshed once per iteration (per state or batch-wide).  The
    :class:`Candidate` objects' ``lower`` / ``upper`` attributes are
    written back lazily by :meth:`S3kSearch._sync_bounds`, only when a
    slow path (full clean / full stop replay / final assembly) is about
    to read them; ``synced`` tracks whether that write-back is current.

    ``removed`` marks positions whose candidate the exact clean has
    dropped from the dict.  The rows still refresh (keeping the arrays a
    plain superset image), but the certification screens substitute
    neutral values for them — without the mask, the very gap that caused
    a removal keeps flagging no-op full cleans forever.
    """

    __slots__ = (
        "blocks",
        "built_blocks",
        "candidates",
        "dirty",
        "synced",
        "n_all",
        "n_live",
        "live_pos",
        "lowers",
        "uppers",
        "removed",
        "n_removed",
        "screen_cache",
        "batch_stats",
        "conn_weight",
        "conn_src",
        "kw_offsets",
        "cand_offsets",
        "source_concat",
        "source_offsets",
        "nonempty",
        "n_slots",
        "group_pos",
        "group_offsets",
        "conn_base",
        "kw_base",
        "group_base",
        "depths",
        "uris",
        "uri_rank",
        "pair_shallow",
        "pair_deep",
        "pair_set",
        "has_duplicates",
    )

    def __init__(self) -> None:
        self.blocks: List[_ComponentLayout] = []
        self.built_blocks = 0
        self.candidates: List[Candidate] = []
        self.dirty = False
        self.synced = True
        self.n_all = 0
        self.n_live = 0
        self.live_pos = np.empty(0, dtype=np.intp)
        self.lowers = np.empty(0, dtype=np.float64)
        self.uppers = np.empty(0, dtype=np.float64)
        self.removed = np.zeros(0, dtype=bool)
        self.n_removed = 0
        self.screen_cache: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]] = None
        #: ``(min raw upper, max raw lower)`` over the live rows of the
        #: last refresh, recorded by whichever refresh pass ran (batch
        #: segment reductions or the per-state pass).  Raw means removed
        #: rows are included, which only loosens the bracket — the screens
        #: use it for sound one-compare fast paths.
        self.batch_stats: Optional[Tuple[float, float]] = None
        self.conn_weight = np.empty(0, dtype=np.float64)
        self.conn_src = np.empty(0, dtype=np.intp)
        self.kw_offsets = np.empty(0, dtype=np.intp)
        self.cand_offsets = np.empty(0, dtype=np.intp)
        self.source_concat = np.empty(0, dtype=np.int64)
        self.source_offsets = np.empty(0, dtype=np.intp)
        self.nonempty = np.empty(0, dtype=np.intp)
        self.n_slots = 0
        self.group_pos = np.empty(0, dtype=np.intp)
        self.group_offsets = np.empty(0, dtype=np.intp)
        self.conn_base = 0
        self.kw_base = 0
        self.group_base = 0
        self.depths = np.empty(0, dtype=np.intp)
        self.uris = np.empty(0, dtype=np.str_)
        #: tie-break rank: position → index in the ascending-URI order of
        #: all positions (URIs are unique across components)
        self.uri_rank = np.empty(0, dtype=np.intp)
        self.pair_shallow = np.empty(0, dtype=np.intp)
        self.pair_deep = np.empty(0, dtype=np.intp)
        #: ``(min_pos, max_pos)`` membership view of the pair arrays
        self.pair_set: Set[Tuple[int, int]] = set()
        #: defensive: a candidate appeared at two positions — the exact
        #: screens assume positions ↔ dict members, so they stand down
        self.has_duplicates = False

    def append(self, block: _ComponentLayout, candidates: List[Candidate]) -> None:
        """Add one gathered component's block (candidates in template order)."""
        self.blocks.append(block)
        self.candidates.extend(candidates)
        self.dirty = True

    def ensure(self) -> None:
        """Concatenate newly appended block arrays onto the built layout.

        Positions are append-only, so only the blocks added since the
        last build need shifting and concatenating — the already-built
        arrays are reused verbatim as the first concat operand (a state
        that grows over many iterations pays O(total) copying per growth
        either way, but not a Python loop over every old block).
        """
        if not self.dirty:
            return
        if self.built_blocks == 0 and len(self.blocks) == 1:
            # First build from a single block: adopt the cached block
            # arrays directly (every base offset is zero).  They are
            # shared read-only across states; the per-state interval
            # arrays are still allocated fresh below.
            block = self.blocks[0]
            if block.n_live:
                self.live_pos = block.live
                self.n_live = block.n_live
                self.conn_weight = block.conn_weight
                self.conn_src = block.conn_src
                self.kw_offsets = block.kw_offsets
                self.cand_offsets = block.cand_offsets
                self.source_concat = block.source_concat
                self.source_offsets = block.source_offsets
                self.nonempty = block.nonempty
            self.built_blocks = 1
            self.n_all = block.n_all
            self.conn_base = block.n_conns
            self.kw_base = block.n_kws
            self.n_slots = block.n_slots
            self.group_pos = block.group_pos
            self.group_offsets = block.group_offsets
            self.group_base = int(block.group_pos.size)
            self.depths = block.depths
            self.uris = block.uris
            self.pair_shallow = block.pair_shallow
            self.pair_deep = block.pair_deep
            if block.pair_shallow.size:
                self.pair_set = set(
                    zip(
                        np.minimum(
                            block.pair_shallow, block.pair_deep
                        ).tolist(),
                        np.maximum(
                            block.pair_shallow, block.pair_deep
                        ).tolist(),
                    )
                )
            self._finish_build()
            return
        live_parts: List[np.ndarray] = [self.live_pos]
        weight_parts: List[np.ndarray] = [self.conn_weight]
        src_parts: List[np.ndarray] = [self.conn_src]
        kw_parts: List[np.ndarray] = [self.kw_offsets]
        cand_parts: List[np.ndarray] = [self.cand_offsets]
        concat_parts: List[np.ndarray] = [self.source_concat]
        offset_parts: List[np.ndarray] = [self.source_offsets]
        nonempty_parts: List[np.ndarray] = [self.nonempty]
        group_parts: List[np.ndarray] = [self.group_pos]
        group_offset_parts: List[np.ndarray] = [self.group_offsets]
        depth_parts: List[np.ndarray] = [self.depths]
        uri_parts: List[np.ndarray] = [self.uris]
        pair_shallow_parts: List[np.ndarray] = [self.pair_shallow]
        pair_deep_parts: List[np.ndarray] = [self.pair_deep]
        cand_base = self.n_all
        conn_base = self.conn_base
        kw_base = self.kw_base
        slot_base = self.n_slots
        source_base = int(self.source_concat.size)
        group_base = self.group_base
        for block in self.blocks[self.built_blocks :]:
            if block.n_live:
                live_parts.append(block.live + cand_base)
                weight_parts.append(block.conn_weight)
                src_parts.append(block.conn_src + slot_base)
                kw_parts.append(block.kw_offsets + conn_base)
                cand_parts.append(block.cand_offsets + kw_base)
                concat_parts.append(block.source_concat)
                offset_parts.append(block.source_offsets + source_base)
                nonempty_parts.append(block.nonempty + slot_base)
            if block.group_pos.size:
                group_parts.append(block.group_pos + cand_base)
                group_offset_parts.append(block.group_offsets + group_base)
            depth_parts.append(block.depths)
            uri_parts.append(block.uris)
            if block.pair_shallow.size:
                shallow = block.pair_shallow + cand_base
                deep = block.pair_deep + cand_base
                pair_shallow_parts.append(shallow)
                pair_deep_parts.append(deep)
                self.pair_set.update(
                    zip(
                        np.minimum(shallow, deep).tolist(),
                        np.maximum(shallow, deep).tolist(),
                    )
                )
            cand_base += block.n_all
            conn_base += block.n_conns
            kw_base += block.n_kws
            slot_base += block.n_slots
            source_base += block.source_concat.size
            group_base += block.group_pos.size
        self.built_blocks = len(self.blocks)
        self.n_all = cand_base
        self.conn_base = conn_base
        self.kw_base = kw_base
        self.live_pos = np.concatenate(live_parts)
        self.n_live = int(self.live_pos.size)
        self.conn_weight = np.concatenate(weight_parts)
        self.conn_src = np.concatenate(src_parts)
        self.kw_offsets = np.concatenate(kw_parts)
        self.cand_offsets = np.concatenate(cand_parts)
        self.source_concat = np.concatenate(concat_parts)
        self.source_offsets = np.concatenate(offset_parts)
        self.nonempty = np.concatenate(nonempty_parts)
        self.n_slots = slot_base
        self.group_pos = np.concatenate(group_parts)
        self.group_offsets = np.concatenate(group_offset_parts)
        self.group_base = group_base
        self.depths = np.concatenate(depth_parts)
        self.uris = np.concatenate(uri_parts)
        self.pair_shallow = np.concatenate(pair_shallow_parts)
        self.pair_deep = np.concatenate(pair_deep_parts)
        self._finish_build()

    def _finish_build(self) -> None:
        # Ascending-URI rank across all positions, the static third key of
        # the exact orderings ``(-bound, -depth, uri)`` the screens
        # replay.  numpy unicode comparison is code-point-wise exactly
        # like ``str``; the stable kind preserves position order on ties
        # (duplicate URIs), matching the Python sort it replaces.
        order = np.argsort(self.uris, kind="stable")
        rank = np.empty(self.n_all, dtype=np.intp)
        rank[order] = np.arange(self.n_all, dtype=np.intp)
        self.uri_rank = rank
        # Settled positions stay 0.0 forever; live positions are rewritten
        # by the very next bounds refresh, so plain zeros are enough.  The
        # removed mask keeps its prefix — cleaned positions stay cleaned.
        self.lowers = np.zeros(self.n_all, dtype=np.float64)
        self.uppers = np.zeros(self.n_all, dtype=np.float64)
        grown = np.zeros(self.n_all, dtype=bool)
        grown[: self.removed.size] = self.removed
        self.removed = grown
        self.screen_cache = None
        self.batch_stats = None
        self.dirty = False


class _BatchLayout:
    """Concatenation of the active states' layouts for one shared refresh.

    Scales every source gather index by the column count (*row_stride* =
    number of active queries) and adds the query column, so a single flat
    gather against the C-contiguous column-major ``(size, n_active)``
    accumulated matrix feeds one ``reduceat`` pass refreshing every
    query's ``[lower, upper]`` intervals.  Rebuilt only when enough
    states gathered new candidates or the batch compacted (column
    retirement changes the stride).
    """

    __slots__ = (
        "gather",
        "source_offsets",
        "nonempty",
        "n_slots",
        "conn_src",
        "conn_weight",
        "kw_offsets",
        "cand_offsets",
        "scatter",
        "seg_starts",
    )

    def __init__(self, active: List["QueryState"], row_stride: int) -> None:
        gather_parts: List[np.ndarray] = []
        offset_parts: List[np.ndarray] = []
        nonempty_parts: List[np.ndarray] = []
        src_parts: List[np.ndarray] = []
        weight_parts: List[np.ndarray] = []
        kw_parts: List[np.ndarray] = []
        cand_parts: List[np.ndarray] = []
        #: (layout, start, count, live positions) per included state —
        #: output rows ``[start, start + count)`` scatter into ``layout``.
        #: *count* / *live positions* are snapshots from build time: a
        #: layout that grows later refreshes per-state until the next
        #: rebuild, and the snapshot keeps the old segment widths aligned
        #: (the prefix rows it writes are still the same candidates).
        self.scatter: List[Tuple[_BoundsLayout, int, int, np.ndarray]] = []
        conn_base = kw_base = slot_base = source_base = 0
        out_base = 0
        for row, state in enumerate(active):
            layout = state.layout
            if layout is None:
                continue
            layout.ensure()
            if not layout.n_live:
                continue
            gather_parts.append(layout.source_concat * np.int64(row_stride) + row)
            offset_parts.append(layout.source_offsets + source_base)
            nonempty_parts.append(layout.nonempty + slot_base)
            src_parts.append(layout.conn_src + slot_base)
            weight_parts.append(layout.conn_weight)
            kw_parts.append(layout.kw_offsets + conn_base)
            cand_parts.append(layout.cand_offsets + kw_base)
            self.scatter.append((layout, out_base, layout.n_live, layout.live_pos))
            conn_base += layout.conn_weight.size
            kw_base += layout.kw_offsets.size
            slot_base += layout.n_slots
            source_base += layout.source_concat.size
            out_base += layout.n_live
        self.gather = _concat(gather_parts, np.int64)
        self.source_offsets = _concat(offset_parts, np.intp)
        self.nonempty = _concat(nonempty_parts, np.intp)
        self.n_slots = slot_base
        self.conn_src = _concat(src_parts, np.intp)
        self.conn_weight = _concat(weight_parts, np.float64)
        self.kw_offsets = _concat(kw_parts, np.intp)
        self.cand_offsets = _concat(cand_parts, np.intp)
        #: start row of each scattered state's segment, for the one-pass
        #: per-segment ``reduceat`` certification stats
        self.seg_starts = np.asarray(
            [start for _, start, _, _ in self.scatter], dtype=np.intp
        )


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
    bounds and, most importantly, the per-component candidate templates.
    Unbounded instances live for one :meth:`S3kSearch.search_many` batch
    (PR 1's behavior); with *maxsize* the engine keeps one bounded,
    LRU-evicting instance alive across batches and sequential queries, so
    unique-seeker traffic that repeats keywords never re-gathers.
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
        #: (component ident, (keywords, semantic)) -> candidate templates
        self.component_candidates: Dict[Tuple, List[Tuple]] = factory()
        #: (component ident, (keywords, semantic)) -> _ComponentLayout
        self.component_layouts: Dict[Tuple, _ComponentLayout] = factory()

    def clear(self) -> None:
        self.extensions.clear()
        self.matching.clear()
        self.weight_bounds.clear()
        self.component_candidates.clear()
        self.component_layouts.clear()


def _normalize_keywords(keywords: Sequence[object]) -> Tuple[Term, ...]:
    """Keywords as deduplicated terms, exactly as ``_prepare_query`` sees
    them — the coalescing key for identical in-flight queries."""
    terms: List[Term] = []
    for keyword in keywords:
        term = keyword if isinstance(keyword, URI) else coerce_term(keyword)
        if term not in terms:
            terms.append(term)
    return tuple(terms)


def _coerce_query(query: object, default_k: int) -> Tuple[object, Sequence[object], int]:
    """Deprecated shim: use :meth:`repro.engine.QueryRequest.from_obj`.

    The ad-hoc ``(seeker, keywords, k)`` coercion moved into the typed
    request layer; this name survives only for external callers.
    """
    warnings.warn(
        "_coerce_query is deprecated; use repro.engine.QueryRequest.from_obj",
        DeprecationWarning,
        stacklevel=2,
    )
    from ..engine.request import QueryRequest

    request = QueryRequest.from_obj(query, default_k=default_k)
    return request.seeker, request.keywords, request.k


class S3kSearch:
    """Query engine over a saturated :class:`S3Instance`.

    Builds, once, the proximity index (normalized transition matrix), the
    connected-component index, and the inverted keyword indexes used for
    pruning and for the threshold bounds; then answers any number of
    queries.

    With *use_connection_index* (the default) candidate gathering reads
    the precomputed per-atom evidence of a lazily built
    :class:`ConnectionIndex` instead of running the connection fixpoint at
    query time; pass a warm *connection_index* (e.g. loaded from a
    :class:`~repro.storage.sqlite_store.SQLiteStore`) to skip even the
    lazy builds.  *result_cache_size* bounds the LRU cache of finished
    answers and *plan_cache_size* the LRU cache of seeker-independent
    query plans (extensions, matching components, weight bounds,
    candidate templates) shared across batches; 0 disables either.
    """

    def __init__(
        self,
        instance: S3Instance,
        score: Optional[FeasibleScore] = None,
        use_matrix: bool = True,
        use_connection_index: bool = True,
        connection_index: Optional[ConnectionIndex] = None,
        result_cache_size: int = 1024,
        plan_cache_size: int = 4096,
    ):
        if not instance.is_saturated:
            instance.saturate()
        self.instance = instance
        self.score: S3kScore = score if score is not None else S3kScore()
        self.prox_index = ProximityIndex(instance, use_matrix=use_matrix)
        self.component_index = (
            connection_index.component_index
            if connection_index is not None
            else ComponentIndex(instance)
        )
        if not use_connection_index:
            # Honored even when an index object was passed: the fixpoint
            # gather path runs (the component partition is still reused).
            self.connection_index: Optional[ConnectionIndex] = None
        elif connection_index is not None:
            self.connection_index = connection_index
        else:
            self.connection_index = ConnectionIndex(instance, self.component_index)
        self._result_cache = (
            _ResultCache(result_cache_size) if result_cache_size > 0 else None
        )
        self._plan_cache = (
            _BatchCache(plan_cache_size) if plan_cache_size > 0 else None
        )
        self._caches_version = instance.version
        self._keyword_nodes: Dict[Term, List[URI]] = {}
        self._keyword_tags: Dict[Term, List[URI]] = {}
        self._component_stats: Dict[int, Tuple[int, int, int]] = {}
        #: fast-path / slow-path certification counters (monotone)
        self._stats: Dict[str, int] = {
            "stop_checks_fast": 0,
            "stop_checks_full": 0,
            "clean_checks_fast": 0,
            "clean_checks_full": 0,
            "bounds_refresh_rows": 0,
            "batch_refresh_passes": 0,
            "batch_layout_builds": 0,
        }
        #: wall seconds per batched-loop phase (read inside search_many,
        #: a sanctioned budget hook of the determinism lint)
        self._phase_seconds: Dict[str, float] = {
            "step": 0.0,
            "discover": 0.0,
            "bounds": 0.0,
            "clean_stop": 0.0,
        }
        self._build_keyword_indexes()

    # ------------------------------------------------------------------
    # Cache management
    # ------------------------------------------------------------------
    def invalidate(self) -> None:
        """Drop cached answers, query plans and precomputed index slabs.

        All three also self-invalidate lazily against
        :attr:`S3Instance.version`, so this explicit hook is for callers
        that mutate content bypassing the ``add_*`` methods.  Note the
        structural indexes (proximity matrix, component partition,
        keyword inverted indexes) are built once per engine: the version
        checks guarantee no *stale replay* after a mutation, but a
        mutated instance should get a freshly constructed engine for
        fully up-to-date answers.
        """
        self._caches_version = self.instance.version
        if self._result_cache is not None:
            self._result_cache.clear()
        if self._plan_cache is not None:
            self._plan_cache.clear()
        if self.connection_index is not None:
            self.connection_index.invalidate()

    def _fresh_caches(self) -> None:
        """Drop result / plan caches lazily after an instance mutation.

        Cached answers and query plans are only valid for the instance
        content they were computed against; the :class:`ConnectionIndex`
        already re-checks :attr:`S3Instance.version` per slab, and this
        gives the two LRU caches the same self-invalidation.
        """
        if self._caches_version != self.instance.version:
            self._caches_version = self.instance.version
            if self._result_cache is not None:
                self._result_cache.clear()
            if self._plan_cache is not None:
                self._plan_cache.clear()

    @property
    def cache_stats(self) -> Dict[str, int]:
        """Hit / miss / occupancy counters of the result cache."""
        if self._result_cache is None:
            return {"hits": 0, "misses": 0, "size": 0, "maxsize": 0}
        return self._result_cache.stats()

    @property
    def exploration_stats(self) -> Dict[str, object]:
        """Fast-/slow-path certification counters and the per-phase wall
        seconds of the batched loop (what ``/stats`` surfaces to make the
        screen hit rate observable)."""
        merged: Dict[str, object] = dict(self._stats)
        for phase, seconds in self._phase_seconds.items():
            merged[f"phase_{phase}_seconds"] = round(seconds, 6)
        return merged

    # ------------------------------------------------------------------
    # Index construction
    # ------------------------------------------------------------------
    def _build_keyword_indexes(self) -> None:
        for root, document in self.instance.documents.items():
            for node in document.nodes():
                for keyword in set(node.keywords):
                    term = coerce_term(keyword)
                    self._keyword_nodes.setdefault(term, []).append(node.uri)
        for tag_uri, tag in self.instance.tags.items():
            if tag.keyword is not None:
                term = coerce_term(tag.keyword)
                self._keyword_tags.setdefault(term, []).append(tag_uri)
        for component in self.component_index.components():
            n_tags = len(component.tags)
            n_roots = len(component.roots)
            n_targets = sum(
                1 for node in component.nodes if self.instance.comments_on(node)
            )
            self._component_stats[component.ident] = (n_tags, n_roots, n_targets)
        # Dense map: proximity index -> component ident (-1 for users and
        # other non-document, non-tag vertices).  Lets the per-iteration
        # discovery classify newly reached nodes with one vectorized lookup
        # instead of per-node dict probes.  Built by walking the component
        # members (document nodes + tags), not the full node universe.
        self._index_component = np.full(self.prox_index.size, -1, dtype=np.int64)
        for component in self.component_index.components():
            for uri in component.nodes:
                index = self.prox_index.node_index_of(uri)
                if index is not None:
                    self._index_component[index] = component.ident
            for uri in component.tags:
                index = self.prox_index.node_index_of(uri)
                if index is not None:
                    self._index_component[index] = component.ident
        #: encoding stride for batch-wide (row, component) discovery pairs
        self._component_stride = max(int(self._index_component.max()) + 1, 1)

    # ------------------------------------------------------------------
    # Delta maintenance (incremental index patching)
    # ------------------------------------------------------------------
    def apply_deltas(
        self, deltas: Sequence[MutationDelta]
    ) -> Optional[Dict[str, object]]:
        """Re-align every index and cache with a batch of typed deltas.

        Returns a patch-info dict on success, or ``None`` when some delta
        is not incrementally expressible — an untyped mutation, a tag
        whose subject starts a fresh component, a comment edge merging
        two components, a derived network edge, or a universe that
        changed beyond the new edges' endpoints.  The dict carries
        ``patch_seconds`` and its per-stage shares ``prox_patch_seconds``
        / ``connection_patch_seconds`` / ``evict_seconds``.
        After a ``None`` return the kernel may be partially patched and
        must be discarded for a from-scratch rebuild (which the engine's
        fallback path does).

        On success every derived structure — component partition,
        proximity transition, connection slabs, keyword indexes — equals
        what a from-scratch build against the mutated instance would
        produce, bit for bit (the oracle sweep asserts this), and the
        result / plan caches are scoped-evicted instead of flushed: only
        entries whose terms, matching components or visited rows
        intersect the delta are dropped.
        """
        started = time.perf_counter()
        instance = self.instance

        # -- gate: purely structural checks, nothing mutated yet ---------
        pending: Dict[URI, int] = {}

        def member_ident(uri: URI) -> Optional[int]:
            component = self.component_index.component_of(uri)
            if component is not None:
                return component.ident
            return pending.get(uri)

        for delta in deltas:
            if isinstance(delta, TagDelta):
                ident = member_ident(delta.tag.subject)
                if ident is None:
                    return None  # fresh component: dense idents would shift
                pending[delta.tag.uri] = ident
            elif isinstance(delta, CommentEdgeDelta):
                ident = member_ident(delta.target)
                if ident is None:
                    return None  # ditto: target outside the partition
                comment_ident = member_ident(delta.comment)
                if comment_ident is not None and comment_ident != ident:
                    return None  # cross-component edge: components merge
            else:
                return None  # opaque mutation: no propagation rule

        # -- incremental closure -----------------------------------------
        frontier = [
            triple for delta in deltas for triple in delta.new_triples
        ]
        derived = saturate_from(instance.graph, frontier)
        instance.mark_saturated()
        for triple in derived:
            if triple.predicate in NETWORK_EDGE_PROPERTIES:
                # Entailment created a social-universe edge the typed
                # patches below do not model.
                return None
        stale_terms: Set[Term] = set()
        for triple in [*frontier, *derived]:
            if triple.predicate in (RDF_TYPE, RDFS_SUBCLASS, RDFS_SUBPROPERTY):
                # Exactly the lookups Ext(k) makes: a cached extension can
                # only change if one of its raw keywords gained a subject.
                stale_terms.add(triple.object)
        new_keywords: Set[Term] = set()
        for delta in deltas:
            if isinstance(delta, TagDelta) and delta.tag.keyword is not None:
                new_keywords.add(coerce_term(delta.tag.keyword))

        # -- patch the component partition -------------------------------
        touched: Set[int] = set()
        for delta in deltas:
            if isinstance(delta, TagDelta):
                ident = self.component_index.apply_tag(delta.tag)
            else:
                ident = self.component_index.apply_comment_edge(
                    delta.comment, delta.target
                )
            if ident is None:  # pragma: no cover - the gate rejects these
                return None
            touched.add(ident)

        # -- patch the proximity transition ------------------------------
        edge_sources = {
            triple.subject
            for triple in frontier
            if triple.predicate in NETWORK_EDGE_PROPERTIES
        }
        prox_started = time.perf_counter()
        try:
            old_to_new, affected_rows = self.prox_index.apply_delta(
                edge_sources
            )
        except ValueError:
            return None
        prox_seconds = time.perf_counter() - prox_started

        # -- re-align the connection slabs -------------------------------
        patch_info: Dict[str, object] = {
            "components_patched": 0,
            "prox_patch_seconds": prox_seconds,
        }
        if self.connection_index is not None:
            patch_info.update(self.connection_index.apply_delta(touched))
        # The slab patch's own clock; ``patch_seconds`` names the total.
        patch_info["connection_patch_seconds"] = patch_info.pop(
            "patch_seconds", 0.0
        )

        # -- patch the keyword / component summaries ---------------------
        for delta in deltas:
            if isinstance(delta, TagDelta) and delta.tag.keyword is not None:
                term = coerce_term(delta.tag.keyword)
                # Appending in delta order matches the insertion order a
                # rebuild reads out of ``instance.tags``.
                self._keyword_tags.setdefault(term, []).append(delta.tag.uri)
        for ident in touched:
            component = self.component_index.component(ident)
            n_targets = sum(
                1 for node in component.nodes if instance.comments_on(node)
            )
            self._component_stats[ident] = (
                len(component.tags),
                len(component.roots),
                n_targets,
            )
        if old_to_new is not None:
            remapped = np.full(self.prox_index.size, -1, dtype=np.int64)
            remapped[old_to_new] = self._index_component
            self._index_component = remapped
        for delta in deltas:
            if isinstance(delta, TagDelta):
                index = self.prox_index.node_index_of(delta.tag.uri)
                if index is not None:
                    member = self.component_index.component_of(delta.tag.uri)
                    self._index_component[index] = member.ident
        # No component was created or merged, so the stride is unchanged.

        # -- scoped cache eviction ---------------------------------------
        evict_started = time.perf_counter()
        evicted = self._evict_stale_plans(
            stale_terms, new_keywords, touched, old_to_new
        )
        if self._result_cache is not None:
            evicted += self._result_cache.apply_delta(
                stale_terms | new_keywords, touched, affected_rows, old_to_new
            )
        self._caches_version = instance.version

        patch_info["deltas_applied"] = len(deltas)
        patch_info["components_touched"] = len(touched)
        patch_info["cache_entries_evicted"] = evicted
        finished = time.perf_counter()
        patch_info["evict_seconds"] = finished - evict_started
        patch_info["patch_seconds"] = finished - started
        return patch_info

    def _evict_stale_plans(
        self,
        stale_terms: Set[Term],
        new_keywords: Set[Term],
        touched: Set[int],
        old_to_new: Optional[np.ndarray],
    ) -> int:
        """Scoped plan-cache eviction for one delta batch.

        Extension entries are dropped only when a new schema triple's
        object is one of the key's *raw* keywords — ``Ext(k)`` looks up
        exactly those objects, so a pure comment-edge delta (empty
        ``stale_terms`` ∩ keywords, no new tag keyword) leaves every
        extension untouched.  Matching sets and weight bounds fall when
        their upstream fell, when a new tag keyword enters the key's
        extension atoms, or when a touched component feeds the bounds;
        per-component candidate plans fall with their component.
        Surviving component layouts get their dense source-index runs
        remapped when the proximity universe grew.
        """
        cache = self._plan_cache
        if cache is None:
            return 0
        evicted = 0
        stale_keys: Set[Tuple] = set()
        for key in list(cache.extensions):
            keywords, _semantic = key
            if stale_terms.intersection(keywords):
                stale_keys.add(key)
                del cache.extensions[key]
                evicted += 1
        if new_keywords or stale_keys:
            for key in list(cache.matching):
                extensions = (
                    None if key in stale_keys else cache.extensions.get(key)
                )
                if extensions is None:
                    # Upstream evicted (or LRU-dropped: unverifiable).
                    del cache.matching[key]
                    evicted += 1
                    continue
                if new_keywords and any(
                    extension & new_keywords
                    for extension in extensions.values()
                ):
                    del cache.matching[key]
                    evicted += 1
        for key in list(cache.weight_bounds):
            matching = cache.matching.get(key)
            if matching is None or (touched and matching & touched):
                del cache.weight_bounds[key]
                evicted += 1
        for store in (cache.component_candidates, cache.component_layouts):
            for entry_key in list(store):
                ident, key = entry_key
                if ident in touched or key in stale_keys:
                    del store[entry_key]
                    evicted += 1
        if old_to_new is not None:
            for layout in cache.component_layouts.values():
                # Fresh array assignment — adopted block arrays are shared
                # read-only across states and never written in place.
                layout.source_concat = old_to_new[layout.source_concat]
        return evicted

    def _result_meta(self, state: QueryState) -> _ResultMeta:
        """Eviction footprint of a finished query (see :class:`_ResultMeta`)."""
        if state.visited_rows is not None:
            visited = state.visited_rows
        elif state.seen is not None:
            visited = np.flatnonzero(state.seen)
        else:
            visited = np.empty(0, dtype=np.intp)
        terms: Set[Term] = set(state.keywords)
        for extension in state.extensions.values():
            terms.update(extension)
        return _ResultMeta(visited, frozenset(state.matching), frozenset(terms))

    # ------------------------------------------------------------------
    # Query-time helpers
    # ------------------------------------------------------------------
    def _matching_components(
        self, extensions: Dict[Term, Set[Term]]
    ) -> Set[int]:
        """Components whose keyword set intersects *every* extension."""
        matching: Optional[Set[int]] = None
        for extension in extensions.values():
            components: Set[int] = set()
            for keyword in extension:
                for node in self._keyword_nodes.get(keyword, ()):
                    component = self.component_index.component_of(node)
                    if component is not None:
                        components.add(component.ident)
                for tag in self._keyword_tags.get(keyword, ()):
                    component = self.component_index.component_of(tag)
                    if component is not None:
                        components.add(component.ident)
            matching = components if matching is None else (matching & components)
            if not matching:
                return set()
        return matching or set()

    def _keyword_weight_bounds(
        self, extensions: Dict[Term, Set[Term]], matching: Set[int]
    ) -> List[float]:
        """``W_k``: per-keyword bounds on the structural weight sums.

        For each query keyword, the maximum over the matching components of
        an upper bound on ``Σ_{(t,f,src)∈con(d,k)} η^{|pos(d,f)|}``:
        contains-connections are bounded by the component's occurrence
        count, relatedTo-connections by its tag count, commentsOn pairs by
        (#commented fragments) × (#roots + #tags).  See DESIGN.md §5.
        """
        bounds: List[float] = []
        for extension in extensions.values():
            per_component: Dict[int, int] = {}
            for keyword in extension:
                for node in self._keyword_nodes.get(keyword, ()):
                    component = self.component_index.component_of(node)
                    if component is not None and component.ident in matching:
                        per_component[component.ident] = (
                            per_component.get(component.ident, 0) + 1
                        )
                for tag in self._keyword_tags.get(keyword, ()):
                    component = self.component_index.component_of(tag)
                    if component is not None and component.ident in matching:
                        per_component[component.ident] = (
                            per_component.get(component.ident, 0) + 1
                        )
            best = 0.0
            for ident, occurrences in per_component.items():
                n_tags, n_roots, n_targets = self._component_stats[ident]
                bound = occurrences + n_tags + n_targets * (n_roots + n_tags)
                best = max(best, float(bound))
            bounds.append(best)
        return bounds

    def _make_template(
        self,
        candidate_uri: URI,
        extensions: Dict[Term, Set[Term]],
        resolver: Callable[[URI, Term], List[Connection]],
    ) -> Tuple:
        """One candidate's query-independent payload (shared batch-wide).

        Resolves the candidate's root, depth, per-keyword connections and
        source set, plus the flat arrays (per-keyword counts, distances,
        sources in keyword order) from which the bounds layout is rebuilt
        without walking the per-candidate dicts again.
        """
        document = self.instance.document_of(candidate_uri)
        node = document.node(candidate_uri)
        structural_weight = self.score.structural_weight
        per_keyword: Dict[Term, List[Tuple[int, URI]]] = {}
        sources: Set[URI] = set()
        kw_counts: List[int] = []
        weights: List[float] = []
        flat_sources: List[URI] = []
        for keyword in extensions:
            resolved = resolver(candidate_uri, keyword)
            per_keyword[keyword] = [(c.distance, c.source) for c in resolved]
            kw_counts.append(len(resolved))
            for connection in resolved:
                weights.append(structural_weight(connection.distance))
                flat_sources.append(connection.source)
            sources.update(c.source for c in resolved)
        return (
            candidate_uri,
            document.uri,
            node.depth,
            node.dewey,
            per_keyword,
            sources,
            tuple(kw_counts),
            np.asarray(weights, dtype=np.float64),
            flat_sources,
        )

    def _candidate_templates(
        self,
        component: Component,
        extensions: Dict[Term, Set[Term]],
        cache: Optional[_BatchCache] = None,
        cache_key: Optional[Tuple] = None,
    ) -> List[Tuple]:
        """Query-independent candidate data for one matching component.

        With the :class:`ConnectionIndex` enabled, candidate extraction is
        a boolean coverage gather and the per-keyword evidence is the
        union of precomputed per-atom slices — no fixpoint runs at query
        time.  Without it, the :class:`ComponentConnections` worklist
        fixpoint (the oracle path) runs here.  Neither depends on the
        seeker, so the result is shared across a batch via *cache* (keyed
        by component and extended keyword set).
        """
        if cache is not None and cache_key is not None:
            cached = cache.component_candidates.get((component.ident, cache_key))
            if cached is not None:
                return cached
        if self.connection_index is not None:
            connection_index = self.connection_index
            candidate_uris = connection_index.candidate_documents(
                component.ident, extensions
            )
            # Evidence decodes lazily, per keyword, only when a candidate
            # actually resolves — a component whose coverage AND is empty
            # costs one boolean gather and nothing else.
            evidence_by_keyword: Dict[Term, Dict] = {}

            def resolver(candidate_uri: URI, keyword: Term) -> List[Connection]:
                evidence = evidence_by_keyword.get(keyword)
                if evidence is None:
                    evidence = evidence_by_keyword[keyword] = (
                        connection_index.keyword_evidence(
                            component.ident, extensions[keyword]
                        )
                    )
                return resolve_connections(self.instance, evidence, candidate_uri)

        else:
            connections_index = ComponentConnections(
                self.instance, component, extensions
            )
            candidate_uris = connections_index.candidate_documents()
            resolver = connections_index.connections
        templates = [
            self._make_template(candidate_uri, extensions, resolver)
            for candidate_uri in candidate_uris
        ]
        if cache is not None and cache_key is not None:
            cache.component_candidates[(component.ident, cache_key)] = templates
        return templates

    def _component_layout(
        self,
        templates: List[Tuple],
        cache: Optional[_BatchCache] = None,
        cache_key: Optional[Tuple] = None,
    ) -> _ComponentLayout:
        """The flat refresh block of one component's candidate templates.

        Seeker-independent (segment offsets, weights, deduplicated source
        slots with their neighborhood index runs, root groups), so it is
        computed once per ``(component, keywords)`` pair and shared via
        *cache* exactly like the templates themselves.  The element order
        inside every segment mirrors the original per-candidate loops, so
        the refreshed floats are bit-identical to the per-object path.
        """
        if cache is not None and cache_key is not None:
            cached = cache.component_layouts.get(cache_key)
            if cached is not None:
                return cached
        layout = _ComponentLayout()
        live: List[int] = []
        slot_of: Dict[URI, int] = {}
        concat_parts: List[np.ndarray] = []
        source_offsets: List[int] = []
        nonempty: List[int] = []
        conn_src: List[int] = []
        weight_parts: List[np.ndarray] = []
        kw_offsets: List[int] = []
        cand_offsets: List[int] = []
        by_root: Dict[URI, List[int]] = {}
        total = 0
        for position, template in enumerate(templates):
            root = template[1]
            by_root.setdefault(root, []).append(position)
            counts = template[6]
            if not counts or 0 in counts:
                continue
            live.append(position)
            cand_offsets.append(len(kw_offsets))
            offset = len(conn_src)
            for count in counts:
                kw_offsets.append(offset)
                offset += count
            for source in template[8]:
                slot = slot_of.get(source)
                if slot is None:
                    slot = len(slot_of)
                    slot_of[source] = slot
                    indices = self.prox_index.closed_neighborhood_indices(source)
                    if indices.size:
                        nonempty.append(slot)
                        source_offsets.append(total)
                        concat_parts.append(indices)
                        total += indices.size
                conn_src.append(slot)
            weight_parts.append(template[7])
        group_pos: List[int] = []
        group_offsets: List[int] = []
        pair_shallow: List[int] = []
        pair_deep: List[int] = []
        for positions in by_root.values():
            if len(positions) < 2:
                continue
            group_offsets.append(len(group_pos))
            group_pos.extend(positions)
            # Vertical-neighbor pairs, shallow (strictly smaller depth —
            # a proper dewey prefix is strictly shorter) listed first.
            # Static per block, so the certification screens can test the
            # exact directional condition instead of a whole-group gap.
            for index, position_a in enumerate(positions):
                dewey_a = templates[position_a][3]
                for position_b in positions[index + 1 :]:
                    dewey_b = templates[position_b][3]
                    if len(dewey_a) <= len(dewey_b):
                        shorter, longer = dewey_a, dewey_b
                        shallow, deep = position_a, position_b
                    else:
                        shorter, longer = dewey_b, dewey_a
                        shallow, deep = position_b, position_a
                    if longer[: len(shorter)] == shorter:
                        pair_shallow.append(shallow)
                        pair_deep.append(deep)
        layout.depths = np.asarray(
            [template[2] for template in templates], dtype=np.intp
        )
        # Unicode copies of the candidate URIs: numpy compares code
        # points exactly like ``str``, so the screens' URI tiebreak rank
        # comes from one C argsort instead of a Python sort per growth.
        layout.uris = np.asarray(
            [str(template[0]) for template in templates], dtype=np.str_
        )
        layout.pair_shallow = np.asarray(pair_shallow, dtype=np.intp)
        layout.pair_deep = np.asarray(pair_deep, dtype=np.intp)
        layout.n_all = len(templates)
        layout.live = np.asarray(live, dtype=np.intp)
        layout.n_live = len(live)
        layout.conn_weight = _concat(weight_parts, np.float64)
        layout.conn_src = np.asarray(conn_src, dtype=np.intp)
        layout.kw_offsets = np.asarray(kw_offsets, dtype=np.intp)
        layout.cand_offsets = np.asarray(cand_offsets, dtype=np.intp)
        layout.n_conns = int(layout.conn_weight.size)
        layout.n_kws = len(kw_offsets)
        layout.source_concat = _concat(concat_parts, np.int64)
        layout.source_offsets = np.asarray(source_offsets, dtype=np.intp)
        layout.nonempty = np.asarray(nonempty, dtype=np.intp)
        layout.n_slots = len(slot_of)
        layout.group_pos = np.asarray(group_pos, dtype=np.intp)
        layout.group_offsets = np.asarray(group_offsets, dtype=np.intp)
        if cache is not None and cache_key is not None:
            cache.component_layouts[cache_key] = layout
        return layout

    def _gather_candidates(
        self,
        component: Component,
        extensions: Dict[Term, Set[Term]],
        state: QueryState,
        cache: Optional[_BatchCache] = None,
        cache_key: Optional[Tuple] = None,
    ) -> int:
        """Add *component*'s candidates; evidence shared through *cache*.

        The :class:`Candidate` objects themselves are always fresh (their
        score intervals are per-query state) but their ``connections`` and
        ``sources`` payloads are immutable and may be shared batch-wide,
        as is the component's :class:`_ComponentLayout` block appended to
        the state's bounds layout (components partition the documents, so
        one component is gathered at most once per query and template
        order is the candidate order).
        """
        templates = self._candidate_templates(component, extensions, cache, cache_key)
        if not templates:
            return 0
        layout_key = (
            (component.ident, cache_key) if cache_key is not None else None
        )
        block = self._component_layout(templates, cache, layout_key)
        candidates = state.candidates
        created: List[Candidate] = []
        added = 0
        for (
            candidate_uri,
            root,
            depth,
            dewey,
            per_keyword,
            sources,
            kw_counts,
            conn_weights,
            conn_sources,
        ) in templates:
            existing = candidates.get(candidate_uri)
            if existing is not None:
                created.append(existing)
                if state.layout is not None:
                    # Two positions now mirror one candidate; the exact
                    # certification screens assume positions ↔ dict
                    # members, so they fall back to conservative tests.
                    state.layout.has_duplicates = True
                continue
            candidate = Candidate(
                uri=candidate_uri,
                root=root,
                depth=depth,
                dewey=dewey,
                connections=per_keyword,
                sources=sources,
                kw_counts=kw_counts,
                conn_weights=conn_weights,
                conn_sources=conn_sources,
            )
            if not kw_counts or 0 in kw_counts:
                # Settled: an empty per-keyword connection list pins the
                # score (a product over keywords) to the [0, 0] interval.
                candidate.upper = 0.0
            candidates[candidate_uri] = candidate
            created.append(candidate)
            added += 1
        if state.layout is not None:
            state.layout.append(block, created)
        # Every gathered candidate was examined, whether or not a later
        # clean drops it — recorded here once instead of re-scanning the
        # dict every iteration.
        state.candidate_uris.update(template[0] for template in templates)
        return added

    # ------------------------------------------------------------------
    # Bounds
    # ------------------------------------------------------------------
    def _update_bounds(self, state: QueryState, tail_bound: float) -> None:
        """Refresh one state's ``[lower, upper]`` arrays (sequential path).

        ``lower`` uses the accumulated (≤ n-step) source proximities;
        ``upper`` additionally grants every source the remaining proximity
        tail.  All sums/products run over the same elements in the same
        order as the straightforward per-candidate loops, via ``reduceat``.
        The results land in the layout's flat arrays; the Candidate
        objects are synced lazily (:meth:`_sync_bounds`).
        """
        layout = state.layout
        if layout is None:
            return
        layout.ensure()
        if not layout.n_live:
            return
        prox = np.zeros(layout.n_slots, dtype=np.float64)
        if layout.source_concat.size:
            prox[layout.nonempty] = np.add.reduceat(
                state.accumulated[layout.source_concat], layout.source_offsets
            )
        conn_prox = prox[layout.conn_src]
        lower_terms = layout.conn_weight * conn_prox
        upper_terms = layout.conn_weight * np.minimum(1.0, conn_prox + tail_bound)
        lower_sums = np.add.reduceat(lower_terms, layout.kw_offsets)
        upper_sums = np.add.reduceat(upper_terms, layout.kw_offsets)
        lower_vals = np.multiply.reduceat(lower_sums, layout.cand_offsets)
        upper_vals = np.multiply.reduceat(upper_sums, layout.cand_offsets)
        layout.lowers[layout.live_pos] = lower_vals
        layout.uppers[layout.live_pos] = upper_vals
        layout.synced = False
        layout.screen_cache = None
        layout.batch_stats = (float(upper_vals.min()), float(lower_vals.max()))
        self._stats["bounds_refresh_rows"] += layout.n_live

    def _refresh_bounds_batch(
        self, batch: _BatchLayout, acc_rows: np.ndarray, tail_bound: float
    ) -> None:
        """One ``reduceat`` pass refreshing every active query's intervals.

        *acc_rows* is the C-contiguous column-major ``(size, n_active)``
        accumulated matrix; the batch layout's gather indices already
        carry the stride and query column, so a single flat gather
        replaces the N per-state gathers.  ``reduceat`` reduces each
        segment independently left-to-right, so concatenating the
        per-state segments preserves every float bit of the per-state
        refresh.
        """
        if not batch.scatter:
            return
        flat = acc_rows.reshape(-1)
        prox = np.zeros(batch.n_slots, dtype=np.float64)
        if batch.gather.size:
            prox[batch.nonempty] = np.add.reduceat(
                flat[batch.gather], batch.source_offsets
            )
        conn_prox = prox[batch.conn_src]
        lower_terms = batch.conn_weight * conn_prox
        upper_terms = batch.conn_weight * np.minimum(1.0, conn_prox + tail_bound)
        lower_sums = np.add.reduceat(lower_terms, batch.kw_offsets)
        upper_sums = np.add.reduceat(upper_terms, batch.kw_offsets)
        lowers = np.multiply.reduceat(lower_sums, batch.cand_offsets)
        uppers = np.multiply.reduceat(upper_sums, batch.cand_offsets)
        # Per-segment certification stats fall out of the same pass: one
        # reduceat pair gives every state its (min upper, max lower)
        # bracket, turning most screen calls into two float compares.
        seg_max_lower = np.maximum.reduceat(lowers, batch.seg_starts).tolist()
        seg_min_upper = np.minimum.reduceat(uppers, batch.seg_starts).tolist()
        refreshed = 0
        for entry, up_min, lo_max in zip(batch.scatter, seg_min_upper, seg_max_lower):
            layout, start, count, live_pos = entry
            stop = start + count
            layout.lowers[live_pos] = lowers[start:stop]
            layout.uppers[live_pos] = uppers[start:stop]
            layout.synced = False
            layout.screen_cache = None
            layout.batch_stats = (up_min, lo_max)
            refreshed += count
        self._stats["bounds_refresh_rows"] += refreshed
        self._stats["batch_refresh_passes"] += 1

    def _sync_bounds(self, state: QueryState) -> None:
        """Scatter the layout's interval arrays into the Candidate objects.

        Slow paths (full clean, full stop replay, final assembly) read
        ``candidate.lower`` / ``candidate.upper``; everything else works
        on the flat arrays, so the per-object writes happen only when a
        slow path is actually about to run.  Settled positions hold 0.0
        (set once at creation and never refreshed) and stale positions
        write into objects no longer in the dict — both harmless.
        """
        layout = state.layout
        if layout is None or layout.synced or layout.dirty:
            return
        lowers = layout.lowers.tolist()
        uppers = layout.uppers.tolist()
        for candidate, lower, upper in zip(layout.candidates, lowers, uppers):
            candidate.lower = lower
            candidate.upper = upper
        layout.synced = True

    # ------------------------------------------------------------------
    # Vertical-neighbor utilities
    # ------------------------------------------------------------------
    def _are_vertical_neighbors(self, a: Candidate, b: Candidate) -> bool:
        if a.root != b.root:
            return False
        dewey_a, dewey_b = a.dewey, b.dewey
        if len(dewey_a) <= len(dewey_b):
            shorter, longer = dewey_a, dewey_b
        else:
            shorter, longer = dewey_b, dewey_a
        return longer[: len(shorter)] == shorter

    def _clean_candidates(
        self, candidates: Dict[URI, Candidate], k: int, tail_bound: float
    ) -> None:
        """CleanCandidatesList: drop provably-excluded candidates."""
        if not candidates:
            return
        # (i) candidates that k others surely beat.  The k reference lower
        # bounds must come from pairwise NON-neighbor candidates: vertical
        # neighbors can occupy only one answer slot, so a greedy
        # neighbor-free selection by lower bound is used.  Any neighbor-free
        # k-set with min lower L forces the answer's k-th score above L,
        # hence candidates with upper < L can never appear.
        by_lower = sorted(
            candidates.values(), key=lambda c: (-c.lower, -c.depth, c.uri)
        )
        reference: List[Candidate] = []
        for candidate in by_lower:
            if any(self._are_vertical_neighbors(candidate, r) for r in reference):
                continue
            reference.append(candidate)
            if len(reference) == k:
                break
        if len(reference) == k:
            kth_lower = reference[-1].lower
            for uri in [
                u
                for u, c in candidates.items()
                if c.upper < kth_lower - TIE_EPSILON
            ]:
                del candidates[uri]
        # (ii) candidates dominated by a vertical neighbor.  Removal is
        # only sound when the dominator is a DESCENDANT: every candidate
        # that could exclude the descendant from the answer (its vertical
        # neighbors — nodes on its root path or in its subtree) is then
        # also a vertical neighbor of the ancestor, so whenever the
        # descendant is out, the ancestor is out too.  An ancestor
        # dominating a child gives no such guarantee — the ancestor may
        # itself be excluded by a pick from a disjoint subtree, leaving
        # the child eligible — so those pairs are left to the stop
        # condition's certainty check.
        by_root: Dict[URI, List[Candidate]] = {}
        for candidate in candidates.values():
            by_root.setdefault(candidate.root, []).append(candidate)
        to_remove: Set[URI] = set()
        converged = tail_bound < TIE_EPSILON
        for group in by_root.values():
            if len(group) < 2:
                continue
            for i, a in enumerate(group):
                for b in group[i + 1 :]:
                    if not self._are_vertical_neighbors(a, b):
                        continue
                    shallow, deep = (a, b) if a.depth <= b.depth else (b, a)
                    if shallow.upper < deep.lower - TIE_EPSILON:
                        # Dominated by a descendant: provably excluded.
                        to_remove.add(shallow.uri)
                    elif converged and abs(a.upper - b.upper) <= TIE_EPSILON:
                        # Breakable tie (Theorem 4.2): keep the deeper,
                        # more specific fragment.
                        to_remove.add(shallow.uri)
        for uri in to_remove:
            candidates.pop(uri, None)

    def _screen_arrays(
        self, layout: _BoundsLayout
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Effective interval arrays for the certification screens.

        Removed positions (dropped from the dict by a previous exact
        clean) are substituted with neutral values so the screens see the
        dict, not the ever-growing superset: lower → 0.0 (never raises a
        maximum or a k-th order statistic above the dict's), and two
        upper fills — 0.0 (never raises an upper order statistic; exact
        for counts of positive uppers) and +inf (never drags a minimum
        below the dict's).  Cached per refresh; with nothing removed the
        authoritative arrays serve all three roles unchanged.
        """
        cached = layout.screen_cache
        if cached is None:
            if layout.n_removed:
                removed = layout.removed
                lowers_eff = np.where(removed, 0.0, layout.lowers)
                uppers_zero = np.where(removed, 0.0, layout.uppers)
                uppers_inf = np.where(removed, math.inf, layout.uppers)
            else:
                lowers_eff = layout.lowers
                uppers_zero = layout.uppers
                uppers_inf = layout.uppers
            cached = layout.screen_cache = (lowers_eff, uppers_zero, uppers_inf)
        return cached

    def _reference_kth_lower(
        self, layout: _BoundsLayout, k: int
    ) -> Optional[float]:
        """Rule (i)'s greedy neighbor-free reference, replayed on positions.

        Identical selection to :meth:`_clean_candidates`: positions in
        ``(-lower, -depth, uri)`` order (``lexsort``'s last key is
        primary; ``uri_rank`` encodes the ascending-URI tiebreak), taking
        the first k that pairwise avoid the precomputed vertical-neighbor
        pairs.  Returns the k-th pick's lower bound, or ``None`` when no
        neighbor-free k-set exists (rule (i) then cannot remove).
        """
        order = np.lexsort((layout.uri_rank, -layout.depths, -layout.lowers))
        removed = layout.removed if layout.n_removed else None
        pair_set = layout.pair_set
        lowers = layout.lowers
        reference: List[int] = []
        for position in order.tolist():
            if removed is not None and removed[position]:
                continue
            conflict = False
            for picked in reference:
                key = (
                    (position, picked)
                    if position < picked
                    else (picked, position)
                )
                if key in pair_set:
                    conflict = True
                    break
            if conflict:
                continue
            reference.append(position)
            if len(reference) == k:
                return float(lowers[position])
        return None

    def _clean_screen(self, state: QueryState, tail_bound: float) -> bool:
        """Exact vector test: can :meth:`_clean_candidates` remove anything?

        Runs on the effective interval arrays (:meth:`_screen_arrays`):
        the rows of dict members carry their authoritative bounds, settled
        rows hold 0.0 (they are dict members too, until cleaned), and
        removed rows are neutralized.  Returning ``False`` must prove the
        exact clean is a no-op; returning ``True`` merely runs it.

        Rule (i) removes a candidate iff ``upper < kth_ref - eps`` for
        the greedy neighbor-free reference of size k — the screen replays
        that selection exactly (:meth:`_reference_kth_lower`) and tests
        the dict's min upper (+inf fills never drag it below the dict's)
        against it.  Two relaxations run first so the replay is reached
        only when it can matter: ``kth_ref ≤ kth_unconstrained ≤
        max_lower`` (the zeros of removed rows never push an order
        statistic above the dict's).

        Rule (ii) removes exactly when some precomputed vertical pair has
        ``shallow.upper < deep.lower - eps`` (a descendant-dominated
        ancestor), or at convergence (``tail_bound < eps``) a breakable
        tie ``|a.upper - b.upper| ≤ eps`` between live pair members —
        both tested directly on the pair index arrays.
        """
        layout = state.layout
        if (
            layout is None
            or layout.dirty
            or layout.n_all == 0
            or layout.has_duplicates
        ):
            # No trustworthy layout arrays to screen with: run the exact
            # pass.  Only reachable for stateless corner cases — every
            # live iteration refreshes right before cleaning.
            return bool(state.candidates)
        stats = layout.batch_stats
        if stats is not None:
            # Refresh-time bracket, no arrays touched: the raw segment min
            # never exceeds the dict's min upper (settled rows pin it to
            # 0.0 when present), the raw max never undershoots any dict
            # lower.  ``min_upper ≥ max_lower − eps`` therefore rules out
            # BOTH removal rules at once — rule (i) because the reference
            # k-th lower is itself ≤ max_lower, rule (ii) because every
            # shallow upper ≥ min_upper ≥ max_lower − eps ≥ deep lower −
            # eps.  Only the convergence tie-break (pairs, tail < eps)
            # escapes the bracket.
            pairs_empty = not layout.pair_shallow.size
            if pairs_empty and layout.n_all < state.k:
                return False
            if pairs_empty or tail_bound >= TIE_EPSILON:
                min_upper_bound = (
                    stats[0]
                    if layout.n_live == layout.n_all
                    else min(stats[0], 0.0)
                )
                if min_upper_bound >= stats[1] - TIE_EPSILON:
                    return False
        lowers, _, uppers = self._screen_arrays(layout)
        min_upper = uppers.min()
        max_lower = lowers.max()
        if min_upper < max_lower - TIE_EPSILON and layout.n_all >= state.k:
            if state.k == 1:
                kth_relaxed = max_lower
            else:
                kth_relaxed = np.partition(lowers, layout.n_all - state.k)[
                    layout.n_all - state.k
                ]
            if min_upper < kth_relaxed - TIE_EPSILON:
                kth_ref = self._reference_kth_lower(layout, state.k)
                if kth_ref is not None and min_upper < kth_ref - TIE_EPSILON:
                    return True
        shallow, deep = layout.pair_shallow, layout.pair_deep
        if shallow.size:
            if bool(np.any(uppers[shallow] < lowers[deep] - TIE_EPSILON)):
                return True
            if tail_bound < TIE_EPSILON:
                raw = layout.uppers
                tie = np.abs(raw[shallow] - raw[deep]) <= TIE_EPSILON
                if layout.n_removed:
                    removed = layout.removed
                    tie &= ~(removed[shallow] | removed[deep])
                if bool(np.any(tie)):
                    return True
        return False

    def _clean_candidates_screened(
        self, state: QueryState, tail_bound: float
    ) -> None:
        """Run the exact clean only when the vector screen flags the state.

        A clean that removed candidates marks their layout positions in
        the ``removed`` mask so the next screens stop seeing the rows —
        the membership diff costs one pass over the positions, paid only
        when something was actually removed (total removals are bounded
        by total candidates ever gathered).
        """
        candidates = state.candidates
        if not candidates:
            return
        if not self._clean_screen(state, tail_bound):
            self._stats["clean_checks_fast"] += 1
            return
        self._stats["clean_checks_full"] += 1
        self._sync_bounds(state)
        n_before = len(candidates)
        self._clean_candidates(candidates, state.k, tail_bound)
        layout = state.layout
        if layout is not None and not layout.dirty and len(candidates) != n_before:
            removed = layout.removed
            for position, candidate in enumerate(layout.candidates):
                if not removed[position] and candidate.uri not in candidates:
                    removed[position] = True
            layout.n_removed = int(np.count_nonzero(removed))
            layout.screen_cache = None

    # ------------------------------------------------------------------
    # Stop condition (Algorithm 2)
    # ------------------------------------------------------------------
    def _stop_condition(
        self,
        ordered: List[Candidate],
        k: int,
        threshold: float,
        tail_bound: float,
    ) -> bool:
        """True when the greedy top-k assembly is provably final.

        Replays :meth:`_assemble`'s greedy pick over *ordered* (sorted by
        ``(-upper, -depth, uri)``) and certifies that the exact-score
        greedy of Definition 3.2 must take the same picks:

        * a candidate skipped for conflicting with a pick must certainly
          rank below its excluder (``upper <= excluder.lower``), or tie
          with it at convergence (then the tie-break keeps the excluder);
        * once the answer is full, the best unpicked, non-conflicting
          candidate must certainly rank below every pick;
        * the unexplored-document threshold must not beat the answer.
        """
        converged = tail_bound < TIE_EPSILON
        picked: List[Candidate] = []
        min_top_lower = math.inf
        for candidate in ordered:
            if candidate.upper <= 0.0:
                continue
            excluder = next(
                (
                    pick
                    for pick in picked
                    if self._are_vertical_neighbors(candidate, pick)
                ),
                None,
            )
            if excluder is not None:
                if candidate.upper <= excluder.lower + TIE_EPSILON:
                    continue
                if converged and abs(candidate.upper - excluder.upper) <= TIE_EPSILON:
                    continue
                return False
            if len(picked) < k:
                picked.append(candidate)
                min_top_lower = min(min_top_lower, candidate.lower)
                continue
            # Would-be (k+1)-th pick: every remaining candidate has an
            # upper bound no larger than this one, so certainty for it
            # certifies the rest.
            if candidate.upper > min_top_lower + TIE_EPSILON:
                return False
            break
        if len(picked) < k:
            # Fewer answers than requested: stop once no unexplored
            # document can join the answer.
            return threshold <= TIE_EPSILON
        return threshold <= min_top_lower + TIE_EPSILON

    # ------------------------------------------------------------------
    # Query lifecycle: prepare -> (check / step)* -> finish
    # ------------------------------------------------------------------
    def _prepare_query(
        self,
        seeker: object,
        keywords: Sequence[object],
        k: int = 5,
        semantic: bool = True,
        max_iterations: Optional[int] = None,
        time_budget: Optional[float] = None,
        batch_index: int = 0,
        cache: Optional[_BatchCache] = None,
    ) -> QueryState:
        """Build the initial :class:`QueryState` for one query.

        Resolves the seeker, dedupes and extends the keywords, computes
        the matching components and weight bounds (all shareable through
        *cache*), and seeds the proximity border on the seeker.  Queries
        with no matching component are born ``done``.
        """
        started = time.perf_counter()
        seeker_uri = URI(seeker)
        if seeker_uri not in self.instance.users:
            raise KeyError(f"unknown seeker: {seeker_uri}")
        query_terms = _normalize_keywords(keywords)
        key = (query_terms, semantic)

        extensions: Optional[Dict[Term, Set[Term]]] = None
        if cache is not None:
            extensions = cache.extensions.get(key)
        if extensions is None:
            if semantic:
                extensions = extend_query(self.instance, query_terms)
            else:
                extensions = {term: {term} for term in query_terms}
            if cache is not None:
                cache.extensions[key] = extensions

        matching: Optional[Set[int]] = None
        if cache is not None:
            matching = cache.matching.get(key)
        if matching is None:
            matching = self._matching_components(extensions)
            if cache is not None:
                cache.matching[key] = matching

        state = QueryState(
            seeker=seeker_uri,
            keywords=query_terms,
            k=k,
            semantic=semantic,
            extensions=extensions,
            extended_keyword_count=sum(len(ext) for ext in extensions.values()),
            matching=matching,
            hard_cap=(
                max_iterations if max_iterations is not None else DEFAULT_MAX_ITERATIONS
            ),
            time_budget=time_budget,
            started=started,
            batch_index=batch_index,
        )
        if matching:
            weight_bounds: Optional[List[float]] = None
            if cache is not None:
                weight_bounds = cache.weight_bounds.get(key)
            if weight_bounds is None:
                weight_bounds = self._keyword_weight_bounds(extensions, matching)
                if cache is not None:
                    cache.weight_bounds[key] = weight_bounds
            state.weight_bounds = weight_bounds
            state.weight_key = tuple(weight_bounds)
            state.border = self.prox_index.start_vector(seeker_uri)
            state.accumulated = np.zeros(self.prox_index.size, dtype=np.float64)
            state.accumulated[self.prox_index.node_index(seeker_uri)] = (
                self.score.c_gamma
            )
            state.seen = state.border != 0
            state.layout = _BoundsLayout()
        else:
            state.done = True
        return state

    def _stop_replay_positions(
        self,
        layout: _BoundsLayout,
        k: int,
        threshold: float,
        converged: bool,
    ) -> bool:
        """Position-level mirror of :meth:`_stop_condition`.

        Returns True iff the object replay provably returns False ("can't
        stop yet"): same ``(-upper, -depth, uri)`` scan order (via
        ``lexsort`` with the static ``uri_rank`` tiebreak), same first-
        excluder lookup (the precomputed vertical-pair set), same
        certification thresholds — but over flat arrays and integer
        positions instead of sorted :class:`Candidate` objects.  Removed
        positions are skipped (they are not in the dict); settled ones
        sort last and terminate the scan exactly like the object replay's
        ``upper ≤ 0`` skip.
        """
        lowers = layout.lowers
        uppers = layout.uppers
        removed = layout.removed if layout.n_removed else None
        order = np.lexsort((layout.uri_rank, -layout.depths, -uppers))
        pair_set = layout.pair_set
        picked: List[int] = []
        min_top_lower = math.inf
        for position in order.tolist():
            if removed is not None and removed[position]:
                continue
            upper = uppers[position]
            if upper <= 0.0:
                # Descending scan: every remaining upper is ≤ 0 too.
                break
            excluder = -1
            for pick in picked:
                key = (
                    (position, pick) if position < pick else (pick, position)
                )
                if key in pair_set:
                    excluder = pick
                    break
            if excluder >= 0:
                if upper <= lowers[excluder] + TIE_EPSILON:
                    continue
                if converged and abs(upper - uppers[excluder]) <= TIE_EPSILON:
                    continue
                return True
            if len(picked) < k:
                picked.append(position)
                lower = lowers[position]
                if lower < min_top_lower:
                    min_top_lower = lower
                continue
            if upper > min_top_lower + TIE_EPSILON:
                return True
            break
        if len(picked) < k:
            return threshold > TIE_EPSILON
        return threshold > min_top_lower + TIE_EPSILON

    def _stop_screen(self, state: QueryState, tail_bound: float) -> bool:
        """Exact test: can the threshold stop possibly fire this iteration?

        Proves :meth:`_stop_condition`'s sorted object replay must return
        False, skipping it.  A one-pass relaxation runs first — both
        terminal branches need the threshold at or below some candidate
        lower (+ eps): the under-filled branch needs ``threshold ≤ eps``
        (lowers ≥ 0), the full branch ``threshold ≤ min_top_lower + eps ≤
        max_lower + eps``, where ``max_lower`` over the effective arrays
        (:meth:`_screen_arrays`) never undershoots the dict's.  When the
        relaxation can't decide, :meth:`_stop_replay_positions` replays
        the greedy certification exactly on the flat arrays — so the
        object replay runs only on the iteration it actually certifies
        (or when a defensive duplicate made positions untrustworthy).
        """
        threshold = state.threshold
        layout = state.layout
        if layout is None or layout.dirty or layout.n_all == 0:
            return threshold > TIE_EPSILON
        stats = layout.batch_stats
        if stats is not None and threshold > stats[1] + TIE_EPSILON:
            # The raw segment max never undershoots the dict's max lower,
            # so the one-compare relaxation is sound without arrays.
            return True
        lowers, _, _ = self._screen_arrays(layout)
        if threshold > lowers.max() + TIE_EPSILON:
            return True
        if layout.has_duplicates:
            return False
        return self._stop_replay_positions(
            layout, state.k, threshold, tail_bound < TIE_EPSILON
        )

    def _check_stop(self, state: QueryState) -> bool:
        """Algorithm 2's pre-step check; sets ``terminated_by`` / ``done``."""
        if state.done:
            return True
        tail_bound = self.score.tail_bound_at(state.iterations)
        if self._stop_screen(state, tail_bound):
            # The replay provably cannot certify: only the anytime
            # budgets apply this iteration.
            self._stats["stop_checks_fast"] += 1
        else:
            self._stats["stop_checks_full"] += 1
            self._sync_bounds(state)
            ordered = sorted(
                state.candidates.values(), key=lambda c: (-c.upper, -c.depth, c.uri)
            )
            if self._stop_condition(ordered, state.k, state.threshold, tail_bound):
                state.terminated_by = "threshold"
                state.done = True
                return True
        if state.iterations >= state.hard_cap:
            state.terminated_by = "anytime"
            state.done = True
        elif (
            state.time_budget is not None
            and time.perf_counter() - state.started > state.time_budget
        ):
            state.terminated_by = "anytime"
            state.done = True
        return state.done

    def _absorb_discovery(
        self,
        state: QueryState,
        cache: Optional[_BatchCache] = None,
        idents: Optional[Sequence[int]] = None,
    ) -> None:
        """Discovery half of one absorbed step: components + threshold.

        Bumps the iteration counter, folds newly reached nodes into the
        processed-component set (gathering candidates for matching
        components), and refreshes the unexplored-document threshold.
        *idents* is this state's slice of the batch-wide newly-reached
        component scan (ascending, exactly the order the per-state
        ``np.unique`` produced); sequentially it is derived from the
        state's own border / seen arrays.
        """
        state.iterations += 1
        if idents is None:
            reached = state.border != 0
            fresh = np.flatnonzero(reached & ~state.seen)
            state.seen |= reached
            if fresh.size:
                found = self._index_component[fresh]
                idents = np.unique(found[found >= 0]).tolist()
            else:
                idents = ()
        for ident in idents:
            if ident in state.processed:
                continue
            state.processed.add(ident)
            if ident in state.matching:
                added = self._gather_candidates(
                    self.component_index.component(ident),
                    state.extensions,
                    state,
                    cache=cache,
                    cache_key=state.cache_key,
                )
                state.candidates_examined += added
            else:
                state.components_discarded += 1
        if state.all_matched:
            state.threshold = 0.0
        elif state.matching <= state.processed:
            state.all_matched = True
            state.threshold = 0.0
        else:
            state.threshold = self.score.threshold_at(
                state.weight_key, state.iterations
            )

    def _post_step(self, state: QueryState, tail_bound: float) -> None:
        """Certification half: clean the candidate set (screened).

        ``candidate_uris`` is recorded at gather time (candidates only
        ever enter the dict there, and cleaning runs after the per-
        iteration recording ran in the original loop), so no per-
        iteration pass over the whole dict is needed here.
        """
        self._clean_candidates_screened(state, tail_bound)

    def _absorb_step(
        self,
        state: QueryState,
        cache: Optional[_BatchCache] = None,
    ) -> None:
        """Fold one already-propagated border back into *state*.

        The caller has already advanced ``state.border`` /
        ``state.accumulated`` through :meth:`ProximityIndex.step`; the
        batched loop runs the same three sub-phases (discovery, bounds
        refresh, certification) over all active states, sharing one
        bounds pass — each state sees the identical per-state sequence,
        which is what keeps the two modes bit-identical.
        """
        self._absorb_discovery(state, cache=cache)
        tail_bound = self.score.tail_bound_at(state.iterations)
        self._update_bounds(state, tail_bound)
        self._post_step(state, tail_bound)

    def _finish(self, state: QueryState) -> SearchResult:
        """Assemble the top-k answer and timing of a finished query."""
        self._sync_bounds(state)
        results = self._assemble(state.candidates, state.k)
        wall_time = time.perf_counter() - state.started
        return SearchResult(
            seeker=state.seeker,
            keywords=state.keywords,
            k=state.k,
            results=results,
            iterations=state.iterations,
            terminated_by=state.terminated_by,
            elapsed_seconds=wall_time,
            candidates_examined=state.candidates_examined,
            components_processed=len(state.processed),
            components_discarded=state.components_discarded,
            candidate_uris=state.candidate_uris,
            extended_keyword_count=state.extended_keyword_count,
            batch_index=state.batch_index,
            wall_time=wall_time,
        )

    # ------------------------------------------------------------------
    # Main entry points
    # ------------------------------------------------------------------
    def search(
        self,
        seeker: object,
        keywords: Sequence[object],
        k: int = 5,
        semantic: bool = True,
        max_iterations: Optional[int] = None,
        time_budget: Optional[float] = None,
    ) -> SearchResult:
        """Answer the query ``(seeker, keywords)`` with the top-*k* results.

        ``semantic=False`` disables keyword extension (used by the
        semantic-reachability measure of Section 5.4).  *max_iterations* /
        *time_budget* activate the anytime termination of Section 4.1.

        Fully-default queries (no explicit budget) are answered from the
        LRU result cache when the same ``(seeker, keywords, semantic, k)``
        was recently finished; the replayed answer is identical, with only
        the timing fields refreshed.
        """
        started = time.perf_counter()
        self._fresh_caches()
        cache_key: Optional[Tuple] = None
        if (
            self._result_cache is not None
            and max_iterations is None
            and time_budget is None
        ):
            cache_key = (URI(seeker), _normalize_keywords(keywords), semantic, k)
            cached = self._result_cache.get(cache_key)
            if cached is not None:
                elapsed = time.perf_counter() - started
                return replace(
                    cached, batch_index=0, elapsed_seconds=elapsed, wall_time=elapsed
                )
        state = self._prepare_query(
            seeker,
            keywords,
            k=k,
            semantic=semantic,
            max_iterations=max_iterations,
            time_budget=time_budget,
            cache=self._plan_cache,
        )
        while not self._check_stop(state):
            state.border = self.prox_index.step(state.border) / self.score.gamma
            state.accumulated += self.score.c_gamma * state.border
            self._absorb_step(state, cache=self._plan_cache)
        result = self._finish(state)
        if cache_key is not None:
            self._result_cache.put(cache_key, result, self._result_meta(state))
        return result

    def search_many(
        self,
        queries: Sequence[object],
        k: int = 5,
        semantic: bool = True,
        max_iterations: Optional[int] = None,
        time_budget: Optional[float] = None,
    ) -> List[SearchResult]:
        """Answer many queries concurrently, advancing them in lock-step.

        Each element of *queries* is a ``(seeker, keywords)`` or
        ``(seeker, keywords, k)`` tuple, or any object with ``seeker`` /
        ``keywords`` (and optionally ``k``) attributes, e.g. a
        :class:`repro.queries.workload.QuerySpec`.  The default *k*,
        *semantic*, *max_iterations* and per-query *time_budget* apply to
        every query that does not carry its own ``k``.

        Every iteration stacks the borders of all still-active queries
        into one matrix and replaces N sparse mat-vec products with a
        single ``T^T @ B`` mat-mat product
        (:meth:`ProximityIndex.step_many`); a query's column is retired
        from the batch the moment its threshold stop (or anytime budget)
        fires.  Query-independent work — keyword extension, component
        matching, weight bounds and per-component connection fixpoints —
        is computed once per distinct keyword set and shared across the
        batch, and identical in-flight queries (same seeker, keywords,
        k and settings — hot queries under heavy traffic) are coalesced
        into a single exploration.  A query that is a
        :class:`~repro.engine.request.QueryRequest` (or a mapping with
        the corresponding keys) executes under its *own* ``semantic`` /
        ``max_iterations`` / ``time_budget``; the batch-level kwargs are
        defaults for queries that do not carry them.  Results are
        returned in input order and are bit-identical to running
        :meth:`search` on each query separately.
        """
        # Local import: the engine package sits above core and imports
        # this module at load time; by the time queries arrive both are
        # fully initialized.
        from ..engine.request import QueryRequest

        batch_started = time.perf_counter()
        self._fresh_caches()
        cache = self._plan_cache if self._plan_cache is not None else _BatchCache()
        replayed: Dict[Tuple, SearchResult] = {}
        unique_states: Dict[Tuple, QueryState] = {}
        assignment: List[Tuple] = []
        for batch_index, query in enumerate(queries):
            request = QueryRequest.from_obj(
                query,
                default_k=k,
                semantic=semantic,
                max_iterations=max_iterations,
                time_budget=time_budget,
            )
            key = (request.seeker, request.keywords, request.k, request.settings)
            assignment.append(key)
            if key in unique_states or key in replayed:
                continue
            # Budgeted requests bypass the result cache (their answers
            # depend on the budget), exactly as in :meth:`search`.
            cacheable = (
                self._result_cache is not None
                and request.max_iterations is None
                and request.time_budget is None
            )
            if cacheable:
                cached = self._result_cache.get(
                    (request.seeker, request.keywords, request.semantic, request.k)
                )
                if cached is not None:
                    # Refresh both timing fields, exactly as search() does
                    # on a replay: a replayed answer spent no exploration
                    # time, and the two fields must stay consistent.
                    elapsed = time.perf_counter() - batch_started
                    replayed[key] = replace(
                        cached,
                        batch_index=batch_index,
                        elapsed_seconds=elapsed,
                        wall_time=elapsed,
                    )
                    continue
            unique_states[key] = self._prepare_query(
                request.seeker,
                request.keywords,
                k=request.k,
                semantic=request.semantic,
                max_iterations=request.max_iterations,
                time_budget=request.time_budget,
                batch_index=batch_index,
                cache=cache,
            )

        states = list(unique_states.values())
        active = [state for state in states if not self._check_stop(state)]
        borders: Optional[np.ndarray] = None
        acc_rows: Optional[np.ndarray] = None
        seen_rows: Optional[np.ndarray] = None
        batch_layout: Optional[_BatchLayout] = None
        built_at = -_REBUILD_INTERVAL
        if active:
            # Batch-major state: the accumulated vectors and seen masks of
            # all active queries live as columns of two C-contiguous
            # column-major matrices — the same orientation ``step_many``
            # produces — so the per-iteration accumulate / reach / fresh
            # updates run without a single transposed (strided) pass, and
            # the bounds refresh gathers from one flat array.
            acc_rows = np.ascontiguousarray(
                np.stack([state.accumulated for state in active], axis=1)
            )
            seen_rows = np.ascontiguousarray(
                np.stack([state.seen for state in active], axis=1)
            )
            for row, state in enumerate(active):
                state.accumulated = acc_rows[:, row]
                state.seen = seen_rows[:, row]
        phase = self._phase_seconds
        while active:
            step_started = time.perf_counter()
            if borders is None:
                borders = np.column_stack([state.border for state in active])
            stepped = self.prox_index.step_many(borders)
            stepped /= self.score.gamma
            acc_rows += self.score.c_gamma * stepped
            reached_rows = stepped != 0
            fresh_matrix = reached_rows & ~seen_rows
            seen_rows |= reached_rows
            # One batch-wide scan classifies every newly reached node of
            # every query: encode (row, component) pairs into one integer
            # key, dedupe with a single ``np.unique`` (ascending idents
            # within each row — the order the per-state unique produced),
            # and hand each state its slice.
            stride = self._component_stride
            nodes_f, rows_f = np.nonzero(fresh_matrix)
            found = self._index_component[nodes_f]
            mask = found >= 0
            if mask.any():
                encoded = np.unique(rows_f[mask] * stride + found[mask])
                disc_rows = encoded // stride
                disc_idents = encoded % stride
                row_bounds = np.searchsorted(
                    disc_rows, np.arange(len(active) + 1)
                )
            else:
                row_bounds = None
            discover_started = time.perf_counter()
            n_stale = 0
            for row, state in enumerate(active):
                state.border = stepped[:, row]
                idents = (
                    disc_idents[row_bounds[row] : row_bounds[row + 1]].tolist()
                    if row_bounds is not None
                    else ()
                )
                self._absorb_discovery(state, cache=cache, idents=idents)
                if state.layout is not None and state.layout.dirty:
                    state.needs_own_refresh = True
                if state.needs_own_refresh:
                    n_stale += 1
            bounds_started = time.perf_counter()
            # All active states share the same iteration count n — the
            # lock-step invariant — so one tail bound serves the batch.
            tail_bound = self.score.tail_bound_at(active[0].iterations)
            # Rebuilding the batch-wide concatenation costs a pass over
            # every state, so a few grown states refresh per-state against
            # their own layout instead (identical reduceat segments →
            # identical bits); rebuild once growth is no longer the
            # exception — or after a compaction dropped the layout.  The
            # rebuild interval keeps the early discovery storm (every
            # state growing every iteration) from rebuilding every
            # iteration: between rebuilds the grown states simply stay on
            # the per-state path.
            iteration_now = active[0].iterations
            if batch_layout is None or (
                2 * n_stale >= len(active)
                and iteration_now - built_at >= _REBUILD_INTERVAL
            ):
                batch_layout = _BatchLayout(active, len(active))
                built_at = iteration_now
                self._stats["batch_layout_builds"] += 1
                for state in active:
                    state.needs_own_refresh = False
            self._refresh_bounds_batch(batch_layout, acc_rows, tail_bound)
            for state in active:
                if state.needs_own_refresh:
                    self._update_bounds(state, tail_bound)
            certify_started = time.perf_counter()
            keep = []
            for row, state in enumerate(active):
                self._post_step(state, tail_bound)
                if not self._check_stop(state):
                    keep.append(row)
            done_at = time.perf_counter()
            phase["step"] += discover_started - step_started
            phase["discover"] += bounds_started - discover_started
            phase["bounds"] += certify_started - bounds_started
            phase["clean_stop"] += done_at - certify_started
            if len(keep) == len(active):
                # Nobody retired: the stepped matrix simply becomes the next
                # border matrix, with no per-iteration re-stacking.
                borders = stepped
            else:
                kept = set(keep)
                for row, state in enumerate(active):
                    if row not in kept:
                        # Retired rows are never read again; dropping the
                        # views releases this iteration's stepped matrix
                        # and, after compaction, the old row matrices.
                        # The visited-row footprint outlives the views for
                        # the result cache's scoped delta eviction.
                        state.visited_rows = np.flatnonzero(state.seen)
                        state.border = None
                        state.accumulated = None
                        state.seen = None
                active = [active[row] for row in keep]
                if active:
                    borders = np.ascontiguousarray(stepped[:, keep])
                    acc_rows = np.ascontiguousarray(acc_rows[:, keep])
                    seen_rows = np.ascontiguousarray(seen_rows[:, keep])
                    for row, state in enumerate(active):
                        state.accumulated = acc_rows[:, row]
                        state.seen = seen_rows[:, row]
                else:
                    borders = acc_rows = seen_rows = None
                batch_layout = None

        finished = {key: self._finish(state) for key, state in unique_states.items()}
        if self._result_cache is not None:
            for key, result in finished.items():
                seeker_key, keywords_key, k_key, settings = key
                semantic_key, max_iterations_key, time_budget_key = settings
                if max_iterations_key is None and time_budget_key is None:
                    self._result_cache.put(
                        (seeker_key, keywords_key, semantic_key, k_key),
                        result,
                        self._result_meta(unique_states[key]),
                    )
        finished.update(replayed)
        results: List[SearchResult] = []
        for batch_index, key in enumerate(assignment):
            primary = finished[key]
            if primary.batch_index == batch_index:
                results.append(primary)
            else:
                results.append(replace(primary, batch_index=batch_index))
        return results

    # ------------------------------------------------------------------
    def _assemble(self, candidates: Dict[URI, Candidate], k: int) -> List[RankedResult]:
        """Greedy top-k under the vertical-neighbor constraint."""
        ordered = sorted(
            candidates.values(), key=lambda c: (-c.upper, -c.depth, c.uri)
        )
        picked: List[Candidate] = []
        for candidate in ordered:
            if candidate.upper <= 0.0:
                continue
            if any(self._are_vertical_neighbors(candidate, other) for other in picked):
                continue
            picked.append(candidate)
            if len(picked) == k:
                break
        return [RankedResult(c.uri, c.lower, c.upper) for c in picked]
