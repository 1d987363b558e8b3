"""The S3k top-k query answering algorithm (Section 4).

The instance is explored breadth-first from the seeker; at iteration ``n``
the *exploration border* holds the proximity mass of all length-``n``
social paths (``borderProx``, stepped by the sparse engine of
:mod:`repro.core.prox`).  Documents become candidates as their connected
components are reached; every candidate carries a ``[lower, upper]``
score interval, refined as proximity accumulates, and a *threshold*
bounds the score of every document still unexplored.  The search stops
(Algorithm 2) when the greedy top-k assembly is provably final — no
candidate or unexplored document can change the picks; an *anytime* mode
instead stops on an iteration / time budget and returns the best
candidates by upper bound.

There is one exploration path: :meth:`S3kSearch.search_many` advances a
batch of :class:`QueryState` objects in lock-step over the shared
immutable indexes, one ``T^T @ B`` mat-mat proximity step per iteration,
and :meth:`S3kSearch.search` is a batch of one.  A query's candidates
exist only as positions of its :class:`_BoundsLayout` arrays — bounds
refresh, cleaning, the stop test and the final assembly are all passes
over those arrays.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..rdf.namespaces import (
    NETWORK_EDGE_PROPERTIES,
    RDF_TYPE,
    RDFS_SUBCLASS,
    RDFS_SUBPROPERTY,
)
from ..rdf.saturation import saturate_from
from ..rdf.terms import Term, URI, coerce_term
from .caches import _BatchCache, _ResultCache, _ResultMeta
from .components import Component, ComponentIndex
from .concrete_score import S3kScore
from .connection_index import ConnectionIndex
from .connections import ComponentConnections
from .extension import extend_query
from .instance import CommentEdgeDelta, MutationDelta, S3Instance, TagDelta
from .layout import _BoundsLayout, _ComponentLayout, build_block, compose_layout
from .prox import ProximityIndex
from .score import FeasibleScore

if TYPE_CHECKING:  # the engine package sits above core
    from ..engine.request import QueryRequest

#: Interval slack absorbing float rounding when comparing bounds.
TIE_EPSILON = 1e-9
#: Hard cap on exploration depth (anytime fallback); the threshold stop
#: normally triggers far earlier.
DEFAULT_MAX_ITERATIONS = 300
#: Floor of the index-derived plan table size.
MIN_PLAN_CACHE_SIZE = 4096


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
    #: Position of the query within its batch (0 for a single ``search``).
    batch_index: int = 0
    #: Submission-to-answer latency in seconds: includes the time spent
    #: advancing the other queries of the batch in lock-step, which is
    #: what a caller waiting on this query actually observes.
    wall_time: float = 0.0

    @property
    def uris(self) -> List[URI]:
        """Result URIs in rank order."""
        return [r.uri for r in self.results]


@dataclass
class QueryState:
    """Per-query exploration state (Section 4), separate from the indexes.

    Everything the S3k loop mutates while answering one query lives here:
    the accumulated proximity mass, the candidate layout with its score
    intervals, the unexplored-document threshold, and the termination
    bookkeeping.  The engine itself only holds shared immutable
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
    #: the frozen extension of each keyword, the key of its cached block
    block_keys: Tuple[frozenset, ...]
    hard_cap: int
    time_budget: Optional[float]
    started: float
    batch_index: int = 0
    # -- exploration state (None / empty until prepared) ----------------
    #: the seeker's start vector and its reached-node mask; the batch
    #: stacks them into its border / seen matrices and drops them here
    border: Optional[np.ndarray] = None
    seen: Optional[np.ndarray] = None
    #: accumulated proximity mass — a column view of the batch's matrix
    #: while the query is active
    accumulated: Optional[np.ndarray] = None
    weight_bounds: List[float] = field(default_factory=list)
    threshold: float = math.inf
    #: ``weight_bounds`` pre-tupled once so the per-iteration threshold
    #: schedule lookup hashes a ready-made key
    weight_key: Tuple[float, ...] = ()
    #: latched once ``matching ⊆ processed`` — the subset test is O(|matching|)
    #: and monotone (``processed`` only grows), so it never needs re-checking
    all_matched: bool = False
    #: the candidate set: one position per gathered candidate, with the
    #: ``lowers`` / ``uppers`` / ``removed`` arrays every pass works on
    layout: _BoundsLayout = field(default_factory=_BoundsLayout)
    #: rows of the batch's seen matrix set in this query's column at
    #: retirement; feeds the result cache's scoped delta eviction
    visited_rows: Optional[np.ndarray] = None
    processed: Set[int] = field(default_factory=set)
    candidate_uris: Set[URI] = field(default_factory=set)
    iterations: int = 0
    candidates_examined: int = 0
    components_discarded: int = 0
    terminated_by: str = "threshold"
    done: bool = False


def _normalize_keywords(keywords: Sequence[object]) -> Tuple[Term, ...]:
    """Keywords as deduplicated terms, exactly as ``_prepare_query`` sees
    them — the coalescing key for identical in-flight queries."""
    terms: List[Term] = []
    for keyword in keywords:
        term = keyword if isinstance(keyword, URI) else coerce_term(keyword)
        if term not in terms:
            terms.append(term)
    return tuple(terms)


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
    answers and *plan_cache_size* the LRU tables of seeker-independent
    query plans (extensions, matching components, weight bounds,
    candidate blocks) shared across batches; 0 disables either.  Left
    ``None``, the plan tables are sized by the index: one entry per
    ``(component, keyword atom)`` holds the whole single-keyword working
    set, so traffic that scans the vocabulary cannot cycle them.
    """

    def __init__(
        self,
        instance: S3Instance,
        score: Optional[FeasibleScore] = None,
        use_matrix: bool = True,
        use_connection_index: bool = True,
        connection_index: Optional[ConnectionIndex] = None,
        result_cache_size: int = 1024,
        plan_cache_size: Optional[int] = None,
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
        if plan_cache_size is None:
            plan_cache_size = max(
                MIN_PLAN_CACHE_SIZE,
                sum(len(c.keywords) for c in self.component_index.components()),
            )
        self._plan_cache = (
            _BatchCache(plan_cache_size) if plan_cache_size > 0 else None
        )
        self._caches_version = instance.version
        self._keyword_nodes: Dict[Term, List[URI]] = {}
        self._keyword_tags: Dict[Term, List[URI]] = {}
        self._component_stats: Dict[int, Tuple[int, int, int]] = {}
        #: certification counters (monotone): *fast* checks were settled
        #: by the refresh-time bracket, *full* ones ran the exact
        #: position pass
        self._stats: Dict[str, int] = {
            "stop_checks_fast": 0,
            "stop_checks_full": 0,
            "clean_checks_fast": 0,
            "clean_checks_full": 0,
            "bounds_refresh_rows": 0,
        }
        #: wall seconds per exploration-loop phase (read inside
        #: search_many, a sanctioned budget hook of the determinism lint)
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
        that mutate content bypassing the ``add_*`` methods.  The version
        checks only guarantee no *stale replay*: the structural indexes
        (proximity matrix, component partition, keyword inverted indexes)
        follow a mutation through :meth:`apply_deltas`, and when that
        returns ``None`` the kernel must be rebuilt (the
        :class:`~repro.engine.facade.Engine` does both).
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
    def plan_cache_stats(self) -> Dict[str, int]:
        """Per-table hit / miss / occupancy / eviction counters of the
        plan cache, flat as ``<table>_<counter>``, plus ``block_builds``."""
        return self._plan_cache.stats() if self._plan_cache is not None else {}

    @property
    def exploration_stats(self) -> Dict[str, object]:
        """Bracket-screened / exact-pass certification counters and the
        per-phase wall seconds of the exploration loop (what ``/stats``
        surfaces to make the screen hit rate observable)."""
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
                stale_terms | new_keywords,
                touched,
                affected_rows,
                old_to_new,
                self.prox_index.size,
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
        exactly those objects, so a pure comment-edge delta leaves every
        extension untouched.  Matching sets and weight bounds fall when
        their upstream fell, when a new tag keyword enters the key's
        extension atoms, or when a touched component feeds the bounds.
        Candidate blocks are keyed by the extension itself, so they fall
        with their component only: the touched idents are popped, and a
        universe growth re-indexes every surviving block's source runs
        with one gather over the arena.  The scans ``peek``: a write must
        not reshuffle the recency order of entries it merely inspected.
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
                cache.extensions.evict(key)
                evicted += 1
        if new_keywords or stale_keys:
            for key in list(cache.matching):
                extensions = (
                    None if key in stale_keys else cache.extensions.peek(key)
                )
                # A missing upstream was evicted (or LRU-dropped:
                # unverifiable).
                if extensions is None or (
                    new_keywords
                    and any(
                        extension & new_keywords
                        for extension in extensions.values()
                    )
                ):
                    cache.matching.evict(key)
                    evicted += 1
        for key in list(cache.weight_bounds):
            matching = cache.matching.peek(key)
            if matching is None or (touched and matching & touched):
                cache.weight_bounds.evict(key)
                evicted += 1
        evicted += cache.blocks.evict_components(touched)
        if old_to_new is not None:
            cache.blocks.arena.remap(old_to_new)
        return evicted

    def _result_meta(self, state: QueryState) -> _ResultMeta:
        """Eviction footprint of a finished query (see :class:`_ResultMeta`)."""
        visited = state.visited_rows
        if visited is None:  # born done: never stepped
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

    def _oracle_block(
        self, component: Component, keyword: Term, extension: Set[Term]
    ) -> Tuple:
        """:meth:`ConnectionIndex.keyword_block` for the oracle path
        (``use_connection_index=False``): the same arrays, read off the
        query-time :class:`ComponentConnections` fixpoint."""
        connections = ComponentConnections(
            self.instance, component, {keyword: extension}
        )
        #: node -> (place in the emission order, first place of its subtree, depth)
        tree: Dict[URI, Tuple[int, int, int]] = {}

        def walk(node) -> None:  # post-order, as the candidates are emitted
            start = len(tree)
            for child in node.children:
                walk(child)
            tree[node.uri] = (len(tree), start, node.depth)

        for root in sorted(component.roots):
            walk(self.instance.documents[root].root)
        uri_terms = connections.candidate_documents()
        resolved = [connections.connections(uri, keyword) for uri in uri_terms]
        flat = [connection for found in resolved for connection in found]
        source_uris = list(dict.fromkeys(c.source for c in flat))
        source_of = {uri: i for i, uri in enumerate(source_uris)}

        def integers(values) -> np.ndarray:
            return np.fromiter(values, dtype=np.intp)

        return (
            *(integers(tree[uri][field] for uri in uri_terms) for field in range(3)),
            uri_terms,
            integers(map(len, resolved)),
            integers(c.distance for c in flat),
            integers(source_of[c.source] for c in flat),
            source_uris,
        )

    def _component_layout(
        self, ident: int, state: QueryState, cache: _BatchCache
    ) -> _ComponentLayout:
        """The flat candidate layout of one matching component.

        Seeker-independent: each keyword's block is computed once per
        ``(component, keyword extension)`` pair and shared via *cache*;
        the layout is the block itself for a single keyword and
        :func:`compose_layout` of the blocks otherwise.  The element
        order inside every segment is the candidates' keyword-major
        connection order, so the refreshed floats are those of the
        straightforward per-candidate loops.
        """
        table = cache.blocks
        cached = table.component(ident)
        blocks = []
        for key, (keyword, extension) in zip(
            state.block_keys, state.extensions.items()
        ):
            block = cached.get(key)
            if block is None:
                table.misses += 1
                if self.connection_index is not None:
                    raw = self.connection_index.keyword_block(ident, extension)
                else:
                    raw = self._oracle_block(
                        self.component_index.component(ident), keyword, extension
                    )
                block = cached[key] = build_block(
                    raw,
                    self.score.structural_weight,
                    self.prox_index.closed_neighborhood_indices,
                    table.arena,
                )
                table.grown(ident)
            else:
                table.hits += 1
            blocks.append(block)
        return blocks[0] if len(blocks) == 1 else compose_layout(blocks)

    # ------------------------------------------------------------------
    # Bounds
    # ------------------------------------------------------------------
    def _update_bounds(self, state: QueryState, tail_bound: float) -> None:
        """Refresh one state's ``[lower, upper]`` arrays.

        ``lower`` uses the accumulated (≤ n-step) source proximities;
        ``upper`` additionally grants every source the remaining proximity
        tail.  All sums/products run over the same elements in the same
        order as the straightforward per-candidate loops, via ``reduceat``.
        """
        layout = state.layout
        layout.ensure()
        if not layout.n_all:
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
        layout.lowers = np.multiply.reduceat(lower_sums, layout.cand_offsets)
        layout.uppers = np.multiply.reduceat(upper_sums, layout.cand_offsets)
        layout.screen_cache = None
        layout.batch_stats = (float(layout.uppers.min()), float(layout.lowers.max()))
        self._stats["bounds_refresh_rows"] += layout.n_all

    def _screen_arrays(self, layout: _BoundsLayout) -> Tuple[np.ndarray, np.ndarray]:
        """``(lowers, uppers)`` with removed positions neutralized.

        Removed positions are no longer candidates, so order statistics
        over the candidate set substitute neutral values for them: lower
        → 0.0 (never raises a maximum or a k-th largest above the
        candidates'), upper → +inf (never drags a minimum below the
        candidates').  Cached per refresh; with nothing removed the
        authoritative arrays serve unchanged.
        """
        cached = layout.screen_cache
        if cached is None:
            if layout.n_removed:
                cached = (
                    np.where(layout.removed, 0.0, layout.lowers),
                    np.where(layout.removed, math.inf, layout.uppers),
                )
            else:
                cached = (layout.lowers, layout.uppers)
            layout.screen_cache = cached
        return cached

    # ------------------------------------------------------------------
    # CleanCandidatesList
    # ------------------------------------------------------------------
    def _reference_kth_lower(
        self, layout: _BoundsLayout, k: int
    ) -> Optional[float]:
        """Rule (i)'s reference: the k-th lower bound of a greedy
        neighbor-free selection.

        Candidates are scanned in ``(-lower, -depth, uri)`` order
        (``lexsort``'s last key is primary; ``uri_rank`` encodes the
        ascending-URI tiebreak), taking the first k that pairwise avoid
        the vertical-neighbor pairs — neighbors can occupy only one
        answer slot.  Returns ``None`` when no neighbor-free k-set exists
        (rule (i) then cannot remove).
        """
        order = np.lexsort((layout.uri_rank, -layout.depths, -layout.lowers))
        removed = layout.removed if layout.n_removed else None
        reference: List[int] = []
        for position in order.tolist():
            if removed is not None and removed[position]:
                continue
            if layout.excluder(position, reference) >= 0:
                continue
            reference.append(position)
            if len(reference) == k:
                return float(layout.lowers[position])
        return None

    def _clean(self, state: QueryState, tail_bound: float) -> None:
        """CleanCandidatesList: mark provably-excluded positions removed.

        (i) Candidates that k others surely beat.  Any neighbor-free
        k-set with min lower L forces the answer's k-th score above L,
        hence candidates with ``upper < L − eps`` can never appear
        (:meth:`_reference_kth_lower` picks the set).

        (ii) Candidates dominated by a vertical neighbor, judged for all
        pairs alive after rule (i) at once.  Removal is only sound when
        the dominator is a DESCENDANT: every candidate that could exclude
        the descendant from the answer (nodes on its root path or in its
        subtree) is then also a vertical neighbor of the ancestor, so
        whenever the descendant is out, the ancestor is out too.  An
        ancestor dominating a child gives no such guarantee — it may
        itself be excluded by a pick from a disjoint subtree, leaving the
        child eligible — so those pairs are left to the stop test.  At
        convergence a breakable tie (Theorem 4.2) keeps the deeper, more
        specific fragment.
        """
        layout = state.layout
        n_all = layout.n_all
        if not n_all:
            return
        k = state.k
        shallow, deep = layout.pair_shallow, layout.pair_deep
        converged = tail_bound < TIE_EPSILON
        stats = layout.batch_stats
        if stats is not None:
            # Refresh-time bracket, no arrays touched: the raw min never
            # exceeds the candidates' min upper, the raw max never
            # undershoots any candidate lower.  ``min_upper ≥ max_lower −
            # eps`` rules out BOTH rules at once — rule (i) because the
            # reference k-th lower is itself ≤ max_lower, rule (ii) because every
            # shallow upper ≥ min_upper ≥ max_lower − eps ≥ deep lower −
            # eps.  Only the convergence tie-break escapes the bracket.
            if (not shallow.size and n_all < k) or (
                (not shallow.size or not converged)
                and stats[0] >= stats[1] - TIE_EPSILON
            ):
                self._stats["clean_checks_fast"] += 1
                return
        self._stats["clean_checks_full"] += 1
        lowers, uppers = self._screen_arrays(layout)
        removed = layout.removed
        min_upper = uppers.min()
        max_lower = lowers.max()
        if min_upper < max_lower - TIE_EPSILON and n_all >= k:
            # Two relaxations keep the greedy replay for when it can
            # matter: ``kth_ref ≤ k-th largest lower ≤ max_lower`` (the
            # zeros standing in for removed rows only loosen them).
            kth_relaxed = (
                max_lower if k == 1 else np.partition(lowers, n_all - k)[n_all - k]
            )
            if min_upper < kth_relaxed - TIE_EPSILON:
                kth_ref = self._reference_kth_lower(layout, k)
                if kth_ref is not None:
                    removed |= layout.uppers < kth_ref - TIE_EPSILON
        if shallow.size:
            raw = layout.uppers
            drop = raw[shallow] < layout.lowers[deep] - TIE_EPSILON
            if converged:
                drop |= np.abs(raw[shallow] - raw[deep]) <= TIE_EPSILON
            drop &= ~(removed[shallow] | removed[deep])
            removed[shallow[drop]] = True
        n_removed = int(np.count_nonzero(removed))
        if n_removed != layout.n_removed:
            layout.n_removed = n_removed
            layout.screen_cache = None

    # ------------------------------------------------------------------
    # Query lifecycle: prepare -> (step / check)* -> finish
    # ------------------------------------------------------------------
    def _prepare_query(
        self, request: "QueryRequest", batch_index: int, cache: _BatchCache
    ) -> QueryState:
        """Build the initial :class:`QueryState` for one query.

        Resolves the seeker, extends the keywords, computes the matching
        components and weight bounds (all shared through *cache*), and
        seeds the proximity border on the seeker.  Queries with no
        matching component are born ``done``.
        """
        started = time.perf_counter()
        seeker_uri = request.seeker
        if seeker_uri not in self.instance.users:
            raise KeyError(f"unknown seeker: {seeker_uri}")
        query_terms, semantic = request.keywords, request.semantic
        key = (query_terms, semantic)

        extensions = cache.extensions.get(key)
        if extensions is None:
            if semantic:
                extensions = extend_query(self.instance, query_terms)
            else:
                extensions = {term: {term} for term in query_terms}
            cache.extensions[key] = extensions
        matching = cache.matching.get(key)
        if matching is None:
            matching = cache.matching[key] = self._matching_components(extensions)

        max_iterations = request.max_iterations
        state = QueryState(
            seeker=seeker_uri,
            keywords=query_terms,
            k=request.k,
            semantic=semantic,
            extensions=extensions,
            extended_keyword_count=sum(len(ext) for ext in extensions.values()),
            matching=matching,
            block_keys=tuple(map(frozenset, extensions.values())),
            hard_cap=(
                max_iterations if max_iterations is not None else DEFAULT_MAX_ITERATIONS
            ),
            time_budget=request.time_budget,
            started=started,
            batch_index=batch_index,
        )
        if matching:
            weight_bounds = cache.weight_bounds.get(key)
            if weight_bounds is None:
                weight_bounds = cache.weight_bounds[key] = (
                    self._keyword_weight_bounds(extensions, matching)
                )
            state.weight_bounds = weight_bounds
            state.weight_key = tuple(weight_bounds)
            state.border = self.prox_index.start_vector(seeker_uri)
            state.accumulated = np.zeros(self.prox_index.size, dtype=np.float64)
            state.accumulated[self.prox_index.node_index(seeker_uri)] = (
                self.score.c_gamma
            )
            state.seen = state.border != 0
        else:
            state.done = True
        return state

    # ------------------------------------------------------------------
    # Stop condition (Algorithm 2)
    # ------------------------------------------------------------------
    def _stop_replay_positions(
        self,
        layout: _BoundsLayout,
        k: int,
        threshold: float,
        converged: bool,
    ) -> bool:
        """True while the greedy top-k assembly is NOT provably final.

        Replays :meth:`_assemble`'s greedy pick in ``(-upper, -depth,
        uri)`` order and checks that the exact-score greedy of
        Definition 3.2 must take the same picks:

        * a candidate skipped for conflicting with a pick must certainly
          rank below its excluder (``upper <= excluder.lower``), or tie
          with it at convergence (then the tie-break keeps the excluder);
        * once the answer is full, the best unpicked, non-conflicting
          candidate must certainly rank below every pick (every later
          candidate has an upper bound no larger, so it certifies them);
        * the unexplored-document threshold must not beat the answer.

        Removed positions are skipped; settled ones sort last and end
        the scan.
        """
        lowers = layout.lowers
        uppers = layout.uppers
        removed = layout.removed if layout.n_removed else None
        order = np.lexsort((layout.uri_rank, -layout.depths, -uppers))
        picked: List[int] = []
        min_top_lower = math.inf
        for position in order.tolist():
            if removed is not None and removed[position]:
                continue
            upper = uppers[position]
            if upper <= 0.0:
                # Descending scan: every remaining upper is ≤ 0 too.
                break
            excluder = layout.excluder(position, picked)
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
            # Fewer answers than requested: stop once no unexplored
            # document can join the answer.
            return threshold > TIE_EPSILON
        return threshold > min_top_lower + TIE_EPSILON

    def _stop_screen(self, layout: _BoundsLayout, threshold: float) -> bool:
        """True when a bracket proves the threshold stop cannot fire.

        Both terminal branches of :meth:`_stop_replay_positions` need the
        threshold at or below some candidate lower (+ eps): the
        under-filled branch needs ``threshold ≤ eps`` (lowers ≥ 0), the
        full branch ``threshold ≤ min_top_lower + eps ≤ max_lower + eps``.
        The refresh-time raw max never undershoots the candidates' max
        lower, so it decides without touching an array; the neutralized
        arrays (:meth:`_screen_arrays`) give the tight maximum.
        """
        if not layout.n_all:
            return threshold > TIE_EPSILON
        stats = layout.batch_stats
        if stats is not None and threshold > stats[1] + TIE_EPSILON:
            return True
        return threshold > self._screen_arrays(layout)[0].max() + TIE_EPSILON

    def _check_stop(self, state: QueryState) -> bool:
        """Algorithm 2's pre-step check; sets ``terminated_by`` / ``done``."""
        if state.done:
            return True
        if self._stop_screen(state.layout, state.threshold):
            # Only the anytime budgets apply this iteration.
            self._stats["stop_checks_fast"] += 1
        else:
            self._stats["stop_checks_full"] += 1
            converged = self.score.tail_bound_at(state.iterations) < TIE_EPSILON
            if not self._stop_replay_positions(
                state.layout, state.k, state.threshold, converged
            ):
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
        self, state: QueryState, cache: _BatchCache, idents: Sequence[int]
    ) -> None:
        """Discovery half of one absorbed step: components + threshold.

        Bumps the iteration counter, folds the newly reached components
        *idents* (this state's ascending slice of the batch-wide scan)
        into the processed set — appending the candidate block of every
        matching one — and refreshes the unexplored-document threshold.
        """
        state.iterations += 1
        for ident in idents:
            if ident in state.processed:
                continue
            state.processed.add(ident)
            if ident in state.matching:
                block = self._component_layout(ident, state, cache)
                if block.n_all:
                    state.layout.append(block)
                    # Every gathered candidate was examined, whether or
                    # not a later clean removes it.
                    state.candidates_examined += block.n_all
                    state.candidate_uris.update(block.uri_terms)
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

    def _assemble(self, layout: _BoundsLayout, k: int) -> List[RankedResult]:
        """Greedy top-k under the vertical-neighbor constraint: the first
        k pairwise non-neighbor candidates in ``(-upper, -depth, uri)``
        order."""
        uppers = layout.uppers
        removed = layout.removed if layout.n_removed else None
        picked: List[int] = []
        for position in np.lexsort(
            (layout.uri_rank, -layout.depths, -uppers)
        ).tolist():
            if uppers[position] <= 0.0 or len(picked) == k:
                break
            if removed is not None and removed[position]:
                continue
            if layout.excluder(position, picked) < 0:
                picked.append(position)
        return [
            RankedResult(
                layout.uri_terms[position],
                float(layout.lowers[position]),
                float(uppers[position]),
            )
            for position in picked
        ]

    def _finish(self, state: QueryState) -> SearchResult:
        """Assemble the top-k answer and timing of a finished query."""
        results = self._assemble(state.layout, state.k)
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
        A batch of one through :meth:`search_many`.
        """
        return self.search_many(
            [(seeker, keywords, k)],
            semantic=semantic,
            max_iterations=max_iterations,
            time_budget=time_budget,
        )[0]

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
        matching, weight bounds and per-component candidate layouts —
        is computed once per distinct keyword set and shared across the
        batch, and identical in-flight queries (same seeker, keywords,
        k and settings — hot queries under heavy traffic) are coalesced
        into a single exploration.  A query that is a
        :class:`~repro.engine.request.QueryRequest` (or a mapping with
        the corresponding keys) executes under its *own* ``semantic`` /
        ``max_iterations`` / ``time_budget``; the batch-level kwargs are
        defaults for queries that do not carry them.  Fully-default
        queries (no explicit budget) are answered from the LRU result
        cache when the same ``(seeker, keywords, semantic, k)`` was
        recently finished; the replayed answer is identical, with only
        the timing fields refreshed.  Results are returned in input
        order; a query's answer does not depend on its batch.
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
            # depend on the budget).
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
                    # A replayed answer spent no exploration time, and
                    # the two timing fields must stay consistent.
                    elapsed = time.perf_counter() - batch_started
                    replayed[key] = replace(
                        cached,
                        batch_index=batch_index,
                        elapsed_seconds=elapsed,
                        wall_time=elapsed,
                    )
                    continue
            unique_states[key] = self._prepare_query(request, batch_index, cache)

        active = [
            state for state in unique_states.values() if not self._check_stop(state)
        ]
        if active:
            # Batch-major state: the borders, accumulated vectors and seen
            # masks of all active queries live as columns of C-contiguous
            # ``(size, n_active)`` matrices — the orientation ``step_many``
            # produces — so the per-iteration accumulate / reach / fresh
            # updates run without a single transposed (strided) pass.
            borders = np.column_stack([state.border for state in active])
            acc_rows = np.ascontiguousarray(
                np.stack([state.accumulated for state in active], axis=1)
            )
            seen_rows = np.ascontiguousarray(
                np.stack([state.seen for state in active], axis=1)
            )
            for row, state in enumerate(active):
                state.border = state.seen = None
                state.accumulated = acc_rows[:, row]
        phase = self._phase_seconds
        while active:
            step_started = time.perf_counter()
            stepped = self.prox_index.step_many(borders)
            stepped /= self.score.gamma
            acc_rows += self.score.c_gamma * stepped
            reached_rows = stepped != 0
            fresh_matrix = reached_rows & ~seen_rows
            seen_rows |= reached_rows
            # One batch-wide scan classifies every newly reached node of
            # every query: encode (row, component) pairs into one integer
            # key, dedupe with a single ``np.unique`` (ascending idents
            # within each row) and hand each state its slice.  The flat
            # scan + ``divmod`` yields the 2-D ``nonzero`` pairs in the
            # same order, several times cheaper at every width.
            stride = self._component_stride
            nodes_f, rows_f = np.divmod(
                np.flatnonzero(fresh_matrix.reshape(-1)), len(active)
            )
            found = self._index_component[nodes_f]
            mask = found >= 0
            if mask.any():
                encoded = np.unique(rows_f[mask] * stride + found[mask])
                disc_idents = encoded % stride
                row_bounds = np.searchsorted(
                    encoded // stride, np.arange(len(active) + 1)
                )
            else:
                row_bounds = None
            discover_started = time.perf_counter()
            for row, state in enumerate(active):
                idents = (
                    disc_idents[row_bounds[row] : row_bounds[row + 1]].tolist()
                    if row_bounds is not None
                    else ()
                )
                self._absorb_discovery(state, cache, idents)
            bounds_started = time.perf_counter()
            # All active states share the same iteration count n — the
            # lock-step invariant — so one tail bound serves the batch.
            tail_bound = self.score.tail_bound_at(active[0].iterations)
            for state in active:
                self._update_bounds(state, tail_bound)
            certify_started = time.perf_counter()
            keep = []
            for row, state in enumerate(active):
                self._clean(state, tail_bound)
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
                continue
            kept = set(keep)
            for row, state in enumerate(active):
                if row not in kept:
                    # Retired columns are never read again; dropping the
                    # view releases the old matrix after compaction.  The
                    # visited-row footprint outlives the seen mask for
                    # the result cache's scoped delta eviction.
                    state.visited_rows = np.flatnonzero(seen_rows[:, row])
                    state.accumulated = None
            active = [active[row] for row in keep]
            if active:
                borders = np.ascontiguousarray(stepped[:, keep])
                acc_rows = np.ascontiguousarray(acc_rows[:, keep])
                seen_rows = np.ascontiguousarray(seen_rows[:, keep])
                for row, state in enumerate(active):
                    state.accumulated = acc_rows[:, row]

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
