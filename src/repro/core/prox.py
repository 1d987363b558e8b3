"""The proximity engine: normalized transition structure over ``I``.

Implements the optimization of Section 5.2: instead of materializing
``borderPath`` (the set of all length-n paths), the engine keeps, for each
explored vertex, the *weighted sum* over all paths of length n from the
seeker — ``borderProx`` — and steps it with a sparse matrix-vector
product.  The matrix ``distance`` (paper's name) encodes the network edges
*after* path normalization and vertical-neighborhood traversal:

    ``T[v, m] = Σ_{e=(v'→m), v' ∈ neigh*(v)} e.w / W(v)``

where ``neigh*(v)`` is the closed vertical neighborhood of ``v`` and
``W(v)`` the total weight of the network edges leaving it.  A path "at"
``v`` (having entered the neighborhood through ``v``) moves to ``m`` with
probability-like mass ``T[v, m]``; rows sum to 1 (or 0 for sinks), which
yields the attenuation bounds of the concrete score.

Both a vectorized mode (scipy CSR, the paper's RAM-resident sparse
matrices) and a naive dict-of-dicts mode (for the ablation benchmark and as
an oracle in tests) are provided.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import defaultdict
from itertools import chain
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np
from scipy import sparse

from ..rdf.namespaces import NETWORK_EDGE_PROPERTIES
from ..rdf.terms import URI
from .instance import S3Instance


class ProximityIndex:
    """Normalized transition structure with dense-vector stepping."""

    def __init__(self, instance: S3Instance, use_matrix: bool = True):
        self._instance = instance
        self.use_matrix = use_matrix
        self._nodes: List[URI] = sorted(instance.network_nodes())
        self._index: Dict[URI, int] = {uri: i for i, uri in enumerate(self._nodes)}
        self._neigh_cache: Dict[URI, np.ndarray] = {}
        self._census = self._universe_census()
        self._build_transition()

    # ------------------------------------------------------------------
    @property
    def size(self) -> int:
        """Number of nodes in the social-path universe."""
        return len(self._nodes)

    def node_index(self, uri: URI) -> int:
        """Dense index of *uri*; raises ``KeyError`` when unknown."""
        return self._index[uri]

    def node_index_of(self, uri: URI) -> Optional[int]:
        """Dense index of *uri*, or ``None`` when not in the universe."""
        return self._index.get(uri)

    def node_uri(self, index: int) -> URI:
        return self._nodes[index]

    # ------------------------------------------------------------------
    def _universe_census(self) -> int:
        """Summed sizes of the three collections the universe is the
        union of — an O(1) fingerprint :meth:`apply_delta` checks its
        delta-sized view of the universe against."""
        instance = self._instance
        return (
            len(instance.users)
            + len(instance.node_to_document)
            + len(instance.tags)
        )

    def _out_edges_by_node(self) -> Dict[URI, List[Tuple[int, float]]]:
        """Raw network out-edges, subject → [(target index, weight)]."""
        edges: Dict[URI, List[Tuple[int, float]]] = defaultdict(list)
        for uri in self._nodes:
            for target, weight, _pred in self._instance.network_out_edges(uri):
                target_index = self._index.get(target)
                if target_index is not None and weight > 0.0:
                    edges[uri].append((target_index, weight))
        return edges

    def _merged_row(
        self, uri: URI, own_edges: Dict[URI, List[Tuple[int, float]]]
    ) -> Dict[int, float]:
        """One normalized transition row — shared by full builds and
        delta patches so both produce bit-identical float sequences."""
        merged: Dict[int, float] = defaultdict(float)
        for member in self._instance.vertical_neighborhood(uri):
            for target_index, weight in own_edges.get(member, ()):
                merged[target_index] += weight
        total = sum(merged.values())
        if total <= 0.0:
            return {}
        return {
            target_index: weight / total for target_index, weight in merged.items()
        }

    @staticmethod
    def _entry_keys(
        sources: Sequence[int], rows: Sequence[Dict[int, float]], n: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Rows of ``T`` as sorted entries of the transposed CSR.

        Entry ``T[v, m]`` sits at row ``m``, column ``v`` of the stepping
        matrix, so its place in the canonical (row-major, sorted-column)
        order is the scalar key ``m * n + v``.  Returns the ascending keys
        and their values."""
        lengths = np.fromiter(map(len, rows), dtype=np.int64, count=len(rows))
        total = int(lengths.sum())
        columns = np.repeat(np.asarray(sources, dtype=np.int64), lengths)
        targets = np.fromiter(
            chain.from_iterable(rows), dtype=np.int64, count=total
        )
        data = np.fromiter(
            chain.from_iterable(row.values() for row in rows),
            dtype=np.float64,
            count=total,
        )
        keys = targets * n + columns
        order = np.argsort(keys)
        return keys[order], data[order]

    def _set_transition(self, keys: np.ndarray, data: np.ndarray) -> None:
        """Install the stepping matrix whose sorted entry keys are *keys*
        — always freshly allocated arrays, never a write into the
        previous (possibly adopted, read-only) ones."""
        n = len(self._nodes)
        # scipy's own rule: 32-bit indices whenever shape and nnz fit.
        fits = max(n, keys.size) <= np.iinfo(np.int32).max
        idx_dtype = np.int32 if fits else np.int64
        self.adopt_transition(
            {
                "data": data,
                "indices": (keys % n).astype(idx_dtype),
                "indptr": np.searchsorted(
                    keys, np.arange(n + 1, dtype=np.int64) * n
                ).astype(idx_dtype),
            }
        )

    def _build_transition(self) -> None:
        own_edges = self._out_edges_by_node()
        rows = [self._merged_row(uri, own_edges) for uri in self._nodes]
        if self.use_matrix:
            n = len(rows)
            self._set_transition(*self._entry_keys(range(n), rows, n))
        else:
            self._rows = rows

    # ------------------------------------------------------------------
    # Transition placement (SlabStore hooks)
    # ------------------------------------------------------------------
    def transition_arrays(self) -> Optional[Dict[str, np.ndarray]]:
        """The transposed-transition CSR arrays, for placement in a
        :class:`~repro.storage.slab_store.SlabStore` (``None`` in naive
        row-dict mode — there is no matrix to place)."""
        if not self.use_matrix:
            return None
        matrix = self._transition_t
        return {
            "data": matrix.data,
            "indices": matrix.indices,
            "indptr": matrix.indptr,
        }

    def adopt_transition(self, arrays: Dict[str, np.ndarray]) -> None:
        """Rebuild the stepping matrix around externally placed CSR
        arrays (read-only shm / mmap views) — zero-copy: stepping is
        pure ``T^T @ border`` reads, so shared pages are never written.
        """
        n = len(self._nodes)
        matrix = sparse.csr_matrix(
            (arrays["data"], arrays["indices"], arrays["indptr"]),
            shape=(n, n),
            copy=False,
        )
        # The arrays are a sorted canonical CSR; recording that here
        # keeps scipy from ever trying to (re)sort — which would write
        # into read-only shared buffers.
        matrix.has_sorted_indices = True
        matrix.has_canonical_format = True
        #: transposed transition, so that ``next = T^T @ border`` is a
        #: single CSR mat-vec.
        self._transition_t = matrix

    # ------------------------------------------------------------------
    # Delta patching (incremental maintenance)
    # ------------------------------------------------------------------
    def apply_delta(
        self, edge_sources: Iterable[URI]
    ) -> Tuple[Optional[np.ndarray], np.ndarray]:
        """Patch the transition after new nodes / network edges appeared.

        *edge_sources* are the subjects of the new (or re-weighted)
        network-edge triples.  Because the vertical-neighbor relation is
        symmetric, the rows whose merged out-edges can change are exactly
        the closed vertical neighborhoods of those sources — every such
        row (plus every row of a node new to the universe) is recomputed
        with :meth:`_merged_row` and spliced into the stepping matrix in
        the array domain (see :meth:`_splice_rows`).  Interpreter work is
        proportional to the touched neighborhoods, not to the graph: the
        universe is only inspected at the endpoints of the new edges.
        Returns ``(old_to_new, affected_rows)``: the old→new dense index
        map when the universe grew (``None`` when indices are unchanged)
        and the sorted new dense indices of every recomputed row — a
        query whose exploration never touched one of those rows steps
        bit-identically before and after the patch.

        The caller must ensure the mutation only *added* universe nodes,
        each an endpoint of one of the new edges; a universe that changed
        any other way raises ``ValueError`` before anything is patched
        (fall back to a full rebuild).
        """
        instance = self._instance
        sources: Set[URI] = set(edge_sources)
        out_edges: Dict[URI, List[Tuple[URI, float]]] = {}

        def edges_of(member: URI) -> List[Tuple[URI, float]]:
            edges = out_edges.get(member)
            if edges is None:
                edges = out_edges[member] = [
                    (target, weight)
                    for target, weight, _pred in instance.network_out_edges(member)
                ]
            return edges

        def collections_holding(uri: URI) -> int:
            return (
                instance.is_user(uri)
                + instance.is_document_node(uri)
                + instance.is_tag(uri)
            )

        endpoints = set(sources)
        for source in sources:
            endpoints.update(target for target, _weight in edges_of(source))
        added = sorted(
            uri
            for uri in endpoints
            if uri not in self._index and collections_holding(uri)
        )
        census = self._universe_census()
        if census != self._census + sum(map(collections_holding, added)):
            raise ValueError(
                "network universe changed beyond the endpoints of the new "
                "edges; the proximity index cannot be patched incrementally"
            )
        self._census = census

        old_to_new: Optional[np.ndarray] = None
        if added:
            # Inserting into a sorted list is a monotone re-indexing:
            # old index i moves up by the number of insertion points <= i.
            points = [bisect_left(self._nodes, uri) for uri in added]
            old_to_new = np.arange(len(self._nodes), dtype=np.int64)
            old_to_new += np.searchsorted(points, old_to_new, side="right")
            for shift, (point, uri) in enumerate(zip(points, added)):
                self._nodes.insert(point + shift, uri)
            self._index.update(
                zip(self._nodes[points[0] :], range(points[0], len(self._nodes)))
            )
            # Neighborhood membership is unchanged by node additions
            # (documents are untouched), only dense indices shifted.
            self._neigh_cache = {
                uri: old_to_new[cached]
                for uri, cached in self._neigh_cache.items()
            }

        # A node new to the universe also un-filters any pre-existing
        # network edge pointing at it: the edge's subject rows change too.
        for uri in added:
            for wt in instance.graph.triples(obj=uri):
                if wt.predicate in NETWORK_EDGE_PROPERTIES:
                    sources.add(wt.subject)
        affected: Set[URI] = set(added)
        for source in sources:
            if source not in self._index:
                continue
            affected.update(
                member
                for member in instance.vertical_neighborhood(source)
                if member in self._index
            )
        needed: Set[URI] = set()
        for uri in affected:
            needed.update(instance.vertical_neighborhood(uri))
        own_edges: Dict[URI, List[Tuple[int, float]]] = {}
        for member in needed:
            entries = [
                (self._index[target], weight)
                for target, weight in edges_of(member)
                if weight > 0.0 and target in self._index
            ]
            if entries:
                own_edges[member] = entries
        # ``_nodes`` is sorted, so URI order is dense-index order.
        recomputed = sorted(affected)
        affected_rows = np.fromiter(
            (self._index[uri] for uri in recomputed),
            dtype=np.int64,
            count=len(recomputed),
        )
        rows = [self._merged_row(uri, own_edges) for uri in recomputed]
        if self.use_matrix:
            self._splice_rows(old_to_new, affected_rows, rows)
        else:
            if old_to_new is not None:
                grown: List[Dict[int, float]] = [dict() for _ in self._nodes]
                for v, row in enumerate(self._rows):
                    grown[int(old_to_new[v])] = {
                        int(old_to_new[t]): w for t, w in row.items()
                    }
                self._rows = grown
            for v, row in zip(affected_rows.tolist(), rows):
                self._rows[v] = row
        return old_to_new, affected_rows

    def _splice_rows(
        self,
        old_to_new: Optional[np.ndarray],
        affected_rows: np.ndarray,
        rows: Sequence[Dict[int, float]],
    ) -> None:
        """Replace rows *affected_rows* of ``T`` inside the transposed CSR.

        Works on the sorted entry keys of :meth:`_entry_keys`: the old
        entries are re-indexed with one gather (*old_to_new* is monotone,
        so they stay sorted), the stale rows' entries are masked out and
        the recomputed ones inserted at their ``searchsorted`` places.
        The canonical CSR of a given entry set is unique, so the result
        equals a from-scratch build byte for byte.  Every step allocates;
        the previous arrays are only read.
        """
        if affected_rows.size == 0:
            return
        old = self._transition_t
        n = len(self._nodes)
        targets = np.repeat(
            np.arange(old.shape[0], dtype=np.int64), np.diff(old.indptr)
        )
        columns = old.indices
        if old_to_new is not None:
            targets, columns = old_to_new[targets], old_to_new[columns]
        stale = np.zeros(n, dtype=bool)
        stale[affected_rows] = True
        keep = ~stale[columns]
        kept_keys = targets[keep] * n + columns[keep]
        new_keys, new_data = self._entry_keys(affected_rows, rows, n)
        places = np.searchsorted(kept_keys, new_keys)
        self._set_transition(
            np.insert(kept_keys, places, new_keys),
            np.insert(old.data[keep], places, new_data),
        )

    # ------------------------------------------------------------------
    # Border propagation
    # ------------------------------------------------------------------
    def start_vector(self, seeker: URI) -> np.ndarray:
        """``δ_u``: unit mass on the seeker."""
        border = np.zeros(self.size, dtype=np.float64)
        border[self._index[seeker]] = 1.0
        return border

    def step(self, border: np.ndarray) -> np.ndarray:
        """One exploration step: mass of paths one edge longer."""
        if self.use_matrix:
            return self._transition_t @ border
        return self._step_naive(border)

    def step_many(self, borders: np.ndarray) -> np.ndarray:
        """Advance many borders at once with a single mat-mat product.

        *borders* is a ``(size, n_queries)`` array holding one exploration
        border per column; the result has the same shape and each column
        equals ``step(borders[:, j])`` bit for bit — scipy's CSR mat-mat
        accumulates every output column in the same element order as the
        corresponding mat-vec, so batched execution stays exactly
        reproducible against sequential runs.
        """
        if borders.ndim != 2 or borders.shape[0] != self.size:
            raise ValueError(
                f"expected a ({self.size}, n) border matrix, "
                f"got shape {borders.shape!r}"
            )
        if borders.shape[1] == 0:
            return borders.copy()
        if self.use_matrix:
            return self._transition_t @ borders
        return np.column_stack(
            [self._step_naive(borders[:, j]) for j in range(borders.shape[1])]
        )

    def _step_naive(self, border: np.ndarray) -> np.ndarray:
        """Pure-Python propagation (ablation / oracle)."""
        result = np.zeros_like(border)
        for v in np.nonzero(border)[0]:
            mass = border[v]
            for target_index, weight in self._rows[v].items():
                result[target_index] += mass * weight
        return result

    def transition_row(self, uri: URI) -> Dict[int, float]:
        """Normalized out-transitions of *uri* (over its neighborhood)."""
        v = self._index[uri]
        if not self.use_matrix:
            return dict(self._rows[v])
        # Row v of T is column v of the transposed stepping matrix.
        matrix = self._transition_t
        entries = np.flatnonzero(matrix.indices == v)
        targets = np.searchsorted(matrix.indptr, entries, side="right") - 1
        return dict(zip(targets.tolist(), matrix.data[entries].tolist()))

    # ------------------------------------------------------------------
    # Source proximity
    # ------------------------------------------------------------------
    def closed_neighborhood_indices(self, uri: URI) -> np.ndarray:
        """Dense indexes of *uri* and its vertical neighbors.

        A path reaches a source when it ends at the source or at one of
        its vertical neighbors, so the proximity *to* a source sums the
        accumulated mass over this closed neighborhood.
        """
        cached = self._neigh_cache.get(uri)
        if cached is None:
            members = self._instance.vertical_neighborhood(uri)
            cached = np.fromiter(
                (self._index[m] for m in sorted(members) if m in self._index),
                dtype=np.int64,
            )
            self._neigh_cache[uri] = cached
        return cached

    def source_proximity(self, accumulated: np.ndarray, source: URI) -> float:
        """``prox≤n(u, source)`` from the accumulated per-node proximities."""
        indices = self.closed_neighborhood_indices(source)
        if indices.size == 0:
            return 0.0
        return float(accumulated[indices].sum())
