"""Precomputed per-keyword connection evidence (the ConnectionIndex).

:class:`~repro.core.connections.ComponentConnections` evaluates the
``con(d, k)`` rules of Section 3.2 as a worklist fixpoint *at query time*,
once per (component, extended keyword set).  Under unique-query traffic
that fixpoint dominates the gather phase: every distinct ``(keywords,
semantic)`` pair pays it again even though nothing about it depends on the
seeker.  This module moves the whole computation offline.

**Soundness.**  The propagation rules never mix keywords: every rule's
premise tests membership of a *single* keyword in the extension (contains,
keyword tags) or non-emptiness of an existing connection set
(endorsements, tags-on-tags, comments), and every derivation tree
therefore bottoms out in base facts of exactly one atomic keyword.  Hence
for any extension ``Ext(k) = {a1, .., am}``::

    fixpoint(Ext(k))  ==  fixpoint({a1}) ∪ .. ∪ fixpoint({am})

so evidence precomputed per *atom* (each keyword occurring in a
component's contents or tags) is exact: the query-time ``con(d, k)`` is
the union of the per-atom slices of the atoms in ``Ext(k)``, with zero
fixpoint work.

**Offline build.**  Per component the build is vectorized over the atom
dimension instead of re-running one worklist per keyword:

* *phase 1* computes, for every document node / tag and every atom,
  whether its connection set is non-empty, as a sparse boolean fixpoint
  over scipy CSR adjacency matrices (contains, tag-keyword, tags-on-tags,
  endorsement-subject, tag-subject, ancestor-or-self and comment-membership
  incidence) — a handful of mat-mat products per round, like
  :class:`~repro.core.prox.ProximityIndex`;
* *phase 2* resolves the exact ``(type, src)`` pairs by propagating
  per-source boolean *atom masks* along the (gate-free, linear) source-flow
  edges, using phase 1's final activity for the endorsement gates — valid
  because the fixpoint is a least fixed point, so a rule gated on
  non-emptiness fires iff its gate holds in the final state.

Evidence is stored as flat CSR-style arrays — per (component, atom) a
slice of attachment nodes, per node a slice of interned ``(type, src)``
pairs — plus a per-(node, atom) *coverage* matrix (does the node's subtree
hold evidence?) from which candidate extraction becomes a vectorized
boolean AND/OR instead of a per-tree Python walk.
"""

from __future__ import annotations

import hashlib
import io
import json
import time
from itertools import chain
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple

import numpy as np
from scipy import sparse

from ..rdf.namespaces import S3_COMMENTS_ON, S3_CONTAINS, S3_RELATED_TO
from ..rdf.terms import Literal, Term, URI, coerce_term
from .components import Component, ComponentIndex
from .connections import _SELF
from .instance import S3Instance

#: Interned connection types: evidence pairs store a code, not a URI.
_TYPES: Tuple[URI, ...] = (S3_CONTAINS, S3_RELATED_TO, S3_COMMENTS_ON)
_CONTAINS, _RELATED_TO, _COMMENTS_ON = 0, 1, 2
#: type code -> its place when connections sort by type URI
_TYPE_RANK = np.argsort(np.argsort(np.asarray(_TYPES, dtype=np.str_)))


class StaleIndexError(RuntimeError):
    """A persisted index slab no longer matches the instance it is being
    adopted into.

    Raised on strict adoption (``Engine.from_store(...,
    stale_slabs="error")`` / ``SQLiteStore.load_connection_index(...,
    strict=True)``): the instance content changed after ``python -m
    repro index`` persisted the slabs, so the warm start the operator
    expects is gone.  Re-run ``python -m repro index`` against the
    current instance, or opt into lazy rebuilding with
    ``stale_slabs="rebuild"``.
    """


def _readonly_array(array: np.ndarray) -> np.ndarray:
    """A non-writeable view of *array* (zero-copy).

    Adopted slab arrays may be shm segments or mmap'd sidecar pages that
    every forked worker shares; freezing them on adoption turns an
    accidental in-place write into an immediate ``ValueError`` instead
    of silent cross-shard corruption.
    """
    if array.flags.writeable:
        array = array.view()
        array.flags.writeable = False
    return array


def _run_indices(starts: np.ndarray, lens: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Flat indices of the runs ``[starts[i], starts[i] + lens[i])``
    laid end to end, and the offset at which each run begins."""
    ends = lens.cumsum()
    offsets = ends - lens
    total = int(ends[-1]) if ends.size else 0
    return (starts - offsets).repeat(lens) + np.arange(total), offsets


def _encode_term(term: Term) -> List[str]:
    return ["u" if isinstance(term, URI) else "l", str(term)]


def _decode_term(pair: List[str]) -> Term:
    kind, value = pair
    return URI(value) if kind == "u" else Literal(value)


def _component_fingerprint(instance: S3Instance, component: Component) -> str:
    """Digest of everything the evidence of *component* depends on.

    Covers the document structure (node parents), per-node keyword
    contents, tags (subject / author / keyword) and comment edges — a
    persisted slab is only adopted when this matches, so an index saved
    against different content can never be silently reused.
    """
    digest = hashlib.sha256()
    for uri in sorted(component.nodes):
        node = instance.documents[instance.node_to_document[uri]].node(uri)
        parent = node.parent.uri if node.parent is not None else ""
        digest.update(f"n|{uri}|{parent}".encode())
        for keyword in sorted(_encode_term(coerce_term(k)) for k in set(node.keywords)):
            digest.update(f"k|{keyword}".encode())
        for comment in sorted(instance.comments_on(uri)):
            digest.update(f"c|{uri}|{comment}".encode())
    for tag_uri in sorted(component.tags):
        tag = instance.tags[tag_uri]
        keyword = (
            "|".join(_encode_term(coerce_term(tag.keyword)))
            if tag.keyword is not None
            else ""
        )
        digest.update(f"t|{tag_uri}|{tag.subject}|{tag.author}|{keyword}".encode())
    return digest.hexdigest()


def _bool_csr(
    rows: List[int], cols: List[int], shape: Tuple[int, int]
) -> sparse.csr_matrix:
    """A 0/1 float CSR matrix (floats so that ``@`` counts, then clamps)."""
    matrix = sparse.csr_matrix(
        (np.ones(len(rows), dtype=np.float64), (rows, cols)),
        shape=shape,
        dtype=np.float64,
    )
    matrix.data[:] = 1.0
    return matrix


def _clamp(matrix: sparse.spmatrix) -> sparse.csr_matrix:
    """Clamp a counting matrix back to 0/1 membership."""
    matrix = matrix.tocsr()
    matrix.eliminate_zeros()
    matrix.data[:] = 1.0
    return matrix


def _row_mask(matrix: sparse.csr_matrix, row: int, width: int) -> np.ndarray:
    """Dense boolean mask of one CSR row."""
    mask = np.zeros(width, dtype=bool)
    mask[matrix.indices[matrix.indptr[row] : matrix.indptr[row + 1]]] = True
    return mask


def _merge_mask(bucket: Dict, key, mask: np.ndarray) -> bool:
    """OR *mask* into ``bucket[key]``; True when anything new appeared."""
    current = bucket.get(key)
    if current is None:
        if mask.any():
            bucket[key] = mask.copy()
            return True
        return False
    missing = mask & ~current
    if missing.any():
        current |= missing
        return True
    return False


class _ComponentSlab:
    """Flat per-component evidence arrays (one atom = one CSR slice).

    For atom ``a`` the attachment nodes live in
    ``ev_node[atom_ptr[a]:atom_ptr[a+1]]`` (local node ids, ascending) and
    entry ``e`` holds the interned pair ids ``ev_pair[ev_ptr[e]:ev_ptr[e+1]]``.
    ``coverage[n, a]`` is True when node ``n``'s subtree holds evidence for
    atom ``a``; ``candidate_order`` lists local node ids in the post-order-
    per-sorted-root emission order of
    :func:`~repro.core.connections.covering_candidates`.
    """

    __slots__ = (
        "ident",
        "version",
        "fingerprint",
        "atoms",
        "atom_of",
        "node_uris",
        "node_of",
        "pair_types",
        "pair_sources",
        "atom_ptr",
        "ev_node",
        "ev_ptr",
        "ev_pair",
        "coverage",
        "candidate_order",
        "tag_uris",
        "node_activity",
        "tag_activity",
        "decode",
    )

    def __init__(self) -> None:
        self.ident: int = -1
        self.version: int = -1
        self.fingerprint: str = ""
        self.atoms: List[Term] = []
        self.atom_of: Dict[Term, int] = {}
        self.node_uris: List[URI] = []
        self.node_of: Dict[URI, int] = {}
        self.pair_types: np.ndarray = np.empty(0, dtype=np.int8)
        self.pair_sources: List[URI] = []
        self.atom_ptr: np.ndarray = np.zeros(1, dtype=np.intp)
        self.ev_node: np.ndarray = np.empty(0, dtype=np.int32)
        self.ev_ptr: np.ndarray = np.zeros(1, dtype=np.intp)
        self.ev_pair: np.ndarray = np.empty(0, dtype=np.int32)
        self.coverage: np.ndarray = np.zeros((0, 0), dtype=bool)
        self.candidate_order: np.ndarray = np.empty(0, dtype=np.int32)
        # Warm-start state for delta patching (never persisted; slabs
        # adopted from a store carry none and rebuild cold when touched).
        self.tag_uris: List[URI] = []
        self.node_activity: Optional[sparse.csr_matrix] = None
        self.tag_activity: Optional[sparse.csr_matrix] = None
        #: tree / pair tables of :meth:`ConnectionIndex.keyword_block`,
        #: derived on first decode (never persisted)
        self.decode: Optional[Tuple] = None

    # -- stats ----------------------------------------------------------
    @property
    def n_entries(self) -> int:
        return int(self.ev_node.size)

    @property
    def nbytes(self) -> int:
        arrays = (
            self.pair_types,
            self.atom_ptr,
            self.ev_node,
            self.ev_ptr,
            self.ev_pair,
            self.coverage,
            self.candidate_order,
        )
        strings = sum(len(str(u)) for u in self.node_uris)
        strings += sum(len(str(u)) for u in self.pair_sources)
        strings += sum(len(str(a)) for a in self.atoms)
        return int(sum(a.nbytes for a in arrays)) + strings

    # -- serialization / placement --------------------------------------
    #: numeric arrays that may be placed in shared memory or mmap'd files
    #: (the header strings are decoded per process — they are tiny).
    ARRAY_FIELDS = (
        "pair_types",
        "atom_ptr",
        "ev_node",
        "ev_ptr",
        "ev_pair",
        "coverage",
        "candidate_order",
    )

    def header(self) -> str:
        """The JSON header: identity, fingerprint and interned strings."""
        return json.dumps(
            {
                "ident": self.ident,
                "fingerprint": self.fingerprint,
                "atoms": [_encode_term(a) for a in self.atoms],
                "nodes": [str(u) for u in self.node_uris],
                "pair_sources": [str(u) for u in self.pair_sources],
            }
        )

    def arrays(self) -> Dict[str, np.ndarray]:
        """The numeric evidence arrays (immutable once built)."""
        return {name: getattr(self, name) for name in self.ARRAY_FIELDS}

    def to_payload(self) -> Tuple[str, bytes]:
        """``(header JSON, npz blob)`` — everything needed to reload."""
        buffer = io.BytesIO()
        np.savez_compressed(buffer, **self.arrays())
        return self.header(), buffer.getvalue()

    @classmethod
    def from_arrays(
        cls, header: str, arrays: "Dict[str, np.ndarray]"
    ) -> "_ComponentSlab":
        """Rebuild a slab around externally placed arrays (zero-copy:
        the arrays are adopted as-is, e.g. read-only mmap views)."""
        meta = json.loads(header)
        slab = cls()
        slab.ident = int(meta["ident"])
        slab.fingerprint = meta.get("fingerprint", "")
        slab.atoms = [_decode_term(pair) for pair in meta["atoms"]]
        slab.atom_of = {atom: i for i, atom in enumerate(slab.atoms)}
        slab.node_uris = [URI(u) for u in meta["nodes"]]
        slab.node_of = {u: i for i, u in enumerate(slab.node_uris)}
        slab.pair_sources = [URI(u) for u in meta["pair_sources"]]
        for name in cls.ARRAY_FIELDS:
            setattr(slab, name, _readonly_array(arrays[name]))
        return slab

    @classmethod
    def from_payload(cls, header: str, blob: bytes) -> "_ComponentSlab":
        with np.load(io.BytesIO(blob)) as arrays:
            return cls.from_arrays(header, {k: arrays[k] for k in cls.ARRAY_FIELDS})


class ConnectionIndex:
    """Instance-level precomputed ``con(d, k)`` evidence, built per atom.

    Components build lazily on first touch (or eagerly via
    :meth:`ensure_all`); each slab records the instance version it was
    built against and rebuilds transparently after mutations.  Warm slabs
    can be persisted through
    :meth:`repro.storage.sqlite_store.SQLiteStore.save_connection_index`.
    """

    def __init__(
        self,
        instance: S3Instance,
        component_index: Optional[ComponentIndex] = None,
    ):
        if not instance.is_saturated:
            instance.saturate()
        self._instance = instance
        self.component_index = (
            component_index if component_index is not None else ComponentIndex(instance)
        )
        self._slabs: Dict[int, _ComponentSlab] = {}
        #: cumulative seconds spent building slabs (reported by the CLI)
        self.build_seconds: float = 0.0

    # ------------------------------------------------------------------
    # Slab lifecycle
    # ------------------------------------------------------------------
    def ensure_all(self) -> "ConnectionIndex":
        """Eagerly build every component's slab (the CLI ``index`` path)."""
        for component in self.component_index.components():
            self.slab(component.ident)
        return self

    def invalidate(self) -> None:
        """Drop every built slab (they rebuild lazily on next use)."""
        self._slabs.clear()

    def slab(self, ident: int) -> _ComponentSlab:
        """The (fresh) slab of component *ident*, building if needed."""
        slab = self._slabs.get(ident)
        if slab is None or slab.version != self._instance.version:
            started = time.perf_counter()
            slab = self._build_slab(self.component_index.component(ident))
            self.build_seconds += time.perf_counter() - started
            self._slabs[ident] = slab
        return slab

    def apply_delta(self, touched: Iterable[int]) -> Dict[str, float]:
        """Re-align built slabs after component-local mutations.

        Contract: the caller (the kernel delta path) has already patched
        ``component_index`` in place and certified that only the
        components in *touched* gained base facts.  Touched slabs that
        were already built are rebuilt with a warm fixpoint seed — the
        previous slab's final boolean activity re-seeded alongside the
        new base facts, which converges to the same least fixpoint in a
        round or two and yields bit-identical arrays (the oracle sweep
        asserts this against from-scratch builds).  Every other slab is
        carried forward copy-on-patch: only its version stamp moves,
        its arrays — possibly adopted shm/mmap segments — are never
        written.
        """
        version = self._instance.version
        touched = set(touched)
        patched = 0
        started = time.perf_counter()
        for ident, slab in self._slabs.items():
            if ident not in touched:
                slab.version = version
        for ident in touched:
            old = self._slabs.pop(ident, None)
            if old is None:
                continue  # never built — leave it to the lazy path
            self._slabs[ident] = self._build_slab(
                self.component_index.component(ident), warm=old
            )
            patched += 1
        elapsed = time.perf_counter() - started
        self.build_seconds += elapsed
        return {"components_patched": patched, "patch_seconds": elapsed}

    # -- persistence hooks ---------------------------------------------
    def payloads(self) -> Iterator[Tuple[int, str, bytes]]:
        """Serialized built slabs, for the SQLite store."""
        for ident in sorted(self._slabs):
            header, blob = self._slabs[ident].to_payload()
            yield ident, header, blob

    def adopt_payload(self, header: str, blob: bytes, strict: bool = False) -> bool:
        """Load one persisted slab, verifying it matches this instance.

        A slab whose component shape (node set / atom set) or content
        fingerprint no longer matches is skipped (it will rebuild
        lazily) — or, with *strict*, rejected with a
        :class:`StaleIndexError` naming the mismatch, so a cold start
        that was supposed to be warm cannot pass silently.
        """
        return self._adopt(_ComponentSlab.from_payload(header, blob), strict)

    def adopt_arrays(
        self, header: str, arrays: Dict[str, np.ndarray], strict: bool = False
    ) -> bool:
        """Adopt one slab around externally placed arrays (shm / mmap
        views), under the same shape and fingerprint guards as
        :meth:`adopt_payload` — placement never weakens staleness
        detection."""
        return self._adopt(_ComponentSlab.from_arrays(header, arrays), strict)

    def export_slabs(self, store) -> int:
        """Place every built slab into a
        :class:`~repro.storage.slab_store.SlabStore` (one
        ``component_<ident>`` bundle each, header as meta); returns the
        number placed."""
        count = 0
        for ident in sorted(self._slabs):
            slab = self._slabs[ident]
            store.put(f"component_{ident}", slab.arrays(), meta=slab.header())
            count += 1
        return count

    def adopt_slab_store(self, store, strict: bool = False) -> int:
        """Adopt every ``component_*`` bundle of a slab store (the worker
        side of :meth:`export_slabs`); returns the number adopted."""
        count = 0
        for name in store.names():
            if not name.startswith("component_"):
                continue
            header = store.meta(name)
            if header is None:
                raise StaleIndexError(
                    f"slab bundle {name!r} has no header metadata; it cannot "
                    "be fingerprint-checked and will not be adopted"
                )
            if self.adopt_arrays(header, store.get(name), strict=strict):
                count += 1
        return count

    def _adopt(self, slab: _ComponentSlab, strict: bool) -> bool:
        mismatch: Optional[str] = None
        component: Optional[Component] = None
        if slab.ident >= len(self.component_index):
            mismatch = (
                f"component {slab.ident} does not exist in the current "
                f"partition ({len(self.component_index)} components)"
            )
        else:
            component = self.component_index.component(slab.ident)
            if slab.node_uris != sorted(component.nodes):
                mismatch = f"component {slab.ident}: node set changed"
            elif slab.atoms != sorted(component.keywords):
                mismatch = f"component {slab.ident}: keyword atom set changed"
            elif slab.fingerprint != _component_fingerprint(
                self._instance, component
            ):
                mismatch = (
                    f"component {slab.ident}: content fingerprint mismatch "
                    f"(instance version {self._instance.version})"
                )
        if mismatch is not None:
            if strict:
                raise StaleIndexError(
                    f"persisted ConnectionIndex slab is stale — {mismatch}. "
                    "The instance changed after the index was persisted; "
                    "re-run `python -m repro index`, or load with "
                    "stale_slabs='rebuild' to rebuild lazily."
                )
            return False
        slab.version = self._instance.version
        self._slabs[slab.ident] = slab
        return True

    def stats(self) -> Dict[str, float]:
        """Aggregate size / build-cost counters (CLI + bench reporting)."""
        return {
            "components_built": len(self._slabs),
            "components_total": len(self.component_index),
            "atoms": sum(len(s.atoms) for s in self._slabs.values()),
            "evidence_entries": sum(s.n_entries for s in self._slabs.values()),
            "size_bytes": sum(s.nbytes for s in self._slabs.values()),
            "build_seconds": self.build_seconds,
        }

    # ------------------------------------------------------------------
    # Query-time lookups (no fixpoint work)
    # ------------------------------------------------------------------
    def keyword_evidence(
        self, ident: int, extension: Iterable[Term]
    ) -> Dict[URI, Set[Tuple[URI, URI]]]:
        """``con`` evidence of one query keyword: union of its atom slices.

        Exactly equals ``ComponentConnections._fixpoint(extension)`` (the
        property tests assert this per atom and per union).
        """
        slab = self.slab(ident)
        atom_ids = sorted(
            {slab.atom_of[atom] for atom in extension if atom in slab.atom_of}
        )
        evidence: Dict[URI, Set[Tuple[URI, URI]]] = {}
        node_uris = slab.node_uris
        pair_types = slab.pair_types
        pair_sources = slab.pair_sources
        for atom_id in atom_ids:
            for entry in range(slab.atom_ptr[atom_id], slab.atom_ptr[atom_id + 1]):
                uri = node_uris[slab.ev_node[entry]]
                pairs = evidence.get(uri)
                if pairs is None:
                    pairs = evidence[uri] = set()
                for pair_id in slab.ev_pair[
                    slab.ev_ptr[entry] : slab.ev_ptr[entry + 1]
                ]:
                    pairs.add((_TYPES[pair_types[pair_id]], pair_sources[pair_id]))
        return evidence

    def candidate_documents(
        self, ident: int, extensions: Dict[Term, Set[Term]]
    ) -> List[URI]:
        """Candidates with evidence for every keyword — one boolean gather.

        Per keyword the covered-node mask is an OR over its atoms' coverage
        columns; the candidate set is the AND across keywords, emitted in
        the shared post-order-per-sorted-root order.
        """
        slab = self.slab(ident)
        mask: Optional[np.ndarray] = None
        for extension in extensions.values():
            atom_ids = sorted(
                {slab.atom_of[atom] for atom in extension if atom in slab.atom_of}
            )
            if not atom_ids:
                return []
            covered = slab.coverage[:, atom_ids].any(axis=1)
            mask = covered if mask is None else (mask & covered)
            if not mask.any():
                return []
        if mask is None:
            return []
        order = slab.candidate_order
        selected = order[mask[order]]
        node_uris = slab.node_uris
        return [node_uris[i] for i in selected.tolist()]

    def _decode_tables(self, slab: _ComponentSlab) -> Tuple:
        """Per-slab tables of :meth:`keyword_block`.

        Every evidence row ``(atom, fragment, pair)`` is listed once per
        ancestor-or-self ``d`` of its fragment — the candidates it
        connects — as one integer key ``(place of d, type, fragment,
        source)``.  A node's *place* is its index in the emission order
        (post-order: a subtree is the stretch of places ending at its
        root), so an atom's sorted keys already are its candidates in
        emission order, each with its connections in
        ``resolve_connections`` order.  Sources are component-local ids:
        a node's own id, ids past the nodes for users, ``-1`` for the
        ``_SELF`` placeholder.
        """
        document_of = self._instance.document_of
        node_uris, node_of = slab.node_uris, slab.node_of
        node_at = slab.candidate_order.astype(np.intp)
        n, n_pairs = len(node_uris), max(len(slab.pair_sources), 1)
        place = np.empty(n, dtype=np.intp)
        place[node_at] = np.arange(n, dtype=np.intp)
        #: per node id, the places of the node and its ancestors
        chains = [
            [place[node_of[a.uri]] for a in (node, *node.ancestors())]
            for node in (document_of(uri).node(uri) for uri in node_uris)
        ]
        above = np.fromiter(chain.from_iterable(chains), dtype=np.intp)
        reach = np.fromiter(map(len, chains), dtype=np.intp, count=n)
        first_at = np.arange(n, dtype=np.intp)
        np.minimum.at(first_at, above, np.repeat(place, reach))
        ranked = sorted(
            range(len(slab.pair_sources)),
            key=lambda p: (_TYPE_RANK[slab.pair_types[p]], slab.pair_sources[p]),
        )
        pair_key = _TYPE_RANK[slab.pair_types] * (n * n_pairs)
        pair_key[ranked] += np.arange(len(ranked), dtype=np.intp)
        source_uris = node_uris + [
            source
            for source in dict.fromkeys(slab.pair_sources)
            if source != _SELF and source not in node_of
        ]
        source_of = {uri: i for i, uri in enumerate(source_uris)}
        source_of[_SELF] = -1
        per_entry = np.diff(slab.ev_ptr)
        fragment = np.repeat(slab.ev_node, per_entry).astype(np.intp)
        picked, _ = _run_indices((reach.cumsum() - reach)[fragment], reach[fragment])
        rows = np.repeat(np.arange(fragment.size), reach[fragment])
        key = (
            above[picked] * (len(_TYPES) * n * n_pairs)
            + pair_key[slab.ev_pair][rows]
            + fragment[rows] * n_pairs
        )
        atom = np.repeat(
            np.repeat(np.arange(len(slab.atoms)), np.diff(slab.atom_ptr)), per_entry
        )[rows]
        order = np.lexsort((key, atom))
        slab.decode = (
            np.searchsorted(atom[order], np.arange(len(slab.atoms) + 1)),
            key[order],
            node_at,
            first_at,
            reach - 1,
            np.asarray([source_of[slab.pair_sources[p]] for p in ranked], dtype=np.intp),
            source_uris,
        )
        return slab.decode

    def keyword_block(self, ident: int, extension: Iterable[Term]) -> Tuple:
        """``con(d, k)`` of one query keyword over component *ident*, in
        the array domain — the slab's evidence decoded directly.

        Returns ``(positions, firsts, depths, uri_terms, counts,
        distances, sources, source_uris)``: the covered nodes (the ones
        :meth:`candidate_documents` emits for this keyword alone) as
        ascending places in the emission order, the first place of each
        one's subtree, its depth and URI; then per node *counts*
        connections, flat and sorted exactly like
        :func:`~repro.core.connections.resolve_connections` sorts them
        (type, fragment, source), as structural *distances* and
        component-local source ids into *source_uris*.
        """
        slab = self.slab(ident)
        key_ptr, all_keys, node_at, first_at, depth, rank_source, source_uris = (
            slab.decode or self._decode_tables(slab)
        )
        atom_ids = {slab.atom_of[atom] for atom in extension if atom in slab.atom_of}
        keys = np.concatenate(
            [all_keys[:0]] + [all_keys[key_ptr[a] : key_ptr[a + 1]] for a in atom_ids]
        )
        if len(atom_ids) > 1:
            keys = np.unique(keys)  # con() is a set; one atom's keys are sorted
        n, n_pairs = len(node_at), max(len(rank_source), 1)
        places, rest = np.divmod(keys, len(_TYPES) * n * n_pairs)
        counts = np.bincount(places, minlength=n)
        positions = counts.nonzero()[0].copy()  # not a view pinning its base
        own = node_at[places]
        sources = rank_source[rest % n_pairs]
        return (
            positions,
            first_at[positions],
            depth[node_at[positions]],
            [slab.node_uris[node] for node in node_at[positions].tolist()],
            counts[positions],
            depth[rest // n_pairs % n] - depth[own],
            np.where(sources < 0, own, sources),
            source_uris,
        )

    # ------------------------------------------------------------------
    # Offline build
    # ------------------------------------------------------------------
    @staticmethod
    def _warm_activity_seed(
        warm: _ComponentSlab,
        slab: "_ComponentSlab",
        tag_of: Dict[URI, int],
        n_nodes: int,
        n_tags: int,
        n_atoms: int,
    ) -> Optional[Tuple[sparse.csr_matrix, sparse.csr_matrix]]:
        """The previous final activity remapped into the new slab's axes.

        Valid only when the old node set is unchanged and the old atom /
        tag sets embed in the new ones (exactly the shape of a patchable
        tag or comment-edge delta); anything else means no seed — the
        fixpoint simply starts cold, which is always sound.
        """
        if warm.node_activity is None or warm.tag_activity is None:
            return None
        if warm.node_uris != slab.node_uris:
            return None
        if any(atom not in slab.atom_of for atom in warm.atoms):
            return None
        if any(uri not in tag_of for uri in warm.tag_uris):
            return None
        atom_map = np.asarray(
            [slab.atom_of[atom] for atom in warm.atoms], dtype=np.intp
        )
        tag_map = np.asarray([tag_of[uri] for uri in warm.tag_uris], dtype=np.intp)

        def remap(
            matrix: sparse.csr_matrix,
            row_map: Optional[np.ndarray],
            shape: Tuple[int, int],
        ) -> sparse.csr_matrix:
            coo = matrix.tocoo()
            rows = coo.row if row_map is None else row_map[coo.row]
            cols = atom_map[coo.col]
            return _bool_csr(rows, cols, shape)

        node_seed = remap(warm.node_activity, None, (n_nodes, n_atoms))
        tag_seed = remap(warm.tag_activity, tag_map, (n_tags, n_atoms))
        return node_seed, tag_seed

    def _build_slab(
        self, component: Component, warm: Optional[_ComponentSlab] = None
    ) -> _ComponentSlab:
        instance = self._instance
        slab = _ComponentSlab()
        slab.ident = component.ident
        slab.version = instance.version
        slab.fingerprint = _component_fingerprint(instance, component)
        slab.node_uris = sorted(component.nodes)
        slab.node_of = {uri: i for i, uri in enumerate(slab.node_uris)}
        slab.atoms = sorted(component.keywords)
        slab.atom_of = {atom: i for i, atom in enumerate(slab.atoms)}
        tag_uris = sorted(component.tags)
        tag_of = {uri: j for j, uri in enumerate(tag_uris)}
        n_nodes, n_tags, n_atoms = len(slab.node_uris), len(tag_uris), len(slab.atoms)
        node_of, atom_of = slab.node_of, slab.atom_of

        # -- incidence matrices (all 0/1 CSR) ---------------------------
        c_rows: List[int] = []  # node contains atom
        c_cols: List[int] = []
        a_rows: List[int] = []  # ancestor-or-self
        a_cols: List[int] = []
        order: List[int] = []  # post-order per sorted root
        for root in sorted(component.roots):
            document = instance.documents[root]
            for node in document.nodes():
                node_id = node_of[node.uri]
                for keyword in set(node.keywords):
                    c_rows.append(node_id)
                    c_cols.append(atom_of[coerce_term(keyword)])
                current = node
                while current is not None:
                    a_rows.append(node_of[current.uri])
                    a_cols.append(node_id)
                    current = current.parent
            stack = [(document.root, False)]
            while stack:
                node, expanded = stack.pop()
                if expanded:
                    order.append(node_of[node.uri])
                    continue
                stack.append((node, True))
                for child in reversed(node.children):
                    stack.append((child, False))
        slab.candidate_order = np.asarray(order, dtype=np.int32)

        tk_rows: List[int] = []  # tag has keyword atom
        tk_cols: List[int] = []
        ftt_rows: List[int] = []  # tag <- tag-on-it source flow
        ftt_cols: List[int] = []
        end_nd_rows: List[int] = []  # keyword-less tag gated on node subtree
        end_nd_cols: List[int] = []
        end_tg_rows: List[int] = []  # keyword-less tag gated on subject tag
        end_tg_cols: List[int] = []
        dep_rows: List[int] = []  # node <- tag relatedTo deposit
        dep_cols: List[int] = []
        tag_feeders: List[List[int]] = [[] for _ in range(n_tags)]
        tag_deposits: List[Tuple[int, int]] = []
        for j, tag_uri in enumerate(tag_uris):
            tag = instance.tags[tag_uri]
            if tag.keyword is not None:
                tk_rows.append(j)
                tk_cols.append(atom_of[coerce_term(tag.keyword)])
            subject_node = node_of.get(tag.subject)
            subject_tag = tag_of.get(tag.subject)
            if tag.keyword is None:
                if subject_node is not None:
                    end_nd_rows.append(j)
                    end_nd_cols.append(subject_node)
                elif subject_tag is not None:
                    end_tg_rows.append(j)
                    end_tg_cols.append(subject_tag)
            if subject_tag is not None:
                ftt_rows.append(subject_tag)
                ftt_cols.append(j)
                tag_feeders[subject_tag].append(j)
            if subject_node is not None:
                dep_rows.append(subject_node)
                dep_cols.append(j)
                tag_deposits.append((subject_node, j))

        cm_rows: List[int] = []  # commented node <- comment-doc member
        cm_cols: List[int] = []
        comment_flows: List[Tuple[int, URI, List[int]]] = []
        for uri in slab.node_uris:
            comments = instance.comments_on(uri)
            if not comments:
                continue
            node_id = node_of[uri]
            for comment in comments:
                if comment not in instance.documents:
                    continue
                members = [
                    node_of[n.uri]
                    for n in instance.documents[comment].nodes()
                    if n.uri in node_of
                ]
                comment_flows.append((node_id, comment, members))
                for member in members:
                    cm_rows.append(node_id)
                    cm_cols.append(member)

        contains = _bool_csr(c_rows, c_cols, (n_nodes, n_atoms))
        ancestors = _bool_csr(a_rows, a_cols, (n_nodes, n_nodes))
        tag_kw = _bool_csr(tk_rows, tk_cols, (n_tags, n_atoms))
        flow_tt = _bool_csr(ftt_rows, ftt_cols, (n_tags, n_tags))
        endorse_nd = _bool_csr(end_nd_rows, end_nd_cols, (n_tags, n_nodes))
        endorse_tg = _bool_csr(end_tg_rows, end_tg_cols, (n_tags, n_tags))
        deposits = _bool_csr(dep_rows, dep_cols, (n_nodes, n_tags))
        comment_members = _bool_csr(cm_rows, cm_cols, (n_nodes, n_nodes))

        # -- phase 1: non-emptiness fixpoint, vectorized over atoms -----
        # A warm seed unions the previous slab's final activity with the
        # new base facts.  The rules are monotone and the seed is bounded
        # by the new least fixpoint, so the loop converges to exactly the
        # same activity sets (hence bit-identical canonical CSR) as a
        # cold start — just in fewer rounds.
        node_any = contains.copy()
        tag_any = tag_kw.copy()
        if warm is not None:
            seed = self._warm_activity_seed(
                warm, slab, tag_of, n_nodes, n_tags, n_atoms
            )
            if seed is not None:
                node_any = _clamp(node_any + seed[0])
                tag_any = _clamp(tag_any + seed[1])
        while True:
            subtree_any = _clamp(ancestors @ node_any)
            tag_next = _clamp(
                tag_kw
                + endorse_nd @ subtree_any
                + endorse_tg @ tag_any
                + flow_tt @ tag_any
            )
            node_next = _clamp(
                contains + deposits @ tag_next + comment_members @ node_any
            )
            if tag_next.nnz == tag_any.nnz and node_next.nnz == node_any.nnz:
                break
            tag_any, node_any = tag_next, node_next
        subtree_any = _clamp(ancestors @ node_any)
        slab.tag_uris = tag_uris
        slab.node_activity = node_any
        slab.tag_activity = tag_any

        # -- phase 2: exact (type, src) pairs with per-atom masks --------
        # Endorsement gates are now static (final activity), so the source
        # flow is purely linear: author injections at tags, _SELF at
        # contains nodes, then tags-on-tags / subject / comment edges.
        tag_inject: List[Optional[Tuple[URI, np.ndarray]]] = [None] * n_tags
        for j, tag_uri in enumerate(tag_uris):
            tag = instance.tags[tag_uri]
            if tag.keyword is not None:
                mask = _row_mask(tag_kw, j, n_atoms)
            else:
                subject_node = node_of.get(tag.subject)
                subject_tag = tag_of.get(tag.subject)
                if subject_node is not None:
                    mask = _row_mask(subtree_any, subject_node, n_atoms)
                elif subject_tag is not None:
                    mask = _row_mask(tag_any, subject_tag, n_atoms)
                else:
                    mask = np.zeros(n_atoms, dtype=bool)
            if mask.any():
                tag_inject[j] = (tag.author, mask)

        tag_src: List[Dict[URI, np.ndarray]] = [dict() for _ in range(n_tags)]
        node_pairs: List[Dict[Tuple[int, URI], np.ndarray]] = [
            dict() for _ in range(n_nodes)
        ]
        for i in range(n_nodes):
            mask = _row_mask(contains, i, n_atoms)
            if mask.any():
                node_pairs[i][(_CONTAINS, _SELF)] = mask

        changed = True
        while changed:
            changed = False
            for j in range(n_tags):
                bucket = tag_src[j]
                inject = tag_inject[j]
                if inject is not None and _merge_mask(bucket, inject[0], inject[1]):
                    changed = True
                for feeder in tag_feeders[j]:
                    for src, mask in list(tag_src[feeder].items()):
                        if _merge_mask(bucket, src, mask):
                            changed = True
            for node_id, j in tag_deposits:
                bucket = node_pairs[node_id]
                for src, mask in list(tag_src[j].items()):
                    if _merge_mask(bucket, (_RELATED_TO, src), mask):
                        changed = True
            for node_id, comment_root, members in comment_flows:
                bucket = node_pairs[node_id]
                for member in members:
                    for (_tcode, src), mask in list(node_pairs[member].items()):
                        resolved = comment_root if src == _SELF else src
                        if _merge_mask(bucket, (_COMMENTS_ON, resolved), mask):
                            changed = True

        # -- assemble flat CSR arrays -----------------------------------
        pair_of: Dict[Tuple[int, URI], int] = {}
        pair_types: List[int] = []
        pair_sources: List[URI] = []
        per_atom: List[List[Tuple[int, int]]] = [[] for _ in range(n_atoms)]
        has_evidence = np.zeros((n_nodes, n_atoms), dtype=bool)
        for i in range(n_nodes):
            for key, mask in sorted(node_pairs[i].items()):
                pair_id = pair_of.get(key)
                if pair_id is None:
                    pair_id = pair_of[key] = len(pair_types)
                    pair_types.append(key[0])
                    pair_sources.append(key[1])
                has_evidence[i] |= mask
                for atom_id in np.flatnonzero(mask).tolist():
                    per_atom[atom_id].append((i, pair_id))
        slab.pair_types = np.asarray(pair_types, dtype=np.int8)
        slab.pair_sources = pair_sources

        ev_node: List[int] = []
        ev_ptr: List[int] = [0]
        ev_pair: List[int] = []
        atom_ptr: List[int] = [0]
        for atom_id in range(n_atoms):
            entries = sorted(per_atom[atom_id])
            position = 0
            while position < len(entries):
                node_id = entries[position][0]
                ev_node.append(node_id)
                while position < len(entries) and entries[position][0] == node_id:
                    ev_pair.append(entries[position][1])
                    position += 1
                ev_ptr.append(len(ev_pair))
            atom_ptr.append(len(ev_node))
        slab.atom_ptr = np.asarray(atom_ptr, dtype=np.intp)
        slab.ev_node = np.asarray(ev_node, dtype=np.int32)
        slab.ev_ptr = np.asarray(ev_ptr, dtype=np.intp)
        slab.ev_pair = np.asarray(ev_pair, dtype=np.int32)

        # Coverage: a node covers an atom when its subtree holds evidence.
        if n_nodes:
            slab.coverage = (
                ancestors @ has_evidence.astype(np.float64)
            ) > 0.0
        else:
            slab.coverage = np.zeros((0, n_atoms), dtype=bool)
        return slab

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        stats = self.stats()
        return (
            f"ConnectionIndex(components={stats['components_built']}/"
            f"{stats['components_total']}, entries={stats['evidence_entries']})"
        )
