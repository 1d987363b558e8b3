"""Flat candidate layouts of the S3k exploration (Section 4).

A query's candidates exist only as *positions* of flat numpy arrays:
:class:`_ComponentLayout` is the seeker-independent block of one
``(component, keyword set)`` pair, :class:`_BoundsLayout` the per-query
concatenation of the blocks gathered so far, owning the score intervals
and the ``removed`` mask every pass of :mod:`repro.core.search` works on.
"""

from __future__ import annotations

from typing import List, Optional, Set, Tuple

import numpy as np

from ..rdf.terms import URI


class _ComponentLayout:
    """Flat bounds-refresh structure of one component's candidates.

    The segment arrays (connection weights, per-keyword / per-candidate
    offsets, deduplicated source slots with their closed-neighborhood
    index runs, vertical-neighbor pairs) depend only on the component and
    the extended keyword set — never on the seeker — so one block is
    built per ``(component, keywords)`` pair, cached in
    :class:`_BatchCache`, and shared by every query state that gathers
    the component.  A query's :class:`_BoundsLayout` is a pure
    concatenation of these blocks with offset shifts.

    Position ``p`` is the ``p``-th candidate of the component, whether or
    not it is *live* (a candidate with an empty connection list for some
    keyword has a constant ``[0, 0]`` interval — the score is a product
    over keywords — and is settled at creation, outside the refresh).
    Source proximity is deduplicated per component: a source's proximity
    is a ``reduceat`` over its own sorted neighborhood run, so the slot
    arrangement cannot change the float results.
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
        "depths",
        "uris",
        "uri_terms",
        "pair_shallow",
        "pair_deep",
    )


class _BoundsLayout:
    """Append-only flat layout of one query's candidate set.

    Grows by whole :class:`_ComponentLayout` blocks as exploration
    discovers matching components (a component is gathered at most once
    per query, so positions ↔ candidates); :meth:`ensure` concatenates
    the block arrays (with offset shifts) only when something was
    appended since the last build.  Positions are stable for the lifetime
    of the query and *are* the candidates: ``lowers`` / ``uppers`` hold
    the score intervals (refreshed once per iteration), ``depths`` /
    ``uri_rank`` the static sort keys of the exact ``(-bound, -depth,
    uri)`` orderings, ``pair_*`` the vertical-neighbor pairs, and
    ``removed`` marks the positions cleaning has dropped.  Removed rows
    keep refreshing (the arrays stay a plain superset image); every pass
    that certifies something skips them or substitutes neutral values.
    """

    __slots__ = (
        "blocks",
        "built_blocks",
        "dirty",
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
        "conn_base",
        "kw_base",
        "depths",
        "uris",
        "uri_terms",
        "uri_rank",
        "pair_shallow",
        "pair_deep",
        "pair_set",
    )

    def __init__(self) -> None:
        self.blocks: List[_ComponentLayout] = []
        self.built_blocks = 0
        self.dirty = False
        self.n_all = 0
        self.n_live = 0
        self.live_pos = np.empty(0, dtype=np.intp)
        self.lowers = np.empty(0, dtype=np.float64)
        self.uppers = np.empty(0, dtype=np.float64)
        self.removed = np.zeros(0, dtype=bool)
        self.n_removed = 0
        self.screen_cache: Optional[Tuple[np.ndarray, np.ndarray]] = None
        #: ``(min raw upper, max raw lower)`` over the live rows of the
        #: last refresh.  Raw means removed rows are included, which only
        #: loosens the bracket — the screens use it for sound one-compare
        #: fast paths.
        self.batch_stats: Optional[Tuple[float, float]] = None
        self.conn_weight = np.empty(0, dtype=np.float64)
        self.conn_src = np.empty(0, dtype=np.intp)
        self.kw_offsets = np.empty(0, dtype=np.intp)
        self.cand_offsets = np.empty(0, dtype=np.intp)
        self.source_concat = np.empty(0, dtype=np.int64)
        self.source_offsets = np.empty(0, dtype=np.intp)
        self.nonempty = np.empty(0, dtype=np.intp)
        self.n_slots = 0
        self.conn_base = 0
        self.kw_base = 0
        self.depths = np.empty(0, dtype=np.intp)
        self.uris = np.empty(0, dtype=np.str_)
        #: position → candidate URI, for the answer and ``candidate_uris``
        self.uri_terms: List[URI] = []
        #: tie-break rank: position → index in the ascending-URI order of
        #: all positions (URIs are unique across components)
        self.uri_rank = np.empty(0, dtype=np.intp)
        self.pair_shallow = np.empty(0, dtype=np.intp)
        self.pair_deep = np.empty(0, dtype=np.intp)
        #: ``(min_pos, max_pos)`` membership view of the pair arrays
        self.pair_set: Set[Tuple[int, int]] = set()

    def append(self, block: _ComponentLayout) -> None:
        """Add one gathered component's block."""
        self.blocks.append(block)
        self.uri_terms.extend(block.uri_terms)
        self.dirty = True

    def excluder(self, position: int, picked: List[int]) -> int:
        """The first of *picked* that is a vertical neighbor of
        *position* (the two can share only one answer slot), or -1."""
        pair_set = self.pair_set
        for pick in picked:
            key = (position, pick) if position < pick else (pick, position)
            if key in pair_set:
                return pick
        return -1

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
            self.depths = block.depths
            self.uris = block.uris
            self.pair_shallow = block.pair_shallow
            self.pair_deep = block.pair_deep
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
        depth_parts: List[np.ndarray] = [self.depths]
        uri_parts: List[np.ndarray] = [self.uris]
        pair_shallow_parts: List[np.ndarray] = [self.pair_shallow]
        pair_deep_parts: List[np.ndarray] = [self.pair_deep]
        cand_base = self.n_all
        conn_base = self.conn_base
        kw_base = self.kw_base
        slot_base = self.n_slots
        source_base = int(self.source_concat.size)
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
            depth_parts.append(block.depths)
            uri_parts.append(block.uris)
            if block.pair_shallow.size:
                pair_shallow_parts.append(block.pair_shallow + cand_base)
                pair_deep_parts.append(block.pair_deep + cand_base)
            cand_base += block.n_all
            conn_base += block.n_conns
            kw_base += block.n_kws
            slot_base += block.n_slots
            source_base += block.source_concat.size
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
        self.depths = np.concatenate(depth_parts)
        self.uris = np.concatenate(uri_parts)
        self.pair_shallow = np.concatenate(pair_shallow_parts)
        self.pair_deep = np.concatenate(pair_deep_parts)
        self._finish_build()

    def _finish_build(self) -> None:
        # Pairs are distinct, so the set's size is the count already
        # registered and the tail of the pair arrays is what is new.
        shallow = self.pair_shallow[len(self.pair_set) :]
        if shallow.size:
            deep = self.pair_deep[len(self.pair_set) :]
            self.pair_set.update(
                zip(
                    np.minimum(shallow, deep).tolist(),
                    np.maximum(shallow, deep).tolist(),
                )
            )
        # Ascending-URI rank across all positions, the static third key of
        # the exact orderings ``(-bound, -depth, uri)``.  numpy unicode
        # comparison is code-point-wise exactly like ``str``.
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
