"""Flat candidate layouts of the S3k exploration (Section 4).

A query's candidates exist only as *positions* of flat numpy arrays.
:class:`_KeywordBlock` is the cached, seeker-independent unit: the
candidates of one ``(component, keyword extension)`` pair with their
sorted connection weights and source slots.  :class:`_ComponentLayout` is
what a query gathers per matching component — the block itself for one
keyword, :func:`compose_layout` of its keywords' blocks otherwise — and
:class:`_BoundsLayout` the per-query concatenation of the layouts
gathered so far, owning the score intervals and the ``removed`` mask
every pass of :mod:`repro.core.search` works on.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..rdf.terms import URI
from .connection_index import _run_indices


class _ComponentLayout:
    """Flat bounds-refresh structure of one component's candidates.

    The segment arrays (connection weights, per-keyword / per-candidate
    offsets, deduplicated source slots with their closed-neighborhood
    index runs, vertical-neighbor pairs) depend only on the component and
    the extended keywords — never on the seeker.  A query's
    :class:`_BoundsLayout` is a pure concatenation of these layouts with
    offset shifts.

    Position ``p`` is the ``p``-th candidate of the component; every
    candidate has a connection for every keyword (coverage is what makes
    it one), so every position takes part in the bounds refresh.  Source
    proximity is deduplicated per layout: a source's proximity is a
    ``reduceat`` over its own sorted neighborhood run, so the slot
    arrangement cannot change the float results.
    """

    __slots__ = (
        "n_all",
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


#: The pair arrays of every block without vertical neighbors (most).
_NO_PAIRS = np.empty(0, dtype=np.intp)
_NO_PAIRS.flags.writeable = False


class _KeywordBlock(_ComponentLayout):
    """The candidates of one ``(component, keyword extension)`` pair.

    Already a complete single-keyword layout (one connection run per
    candidate), so an ``l = 1`` query gathers it as is; *positions*, the
    candidates' ascending places in the component's emission order, is
    what composition intersects.  The dense index runs live in the
    table's pooled :class:`~repro.core.caches._IndexArena` — a block
    only remembers its range, so a universe growth re-indexes every
    block with one gather.
    """

    __slots__ = ("positions", "arena", "run_start", "run_stop")

    @property
    def source_concat(self) -> np.ndarray:  # type: ignore[override]
        return self.arena.runs[self.run_start : self.run_stop]


def build_block(
    raw: Tuple,
    structural_weight: Callable[[int], float],
    neighborhood: Callable[[URI], np.ndarray],
    arena,
) -> _KeywordBlock:
    """A :class:`_KeywordBlock` from one ``keyword_block`` decode *raw*
    (see :meth:`ConnectionIndex.keyword_block`); *structural_weight* is
    the score's ``η^distance`` hook, *neighborhood* maps a source URI to
    its dense closed-neighborhood indices, pooled in *arena*."""
    positions, firsts, depths, uri_terms, counts, distances, sources, source_uris = raw
    block = _KeywordBlock()
    n = block.n_all = block.n_kws = len(uri_terms)
    block.positions = positions
    places = block.cand_offsets = np.arange(n, dtype=np.intp)
    block.depths = depths
    block.uri_terms = uri_terms
    # Unicode copies of the candidate URIs: numpy compares code points
    # exactly like ``str``, so the URI tiebreak rank comes from one C
    # argsort instead of a Python sort per growth.
    block.uris = np.asarray(uri_terms, dtype=np.str_)
    # Vertical-neighbor pairs: emission is post-order, so the candidates
    # inside a candidate's subtree are the ones right before it, back to
    # the subtree's first place.
    inside = places - positions.searchsorted(firsts)
    if inside.any():
        block.pair_deep, _ = _run_indices(places - inside, inside)
        block.pair_shallow = places.repeat(inside)
    else:
        block.pair_deep = block.pair_shallow = _NO_PAIRS
    # The scalar hook's own floats, looked up by distance.
    reach = int(distances.max()) + 1 if distances.size else 0
    block.conn_weight = np.asarray(
        [structural_weight(distance) for distance in range(reach)], dtype=np.float64
    )[distances]
    block.n_conns = int(distances.size)
    block.kw_offsets = counts.cumsum() - counts
    # Slots: the distinct sources, in id order.
    used = np.zeros(len(source_uris), dtype=bool)
    used[sources] = True
    block.conn_src = (used.cumsum() - 1)[sources]
    runs = [neighborhood(source_uris[s]) for s in used.nonzero()[0].tolist()]
    block.n_slots = len(runs)
    lens = np.fromiter(map(len, runs), dtype=np.intp, count=len(runs))
    block.nonempty = lens.nonzero()[0].copy()  # not a view pinning its base
    block.source_offsets = (lens.cumsum() - lens)[block.nonempty]
    block.arena = arena
    block.run_start = arena.append(
        np.concatenate(runs) if runs else np.empty(0, dtype=np.int64)
    )
    block.run_stop = arena.used
    return block


def compose_layout(blocks: Sequence[_KeywordBlock]) -> _ComponentLayout:
    """The layout of a multi-keyword query over one component.

    Its candidates are the ones every keyword's block covers; each keeps
    its per-keyword connection runs, concatenated keyword-major — the
    element order of the straightforward per-candidate loops, so the
    refreshed floats are theirs.  The blocks' source slots are kept side
    by side (a source two keywords share is refreshed twice, to the same
    float).
    """
    first = blocks[0]
    common = first.positions
    for block in blocks[1:]:
        common = np.intersect1d(common, block.positions, assume_unique=True)
    layout = _ComponentLayout()
    n = layout.n_all = int(common.size)
    if not n:
        return layout
    width = len(blocks)
    starts = np.empty((n, width), dtype=np.intp)
    lens = np.empty((n, width), dtype=np.intp)
    sources: List[np.ndarray] = []
    offsets: List[np.ndarray] = []
    nonempty: List[np.ndarray] = []
    conn_base = slot_base = run_base = 0
    for column, block in enumerate(blocks):
        at = block.positions.searchsorted(common)
        ends = np.append(block.kw_offsets[1:], block.n_conns)
        starts[:, column] = block.kw_offsets[at] + conn_base
        lens[:, column] = ends[at] - block.kw_offsets[at]
        sources.append(block.conn_src + slot_base)
        offsets.append(block.source_offsets + run_base)
        nonempty.append(block.nonempty + slot_base)
        conn_base += block.n_conns
        slot_base += block.n_slots
        run_base += block.run_stop - block.run_start
    picked, layout.kw_offsets = _run_indices(starts.ravel(), lens.ravel())
    layout.conn_weight = np.concatenate([b.conn_weight for b in blocks])[picked]
    layout.conn_src = np.concatenate(sources)[picked]
    layout.source_concat = np.concatenate([b.source_concat for b in blocks])
    layout.source_offsets = np.concatenate(offsets)
    layout.nonempty = np.concatenate(nonempty)
    layout.n_slots = slot_base
    layout.n_conns = int(picked.size)
    layout.n_kws = n * width
    places = np.arange(n, dtype=np.intp)
    layout.cand_offsets = places * width
    at = first.positions.searchsorted(common)
    layout.depths = first.depths[at]
    layout.uris = first.uris[at]
    layout.uri_terms = [first.uri_terms[i] for i in at.tolist()]
    # A pair of the first block survives when both ends do.
    place = np.full(first.n_all, -1, dtype=np.intp)
    place[at] = places
    shallow, deep = place[first.pair_shallow], place[first.pair_deep]
    kept = (shallow >= 0) & (deep >= 0)
    layout.pair_shallow, layout.pair_deep = shallow[kept], deep[kept]
    return layout


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
        "block_runs",
        "built_blocks",
        "dirty",
        "n_all",
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
        #: each block's index runs, taken when it was gathered: a cached
        #: block may leave the table (and its arena range be reused)
        #: before the deferred :meth:`ensure` reads it
        self.block_runs: List[np.ndarray] = []
        self.built_blocks = 0
        self.dirty = False
        self.n_all = 0
        self.lowers = np.empty(0, dtype=np.float64)
        self.uppers = np.empty(0, dtype=np.float64)
        self.removed = np.zeros(0, dtype=bool)
        self.n_removed = 0
        self.screen_cache: Optional[Tuple[np.ndarray, np.ndarray]] = None
        #: ``(min raw upper, max raw lower)`` over the rows of the last
        #: refresh.  Raw means removed rows are included, which only
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
        self.block_runs.append(block.source_concat)
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
        built = self.built_blocks
        for block, runs in zip(self.blocks[built:], self.block_runs[built:]):
            weight_parts.append(block.conn_weight)
            src_parts.append(block.conn_src + slot_base)
            kw_parts.append(block.kw_offsets + conn_base)
            cand_parts.append(block.cand_offsets + kw_base)
            concat_parts.append(runs)
            offset_parts.append(block.source_offsets + source_base)
            nonempty_parts.append(block.nonempty + slot_base)
            source_base += runs.size
            depth_parts.append(block.depths)
            uri_parts.append(block.uris)
            if block.pair_shallow.size:
                pair_shallow_parts.append(block.pair_shallow + cand_base)
                pair_deep_parts.append(block.pair_deep + cand_base)
            cand_base += block.n_all
            conn_base += block.n_conns
            kw_base += block.n_kws
            slot_base += block.n_slots
        self.built_blocks = len(self.blocks)
        self.n_all = cand_base
        self.conn_base = conn_base
        self.kw_base = kw_base
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
        # The bounds refresh that called for this build assigns fresh
        # ``lowers`` / ``uppers`` right after it.  The removed mask keeps
        # its prefix — cleaned positions stay cleaned.
        grown = np.zeros(self.n_all, dtype=bool)
        grown[: self.removed.size] = self.removed
        self.removed = grown
        self.screen_cache = None
        self.batch_stats = None
        self.dirty = False
