"""``ProximityIndex.apply_delta``: the array-domain transition patch.

Two guarantees are pinned here, below the kernel-level oracle sweep of
``test_live_mutation``:

* **byte identity** — after every step of a random expressible delta
  sequence the patched CSR (``data`` / ``indices`` / ``indptr``) equals
  a from-scratch ``ProximityIndex`` ``tobytes()`` for ``tobytes()``,
  the returned ``(old_to_new, affected_rows)`` and the remapped
  neighborhood cache match the whole-graph reference computation the
  patch replaced, and arrays placed read-only (as slab adoption does)
  are copied, never written;
* **delta-sized work** — the interpreter work of one write is counted,
  not timed: it equals the touched neighborhood and does not grow with
  the instance.
"""

import random
from collections import Counter

import numpy as np
import pytest

from repro.core import ProximityIndex
from repro.datasets import TwitterConfig, build_twitter_instance
from repro.rdf import URI
from repro.rdf.namespaces import NETWORK_EDGE_PROPERTIES, S3_SOCIAL
from repro.social import Tag

from .fixtures import figure1_instance
from .instance_gen import VOCABULARY, random_instance

N_RANDOM_INSTANCES = 50
STEPS_PER_INSTANCE = 4


def _new_edge_sources(instance, version):
    """Subjects of the network-edge triples recorded since *version* —
    what ``S3kSearch.apply_deltas`` hands to the proximity patch."""
    return {
        triple.subject
        for delta in instance.deltas_since(version)
        for triple in getattr(delta, "new_triples", ())
        if triple.predicate in NETWORK_EDGE_PROPERTIES
    }


def _random_step(rng, instance, serial):
    """Apply one random expressible mutation; return its edge sources."""
    nodes = sorted(instance.node_to_document)
    users = sorted(instance.users)
    version = instance.version
    roll = rng.random()
    if roll < 0.5:
        # A tag always joins the universe; a never-seen author joins too.
        author = URI(f"w{serial}") if roll < 0.25 else rng.choice(users)
        subject = rng.choice(nodes + sorted(instance.tags))
        keyword = rng.choice(VOCABULARY) if rng.random() < 0.8 else None
        instance.add_tag(
            Tag(URI(f"live_t{serial}"), subject, author, keyword=keyword)
        )
        return _new_edge_sources(instance, version)
    if roll < 0.75:
        # Fresh comment URIs stay outside the universe; an existing
        # document as the comment wires two universe nodes together.
        comment = (
            URI(f"live_c{serial}")
            if rng.random() < 0.5
            else rng.choice(sorted(instance.documents))
        )
        instance.add_comment_edge(comment, rng.choice(nodes))
        return _new_edge_sources(instance, version)
    social = sorted(
        (wt.subject, wt.object, wt.weight)
        for wt in instance.graph.triples(predicate=S3_SOCIAL)
    )
    if social:
        source, target, weight = rng.choice(social)
        # Re-adding keeps the maximum weight: move it halfway to 1.
        instance.add_social_edge(source, target, (weight + 1.0) / 2.0)
    else:
        source, target = rng.sample(users, 2)
        instance.add_social_edge(source, target, 0.5)
    return {source}


def _reference_delta(old_nodes, instance, edge_sources):
    """``apply_delta``'s return value computed the pre-patch way: from
    the whole universe, with a full re-sort and index rebuild."""
    nodes = sorted(instance.network_nodes())
    index = {uri: i for i, uri in enumerate(nodes)}
    added = [uri for uri in nodes if uri not in set(old_nodes)]
    old_to_new = (
        np.array([index[uri] for uri in old_nodes], dtype=np.int64)
        if added
        else None
    )
    sources = set(edge_sources)
    for uri in added:
        for wt in instance.graph.triples(obj=uri):
            if wt.predicate in NETWORK_EDGE_PROPERTIES:
                sources.add(wt.subject)
    affected = set(added)
    for source in sources:
        if source in index:
            affected.update(
                member
                for member in instance.vertical_neighborhood(source)
                if member in index
            )
    rows = np.array(sorted(index[uri] for uri in affected), dtype=np.int64)
    return old_to_new, rows


def _placed_readonly(index):
    """Re-adopt the index's arrays as read-only copies, the way slab
    placement hands them back; returns the placed arrays."""
    placed = {}
    for name, array in index.transition_arrays().items():
        placed[name] = array.copy()
        placed[name].setflags(write=False)
    index.adopt_transition(placed)
    return placed


class TestByteIdentity:
    @pytest.mark.parametrize("seed", range(N_RANDOM_INSTANCES))
    def test_patched_index_equals_fresh_build(self, seed):
        rng = random.Random(7000 + seed)
        instance = random_instance(rng)
        index = ProximityIndex(instance)
        for serial in range(STEPS_PER_INSTANCE):
            placed = _placed_readonly(index)
            placed_bytes = {name: a.tobytes() for name, a in placed.items()}
            for uri in rng.sample(index._nodes, 3):
                index.closed_neighborhood_indices(uri)
            old_nodes = list(index._nodes)

            sources = _random_step(rng, instance, serial)
            old_to_new, affected_rows = index.apply_delta(sources)

            fresh = ProximityIndex(instance)
            context = (seed, serial)
            assert index._nodes == fresh._nodes, context
            assert index._index == fresh._index, context
            expected = fresh.transition_arrays()
            for name, array in index.transition_arrays().items():
                assert array.dtype == expected[name].dtype, (context, name)
                assert array.tobytes() == expected[name].tobytes(), (context, name)

            ref_map, ref_rows = _reference_delta(old_nodes, instance, sources)
            if ref_map is None:
                assert old_to_new is None, context
            else:
                assert old_to_new.dtype == np.int64, context
                assert np.array_equal(old_to_new, ref_map), context
            assert affected_rows.dtype == np.int64, context
            assert np.array_equal(affected_rows, ref_rows), context
            for uri, cached in index._neigh_cache.items():
                assert np.array_equal(
                    cached, fresh.closed_neighborhood_indices(uri)
                ), (context, uri)

            # Copy-on-patch: the placed arrays were read, never written
            # and never carried into a patched matrix.
            for name, array in placed.items():
                assert not array.flags.writeable, (context, name)
                assert array.tobytes() == placed_bytes[name], (context, name)
                if affected_rows.size:
                    assert not np.shares_memory(
                        index.transition_arrays()[name], array
                    ), (context, name)

    @pytest.mark.parametrize("seed", range(10))
    def test_naive_rows_equal_fresh_build(self, seed):
        rng = random.Random(7100 + seed)
        instance = random_instance(rng)
        index = ProximityIndex(instance, use_matrix=False)
        for serial in range(STEPS_PER_INSTANCE):
            index.apply_delta(_random_step(rng, instance, serial))
            fresh = ProximityIndex(instance, use_matrix=False)
            assert index._nodes == fresh._nodes
            assert index._rows == fresh._rows
        # The naive oracle has no stepping matrix to maintain.
        assert not hasattr(index, "_transition_t")
        assert index.transition_arrays() is None

    def test_transition_row_reads_the_matrix(self):
        instance = figure1_instance()
        matrix = ProximityIndex(instance, use_matrix=True)
        naive = ProximityIndex(instance, use_matrix=False)
        assert not hasattr(matrix, "_rows")
        for uri in matrix._nodes:
            assert matrix.transition_row(uri) == naive.transition_row(uri)

    def test_universe_change_beyond_the_new_edges_is_refused(self):
        instance = figure1_instance()
        index = ProximityIndex(instance)
        before = {
            name: array.tobytes()
            for name, array in index.transition_arrays().items()
        }
        nodes = list(index._nodes)
        instance.add_user("ghost")  # joins the universe, touches no edge
        with pytest.raises(ValueError):
            index.apply_delta([])
        instance.users.discard(URI("ghost"))
        instance.users.discard(nodes[-1])  # a shrunk universe
        with pytest.raises(ValueError):
            index.apply_delta([])
        assert index._nodes == nodes
        for name, array in index.transition_arrays().items():
            assert array.tobytes() == before[name]


class TestWorkScalesWithTheDelta:
    """Counts, not clocks: one ``add_tag`` costs its neighborhood."""

    @staticmethod
    def _counted_write(monkeypatch, scale):
        instance = build_twitter_instance(TwitterConfig().scaled(scale)).instance
        index = ProximityIndex(instance)
        subject = sorted(instance.documents)[0]
        author = sorted(instance.users)[0]
        version = instance.version
        instance.add_tag(Tag(URI("guard:t0"), subject, author, keyword="guard"))
        sources = _new_edge_sources(instance, version)

        counts = Counter()

        def counting(name, function):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return function(*args, **kwargs)

            return wrapper

        def forbidden(*_args, **_kwargs):
            raise AssertionError("whole-graph walk on the write path")

        monkeypatch.setattr(
            index, "_merged_row", counting("merged_row", index._merged_row)
        )
        monkeypatch.setattr(
            instance,
            "network_out_edges",
            counting("out_edges", instance.network_out_edges),
        )
        monkeypatch.setattr(index, "_out_edges_by_node", forbidden)
        monkeypatch.setattr(index, "_build_transition", forbidden)
        monkeypatch.setattr(instance, "network_nodes", forbidden)
        _old_to_new, affected_rows = index.apply_delta(sources)
        neighborhood = len(instance.vertical_neighborhood(subject))
        return counts, len(affected_rows), neighborhood, index.size

    def test_one_write_costs_its_neighborhood_at_any_scale(self, monkeypatch):
        small = self._counted_write(monkeypatch, 1)
        large = self._counted_write(monkeypatch, 3)
        for counts, affected, neighborhood, _size in (small, large):
            # the new tag, its author, and the subject's closed neighborhood
            assert affected == neighborhood + 2
            assert counts["merged_row"] == affected
            assert counts["out_edges"] == affected
        assert large[3] > 2 * small[3]  # the instance did grow ...
        assert small[2] == large[2]  # ... around the same local write
        assert small[0] == large[0]
