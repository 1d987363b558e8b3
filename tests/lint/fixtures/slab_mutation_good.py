"""Legal spellings the slab-mutation rule must not flag."""

import numpy as np


def reads_a_mapped_slab(slab_store, name):
    arrays = slab_store.get(name)
    return arrays["ev_node"][0]  # reading shared slabs is the point


def copies_before_mutating(slab_store, name):
    arrays = slab_store.get(name)
    mine = arrays["atom_ptr"].copy()  # a copy breaks the sharing
    mine += 1
    return mine


def sorts_a_copy(slab_store, name):
    return np.sort(slab_store.get(name)["ev_pair"])  # copying variant


def mutates_a_private_array(n):
    scratch = np.zeros(n, dtype=np.int32)
    scratch[0] = 1  # freshly allocated, not store-adopted
    scratch += 1
    scratch.sort()
    return scratch


def builds_coverage_in_place(n_nodes, n_atoms, mask):
    has_evidence = np.zeros((n_nodes, n_atoms), dtype=bool)
    has_evidence[0] |= mask  # the offline build owns its arrays
    return has_evidence


def plain_dict_get_is_not_a_store(counters, key):
    bucket = counters.get(key)
    if bucket is not None:
        bucket[0] = 1  # a dict named 'counters' is not a slab store
    return bucket


def seeds_from_a_warm_slab(warm, n_nodes):
    seed = np.zeros(n_nodes, dtype=bool)
    seed[:] = warm.node_activity[0]  # reading the old slab is the point
    return seed


def copies_a_warm_field_before_mutating(warm):
    mine = warm.node_activity.copy()  # a copy breaks the sharing
    mine[0] = True
    mine.sort()
    return mine


def registers_a_rebuilt_slab(index, ident, fresh):
    index._slabs[ident] = fresh  # swapping the registry entry is the
    return index._slabs[ident]   # sanctioned copy-on-patch move


def remaps_the_arena_with_a_fresh_array(arena, old_to_new):
    fresh = old_to_new[arena.runs[: arena.used]]  # a gather allocates
    fresh[0] = fresh[0]
    return fresh


def swaps_a_layout_reference(layout, block):
    layout.source_concat = block.source_concat  # adopting a view is a read
    return layout.source_concat[0]
