"""Deliberate slab-mutation violations (never imported)."""

import numpy as np


def writes_into_a_mapped_slab(slab_store, name):
    arrays = slab_store.get(name)
    arrays["ev_node"][0] = 99  # BAD: in-place write to a shared slab


def writes_without_a_local(store):
    store.get("component_0")["coverage"][0, 0] = False  # BAD: direct write


def augments_a_slab(slab_store, name):
    arrays = slab_store.get(name)
    pointers = arrays["atom_ptr"]
    pointers += 1  # BAD: += mutates the shared buffer in place


def sorts_in_place(slab_store, name):
    view = slab_store.get(name)["ev_pair"]
    view.sort()  # BAD: .sort() writes into the mapped pages


def targets_shared_memory_with_out(slab_store, name, mask):
    arrays = slab_store.get(name)
    np.logical_or(arrays["coverage"], mask, out=arrays["coverage"])  # BAD


def mutates_an_adoption_parameter(header, arrays):
    arrays["pair_types"][0] = 1  # BAD: adoption entry points share arrays


def fills_an_exported_bundle(slab):
    bundle = slab.arrays()
    bundle["candidate_order"].fill(0)  # BAD: .arrays() hands out the slabs


def patches_a_warm_seed_in_place(component, warm):
    warm.node_activity[0, 0] = True  # BAD: the warm seed is the old slab


def sorts_a_warm_field(warm):
    warm.tag_uris.sort()  # BAD: in-place sort of the adopted slab's field


def augments_through_a_field_alias(warm):
    activity = warm.node_activity
    activity += 1  # BAD: the alias still points into shared memory


def writes_a_looked_up_slab(index, ident):
    slab = index.slab(ident)
    slab.ev_node[0] = 3  # BAD: .slab() hands out the shared arrays


def writes_into_the_index_arena(table, block):
    table.arena.runs[block.run_start] = 0  # BAD: every block reads this buffer


def remaps_a_layout_in_place(layout, old_to_new):
    layout.source_concat[:] = old_to_new[layout.source_concat]  # BAD: shared view


def sorts_an_arena_slice(arena, start, stop):
    view = arena.runs[start:stop]
    view.sort()  # BAD: the alias still points into the pooled buffer
