"""The plan cache's block table: per-component keyword blocks, composed
layouts, index-derived capacity, delta-sized eviction and arena remap.

Contracts under test:

* **no cycling** — a second pass over 300 unique ``(seeker, keyword)``
  queries on ``TwitterConfig().scaled(5)`` builds no block: the table is
  sized by the index, so vocabulary-scanning traffic cannot evict an
  entry before its reuse;
* **composition** — the layout of an ``l = 2..5`` keyword query, composed
  from per-keyword blocks, holds per candidate exactly the connections
  the from-scratch :class:`ComponentConnections` oracle resolves
  (candidates, counts, weights, sources, order);
* **writes stay delta-sized and exact** — with the table filled past
  4 096 blocks, ``add_tag`` (which grows the proximity universe: one
  arena gather) and ``add_comment_edge`` look at the touched components'
  sub-tables only and leave every answer bit-identical to a from-scratch
  kernel, as does an LRU eviction followed by a re-gather;
* **eviction scans do not touch recency** and the result cache's masked
  eviction drops exactly what the per-entry ``np.isin`` predicate did.
"""

import itertools
import random

import numpy as np
import pytest

from repro.core import S3kSearch
from repro.core.caches import _BatchCache, _LRUDict, _ResultCache, _ResultMeta
from repro.core.connections import ComponentConnections
from repro.core.search import SearchResult
from repro.datasets import TwitterConfig, build_twitter_instance
from repro.engine import Engine, ShardedEngine
from repro.engine.request import QueryRequest
from repro.eval import format_engine_stats
from repro.queries.workload import (
    connected_seekers,
    document_frequencies,
    frequency_buckets,
)
from repro.rdf import URI
from repro.social import Tag

from .fixtures import figure1_instance, figure3_instance, two_community_instance
from .instance_gen import ENTITIES, VOCABULARY, random_instance
from .test_live_mutation import _ranked

N_RANDOM_INSTANCES = 50


# ----------------------------------------------------------------------
# I1x5: the table holds the unique-traffic working set
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def warm_i1x5():
    """``(instance, kernel, queries)`` after one pass over 300 unique
    single-keyword queries — the shape of ``http_unique``."""
    instance = build_twitter_instance(TwitterConfig().scaled(5)).instance
    kernel = S3kSearch(instance, result_cache_size=0)
    rng = random.Random(21)
    seekers = connected_seekers(instance)
    _rare, common = frequency_buckets(document_frequencies(instance))
    common = [term for term in common if not isinstance(term, URI)]
    pairs = set()
    while len(pairs) < 300:
        pairs.add((rng.choice(seekers), rng.choice(common)))
    queries = [(seeker, [keyword], 5) for seeker, keyword in sorted(pairs)]
    for start in range(0, len(queries), 4):
        kernel.search_many(queries[start : start + 4])
    return instance, kernel, queries


def test_second_pass_over_unique_queries_builds_no_block(warm_i1x5):
    _instance, kernel, queries = warm_i1x5
    before = kernel.plan_cache_stats
    assert before["block_builds"] > 4096  # the old fixed table cycled here
    assert before["blocks_size"] == before["block_builds"]
    assert before["blocks_capacity"] >= before["blocks_size"]
    for start in range(0, len(queries), 4):
        kernel.search_many(queries[start : start + 4])
    after = kernel.plan_cache_stats
    assert after["block_builds"] == before["block_builds"]
    assert after["blocks_misses"] == before["blocks_misses"]
    assert after["blocks_lru_evictions"] == 0
    assert after["blocks_hits"] > before["blocks_hits"]


def test_capacity_is_the_index_atom_count(warm_i1x5):
    _instance, kernel, _queries = warm_i1x5
    kernel.connection_index.ensure_all()
    assert kernel.plan_cache_stats["blocks_capacity"] == (
        kernel.connection_index.stats()["atoms"]
    )
    assert S3kSearch(figure1_instance()).plan_cache_stats["blocks_capacity"] == 4096
    assert S3kSearch(figure1_instance(), plan_cache_size=7).plan_cache_stats[
        "blocks_capacity"
    ] == 7


def test_writes_on_a_full_table_are_delta_sized_and_exact(warm_i1x5):
    instance, kernel, queries = warm_i1x5
    table = kernel._plan_cache.blocks
    assert table.size >= 6000
    documents = sorted(instance.documents)
    sample = queries[::15]

    def write_and_check(mutate, grows):
        visited, remaps, nodes = (
            table.subtables_visited, table.arena.remaps, kernel.prox_index.size
        )
        version = instance.version
        mutate()
        info = kernel.apply_deltas(instance.deltas_since(version))
        assert info is not None
        # Only the touched component's sub-table was looked at, and a
        # universe growth cost exactly one gather over the arena.
        assert table.subtables_visited - visited == info["components_touched"] == 1
        assert (kernel.prox_index.size > nodes) == grows
        assert table.arena.remaps - remaps == int(grows)
        assert table.size >= 6000
        oracle = S3kSearch(instance, result_cache_size=0)
        for query, answer in zip(sample, kernel.search_many(sample)):
            assert _ranked(answer) == _ranked(oracle.search(*query[:2], k=query[2]))

    keyword = str(queries[0][1][0])
    write_and_check(
        lambda: instance.add_tag(
            Tag(URI("plan:t0"), documents[3], sorted(instance.users)[5], keyword=keyword)
        ),
        grows=True,  # the tag itself joins the proximity universe
    )
    write_and_check(
        lambda: instance.add_comment_edge(URI("plan:c0"), documents[7]),
        grows=False,
    )


# ----------------------------------------------------------------------
# Composition vs the from-scratch oracle
# ----------------------------------------------------------------------
def _layout_connections(kernel, layout):
    """Per candidate, per keyword: ``[(weight, neighborhood run), ...]``
    as the layout's flat arrays hold them."""
    runs = {}
    concat = layout.source_concat
    bounds = list(layout.source_offsets) + [len(concat)]
    for slot, start, stop in zip(layout.nonempty, bounds, bounds[1:]):
        runs[int(slot)] = tuple(concat[start:stop])
    kw_bounds = list(layout.kw_offsets) + [layout.n_conns]
    width = layout.n_kws // layout.n_all
    rows = []
    for position in range(layout.n_all):
        per_keyword = []
        for column in range(width):
            start, stop = kw_bounds[position * width + column : position * width + column + 2]
            per_keyword.append(
                [
                    (layout.conn_weight[i], runs.get(int(layout.conn_src[i]), ()))
                    for i in range(start, stop)
                ]
            )
        rows.append(per_keyword)
    return rows


def _assert_layouts_match_oracle(instance, keyword_sets):
    kernel = S3kSearch(instance, result_cache_size=0)
    seeker = sorted(instance.users)[0]
    cache = _BatchCache()
    checked = 0
    for keywords in keyword_sets:
        state = kernel._prepare_query(
            QueryRequest.from_obj((seeker, keywords, 5)), 0, cache
        )
        for ident in sorted(state.matching):
            component = kernel.component_index.component(ident)
            oracle = ComponentConnections(instance, component, state.extensions)
            expected = oracle.candidate_documents()
            layout = kernel._component_layout(ident, state, cache)
            assert layout.n_all == len(expected)
            if not expected:
                continue
            assert layout.uri_terms == expected
            assert list(layout.uris) == [str(uri) for uri in expected]
            assert list(layout.cand_offsets) == [
                i * len(state.extensions) for i in range(len(expected))
            ]
            want = [
                [
                    [
                        (
                            kernel.score.structural_weight(c.distance),
                            tuple(kernel.prox_index.closed_neighborhood_indices(c.source)),
                        )
                        for c in oracle.connections(uri, keyword)
                    ]
                    for keyword in state.extensions
                ]
                for uri in expected
            ]
            assert _layout_connections(kernel, layout) == want
            depths = [instance.document_of(uri).node(uri).depth for uri in expected]
            assert list(layout.depths) == depths
            neighbors = {
                (a, b)
                for a, b in itertools.combinations(range(len(expected)), 2)
                if expected[b] in instance.vertical_neighborhood(expected[a])
            }
            pairs = {
                (min(a, b), max(a, b))
                for a, b in zip(layout.pair_shallow.tolist(), layout.pair_deep.tolist())
            }
            assert pairs == neighbors
            assert all(
                depths[a] < depths[b]
                for a, b in zip(layout.pair_shallow.tolist(), layout.pair_deep.tolist())
            )
            checked += 1
    return checked


@pytest.mark.parametrize(
    "build, keyword_sets",
    [
        (figure1_instance, [["university", "degre"], ["debate", "degre", "university"]]),
        (figure3_instance, [["k1", "k2"], ["k1", "k2", "k1"]]),
        (two_community_instance, [["python", "databas"], ["python", "network"]]),
    ],
)
def test_composed_layouts_match_oracle_on_fixtures(build, keyword_sets):
    instance = build()
    vocabulary = sorted(
        {str(k) for c in S3kSearch(instance).component_index.components() for k in c.keywords}
    )
    rng = random.Random(3)
    extra = [rng.sample(vocabulary, min(len(vocabulary), n)) for n in (2, 3, 4, 5)]
    _assert_layouts_match_oracle(instance, keyword_sets + extra)


def test_composed_layouts_match_oracle_on_random_instances():
    checked = 0
    for seed in range(N_RANDOM_INSTANCES):
        rng = random.Random(seed)
        instance = random_instance(rng)
        terms = VOCABULARY + ENTITIES
        keyword_sets = [rng.sample(terms, n) for n in (2, 2, 3, 4, 5)]
        checked += _assert_layouts_match_oracle(instance, keyword_sets)
    assert checked >= N_RANDOM_INSTANCES  # the sweep really composed layouts


# ----------------------------------------------------------------------
# LRU eviction, re-gather, and the arena under churn
# ----------------------------------------------------------------------
def test_lru_eviction_then_regather_stays_exact():
    for seed in range(10):
        rng = random.Random(100 + seed)
        instance = random_instance(rng, n_users=8, n_docs=9)
        kernel = S3kSearch(instance, result_cache_size=0, plan_cache_size=3)
        oracle = S3kSearch(instance, result_cache_size=0, plan_cache_size=0)
        seekers = sorted(instance.users)
        queries = [
            (rng.choice(seekers), rng.sample(VOCABULARY, rng.randint(1, 3)), 3)
            for _ in range(30)
        ]
        for _pass in range(2):
            for query in queries:
                assert _ranked(kernel.search(*query[:2], k=query[2])) == _ranked(
                    oracle.search(*query[:2], k=query[2])
                )
        stats = kernel.plan_cache_stats
        if len(kernel.component_index) > 1:
            assert stats["blocks_lru_evictions"] > 0
        table = kernel._plan_cache.blocks
        live = sum(
            block.run_stop - block.run_start
            for blocks in table.values()
            for block in blocks.values()
        )
        # Dead ranges never outweigh live ones for long: compaction ran.
        assert table.arena.used - table.arena.dead == live
        assert table.arena.dead <= max(live, table.arena.used // 2)


def test_block_order_is_independent_of_extension_iteration_order():
    # A block is keyed by the frozen extension; building it from any
    # iteration order of the same atoms must give the same arrays.
    instance = figure1_instance()
    kernel = S3kSearch(instance)
    index = kernel.connection_index
    for component in kernel.component_index.components():
        atoms = sorted(component.keywords)
        forward = index.keyword_block(component.ident, atoms)
        backward = index.keyword_block(component.ident, atoms[::-1])
        for a, b in zip(forward[:3] + forward[4:7], backward[:3] + backward[4:7]):
            assert np.array_equal(a, b)
        assert forward[3] == backward[3]


# ----------------------------------------------------------------------
# Satellites: peek, masked result eviction, stats
# ----------------------------------------------------------------------
def test_lru_peek_touches_neither_order_nor_counters():
    table = _LRUDict(3)
    for key in "abc":
        table[key] = key.upper()
    assert table.peek("a") == "A" and table.peek("z") is None
    assert list(table) == ["a", "b", "c"]
    assert (table.hits, table.misses) == (0, 0)
    assert table.get("a") == "A"
    assert list(table) == ["b", "c", "a"]
    table["d"] = "D"
    assert list(table) == ["c", "a", "d"] and table.lru_evictions == 1


def test_a_write_leaves_the_lru_order_of_surviving_plans_unchanged():
    instance = figure1_instance()
    kernel = S3kSearch(instance)
    for keywords in (["degre"], ["debate"], ["university", "degre"], ["ualberta"]):
        kernel.search("u1", keywords, k=3)
    cache = kernel._plan_cache
    tables = (cache.extensions, cache.matching, cache.weight_bounds)
    before = [list(table) for table in tables]
    version = instance.version
    instance.add_tag(Tag(URI("tOrder"), URI("d0.1"), URI("u2"), keyword="debate"))
    assert kernel.apply_deltas(instance.deltas_since(version)) is not None
    evicted = 0
    for table, keys in zip(tables, before):
        survivors = [key for key in keys if key in table]
        evicted += len(keys) - len(survivors)
        assert list(table) == survivors
        assert table.delta_evictions == len(keys) - len(survivors)
    assert evicted > 0  # the scan had something to inspect and drop


_ANSWER = SearchResult(
    seeker=URI("u"), keywords=(), k=1, results=[], iterations=0,
    terminated_by="threshold", elapsed_seconds=0.0, candidates_examined=0,
    components_processed=0, components_discarded=0,
)


def test_masked_result_eviction_equals_the_isin_predicate():
    rng = np.random.default_rng(5)
    size = 400
    for _round in range(20):
        cache = _ResultCache(64)
        visited = {}
        for key in range(40):
            rows = np.flatnonzero(rng.random(size) < rng.choice([0.0, 0.02, 0.3]))
            visited[key] = rows
            cache.put(key, _ANSWER, _ResultMeta(rows, frozenset(), frozenset()))
        grown = rng.random() < 0.5
        old_to_new = np.arange(size) + (np.arange(size) >= 100) if grown else None
        affected = np.flatnonzero(rng.random(size + 1) < 0.03)
        expected = {
            key
            for key, rows in visited.items()
            if np.isin(old_to_new[rows] if grown else rows, affected).any()
        }
        dropped = cache.apply_delta(set(), set(), affected, old_to_new, size + 1)
        assert dropped == len(expected)
        assert set(cache._entries) == set(visited) - expected


def test_engine_stats_report_the_plan_cache():
    engine = Engine(figure1_instance())
    engine.search("u1", ["degre"])
    engine.search("u4", ["degre"])
    plans = engine.stats()["plan_cache"]
    assert plans["block_builds"] == plans["blocks_misses"] == plans["blocks_size"] > 0
    assert plans["blocks_hits"] > 0
    assert plans["extensions_hits"] == plans["extensions_misses"] == 1
    for table in ("extensions", "matching", "weight_bounds", "blocks"):
        for counter in ("hits", "misses", "size", "capacity", "lru_evictions", "delta_evictions"):
            assert f"{table}_{counter}" in plans
    rendered = format_engine_stats(engine.stats())
    assert "plan_cache" in rendered and "blocks_delta_evictions" in rendered
    engine.mutate(
        {"op": "add_tag", "uri": "tStats", "subject": "d0.1", "author": "u2", "keyword": "degre"}
    )
    assert engine.stats()["plan_cache"]["blocks_delta_evictions"] > 0
    engine.close()


def test_sharded_stats_roll_up_the_plan_cache():
    sharded = ShardedEngine(figure1_instance(), shards=2)
    try:
        sharded.search_many([(f"u{i}", ["degre"]) for i in range(5)])
        plans = sharded.stats()["plan_cache"]
    finally:
        sharded.close()
    assert plans["block_builds"] == plans["blocks_misses"] > 0
    assert plans["blocks_capacity"] == 2 * 4096
