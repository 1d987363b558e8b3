"""The Engine facade: request normalization, lifecycle, stats, guards.

Covers the ISSUE 3 satellites on the synchronous side:

* ``QueryRequest.from_obj`` subsumes the deleted ad-hoc coercion paths
  (regression-tested against the legacy ``_coerce_query`` semantics);
* ``Engine.stats()`` is the single counter surface (index + caches +
  batcher) and ``run_workload_batched`` snapshots it;
* mutations through the facade (``add_tag`` / ``add_comment_edge``)
  invalidate caches and rebuild the kernel before the next answer;
* a persisted index slab whose fingerprint no longer matches the
  instance is refused loudly (``StaleIndexError``) unless rebuilding is
  requested.
"""

import random

import pytest

from repro import (
    Engine,
    EngineConfig,
    QueryRequest,
    S3kSearch,
    StaleIndexError,
    Tag,
    URI,
)
from repro.core import ConnectionIndex
from repro.core.search import _normalize_keywords
from repro.documents import Document, build_document
from repro.queries import QuerySpec, WorkloadBuilder, engine_runner, run_workload_batched
from repro.storage import SQLiteStore

from .fixtures import figure1_instance, two_community_instance
from .instance_gen import VOCABULARY, random_instance


def legacy_coerce(query, default_k):
    """The pre-Engine ``_coerce_query`` rules, inlined as the oracle."""
    if hasattr(query, "seeker") and hasattr(query, "keywords"):
        return (
            getattr(query, "seeker"),
            getattr(query, "keywords"),
            int(getattr(query, "k", default_k) or default_k),
        )
    if isinstance(query, (tuple, list)):
        if len(query) == 2:
            seeker, keywords = query
            return seeker, keywords, default_k
        if len(query) == 3:
            seeker, keywords, query_k = query
            return seeker, keywords, int(query_k)
    raise TypeError(query)


class TestQueryRequestFromObj:
    @pytest.mark.parametrize(
        "query",
        [
            ("u1", ["degre"]),
            ("u1", ["degre", "campus"], 3),
            ["u0", ("debate",), 1],
            QuerySpec(URI("u4"), (URI("kb:MS"),), 7),
            QuerySpec(URI("u4"), ("degre", "degre"), 0),  # k=0 -> default
        ],
    )
    def test_matches_legacy_coercion(self, query):
        for default_k in (5, 9):
            seeker, keywords, k = legacy_coerce(query, default_k)
            request = QueryRequest.from_obj(query, default_k=default_k)
            assert request.seeker == URI(seeker)
            assert request.keywords == _normalize_keywords(keywords)
            assert request.k == k

    def test_mapping_shape(self):
        request = QueryRequest.from_obj(
            {"seeker": "u1", "keywords": ["a", "b", "a"], "k": 2, "semantic": False}
        )
        assert request.seeker == URI("u1")
        assert [str(kw) for kw in request.keywords] == ["a", "b"]
        assert request.k == 2 and request.semantic is False

    def test_mapping_k_zero_falls_back(self):
        request = QueryRequest.from_obj(
            {"seeker": "u1", "keywords": ["a"], "k": 0}, default_k=7
        )
        assert request.k == 7

    def test_request_passthrough(self):
        original = QueryRequest(seeker="u1", keywords=("a",), k=2, semantic=False)
        assert QueryRequest.from_obj(original, default_k=9) is original

    def test_requests_are_their_own_identity(self):
        a = QueryRequest.from_obj(("u1", ["x", "y", "x"], 3))
        b = QueryRequest.from_obj(QuerySpec(URI("u1"), ("x", "y"), 3))
        assert a == b and hash(a) == hash(b)

    @pytest.mark.parametrize(
        "bad",
        [
            42,
            ("u1",),
            ("u1", ["a"], 3, "extra"),
            {"seeker": "u1"},
            {"seeker": "u1", "keywords": ["a"], "nope": 1},
        ],
    )
    def test_rejects_malformed(self, bad):
        with pytest.raises(TypeError):
            QueryRequest.from_obj(bad)

    def test_rejects_bare_string_keywords(self):
        """'keywords': 'w0' must not silently become ('w', '0')."""
        with pytest.raises(TypeError, match="single +string"):
            QueryRequest(seeker="u1", keywords="w0")
        with pytest.raises(TypeError, match="single +string"):
            QueryRequest.from_obj({"seeker": "u1", "keywords": "w0"})

    def test_kernel_honors_per_request_settings(self):
        """A QueryRequest's own semantic flag must execute, not the
        batch-level default — even mixed within one batch."""
        kernel = S3kSearch(figure1_instance())
        plain = QueryRequest(seeker="u1", keywords=("degre",), k=3, semantic=False)
        extended = QueryRequest(seeker="u1", keywords=("degre",), k=3, semantic=True)
        without, with_semantics = kernel.search_many([plain, extended])
        assert without.results == kernel.search(
            "u1", ["degre"], k=3, semantic=False
        ).results
        assert with_semantics.results == kernel.search(
            "u1", ["degre"], k=3, semantic=True
        ).results
        assert without.results != with_semantics.results

    def test_kernel_accepts_requests_and_legacy_shapes(self):
        instance = figure1_instance()
        kernel = S3kSearch(instance)
        mixed = [
            QueryRequest(seeker="u1", keywords=("degre",), k=3),
            ("u0", ["debate"], 2),
            {"seeker": "u4", "keywords": ["university"]},
            QuerySpec(URI("u1"), ("degre",), 3),
        ]
        batched = kernel.search_many(mixed, k=5)
        for query, result in zip(mixed, batched):
            request = QueryRequest.from_obj(query, default_k=5)
            single = kernel.search(request.seeker, request.keywords, k=request.k)
            assert result.results == single.results


class TestEngineFacade:
    def test_search_matches_kernel(self):
        instance = figure1_instance()
        engine = Engine(instance)
        kernel = S3kSearch(instance)
        for seeker, keywords, k in [
            ("u1", ["degre"], 3),
            ("u0", ["debate"], 2),
            ("u4", ["university", "degre"], 5),
        ]:
            response = engine.search(seeker, keywords, k=k)
            assert response.result.results == kernel.search(seeker, keywords, k=k).results
            assert response.batch_size == 1
            assert response.request.k == k

    def test_search_many_matches_search(self):
        instance = two_community_instance()
        engine = Engine(instance)
        queries = [(f"u{i}", ["python"], 2) for i in range(6)]
        responses = engine.search_many(queries)
        for query, response in zip(queries, responses):
            assert response.results == engine.search(query).results

    def test_search_many_groups_mixed_settings(self):
        instance = figure1_instance()
        engine = Engine(instance)
        kernel = S3kSearch(instance)
        plain = QueryRequest(seeker="u1", keywords=("degre",), k=3, semantic=False)
        semantic = QueryRequest(seeker="u1", keywords=("degre",), k=3, semantic=True)
        responses = engine.search_many([plain, semantic, plain])
        assert responses[0].results == kernel.search("u1", ["degre"], k=3, semantic=False).results
        assert responses[1].results == kernel.search("u1", ["degre"], k=3, semantic=True).results
        assert responses[2].results == responses[0].results

    def test_explicit_settings_override_a_query_request(self):
        """engine.search(request, semantic=False) must honor the explicit
        override, not silently keep the request's own setting."""
        instance = figure1_instance()
        engine = Engine(instance)
        kernel = S3kSearch(instance)
        request = QueryRequest(seeker="u1", keywords=("degre",), k=3)  # semantic
        overridden = engine.search(request, semantic=False)
        assert overridden.request.semantic is False
        assert (
            overridden.results
            == kernel.search("u1", ["degre"], k=3, semantic=False).results
        )
        assert engine.search(request, k=1).request.k == 1
        # No override: the request passes through untouched.
        assert engine.search(request).request is request

    def test_stats_sections(self):
        engine = Engine(figure1_instance())
        engine.search("u1", ["degre"], k=3)
        stats = engine.stats()
        assert set(stats) == {
            "engine",
            "result_cache",
            "plan_cache",
            "connection_index",
            "batcher",
            "exploration",
            "maintenance",
        }
        assert stats["engine"]["queries_served"] == 1
        assert stats["maintenance"]["mutations_applied"] == 0
        assert stats["result_cache"]["misses"] == 1
        assert stats["connection_index"]["components_built"] >= 1
        assert stats["batcher"] == {}  # async path never used
        exploration = stats["exploration"]
        for counter in (
            "stop_checks_fast",
            "stop_checks_full",
            "clean_checks_fast",
            "clean_checks_full",
            "bounds_refresh_rows",
        ):
            assert counter in exploration
        # every stop certification is either screened or replayed
        assert (
            exploration["stop_checks_fast"] + exploration["stop_checks_full"]
            >= 1
        )
        assert exploration["bounds_refresh_rows"] >= 1
        for phase in ("step", "discover", "bounds", "clean_stop"):
            assert f"phase_{phase}_seconds" in exploration

    def test_one_sync_search_moves_phase_and_stop_counters(self):
        # ``search`` is a batch of one through the only exploration loop,
        # so a single synchronous call is visible in the phase clocks and
        # the certification counters (the old sequential loop moved
        # neither the phases nor, on its own, anything batch-shaped).
        engine = Engine(figure1_instance())
        before = engine.stats()["exploration"]
        engine.search("u1", ["degre"], k=3)
        after = engine.stats()["exploration"]
        for phase in ("step", "discover", "bounds", "clean_stop"):
            name = f"phase_{phase}_seconds"
            assert after[name] > before[name] == 0.0
        assert (
            after["stop_checks_fast"] + after["stop_checks_full"]
            > before["stop_checks_fast"] + before["stop_checks_full"]
        )
        assert after["stop_checks_full"] >= 1  # the stop itself is exact

    def test_stats_exploration_zeroed_before_first_query(self):
        engine = Engine(figure1_instance())
        exploration = engine.stats()["exploration"]
        assert exploration == engine.exploration_stats
        assert exploration  # kernel built eagerly, counters present
        assert all(value == 0 for value in exploration.values())

    def test_run_workload_batched_snapshots_engine_stats(self):
        instance = two_community_instance()
        engine = Engine(instance)
        workload = WorkloadBuilder(instance, seed=3).build("+", 1, 2, 8)
        stats = run_workload_batched(engine, workload, batch_size=4)
        assert stats.n_queries == 8
        assert stats.engine_stats["engine"]["queries_served"] == 8
        assert stats.cache_stats == stats.engine_stats["result_cache"]

    def test_engine_runner_facade_and_kernel_agree(self):
        instance = figure1_instance()
        facade_run = engine_runner(Engine(instance))
        kernel_run = engine_runner(S3kSearch(instance))
        spec = QuerySpec(URI("u1"), ("degre",), 3)
        assert facade_run(spec).results == kernel_run(spec).results

    def test_engine_runner_uses_configured_default_k(self):
        from repro.queries.runner import engine_runner as runner

        engine = Engine(figure1_instance(), config=EngineConfig(default_k=2))
        response = runner(engine)(("u1", ["degre"]))
        assert response.request.k == 2

    def test_positional_k_matches_kernel_signature(self):
        instance = figure1_instance()
        engine = Engine(instance)
        kernel = S3kSearch(instance)
        assert (
            engine.search("u1", ["degre"], 1).results
            == kernel.search("u1", ["degre"], 1).results
        )
        assert engine.search("u1", ["degre"], 1).request.k == 1

    def test_stats_is_a_pure_read(self):
        """Polling stats() after a mutation must not refresh the kernel."""
        engine = Engine(figure1_instance())
        engine.search("u1", ["degre"], k=3)
        engine.add_tag(Tag(URI("t:p"), URI("d0.3.1"), URI("u0"), keyword="degre"))
        before = engine.stats()["engine"]
        assert before["kernel_rebuilds"] == 0  # poll did not rebuild
        assert before["instance_version"] > before["kernel_version"]
        assert engine.stats()["maintenance"]["deltas_applied"] == 0
        engine.search("u1", ["degre"], k=3)  # the query pays the catch-up
        after = engine.stats()
        # An expressible tag write is consumed as a delta, not a rebuild.
        assert after["engine"]["kernel_rebuilds"] == 0
        assert after["maintenance"]["deltas_applied"] == 1
        assert (
            after["engine"]["instance_version"]
            == after["engine"]["kernel_version"]
        )


class TestFacadeInvalidation:
    def test_add_tag_invalidates_and_serves_fresh_answers(self):
        instance = figure1_instance()
        engine = Engine(instance)
        engine.search("u1", ["campus"], k=5)
        engine.search("u1", ["campus"], k=5)
        assert engine.stats()["result_cache"]["hits"] == 1

        engine.add_tag(Tag(URI("t:new"), URI("d0.3.1"), URI("u0"), keyword="campus"))
        after = engine.search("u1", ["campus"], k=5)
        stats = engine.stats()
        # The expressible tag write is patched in as a delta; the stale
        # cached answer is evicted (a second miss), not replayed.
        assert stats["engine"]["kernel_rebuilds"] == 0
        assert stats["maintenance"]["deltas_applied"] == 1
        assert stats["result_cache"]["misses"] == 2
        assert URI("d0.3.1") in [r.uri for r in after.results]
        fresh = S3kSearch(engine.instance).search("u1", ["campus"], k=5)
        assert after.result.results == fresh.results

    def test_add_comment_edge_invalidates(self):
        instance = figure1_instance()
        engine = Engine(instance)
        before = engine.search("u1", ["opportun"], k=5)
        comment = build_document("d9", "text", ["opportun"])
        engine.add_document(Document(comment), posted_by="u0")
        engine.add_comment_edge("d9", "d0.5.1")
        after = engine.search("u1", ["opportun"], k=5)
        fresh = S3kSearch(engine.instance).search("u1", ["opportun"], k=5)
        assert after.result.results == fresh.results
        assert after.result.results != before.result.results
        assert engine.stats()["engine"]["kernel_rebuilds"] >= 1

    def test_direct_instance_mutation_is_also_caught(self):
        instance = figure1_instance()
        engine = Engine(instance)
        engine.search("u1", ["degre"], k=3)
        instance.add_tag(Tag(URI("t:d"), URI("d0.3.2"), URI("u2"), keyword="degre"))
        after = engine.search("u1", ["degre"], k=3)
        fresh = S3kSearch(instance).search("u1", ["degre"], k=3)
        assert after.result.results == fresh.results


class TestStoreAndStaleSlabs:
    def _store_with_stale_index(self, tmp_path):
        """A store whose persisted slabs predate an instance mutation."""
        path = tmp_path / "stale.db"
        instance = figure1_instance()
        with SQLiteStore(path) as store:
            store.save_instance(instance)
            store.save_connection_index(ConnectionIndex(instance).ensure_all())
            # Mutate and re-save the instance: the stored slabs now carry
            # fingerprints of content that no longer exists.
            instance.add_tag(
                Tag(URI("t:late"), URI("d0.5.1"), URI("u2"), keyword="campus")
            )
            instance.saturate()
            store.save_instance(instance)
        return path

    def test_from_store_round_trip_adopts_fresh_slabs(self, tmp_path):
        path = tmp_path / "fresh.db"
        instance = figure1_instance()
        with SQLiteStore(path) as store:
            store.save_instance(instance)
            store.save_connection_index(ConnectionIndex(instance).ensure_all())
        engine = Engine.from_store(path)
        stats = engine.stats()["connection_index"]
        assert stats["slabs_persisted"] >= 1
        assert stats["slabs_adopted"] == stats["slabs_persisted"]
        reference = S3kSearch(figure1_instance()).search("u1", ["degre"], k=3)
        assert engine.search("u1", ["degre"], k=3).result.results == reference.results

    def test_stale_slab_is_refused_with_clear_error(self, tmp_path):
        path = self._store_with_stale_index(tmp_path)
        with pytest.raises(StaleIndexError, match="re-run `python -m repro index`"):
            Engine.from_store(path)

    def test_stale_slab_rebuild_opt_in(self, tmp_path):
        path = self._store_with_stale_index(tmp_path)
        engine = Engine.from_store(path, stale_slabs="rebuild")
        assert engine.stats()["connection_index"]["slabs_adopted"] == 0
        # The late tag must be visible: answers match a fresh kernel over
        # the mutated instance.
        fresh = S3kSearch(engine.instance).search("u1", ["campus"], k=5)
        assert engine.search("u1", ["campus"], k=5).result.results == fresh.results

    def test_adopt_payload_strict_vs_lenient(self, tmp_path):
        instance = figure1_instance()
        index = ConnectionIndex(instance).ensure_all()
        payloads = list(index.payloads())
        instance.add_tag(Tag(URI("t:x"), URI("d0.3.1"), URI("u4"), keyword="debate"))
        instance.saturate()
        stale = ConnectionIndex(instance)
        ident, header, blob = payloads[0]
        assert stale.adopt_payload(header, blob) is False  # lenient: skipped
        with pytest.raises(StaleIndexError):
            stale.adopt_payload(header, blob, strict=True)

    def test_invalid_stale_slabs_value(self, tmp_path):
        with pytest.raises(ValueError):
            Engine.from_store(tmp_path / "x.db", stale_slabs="whatever")


class TestRandomizedEquivalence:
    def test_facade_matches_kernel_on_random_instances(self):
        rng = random.Random(99)
        for _ in range(5):
            instance = random_instance(rng)
            engine = Engine(instance)
            kernel = S3kSearch(instance)
            seekers = sorted(instance.users)
            for _ in range(6):
                seeker = rng.choice(seekers)
                keywords = rng.sample(VOCABULARY, rng.randint(1, 2))
                k = rng.choice([1, 3, 5])
                response = engine.search(seeker, keywords, k=k)
                assert response.result.results == kernel.search(
                    seeker, keywords, k=k
                ).results
