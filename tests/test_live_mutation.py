"""Incremental index maintenance: delta-propagated live mutation.

Contracts under test:

* **delta log** — every public :class:`S3Instance` mutator records one
  typed :class:`MutationDelta` spanning exactly its version bump;
  ``deltas_since`` returns a contiguous chain or ``None`` (never a
  gapped one);
* **kernel patching** — ``S3kSearch.apply_deltas`` leaves every index
  structure (proximity CSR, component partition, connection slabs,
  keyword indexes) *bit-identical* to a from-scratch rebuild over the
  mutated instance, or refuses (returns ``None``) when the delta is
  inexpressible;
* **scoped invalidation** — result-cache and plan-cache entries
  untouched by a delta survive it: a comment-edge delta (no new
  keywords, no schema triples) must preserve cached keyword extensions
  by object identity, and unrelated cached answers keep serving;
* **the interleaved oracle sweep** — across 50 random instances,
  alternating writes and queries through the delta-maintained
  :class:`Engine` answer exactly what a freshly built kernel answers
  after every step, single-process and sharded;
* **serving tiers** — ``Engine.mutate``/``amutate`` report
  ``delta``/``rebuild`` honestly, the JSONL loop dispatches ``"op"``
  lines, ``POST /mutate`` carries the same admission control and error
  shaping as ``/search``, and the sharded barrier leaves every worker
  at the new version.
"""

import io
import json
import random

import numpy as np
import pytest

from repro.core import S3Instance, S3kSearch
from repro.core.instance import (
    CommentEdgeDelta,
    OpaqueDelta,
    TagDelta,
)
from repro.engine import Engine, MutationRequest, ShardedEngine, run_serve
from repro.engine.http import http_call
from repro.eval import format_engine_stats
from repro.rdf import URI
from repro.social import Tag

from .fixtures import figure1_instance, two_community_instance
from .http_harness import run, running_server
from .instance_gen import VOCABULARY, random_instance

#: Randomized instances for the interleaved mutate/query oracle sweep
#: (same size as the batched-execution and sharding acceptances).
N_RANDOM_INSTANCES = 50

#: Sharded boots fork processes per seed; a smaller slice keeps the
#: sweep honest without dominating suite wall time.
N_SHARDED_INSTANCES = 8


def _ranked(result):
    """Bit-level payload of one answer: URIs, both interval bounds, and
    the termination record (iteration drift would show up here)."""
    return (
        [(r.uri, r.lower, r.upper) for r in result.results],
        result.iterations,
        result.terminated_by,
    )


def _assert_matches_fresh_kernel(answer, instance, seeker, keywords, k):
    oracle = S3kSearch(instance)
    assert _ranked(answer) == _ranked(oracle.search(seeker, keywords, k=k))


# ----------------------------------------------------------------------
# The instance delta log
# ----------------------------------------------------------------------
class TestDeltaLog:
    def test_add_tag_records_a_tag_delta(self):
        instance = figure1_instance()
        version = instance.version
        tag = Tag(URI("tX"), URI("d0.1"), URI("u2"), keyword="fresh")
        instance.add_tag(tag)
        (delta,) = instance.deltas_since(version)
        assert isinstance(delta, TagDelta)
        assert delta.tag.uri == tag.uri
        assert delta.base_version == version
        assert delta.version == instance.version
        assert delta.new_triples  # the exact base facts the write added

    def test_add_comment_edge_records_a_comment_delta(self):
        instance = figure1_instance()
        version = instance.version
        instance.add_comment_edge(URI("cNew"), URI("d0.1"))
        (delta,) = instance.deltas_since(version)
        assert isinstance(delta, CommentEdgeDelta)
        assert delta.comment == URI("cNew")
        assert delta.target == URI("d0.1")

    def test_structural_mutators_record_opaque_deltas(self):
        instance = figure1_instance()
        version = instance.version
        instance.add_user("u99")
        instance.add_social_edge("u1", "u99", 0.4)
        deltas = instance.deltas_since(version)
        # add_social_edge re-registers both endpoints, so the chain holds
        # one delta per version bump — each opaque, each span contiguous.
        assert deltas is not None and len(deltas) >= 2
        assert all(isinstance(delta, OpaqueDelta) for delta in deltas)
        assert {delta.operation for delta in deltas} == {
            "add_user", "add_social_edge"
        }

    def test_chain_is_contiguous_across_mixed_mutations(self):
        instance = figure1_instance()
        version = instance.version
        instance.add_tag(Tag(URI("tA"), URI("d0.1"), URI("u2"), keyword="a"))
        instance.add_user("u98")
        instance.add_comment_edge(URI("cB"), URI("d0.1"))
        deltas = instance.deltas_since(version)
        assert deltas is not None
        assert deltas[0].base_version == version
        for previous, current in zip(deltas, deltas[1:]):
            assert current.base_version == previous.version
        assert deltas[-1].version == instance.version

    def test_current_version_yields_empty_chain(self):
        instance = figure1_instance()
        assert instance.deltas_since(instance.version) == []

    def test_prehistoric_version_yields_none(self):
        # The log starts recording at construction; a version before the
        # first recorded span (or past the ring limit) is unknowable.
        instance = figure1_instance()
        assert instance.deltas_since(-1) is None


# ----------------------------------------------------------------------
# Kernel patching vs the from-scratch oracle
# ----------------------------------------------------------------------
class TestKernelApplyDeltas:
    def _patch(self, instance, mutate):
        kernel = S3kSearch(instance)
        # Warm the caches so scoped eviction has something to scope.
        kernel.search("u1", ["degre"], k=3)
        version = instance.version
        mutate(instance)
        info = kernel.apply_deltas(instance.deltas_since(version))
        return kernel, info

    def test_tag_delta_patches_bit_identically(self):
        instance = figure1_instance()
        kernel, info = self._patch(
            instance,
            lambda inst: inst.add_tag(
                Tag(URI("tZ"), URI("d0.1"), URI("u2"), keyword="ualberta")
            ),
        )
        assert info is not None and info["deltas_applied"] == 1
        oracle = S3kSearch(instance)
        # Structural state matches a rebuild exactly ...
        assert kernel.prox_index._nodes == oracle.prox_index._nodes
        patched = kernel.prox_index._transition_t
        rebuilt = oracle.prox_index._transition_t
        assert np.array_equal(patched.data, rebuilt.data)
        assert np.array_equal(patched.indices, rebuilt.indices)
        assert np.array_equal(patched.indptr, rebuilt.indptr)
        assert kernel._keyword_tags == oracle._keyword_tags
        assert kernel._component_stats == oracle._component_stats
        # ... and so does every answer.
        for seeker in ("u1", "u2", "u4"):
            for keywords in (["ualberta"], ["degre"], ["opinion", "debate"]):
                assert _ranked(kernel.search(seeker, keywords, k=4)) == _ranked(
                    oracle.search(seeker, keywords, k=4)
                )

    def test_new_author_grows_the_universe(self):
        # A tag by a never-seen author adds a node to the proximity
        # universe; the patch must remap every dense index.
        instance = figure1_instance()
        kernel, info = self._patch(
            instance,
            lambda inst: inst.add_tag(
                Tag(URI("tW"), URI("d0.1"), URI("uNew"), keyword="degre")
            ),
        )
        assert info is not None
        oracle = S3kSearch(instance)
        assert kernel.prox_index._nodes == oracle.prox_index._nodes
        assert _ranked(kernel.search("u1", ["degre"], k=5)) == _ranked(
            oracle.search("u1", ["degre"], k=5)
        )

    def test_comment_edge_delta_patches(self):
        instance = figure1_instance()
        kernel, info = self._patch(
            instance,
            lambda inst: inst.add_comment_edge(URI("cFresh"), URI("d0.1")),
        )
        assert info is not None
        oracle = S3kSearch(instance)
        assert _ranked(kernel.search("u1", ["degre"], k=5)) == _ranked(
            oracle.search("u1", ["degre"], k=5)
        )

    def test_opaque_delta_is_refused(self):
        instance = figure1_instance()
        kernel, info = self._patch(
            instance, lambda inst: inst.add_user("u97")
        )
        assert info is None

    def test_cross_component_merge_is_refused(self):
        # Commenting from one existing component onto another merges
        # them: idents shift, which the patch cannot express.
        instance = two_community_instance()
        kernel = S3kSearch(instance)
        assert len(kernel.component_index.components()) == 2
        version = instance.version
        instance.add_comment_edge(URI("docA"), URI("docB"))
        assert kernel.apply_deltas(instance.deltas_since(version)) is None

    def test_applied_deltas_advance_cache_version(self):
        instance = figure1_instance()
        kernel, info = self._patch(
            instance,
            lambda inst: inst.add_tag(
                Tag(URI("tV"), URI("d0.1"), URI("u2"), keyword="degre")
            ),
        )
        assert info is not None
        assert kernel._caches_version == instance.version


# ----------------------------------------------------------------------
# Scoped invalidation (result cache + plan cache)
# ----------------------------------------------------------------------
class TestScopedInvalidation:
    def test_cached_answers_stay_correct_after_a_delta(self):
        # Scoped eviction is an optimization with one obligation: any
        # answer served after the patch — from cache or recomputed —
        # must equal the from-scratch oracle's.
        instance = figure1_instance()
        kernel = S3kSearch(instance)
        kernel.search("u1", ["degre"], k=3)
        kernel.search("u4", ["ualberta"], k=2)
        version = instance.version
        instance.add_tag(Tag(URI("tQ"), URI("d0.1"), URI("u2"), keyword=None))
        assert kernel.apply_deltas(instance.deltas_since(version)) is not None
        for seeker, keywords, k in (
            ("u1", ["degre"], 3),
            ("u4", ["ualberta"], 2),
        ):
            _assert_matches_fresh_kernel(
                kernel.search(seeker, keywords, k=k),
                instance, seeker, keywords, k,
            )

    def test_comment_edge_delta_preserves_extension_plans(self):
        # The regression this PR pins: a comment-edge delta introduces
        # no keywords and no schema triples, so cached Ext(k) entries
        # must survive *by object identity* — not be rebuilt.
        instance = figure1_instance()
        kernel = S3kSearch(instance)
        kernel.search("u1", ["degre"], k=3)
        cache = kernel._plan_cache
        assert cache.extensions, "query should have populated the plan cache"
        before = {key: id(value) for key, value in cache.extensions.items()}
        version = instance.version
        instance.add_comment_edge(URI("cPlan"), URI("d0.1"))
        assert kernel.apply_deltas(instance.deltas_since(version)) is not None
        assert {
            key: id(value) for key, value in cache.extensions.items()
        } == before

    def test_schema_touching_tag_evicts_only_stale_extensions(self):
        # figure1's ontology extends "degre"-related terms; a new tag
        # whose keyword is unrelated must leave the "degre" extension
        # cached while registering its own keyword.
        instance = figure1_instance()
        kernel = S3kSearch(instance)
        kernel.search("u1", ["degre"], k=3)
        cache = kernel._plan_cache
        before = dict(cache.extensions)
        version = instance.version
        instance.add_tag(
            Tag(URI("tR"), URI("d0.1"), URI("u2"), keyword="brandnewterm")
        )
        assert kernel.apply_deltas(instance.deltas_since(version)) is not None
        for key, value in before.items():
            assert cache.extensions.get(key) is value


# ----------------------------------------------------------------------
# Engine facade
# ----------------------------------------------------------------------
class TestEngineMutate:
    def test_mutate_reports_delta_mode(self):
        engine = Engine(figure1_instance())
        engine.search("u1", ["degre"])  # build the kernel first
        response = engine.mutate(
            {"op": "add_tag", "uri": "tE", "subject": "d0.1",
             "author": "u2", "keyword": "livemut"}
        )
        assert response.mode == "delta"
        assert response.version == engine.instance.version
        assert engine.kernel_version == engine.instance.version
        _assert_matches_fresh_kernel(
            engine.search("u1", ["livemut"]).result,
            engine.instance, "u1", ["livemut"], 5,
        )
        engine.close()

    def test_invalidated_kernel_mutation_reports_rebuild(self):
        # invalidate() drops the kernel outright (no delta chain to
        # consume): the next mutation pays a full build and must say so.
        engine = Engine(figure1_instance())
        engine.invalidate()
        response = engine.mutate(
            {"op": "add_tag", "uri": "tE", "subject": "d0.1",
             "author": "u2", "keyword": "livemut"}
        )
        assert response.mode == "rebuild"
        assert response.components_patched == 0
        engine.close()

    def test_opaque_facade_write_falls_back_to_rebuild(self):
        engine = Engine(figure1_instance())
        engine.search("u1", ["degre"])
        engine.add_social_edge("u1", "u4", 0.5)
        engine.search("u1", ["degre"])
        maintenance = engine.stats()["maintenance"]
        assert maintenance["fallback_rebuilds"] == 1
        engine.close()

    def test_maintenance_stats_track_the_pipeline(self):
        engine = Engine(figure1_instance())
        engine.search("u1", ["degre"])
        engine.mutate(
            {"op": "add_tag", "uri": "tE", "subject": "d0.1",
             "author": "u2", "keyword": "livemut"}
        )
        engine.mutate({"op": "add_comment_edge", "comment": "cE", "target": "d0.1"})
        maintenance = engine.stats()["maintenance"]
        assert maintenance["mutations_applied"] == 2
        assert maintenance["deltas_applied"] == 2
        assert maintenance["fallback_rebuilds"] == 0
        assert maintenance["patch_wall_seconds"] >= 0.0
        # The per-stage shares are parts of the patch wall time.
        stages = ("prox_patch_seconds", "connection_patch_seconds", "evict_seconds")
        assert all(maintenance[stage] >= 0.0 for stage in stages)
        assert maintenance["prox_patch_seconds"] > 0.0
        assert (
            sum(maintenance[stage] for stage in stages)
            <= maintenance["patch_wall_seconds"] + 1e-6
        )
        rendered = format_engine_stats(engine.stats())
        assert all(stage in rendered for stage in stages)
        engine.close()

    def test_kernel_version_is_public(self):
        engine = Engine(figure1_instance())
        # The constructor builds the kernel eagerly: already aligned.
        assert engine.kernel_version == engine.instance.version
        # A bare facade write leaves the kernel stale until the next
        # answer — the lag IS the pending-maintenance signal, and
        # reading either property must not trigger the rebuild.
        engine.add_comment_edge("cLag", "d0.1")
        assert engine.kernel_version == engine.instance.version - 1
        assert engine.stats()["engine"]["kernel_version"] == engine.kernel_version
        engine.search("u1", ["degre"])
        assert engine.kernel_version == engine.instance.version
        engine.close()

    def test_invalid_mutations_are_rejected(self):
        engine = Engine(figure1_instance())
        with pytest.raises(ValueError, match="unknown mutation op"):
            engine.mutate({"op": "drop_tables"})
        with pytest.raises(ValueError, match="needs"):
            engine.mutate({"op": "add_tag", "uri": "t1"})
        with pytest.raises(ValueError, match="unknown mutation fields"):
            engine.mutate(
                {"op": "add_comment_edge", "comment": "c", "target": "d0.1",
                 "bogus": 1}
            )
        with pytest.raises(TypeError):
            engine.mutate("add_tag")
        engine.close()

    def test_amutate_serializes_with_queries(self):
        async def scenario():
            engine = Engine(figure1_instance())
            try:
                await engine.asearch({"seeker": "u1", "keywords": ["degre"]})
                response = await engine.amutate(
                    {"op": "add_tag", "uri": "tA", "subject": "d0.1",
                     "author": "u2", "keyword": "asyncword"}
                )
                assert response.mode == "delta"
                answer = await engine.asearch(
                    {"seeker": "u1", "keywords": ["asyncword"]}
                )
                _assert_matches_fresh_kernel(
                    answer.result, engine.instance, "u1", ["asyncword"], 5
                )
            finally:
                await engine.aclose()

        run(scenario())


# ----------------------------------------------------------------------
# JSONL serving loop
# ----------------------------------------------------------------------
class TestServeMutations:
    def test_op_lines_dispatch_to_amutate(self):
        # Two serve calls: the loop answers lines concurrently, so a
        # query racing its own stream's mutation is *allowed* to see
        # the pre-write snapshot — the post-write read goes in a second
        # stream, after the first fully settled.
        out = io.StringIO()
        engine = Engine(figure1_instance())
        counters = run_serve(
            engine,
            [
                json.dumps({"seeker": "u1", "keywords": ["degre"], "id": "q1"}),
                json.dumps({"op": "add_tag", "uri": "tS", "subject": "d0.1",
                            "author": "u1", "keyword": "served", "id": "m1"}),
                json.dumps({"op": "noSuchOp", "id": "m2"}),
            ],
            out.write,
        )
        assert counters == {
            "requests": 3, "answered": 1, "mutated": 1, "errors": 1
        }
        counters = run_serve(
            engine,
            [json.dumps({"seeker": "u1", "keywords": ["served"], "id": "q2"})],
            out.write,
        )
        assert counters == {
            "requests": 1, "answered": 1, "mutated": 0, "errors": 0
        }
        records = {
            json.loads(line)["id"]: json.loads(line)
            for line in out.getvalue().splitlines()
        }
        assert records["m1"]["mode"] == "delta"
        assert records["m1"]["version"] == engine.instance.version
        assert "latency_ms" in records["m1"]
        assert records["m2"]["error"]["status"] == 400
        assert records["m2"]["error"]["type"] == "bad_request"
        assert records["q2"]["results"]


# ----------------------------------------------------------------------
# HTTP tier
# ----------------------------------------------------------------------
class TestHttpMutate:
    def test_mutate_answers_200_with_the_ack_record(self):
        async def scenario():
            async with running_server(Engine(figure1_instance())) as server:
                response = await http_call(
                    server.port, "POST", "/mutate",
                    body={"op": "add_tag", "uri": "tH", "subject": "d0.1",
                          "author": "u2", "keyword": "overhttp", "id": "m1"},
                )
                assert response.status == 200
                record = response.json()
                assert record["id"] == "m1"
                assert record["mode"] in ("delta", "rebuild")
                answer = await http_call(
                    server.port, "POST", "/search",
                    body={"seeker": "u1", "keywords": ["overhttp"]},
                )
                assert answer.status == 200
                assert answer.json()["results"]
                stats = await http_call(server.port, "GET", "/stats")
                assert stats.json()["server"]["mutations_applied"] == 1

        run(scenario())

    def test_malformed_mutations_answer_400(self):
        async def scenario():
            async with running_server(Engine(figure1_instance())) as server:
                bad_op = await http_call(
                    server.port, "POST", "/mutate", body={"op": "nope"}
                )
                assert bad_op.status == 400
                assert bad_op.json()["error"]["type"] == "bad_request"
                not_json = await http_call(
                    server.port, "POST", "/mutate", body="not json"
                )
                assert not_json.status == 400
                wrong_method = await http_call(server.port, "GET", "/mutate")
                assert wrong_method.status == 405
                assert wrong_method.headers["allow"] == "POST"

        run(scenario())

    def test_queue_full_answers_429(self):
        from repro.engine import FaultInjector

        async def scenario():
            faults = FaultInjector()
            async with running_server(
                Engine(figure1_instance()), faults=faults
            ) as server:
                faults.force_queue_full = True
                response = await http_call(
                    server.port, "POST", "/mutate",
                    body={"op": "add_comment_edge", "comment": "c9",
                          "target": "d0.1"},
                )
                assert response.status == 429
                assert "retry-after" in response.headers
                stats = await http_call(server.port, "GET", "/stats")
                assert stats.json()["server"]["rejected_429"] >= 1

        run(scenario())

    def test_draining_server_rejects_mutations(self):
        import asyncio

        from repro.engine import FaultInjector
        from repro.engine.http import HttpClientConnection

        async def scenario():
            faults = FaultInjector()
            faults.hold_kernel()  # parks an in-flight search: the drain
            # cannot finish until released, pinning the draining state.
            async with running_server(
                Engine(figure1_instance()), faults=faults
            ) as server:
                busy = await HttpClientConnection.open(server.port)
                probe = await HttpClientConnection.open(server.port)
                try:
                    inflight = asyncio.ensure_future(
                        busy.request(
                            "POST", "/search",
                            body={"seeker": "u1", "keywords": ["degre"]},
                        )
                    )
                    await server.wait_for_inflight(1)
                    drain = asyncio.ensure_future(server.drain())
                    await server.drain_started.wait()
                    response = await probe.request(
                        "POST", "/mutate",
                        body={"op": "add_comment_edge", "comment": "c9",
                              "target": "d0.1"},
                    )
                    assert response.status == 503
                    assert response.json()["error"]["type"] == "draining"
                    faults.release_kernel()
                    assert (await inflight).status == 200
                    await drain
                finally:
                    await busy.aclose()
                    await probe.aclose()

        run(scenario())


# ----------------------------------------------------------------------
# Sharded barrier
# ----------------------------------------------------------------------
class TestShardedMutate:
    def test_barrier_brings_every_shard_to_the_new_version(self):
        engine = ShardedEngine(figure1_instance(), shards=2)
        try:
            response = engine.mutate(
                {"op": "add_tag", "uri": "tB", "subject": "d0.1",
                 "author": "u2", "keyword": "broadcast"}
            )
            assert response.version == engine.instance.version
            stats = engine.stats()
            assert stats["router"]["mutation_generation"] == 1
            assert stats["engine"]["kernel_version"] == response.version
            # Fan a batch across both shards: every worker must answer
            # from the post-write snapshot.
            queries = [
                (f"u{i}", ["broadcast"]) for i in range(5)
            ]
            oracle = S3kSearch(engine.instance)
            for (seeker, keywords), answer in zip(
                queries, engine.search_many(queries, k=4)
            ):
                assert _ranked(answer.result) == _ranked(
                    oracle.search(seeker, keywords, k=4)
                )
            stats = engine.stats()
            assert stats["maintenance"]["mutations_applied"] >= 2  # both workers
            assert stats["maintenance"]["prox_patch_seconds"] > 0.0
            # The workers' kernel counters roll up like the other blocks.
            assert stats["exploration"]["bounds_refresh_rows"] >= 1
            assert stats["exploration"]["phase_step_seconds"] >= 0.0
        finally:
            engine.close()

    def test_amutate_runs_off_the_event_loop(self):
        async def scenario():
            engine = ShardedEngine(figure1_instance(), shards=2)
            try:
                response = await engine.amutate(
                    {"op": "add_comment_edge", "comment": "cS",
                     "target": "d0.1"}
                )
                assert response.version == engine.instance.version
            finally:
                await engine.aclose()

        run(scenario())


# ----------------------------------------------------------------------
# The interleaved mutate/query oracle sweep
# ----------------------------------------------------------------------
def _mutation_step(rng, instance, serial):
    """One random mutation against *instance*'s current state.

    Mixes expressible deltas (tags on existing nodes — sometimes by a
    brand-new author, growing the proximity universe — and fresh
    comment documents) with occasional cross-document comment edges
    that may merge components and force the rebuild fallback: the
    oracle must hold on *both* paths.
    """
    nodes = sorted(
        node for doc in instance.documents.values() for node in
        (n.uri for n in doc.nodes())
    )
    users = sorted(instance.users)
    roll = rng.random()
    if roll < 0.6:
        author = (
            URI(f"w{serial}") if rng.random() < 0.3 else rng.choice(users)
        )
        keyword = rng.choice(VOCABULARY) if rng.random() < 0.8 else None
        return {
            "op": "add_tag",
            "uri": f"live_t{serial}",
            "subject": rng.choice(nodes),
            "author": author,
            "keyword": keyword,
        }
    if roll < 0.85:
        return {
            "op": "add_comment_edge",
            "comment": f"live_c{serial}",
            "target": rng.choice(nodes),
        }
    documents = sorted(instance.documents)
    comment = rng.choice(documents)
    target = rng.choice([node for node in nodes if node != comment])
    return {"op": "add_comment_edge", "comment": comment, "target": target}


def _sweep_queries(rng, instance):
    users = sorted(instance.users)
    picks = []
    for _ in range(3):
        seeker = rng.choice(users)
        keywords = rng.sample(VOCABULARY, rng.randint(1, 2))
        picks.append((seeker, keywords))
    return picks


class TestInterleavedOracleSweep:
    @pytest.mark.parametrize("seed", range(N_RANDOM_INSTANCES))
    def test_single_process_engine_matches_rebuild(self, seed):
        rng = random.Random(2000 + seed)
        instance = random_instance(rng)
        engine = Engine(instance)
        try:
            for serial in range(3):
                engine.mutate(_mutation_step(rng, instance, serial))
                oracle = S3kSearch(instance)
                for seeker, keywords in _sweep_queries(rng, instance):
                    assert _ranked(
                        engine.search(seeker, keywords, k=4).result
                    ) == _ranked(oracle.search(seeker, keywords, k=4)), (
                        seed, serial, seeker, keywords
                    )
        finally:
            engine.close()

    @pytest.mark.parametrize("seed", range(N_SHARDED_INSTANCES))
    def test_sharded_engine_matches_rebuild(self, seed):
        rng = random.Random(3000 + seed)
        instance = random_instance(rng)
        engine = ShardedEngine(instance, shards=2)
        try:
            for serial in range(2):
                engine.mutate(_mutation_step(rng, engine.instance, serial))
                oracle = S3kSearch(engine.instance)
                for seeker, keywords in _sweep_queries(rng, engine.instance):
                    assert _ranked(
                        engine.search(seeker, keywords, k=4).result
                    ) == _ranked(oracle.search(seeker, keywords, k=4)), (
                        seed, serial, seeker, keywords
                    )
        finally:
            engine.close()
