"""Batched execution (``S3kSearch.search_many``) vs sequential ``search``.

The contract under test (ISSUE 1): batched lock-step execution returns
**bit-identical** ``RankedResult`` lists to running every query through
``search`` on its own — on the paper fixtures and on randomized
instances — and the batched answers still agree with the exhaustive
oracle of :mod:`repro.core.oracle`.
"""

import random

import pytest

from repro.core import S3kSearch, exact_scores, exact_top_k
from repro.queries import QuerySpec

from .fixtures import figure1_instance, figure3_instance, two_community_instance
from .instance_gen import VOCABULARY, random_instance

#: Randomized instances checked for batched/sequential agreement
#: (acceptance criterion: >= 50).
N_RANDOM_INSTANCES = 50


def _batch_for(instance, rng, n_queries=6):
    seekers = sorted(instance.users)
    queries = []
    for _ in range(n_queries):
        queries.append(
            (
                rng.choice(seekers),
                rng.sample(VOCABULARY, rng.randint(1, 2)),
                rng.choice([1, 3, 5]),
            )
        )
    return queries


def _assert_bit_identical(engine, queries, batch_results):
    assert len(batch_results) == len(queries)
    for index, ((seeker, keywords, k), batched) in enumerate(
        zip(queries, batch_results)
    ):
        single = engine.search(seeker, keywords, k=k)
        assert batched.results == single.results
        assert batched.iterations == single.iterations
        assert batched.terminated_by == single.terminated_by
        assert batched.batch_index == index


class TestFixtureEquivalence:
    def test_figure1_grid(self):
        instance = figure1_instance()
        engine = S3kSearch(instance)
        queries = [
            (seeker, keywords, k)
            for seeker in ("u0", "u1", "u4")
            for keywords in (["debate"], ["degre"], ["university", "degre"])
            for k in (1, 3, 5)
        ]
        _assert_bit_identical(engine, queries, engine.search_many(queries))

    def test_figure3_grid(self):
        instance = figure3_instance()
        engine = S3kSearch(instance)
        queries = [
            (seeker, [keyword], k)
            for seeker in ("u0", "u1", "u2", "u3")
            for keyword in ("k0", "k1", "k2")
            for k in (1, 2, 5)
        ]
        _assert_bit_identical(engine, queries, engine.search_many(queries))

    def test_two_communities_mixed_seekers(self):
        instance = two_community_instance()
        engine = S3kSearch(instance)
        queries = [(f"u{i}", ["python"], 2) for i in range(6)]
        _assert_bit_identical(engine, queries, engine.search_many(queries))


class TestRandomizedEquivalence:
    @pytest.mark.parametrize("seed", range(N_RANDOM_INSTANCES))
    def test_batch_matches_sequential_and_oracle(self, seed):
        rng = random.Random(seed)
        instance = random_instance(rng)
        engine = S3kSearch(instance)
        queries = _batch_for(instance, rng, n_queries=4)
        batch = engine.search_many(queries)
        _assert_bit_identical(engine, queries, batch)
        # Oracle agreement for the batched answers (threshold-terminated
        # queries answer exactly per Definition 3.2).
        for (seeker, keywords, k), result in zip(queries, batch):
            if result.terminated_by != "threshold":
                continue
            exact = exact_scores(instance, seeker, keywords)
            for ranked in result.results:
                value = exact.get(ranked.uri, 0.0)
                assert ranked.lower - 1e-9 <= value <= ranked.upper + 1e-9
            got = sorted((exact.get(u, 0.0) for u in result.uris), reverse=True)
            want = sorted(
                (s for _, s in exact_top_k(instance, seeker, keywords, k)),
                reverse=True,
            )
            assert len(got) == len(want)
            for g, w in zip(got, want):
                assert g == pytest.approx(w, rel=1e-6, abs=1e-12)


class TestBatchSemantics:
    def test_empty_batch(self):
        engine = S3kSearch(figure1_instance())
        assert engine.search_many([]) == []

    def test_accepts_query_specs_and_tuples(self):
        engine = S3kSearch(figure1_instance())
        from repro.rdf import URI

        mixed = [
            QuerySpec(URI("u1"), ("debate",), 3),
            ("u1", ["debate"]),
            ("u1", ["debate"], 3),
        ]
        results = engine.search_many(mixed, k=3)
        assert results[0].results == results[1].results == results[2].results

    def test_rejects_malformed_queries(self):
        engine = S3kSearch(figure1_instance())
        with pytest.raises(TypeError):
            engine.search_many([("u1",)])

    def test_unknown_seeker_raises(self):
        engine = S3kSearch(figure1_instance())
        with pytest.raises(KeyError):
            engine.search_many([("u:ghost", ["debate"])])

    def test_duplicate_queries_coalesce(self):
        instance = figure1_instance()
        engine = S3kSearch(instance)
        queries = [("u1", ["debate"], 3)] * 4 + [("u0", ["degre"], 3)]
        results = engine.search_many(queries)
        single = engine.search("u1", ["debate"], k=3)
        for index in range(4):
            assert results[index].results == single.results
            assert results[index].batch_index == index
        assert results[4].results == engine.search("u0", ["degre"], k=3).results

    def test_per_query_k_overrides_default(self):
        engine = S3kSearch(figure1_instance())
        small, large = engine.search_many(
            [("u1", ["debate"], 1), ("u1", ["debate"], 5)], k=3
        )
        assert len(small.results) <= 1
        assert small.k == 1 and large.k == 5

    def test_anytime_budget_applies_per_query(self):
        engine = S3kSearch(figure1_instance())
        results = engine.search_many(
            [("u1", ["debate"]), ("u0", ["degre"])], k=3, max_iterations=1
        )
        for result in results:
            assert result.iterations <= 1

    def test_wall_time_and_batch_index_populated(self):
        engine = S3kSearch(figure1_instance())
        results = engine.search_many([("u1", ["debate"]), ("u0", ["degre"])], k=3)
        for index, result in enumerate(results):
            assert result.batch_index == index
            assert result.wall_time > 0.0

    def test_sequential_search_reports_wall_time(self):
        engine = S3kSearch(figure1_instance())
        result = engine.search("u1", ["debate"], k=3)
        assert result.wall_time == result.elapsed_seconds > 0.0
        assert result.batch_index == 0

    def test_naive_engine_batches_too(self):
        instance = figure1_instance()
        engine = S3kSearch(instance, use_matrix=False)
        queries = [("u1", ["debate"], 3), ("u0", ["degre"], 3)]
        _assert_bit_identical(engine, queries, engine.search_many(queries))


class TestMixedBudgetEquivalence:
    """ISSUE 9: budgeted and unbudgeted columns in ONE batch, retiring at
    different iterations, must stay bit-identical to per-query ``search``
    with the same per-query budgets — including ``terminated_by``."""

    @pytest.mark.parametrize("seed", range(1000, 1000 + N_RANDOM_INSTANCES))
    def test_mixed_k_and_anytime_budgets_in_one_batch(self, seed):
        from repro.engine import QueryRequest

        rng = random.Random(seed)
        instance = random_instance(rng)
        engine = S3kSearch(instance, result_cache_size=0)
        seekers = sorted(instance.users)
        requests = []
        for index in range(6):
            seeker = rng.choice(seekers)
            keywords = tuple(rng.sample(VOCABULARY, rng.randint(1, 2)))
            k = rng.choice([1, 2, 5])
            if index % 3 == 1:
                # hard iteration budget: retires early, answers "anytime"
                budget = {"max_iterations": rng.choice([1, 2, 4])}
            elif index % 3 == 2:
                # huge time budget: never fires, must not perturb results
                budget = {"time_budget": 1e6}
            else:
                budget = {}
            requests.append(QueryRequest(seeker, keywords, k=k, **budget))
        batch = engine.search_many(requests)
        assert len(batch) == len(requests)
        for index, (request, batched) in enumerate(zip(requests, batch)):
            single = engine.search(
                request.seeker,
                request.keywords,
                k=request.k,
                max_iterations=request.max_iterations,
                time_budget=request.time_budget,
            )
            assert batched.results == single.results
            assert batched.iterations == single.iterations
            assert batched.terminated_by == single.terminated_by
            assert batched.batch_index == index
            if request.max_iterations is not None:
                assert batched.iterations <= request.max_iterations
            assert batched.terminated_by in ("threshold", "anytime")

    def test_budgeted_and_unbudgeted_retire_at_different_iterations(self):
        from repro.engine import QueryRequest

        engine = S3kSearch(two_community_instance(), result_cache_size=0)
        requests = [
            QueryRequest("u0", ("python",), k=2),
            QueryRequest("u0", ("python",), k=2, max_iterations=1),
        ]
        free, capped = engine.search_many(requests)
        assert capped.iterations == 1
        assert capped.terminated_by == "anytime"
        assert free.terminated_by == "threshold"
        assert free.iterations > capped.iterations
        # the unbudgeted column kept exploring after the budgeted one
        # retired, and still matches its sequential answer exactly
        single = engine.search("u0", ["python"], k=2)
        assert free.results == single.results


class TestBatchCacheReplay:
    def test_replay_refreshes_both_timing_fields(self):
        engine = S3kSearch(figure1_instance(), result_cache_size=8)
        queries = [("u1", ["debate"], 3)]
        first = engine.search_many(queries)[0]
        replayed = engine.search_many(queries)[0]
        assert engine.cache_stats["hits"] >= 1
        assert replayed.results == first.results
        # ISSUE 9 satellite: search_many replays used to refresh only
        # wall_time, leaving elapsed_seconds stale from the cached result;
        # both paths must keep the two fields consistent.
        assert replayed.wall_time == replayed.elapsed_seconds
        assert replayed.wall_time > 0.0

    def test_sequential_replay_keeps_fields_consistent(self):
        engine = S3kSearch(figure1_instance(), result_cache_size=8)
        engine.search("u1", ["debate"], k=3)
        replayed = engine.search("u1", ["debate"], k=3)
        assert engine.cache_stats["hits"] >= 1
        assert replayed.wall_time == replayed.elapsed_seconds > 0.0


class TestExplorationCounters:
    def test_fast_and_full_counters_cover_every_certification(self):
        engine = S3kSearch(two_community_instance(), result_cache_size=0)
        queries = [(f"u{i}", ["python"], 2) for i in range(6)]
        results = engine.search_many(queries)
        stats = engine.exploration_stats
        total_iterations = sum(r.iterations for r in results)
        # every iteration of every live query certified its stop exactly
        # once, through either the bracket screen or the exact replay
        stop_total = stats["stop_checks_fast"] + stats["stop_checks_full"]
        assert stop_total >= total_iterations
        clean_total = stats["clean_checks_fast"] + stats["clean_checks_full"]
        assert clean_total >= 1
        assert stats["bounds_refresh_rows"] >= 1

    def test_counters_are_monotone_across_batches(self):
        engine = S3kSearch(figure1_instance(), result_cache_size=0)
        engine.search_many([("u1", ["debate"], 3)])
        before = dict(engine.exploration_stats)
        engine.search_many([("u0", ["degre"], 3)])
        after = engine.exploration_stats
        for name, value in before.items():
            assert after[name] >= value

    def test_phase_seconds_populated_by_batched_loop(self):
        engine = S3kSearch(figure1_instance(), result_cache_size=0)
        engine.search_many([("u1", ["debate"], 3), ("u0", ["degre"], 3)])
        stats = engine.exploration_stats
        phases = {
            name: stats[name]
            for name in stats
            if str(name).startswith("phase_")
        }
        assert set(phases) == {
            "phase_step_seconds",
            "phase_discover_seconds",
            "phase_bounds_seconds",
            "phase_clean_stop_seconds",
        }
        assert sum(phases.values()) > 0.0

    def test_batch_stats_surface_exploration_counters(self):
        from repro.queries import Workload
        from repro.queries.runner import run_workload_batched

        instance = figure1_instance()
        engine = S3kSearch(instance, result_cache_size=0)
        workload = Workload(name="w", frequency="+", n_keywords=1, k=3)
        workload.queries = [
            QuerySpec("u1", ("debate",), 3),
            QuerySpec("u0", ("degre",), 3),
        ]
        stats = run_workload_batched(engine, workload, batch_size=2)
        assert stats.exploration_stats["stop_checks_fast"] + stats.exploration_stats[
            "stop_checks_full"
        ] >= 1
        assert stats.exploration_stats["bounds_refresh_rows"] >= 1
