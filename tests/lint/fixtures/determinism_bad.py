"""Deliberate determinism violations (never imported).

Shaped like core-kernel code: the rule scopes to ``src/repro/core/``.
"""

import random
import time

import numpy as np


def breaks_tie_with_global_rng(candidates):
    return random.choice(candidates)  # BAD: unseeded global RNG


def samples_with_numpy_global(weights):
    return np.random.rand(len(weights))  # BAD: numpy's global RNG


def constructs_unseeded_generator():
    return np.random.default_rng()  # BAD: no seed argument


def constructs_unseeded_random():
    return random.Random()  # BAD: OS-entropy seeding


def stamps_results_with_wall_clock(result):
    result.created_at = time.time()  # BAD: wall clock in a kernel
    return result


def times_outside_the_budget_hooks(matrix, border):
    started = time.perf_counter()  # BAD: not a sanctioned budget hook
    product = matrix @ border
    return product, time.perf_counter() - started  # BAD: same, again


class S3kSearch:
    def _score_candidates(self, candidates):
        return sorted(candidates, key=lambda c: random.random())  # BAD

    def _update_bounds(self, state, tail_bound):
        # The loop's bookkeeping helpers are NOT budget hooks: only
        # search_many itself may time its phases.
        started = time.perf_counter()  # BAD: loop helper reads the clock
        state.layout.screen_cache = None
        self.phase_seconds = time.perf_counter() - started  # BAD: same
