"""Inputs of the end-to-end benchmark: the seeded store and the requests.

**Instance.**  ``I1x5`` is ``build_twitter_instance(TwitterConfig()
.scaled(SCALE))`` saved through ``SQLiteStore.save_instance`` — what
``python -m repro generate --dataset twitter --scale 5`` writes.  The
instance seed is fixed (it is part of ``TwitterConfig``); only the
*workload* seed varies between runs.  The raw store (no index slabs) is
cached by config hash under ``results/cache/`` and copied fresh for every
run, so ``python -m repro index`` — part of ``setup_s`` — is re-measured
each time and a run can never see another run's slabs or sidecars.

**Requests.**  Every generator takes the workload seed and yields plain
JSON-able mappings; the program under test only ever sees those.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import random
import shutil
import time
from dataclasses import asdict
from pathlib import Path
from typing import Dict, Iterator, List, Tuple

from repro.datasets import TwitterConfig, build_twitter_instance
from repro.queries import WorkloadBuilder
from repro.queries.workload import (
    connected_seekers,
    document_frequencies,
    frequency_buckets,
)
from repro.rdf.terms import URI
from repro.storage import SQLiteStore

HERE = Path(__file__).resolve().parent
RESULTS = HERE / "results"

#: Size multiplier over the default ``TwitterConfig`` (I1): the largest
#: instance whose index + boot + oracle load leave room for the timed
#: phase inside the driver's per-run budget.  ``--smoke`` uses 1.
SCALE = 5
#: Requests of the zipf-hot pool and its skew (``http_hot``, half of
#: ``sharded_rw``'s reads).
HOT_POOL = 64
ZIPF_S = 1.1
#: ``sharded_rw`` issues one write after this many reads.
READS_PER_WRITE = 50
#: ``batch_grid`` batch size and its qsets: (metric suffix, f, l, k).
BATCH_SIZE = 32
QSETS: List[Tuple[str, str, int, int]] = [
    ("qset_p1k5", "+", 1, 5),
    ("qset_m1k5", "-", 1, 5),
    ("qset_p5k10", "+", 5, 10),
    ("qset_m5k10", "-", 5, 10),
    ("qset_p1k50", "+", 1, 50),
]


def instance_config(smoke: bool) -> TwitterConfig:
    return TwitterConfig().scaled(1 if smoke else SCALE)


def raw_store(smoke: bool) -> Tuple[Path, Dict[str, object]]:
    """The cached raw store for the configuration, built on first use.

    Returns its path and the preparation record (generate / save wall
    seconds as measured when the cache entry was built).
    """
    config = asdict(instance_config(smoke))
    digest = hashlib.sha256(
        json.dumps(config, sort_keys=True).encode()
    ).hexdigest()[:12]
    cache = RESULTS / "cache"
    path, record_path = cache / f"twitter-{digest}.db", cache / f"twitter-{digest}.json"
    if path.exists() and record_path.exists():
        return path, json.loads(record_path.read_text())
    cache.mkdir(parents=True, exist_ok=True)
    started = time.perf_counter()
    instance = build_twitter_instance(instance_config(smoke)).instance
    generated = time.perf_counter()
    # Build under a private name and publish with a rename: a concurrent
    # or killed run must never leave a half-written store in the cache.
    partial = cache / f"twitter-{digest}.{os.getpid()}.partial"
    with SQLiteStore(partial) as store:
        store.save_instance(instance)
    saved = time.perf_counter()
    record = {
        "config": config,
        "generate_s": generated - started,
        "save_instance_s": saved - generated,
        "raw_db_bytes": partial.stat().st_size,
    }
    os.replace(partial, path)
    record_path.write_text(json.dumps(record, indent=2) + "\n")
    return path, record


def fresh_store(run_dir: Path, smoke: bool) -> Tuple[Path, Dict[str, object]]:
    """A private, un-indexed copy of the raw store inside *run_dir*."""
    source, record = raw_store(smoke)
    target = run_dir / "store.db"
    shutil.copyfile(source, target)
    return target, record


class Requests:
    """Seeded request generators over one loaded instance."""

    def __init__(self, instance, seed: int):
        self.instance = instance
        self.seed = seed
        self.seekers = connected_seekers(instance)
        _rare, common = frequency_buckets(document_frequencies(instance))
        # JSON can only carry literal keywords (a string on the wire is
        # coerced to a Literal), so the HTTP pools leave URI terms out.
        self.common = [term for term in common if not isinstance(term, URI)]
        self.documents = sorted(instance.documents)
        self.users = sorted(instance.users)

    def _rng(self, stream: str) -> random.Random:
        # One independent stream per purpose: the warm-up must not shift
        # the timed sequence, and a change to one workload's generator
        # must not move another's.
        return random.Random(f"{self.seed}/{stream}")

    @staticmethod
    def _query(seeker, keyword, k: int = 5) -> Dict[str, object]:
        return {"seeker": str(seeker), "keywords": [str(keyword)], "k": k}

    def unique(self, stream: str = "unique") -> Iterator[Dict[str, object]]:
        """Distinct ``(seeker, common keyword)`` pairs, ``l=1, k=5``."""
        rng = self._rng(stream)
        seen = set()
        while True:
            pair = (rng.choice(self.seekers), rng.choice(self.common))
            if pair not in seen:
                seen.add(pair)
                yield self._query(*pair)

    def hot(self, stream: str = "hot") -> Iterator[Dict[str, object]]:
        """Zipf(s) draws from a pool of ``HOT_POOL`` distinct queries."""
        pool = [q for q, _ in zip(self.unique(f"{stream}/pool"), range(HOT_POOL))]
        weights = [1.0 / (rank ** ZIPF_S) for rank in range(1, len(pool) + 1)]
        rng = self._rng(stream)
        while True:
            yield from rng.choices(pool, weights=weights, k=256)

    def mixed(self) -> Iterator[Dict[str, object]]:
        """``sharded_rw``: reads alternate hot pool / unique; one
        ``add_tag`` (fresh URI, existing document node, common keyword —
        always delta-expressible) after every ``READS_PER_WRITE`` reads."""
        hot, unique = self.hot("rw/hot"), self.unique("rw/unique")
        writes = self.writes("rw")
        while True:
            for position in range(READS_PER_WRITE):
                yield next(hot) if position % 2 == 0 else next(unique)
            yield next(writes)

    def writes(self, stream: str) -> Iterator[Dict[str, object]]:
        rng = self._rng(f"{stream}/writes")
        for number in itertools.count():
            yield {
                "op": "add_tag",
                "uri": f"bench:{stream}:{self.seed}:{number}",
                "subject": str(rng.choice(self.documents)),
                "author": str(rng.choice(self.users)),
                "keyword": str(rng.choice(self.common)),
            }

    def grid(self) -> Iterator[Tuple[str, List[Dict[str, object]]]]:
        """``batch_grid``: batches of ``BATCH_SIZE`` queries, unique within
        their qset, cycling round-robin through :data:`QSETS` so a
        time-bounded run covers every qset equally."""
        builder = WorkloadBuilder(self.instance, seed=self.seed)
        seen = {name: set() for name, *_ in QSETS}
        while True:
            for name, frequency, n_keywords, k in QSETS:
                batch: List[Dict[str, object]] = []
                while len(batch) < BATCH_SIZE:
                    for spec in builder.build(
                        frequency, n_keywords, k, BATCH_SIZE - len(batch)
                    ).queries:
                        key = (spec.seeker, frozenset(spec.keywords))
                        if key not in seen[name]:
                            seen[name].add(key)
                            batch.append(
                                {
                                    "seeker": str(spec.seeker),
                                    # batch_stack.decode_query restores
                                    # URI keywords (entities of the KB).
                                    "keywords": [
                                        {"uri": str(kw)} if isinstance(kw, URI) else str(kw)
                                        for kw in spec.keywords
                                    ],
                                    "k": spec.k,
                                }
                            )
                yield name, batch
