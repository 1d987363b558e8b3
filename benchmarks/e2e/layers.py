"""Per-layer metrics: counts from stats deltas, self times from spans.

Layer = module of ``src/repro``.  Counts are ``GET /stats`` /
``Engine.stats()`` deltas around the measured region of a ``--trace 1``
run (wrappers do not change counts); self times come from its *traced*
slices (see ``tracer.py`` and ``loadgen.run_pass``) and are reported as
mean milliseconds **per client read operation**, so that on every workload

    mean client latency = sum of the layers' self times + unattributed

(``trace.unattributed_pct`` is the part no layer accounts for).  Every
metric is emitted on every workload; one that does not apply reads 0.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from loadgen import Pass
from prepare import QSETS

Metrics = Dict[str, Tuple[float, str]]

#: name -> unit of every per-layer metric (``BENCHMARK.json`` lists the same).
UNITS: Dict[str, str] = {
    "storage.db_bytes": "bytes",
    "storage.load_instance_s": "s",
    "storage.adopt_slabs_s": "s",
    "slab_store.sidecar_export_s": "s",
    "slab_store.placed_bytes": "bytes",
    "connection_index.build_s": "s",
    "connection_index.size_bytes": "bytes",
    "connection_index.gather_self_ms": "ms",
    "connection_index.apply_delta_ms": "ms",
    "prox.step_self_ms": "ms",
    "prox.step_calls": "count",
    "prox.step_columns": "count",
    "prox.apply_delta_ms": "ms",
    "search.self_ms": "ms",
    "search.phase_step_s": "s",
    "search.phase_discover_s": "s",
    "search.phase_bounds_s": "s",
    "search.phase_clean_stop_s": "s",
    "search.iterations_per_query": "count",
    "search.screen_stop_rate": "ratio",
    "search.screen_clean_rate": "ratio",
    "search.apply_deltas_ms": "ms",
    **{f"search.qps.{name}": "1/s" for name, *_ in QSETS},
    "request.parse_us": "us",
    "request.serialize_us": "us",
    "facade.self_ms": "ms",
    "facade.result_cache_hit_rate": "ratio",
    "facade.boot_s": "s",
    "facade.kernel_rebuilds": "count",
    "facade.fallback_rebuilds": "count",
    "batcher.wait_ms": "ms",
    "batcher.mean_batch_size": "count",
    "batcher.collapse_rate": "ratio",
    "batcher.deadline_flush_share": "ratio",
    "http.self_ms": "ms",
    "http.boot_s": "s",
    "http.rejected_429": "count",
    "http.deadline_504": "count",
    "http.client_p99_ms": "ms",
    "sharded.hop_ms": "ms",
    "sharded.barrier_ms": "ms",
    "sharded.load_imbalance": "ratio",
    "sharded.boot_s": "s",
    "sharded.worker_respawns": "count",
    "trace.overhead_pct": "%",
    "trace.unattributed_pct": "%",
}

#: Span name -> the read-path layer its self time is charged to.
_READ_LAYER = {
    "QueryRequest.from_obj": "parse",
    "QueryResponse.to_dict": "serialize",
    "Engine.asearch": "facade",
    "Engine.search_many": "facade",
    "Batcher.submit": "batcher",
    "S3kSearch.search": "search",
    "S3kSearch.search_many": "search",
    "ProximityIndex.step": "prox",
    "ProximityIndex.step_many": "prox",
    "ConnectionIndex.candidate_documents": "gather",
    "ConnectionIndex.keyword_evidence": "gather",
    "ShardedEngine.asearch": "hop",
    "route_shard": "hop",
}


class Trace:
    """Spans of one process, indexed for self-time arithmetic."""

    def __init__(self, spans: List[list], window: Tuple[float, float] = (0.0, float("inf"))):
        lo, hi = window
        self.spans = [span for span in spans if span[1] >= lo and span[2] <= hi]
        self.by_id = {span[3]: span for span in self.spans}
        self.children: Dict[int, List[list]] = {}
        for span in self.spans:
            self.children.setdefault(span[4], []).append(span)

    def named(self, name: str) -> List[list]:
        return [span for span in self.spans if span[0] == name]

    @staticmethod
    def duration(span: list) -> float:
        return span[2] - span[1]

    def self_s(self, span: list) -> float:
        """Duration minus the part of it the child spans cover."""
        covered, reach = 0.0, span[1]
        for child in sorted(self.children.get(span[3], []), key=lambda c: c[1]):
            start, end = max(child[1], reach), min(child[2], span[2])
            if end > start:
                covered += end - start
                reach = end
        return self.duration(span) - covered

    def root(self, span: list) -> list:
        while span[4] in self.by_id:
            span = self.by_id[span[4]]
        return span

    def mean_s(self, name: str, self_time: bool = False) -> float:
        spans = self.named(name)
        if not spans:
            return 0.0
        measure = self.self_s if self_time else self.duration
        return sum(measure(span) for span in spans) / len(spans)


def read_layers(trace: Trace) -> Dict[str, float]:
    """Total seconds each read-path layer kept client reads waiting.

    A micro-batch's kernel span runs on the executor thread and answers
    several ``Batcher.submit`` spans at once; every one of those callers
    waits for all of it (lock-step), so the kernel subtree is charged
    once per caller — scaled by the share of it that caller was actually
    waiting for, which is less than 1 when it collapsed onto a
    computation already in flight.
    """
    totals = {layer: 0.0 for layer in set(_READ_LAYER.values())}
    weight: Dict[int, float] = {}
    for submit in trace.named("Batcher.submit"):
        kernel = trace.by_id.get(submit[5].get("compute", 0))
        if kernel is None:
            continue
        overlap = min(kernel[2], submit[2]) - max(kernel[1], submit[1])
        if overlap > 0:
            weight[kernel[3]] = weight.get(kernel[3], 0.0) + overlap / Trace.duration(kernel)
            totals["batcher"] -= overlap
    for span in trace.spans:
        layer = _READ_LAYER.get(span[0])
        if layer is None:
            continue
        root = trace.root(span)
        # Kernel spans nested under a caller (batch_grid) count once.
        share = weight.get(root[3], 0.0) if root[0] == "S3kSearch.search_many" else 1.0
        totals[layer] += trace.self_s(span) * share
    for routed in trace.named("ShardedEngine.asearch"):
        # Workers export no spans: the kernel wall they report is the
        # search layer, the rest of the router span is the hop.
        kernel_s = routed[5].get("kernel_s", 0.0)
        totals["hop"] -= kernel_s
        totals["search"] += kernel_s
    return totals


def _delta(after: Dict, before: Dict, section: str, name: str) -> float:
    return float(after.get(section, {}).get(name, 0)) - float(
        before.get(section, {}).get(name, 0)
    )


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(
    outcome: Pass, index_spans: List[list], db_bytes: int, http: bool
) -> Metrics:
    values = {name: 0.0 for name in UNITS}
    untraced, traced = outcome.timed, outcome.traced
    before, after = outcome.stats_before, outcome.stats_after

    def delta(section: str, name: str) -> float:
        return _delta(after, before, section, name)

    # -- counts around the measured region -------------------------------
    reads = [r for r in untraced.of_kind("read", "batch") if r.ok]
    answers = [
        answer
        for record in reads
        for answer in (
            record.payload["results"] if record.op.kind == "batch" else [record.payload]
        )
    ]
    values["storage.db_bytes"] = db_bytes
    values["slab_store.placed_bytes"] = outcome.sidecar_bytes
    values["connection_index.size_bytes"] = float(
        after.get("connection_index", {}).get("size_bytes", 0)
    )
    for phase in ("step", "discover", "bounds", "clean_stop"):
        values[f"search.phase_{phase}_s"] = delta("exploration", f"phase_{phase}_seconds")
    values["search.iterations_per_query"] = _ratio(
        sum(answer["iterations"] for answer in answers), len(answers)
    )
    for check in ("stop", "clean"):
        fast = delta("exploration", f"{check}_checks_fast")
        full = delta("exploration", f"{check}_checks_full")
        values[f"search.screen_{check}_rate"] = _ratio(fast, fast + full)
    for name, *_ in QSETS:
        batches = [r for r in reads if r.op.tag == name]
        values[f"search.qps.{name}"] = _ratio(
            sum(r.op.queries for r in batches), sum(r.end - r.start for r in batches)
        )
    hits, misses = delta("result_cache", "hits"), delta("result_cache", "misses")
    values["facade.result_cache_hit_rate"] = _ratio(hits, hits + misses)
    values["facade.kernel_rebuilds"] = delta("engine", "kernel_rebuilds")
    values["facade.fallback_rebuilds"] = delta("maintenance", "fallback_rebuilds")
    batches = delta("batcher", "batches")
    values["batcher.mean_batch_size"] = _ratio(delta("batcher", "computed"), batches)
    values["batcher.collapse_rate"] = _ratio(
        delta("batcher", "submitted"), delta("batcher", "computed")
    )
    values["batcher.deadline_flush_share"] = _ratio(
        delta("batcher", "deadline_flushes"), batches
    )
    if http:
        values["http.boot_s"] = outcome.boot_s
    values["http.rejected_429"] = delta("server", "rejected_429")
    values["http.deadline_504"] = delta("server", "deadline_504")
    if reads:
        values["http.client_p99_ms"] = float(np.percentile([r.ms for r in reads], 99))
    routed = [
        _delta(after, before, section, "queries_routed")
        for section in after
        if section.startswith("shard_")
    ]
    if routed:
        values["sharded.load_imbalance"] = _ratio(max(routed), sum(routed) / len(routed))
    values["sharded.worker_respawns"] = delta("router", "worker_respawns")

    # -- boot spans (traced index + traced boot) --------------------------
    build, boot = Trace(index_spans), Trace(outcome.spans)
    values["connection_index.build_s"] = build.mean_s("ConnectionIndex.ensure_all")
    values["storage.load_instance_s"] = boot.mean_s("SQLiteStore.load_instance")
    values["storage.adopt_slabs_s"] = boot.mean_s("SQLiteStore.load_connection_index")
    values["slab_store.sidecar_export_s"] = boot.mean_s("SQLiteStore.export_slab_sidecar")
    values["facade.boot_s"] = boot.mean_s("Engine.from_store")
    values["sharded.boot_s"] = boot.mean_s("ShardedEngine.from_store")

    # -- write path: every apply in the traced pass (timed or probe) ------
    values["search.apply_deltas_ms"] = boot.mean_s("S3kSearch.apply_deltas", True) * 1e3
    values["prox.apply_delta_ms"] = boot.mean_s("ProximityIndex.apply_delta") * 1e3
    values["connection_index.apply_delta_ms"] = (
        boot.mean_s("ConnectionIndex.apply_delta") * 1e3
    )
    # Router span minus its own engine's apply (its only child): the
    # broadcast plus the wait for the slowest worker.
    values["sharded.barrier_ms"] = boot.mean_s("ShardedEngine.mutate", True) * 1e3

    # -- read path: self times per client read in the traced window -------
    traced_reads = [r for r in traced.of_kind("read", "batch") if r.ok]
    if traced_reads:
        count = len(traced_reads)
        window = Trace(outcome.spans, (traced.started, traced.ended))
        totals = read_layers(window)
        steps = window.named("ProximityIndex.step") + window.named("ProximityIndex.step_many")
        values["prox.step_calls"] = len(steps) / count
        values["prox.step_columns"] = sum(s[5].get("columns", 1) for s in steps) / count
        values["request.parse_us"] = totals["parse"] / count * 1e6
        values["request.serialize_us"] = totals["serialize"] / count * 1e6
        values["facade.self_ms"] = totals["facade"] / count * 1e3
        values["batcher.wait_ms"] = totals["batcher"] / count * 1e3
        values["search.self_ms"] = totals["search"] / count * 1e3
        values["prox.step_self_ms"] = totals["prox"] / count * 1e3
        values["connection_index.gather_self_ms"] = totals["gather"] / count * 1e3
        values["sharded.hop_ms"] = totals["hop"] / count * 1e3
        client_ms = sum(r.ms for r in traced_reads) / count
        if http:
            # Client latency minus the latency the server reports for its
            # own asearch; parse / serialize run outside that and have
            # their own rows.
            reported = sum(r.payload["latency_ms"] for r in traced_reads) / count
            values["http.self_ms"] = (
                client_ms - reported - (totals["parse"] + totals["serialize"]) / count * 1e3
            )
        attributed = sum(totals.values()) / count * 1e3 + values["http.self_ms"]
        values["trace.unattributed_pct"] = 100.0 * (client_ms - attributed) / client_ms
    values["trace.overhead_pct"] = 100.0 * (1.0 - _ratio(traced.qps, untraced.qps))
    return {name: (float(values[name]), unit) for name, unit in UNITS.items()}


def end_to_end_metrics(outcome: Pass, index_s: float) -> Metrics:
    timed = outcome.timed
    reads = [r.ms for r in timed.of_kind("read") if r.ok]
    # A batch call returns 32 answers at once; the per-request figure is
    # each answer's own submission-to-answer latency inside the lock-step
    # batch (what the response reports), not the whole batch's wall time.
    reads += [
        answer["latency_ms"]
        for record in timed.of_kind("batch")
        if record.ok
        for answer in record.payload["results"]
    ]
    # Writes of the mix when it has any, else the idle-stack probe.
    writes = [r.ms for r in timed.of_kind("write") if r.ok] or [
        r.ms for r in outcome.probe if r.ok and r.op.kind == "write"
    ]

    def percentile(values: List[float], q: float) -> float:
        return float(np.percentile(values, q)) if values else 0.0

    return {
        "setup_s": (index_s + outcome.boot_s, "s"),
        "qps": (timed.qps, "1/s"),
        "read_p50_ms": (percentile(reads, 50), "ms"),
        "read_p95_ms": (percentile(reads, 95), "ms"),
        "write_p50_ms": (percentile(writes, 50), "ms"),
        "rss_mb": (outcome.rss_mb, "MB"),
    }
