"""Query workloads and timing harness (Section 5.1), sequential + batched."""

from .runner import (
    BatchStats,
    TimingSummary,
    engine_runner,
    run_workload,
    run_workload_batched,
    topks_runner,
)
from .workload import (
    QuerySpec,
    Workload,
    WorkloadBuilder,
    connected_seekers,
    document_frequencies,
    frequency_buckets,
)

__all__ = [
    "QuerySpec",
    "Workload",
    "WorkloadBuilder",
    "document_frequencies",
    "frequency_buckets",
    "connected_seekers",
    "TimingSummary",
    "BatchStats",
    "run_workload",
    "run_workload_batched",
    "engine_runner",
    "topks_runner",
]
