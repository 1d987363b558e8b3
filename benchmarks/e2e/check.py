"""Compare two sets of benchmark results against the fixed bounds.

    python3 benchmarks/e2e/check.py A B      # A = base, B = candidate
    python3 benchmarks/e2e/check.py A        # medians and spreads of one set

*A* and *B* are result files written by ``run.py --out`` or directories
of them (one file per workload and seed).  For every (end-to-end metric,
workload) pair the table shows both medians, the ratio B/A (base A), each
side's run-to-run spread — the distance between the quartiles as a share
of the median, ``statistics.quantiles(values, n=4)`` — and the bound from
``BENCHMARK.json``.  The verdict is

* ``REGRESSED`` when B's median is worse than A's by more than the bound,
* ``unresolved`` when a spread is wider than the bound (the runs cannot
  tell a change of that size from noise),
* ``ok`` otherwise.

Exit status 1 when any pair regressed, when B failed more operations
than A, or when the two sets were not taken like for like (different
core count, caller count, shard count, run length or instance).
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
BENCHMARK = HERE.parent.parent / "BENCHMARK.json"
#: Environment fields that must agree for two results to be comparable.
LIKE_FOR_LIKE = ("nproc", "callers", "shards", "seconds", "smoke", "instance_config")


def load(path: Path) -> Dict[str, List[dict]]:
    """Results grouped by workload."""
    files = sorted(path.rglob("*.json")) if path.is_dir() else [path]
    grouped: Dict[str, List[dict]] = {}
    for file in files:
        result = json.loads(file.read_text())
        grouped.setdefault(result["workload"], []).append(result)
    return grouped


def spread(values: List[float]) -> Optional[float]:
    if len(values) < 2:
        return None
    low, _, high = statistics.quantiles(values, n=4)
    middle = statistics.median(values)
    return (high - low) / middle if middle else None


def _share(value: Optional[float]) -> str:
    return "     -" if value is None else f"{value:6.1%}"


def main(argv: List[str]) -> int:
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    declared = json.loads(BENCHMARK.read_text())
    base = load(Path(argv[0]))
    candidate = load(Path(argv[1])) if len(argv) == 2 else None
    problems: List[str] = []
    print(
        f"{'workload':12s} {'metric':13s} {'unit':5s} {'A median':>12s} {'B median':>12s} "
        f"{'B/A':>7s} {'A spread':>8s} {'B spread':>8s} {'bound':>6s}  verdict"
    )
    for workload in (entry["name"] for entry in declared["workloads"]):
        ours = base.get(workload, [])
        theirs = candidate.get(workload, []) if candidate is not None else []
        if not ours or (candidate is not None and not theirs):
            continue
        for metric in declared["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            a = [run["end_to_end"][name][0] for run in ours]
            b = [run["end_to_end"][name][0] for run in theirs]
            a_median = statistics.median(a)
            a_spread, b_spread = spread(a), spread(b)
            row = f"{workload:12s} {name:13s} {metric['unit']:5s} {a_median:12.4f} "
            verdict = "ok"
            if b:
                b_median = statistics.median(b)
                ratio = b_median / a_median
                worse = ratio - 1 if metric["better"] == "lower" else 1 - ratio
                row += f"{b_median:12.4f} {ratio:7.3f} "
                if worse > bound:
                    verdict = "REGRESSED"
                    problems.append(f"{workload} {name}: {worse:+.1%} vs bound {bound:.0%}")
            else:
                row += f"{'-':>12s} {'-':>7s} "
            if verdict == "ok" and any(s is not None and s > bound for s in (a_spread, b_spread)):
                verdict = "unresolved"
            print(row + f"{_share(a_spread)}   {_share(b_spread)}   {bound:6.0%}  {verdict}")
        a_failed = sum(run["failed"] for run in ours)
        a_attempted = sum(run["attempted"] for run in ours)
        line = f"{workload:12s} operations: A failed {a_failed}/{a_attempted}"
        if theirs:
            b_failed = sum(run["failed"] for run in theirs)
            b_attempted = sum(run["attempted"] for run in theirs)
            line += f", B failed {b_failed}/{b_attempted}"
            if b_failed * a_attempted > a_failed * b_attempted:
                problems.append(f"{workload}: error rate rose")
            for field in LIKE_FOR_LIKE:
                if ours[0]["environment"][field] != theirs[0]["environment"][field]:
                    problems.append(f"{workload}: not like for like ({field} differs)")
        print(line)
    for problem in problems:
        print(f"FAIL {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
