"""Smoke test of the end-to-end benchmark (outside tier-1 ``testpaths``):

    PYTHONPATH=src python -m pytest benchmarks/e2e -q

Runs every workload once per trace mode on the scale-1 instance for one
second and checks the output contract against ``BENCHMARK.json``.
"""

from __future__ import annotations

import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
REPO = HERE.parent.parent
DECLARED = json.loads((REPO / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]*")
WORKLOADS = [workload["name"] for workload in DECLARED["workloads"]]


def run(workload: str, trace: int, *extra: str):
    completed = subprocess.run(
        [
            sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "1",
            "--seconds", "1", "--trace", str(trace), "--smoke", *extra,
        ],
        capture_output=True, text=True, timeout=170, cwd=REPO,
    )
    assert completed.stdout, completed.stderr
    return completed.returncode, json.loads(completed.stdout.strip().splitlines()[-1])


def test_declared_names_are_well_formed():
    names = WORKLOADS + [
        metric["name"] for kind in ("end_to_end", "per_layer") for metric in DECLARED[kind]
    ]
    assert len(set(names)) == len(names)
    assert all(NAME.fullmatch(name) and len(name) <= 64 for name in names)


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_every_declared_metric_is_emitted_with_its_unit(workload, trace, kind):
    code, result = run(workload, trace)
    assert code == 0 and result["correct"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    emitted = {name: metric["unit"] for name, metric in result["metrics"].items()}
    assert emitted == {metric["name"]: metric["unit"] for metric in DECLARED[kind]}
    values = {name: metric["value"] for name, metric in result["metrics"].items()}
    assert all(math.isfinite(value) for value in values.values())
    if kind == "end_to_end":
        assert all(value > 0 for value in values.values())
    else:
        # Computed, not defaulted: the layers' self times must add up to
        # (nearly all of) what the client saw.
        assert values["trace.unattributed_pct"] != 0.0
        assert abs(values["trace.unattributed_pct"]) < 25.0


@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="one caller cannot overrun a bound of one")
def test_a_refused_request_counts_as_a_failure():
    # Two closed-loop callers against an admission bound of one: the
    # server sheds with 429, which must show up as failed operations and
    # a non-zero exit, never as a faster run.
    code, result = run("http_unique", 0, "--max-inflight", "1")
    assert code != 0 and not result["correct"]
    assert 0 < result["failed"] <= result["attempted"]
