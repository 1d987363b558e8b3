"""determinism: the core kernels answer bit-identically, run after run.

Batched execution, result caching, process sharding and the persistence
round-trip are all certified against one oracle: ``search`` over the
same instance returns the *same bits*.  That certification only holds
while the kernels in ``src/repro/core/`` are pure functions of the
instance plus the request — an unseeded RNG or a wall-clock read breaks
replay, cache-hit equivalence, and the 50-instance oracle sweep at
once.

Flags, scoped to ``src/repro/core/``:

* wall-clock reads — ``time.time`` / ``datetime.now`` / ``utcnow`` /
  ``date.today`` — everywhere (kernels never need calendar time);
* monotonic clock reads (``time.perf_counter`` / ``time.monotonic``)
  outside the sanctioned anytime-budget hooks (the Section 4.1
  ``time_budget`` stop test and the build/wall-time accounting fields),
  listed per qualified function name in the rule options;
* unseeded randomness: module-level ``random.*`` calls (the global RNG),
  any ``numpy.random.*`` legacy global call, and RNG constructors
  (``random.Random()`` / ``default_rng()`` / ``RandomState()``) called
  without a seed argument.
"""

from __future__ import annotations

import ast
from typing import List, Mapping

from ..base import LintModule, Rule, dotted_name, register, walk_functions
from ..findings import Finding

_WALL_CLOCKS = (
    "time.time",
    "time.time_ns",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.date.today",
)
_MONOTONIC_CLOCKS = (
    "time.perf_counter",
    "time.monotonic",
    "time.perf_counter_ns",
    "time.monotonic_ns",
)
_RNG_CONSTRUCTORS = (
    "random.Random",
    "random.SystemRandom",
    "numpy.random.default_rng",
    "numpy.random.RandomState",
    "numpy.random.Generator",
)

def _calls_with_scope(tree: ast.Module):
    """Yield ``(qualname, call node)`` for every call in the module.

    Calls inside a function are attributed to their innermost enclosing
    def (so a helper nested in a budget hook is *not* sanctioned by the
    hook's name — it has its own qualname); calls at module or class
    level run at import time, where entropy is just as fatal, and are
    attributed to ``<module>``.
    """
    claimed = set()
    # walk_functions yields parents before children; reversed, every
    # function claims its calls before its enclosing scope can.
    for qualname, function in reversed(list(walk_functions(tree))):
        for node in ast.walk(function):
            if isinstance(node, ast.Call) and id(node) not in claimed:
                claimed.add(id(node))
                yield qualname, node
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and id(node) not in claimed:
            yield "<module>", node


#: functions allowed to read monotonic clocks: the anytime time_budget
#: machinery of Section 4.1, the build-cost accounting counters, and
#: the delta-maintenance patch timers (telemetry only — the clock never
#: influences what a patch computes, just how its cost is reported).
_BUDGET_HOOKS = (
    "S3kSearch._prepare_query",
    "S3kSearch._check_stop",
    "S3kSearch._finish",
    "S3kSearch.search_many",
    "S3kSearch.apply_deltas",
    "ConnectionIndex.slab",
    "ConnectionIndex.apply_delta",
)


@register
class DeterminismRule(Rule):
    name = "determinism"
    description = (
        "no unseeded randomness or wall-clock reads in the core kernels "
        "outside the sanctioned anytime-budget hooks"
    )
    rationale = (
        "batching, caching and sharding are certified bit-identical "
        "against sequential search; hidden entropy breaks the oracle"
    )
    default_paths = ("src/repro/core",)
    default_options = {"budget_hooks": _BUDGET_HOOKS}

    def check(
        self, module: LintModule, options: Mapping[str, object]
    ) -> List[Finding]:
        hooks = tuple(options["budget_hooks"])
        findings: List[Finding] = []
        for qualname, node in _calls_with_scope(module.tree):
            name = dotted_name(node.func, module.imports)
            if name is None:
                continue
            if name in _WALL_CLOCKS:
                findings.append(
                    module.finding(
                        node,
                        self,
                        f"wall-clock read {name}() in kernel "
                        f"'{qualname}': kernels are pure functions "
                        "of instance + request",
                    )
                )
            elif name in _MONOTONIC_CLOCKS and qualname not in hooks:
                findings.append(
                    module.finding(
                        node,
                        self,
                        f"{name}() in '{qualname}' is outside the "
                        "sanctioned anytime-budget hooks "
                        f"({', '.join(hooks)})",
                    )
                )
            elif name in _RNG_CONSTRUCTORS:
                if not node.args and not node.keywords:
                    findings.append(
                        module.finding(
                            node,
                            self,
                            f"{name}() constructed without a seed in "
                            f"'{qualname}': pass an explicit seed",
                        )
                    )
            elif name.startswith("numpy.random."):
                findings.append(
                    module.finding(
                        node,
                        self,
                        f"{name}() uses numpy's global RNG in "
                        f"'{qualname}': use a seeded "
                        "default_rng(seed) generator",
                    )
                )
            elif name.startswith("random."):
                findings.append(
                    module.finding(
                        node,
                        self,
                        f"{name}() uses the global random module RNG "
                        f"in '{qualname}': use a seeded "
                        "random.Random(seed) instance",
                    )
                )
        return findings
