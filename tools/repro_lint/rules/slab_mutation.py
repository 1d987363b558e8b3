"""slab-mutation: arrays adopted from a SlabStore are shared — never
write them in place.

After ``ConnectionIndex.adopt_slab_store`` / ``SlabStore.get`` the CSR
evidence slabs and the proximity transition arrays are views over
POSIX-shm segments or mmap'd sidecar files that every forked worker
maps.  One in-place numpy write (`arr[...] = x`, ``+=``, ``out=``,
``.sort()``) from any process silently corrupts the answers of all of
them — the exact bit-identity the sharded oracle sweep certifies.  The
runtime backstop sets ``writeable = False`` on adopted arrays; this
rule catches the write before it ever runs.

Detection is taint-based per function scope: values coming out of a
slab store (``<*store*>.get(...)``, ``.arrays()`` bundles,
``.slab(...)`` lookups, parameters named ``arrays`` / ``warm`` /
``adopted`` — the adoption and delta-application entry points'
signature conventions) are tainted; taint follows plain assignment,
subscripting and attribute access (``warm.node_activity`` is the
adopted slab's array, and so is any alias of it), while ``.copy()``
launders — a private copy is the sanctioned way to mutate.  Flagged on
tainted values: subscript stores, augmented assignment, mutating
method calls (``sort`` / ``fill`` / ``resize`` / ``partition`` /
``put`` / ``setflags`` / ``byteswap``), and passing one as ``out=``.

The kernel's pooled index arena (``_IndexArena.runs`` and every
layout's ``source_concat`` cut out of it) is shared the same way inside
one process: every cached block and every in-flight query state reads
slices of one buffer, so both attribute names are taint sources
wherever they appear.  The arena's own ``append`` — the single writer,
past the handed-out range — goes through its private ``_data``.

The delta-application paths make this load-bearing: incremental
maintenance (``ConnectionIndex.apply_delta`` warm-reseeding,
``ProximityIndex.apply_delta`` row patches) runs against indexes whose
arrays may be adopted shm/mmap views, so every patch must be
copy-on-write — build fresh arrays, swap references, never write the
old ones.
"""

from __future__ import annotations

import ast
from typing import List, Mapping, Set

from ..base import LintModule, Rule, dotted_name, register, walk_functions
from ..findings import Finding

_MUTATORS = (
    "sort",
    "fill",
    "resize",
    "partition",
    "put",
    "setflags",
    "byteswap",
    "setfield",
)

#: a ``.get(...)`` receiver whose final identifier contains one of these
#: substrings is treated as a slab store
_STORE_HINTS = ("store", "slab")

_TAINTED_PARAMS = ("arrays", "slab_arrays", "warm", "adopted")

#: method calls whose *name* marks the receiver as handing out slab
#: arrays, wherever it lives (``slab.arrays()``, ``index.slab(ident)``)
_SOURCE_METHODS = ("arrays", "slab")

#: attributes that *are* shared arrays whatever object carries them: the
#: plan cache's pooled index arena and the layout views cut out of it
_SOURCE_ATTRIBUTES = ("runs", "source_concat")


def _receiver_hint(func: ast.expr) -> bool:
    """True for ``<receiver>.get`` where the receiver looks like a store."""
    if not (isinstance(func, ast.Attribute) and func.attr == "get"):
        return False
    base = func.value
    if isinstance(base, ast.Attribute):
        ident = base.attr
    elif isinstance(base, ast.Name):
        ident = base.id
    else:
        return False
    ident = ident.lower()
    return any(hint in ident for hint in _STORE_HINTS)


def _is_taint_source(node: ast.expr) -> bool:
    if isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr in _SOURCE_METHODS:
            return True
        return _receiver_hint(func)
    return False


class _Scope:
    """Taint state of one function body."""

    def __init__(self, tainted: Set[str]):
        self.tainted = tainted

    def is_tainted(self, node: ast.expr) -> bool:
        if isinstance(node, ast.Name):
            return node.id in self.tainted
        if isinstance(node, ast.Subscript):
            return self.is_tainted(node.value)
        if isinstance(node, ast.Attribute):
            # A field of a tainted slab handle (``warm.node_activity``)
            # is one of its adopted arrays.
            return node.attr in _SOURCE_ATTRIBUTES or self.is_tainted(node.value)
        if isinstance(node, ast.expr) and _is_taint_source(node):
            return True
        return False

    def absorb(self, target: ast.expr, value: ast.expr) -> None:
        if isinstance(target, ast.Name) and self.is_tainted(value):
            self.tainted.add(target.id)
        elif isinstance(target, ast.Tuple) and isinstance(value, ast.Tuple):
            for sub_target, sub_value in zip(target.elts, value.elts):
                self.absorb(sub_target, sub_value)


@register
class SlabMutationRule(Rule):
    name = "slab-mutation"
    description = (
        "no in-place numpy mutation of arrays adopted from a SlabStore "
        "(shm/mmap slabs are shared across forked workers)"
    )
    rationale = (
        "adopted slabs are one physical copy mapped by every worker; an "
        "in-place write corrupts all shards' answers at once"
    )
    default_paths = ("src",)
    default_options = {"tainted_params": _TAINTED_PARAMS}

    def check(
        self, module: LintModule, options: Mapping[str, object]
    ) -> List[Finding]:
        tainted_params = tuple(options["tainted_params"])
        findings: List[Finding] = []

        for qualname, function in walk_functions(module.tree):
            args = function.args
            names = [
                arg.arg
                for group in (args.posonlyargs, args.args, args.kwonlyargs)
                for arg in group
            ]
            scope = _Scope({name for name in names if name in tainted_params})
            for node in ast.walk(function):
                if isinstance(node, ast.Assign):
                    for target in node.targets:
                        scope.absorb(target, node.value)
                        if isinstance(
                            target, ast.Subscript
                        ) and scope.is_tainted(target.value):
                            findings.append(
                                module.finding(
                                    target,
                                    self,
                                    f"in-place write to a slab-store array "
                                    f"in '{qualname}': adopted slabs are "
                                    "shared read-only across workers — "
                                    "copy before mutating",
                                )
                            )
                elif isinstance(node, ast.AugAssign):
                    target = node.target
                    base = (
                        target.value
                        if isinstance(target, ast.Subscript)
                        else target
                    )
                    if scope.is_tainted(base):
                        findings.append(
                            module.finding(
                                node,
                                self,
                                f"augmented assignment to a slab-store "
                                f"array in '{qualname}': shared slabs are "
                                "immutable — copy before mutating",
                            )
                        )
                elif isinstance(node, ast.Call):
                    func = node.func
                    if (
                        isinstance(func, ast.Attribute)
                        and func.attr in _MUTATORS
                        and scope.is_tainted(func.value)
                    ):
                        findings.append(
                            module.finding(
                                node,
                                self,
                                f".{func.attr}() mutates a slab-store "
                                f"array in place in '{qualname}'; use the "
                                "copying variant (np.sort, ...) instead",
                            )
                        )
                    for keyword in node.keywords:
                        if keyword.arg == "out" and scope.is_tainted(
                            keyword.value
                        ):
                            findings.append(
                                module.finding(
                                    node,
                                    self,
                                    f"out= targets a slab-store array in "
                                    f"'{qualname}': the result would be "
                                    "written into shared memory",
                                )
                            )
        return findings
