"""Interprocedural glue for the shape passes.

Two pieces, both deterministic and both consuming only
:class:`~repro.analysis.flow.index.ProjectIndex` facts:

* :class:`KernelScope` — the *kernel region*: every function reachable
  from a scale-path root. Roots are (a) callables shipped through an
  ``ExecutionPlan`` (PR 4's ship sites), (b) targets of calls guarded by
  a ``storage == "sparse"`` / ``isinstance(x, Sparse*)`` path condition,
  (c) functions with a ``Sparse*``-annotated parameter, and (d) methods
  of ``Sparse*`` classes. A Theta(n^2) allocation matters exactly when it
  lives in this region — dense-mode code outside it is allowed to be
  dense. A dense-expansion helper (an expand-to-square routine) is not
  a root: its allocation is reported exactly when kernel code reaches
  it, with that caller at the head of the chain.

* :func:`param_extents` — a join-over-call-sites fixpoint instantiating
  each function parameter's extent class from what callers actually pass
  (``helper(len(records))`` makes ``helper``'s ``n`` parameter ``big``),
  so a dense allocation hidden behind a helper call is still classified.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.analysis.flow.index import CallGraph, FuncKey, ProjectIndex
from repro.analysis.flow.shapes import (
    SPARSE_PATH_ATOMS,
    join_extent,
    name_extent_class,
)

_ROLE_REASONS = {
    "sparse-param": "function with a Sparse*-typed parameter",
    "sparse-class": "method of a Sparse* storage class",
}


class KernelScope:
    """Functions reachable from any sparse-path / shipped-kernel root.

    ``members`` maps each in-scope function to ``(root, reason, path)``
    where ``path`` is the shortest call path from the *first* root (in
    sorted root order) that reaches it — deterministic, so findings and
    their chains are byte-stable.
    """

    def __init__(self, index: ProjectIndex, graph: Optional[CallGraph] = None):
        self.index = index
        self.graph = graph if graph is not None else index.callgraph()
        self.roots: List[Tuple[FuncKey, str]] = self._roots()
        self.members: Dict[FuncKey, Tuple[FuncKey, str, Tuple[FuncKey, ...]]] = {}
        for root, reason in self.roots:
            for reached, path in sorted(self.graph.bfs_paths(root).items()):
                self.members.setdefault(reached, (root, reason, path))

    def __contains__(self, key: FuncKey) -> bool:
        return key in self.members

    def _roots(self) -> List[Tuple[FuncKey, str]]:
        reasons: Dict[FuncKey, str] = {}

        def add(key: Optional[FuncKey], reason: str) -> None:
            if key is None:
                return
            current = reasons.get(key)
            if current is None or reason < current:
                reasons[key] = reason

        for shipped in self.index.shipped_callables():
            add(shipped.target, "ExecutionPlan-shipped kernel")
        for module, fn in self.index.all_functions():
            key: FuncKey = (module, fn.qualname)
            for role in fn.roles:
                add(key, _ROLE_REASONS[role])
            for call in fn.calls:
                if SPARSE_PATH_ATOMS.isdisjoint(call.guards):
                    continue
                add(
                    self.index.resolve_callable(call.ref),
                    f'storage="sparse"-path call from {module}.{fn.qualname}',
                )
        return sorted(reasons.items())


def param_extents(
    index: ProjectIndex, max_rounds: int = 32
) -> Dict[FuncKey, Dict[str, str]]:
    """Joined extent class of every function parameter, over all call sites.

    Monotone fixpoint on the extent lattice: each call site joins its
    positional argument classes into the callee's parameter environment,
    with a caller's own ``param:<name>`` arguments resolved through the
    caller's environment (so ``big`` propagates through wrapper layers).
    """
    env: Dict[FuncKey, Dict[str, str]] = {}
    for module, fn in index.all_functions():
        env[(module, fn.qualname)] = {p: "unknown" for p in fn.params}

    callsites: List[Tuple[FuncKey, FuncKey, Tuple[str, ...], List[str]]] = []
    for module, fn in index.all_functions():
        for call in fn.calls:
            if not call.arg_classes:
                continue
            callee = index.resolve_callable(call.ref)
            if callee is None:
                continue
            callee_fn = index.function(callee)
            if callee_fn is None or not callee_fn.params:
                continue
            callsites.append(
                (
                    (module, fn.qualname),
                    callee,
                    call.arg_classes,
                    callee_fn.params,
                )
            )

    for _ in range(max_rounds):
        changed = False
        for caller, callee, arg_classes, params in callsites:
            caller_env = env.get(caller, {})
            callee_env = env[callee]
            for i, cls in enumerate(arg_classes):
                if i >= len(params):
                    break
                if cls.startswith("param:"):
                    cls = caller_env.get(cls[len("param:"):], "unknown")
                joined = join_extent(callee_env[params[i]], cls)
                if joined != callee_env[params[i]]:
                    callee_env[params[i]] = joined
                    changed = True
        if not changed:
            break
    return env


def resolve_extent(
    cls: str, fn_env: Optional[Dict[str, str]]
) -> str:
    """Final class of one allocation dimension.

    ``param:<name>`` resolves through the fixpoint environment; a
    parameter no call site constrains falls back to the naming
    convention (a helper named ``def grid(n):`` allocating ``(n, n)``
    is quadratic by contract even before anyone calls it).
    """
    if not cls.startswith("param:"):
        return cls
    name = cls[len("param:"):]
    resolved = (fn_env or {}).get(name, "unknown")
    if resolved == "unknown":
        return name_extent_class(name)
    return resolved
