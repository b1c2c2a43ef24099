"""The whole-program index: every module summary plus symbol resolution.

A :class:`ProjectIndex` parses the project once, then answers the two
questions the passes ask:

* ``resolve_symbol(ref)`` — which project function/class does a dotted
  reference denote, following import chains, package ``__init__``
  re-exports and (for methods) base classes;
* ``callgraph()`` — the conservative call graph over resolved call sites.

Unresolvable references (externals like ``numpy``, dynamic dispatch the
extractor could not type) produce no edge: the analysis under-approximates
*external* behaviour but never invents edges, and nondeterminism entering
through externals is covered by the taint-source patterns instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.analysis.engine import _display_path, iter_python_files
from repro.analysis.flow.extract import extract_module
from repro.analysis.flow.summary import (
    FunctionSummary,
    ModuleSummary,
    ShipSite,
)
from repro.analysis.source import ModuleSource, SourceError

#: A function's identity: ``(dotted module, qualname-within-module)``.
FuncKey = Tuple[str, str]

_MAX_RESOLVE_DEPTH = 16


@dataclass(frozen=True)
class Symbol:
    """A resolved project symbol."""

    kind: str  # "function" | "class"
    module: str
    qualname: str

    @property
    def key(self) -> FuncKey:
        return (self.module, self.qualname)


@dataclass(frozen=True)
class ShippedCallable:
    """One process-boundary ship site, resolved against the index."""

    shipper: FuncKey  # the function containing the ship call
    site: ShipSite
    target: Optional[FuncKey]  # the shipped project function, if resolved


class ProjectIndex:
    """All module summaries of one project, with symbol resolution."""

    def __init__(self, modules: Dict[str, ModuleSummary]):
        self.modules = modules

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def build(cls, paths: Sequence[Path]) -> "ProjectIndex":
        """Index every ``.py`` file under ``paths``, in file order.

        Files that do not decode or parse are left out; the per-file
        engine reports them as ``parse-error`` findings.
        """
        index = cls({})
        for file_path in iter_python_files(paths):
            try:
                src = ModuleSource.from_path(
                    file_path, display_path=_display_path(file_path)
                )
            except SourceError:
                continue
            summary = extract_module(src)
            index.modules[summary.module] = summary
        return index

    def stats(self) -> Dict[str, int]:
        return {"modules": len(self.modules)}

    # ------------------------------------------------------------------
    # Lookups
    # ------------------------------------------------------------------
    def function(self, key: FuncKey) -> Optional[FunctionSummary]:
        summary = self.modules.get(key[0])
        if summary is None:
            return None
        return summary.functions.get(key[1])

    def location(self, key: FuncKey) -> str:
        """``path:line`` of a function's definition."""
        summary = self.modules.get(key[0])
        fn = self.function(key)
        if summary is None or fn is None:
            return key[0]
        return f"{summary.path}:{fn.line}"

    def describe(self, key: FuncKey) -> str:
        """Human form of a function key: ``module.qualname (path:line)``."""
        return f"{key[0]}.{key[1]} ({self.location(key)})"

    def all_functions(self) -> Iterator[Tuple[str, FunctionSummary]]:
        """Every ``(module, FunctionSummary)``, in sorted module order."""
        for module in sorted(self.modules):
            summary = self.modules[module]
            for qualname in sorted(summary.functions):
                yield module, summary.functions[qualname]

    # ------------------------------------------------------------------
    # Symbol resolution
    # ------------------------------------------------------------------
    def resolve_symbol(self, ref: Optional[str]) -> Optional[Symbol]:
        """The project function/class a dotted reference denotes, if any."""
        if ref is None:
            return None
        return self._resolve(ref, 0)

    def _resolve(self, ref: str, depth: int) -> Optional[Symbol]:
        if depth > _MAX_RESOLVE_DEPTH:
            return None
        parts = ref.split(".")
        for split in range(len(parts) - 1, 0, -1):
            module = ".".join(parts[:split])
            if module in self.modules:
                return self._resolve_in_module(module, parts[split:], depth)
        return None

    def _resolve_in_module(
        self, module: str, rest: List[str], depth: int
    ) -> Optional[Symbol]:
        summary = self.modules[module]
        head = rest[0]
        if len(rest) == 1 and head in summary.functions:
            return Symbol("function", module, head)
        if head in summary.classes:
            if len(rest) == 1:
                return Symbol("class", module, head)
            if len(rest) == 2:
                return self._resolve_method(module, head, rest[1], depth)
            return None
        if head in summary.imports:
            chained = ".".join([summary.imports[head], *rest[1:]])
            return self._resolve(chained, depth + 1)
        return None

    def _resolve_method(
        self, module: str, class_name: str, method: str, depth: int
    ) -> Optional[Symbol]:
        """Method lookup walking project-known base classes."""
        seen: Set[Tuple[str, str]] = set()
        stack: List[Tuple[str, str]] = [(module, class_name)]
        while stack:
            mod, cls = stack.pop(0)
            if (mod, cls) in seen:
                continue
            seen.add((mod, cls))
            summary = self.modules.get(mod)
            if summary is None or cls not in summary.classes:
                continue
            class_summary = summary.classes[cls]
            if method in class_summary.methods:
                return Symbol("function", mod, f"{cls}.{method}")
            for base_ref in class_summary.bases:
                base = self._resolve(base_ref, depth + 1)
                if base is not None and base.kind == "class":
                    stack.append((base.module, base.qualname))
        return None

    def resolve_callable(self, ref: Optional[str]) -> Optional[FuncKey]:
        """Like :meth:`resolve_symbol`, but classes become ``__init__``.

        A class with no explicit ``__init__`` falls back to
        ``__post_init__`` — the dataclass construction model, where
        ``Linkage(...)`` runs the generated init and then the class's
        own ``__post_init__`` body.
        """
        symbol = self.resolve_symbol(ref)
        if symbol is None:
            return None
        if symbol.kind == "function":
            return symbol.key
        for ctor in ("__init__", "__post_init__"):
            init = self._resolve_method(
                symbol.module, symbol.qualname, ctor, 0
            )
            if init is not None:
                return init.key
        return None

    # ------------------------------------------------------------------
    # Derived structures
    # ------------------------------------------------------------------
    def callgraph(self) -> "CallGraph":
        edges: Dict[FuncKey, Tuple[FuncKey, ...]] = {}
        for module, fn in self.all_functions():
            key: FuncKey = (module, fn.qualname)
            targets: Set[FuncKey] = set()
            for call in fn.calls:
                resolved = self.resolve_callable(call.ref)
                if resolved is not None and resolved != key:
                    targets.add(resolved)
            edges[key] = tuple(sorted(targets))
        return CallGraph(edges)

    def shipped_callables(self) -> List[ShippedCallable]:
        """Every process-boundary ship site, resolved.

        ``stream``/``run`` sites count only when their receiver resolves
        to a class named ``ExecutionPlan``; ``submit`` sites always count.
        """
        out: List[ShippedCallable] = []
        for module, fn in self.all_functions():
            for site in fn.ships:
                if site.method in ("stream", "run"):
                    receiver = self.resolve_symbol(site.receiver_ref)
                    if (
                        receiver is None
                        or receiver.kind != "class"
                        or receiver.qualname != "ExecutionPlan"
                    ):
                        continue
                target = (
                    self.resolve_callable(site.arg_ref)
                    if site.arg_kind == "ref"
                    else None
                )
                out.append(
                    ShippedCallable(
                        shipper=(module, fn.qualname),
                        site=site,
                        target=target,
                    )
                )
        return out


class CallGraph:
    """Resolved call edges between project functions."""

    def __init__(self, edges: Dict[FuncKey, Tuple[FuncKey, ...]]):
        self._edges = edges

    def successors(self, key: FuncKey) -> Tuple[FuncKey, ...]:
        return self._edges.get(key, ())

    def __len__(self) -> int:
        return sum(len(targets) for targets in self._edges.values())

    def nodes(self) -> List[FuncKey]:
        return sorted(self._edges)

    def bfs_paths(self, root: FuncKey) -> Dict[FuncKey, Tuple[FuncKey, ...]]:
        """Shortest call path from ``root`` to every reachable function.

        Paths include both endpoints; the root maps to ``(root,)``.
        Deterministic: neighbours expand in sorted order.
        """
        paths: Dict[FuncKey, Tuple[FuncKey, ...]] = {root: (root,)}
        frontier: List[FuncKey] = [root]
        while frontier:
            next_frontier: List[FuncKey] = []
            for node in frontier:
                base = paths[node]
                for succ in self.successors(node):
                    if succ not in paths:
                        paths[succ] = base + (succ,)
                        next_frontier.append(succ)
            frontier = next_frontier
        return paths
