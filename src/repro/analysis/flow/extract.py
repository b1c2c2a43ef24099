"""Extract one module's :class:`ModuleSummary` from its AST.

This is the only flow-analysis phase that looks at syntax; everything
downstream (symbol resolution, call graph, taint propagation, purity)
consumes the summaries. Extraction is deliberately conservative:

* call targets are recorded as dotted references resolved as far as the
  module's own imports, top-level definitions, ``self``/``cls``, and a
  light local type inference (parameter annotations and ``v = Class(...)``
  assignments) allow — unresolvable targets simply produce no edge;
* nested functions and lambdas are folded into their enclosing top-level
  function or method (their calls/sources are attributed to it), which
  over-approximates reachability but never misses it;
* module-level statements outside any function are *not* analyzed here:
  a source that runs at import time reaches no sink through the call
  graph.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.analysis.flow.summary import (
    CallSite,
    ClassSummary,
    FunctionSummary,
    ModuleSummary,
    ShipSite,
    StateRead,
    StateWrite,
    TaintSource,
)
from repro.analysis.flow.shapes import ShapeExtractor, function_roles
from repro.analysis.source import ModuleSource

# Host-clock reads. Only repro.obs.clock, home of the injectable Clock
# whose PerfClock is the one sanctioned wall-clock read, may make them.
WALLCLOCK_CALLS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.process_time",
        "time.process_time_ns",
        "time.localtime",
        "time.gmtime",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }
)
_WALLCLOCK_EXEMPT = "repro.obs.clock"

# numpy.random attributes that do NOT touch the legacy global RNG.
_NUMPY_SAFE = frozenset(
    {
        "default_rng",
        "Generator",
        "SeedSequence",
        "BitGenerator",
        "PCG64",
        "PCG64DXSM",
        "Philox",
        "SFC64",
        "MT19937",
    }
)
# repro.util.rng builds the seeded streams, so it may construct RNGs.
_RNG_EXEMPT = "repro.util"

# Filesystem enumeration whose result order is OS-dependent.
_FS_ORDER_CALLS = frozenset(
    {"os.listdir", "os.scandir", "glob.glob", "glob.iglob"}
)
_FS_ORDER_METHODS = frozenset({"iterdir", "glob", "rglob"})

# Container methods that mutate their receiver in place.
_MUTATOR_METHODS = frozenset(
    {
        "add",
        "append",
        "appendleft",
        "clear",
        "discard",
        "extend",
        "insert",
        "pop",
        "popitem",
        "remove",
        "setdefault",
        "sort",
        "update",
    }
)

# Methods that ship their first positional argument into worker processes.
_SHIP_METHODS = frozenset({"stream", "run", "submit"})


def _module_in(module: str, prefix: str) -> bool:
    """True if ``module`` is ``prefix`` or nested inside it."""
    return module == prefix or module.startswith(prefix + ".")


def _is_global_rng(ref: str, call: ast.Call) -> bool:
    """Does this call draw from process-global or unseeded randomness?

    The ``random`` module's functions, numpy's legacy global RNG, and
    ``random.Random()`` / ``numpy.random.default_rng()`` without a seed
    do; methods of a typed ``random.Random`` instance (a caller-seeded
    stream) and numpy's generator constructors do not.
    """
    if ref in ("random.Random", "numpy.random.default_rng"):
        return not (call.args or call.keywords)
    if ref.startswith("random.Random."):
        return False
    if ref.startswith("random."):
        return True
    if ref.startswith("numpy.random."):
        return ref.rsplit(".", 1)[-1] not in _NUMPY_SAFE
    return False


def extract_module(src: ModuleSource) -> ModuleSummary:
    """Build the whole-program summary of one parsed module."""
    extractor = _ModuleExtractor(src)
    return extractor.run()


class _ModuleExtractor:
    def __init__(self, src: ModuleSource):
        self.src = src
        self.module = src.module
        self.imports: Dict[str, str] = {}
        self.module_names: Set[str] = set()
        self.module_defs: Set[str] = set()  # top-level function/class names
        self.module_data: Set[str] = set()  # top-level data bindings

    # ------------------------------------------------------------------
    # Module level
    # ------------------------------------------------------------------
    def run(self) -> ModuleSummary:
        tree = self.src.tree
        self._collect_imports(tree)
        self._collect_module_names(tree)

        summary = ModuleSummary(
            module=self.module,
            path=self.src.path,
            imports=dict(self.imports),
            module_names=sorted(self.module_names),
            data_names=sorted(self.module_data),
            suppressions=self.src.suppressions,
        )
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                fn = self._extract_function(node, class_name=None)
                summary.functions[fn.qualname] = fn
            elif isinstance(node, ast.ClassDef):
                cls = ClassSummary(name=node.name, line=node.lineno)
                attr_types = self._init_attr_types(node)
                for base in node.bases:
                    ref = self._ref_of_expr(base, local=_EMPTY_LOCAL)
                    if ref is not None:
                        cls.bases.append(ref)
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        cls.methods.append(item.name)
                        fn = self._extract_function(
                            item, class_name=node.name, attr_types=attr_types
                        )
                        summary.functions[fn.qualname] = fn
                summary.classes[node.name] = cls
        return summary

    def _init_attr_types(self, cls: ast.ClassDef) -> Dict[str, str]:
        """``self.<attr>`` -> class, for ``self.<attr> = Class(...)`` in
        ``__init__`` (what lets ``self._plan.run(...)`` count as a ship)."""
        types: Dict[str, str] = {}
        for item in cls.body:
            if not (
                isinstance(item, ast.FunctionDef) and item.name == "__init__"
            ):
                continue
            local = _LocalScope.of(item, cls.name)
            for inner in ast.walk(item):
                if not (
                    isinstance(inner, ast.Assign)
                    and len(inner.targets) == 1
                    and isinstance(inner.value, ast.Call)
                ):
                    continue
                target = inner.targets[0]
                if (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    ref = self._ref_of_expr(
                        inner.value.func, local, infer=False
                    )
                    if ref is not None:
                        types[target.attr] = ref
        return types

    def _collect_imports(self, tree: ast.Module) -> None:
        """Local name -> absolute dotted origin, relative imports included."""
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.asname is not None:
                        self.imports[alias.asname] = alias.name
                    else:
                        root = alias.name.split(".", 1)[0]
                        self.imports[root] = root
            elif isinstance(node, ast.ImportFrom):
                base = self._import_base(node)
                if base is None:
                    continue
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    local = alias.asname or alias.name
                    self.imports[local] = f"{base}.{alias.name}"

    def _import_base(self, node: ast.ImportFrom) -> Optional[str]:
        if node.level == 0:
            return node.module
        parts = self.module.split(".")
        if not self.src.is_package:
            parts = parts[:-1]
        drop = node.level - 1
        if drop:
            if drop >= len(parts):
                return None
            parts = parts[:-drop]
        if node.module:
            parts = parts + node.module.split(".")
        return ".".join(parts) if parts else None

    def _collect_module_names(self, tree: ast.Module) -> None:
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                self.module_names.add(node.name)
                self.module_defs.add(node.name)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    name = alias.asname or alias.name.split(".", 1)[0]
                    self.module_names.add(name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                targets = (
                    node.targets
                    if isinstance(node, ast.Assign)
                    else [node.target]
                )
                for target in targets:
                    for name in _bound_names(target):
                        self.module_names.add(name)
                        self.module_data.add(name)

    # ------------------------------------------------------------------
    # Function level
    # ------------------------------------------------------------------
    def _extract_function(
        self,
        node: ast.FunctionDef,
        class_name: Optional[str],
        attr_types: Optional[Dict[str, str]] = None,
    ) -> FunctionSummary:
        qualname = f"{class_name}.{node.name}" if class_name else node.name
        fn = FunctionSummary(
            qualname=qualname,
            line=node.lineno,
            line_text=self.src.line_text(node.lineno),
        )
        local = _LocalScope.of(node, class_name)
        local.attr_types = attr_types or {}
        self._infer_types(node, local)
        shapes = ShapeExtractor(self, node, local)
        fn.roles = function_roles(node, class_name, self._annotation_class)

        exempt_wallclock = _module_in(self.module, _WALLCLOCK_EXEMPT)
        exempt_rng = _module_in(self.module, _RNG_EXEMPT)

        seen_reads: Set[Tuple[str, str]] = set()
        for inner in ast.walk(node):
            if isinstance(inner, ast.Call):
                self._record_call(fn, inner, local, shapes)
                self._record_source(
                    fn, inner, local, exempt_wallclock, exempt_rng
                )
                self._record_ship(fn, inner, local)
                self._record_mutation(fn, inner, local)
            elif isinstance(inner, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                self._record_write(fn, inner, local)
            elif isinstance(inner, (ast.Name, ast.Attribute)):
                self._record_read(fn, inner, local, seen_reads)
        shapes.collect(fn)
        return fn

    # -- calls ----------------------------------------------------------
    def _record_call(
        self,
        fn: FunctionSummary,
        call: ast.Call,
        local: "_LocalScope",
        shapes: ShapeExtractor,
    ) -> None:
        ref = self._ref_of_expr(call.func, local)
        if ref is None:
            return
        guards = shapes.guards_at(call)
        if ref == "functools.partial" or ref == "partial":
            inner = self._partial_target(call, local)
            if inner is not None:
                fn.calls.append(
                    CallSite(ref=inner, line=call.lineno, guards=guards)
                )
            return
        fn.calls.append(
            CallSite(
                ref=ref,
                line=call.lineno,
                guards=guards,
                arg_classes=shapes.arg_classes(call),
            )
        )

    def _partial_target(
        self, call: ast.Call, local: "_LocalScope"
    ) -> Optional[str]:
        if not call.args:
            return None
        return self._ref_of_expr(call.args[0], local)

    # -- taint sources --------------------------------------------------
    def _record_source(
        self,
        fn: FunctionSummary,
        call: ast.Call,
        local: "_LocalScope",
        exempt_wallclock: bool,
        exempt_rng: bool,
    ) -> None:
        ref = self._ref_of_expr(call.func, local)
        if ref is not None:
            if not exempt_wallclock and ref in WALLCLOCK_CALLS:
                fn.sources.append(
                    TaintSource(kind="wall-clock", what=ref, line=call.lineno)
                )
                return
            if not exempt_rng and _is_global_rng(ref, call):
                fn.sources.append(
                    TaintSource(kind="global-rng", what=ref, line=call.lineno)
                )
                return
            if ref in _FS_ORDER_CALLS and not self._order_safe(call):
                fn.sources.append(
                    TaintSource(kind="fs-order", what=ref, line=call.lineno)
                )
                return
        func = call.func
        if (
            isinstance(func, ast.Attribute)
            and func.attr in _FS_ORDER_METHODS
            and not self._order_safe(call)
        ):
            fn.sources.append(
                TaintSource(
                    kind="fs-order", what=f".{func.attr}", line=call.lineno
                )
            )
            return
        if (
            isinstance(func, ast.Name)
            and func.id in ("id", "hash")
            and not local.binds(func.id)
            and func.id not in self.imports
            and func.id not in self.module_defs
        ):
            fn.sources.append(
                TaintSource(
                    kind="object-identity", what=func.id, line=call.lineno
                )
            )

    def _order_safe(self, call: ast.Call) -> bool:
        """True when the enumeration's result is immediately sorted."""
        node: ast.AST = call
        for _ in range(3):
            parent = self.src.parent(node)
            if not isinstance(parent, ast.Call):
                return False
            func = parent.func
            if isinstance(func, ast.Name):
                if func.id == "sorted":
                    return True
                if func.id in ("list", "tuple"):
                    node = parent
                    continue
            return False
        return False

    # -- module-state writes --------------------------------------------
    def _record_write(
        self,
        fn: FunctionSummary,
        node: "ast.Assign | ast.AnnAssign | ast.AugAssign",
        local: "_LocalScope",
    ) -> None:
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        for target in targets:
            if isinstance(target, ast.Name):
                if target.id in local.global_decls:
                    fn.writes.append(
                        StateWrite(
                            name=target.id,
                            how="global-assign",
                            line=node.lineno,
                        )
                    )
            elif isinstance(target, ast.Subscript):
                root = self._module_state_root(target.value, local)
                if root is not None:
                    fn.writes.append(
                        StateWrite(
                            name=root[0],
                            how="subscript",
                            line=node.lineno,
                            attr=root[1],
                        )
                    )
            elif isinstance(target, ast.Attribute):
                root = self._module_state_root(target.value, local)
                if root is not None:
                    fn.writes.append(
                        StateWrite(
                            name=root[0],
                            how="attribute",
                            line=node.lineno,
                            attr=root[1] or target.attr,
                        )
                    )
            elif isinstance(target, (ast.Tuple, ast.List)):
                for element in target.elts:
                    if (
                        isinstance(element, ast.Name)
                        and element.id in local.global_decls
                    ):
                        fn.writes.append(
                            StateWrite(
                                name=element.id,
                                how="global-assign",
                                line=node.lineno,
                            )
                        )

    def _record_mutation(
        self, fn: FunctionSummary, call: ast.Call, local: "_LocalScope"
    ) -> None:
        """``STATE.append(...)`` etc. — in-place mutation of module state."""
        func = call.func
        if not isinstance(func, ast.Attribute) or func.attr not in _MUTATOR_METHODS:
            return
        root = self._module_state_root(func.value, local)
        if root is not None:
            fn.writes.append(
                StateWrite(
                    name=root[0], how="mutation", line=call.lineno, attr=root[1]
                )
            )

    def _module_state_root(
        self, expr: ast.expr, local: "_LocalScope"
    ) -> Optional[Tuple[str, str]]:
        """``(root, attr)`` of module-level state under a mutated expression.

        ``attr`` is non-empty when the path runs through one attribute hop
        rooted at a module-level name (``config.FLAGS[...] = v`` yields
        ``("config", "FLAGS")``); a bare module-level root yields an empty
        ``attr``.
        """
        attr = ""
        if isinstance(expr, ast.Attribute) and isinstance(expr.value, ast.Name):
            attr = expr.attr
            expr = expr.value
        if not isinstance(expr, ast.Name):
            return None
        name = expr.id
        if local.binds(name) and name not in local.global_decls:
            return None
        if name in self.module_names:
            return name, attr
        return None

    # -- module-state reads ---------------------------------------------
    def _record_read(
        self,
        fn: FunctionSummary,
        node: "ast.Name | ast.Attribute",
        local: "_LocalScope",
        seen: Set[Tuple[str, str]],
    ) -> None:
        """Reads of module-level data, here or through an imported module.

        Bare :class:`ast.Name` loads count only when the name is a
        module-level *data* binding (or a ``global`` declaration) — reads
        of functions, classes, and imported callables are not state.
        Attribute loads count when rooted at an import alias
        (``config.FLAGS``), excluding the callee position of a call.
        """
        if not isinstance(node.ctx, ast.Load):
            return
        if isinstance(node, ast.Name):
            name, attr = node.id, ""
            if name not in self.module_data and name not in local.global_decls:
                return
            if local.binds(name):
                return
        else:
            if not isinstance(node.value, ast.Name):
                return
            name, attr = node.value.id, node.attr
            if local.binds(name) or name not in self.imports:
                return
            parent = self.src.parent(node)
            if isinstance(parent, ast.Call) and parent.func is node:
                return
        if (name, attr) in seen:
            return
        seen.add((name, attr))
        fn.reads.append(StateRead(name=name, line=node.lineno, attr=attr))

    # -- ship sites -----------------------------------------------------
    def _record_ship(
        self, fn: FunctionSummary, call: ast.Call, local: "_LocalScope"
    ) -> None:
        func = call.func
        if not isinstance(func, ast.Attribute) or func.attr not in _SHIP_METHODS:
            return
        receiver_ref = self._receiver_class(func.value, local)
        if func.attr in ("stream", "run") and receiver_ref is None:
            # stream/run are common method names; only a receiver whose
            # class resolves (to ExecutionPlan, checked by the linker)
            # counts as a process-boundary ship.
            return
        if not call.args:
            return
        arg = call.args[0]
        arg_kind, arg_ref = self._shipped_arg(arg, local)
        fn.ships.append(
            ShipSite(
                method=func.attr,
                receiver_ref=receiver_ref,
                arg_kind=arg_kind,
                arg_ref=arg_ref,
                line=call.lineno,
                line_text=self.src.line_text(call.lineno),
            )
        )

    def _receiver_class(
        self, expr: ast.expr, local: "_LocalScope"
    ) -> Optional[str]:
        if isinstance(expr, ast.Name):
            inferred = local.var_types.get(expr.id)
            if inferred is not None:
                return inferred
            return None
        if isinstance(expr, ast.Call):
            # ExecutionPlan(...).stream(...) — receiver is the constructed
            # class itself.
            return self._ref_of_expr(expr.func, local)
        if (
            isinstance(expr, ast.Attribute)
            and isinstance(expr.value, ast.Name)
            and expr.value.id == "self"
        ):
            return local.attr_types.get(expr.attr)
        return None

    def _shipped_arg(
        self, arg: ast.expr, local: "_LocalScope"
    ) -> Tuple[str, Optional[str]]:
        if isinstance(arg, ast.Lambda):
            return "lambda", None
        if isinstance(arg, ast.Name) and arg.id in local.nested_defs:
            return "nested", arg.id
        if isinstance(arg, ast.Call):
            ref = self._ref_of_expr(arg.func, local)
            if ref in ("functools.partial", "partial"):
                inner = self._partial_target(arg, local)
                if inner is not None:
                    return "ref", inner
            return "unknown", None
        ref = self._ref_of_expr(arg, local)
        if ref is not None:
            return "ref", ref
        return "unknown", None

    # -- local type inference ------------------------------------------
    def _infer_types(self, node: ast.FunctionDef, local: "_LocalScope") -> None:
        args = node.args
        for arg in (
            *args.posonlyargs,
            *args.args,
            *args.kwonlyargs,
            args.vararg,
            args.kwarg,
        ):
            if arg is None or arg.annotation is None:
                continue
            ref = self._annotation_class(arg.annotation)
            if ref is not None:
                local.var_types[arg.arg] = ref
        for inner in ast.walk(node):
            if isinstance(inner, ast.Assign) and len(inner.targets) == 1:
                target = inner.targets[0]
                if isinstance(target, ast.Name):
                    self._infer_assignment(target.id, inner.value, local)
            elif isinstance(inner, ast.AnnAssign) and isinstance(
                inner.target, ast.Name
            ):
                ref = self._annotation_class(inner.annotation)
                if ref is not None:
                    local.var_types[inner.target.id] = ref
            elif isinstance(inner, ast.With):
                for item in inner.items:
                    if (
                        isinstance(item.optional_vars, ast.Name)
                        and isinstance(item.context_expr, ast.Call)
                    ):
                        ref = self._ref_of_expr(
                            item.context_expr.func, local, infer=False
                        )
                        if ref is not None:
                            local.var_types[item.optional_vars.id] = ref

    def _infer_assignment(
        self, name: str, value: ast.expr, local: "_LocalScope"
    ) -> None:
        # v = Class(...) — possibly behind a conditional expression.
        calls = (
            [value]
            if isinstance(value, ast.Call)
            else [
                branch
                for branch in (
                    (value.body, value.orelse)
                    if isinstance(value, ast.IfExp)
                    else ()
                )
                if isinstance(branch, ast.Call)
            ]
        )
        for call in calls:
            ref = self._ref_of_expr(call.func, local, infer=False)
            if ref is None:
                continue
            if ref in ("functools.partial", "partial"):
                inner = self._partial_target(call, local)
                if inner is not None:
                    local.aliases[name] = inner
                return
            local.var_types[name] = ref
            return
        # v = f — plain alias of a resolvable callable.
        if isinstance(value, (ast.Name, ast.Attribute)):
            ref = self._ref_of_expr(value, local, infer=False)
            if ref is not None:
                local.aliases[name] = ref

    def _annotation_class(self, ann: ast.expr) -> Optional[str]:
        """First project-resolvable class ref inside an annotation."""
        if isinstance(ann, (ast.Name, ast.Attribute)):
            return self._ref_of_expr(ann, _EMPTY_LOCAL)
        if isinstance(ann, ast.Subscript):
            head = ann.value
            head_name = (
                head.id
                if isinstance(head, ast.Name)
                else head.attr
                if isinstance(head, ast.Attribute)
                else None
            )
            if head_name in ("Optional", "Union"):
                inner = ann.slice
                elements = (
                    inner.elts if isinstance(inner, ast.Tuple) else [inner]
                )
                for element in elements:
                    ref = self._annotation_class(element)
                    if ref is not None:
                        return ref
        if isinstance(ann, ast.BinOp) and isinstance(ann.op, ast.BitOr):
            return self._annotation_class(ann.left) or self._annotation_class(
                ann.right
            )
        return None

    # -- reference resolution ------------------------------------------
    def _ref_of_expr(
        self,
        expr: ast.expr,
        local: "_LocalScope",
        *,
        infer: bool = True,
    ) -> Optional[str]:
        """Dotted reference of a name/attribute chain, or None.

        ``infer=False`` disables the use of inferred variable types (used
        while *building* those inferences, to avoid self-reference).
        """
        parts: List[str] = []
        node = expr
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        parts.reverse()
        root = node.id

        if root in ("self", "cls") and local.class_name is not None:
            if len(parts) == 1:
                return f"{self.module}.{local.class_name}.{parts[0]}"
            # self.<attr>.<method>: typed by the constructor __init__
            # assigns to the attribute, if any.
            if infer and parts and parts[0] in local.attr_types:
                return ".".join([local.attr_types[parts[0]], *parts[1:]])
            return None
        if infer and root in local.var_types and parts:
            return ".".join([local.var_types[root], *parts])
        if infer and not parts and root in local.aliases:
            return local.aliases[root]
        if local.binds(root):
            return None
        origin = self.imports.get(root)
        if origin is not None:
            return ".".join([origin, *parts])
        if root in self.module_defs:
            return ".".join([self.module, root, *parts])
        return None


# ----------------------------------------------------------------------
# Local scopes
# ----------------------------------------------------------------------
class _LocalScope:
    """Names bound inside one function (nested defs folded in)."""

    def __init__(self, class_name: Optional[str] = None):
        self.class_name = class_name
        self.names: Set[str] = set()
        self.global_decls: Set[str] = set()
        self.nested_defs: Set[str] = set()
        self.var_types: Dict[str, str] = {}
        self.aliases: Dict[str, str] = {}
        self.attr_types: Dict[str, str] = {}  # self.<attr> -> class

    def binds(self, name: str) -> bool:
        return name in self.names

    @classmethod
    def of(
        cls, node: ast.FunctionDef, class_name: Optional[str]
    ) -> "_LocalScope":
        scope = cls(class_name)
        args = node.args
        for arg in (
            *args.posonlyargs,
            *args.args,
            *args.kwonlyargs,
            args.vararg,
            args.kwarg,
        ):
            if arg is not None:
                scope.names.add(arg.arg)
        for inner in ast.walk(node):
            if isinstance(inner, ast.Global):
                scope.global_decls.update(inner.names)
            elif isinstance(inner, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if inner is not node:
                    scope.names.add(inner.name)
                    scope.nested_defs.add(inner.name)
            elif isinstance(inner, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                targets = (
                    inner.targets
                    if isinstance(inner, ast.Assign)
                    else [inner.target]
                )
                for target in targets:
                    scope.names.update(_bound_names(target))
            elif isinstance(inner, ast.NamedExpr):
                scope.names.update(_bound_names(inner.target))
            elif isinstance(inner, ast.For):
                scope.names.update(_bound_names(inner.target))
            elif isinstance(inner, ast.With):
                for item in inner.items:
                    if item.optional_vars is not None:
                        scope.names.update(_bound_names(item.optional_vars))
            elif isinstance(inner, ast.ExceptHandler):
                if inner.name:
                    scope.names.add(inner.name)
            elif isinstance(inner, ast.comprehension):
                scope.names.update(_bound_names(inner.target))
            elif isinstance(inner, (ast.Import, ast.ImportFrom)):
                for alias in inner.names:
                    if alias.name != "*":
                        scope.names.add(
                            alias.asname or alias.name.split(".", 1)[0]
                        )
        scope.names -= scope.global_decls
        return scope


def _bound_names(target: ast.expr) -> Sequence[str]:
    if isinstance(target, ast.Name):
        return (target.id,)
    if isinstance(target, (ast.Tuple, ast.List)):
        names: List[str] = []
        for element in target.elts:
            names.extend(_bound_names(element))
        return names
    if isinstance(target, ast.Starred):
        return _bound_names(target.value)
    return ()


_EMPTY_LOCAL = _LocalScope()
