"""Symbolic shape abstract interpretation over one function body.

This is the extraction half of the shape analysis: a small abstract
interpreter that walks one function's AST and produces the serializable
facts (:class:`~repro.analysis.flow.summary.AllocSite`,
:class:`~repro.analysis.flow.summary.SortEvent`, call-site guards and
argument extent classes) the interprocedural passes in
:mod:`repro.analysis.flow.scope`, :mod:`repro.analysis.flow.dense` and
:mod:`repro.analysis.flow.ordering` consume.

Extent lattice (per array dimension)::

    unknown < const < tile < big < quad

* ``const`` — a literal or provably-bounded value;
* ``tile`` — a :class:`~repro.perf.plan.Tile` extent (``tile.size``,
  ``tile.stop - tile.start``): bounded by the tile size, so ``tile x big``
  is the sanctioned streaming shape;
* ``big`` — proportional to the record count: ``len(...)``, ``x.shape[0]``,
  an attribute or name matching the record-count convention (``n``, ``m``,
  ``n_*``, ``num_*``);
* ``quad`` — a product of two ``big`` extents (``n * m``) — quadratic on
  its own, even one-dimensional;
* ``param:<name>`` — deferred: the extent of a function parameter, joined
  over the extent classes its call sites actually pass (the fixpoint in
  :mod:`repro.analysis.flow.scope`), so a helper that allocates
  ``np.zeros((n, n))`` is classified by what its callers feed it.

The analysis **under-approximates**: ``unknown`` never fires, unresolved
references produce no fact, and a dimension only counts toward
Theta(n^2) when its class provably joins to ``big``/``quad``.

Path conditions ("guards") are conjunction atoms collected from enclosing
``if`` tests over the pipeline knobs (``storage``/``precision``/
``blocking``) and ``isinstance(x, Sparse*)`` checks, with else-branch and
early-return inversion — ``if storage == "sparse": ... return`` leaves
``storage!=sparse`` active for the rest of the body. The dense pass uses
them both to *exclude* knob-guarded dense branches and to *seed* the
sparse-path kernel region.
"""

from __future__ import annotations

import ast
import re
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.flow.summary import AllocSite, SortEvent

#: Names conventionally holding a record count (the ``n`` of Theta(n^2)).
BIG_NAME_RE = re.compile(r"^(n|m|n_[a-z0-9_]+|num_[a-z0-9_]+)$")

#: Pipeline knobs whose comparisons become path-condition atoms.
KNOB_NAMES = frozenset({"storage", "precision", "blocking"})

#: Class-name prefix marking sparse storage types (``SparsePairwise``).
SPARSE_CLASS_PREFIX = "Sparse"

#: Guard atoms that place a site on an explicitly non-sparse path.
DENSE_PATH_ATOMS = frozenset({"storage!=sparse", "!sparse-inst"})

#: Guard atoms that seed sparse-path reachability at a call site.
SPARSE_PATH_ATOMS = frozenset({"storage==sparse", "sparse-inst"})

_EXTENT_ORDER = {"unknown": 0, "const": 1, "tile": 2, "big": 3, "quad": 4}

#: Allocators whose first argument (or ``shape=``) is the array shape.
_ALLOCATORS = frozenset(
    {"numpy.zeros", "numpy.ones", "numpy.empty", "numpy.full"}
)

#: Allocators whose result takes the shape of their first argument.
_LIKE_ALLOCATORS = frozenset(
    {
        "numpy.zeros_like",
        "numpy.ones_like",
        "numpy.empty_like",
        "numpy.full_like",
    }
)

_STABLE_SORT_KINDS = frozenset({"stable", "mergesort"})


def join_extent(a: str, b: str) -> str:
    """Least upper bound of two resolved extent classes."""
    return a if _EXTENT_ORDER.get(a, 0) >= _EXTENT_ORDER.get(b, 0) else b


def name_extent_class(name: str) -> str:
    """Extent class a bare name implies by convention, or ``unknown``."""
    return "big" if BIG_NAME_RE.match(name) else "unknown"


def _display(expr: ast.expr, limit: int = 24) -> str:
    try:
        text = ast.unparse(expr)
    except Exception:  # pragma: no cover - unparse is total on real ASTs
        text = "?"
    return text if len(text) <= limit else text[: limit - 1] + "…"


def _terminal_name(expr: ast.expr) -> Optional[str]:
    """Right-most identifier of a name/attribute chain."""
    if isinstance(expr, ast.Attribute):
        return expr.attr
    if isinstance(expr, ast.Name):
        return expr.id
    return None


# ----------------------------------------------------------------------
# Guards: path-condition atoms with else/early-return inversion
# ----------------------------------------------------------------------
def _knob_atoms(test: ast.expr) -> Tuple[str, ...]:
    """Conjunction atoms of one ``if`` test (empty = no information)."""
    if isinstance(test, ast.BoolOp) and isinstance(test.op, ast.And):
        out: List[str] = []
        for value in test.values:
            out.extend(_knob_atoms(value))
        return tuple(out)
    if isinstance(test, ast.UnaryOp) and isinstance(test.op, ast.Not):
        return _negate_atoms(_knob_atoms(test.operand))
    if isinstance(test, ast.Compare) and len(test.ops) == 1:
        op = test.ops[0]
        if not isinstance(op, (ast.Eq, ast.NotEq)):
            return ()
        left, right = test.left, test.comparators[0]
        for knob_side, lit_side in ((left, right), (right, left)):
            knob = _terminal_name(knob_side)
            if (
                knob in KNOB_NAMES
                and isinstance(lit_side, ast.Constant)
                and isinstance(lit_side.value, str)
            ):
                rel = "==" if isinstance(op, ast.Eq) else "!="
                return (f"{knob}{rel}{lit_side.value}",)
        return ()
    if (
        isinstance(test, ast.Call)
        and isinstance(test.func, ast.Name)
        and test.func.id == "isinstance"
        and len(test.args) == 2
    ):
        classes = (
            test.args[1].elts
            if isinstance(test.args[1], ast.Tuple)
            else [test.args[1]]
        )
        for cls_expr in classes:
            name = _terminal_name(cls_expr)
            if name is not None and name.startswith(SPARSE_CLASS_PREFIX):
                return ("sparse-inst",)
    return ()


def _negate_atoms(atoms: Sequence[str]) -> Tuple[str, ...]:
    """Negation of a conjunction — only exact when it has one atom."""
    if len(atoms) != 1:
        return ()
    atom = atoms[0]
    if atom == "sparse-inst":
        return ("!sparse-inst",)
    if atom == "!sparse-inst":
        return ("sparse-inst",)
    if "==" in atom:
        return (atom.replace("==", "!=", 1),)
    if "!=" in atom:
        return (atom.replace("!=", "==", 1),)
    return ()


def _terminates(body: Sequence[ast.stmt]) -> bool:
    if not body:
        return False
    return isinstance(body[-1], (ast.Return, ast.Raise, ast.Continue, ast.Break))


#: A node's position key. Guards are keyed by ``(lineno, col_offset)``
#: rather than object identity: positions are deterministic across
#: runs, and nodes sharing a position share a lexical guard context.
GuardKey = Tuple[int, int]


def _guard_key(node: ast.AST) -> Optional[GuardKey]:
    lineno = getattr(node, "lineno", None)
    if lineno is None:
        return None
    return (lineno, getattr(node, "col_offset", 0))


def guard_map(fn_node: ast.AST) -> Dict[GuardKey, Tuple[str, ...]]:
    """Position ``-> active guard atoms`` for every node under ``fn_node``."""
    out: Dict[GuardKey, Tuple[str, ...]] = {}

    def mark(node: ast.AST, guards: Tuple[str, ...]) -> None:
        key = _guard_key(node)
        if key is not None:
            out.setdefault(key, guards)

    def tag(node: ast.AST, guards: Tuple[str, ...]) -> None:
        for inner in ast.walk(node):
            mark(inner, guards)

    def visit(stmts: Sequence[ast.stmt], active: Tuple[str, ...]) -> None:
        pending = active
        for stmt in stmts:
            if isinstance(stmt, ast.If):
                atoms = _knob_atoms(stmt.test)
                negated = _negate_atoms(atoms)
                tag(stmt.test, pending)
                mark(stmt, pending)
                visit(stmt.body, pending + atoms)
                visit(stmt.orelse, pending + negated)
                if not stmt.orelse and _terminates(stmt.body):
                    pending = pending + negated
            elif isinstance(stmt, (ast.For, ast.AsyncFor, ast.While)):
                mark(stmt, pending)
                for fld in ("target", "iter", "test"):
                    child = getattr(stmt, fld, None)
                    if child is not None:
                        tag(child, pending)
                visit(stmt.body, pending)
                visit(stmt.orelse, pending)
            elif isinstance(stmt, (ast.With, ast.AsyncWith)):
                mark(stmt, pending)
                for item in stmt.items:
                    tag(item.context_expr, pending)
                    if item.optional_vars is not None:
                        tag(item.optional_vars, pending)
                visit(stmt.body, pending)
            elif isinstance(stmt, ast.Try):
                mark(stmt, pending)
                visit(stmt.body, pending)
                for handler in stmt.handlers:
                    mark(handler, pending)
                    if handler.type is not None:
                        tag(handler.type, pending)
                    visit(handler.body, pending)
                visit(stmt.orelse, pending)
                visit(stmt.finalbody, pending)
            else:
                tag(stmt, pending)

    body = getattr(fn_node, "body", None)
    if isinstance(body, list):
        mark(fn_node, ())
        visit(body, ())
    return out


# ----------------------------------------------------------------------
# The per-function interpreter
# ----------------------------------------------------------------------
class ShapeExtractor:
    """Evaluate one function body over the extent domain.

    ``owner`` is the module extractor (duck-typed: it provides
    ``_ref_of_expr`` and ``src``); ``local`` its per-function scope. The
    constructor runs the environment-building pass; ``guards_at`` /
    ``arg_classes`` serve the call-site walk, and :meth:`collect` appends
    the alloc/sort facts to a summary.
    """

    def __init__(self, owner, fn_node: ast.AST, local) -> None:
        self.owner = owner
        self.node = fn_node
        self.local = local
        args = fn_node.args
        self.params: List[str] = [
            a.arg
            for a in (*args.posonlyargs, *args.args)
            if a.arg not in ("self", "cls")
        ]
        self._param_set = frozenset(self.params)
        self.guards = guard_map(fn_node)
        self._ext_env: Dict[str, Tuple[str, str]] = {}
        self._arr_env: Dict[str, Tuple[Tuple[str, str], ...]] = {}
        self._build_envs()

    # -- environments --------------------------------------------------
    def _build_envs(self) -> None:
        assigns: List[Tuple[int, int, str, ast.expr]] = []
        for inner in ast.walk(self.node):
            if isinstance(inner, ast.Assign) and len(inner.targets) == 1:
                target = inner.targets[0]
                if isinstance(target, ast.Name):
                    assigns.append(
                        (inner.lineno, inner.col_offset, target.id, inner.value)
                    )
            elif isinstance(inner, ast.AnnAssign) and inner.value is not None:
                if isinstance(inner.target, ast.Name):
                    assigns.append(
                        (
                            inner.lineno,
                            inner.col_offset,
                            inner.target.id,
                            inner.value,
                        )
                    )
        assigns.sort(key=lambda item: (item[0], item[1]))
        for _, _, name, value in assigns:
            display, cls = self.extent_of(value)
            if cls != "unknown":
                previous = self._ext_env.get(name)
                if previous is not None and previous[1] != cls:
                    cls = join_extent(previous[1], cls)
                self._ext_env[name] = (name, cls)
            dims = self.array_of(value)
            if dims is not None:
                self._arr_env[name] = dims

    # -- call-site services --------------------------------------------
    def guards_at(self, node: ast.AST) -> Tuple[str, ...]:
        key = _guard_key(node)
        if key is None:
            return ()
        return self.guards.get(key, ())

    def arg_classes(self, call: ast.Call, limit: int = 8) -> Tuple[str, ...]:
        """Extent classes of the positional arguments (deferred params kept)."""
        classes: List[str] = []
        for arg in call.args[:limit]:
            if isinstance(arg, ast.Starred):
                break
            classes.append(self.extent_of(arg)[1])
        while classes and classes[-1] == "unknown":
            classes.pop()
        return tuple(classes)

    # -- extent evaluation ---------------------------------------------
    def extent_of(self, expr: ast.expr) -> Tuple[str, str]:
        """``(display, class)`` of a scalar extent expression."""
        if isinstance(expr, ast.Constant):
            if isinstance(expr.value, bool) or not isinstance(
                expr.value, (int, float)
            ):
                return (_display(expr), "unknown")
            return (repr(expr.value), "const")
        if isinstance(expr, ast.Name):
            bound = self._ext_env.get(expr.id)
            if bound is not None and bound[1] != "unknown":
                return (expr.id, bound[1])
            if expr.id in self._param_set:
                return (expr.id, f"param:{expr.id}")
            return (expr.id, name_extent_class(expr.id))
        if isinstance(expr, ast.Attribute):
            return (_display(expr), self._attribute_class(expr))
        if isinstance(expr, ast.Subscript):
            return (_display(expr), self._subscript_class(expr))
        if isinstance(expr, ast.Call):
            return self._call_extent(expr)
        if isinstance(expr, ast.BinOp):
            return (_display(expr), self._binop_class(expr))
        if isinstance(expr, ast.IfExp):
            body_cls = self.extent_of(expr.body)[1]
            orelse_cls = self.extent_of(expr.orelse)[1]
            return (_display(expr), join_extent(body_cls, orelse_cls))
        if isinstance(expr, ast.UnaryOp):
            return (_display(expr), self.extent_of(expr.operand)[1])
        return (_display(expr), "unknown")

    def _is_tile_root(self, expr: ast.expr) -> bool:
        if not isinstance(expr, ast.Name):
            return False
        if expr.id == "tile":
            return True
        inferred = self.local.var_types.get(expr.id, "")
        return inferred == "Tile" or inferred.endswith(".Tile")

    def _attribute_class(self, expr: ast.Attribute) -> str:
        if expr.attr in ("size", "start", "stop") and self._is_tile_root(
            expr.value
        ):
            return "tile"
        if BIG_NAME_RE.match(expr.attr):
            return "big"
        return "unknown"

    def _subscript_class(self, expr: ast.Subscript) -> str:
        """``x.shape[k]`` — dimension ``k``'s class (row counts are big)."""
        base = expr.value
        if not (isinstance(base, ast.Attribute) and base.attr == "shape"):
            return "unknown"
        index = expr.slice
        if not (
            isinstance(index, ast.Constant) and isinstance(index.value, int)
        ):
            return "unknown"
        if isinstance(base.value, ast.Name):
            tracked = self._arr_env.get(base.value.id)
            if tracked is not None and index.value < len(tracked):
                return tracked[index.value][1]
        return "big" if index.value == 0 else "unknown"

    def _call_extent(self, call: ast.Call) -> Tuple[str, str]:
        func = call.func
        if isinstance(func, ast.Name) and not self.local.binds(func.id):
            if func.id == "len":
                return (_display(call), "big")
            if func.id in ("int", "abs", "round") and call.args:
                return (_display(call), self.extent_of(call.args[0])[1])
            if func.id in ("min", "max") and call.args:
                classes = [self.extent_of(a)[1] for a in call.args]
                if func.id == "max":
                    cls = "unknown"
                    for c in classes:
                        cls = join_extent(cls, c)
                else:
                    # min() is bounded by its *smallest* operand.
                    cls = min(classes, key=lambda c: _EXTENT_ORDER.get(c, 0))
                return (_display(call), cls)
        return (_display(call), "unknown")

    def _binop_class(self, expr: ast.BinOp) -> str:
        left = self.extent_of(expr.left)[1]
        right = self.extent_of(expr.right)[1]
        if isinstance(expr.op, (ast.Add, ast.Sub)):
            if left == right == "const":
                return "const"
            return join_extent(left, right)
        if isinstance(expr.op, ast.Mult):
            if _EXTENT_ORDER.get(left, 0) >= 3 and _EXTENT_ORDER.get(right, 0) >= 3:
                return "quad"
            return join_extent(left, right)
        if isinstance(expr.op, (ast.Div, ast.FloorDiv)):
            return left
        return "unknown"

    # -- array evaluation ----------------------------------------------
    def array_of(
        self, expr: ast.expr
    ) -> Optional[Tuple[Tuple[str, str], ...]]:
        """Per-dimension extents of an array-producing expression, if known."""
        if not isinstance(expr, ast.Call):
            return None
        func = expr.func
        if isinstance(func, ast.Attribute) and func.attr == "astype":
            if isinstance(func.value, ast.Name):
                return self._arr_env.get(func.value.id)
            return None
        ref = self.owner._ref_of_expr(func, self.local)
        if ref in _ALLOCATORS:
            return self._alloc_dims(expr)
        if ref in _LIKE_ALLOCATORS:
            if expr.args and isinstance(expr.args[0], ast.Name):
                return self._arr_env.get(expr.args[0].id)
            return None
        if ref == "numpy.outer" and len(expr.args) >= 2:
            return (
                self._vector_extent(expr.args[0]),
                self._vector_extent(expr.args[1]),
            )
        if ref == "numpy.broadcast_to" and len(expr.args) >= 2:
            return self._shape_dims(expr.args[1])
        if ref == "numpy.arange":
            return ((_display(expr), "big"),)
        return None

    def _alloc_dims(
        self, call: ast.Call
    ) -> Optional[Tuple[Tuple[str, str], ...]]:
        shape: Optional[ast.expr] = call.args[0] if call.args else None
        for kw in call.keywords:
            if kw.arg == "shape":
                shape = kw.value
        if shape is None:
            return None
        return self._shape_dims(shape)

    def _shape_dims(self, shape: ast.expr) -> Tuple[Tuple[str, str], ...]:
        if isinstance(shape, (ast.Tuple, ast.List)):
            return tuple(self.extent_of(e) for e in shape.elts)
        return (self.extent_of(shape),)

    def _vector_extent(self, expr: ast.expr) -> Tuple[str, str]:
        """Extent of a 1-D array argument (``np.outer`` operands)."""
        if isinstance(expr, ast.Name):
            dims = self._arr_env.get(expr.id)
            if dims is not None and len(dims) == 1:
                return dims[0]
        return (_display(expr), "unknown")

    # -- event collection ----------------------------------------------
    def collect(self, fn) -> None:
        """Append alloc/sort facts and params to ``fn`` (a summary)."""
        for inner in ast.walk(self.node):
            if isinstance(inner, ast.Call):
                self._collect_alloc(fn, inner)
                self._collect_sort(fn, inner)
        self._collect_broadcasts(fn)
        fn.params = list(self.params)
        fn.allocs.sort(key=lambda a: (a.line, a.what))
        fn.sorts.sort(key=lambda s: (s.line, s.kind, s.what))

    def _record_alloc(
        self,
        fn,
        what: str,
        dims: Sequence[Tuple[str, str]],
        node: ast.AST,
    ) -> None:
        classes = [cls for _, cls in dims]
        promotable = sum(
            1
            for cls in classes
            if cls in ("big", "quad") or cls.startswith("param:")
        )
        if not any(cls == "quad" for cls in classes) and promotable < 2:
            if not (len(classes) == 1 and classes[0].startswith("param:")):
                return
        fn.allocs.append(
            AllocSite(
                what=what,
                extents=tuple(d for d, _ in dims),
                classes=tuple(classes),
                line=node.lineno,
                line_text=self.owner.src.line_text(node.lineno),
                guards=self.guards_at(node),
            )
        )

    def _collect_alloc(self, fn, call: ast.Call) -> None:
        dims = self.array_of(call)
        if dims is None:
            return
        ref = (
            self.owner._ref_of_expr(call.func, self.local)
            if not (
                isinstance(call.func, ast.Attribute)
                and call.func.attr == "astype"
            )
            else None
        )
        if ref is None:
            return
        self._record_alloc(fn, ref, dims, call)

    def _collect_broadcasts(self, fn) -> None:
        """``x[:, None] <op> y[None, :]`` — an outer-product broadcast."""
        for inner in ast.walk(self.node):
            if not isinstance(inner, ast.BinOp):
                continue
            left = self._broadcast_operand(inner.left, axis=0)
            right = self._broadcast_operand(inner.right, axis=1)
            if left is None or right is None:
                continue
            self._record_alloc(fn, "broadcast", (left, right), inner)

    def _broadcast_operand(
        self, expr: ast.expr, axis: int
    ) -> Optional[Tuple[str, str]]:
        """Extent of ``name[:, None]`` (axis 0) / ``name[None, :]`` (axis 1)."""
        if not (
            isinstance(expr, ast.Subscript)
            and isinstance(expr.value, ast.Name)
            and isinstance(expr.slice, ast.Tuple)
            and len(expr.slice.elts) == 2
        ):
            return None
        expand, keep = (1, 0) if axis == 0 else (0, 1)
        elts = expr.slice.elts
        is_none = (
            isinstance(elts[expand], ast.Constant) and elts[expand].value is None
        )
        is_full = (
            isinstance(elts[keep], ast.Slice)
            and elts[keep].lower is None
            and elts[keep].upper is None
        )
        if not (is_none and is_full):
            return None
        return self._vector_extent(expr.value)

    def _collect_sort(self, fn, call: ast.Call) -> None:
        func = call.func
        ref = self.owner._ref_of_expr(func, self.local)
        if ref in ("numpy.argsort", "numpy.sort") or (
            ref is None
            and isinstance(func, ast.Attribute)
            and func.attr == "argsort"
        ):
            kind_value: Optional[str] = None
            for kw in call.keywords:
                if kw.arg == "kind" and isinstance(kw.value, ast.Constant):
                    kind_value = str(kw.value.value)
            if kind_value not in _STABLE_SORT_KINDS:
                fn.sorts.append(
                    SortEvent(
                        kind="unstable-argsort",
                        what=ref if ref is not None else ".argsort",
                        line=call.lineno,
                    )
                )


def function_roles(
    fn_node: ast.AST, class_name: Optional[str], annotation_class
) -> List[str]:
    """Kernel-region seed roles of one function definition.

    ``annotation_class`` maps an annotation expression to a dotted class
    ref (the module extractor's ``_annotation_class``). Roles:

    * ``"sparse-param"`` — a parameter is annotated with a ``Sparse*``
      class (including through ``Optional``/``Union``);
    * ``"sparse-class"`` — a method of a ``Sparse*`` class.
    """
    roles: List[str] = []
    args = fn_node.args
    for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs):
        if arg.annotation is None:
            continue
        ref = annotation_class(arg.annotation)
        if ref is not None and ref.rsplit(".", 1)[-1].startswith(
            SPARSE_CLASS_PREFIX
        ):
            roles.append("sparse-param")
            break
    if class_name is not None and class_name.startswith(SPARSE_CLASS_PREFIX):
        roles.append("sparse-class")
    return roles
