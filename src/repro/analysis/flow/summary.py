"""Serializable per-module facts the whole-program passes consume.

A :class:`ModuleSummary` is everything the cross-module phases (symbol
resolution, call graph, taint, purity) need from one file — and nothing
they do not — so it can be cached on disk keyed by content hash and a
warm run never re-parses unchanged files.

References between modules are plain dotted strings (``"repro.core.
clustering.Linkage.cut"``), resolved lazily by the
:class:`~repro.analysis.flow.index.ProjectIndex` so a summary never holds
pointers into another module's AST.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.analysis.suppress import Suppressions

#: Bump when the extraction format changes; stale cache entries are dropped.
#: v3 added the symbolic shape facts (allocs, sort events, call guards
#: and argument extent classes) for the :mod:`repro.analysis.flow.shapes`
#: passes; v4 dropped the ``"densifier"`` kernel-region role; v5 dropped
#: the dtype facts (``dtype_events``, ``returns_dtype``); v6 dropped the
#: order-sensitive merges (``merges``) and the stable-sort events, and
#: types ``self.<attr>`` ship receivers from ``__init__``; v7 resolves
#: ``self.<attr>.<method>(...)`` calls through the same typing.
SUMMARY_VERSION = 7


@dataclass(frozen=True)
class CallSite:
    """One resolved-enough call target inside a function body.

    ``guards`` are the path-condition atoms active at the call (see
    :mod:`repro.analysis.flow.shapes`), e.g. ``("storage==sparse",)`` for
    a call inside an ``if storage == "sparse":`` branch — the dense-alloc
    pass seeds sparse-path reachability from them. ``arg_classes`` are the
    symbolic extent classes of the positional arguments, used to
    instantiate a callee's parameter extents interprocedurally.
    """

    ref: str  # dotted target, e.g. "repro.core.textsim.SoftCosineModel.fit"
    line: int
    guards: Tuple[str, ...] = ()
    arg_classes: Tuple[str, ...] = ()

    def to_dict(self) -> Dict[str, object]:
        return {
            "ref": self.ref,
            "line": self.line,
            "guards": list(self.guards),
            "arg_classes": list(self.arg_classes),
        }

    @classmethod
    def from_dict(cls, d: Dict[str, object]) -> "CallSite":
        return cls(
            ref=str(d["ref"]),
            line=int(d["line"]),  # type: ignore[arg-type]
            guards=tuple(str(g) for g in d.get("guards", ())),  # type: ignore[union-attr]
            arg_classes=tuple(str(a) for a in d.get("arg_classes", ())),  # type: ignore[union-attr]
        )


@dataclass(frozen=True)
class AllocSite:
    """One potentially-quadratic array allocation or broadcast.

    Only allocations that *could* resolve to Theta(n^2) are recorded:
    at least two dimensions whose extent class is ``big``/``quad`` or a
    deferred ``param:<name>`` (resolved against call sites by the
    dense-alloc pass), or any single ``quad`` dimension. ``guards`` carry
    the path-condition atoms at the allocation so knob-guarded dense
    branches (``if storage == "dense":``) are excluded.
    """

    what: str  # allocator ref, e.g. "numpy.zeros", "numpy.outer", "broadcast"
    extents: Tuple[str, ...]  # display form per dimension, e.g. ("n", "n")
    classes: Tuple[str, ...]  # extent class per dimension
    line: int
    line_text: str = ""  # stripped allocation line (finding fingerprints)
    guards: Tuple[str, ...] = ()

    def to_dict(self) -> Dict[str, object]:
        return {
            "what": self.what,
            "extents": list(self.extents),
            "classes": list(self.classes),
            "line": self.line,
            "line_text": self.line_text,
            "guards": list(self.guards),
        }

    @classmethod
    def from_dict(cls, d: Dict[str, object]) -> "AllocSite":
        return cls(
            what=str(d["what"]),
            extents=tuple(str(e) for e in d.get("extents", ())),  # type: ignore[union-attr]
            classes=tuple(str(c) for c in d.get("classes", ())),  # type: ignore[union-attr]
            line=int(d["line"]),  # type: ignore[arg-type]
            line_text=str(d.get("line_text", "")),
            guards=tuple(str(g) for g in d.get("guards", ())),  # type: ignore[union-attr]
        )


@dataclass(frozen=True)
class SortEvent:
    """One sort whose tie order is not reproducible.

    ``kind`` is ``"unstable-argsort"``: a default-``kind`` ``np.argsort``/
    ``np.sort``, whose ties permute with memory layout.
    """

    kind: str
    what: str  # display form: "numpy.argsort", "numpy.sort", ".argsort"
    line: int

    def to_dict(self) -> Dict[str, object]:
        return {"kind": self.kind, "what": self.what, "line": self.line}

    @classmethod
    def from_dict(cls, d: Dict[str, object]) -> "SortEvent":
        return cls(
            kind=str(d["kind"]), what=str(d["what"]), line=int(d["line"])  # type: ignore[arg-type]
        )


@dataclass(frozen=True)
class TaintSource:
    """A nondeterminism source observed directly in a function body."""

    kind: str  # "wall-clock" | "global-rng" | "fs-order" | "object-identity"
    what: str  # e.g. "time.time", "os.listdir", "id"
    line: int

    def to_dict(self) -> Dict[str, object]:
        return {"kind": self.kind, "what": self.what, "line": self.line}

    @classmethod
    def from_dict(cls, d: Dict[str, object]) -> "TaintSource":
        return cls(
            kind=str(d["kind"]), what=str(d["what"]), line=int(d["line"])  # type: ignore[arg-type]
        )


@dataclass(frozen=True)
class StateWrite:
    """A write to module-level state observed in a function body.

    ``name`` is the root binding in the writing module's namespace; for a
    write through an attribute chain rooted at a module-level name (e.g.
    ``config.FLAGS[...] = v`` with ``config`` imported), ``attr`` carries
    the first attribute so the race pass can canonicalize the location to
    the module that owns it.
    """

    name: str  # the module-level name written/mutated
    how: str  # "global-assign" | "mutation" | "subscript" | "attribute"
    line: int
    attr: str = ""  # first attribute below the root, when written through one

    def to_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "how": self.how,
            "line": self.line,
            "attr": self.attr,
        }

    @classmethod
    def from_dict(cls, d: Dict[str, object]) -> "StateWrite":
        return cls(
            name=str(d["name"]),
            how=str(d["how"]),
            line=int(d["line"]),  # type: ignore[arg-type]
            attr=str(d.get("attr", "")),
        )


@dataclass(frozen=True)
class StateRead:
    """A read of module-level (or imported-module) state in a function body.

    Mirrors :class:`StateWrite`: ``name`` is the root binding, ``attr`` the
    first attribute when the read goes through one (``config.FLAGS``). The
    race pass pairs reads against concurrent writes of the same canonical
    location; reads on their own are harmless and carry no finding.
    """

    name: str
    line: int
    attr: str = ""

    def to_dict(self) -> Dict[str, object]:
        return {"name": self.name, "line": self.line, "attr": self.attr}

    @classmethod
    def from_dict(cls, d: Dict[str, object]) -> "StateRead":
        return cls(
            name=str(d["name"]),
            line=int(d["line"]),  # type: ignore[arg-type]
            attr=str(d.get("attr", "")),
        )


@dataclass(frozen=True)
class ShipSite:
    """A call site that ships a callable across the process boundary.

    ``arg_kind`` is ``"ref"`` when the shipped callable resolved to a
    dotted reference, ``"lambda"`` / ``"nested"`` when it is a lambda or a
    function defined inside the shipping function (both unpicklable and
    closure-carrying — flagged directly), ``"unknown"`` when the argument
    could not be resolved (e.g. a parameter; the purity pass skips it).
    """

    method: str  # "stream" | "run" | "submit"
    receiver_ref: Optional[str]  # dotted class ref of the receiver, if known
    arg_kind: str  # "ref" | "lambda" | "nested" | "unknown"
    arg_ref: Optional[str]  # dotted ref of the shipped callable
    line: int
    line_text: str = ""  # stripped ship-call line (baseline fingerprints)

    def to_dict(self) -> Dict[str, object]:
        return {
            "method": self.method,
            "receiver_ref": self.receiver_ref,
            "arg_kind": self.arg_kind,
            "arg_ref": self.arg_ref,
            "line": self.line,
            "line_text": self.line_text,
        }

    @classmethod
    def from_dict(cls, d: Dict[str, object]) -> "ShipSite":
        return cls(
            method=str(d["method"]),
            receiver_ref=None if d.get("receiver_ref") is None else str(d["receiver_ref"]),
            arg_kind=str(d["arg_kind"]),
            arg_ref=None if d.get("arg_ref") is None else str(d["arg_ref"]),
            line=int(d["line"]),  # type: ignore[arg-type]
            line_text=str(d.get("line_text", "")),
        )


@dataclass
class FunctionSummary:
    """Everything the passes need about one function or method.

    ``params`` are the positional parameter names (``self``/``cls``
    excluded) in declaration order, aligned against call-site
    ``arg_classes`` by the dense-alloc pass; ``roles`` mark shape-scope
    seeds (``"sparse-param"``, ``"sparse-class"``).
    """

    qualname: str  # within the module: "f" or "Class.method"
    line: int
    line_text: str = ""  # stripped ``def`` line (baseline fingerprints)
    calls: List[CallSite] = field(default_factory=list)
    sources: List[TaintSource] = field(default_factory=list)
    writes: List[StateWrite] = field(default_factory=list)
    reads: List[StateRead] = field(default_factory=list)
    ships: List[ShipSite] = field(default_factory=list)
    allocs: List[AllocSite] = field(default_factory=list)
    sorts: List[SortEvent] = field(default_factory=list)
    params: List[str] = field(default_factory=list)
    roles: List[str] = field(default_factory=list)

    def to_dict(self) -> Dict[str, object]:
        return {
            "qualname": self.qualname,
            "line": self.line,
            "line_text": self.line_text,
            "calls": [c.to_dict() for c in self.calls],
            "sources": [s.to_dict() for s in self.sources],
            "writes": [w.to_dict() for w in self.writes],
            "reads": [r.to_dict() for r in self.reads],
            "ships": [s.to_dict() for s in self.ships],
            "allocs": [a.to_dict() for a in self.allocs],
            "sorts": [s.to_dict() for s in self.sorts],
            "params": list(self.params),
            "roles": list(self.roles),
        }

    @classmethod
    def from_dict(cls, d: Dict[str, object]) -> "FunctionSummary":
        return cls(
            qualname=str(d["qualname"]),
            line=int(d["line"]),  # type: ignore[arg-type]
            line_text=str(d.get("line_text", "")),
            calls=[CallSite.from_dict(c) for c in d.get("calls", ())],  # type: ignore[union-attr]
            sources=[TaintSource.from_dict(s) for s in d.get("sources", ())],  # type: ignore[union-attr]
            writes=[StateWrite.from_dict(w) for w in d.get("writes", ())],  # type: ignore[union-attr]
            reads=[StateRead.from_dict(r) for r in d.get("reads", ())],  # type: ignore[union-attr]
            ships=[ShipSite.from_dict(s) for s in d.get("ships", ())],  # type: ignore[union-attr]
            allocs=[AllocSite.from_dict(a) for a in d.get("allocs", ())],  # type: ignore[union-attr]
            sorts=[SortEvent.from_dict(s) for s in d.get("sorts", ())],  # type: ignore[union-attr]
            params=[str(p) for p in d.get("params", ())],  # type: ignore[union-attr]
            roles=[str(r) for r in d.get("roles", ())],  # type: ignore[union-attr]
        )


@dataclass
class ClassSummary:
    """Methods and base-class refs of one class definition."""

    name: str
    line: int
    bases: List[str] = field(default_factory=list)  # dotted refs
    methods: List[str] = field(default_factory=list)  # bare method names

    def to_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "line": self.line,
            "bases": list(self.bases),
            "methods": list(self.methods),
        }

    @classmethod
    def from_dict(cls, d: Dict[str, object]) -> "ClassSummary":
        return cls(
            name=str(d["name"]),
            line=int(d["line"]),  # type: ignore[arg-type]
            bases=[str(b) for b in d.get("bases", ())],  # type: ignore[union-attr]
            methods=[str(m) for m in d.get("methods", ())],  # type: ignore[union-attr]
        )


@dataclass
class ModuleSummary:
    """One file's contribution to the whole-program analysis."""

    module: str  # dotted module name
    path: str  # display path (project-root relative)
    functions: Dict[str, FunctionSummary] = field(default_factory=dict)
    classes: Dict[str, ClassSummary] = field(default_factory=dict)
    imports: Dict[str, str] = field(default_factory=dict)  # local -> dotted
    module_names: List[str] = field(default_factory=list)  # top-level binds
    data_names: List[str] = field(default_factory=list)  # top-level data binds
    getattr_forward: Optional[str] = None  # __getattr__ re-export target
    suppressions: Suppressions = field(default_factory=Suppressions)

    def to_dict(self) -> Dict[str, object]:
        return {
            "version": SUMMARY_VERSION,
            "module": self.module,
            "path": self.path,
            "functions": {
                q: f.to_dict() for q, f in sorted(self.functions.items())
            },
            "classes": {n: c.to_dict() for n, c in sorted(self.classes.items())},
            "imports": dict(sorted(self.imports.items())),
            "module_names": sorted(self.module_names),
            "data_names": sorted(self.data_names),
            "getattr_forward": self.getattr_forward,
            "suppressions": self.suppressions.to_dict(),
        }

    @classmethod
    def from_dict(cls, d: Dict[str, object]) -> Optional["ModuleSummary"]:
        """Deserialize; None for summaries written by another version."""
        if d.get("version") != SUMMARY_VERSION:
            return None
        return cls(
            module=str(d["module"]),
            path=str(d["path"]),
            functions={
                str(q): FunctionSummary.from_dict(f)
                for q, f in d.get("functions", {}).items()  # type: ignore[union-attr]
            },
            classes={
                str(n): ClassSummary.from_dict(c)
                for n, c in d.get("classes", {}).items()  # type: ignore[union-attr]
            },
            imports={
                str(k): str(v) for k, v in d.get("imports", {}).items()  # type: ignore[union-attr]
            },
            module_names=[str(n) for n in d.get("module_names", ())],  # type: ignore[union-attr]
            data_names=[str(n) for n in d.get("data_names", ())],  # type: ignore[union-attr]
            getattr_forward=(
                None
                if d.get("getattr_forward") is None
                else str(d["getattr_forward"])
            ),
            suppressions=Suppressions.from_dict(d.get("suppressions", {})),  # type: ignore[arg-type]
        )

    def function_keys(self) -> List[Tuple[str, str]]:
        """Sorted ``(module, qualname)`` keys of every function here."""
        return [(self.module, q) for q in sorted(self.functions)]
