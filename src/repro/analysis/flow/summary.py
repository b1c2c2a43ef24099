"""Per-module facts the whole-program passes consume.

A :class:`ModuleSummary` is everything the cross-module phases (symbol
resolution, call graph, taint, purity) need from one file — and nothing
they do not — so the passes never touch an AST.

References between modules are plain dotted strings (``"repro.core.
clustering.Linkage.cut"``), resolved lazily by the
:class:`~repro.analysis.flow.index.ProjectIndex` so a summary never holds
pointers into another module's AST.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.analysis.suppress import Suppressions

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


@dataclass(frozen=True)
class SortEvent:
    """One sort whose tie order is not reproducible.

    ``kind`` is ``"unstable-argsort"``: a default-``kind`` ``np.argsort``/
    ``np.sort``, whose ties permute with memory layout.
    """

    kind: str
    what: str  # display form: "numpy.argsort", "numpy.sort", ".argsort"
    line: int


@dataclass(frozen=True)
class TaintSource:
    """A nondeterminism source observed directly in a function body."""

    kind: str  # "wall-clock" | "global-rng" | "fs-order" | "object-identity"
    what: str  # e.g. "time.time", "os.listdir", "id"
    line: int


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
    line_text: str = ""  # stripped ship-call line (finding fingerprints)


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
    line_text: str = ""  # stripped ``def`` line (finding fingerprints)
    calls: List[CallSite] = field(default_factory=list)
    sources: List[TaintSource] = field(default_factory=list)
    writes: List[StateWrite] = field(default_factory=list)
    reads: List[StateRead] = field(default_factory=list)
    ships: List[ShipSite] = field(default_factory=list)
    allocs: List[AllocSite] = field(default_factory=list)
    sorts: List[SortEvent] = field(default_factory=list)
    params: List[str] = field(default_factory=list)
    roles: List[str] = field(default_factory=list)


@dataclass
class ClassSummary:
    """Methods and base-class refs of one class definition."""

    name: str
    line: int
    bases: List[str] = field(default_factory=list)  # dotted refs
    methods: List[str] = field(default_factory=list)  # bare method names


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
    suppressions: Suppressions = field(default_factory=Suppressions)

    def function_keys(self) -> List[Tuple[str, str]]:
        """Sorted ``(module, qualname)`` keys of every function here."""
        return [(self.module, q) for q in sorted(self.functions)]
