"""The shared-state race pass (``flow-shared-state-race``).

``flow-parallel-purity`` proves each shipped kernel is individually pure;
this pass checks the *composition*. ``SharedStateRacePass`` looks at
every ship group (all callables shipped from one orchestrating function)
and reports module-level locations where two distinct parties — two
concurrently-shipped kernels, or a kernel and the orchestrator between
submit and join — access the same canonical location with at least one
write: a write-write or read-write race under any shared-memory execution
of the plan. Race findings are reported at the **ship site** and
suppressed by an inline ``# pushlint: disable=flow-shared-state-race``
there.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.analysis.finding import Finding
from repro.analysis.flow.index import (
    CallGraph,
    FuncKey,
    ProjectIndex,
    ShippedCallable,
)
from repro.analysis.flow.taint import FlowFinding

RACE_RULE_ID = "flow-shared-state-race"

#: Canonical location of module-level state: ``(owning module, name)``.
#: ``name`` may be ``"*"`` when a write through a module alias could not
#: be narrowed to one attribute — a wildcard that conflicts with any
#: location in the same module.
Location = Tuple[str, str]


def _locations_conflict(a: Location, b: Location) -> bool:
    return a[0] == b[0] and (a[1] == b[1] or a[1] == "*" or b[1] == "*")


@dataclass(frozen=True)
class _Access:
    """One read or write of a canonical location by one party."""

    loc: Location
    kind: str  # "read" | "write"
    how: str  # StateWrite.how, or "read"
    func: FuncKey
    line: int


@dataclass
class _Party:
    """One concurrent participant: a shipped kernel or the orchestrator."""

    role: str  # "kernel" | "orchestrator"
    root: FuncKey
    paths: Dict[FuncKey, Tuple[FuncKey, ...]]
    site_line: int  # ship-site line for kernels; shipper def line otherwise
    accesses: List[_Access] = field(default_factory=list)

    @property
    def name(self) -> str:
        return f"{self.root[0]}.{self.root[1]}"


class SharedStateRacePass:
    """Report conflicting module-state accesses between concurrent parties."""

    def __init__(self, index: ProjectIndex, graph: Optional[CallGraph] = None):
        self.index = index
        self.graph = graph if graph is not None else index.callgraph()

    def run(self) -> List[FlowFinding]:
        groups: Dict[FuncKey, List[ShippedCallable]] = {}
        for shipped in self.index.shipped_callables():
            groups.setdefault(shipped.shipper, []).append(shipped)

        findings: List[FlowFinding] = []
        for shipper in sorted(groups):
            findings.extend(self._check_group(shipper, groups[shipper]))
        return sorted(findings, key=lambda ff: ff.finding)

    # ------------------------------------------------------------------
    def _check_group(
        self, shipper: FuncKey, shipped: List[ShippedCallable]
    ) -> List[FlowFinding]:
        kernels: List[_Party] = []
        seen_targets: Dict[FuncKey, None] = {}
        for ship in shipped:
            if ship.target is None or ship.target in seen_targets:
                # Lambdas/nested/unresolved ships are the purity pass's
                # business; repeat ships of one kernel are one party —
                # a kernel cannot race with its own per-process copy.
                continue
            seen_targets[ship.target] = None
            paths = self.graph.bfs_paths(ship.target)
            kernels.append(
                _Party(
                    role="kernel",
                    root=ship.target,
                    paths=paths,
                    site_line=ship.site.line,
                )
            )
        if not kernels:
            return []
        for party in kernels:
            self._collect_accesses(party, exclude=frozenset())

        # The orchestrator's own accesses, minus anything inside a kernel
        # closure: a helper shared with a kernel already shows up on the
        # kernel side (and, if it writes, in the purity pass).
        kernel_closure = frozenset(
            key for party in kernels for key in party.paths
        )
        shipper_fn = self.index.function(shipper)
        orchestrator = _Party(
            role="orchestrator",
            root=shipper,
            paths=self.graph.bfs_paths(shipper),
            site_line=shipper_fn.line if shipper_fn is not None else 1,
        )
        self._collect_accesses(orchestrator, exclude=kernel_closure)

        out: List[FlowFinding] = []
        sites = {party.root: site for party, site in self._sites(shipped)}
        for i, first in enumerate(kernels):
            for second in kernels[i + 1 :]:
                out.extend(self._conflicts(first, second, sites))
            out.extend(self._conflicts(first, orchestrator, sites))
        return out

    def _sites(
        self, shipped: List[ShippedCallable]
    ) -> List[Tuple[_Party, ShippedCallable]]:
        pairs: List[Tuple[_Party, ShippedCallable]] = []
        seen: set = set()
        for ship in shipped:
            if ship.target is None or ship.target in seen:
                continue
            seen.add(ship.target)
            party = _Party(
                role="kernel", root=ship.target, paths={}, site_line=0
            )
            pairs.append((party, ship))
        return pairs

    def _collect_accesses(
        self, party: _Party, exclude: frozenset
    ) -> None:
        for reached in sorted(party.paths):
            if party.role == "orchestrator" and reached in exclude:
                continue
            fn = self.index.function(reached)
            if fn is None:
                continue
            module = self.index.modules[reached[0]]
            for write in fn.writes:
                if module.suppressions.is_suppressed(RACE_RULE_ID, write.line):
                    continue
                party.accesses.append(
                    _Access(
                        loc=self._canonical(reached[0], write.name, write.attr),
                        kind="write",
                        how=write.how,
                        func=reached,
                        line=write.line,
                    )
                )
            for read in fn.reads:
                if module.suppressions.is_suppressed(RACE_RULE_ID, read.line):
                    continue
                party.accesses.append(
                    _Access(
                        loc=self._canonical(reached[0], read.name, read.attr),
                        kind="read",
                        how="read",
                        func=reached,
                        line=read.line,
                    )
                )

    def _canonical(self, module: str, name: str, attr: str) -> Location:
        """Owning-module location of an access rooted at ``name``.

        A root that is an import alias is chased to the module that owns
        the binding (``from m import X`` → ``("m", "X")``; ``import m``
        plus ``m.X`` → ``("m", "X")``); otherwise the state lives in the
        accessing module itself.
        """
        summary = self.index.modules.get(module)
        origin = summary.imports.get(name) if summary is not None else None
        if origin is None:
            return (module, name)
        if origin in self.index.modules:
            return (origin, attr or "*")
        parts = origin.split(".")
        for split in range(len(parts) - 1, 0, -1):
            owner = ".".join(parts[:split])
            if owner in self.index.modules:
                return (owner, parts[split])
        return (origin, attr or "*")

    # ------------------------------------------------------------------
    def _conflicts(
        self,
        first: _Party,
        second: _Party,
        sites: Dict[FuncKey, ShippedCallable],
    ) -> List[FlowFinding]:
        out: List[FlowFinding] = []
        reported: set = set()
        for a in first.accesses:
            for b in second.accesses:
                if not _locations_conflict(a.loc, b.loc):
                    continue
                if a.kind != "write" and b.kind != "write":
                    continue
                loc = a.loc if a.loc[1] != "*" else b.loc
                if loc in reported:
                    continue
                reported.add(loc)
                out.append(self._finding(first, second, loc, sites))
        return out

    def _finding(
        self,
        first: _Party,
        second: _Party,
        loc: Location,
        sites: Dict[FuncKey, ShippedCallable],
    ) -> FlowFinding:
        # Representative accesses: prefer writes, in deterministic order.
        a = self._representative(first, loc)
        b = self._representative(second, loc)
        kind = (
            "write-write"
            if a.kind == "write" and b.kind == "write"
            else "read-write"
        )
        where = f"{loc[0]}.{loc[1]}" if loc[1] != "*" else f"{loc[0]}.*"
        if second.role == "orchestrator":
            relation = (
                f"kernel '{first.name}' and its orchestrator "
                f"'{second.name}' (between submit and join)"
            )
        else:
            relation = (
                f"concurrently-shipped kernels '{first.name}' and "
                f"'{second.name}'"
            )
        message = (
            f"{kind} race on module-level state '{where}': {relation} "
            f"both access it ({a.how} vs {b.how}); concurrent execution "
            f"order decides the result (--explain prints both chains)"
        )
        chain = tuple(
            [self.index.describe(k) for k in first.paths[a.func]]
            + [self._access_text(a)]
            + [self.index.describe(k) for k in second.paths[b.func]]
            + [self._access_text(b)]
        )

        ship = sites.get(first.root)
        shipper_key = first.root if ship is None else ship.shipper
        shipper_module = self.index.modules[shipper_key[0]]
        line = first.site_line
        line_text = ship.site.line_text if ship is not None else ""
        finding = Finding(
            path=shipper_module.path,
            line=line,
            column=1,
            rule_id=RACE_RULE_ID,
            message=f"{message} [shipped from {self.index.describe(shipper_key)}]",
            source_line=line_text,
            chain=chain,
        )
        suppressed = shipper_module.suppressions.is_suppressed(
            RACE_RULE_ID, line
        )
        return FlowFinding(finding=finding, suppressed=suppressed)

    def _representative(self, party: _Party, loc: Location) -> _Access:
        matching = sorted(
            (
                a
                for a in party.accesses
                if _locations_conflict(a.loc, loc)
            ),
            key=lambda a: (a.kind != "write", a.func, a.line),
        )
        return matching[0]

    def _access_text(self, access: _Access) -> str:
        module = self.index.modules[access.func[0]]
        verb = "writes" if access.kind == "write" else "reads"
        return (
            f"{verb} {access.loc[0]}.{access.loc[1]} "
            f"({access.how}) ({module.path}:{access.line})"
        )
