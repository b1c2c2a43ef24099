"""import-layering: enforce the repro package DAG.

The layer order, bottom to top (each package may import only packages
strictly below it):

    perf  <  analysis
    util  <  obs
    util, obs  <  webenv  <  push  <  browser  <  adblock
    util, obs  <  blocklists  <  core
    perf  <  core
    util, obs, perf, core  <  serve  <  incremental
    perf, core, browser, push, webenv  <  crawler  <  experiments

``repro.util`` and ``repro.perf`` import nothing from repro (``perf`` is
pure numeric kernels — numpy/scipy only); ``repro.analysis`` sees only
``perf`` (DetSan hooks its ``ExecutionPlan``), so the
linter still cannot be skewed by the code it lints; ``repro.core`` never sees the
simulated web (``webenv``/``browser``/``crawler``) so the analysis pipeline
provably works from collected records alone, exactly like the paper's miner.
Top-level modules (``repro.cli``, ``repro.io``, ``repro.viz``...) are glue
and may import anything. ``if TYPE_CHECKING:`` imports are exempt — they
never execute, so they cannot create runtime coupling.
"""

from __future__ import annotations

import ast
from typing import ClassVar, Dict, FrozenSet, Iterator, Optional

from repro.analysis.finding import Finding
from repro.analysis.rules.base import Rule
from repro.analysis.source import ModuleSource

_BELOW_EXPERIMENTS = frozenset(
    {
        "util",
        "analysis",
        "obs",
        "webenv",
        "push",
        "browser",
        "adblock",
        "blocklists",
        "perf",
        "core",
        "serve",
        "incremental",
        "crawler",
    }
)

# package -> packages it may import from (itself is always allowed).
ALLOWED_IMPORTS: Dict[str, FrozenSet[str]] = {
    "util": frozenset(),
    "analysis": frozenset({"perf"}),
    "obs": frozenset({"util"}),
    "webenv": frozenset({"util", "obs"}),
    "push": frozenset({"util", "obs", "webenv"}),
    "browser": frozenset({"util", "obs", "webenv", "push"}),
    "adblock": frozenset({"util", "obs", "webenv", "push", "browser"}),
    "blocklists": frozenset({"util", "obs"}),
    "perf": frozenset(),
    "core": frozenset({"util", "obs", "blocklists", "perf"}),
    "serve": frozenset({"util", "obs", "perf", "core"}),
    "incremental": frozenset({"util", "obs", "perf", "core", "serve"}),
    "crawler": frozenset(
        {"util", "obs", "webenv", "push", "browser", "core", "perf"}
    ),
    "experiments": _BELOW_EXPERIMENTS,
}


def _package_of(module: str) -> Optional[str]:
    """First-level repro package of a dotted module, if any.

    ``repro.core.records`` -> ``core``; ``repro.cli`` and non-repro modules
    -> None (unconstrained).
    """
    parts = module.split(".")
    if len(parts) < 2 or parts[0] != "repro":
        return None
    return parts[1] if parts[1] in ALLOWED_IMPORTS else None


class ImportLayeringRule(Rule):
    id: ClassVar[str] = "import-layering"
    description: ClassVar[str] = (
        "imports must follow the package DAG (e.g. core never imports "
        "webenv/browser/crawler; util imports nothing from repro)"
    )

    def check(self, src: ModuleSource) -> Iterator[Finding]:
        own_package = _package_of(src.module)
        if own_package is None:
            return
        allowed = ALLOWED_IMPORTS[own_package]
        for node in ast.walk(src.tree):
            target = self._import_target(node, src)
            if target is None:
                continue
            if src.in_type_checking_block(node):
                continue
            target_package = _package_of(target)
            if target_package == own_package or target_package in allowed:
                continue
            if target_package is None:
                # The root package and top-level glue modules (repro.cli,
                # repro.io, repro.viz...) sit at the TOP of the DAG: no
                # layered package may reach up into them.
                message = (
                    f"repro.{own_package} must not import {target!r}: the "
                    "repro root and top-level glue modules sit above every "
                    "package in the DAG"
                )
            else:
                message = (
                    f"repro.{own_package} must not import "
                    f"repro.{target_package} (allowed: "
                    f"{', '.join(sorted(allowed)) or 'nothing in repro'})"
                )
            yield self.finding(src, node, message)

    def _import_target(self, node: ast.AST, src: ModuleSource) -> Optional[str]:
        """Absolute dotted target of an import statement, or None."""
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "repro" or alias.name.startswith("repro."):
                    return alias.name
            return None
        if isinstance(node, ast.ImportFrom):
            if node.level == 0:
                if node.module and (
                    node.module == "repro" or node.module.startswith("repro.")
                ):
                    return node.module
                return None
            # Relative import: resolve against this module's dotted name.
            base_parts = src.module.split(".")
            if not src.is_package:
                base_parts = base_parts[:-1]
            drop = node.level - 1
            if drop >= len(base_parts):
                return None
            base = base_parts[: len(base_parts) - drop] if drop else base_parts
            prefix = ".".join(base)
            return f"{prefix}.{node.module}" if node.module else prefix
        return None
