"""no-unseeded-rng: all randomness must flow from named, seeded streams.

The global ``random`` module and numpy's legacy global RNG are process-wide
mutable state: any draw from them depends on interpreter start-up order and
silently breaks bit-for-bit reproducibility. Components must take a
``random.Random``/``numpy.random.Generator`` built by
``repro.util.rng.RngFactory`` (or at minimum an explicitly seeded
constructor). ``repro.util`` itself is exempt — that is where the streams
are made.
"""

from __future__ import annotations

import ast
from typing import ClassVar, FrozenSet, Iterator, Optional, Tuple

from repro.analysis.finding import Finding, Severity
from repro.analysis.rules.base import ImportMap, Rule, module_in
from repro.analysis.source import ModuleSource

# numpy.random attributes that do NOT touch the legacy global RNG.
_NUMPY_SAFE: FrozenSet[str] = frozenset(
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


class NoUnseededRngRule(Rule):
    id: ClassVar[str] = "no-unseeded-rng"
    severity: ClassVar[Severity] = Severity.ERROR
    description: ClassVar[str] = (
        "global/unseeded RNG use is forbidden; draw from a "
        "repro.util.rng.RngFactory stream or seed explicitly"
    )

    exempt_prefixes: Tuple[str, ...] = ("repro.util",)

    def check(self, src: ModuleSource) -> Iterator[Finding]:
        if module_in(src.module, self.exempt_prefixes):
            return
        imports = ImportMap.from_tree(src.tree)
        for node in ast.walk(src.tree):
            if not isinstance(node, ast.Call):
                continue
            qualname = imports.resolve(node.func)
            if qualname is None:
                continue
            message = self._violation(qualname, node)
            if message is not None:
                yield self.finding(src, node, message)

    def _violation(self, qualname: str, call: ast.Call) -> Optional[str]:
        has_args = bool(call.args or call.keywords)
        if qualname == "random.Random":
            if not has_args:
                return (
                    "random.Random() without a seed is nondeterministic; pass "
                    "an explicit seed or use an RngFactory stream"
                )
            return None
        if qualname.startswith("random.Random."):
            # A method of a typed instance (``rng: random.Random``), i.e. a
            # draw from that caller-seeded stream, not the global module.
            return None
        if qualname.startswith("random."):
            return (
                f"{qualname}() draws from the process-global random module; "
                "use an RngFactory stream instead"
            )
        if qualname == "numpy.random.default_rng":
            if not has_args:
                return (
                    "numpy.random.default_rng() without a seed is "
                    "nondeterministic; pass a seed or use "
                    "RngFactory.numpy_stream()"
                )
            return None
        if qualname.startswith("numpy.random."):
            attr = qualname.split(".")[-1]
            if attr not in _NUMPY_SAFE:
                return (
                    f"{qualname}() uses numpy's legacy global RNG; use "
                    "RngFactory.numpy_stream() instead"
                )
        return None
