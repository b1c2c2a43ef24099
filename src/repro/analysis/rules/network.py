"""no-network-imports: the reproduction must stay fully offline.

The whole point of the simulated ecosystem (DESIGN.md) is that no code path
can reach the live web; importing a socket/HTTP module anywhere in the
package is an immediate red flag, even if currently unused.
"""

from __future__ import annotations

import ast
from typing import ClassVar, FrozenSet, Iterator, List

from repro.analysis.finding import Finding
from repro.analysis.rules.base import Rule
from repro.analysis.source import ModuleSource

FORBIDDEN_MODULES: FrozenSet[str] = frozenset(
    {
        "socket",
        "socketserver",
        "ssl",
        "requests",
        "urllib.request",
        "urllib3",
        "http.client",
        "httpx",
        "aiohttp",
        "ftplib",
        "smtplib",
        "poplib",
        "imaplib",
        "telnetlib",
        "xmlrpc.client",
    }
)


def _forbidden(module: str) -> "str | None":
    """The banned module this import reaches, if any."""
    for banned in FORBIDDEN_MODULES:
        if module == banned or module.startswith(banned + "."):
            return banned
    return None


class NoNetworkImportsRule(Rule):
    id: ClassVar[str] = "no-network-imports"
    description: ClassVar[str] = (
        "network modules (socket, requests, urllib.request, ...) must not "
        "be imported anywhere; the repro is offline by construction"
    )

    def check(self, src: ModuleSource) -> Iterator[Finding]:
        for node in ast.walk(src.tree):
            # One finding per banned module per statement: ``from http.client
            # import HTTPConnection`` reaches http.client once, not twice.
            hits = {
                banned
                for banned in map(_forbidden, _imported_modules(node))
                if banned is not None
            }
            for banned in sorted(hits):
                yield self.finding(
                    src,
                    node,
                    f"import of network module {banned!r}; the "
                    "reproduction must stay offline",
                )


def _imported_modules(node: ast.AST) -> List[str]:
    """Absolute modules an import statement pulls in."""
    modules: List[str] = []
    if isinstance(node, ast.Import):
        modules.extend(alias.name for alias in node.names)
    elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
        # ``from urllib import request`` imports urllib.request; record both
        # the base module and each submodule-or-attribute candidate.
        modules.append(node.module)
        modules.extend(f"{node.module}.{alias.name}" for alias in node.names)
    return modules
