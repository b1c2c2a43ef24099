"""no-matrix-densify: forbid ``.todense()``.

``scipy.sparse`` offers two densification methods and they are not
interchangeable: ``.toarray()`` returns a plain ``numpy.ndarray``, while
``.todense()`` returns ``numpy.matrix`` — a deprecated subclass whose
``*`` means matmul and whose results stay 2-D under reductions.  A
``numpy.matrix`` leaking into the distance kernels silently changes
operator semantics downstream, so the blocked kernels (``repro.perf``)
require plain arrays throughout.  Any attribute named ``todense`` is
flagged, whether or not it is called.

The memory side of densification — an O(n^2) square built inside the
sparse/parallel kernel region — is the whole-program ``flow-dense-alloc``
pass's job (:mod:`repro.analysis.flow.dense`).  That pass sees sizes,
not types, so the ``numpy.matrix`` semantics hazard stays here.
"""

from __future__ import annotations

import ast
from typing import ClassVar, Iterator

from repro.analysis.finding import Finding, Severity
from repro.analysis.rules.base import Rule
from repro.analysis.source import ModuleSource


class NoMatrixDensifyRule(Rule):
    id: ClassVar[str] = "no-matrix-densify"
    severity: ClassVar[Severity] = Severity.ERROR
    description: ClassVar[str] = (
        "sparse `.todense()` returns deprecated numpy.matrix with matmul "
        "`*` semantics; use `.toarray()`"
    )

    def check(self, src: ModuleSource) -> Iterator[Finding]:
        for node in ast.walk(src.tree):
            if isinstance(node, ast.Attribute) and node.attr == "todense":
                yield self.finding(
                    src,
                    node,
                    "`.todense()` produces a numpy.matrix; use `.toarray()` "
                    "to densify into a plain ndarray",
                )
