"""The unit of pushlint output: one finding at one source location."""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, Tuple


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at one location.

    ``source_line`` carries the stripped text of the offending line; the
    fingerprint hashes it instead of the line *number* so that unrelated
    edits above a finding do not change its identity (``--explain`` takes
    a fingerprint prefix).

    ``chain`` is set by the whole-program flow passes: the source-to-sink
    call chain, one ``"qualname (path:line)"`` hop per element, ending at
    the nondeterminism source (or state write) the finding is about.
    """

    path: str
    line: int
    column: int
    rule_id: str
    message: str = field(compare=False)
    source_line: str = field(default="", compare=False)
    chain: Tuple[str, ...] = field(default=(), compare=False)

    @property
    def fingerprint(self) -> str:
        """Stable identity of the finding (line-number independent)."""
        payload = f"{self.rule_id}|{self.path}|{self.source_line}"
        return hashlib.blake2b(payload.encode("utf-8"), digest_size=8).hexdigest()

    @property
    def location(self) -> str:
        return f"{self.path}:{self.line}:{self.column}"

    def to_dict(self) -> Dict[str, object]:
        payload: Dict[str, object] = {
            "path": self.path,
            "line": self.line,
            "column": self.column,
            "rule": self.rule_id,
            "message": self.message,
            "fingerprint": self.fingerprint,
        }
        if self.chain:
            payload["chain"] = list(self.chain)
        return payload
