"""Adblock-Plus filter rule engine (the subset EasyList blocking rules use).

Supported syntax:

* plain substring rules: ``/banner/ads/``
* anchor markers: ``|`` (start of URL), ``||`` (domain anchor), trailing
  ``|`` (end of URL)
* wildcard ``*`` and separator placeholder ``^``
* comments (``!``), exception rules (``@@``), and ``$``-options (only
  ``domain=`` and resource-type options are parsed; others are carried
  opaquely)

Element-hiding rules (``##``) are out of scope: they cannot apply to push
notifications at all, which is part of the paper's point.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, List, Optional, Tuple

from repro.util.urls import Url

_SEPARATOR_CLASS = r"[/:?=&.\-]"


@dataclass(frozen=True)
class FilterRule:
    """One parsed blocking (or exception) rule."""

    raw: str
    pattern: re.Pattern
    is_exception: bool = False
    domains: Tuple[str, ...] = ()          # $domain= restriction (empty = any)
    options: Tuple[str, ...] = ()
    third_party: Optional[bool] = None     # $third-party / $~third-party

    def matches(self, url: str, source_domain: Optional[str] = None) -> bool:
        """Does this rule match the URL (in the given first-party context)?"""
        if self.domains:
            if source_domain is None:
                return False
            if not any(
                source_domain == d or source_domain.endswith("." + d)
                for d in self.domains
            ):
                return False
        if self.third_party is not None:
            if source_domain is None:
                return False
            if _is_third_party(url, source_domain) != self.third_party:
                return False
        return self.pattern.search(url) is not None


def _is_third_party(url: str, source_domain: str) -> bool:
    """True when the request crosses the first-party eTLD+1 boundary."""
    from repro.util.domains import effective_second_level_domain
    from repro.util.urls import Url

    try:
        request_host = Url.parse(url).host
    except ValueError:
        return True
    return effective_second_level_domain(request_host) != (
        effective_second_level_domain(source_domain)
    )


def _translate(body: str) -> str:
    """ABP pattern body -> regex source."""
    out: List[str] = []
    i = 0
    if body.startswith("||"):
        out.append(r"^[a-z]+://([^/]*\.)?")
        i = 2
    elif body.startswith("|"):
        out.append("^")
        i = 1
    end_anchor = body.endswith("|") and not body.endswith("||")
    if end_anchor:
        body = body[:-1]
    while i < len(body):
        ch = body[i]
        if ch == "*":
            out.append(".*")
        elif ch == "^":
            out.append(f"(?:{_SEPARATOR_CLASS}|$)")
        else:
            out.append(re.escape(ch))
        i += 1
    if end_anchor:
        out.append("$")
    return "".join(out)


def parse_rule(line: str) -> Optional[FilterRule]:
    """Parse one filter-list line; None for comments/blank/unsupported."""
    line = line.strip()
    if not line or line.startswith("!") or line.startswith("["):
        return None
    if "##" in line or "#@#" in line:
        return None  # element hiding: not applicable to WPNs
    raw = line
    is_exception = line.startswith("@@")
    if is_exception:
        line = line[2:]

    options: Tuple[str, ...] = ()
    domains: Tuple[str, ...] = ()
    third_party: Optional[bool] = None
    if "$" in line:
        line, opts = line.rsplit("$", 1)
        parsed = tuple(o.strip() for o in opts.split(",") if o.strip())
        options = parsed
        for option in parsed:
            if option.startswith("domain="):
                domains = tuple(
                    d for d in option[len("domain="):].split("|")
                    if d and not d.startswith("~")
                )
            elif option == "third-party":
                third_party = True
            elif option == "~third-party":
                third_party = False
    if not line:
        return None
    pattern = re.compile(_translate(line), re.IGNORECASE)
    return FilterRule(
        raw=raw,
        pattern=pattern,
        is_exception=is_exception,
        domains=domains,
        options=options,
        third_party=third_party,
    )


class FilterList:
    """A parsed filter list with block/exception decision logic."""

    def __init__(self, rules: Iterable[FilterRule]):
        all_rules = list(rules)
        self.block_rules = [r for r in all_rules if not r.is_exception]
        self.exception_rules = [r for r in all_rules if r.is_exception]

    @classmethod
    def parse(cls, text: str) -> "FilterList":
        """Parse a filter list from its text form (one rule per line)."""
        rules = []
        for line in text.splitlines():
            rule = parse_rule(line)
            if rule is not None:
                rules.append(rule)
        return cls(rules)

    def __len__(self) -> int:
        return len(self.block_rules) + len(self.exception_rules)

    def matching_rule(
        self, url: str, source_domain: Optional[str] = None
    ) -> Optional[FilterRule]:
        """The block rule that fires for this URL, if not excepted."""
        for rule in self.exception_rules:
            if rule.matches(url, source_domain):
                return None
        for rule in self.block_rules:
            if rule.matches(url, source_domain):
                return rule
        return None

    def should_block(self, url: str, source_domain: Optional[str] = None) -> bool:
        return self.matching_rule(url, source_domain) is not None
