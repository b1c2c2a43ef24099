"""Unit tests for the nondeterminism sources and no-network-imports.

Wall-clock reads and global-RNG draws are the sources of the
``flow-nondet-taint`` pass: the extractor records them per function, and
these tests pin which calls count and which modules are exempt.
"""

import textwrap

from repro.analysis.flow.extract import extract_module
from repro.analysis.rules.network import NoNetworkImportsRule
from repro.analysis.source import ModuleSource

from tests.analysis.conftest import check_snippet


def sources(code, kind, module="repro.fake.mod"):
    """The ``kind`` taint sources the extractor records in a snippet."""
    src = ModuleSource(textwrap.dedent(code), path=f"{module}.py", module=module)
    summary = extract_module(src)
    return [
        source
        for fn in summary.functions.values()
        for source in fn.sources
        if source.kind == kind
    ]


def clock_reads(code, module="repro.fake.mod"):
    return sources(code, "wall-clock", module)


def rng_draws(code, module="repro.fake.mod"):
    return sources(code, "global-rng", module)


class TestNoWallclock:
    def test_flags_time_time(self):
        found = clock_reads(
            """
            import time

            def stamp():
                return time.time()
            """
        )
        assert [s.what for s in found] == ["time.time"]

    def test_flags_datetime_now_and_aliased_import(self):
        found = clock_reads(
            """
            from datetime import datetime as dt
            import time as t

            def stamps():
                return dt.now(), dt.utcnow(), t.monotonic()
            """
        )
        assert len(found) == 3

    def test_ignores_simulation_time_and_unrelated_attributes(self):
        found = clock_reads(
            """
            def tick(clock):
                # attribute chains not rooted in an import are fine
                return clock.time() + clock.now()
            """
        )
        assert found == []

    def test_exempt_inside_obs_clock(self):
        found = clock_reads(
            """
            import time

            def real_now():
                return time.perf_counter()
            """,
            module="repro.obs.clock",
        )
        assert found == []

    def test_repro_util_is_no_longer_exempt(self):
        # Clock access moved to repro.obs.clock; even util must not read it.
        found = clock_reads(
            "import time\ndef now():\n    return time.time()\n",
            module="repro.util.clock",
        )
        assert len(found) == 1

    def test_prefix_exemption_is_not_a_string_prefix_match(self):
        # repro.obs.clockwork is NOT repro.obs.clock
        found = clock_reads(
            "import time\ndef now():\n    return time.time()\n",
            module="repro.obs.clockwork",
        )
        assert len(found) == 1


class TestNoUnseededRng:
    def test_flags_global_random_functions(self):
        found = rng_draws(
            """
            import random

            def pick(items):
                random.shuffle(items)
                return random.choice(items)
            """
        )
        assert [s.what for s in found] == ["random.shuffle", "random.choice"]

    def test_flags_unseeded_constructors_but_not_seeded(self):
        found = rng_draws(
            """
            import random
            import numpy as np

            def streams():
                bad_a = random.Random()
                bad_b = np.random.default_rng()
                good_a = random.Random(7)
                good_b = np.random.default_rng(7)
                good_c = np.random.SeedSequence([1, 2])
            """
        )
        assert {s.line for s in found} == {6, 7}

    def test_flags_legacy_numpy_global(self):
        found = rng_draws(
            """
            import numpy as np

            def jitter(n):
                return np.random.rand(n) + np.random.normal(size=n)
            """
        )
        assert len(found) == 2

    def test_instance_streams_are_fine(self):
        found = rng_draws(
            """
            def draw(rng):
                return rng.choice([1, 2]) + rng.random()
            """
        )
        assert found == []

    def test_exempt_inside_repro_util(self):
        found = rng_draws(
            "import random\ndef stream():\n    return random.Random()\n",
            module="repro.util.rng",
        )
        assert found == []


class TestNoNetworkImports:
    def test_flags_direct_and_from_imports(self):
        findings = check_snippet(
            NoNetworkImportsRule(),
            """
            import socket
            import urllib.request
            from urllib import request
            from http.client import HTTPConnection
            import requests
            """,
        )
        assert len(findings) == 5
        assert {f.rule_id for f in findings} == {"no-network-imports"}

    def test_allows_offline_urllib_and_stdlib(self):
        findings = check_snippet(
            NoNetworkImportsRule(),
            """
            import hashlib
            import urllib.parse
            from urllib.parse import urlsplit
            import json
            """,
        )
        assert findings == []

    def test_no_module_exemption_not_even_util(self):
        findings = check_snippet(
            NoNetworkImportsRule(), "import socket\n", module="repro.util.net"
        )
        assert len(findings) == 1
