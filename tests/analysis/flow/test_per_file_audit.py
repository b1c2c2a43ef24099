"""Why each overlapping per-file rule stays beside the flow passes.

``no-wallclock`` and ``no-unseeded-rng`` overlap ``flow-nondet-taint``'s
sources, ``deterministic-emit`` overlaps ``flow-unordered-reduction``,
and ``no-matrix-densify`` overlaps ``flow-dense-alloc``. A per-file rule
earns its place only if some code trips it that no flow pass reports:
each case below is such a snippet, run through the rule and through
``run_flow`` with every flow pass selected.
"""

import pytest

from repro.analysis.flow import run_flow
from repro.analysis.rules import rules_by_id

from tests.analysis.conftest import check_snippet
from tests.analysis.flow.conftest import write_package

CAUGHT_ONLY_PER_FILE = {
    # A clock read whose value reaches no emit sink or pipeline stage.
    "no-wallclock": """
        import time


        def elapsed(start):
            return time.time() - start
        """,
    # A global-RNG draw in a helper nothing reproducible calls.
    "no-unseeded-rng": """
        import random


        def pick(items):
            return random.choice(items)
        """,
    # Set order frozen into a list outside any shipped kernel.
    "deterministic-emit": """
        def names(items):
            return list({item.name for item in items})
        """,
    # numpy.matrix semantics, not size: flow models extents, not types.
    "no-matrix-densify": """
        import numpy as np


        def rows(matrix):
            return np.asarray(matrix.todense())
        """,
}


@pytest.mark.parametrize("rule_id", sorted(CAUGHT_ONLY_PER_FILE))
def test_per_file_rule_catches_what_flow_does_not(tmp_path, rule_id):
    code = CAUGHT_ONLY_PER_FILE[rule_id]
    assert len(check_snippet(rules_by_id()[rule_id](), code)) == 1
    write_package(tmp_path, "auditpkg", {"mod": code})
    result = run_flow([tmp_path / "auditpkg"])
    assert result.all_findings == [], [
        ff.finding.rule_id for ff in result.all_findings
    ]
