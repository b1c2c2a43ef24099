"""Why each rule that overlaps another check stays in pushlint.

Per-file rules: ``no-wallclock`` and ``no-unseeded-rng`` overlap
``flow-nondet-taint``'s sources. A per-file rule earns its place only if some code
trips it that no flow pass reports: each case below is such a snippet,
run through the rule and through ``run_flow`` with every flow pass
selected. ``deterministic-emit`` overlaps no flow pass (none models set
iteration order); its case stays to show that it is the only check of
set order frozen into output.

Flow rules: each one earns its place with a seeded mutation of a real
``src/repro`` function (:data:`FLOW_MUTATIONS`) that breaks a stated
contract — run-to-run, worker or cross-host identity, or the O(tile*n)
memory bound of the sparse region — while tier-1, ``REPRO_DETSAN=1``
tier-1 and the hypothesis properties still pass. The test here pins
the rule-fires half: with the mutation applied, the whole-program run
reports that rule and no other. ``docs/ANALYSIS.md`` ("Every flow rule
earns its place") says which contract each mutation breaks and how.
"""

from pathlib import Path

import pytest

from repro.analysis.flow import ProjectIndex, run_flow
from repro.analysis.flow.extract import extract_module
from repro.analysis.rules import FLOW_RULE_IDS, rules_by_id
from repro.analysis.source import ModuleSource

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


SRC = Path(__file__).resolve().parents[3] / "src" / "repro"

#: Flow rule -> (module, [(old, new), ...]): text edits of one real module.
FLOW_MUTATIONS = {
    # Ties in the Figure 6 network counts break by the per-process salted
    # string hash: the rows' order changes from one interpreter to the
    # next whenever two networks tie.
    "flow-nondet-taint": (
        "repro.core.report",
        [(
            "rows.sort(key=lambda r: (-r[1], r[0]))",
            "rows.sort(key=lambda r: (-r[1], hash(r[0])))",
        )],
    ),
    # A shipped kernel keeps every tile's (tile x n) distance rows in a
    # module list: the serial sparse cut retains all n x n of them.
    "flow-parallel-purity": (
        "repro.perf.blocking",
        [
            (
                "def cut_silhouette_tile(",
                "_TILE_ROWS: list = []\n\n\ndef cut_silhouette_tile(",
            ),
            (
                "    total = (text_rows + url_rows) / 2.0\n",
                "    total = (text_rows + url_rows) / 2.0\n"
                "    _TILE_ROWS.append(total)\n",
            ),
        ],
    ),
    # The orchestrator hands the certification bound to its kernel through
    # a module global instead of the shipped partial: forked workers
    # inherit it, spawned or forkserver workers read the default.
    "flow-shared-state-race": (
        "repro.perf.delta",
        [
            (
                "def query_candidate_min_tile(",
                "_QUERY_BOUND = DEFAULT_SPARSE_BOUND\n\n\n"
                "def query_candidate_min_tile(",
            ),
            (
                "    if not 0.0 < bound <= 0.5:\n"
                '        raise ValueError(f"bound must be in (0, 0.5], '
                'got {bound}")\n    corpus = operands.corpus\n',
                "    bound = _QUERY_BOUND\n"
                "    if not 0.0 < bound <= 0.5:\n"
                '        raise ValueError(f"bound must be in (0, 0.5], '
                'got {bound}")\n    corpus = operands.corpus\n',
            ),
            (
                "    kernel = partial(query_candidate_min_tile, bound=bound)\n",
                "    global _QUERY_BOUND\n"
                "    _QUERY_BOUND = bound\n"
                "    kernel = query_candidate_min_tile\n",
            ),
        ],
    ),
    # The sparse linkage's per-component work matrix becomes a view of one
    # n x n buffer: same values, O(n^2) memory per component.
    "flow-dense-alloc": (
        "repro.core.clustering",
        [(
            "work = np.full((m, m), np.inf)  "
            "# pushlint: disable=flow-dense-alloc\n",
            "work = np.full((n, n), np.inf)[:m, :m]\n",
        )],
    ),
    # Figure 6 rows ordered by a default-kind argsort: tied counts come
    # out in whatever order the host's sort kernel leaves them.
    "flow-unstable-order": (
        "repro.core.report",
        [
            (
                "from repro.core.campaigns import",
                "import numpy as np\n\nfrom repro.core.campaigns import",
            ),
            (
                "    rows.sort(key=lambda r: (-r[1], r[0]))\n    return rows\n",
                "    order = np.argsort([-r[1] for r in rows])\n"
                "    return [rows[i] for i in order]\n",
            ),
        ],
    ),
}


def mutated_source(module, edits):
    """The module's source with every ``(old, new)`` edit applied once."""
    path = SRC.joinpath(*module.split(".")[1:]).with_suffix(".py")
    text = path.read_text(encoding="utf-8")
    for old, new in edits:
        assert text.count(old) == 1, (module, old)
        text = text.replace(old, new)
    return text


@pytest.fixture(scope="module")
def src_index():
    return ProjectIndex.build([SRC])


def test_every_flow_rule_has_an_audit_mutation():
    assert sorted(FLOW_MUTATIONS) == sorted(FLOW_RULE_IDS)


@pytest.mark.parametrize("rule_id", sorted(FLOW_MUTATIONS))
def test_flow_rule_reports_its_mutation_and_no_other_rule_does(
    src_index, rule_id
):
    module, edits = FLOW_MUTATIONS[rule_id]
    clean = src_index.modules[module]
    mutated = extract_module(
        ModuleSource(
            mutated_source(module, edits),
            path=clean.path,
            module=module,
            is_package=False,
        )
    )
    index = ProjectIndex({**src_index.modules, module: mutated})
    result = run_flow([SRC], index=index)
    assert result.findings, f"{rule_id} missed its mutation"
    assert {f.rule_id for f in result.findings} == {rule_id}, [
        f"{f.rule_id}: {f.message}" for f in result.findings
    ]
