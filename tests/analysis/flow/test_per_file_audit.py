"""Every pushlint rule earns its place with a mutation of real code.

Each row of :data:`PER_FILE_MUTATIONS` and :data:`FLOW_MUTATIONS` is a
seeded text edit of one real ``src/repro`` module that breaks a stated
contract — offline by construction, the package DAG, run-to-run, worker
or cross-host identity, or the O(tile*n) memory bound of the sparse
region — while tier-1, ``REPRO_DETSAN=1`` tier-1 and every other rule
miss it. The tests here pin the rule-fires half: with the mutation
applied, the full rule set (per-file rules and flow passes) reports that
rule and no other. ``docs/ANALYSIS.md`` ("Every rule earns its place")
says which contract each mutation breaks and how that was shown, and
which rules went because their mutations are caught elsewhere.
"""

from pathlib import Path

import pytest

from repro.analysis import ALL_RULES, AnalysisEngine
from repro.analysis.flow import ProjectIndex, run_flow
from repro.analysis.flow.extract import extract_module
from repro.analysis.rules import FLOW_RULE_IDS
from repro.analysis.source import ModuleSource

SRC = Path(__file__).resolve().parents[3] / "src" / "repro"

#: Per-file rule -> (module, [(old, new), ...]): text edits of one real
#: module.
PER_FILE_MUTATIONS = {
    # The listen banner resolves the host's fully qualified name: a DNS
    # lookup on the serving path, which tier-1 never starts.
    "no-network-imports": (
        "repro.serve.wsgi",
        [
            ("import json\n", "import json\nimport socket\n"),
            (
                'print(f"repro.serve listening on http://{host}:{port} "',
                'print(f"repro.serve listening on '
                'http://{socket.getfqdn(host)}:{port} "',
            ),
        ],
    ),
    # The crawler types leave the TYPE_CHECKING block: the miner's
    # report module now loads the simulated crawl at run time.
    "import-layering": (
        "repro.core.report",
        [(
            "if TYPE_CHECKING:  # crawler sits above core in the package DAG\n"
            "    import networkx as nx\n\n"
            "    from repro.crawler.harvest import WpnDataset\n"
            "    from repro.crawler.seeds import SeedDiscovery\n",
            "from repro.crawler.harvest import WpnDataset\n"
            "from repro.crawler.seeds import SeedDiscovery\n\n"
            "if TYPE_CHECKING:\n"
            "    import networkx as nx\n",
        )],
    ),
    # The --trace tree prints each span's metrics in set order, which the
    # per-process string hash salt decides.
    "deterministic-emit": (
        "repro.obs.reporters",
        [(
            "    for key in sorted(span.metrics):\n",
            "    for key in set(span.metrics):\n",
        )],
    ),
}

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


def rules_reporting(src_index, module, edits):
    """Every rule id the full rule set reports with one mutation applied."""
    clean = src_index.modules[module]
    src = ModuleSource(
        mutated_source(module, edits),
        path=clean.path,
        module=module,
        is_package=False,
    )
    per_file, _ = AnalysisEngine().check_source(src)
    index = ProjectIndex({**src_index.modules, module: extract_module(src)})
    flow = run_flow([SRC], index=index)
    return sorted({f.rule_id for f in [*per_file, *flow.findings]})


def test_every_flow_rule_has_an_audit_mutation():
    assert sorted(FLOW_MUTATIONS) == sorted(FLOW_RULE_IDS)


def test_every_per_file_rule_has_an_audit_mutation():
    per_file = [r.id for r in ALL_RULES if r.id not in FLOW_RULE_IDS]
    assert sorted(PER_FILE_MUTATIONS) == sorted(per_file)


@pytest.mark.parametrize("rule_id", sorted(PER_FILE_MUTATIONS))
def test_per_file_rule_catches_what_flow_does_not(src_index, rule_id):
    module, edits = PER_FILE_MUTATIONS[rule_id]
    assert rules_reporting(src_index, module, edits) == [rule_id]


@pytest.mark.parametrize("rule_id", sorted(FLOW_MUTATIONS))
def test_flow_rule_reports_its_mutation_and_no_other_rule_does(
    src_index, rule_id
):
    module, edits = FLOW_MUTATIONS[rule_id]
    assert rules_reporting(src_index, module, edits) == [rule_id]
