"""The content-hash incremental summary cache."""

import json

import pytest

from repro.analysis.flow import ProjectIndex, SummaryCache

from tests.analysis.flow.conftest import write_package

PKG = {
    "alpha": """
        def one() -> int:
            return 1
        """,
    "beta": """
        from cachepkg.alpha import one


        def two() -> int:
            return one() + one()
        """,
    "gamma": """
        def three() -> int:
            return 3
        """,
}


def test_warm_run_parses_nothing(tmp_path):
    pkg = write_package(tmp_path, "cachepkg", PKG)
    cache_file = tmp_path / "cache.json"

    cache = SummaryCache(cache_file)
    cold = ProjectIndex.build([pkg], cache=cache)
    assert cold.parsed == 4  # three modules + __init__
    assert cold.cached == 0
    cache.save()
    assert cache_file.exists()

    warm = ProjectIndex.build([pkg], cache=SummaryCache(cache_file))
    assert warm.parsed == 0
    assert warm.cached == 4
    assert warm.modules.keys() == cold.modules.keys()


def test_only_changed_file_reparses(tmp_path):
    pkg = write_package(tmp_path, "cachepkg", PKG)
    cache_file = tmp_path / "cache.json"
    cache = SummaryCache(cache_file)
    ProjectIndex.build([pkg], cache=cache)
    cache.save()

    (pkg / "gamma.py").write_text("def three() -> int:\n    return 33\n")
    cache = SummaryCache(cache_file)
    index = ProjectIndex.build([pkg], cache=cache)
    assert index.parsed == 1
    assert index.cached == 3
    assert "cachepkg.gamma" in index.modules


def test_cached_and_parsed_summaries_are_identical(tmp_path):
    pkg = write_package(tmp_path, "cachepkg", PKG)
    cache_file = tmp_path / "cache.json"
    cache = SummaryCache(cache_file)
    fresh = ProjectIndex.build([pkg], cache=cache)
    cache.save()

    warm = ProjectIndex.build([pkg], cache=SummaryCache(cache_file))
    for module in fresh.modules:
        assert warm.modules[module].to_dict() == fresh.modules[module].to_dict()


def test_corrupt_cache_is_ignored(tmp_path):
    pkg = write_package(tmp_path, "cachepkg", PKG)
    cache_file = tmp_path / "cache.json"
    cache_file.write_text("{not json")
    index = ProjectIndex.build([pkg], cache=SummaryCache(cache_file))
    assert index.parsed == 4


def test_version_mismatch_invalidates_entries(tmp_path):
    pkg = write_package(tmp_path, "cachepkg", PKG)
    cache_file = tmp_path / "cache.json"
    cache = SummaryCache(cache_file)
    ProjectIndex.build([pkg], cache=cache)
    cache.save()

    payload = json.loads(cache_file.read_text())
    for entry in payload["entries"].values():
        entry["summary"]["version"] = -1
    cache_file.write_text(json.dumps(payload))

    index = ProjectIndex.build([pkg], cache=SummaryCache(cache_file))
    assert index.parsed == 4
    assert index.cached == 0


def test_cache_file_is_deterministic(tmp_path):
    pkg = write_package(tmp_path, "cachepkg", PKG)
    first_file = tmp_path / "a.json"
    second_file = tmp_path / "b.json"
    for cache_file in (first_file, second_file):
        cache = SummaryCache(cache_file)
        ProjectIndex.build([pkg], cache=cache)
        cache.save()
    assert first_file.read_text() == second_file.read_text()


def test_ruleset_mismatch_invalidates_whole_cache(tmp_path):
    # A cache written by a different ruleset (new rule, changed summary
    # schema, edited description) must be dropped wholesale: its
    # summaries may lack facts the new passes need.
    pkg = write_package(tmp_path, "cachepkg", PKG)
    cache_file = tmp_path / "cache.json"
    cache = SummaryCache(cache_file)
    ProjectIndex.build([pkg], cache=cache)
    cache.save()

    payload = json.loads(cache_file.read_text())
    assert payload["ruleset"]  # fingerprint is recorded
    payload["ruleset"] = "0" * len(payload["ruleset"])
    cache_file.write_text(json.dumps(payload))

    index = ProjectIndex.build([pkg], cache=SummaryCache(cache_file))
    assert index.parsed == 4
    assert index.cached == 0


def test_ruleset_fingerprint_is_stable_within_a_version():
    from repro.analysis.flow import ruleset_fingerprint

    assert ruleset_fingerprint() == ruleset_fingerprint()
    assert len(ruleset_fingerprint()) == 16  # blake2b-8 hex


def test_parallel_cold_build_is_byte_identical(tmp_path):
    # The cold parse fans out over an ExecutionPlan; worker count must
    # change neither the index contents nor one byte of the saved cache.
    big = dict(PKG)
    for i in range(12):
        big[f"extra{i}"] = f"""
            def f{i}() -> int:
                return {i}
            """
    pkg = write_package(tmp_path, "cachepkg", big)

    caches = {}
    indexes = {}
    for workers in (1, 2, 4):
        cache_file = tmp_path / f"cache-w{workers}.json"
        cache = SummaryCache(cache_file)
        indexes[workers] = ProjectIndex.build([pkg], cache=cache, workers=workers)
        cache.save()
        caches[workers] = cache_file.read_bytes()

    assert caches[1] == caches[2] == caches[4]
    for workers in (2, 4):
        assert indexes[workers].modules.keys() == indexes[1].modules.keys()
        for module in indexes[1].modules:
            assert (
                indexes[workers].modules[module].to_dict()
                == indexes[1].modules[module].to_dict()
            )


@pytest.mark.parametrize("version", [2, 3, 4, 5, 6])
def test_stale_summary_payload_is_wholesale_invalidated(tmp_path, version):
    # Regression for the v3 to v7 schema bumps: a cache whose entries
    # carry version-2 summaries (written before the shape facts existed,
    # so lacking allocs/sorts), version-3 summaries (which may still hold
    # the dropped "densifier" role), version-4 summaries (which still
    # carry the dropped dtype facts), version-5 summaries (which still
    # carry the dropped order-sensitive merges) or version-6 summaries
    # (which lack the self.<attr>.<method> call edges) has correct file
    # hashes — the per-summary version gate must reject every entry even
    # if the envelope (cache version + ruleset fingerprint) were somehow
    # valid.
    pkg = write_package(tmp_path, "cachepkg", PKG)
    cache_file = tmp_path / "cache.json"
    cache = SummaryCache(cache_file)
    ProjectIndex.build([pkg], cache=cache)
    cache.save()

    payload = json.loads(cache_file.read_text())
    for entry in payload["entries"].values():
        entry["summary"]["version"] = version
        for fn in entry["summary"].get("functions", {}).values():
            if version == 2:
                for key in ("allocs", "sorts", "params", "roles"):
                    fn.pop(key, None)
            elif version == 3:
                fn["roles"] = [*fn.get("roles", []), "densifier"]
            elif version == 4:
                fn["dtype_events"] = []
                fn["returns_dtype"] = "unknown"
            elif version == 5:
                fn["merges"] = []
    cache_file.write_text(json.dumps(payload))

    index = ProjectIndex.build([pkg], cache=SummaryCache(cache_file))
    assert index.parsed == 4
    assert index.cached == 0


def test_current_summary_version_is_v7():
    from repro.analysis.flow.summary import SUMMARY_VERSION

    assert SUMMARY_VERSION == 7


def test_changed_rule_description_invalidates_wholesale(tmp_path, monkeypatch):
    # The fingerprint folds in every registered rule's id + description,
    # so adding a pass (or editing what one means) drops warm caches
    # without any manual version bump.
    import repro.analysis.rules as rules_mod
    from repro.analysis.flow import ruleset_fingerprint

    pkg = write_package(tmp_path, "cachepkg", PKG)
    cache_file = tmp_path / "cache.json"
    cache = SummaryCache(cache_file)
    ProjectIndex.build([pkg], cache=cache)
    cache.save()
    before = ruleset_fingerprint()

    monkeypatch.setattr(rules_mod, "ALL_RULES", rules_mod.ALL_RULES[:-1])
    assert ruleset_fingerprint() != before
    index = ProjectIndex.build([pkg], cache=SummaryCache(cache_file))
    assert index.parsed == 4
    assert index.cached == 0
