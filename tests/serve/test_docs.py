"""Doc drift for the serving layer (same pattern as the pushlint catalog).

Every public ``repro.serve`` symbol must appear as inline code in
docs/API.md, and docs/SERVING.md must exist and cover the load-bearing
concepts (schema tag, hash verification, cache byte-identity).
"""

from pathlib import Path

import repro.serve

REPO_ROOT = Path(__file__).resolve().parents[2]
API_DOC = REPO_ROOT / "docs" / "API.md"
SERVING_DOC = REPO_ROOT / "docs" / "SERVING.md"


def test_docs_exist():
    assert API_DOC.is_file()
    assert SERVING_DOC.is_file()


def test_every_public_serve_symbol_is_documented():
    # A symbol counts as documented whether it is rendered bare
    # (`ServeCore`) or with its call signature (`canonical_json(obj)`).
    text = API_DOC.read_text(encoding="utf-8")
    missing = [
        name
        for name in repro.serve.__all__
        if f"`{name}`" not in text and f"`{name}(" not in text
    ]
    assert not missing, f"serve symbols absent from docs/API.md: {missing}"


def test_serving_doc_covers_the_contract():
    text = SERVING_DOC.read_text(encoding="utf-8")
    for needle in (
        "repro-snapshot/1",      # the schema tag
        "content hash",          # integrity verification
        "byte-identical",        # the determinism guarantee
        "cache",                 # response-cache semantics
        "python -m repro.serve", # the CLI entry point
        "perfbench",             # the end-to-end benchmark
    ):
        assert needle in text, f"docs/SERVING.md lost its {needle!r} coverage"


def test_serving_doc_is_cross_linked():
    for doc in ("README.md", "docs/PERFORMANCE.md", "docs/OBSERVABILITY.md"):
        text = (REPO_ROOT / doc).read_text(encoding="utf-8")
        assert "SERVING.md" in text, f"{doc} does not link docs/SERVING.md"
