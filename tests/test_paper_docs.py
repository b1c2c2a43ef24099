"""Doc drift for the paper suite: the docs and ``benchmarks/`` agree.

Every ``test_*.py`` that EXPERIMENTS.md or README's "Reproducing the
paper's evaluation" section names must exist under ``benchmarks/``, and
every ``benchmarks/test_*.py`` must be named in one of the two.
"""

import re
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
BENCH_NAME = re.compile(r"`(test_\w+\.py)`")


def _readme_section(heading):
    text = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    start = text.index(f"\n## {heading}\n")
    end = text.find("\n## ", start + 1)
    return text[start:end if end != -1 else len(text)]


def test_docs_and_paper_suite_name_the_same_files():
    experiments = (REPO_ROOT / "EXPERIMENTS.md").read_text(encoding="utf-8")
    readme = _readme_section("Reproducing the paper's evaluation")
    named = set(BENCH_NAME.findall(experiments)) | set(BENCH_NAME.findall(readme))
    present = {p.name for p in (REPO_ROOT / "benchmarks").glob("test_*.py")}
    assert sorted(named - present) == [], "docs name missing bench files"
    assert sorted(present - named) == [], "bench files absent from the docs"
