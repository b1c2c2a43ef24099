"""Fuzzing ``absorb``: adversarial valid batches absorb or refuse, typed.

Each drawn batch mixes held-out records with edge cases the crawler
rarely produces: empty and out-of-vocabulary text, non-ASCII text,
landing URLs with no path tokens, exact copies of corpus records and of
each other, and a wpn id the corpus already holds. A batch must either
absorb or raise :class:`IncrementalDriftError` / :class:`ValueError`,
and the dense and the sparse (blocked) absorb must accept the same
batches and agree on ``assigned``, ``opened`` and every label.
"""

from __future__ import annotations

import dataclasses

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.incremental import IncrementalDriftError, IncrementalMiner

FUZZ = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

KINDS = (
    "held_out",
    "copy_corpus",
    "copy_batch",
    "empty_text",
    "oov_text",
    "non_ascii_text",
    "no_path",
    "odd_path",
    "corpus_id",
)

_NON_ASCII = st.text(
    alphabet=st.characters(min_codepoint=0x80, max_codepoint=0x2FFF),
    max_size=24,
)
_PATH = st.text(
    alphabet=st.sampled_from("abc/-_.?=&%é漢"), max_size=16
)


@st.composite
def specs(draw):
    """One batch as ``(kind, index, text, path)`` tuples."""
    size = draw(st.integers(min_value=1, max_value=6))
    return [
        (
            draw(st.sampled_from(KINDS)),
            draw(st.integers(min_value=0, max_value=10_000)),
            draw(_NON_ASCII),
            draw(_PATH),
        )
        for _ in range(size)
    ]


def build_batch(spec, base_records, batch_records):
    batch = []
    for i, (kind, index, text, path) in enumerate(spec):
        template = batch_records[index % len(batch_records)]
        changes = {"wpn_id": f"fuzz-{i}"}
        if kind == "copy_corpus":
            template = base_records[index % len(base_records)]
        elif kind == "copy_batch" and batch:
            template = batch[index % len(batch)]
        elif kind == "empty_text":
            changes.update(title="", body="")
        elif kind == "oov_text":
            changes.update(title="zqxjv wvkpq", body="xxqzj")
        elif kind == "non_ascii_text":
            changes.update(title=text, body=text[::-1])
        elif kind == "no_path":
            changes.update(landing_url="https://landing.example/")
        elif kind == "odd_path":
            changes.update(landing_url=f"https://landing.example/{path}")
        elif kind == "corpus_id":
            # Refused: a wpn id the corpus already holds.
            taken = base_records[index % len(base_records)].wpn_id
            changes.update(wpn_id=taken)
        batch.append(dataclasses.replace(template, **changes))
    return batch


def absorb_or_refuse(base, batch):
    miner = IncrementalMiner.from_result(base)
    try:
        report = miner.absorb(batch)
    except (IncrementalDriftError, ValueError):
        return None
    return report, miner.result().labels


@FUZZ
@given(spec=specs())
def test_absorb_accepts_or_refuses_typed_and_storages_agree(
    base_result, sparse_base_result, base_records, batch_records, spec
):
    batch = build_batch(spec, base_records, batch_records)
    dense = absorb_or_refuse(base_result, batch)
    sparse = absorb_or_refuse(sparse_base_result, batch)
    assert (dense is None) == (sparse is None)
    if dense is None or sparse is None:
        return
    (dense_report, dense_labels), (sparse_report, sparse_labels) = dense, sparse
    assert dense_report.assigned + dense_report.opened == len(batch)
    assert (dense_report.assigned, dense_report.opened) == (
        sparse_report.assigned,
        sparse_report.opened,
    )
    assert np.array_equal(dense_labels, sparse_labels)
