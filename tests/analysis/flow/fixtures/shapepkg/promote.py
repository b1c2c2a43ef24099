"""Dtype promotion cases: hidden float32 return, knob-guarded mix."""

from typing import Any, Sequence

import numpy as np

from shapepkg.sparse import SparseGraph


def _embed(graph: SparseGraph) -> np.ndarray:
    # The hidden half of a promotion: float32 leaves through the return
    # value, so the combining site never names a dtype.
    return np.zeros((graph.n, 8), dtype=np.float32)


def stage_scores(graph: SparseGraph) -> np.ndarray:
    base = np.ones(graph.n)
    return base + _embed(graph)


def emit_compact(graph: SparseGraph, precision: str) -> np.ndarray:
    heavy = np.ones(graph.n)
    light = np.zeros(graph.n, dtype=np.float32)
    if precision == "float32":
        # Still a mix: a knob guard sanctions nothing.
        return (heavy + light).astype(np.float32)
    return heavy


def emit_density(graph: SparseGraph) -> np.ndarray:
    hits = np.zeros(graph.n, dtype=np.int64)
    totals = np.full(graph.n, 2)
    return hits / totals


def emit_total(records: Sequence[Any], graph: SparseGraph) -> float:
    return sum(item.score for item in records)
