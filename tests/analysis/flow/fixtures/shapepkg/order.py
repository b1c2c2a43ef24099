"""Sort-stability cases: unstable argsort behind a helper, stable controls."""

from typing import Any, List, Sequence

import numpy as np


def _rank(scores: np.ndarray) -> np.ndarray:
    return np.argsort(scores)


def emit_ranking(scores: np.ndarray) -> List[int]:
    return list(_rank(scores))


def emit_stable(scores: np.ndarray) -> np.ndarray:
    return np.argsort(scores, kind="stable")


def emit_lexsorted(scores: np.ndarray) -> np.ndarray:
    return np.lexsort((scores,))


def emit_by_score(items: Sequence[Any]) -> List[Any]:
    return sorted(items, key=lambda it: it.score)
