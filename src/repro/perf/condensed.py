"""Condensed (upper-triangular) storage for symmetric distance matrices.

A symmetric zero-diagonal ``n x n`` matrix is fully described by its
``n * (n - 1) / 2`` strict upper-triangle entries, stored row-major —
the same layout ``scipy.spatial.distance`` uses, implemented here so the
kernels stay dependency-light and dtype-preserving. Condensed storage
plus ``float32`` precision cuts the pairwise-matrix footprint 4x against
a dense ``float64`` square.
"""

from __future__ import annotations

from typing import Optional

import numpy as np


def condensed_size(n: int) -> int:
    """Number of strict upper-triangle entries of an ``n x n`` matrix."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    return n * (n - 1) // 2


def row_offset(i: int, n: int) -> int:
    """Start of row ``i``'s entries ``(i, i+1..n-1)`` in condensed storage."""
    return i * n - (i * (i + 1)) // 2 - i


def square_to_condensed(square: np.ndarray) -> np.ndarray:
    """The strict upper triangle of a square matrix, row-major.

    The caller is responsible for ``square`` being symmetric; only the
    upper triangle is read.
    """
    if square.ndim != 2 or square.shape[0] != square.shape[1]:
        raise ValueError("square_to_condensed needs a square matrix")
    n = square.shape[0]
    return square[np.triu_indices(n, k=1)]


def condensed_to_square(
    condensed: np.ndarray, n: int, dtype: Optional[np.dtype] = None
) -> np.ndarray:
    """Expand condensed storage back to a symmetric zero-diagonal square."""
    if condensed.ndim != 1:
        raise ValueError("condensed storage must be one-dimensional")
    if condensed.size != condensed_size(n):
        raise ValueError(
            f"condensed storage for n={n} needs {condensed_size(n)} entries, "
            f"got {condensed.size}"
        )
    # Deliberately O(n^2) and unsanctioned: flow-dense-alloc reports this
    # allocation whenever sparse/parallel kernel code reaches it.
    out = np.zeros(
        (n, n), dtype=dtype if dtype is not None else condensed.dtype
    )
    rows, cols = np.triu_indices(n, k=1)
    out[rows, cols] = condensed
    out[cols, rows] = condensed
    return out
