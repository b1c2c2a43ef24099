"""Average silhouette score of one labeling over a distance matrix.

The paper selects the dendrogram cut by average silhouette (section
5.1.1); the cut stage scores its candidates with the incremental sweep
(:func:`repro.core.clustering.silhouette_schedule`), and these
from-scratch scorers are its oracles. :func:`silhouette_samples` sums
per-cluster distances with a label-sorted column permutation and one
:func:`np.add.reduceat` pass — O(n^2) instead of the O(n^2 * k) dense
indicator matmul kept as :func:`silhouette_samples_reference`.
"""

from __future__ import annotations

import numpy as np


def _validate(distances: np.ndarray, labels: np.ndarray) -> int:
    if distances.ndim != 2 or distances.shape[0] != distances.shape[1]:
        raise ValueError("distance matrix must be square")
    n = distances.shape[0]
    if labels.shape != (n,):
        raise ValueError("labels must have one entry per row")
    return n


def silhouette_samples(distances: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Per-point silhouette values.

    Points in singleton clusters get 0 (the usual convention). Requires at
    least two clusters; raises ``ValueError`` otherwise. Accumulation is
    in float64 regardless of the distance matrix's dtype.
    """
    n = _validate(distances, labels)
    unique, compact = np.unique(labels, return_inverse=True)
    k = unique.size
    if k < 2:
        raise ValueError("silhouette requires at least 2 clusters")

    counts = np.bincount(compact, minlength=k).astype(np.float64)
    # Sort points by cluster: each cluster's members become one contiguous
    # column run, so one reduceat per row yields all k per-cluster sums.
    order = np.argsort(compact, kind="stable")
    starts = np.zeros(k, dtype=np.intp)
    starts[1:] = np.cumsum(counts[:-1]).astype(np.intp)
    sums = np.add.reduceat(distances[:, order], starts, axis=1, dtype=np.float64)

    own_counts = counts[compact]
    with np.errstate(divide="ignore", invalid="ignore"):
        a = sums[np.arange(n), compact] / np.maximum(own_counts - 1.0, 1.0)
        mean_to = sums / np.maximum(counts[None, :], 1.0)
    mean_to[np.arange(n), compact] = np.inf
    b = mean_to.min(axis=1)

    denom = np.maximum(a, b)
    with np.errstate(divide="ignore", invalid="ignore"):
        s = np.where(denom > 0, (b - a) / np.maximum(denom, 1e-12), 0.0)
    s[own_counts == 1] = 0.0  # singleton convention
    return s


def silhouette_samples_reference(
    distances: np.ndarray, labels: np.ndarray
) -> np.ndarray:
    """Indicator-matmul silhouette: the O(n^2 * k) reference oracle.

    Kept verbatim from the pre-blocked implementation; the fast path must
    agree with it to float tolerance on arbitrary labelings.
    """
    n = _validate(distances, labels)
    unique = np.unique(labels)
    k = unique.size
    if k < 2:
        raise ValueError("silhouette requires at least 2 clusters")

    # Map labels to 0..k-1 and build the indicator matrix.
    remap = {int(label): idx for idx, label in enumerate(unique)}
    compact = np.array([remap[int(label)] for label in labels])
    indicator = np.zeros((n, k))
    indicator[np.arange(n), compact] = 1.0
    counts = indicator.sum(axis=0)

    sums = distances @ indicator          # (n, k): sum of dists to each cluster
    own_counts = counts[compact]

    with np.errstate(divide="ignore", invalid="ignore"):
        a = sums[np.arange(n), compact] / np.maximum(own_counts - 1.0, 1.0)
        mean_to = sums / np.maximum(counts[None, :], 1.0)
    mean_to[np.arange(n), compact] = np.inf
    b = mean_to.min(axis=1)

    denom = np.maximum(a, b)
    with np.errstate(divide="ignore", invalid="ignore"):
        s = np.where(denom > 0, (b - a) / np.maximum(denom, 1e-12), 0.0)
    s[own_counts == 1] = 0.0  # singleton convention
    return s


def average_silhouette(distances: np.ndarray, labels: np.ndarray) -> float:
    """Mean silhouette; -1.0 for degenerate labelings (k < 2 or k == n)."""
    n = distances.shape[0]
    k = np.unique(labels).size
    if k < 2 or k >= n:
        return -1.0
    return float(silhouette_samples(distances, labels).mean())
