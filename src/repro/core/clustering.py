"""Agglomerative hierarchical clustering with silhouette-selected cut.

The paper clusters WPNs with agglomerative clustering over the combined
distance matrix and cuts the dendrogram at the level maximizing the average
silhouette score (section 5.1.1). We implement canonical global-minimum
agglomeration — each step merges the globally closest active pair, ties
broken toward the lowest (row, column) slot — over either a dense work
matrix or the candidate-sparse graph from :mod:`repro.perf.blocking`.
The sparse path certifies, merge by merge, that the blocked graph carries
enough information to reproduce the dense merge bit for bit (every
unknown pair is provably further than the chosen one); it stops at the
first uncertifiable height and records the exact prefix, so downstream
cut selection can prove its thresholds never leave certified territory.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.perf import (
    DEFAULT_TILE_SIZE,
    BlockingExactnessError,
    CutScoringOperands,
    ExecutionPlan,
    PairwiseOperands,
    SilhouetteSchedule,
    SparsePairwise,
    component_labels,
    cut_silhouette_tile,
    row_tiles,
    silhouette_rows,
)
from repro.util.graph import UnionFind

#: Safety margin for the sparse-path exactness guards: a merge or a
#: silhouette term is only certified when the known minimum undercuts
#: every lower bound on unknown quantities by at least this much, so
#: float rounding in the bound accumulators can never flip a decision.
EXACTNESS_MARGIN = 1e-9


@dataclass(frozen=True)
class Merge:
    """One dendrogram merge: two cluster ids joined at a height.

    ``new_id`` is the id of the merged cluster (leaves are 0..n-1; merge i
    in construction order creates id n+i), so cutting can resolve which
    earlier merge an id refers to regardless of height ordering.
    """

    id_a: int
    id_b: int
    height: float
    size: int
    new_id: int


class Linkage:
    """A full dendrogram over ``n_leaves`` items.

    ``exact_merges`` / ``height_floor`` carry the sparse fit's exactness
    certificate: the first ``exact_merges`` height-sorted merges are
    bitwise identical to the dense path's, and every dense merge beyond
    that prefix has height >= ``height_floor`` (the sparse path fills the
    uncertified remainder with canonical placeholder merges at height
    1.0).  Dense fits are exact everywhere: ``exact_merges`` defaults to
    all merges and ``height_floor`` to infinity.
    """

    def __init__(
        self,
        n_leaves: int,
        merges: Sequence[Merge],
        *,
        exact_merges: Optional[int] = None,
        height_floor: float = float("inf"),
    ):
        if n_leaves >= 2 and len(merges) != n_leaves - 1:
            raise ValueError(
                f"a dendrogram over {n_leaves} leaves needs {n_leaves - 1} "
                f"merges, got {len(merges)}"
            )
        self.n_leaves = n_leaves
        self.merges = sorted(merges, key=lambda m: m.height)
        self.exact_merges = (
            len(self.merges) if exact_merges is None else exact_merges
        )
        self.height_floor = height_floor

    def heights(self) -> np.ndarray:
        """Merge heights in nondecreasing order."""
        return np.array([m.height for m in self.merges])

    def cut(self, threshold: float) -> np.ndarray:
        """Flat cluster labels after applying all merges <= ``threshold``.

        Labels are contiguous integers 0..k-1, deterministic for a given
        dendrogram and threshold.
        """
        uf = UnionFind(range(self.n_leaves))
        for merge in self.merges:
            uf.add(merge.new_id)
            if merge.height <= threshold:
                uf.union(merge.id_a, merge.new_id)
                uf.union(merge.id_b, merge.new_id)
        labels = np.empty(self.n_leaves, dtype=np.int64)
        canon = {}
        for leaf in range(self.n_leaves):
            root = uf.find(leaf)
            if root not in canon:
                canon[root] = len(canon)
            labels[leaf] = canon[root]
        return labels

    def n_clusters_at(self, threshold: float) -> int:
        return int(self.cut(threshold).max()) + 1

    def to_scipy(self) -> np.ndarray:
        """Scipy-compatible linkage matrix ``(n-1, 4)``.

        Lets users hand the dendrogram to ``scipy.cluster.hierarchy``
        (``dendrogram``, ``fcluster``, ...). Merges are re-labeled into
        scipy's convention: row *i* creates cluster id ``n + i`` and may
        only reference ids created by earlier rows, which
        :func:`_dependency_order` guarantees even under height ties.
        """
        n = self.n_leaves
        out = np.zeros((max(n - 1, 0), 4))
        relabel = {leaf: leaf for leaf in range(n)}
        for row, merge in enumerate(_dependency_order(self)):
            a, b = relabel[merge.id_a], relabel[merge.id_b]
            out[row] = (min(a, b), max(a, b), merge.height, merge.size)
            relabel[merge.new_id] = n + row
        return out


class AgglomerativeClusterer:
    """Average-linkage agglomeration by canonical global-minimum merging.

    Every step merges the globally closest active pair; ties break toward
    the lowest row slot, then the lowest column in that row (merged
    clusters occupy the lower of their parents' slots).  This canonical
    order is what lets the candidate-sparse path reproduce the dense
    merge sequence bit for bit: both paths pick the same pair whenever
    the sparse graph can prove no unknown pair is closer.
    """

    def fit(self, distances: Union[np.ndarray, SparsePairwise]) -> Linkage:
        """Build the dendrogram from a pairwise distance matrix.

        Accepts a symmetric square matrix of finite distances or a
        candidate-sparse :class:`~repro.perf.SparsePairwise` graph.  The
        square runs :func:`_average_linkage` uncapped on a fresh float64
        copy; the sparse form runs the certified sparse-graph path and
        records its exactness certificate on the returned
        :class:`Linkage`.
        """
        if isinstance(distances, SparsePairwise):
            return self._fit_sparse(distances)
        if distances.ndim != 2 or distances.shape[0] != distances.shape[1]:
            raise ValueError("distance matrix must be square")
        n = distances.shape[0]
        if n <= 1:
            return Linkage(n, [])
        work = distances.astype(np.float64, copy=True)
        np.fill_diagonal(work, np.inf)
        triples, _, _ = _average_linkage(work, float("inf"))
        if len(triples) < n - 1:
            # Only an inf or NaN height stops the uncapped loop early.
            raise ValueError("distance matrix must be finite")
        # Relabel slot pairs into cluster ids: merge i creates id n+i and
        # takes over the lower slot a.
        ids = list(range(n))
        sizes = [1] * n
        merges: List[Merge] = []
        for height, a, b in triples:
            new_id = n + len(merges)
            merges.append(
                Merge(ids[a], ids[b], height, sizes[a] + sizes[b], new_id)
            )
            ids[a] = new_id
            sizes[a] += sizes[b]
        return Linkage(n, merges)

    def _fit_sparse(self, graph: SparsePairwise) -> Linkage:
        """Certified sparse-graph agglomeration over candidate entries.

        The graph stores one float per stored pair (bitwise equal to
        the dense matrix entry) and the blocking certificates promise
        every absent pair has total distance >= ``graph.bound``.  Merges
        below that cap can only join clusters inside one connected
        component of the sub-bound entry graph — a cross-component
        cluster pair averages only >= bound leaf pairs — so the fit runs
        the canonical global-minimum loop independently per component on
        a small dense work matrix (:func:`_component_linkage`, every
        scalar update the dense path's exact operation sequence) and
        interleaves the per-component sequences by the dense selection
        rule: lowest height first, ties toward the lowest global row
        slot.

        A merge is certified only when its height provably undercuts
        every pair the graph cannot price exactly — the flat
        ``graph.bound`` for absent pairs and the per-pair lower bound
        ``(known_sum + bound * unknown_pairs) / total_pairs`` for
        partially covered cluster pairs — by :data:`EXACTNESS_MARGIN`.
        The first uncertifiable step stops the exact prefix and records
        ``height_floor``; the remaining clusters fold into canonical
        placeholder merges at height 1.0.
        """
        n = graph.n
        if n <= 1:
            return Linkage(n, [], exact_merges=0, height_floor=float("inf"))

        n_components, comp = component_labels(graph)
        members_flat = np.argsort(comp, kind="stable")
        comp_sizes = np.bincount(comp, minlength=n_components)
        member_offsets = np.zeros(n_components + 1, dtype=np.int64)
        np.cumsum(comp_sizes, out=member_offsets[1:])
        local = np.empty(n, dtype=np.int64)
        local[members_flat] = np.arange(n, dtype=np.int64) - np.repeat(
            member_offsets[:-1], comp_sizes
        )

        # Group the within-component entries by component.  Entries that
        # join two components are discarded: they are >= the bound (no
        # sub-bound edge crosses a component) and the flat absent-pair
        # bound already covers them.
        rows = np.repeat(np.arange(n, dtype=np.int64), np.diff(graph.indptr))
        within = comp[rows] == comp[graph.indices]
        e_row = rows[within]
        e_col = graph.indices[within]
        e_val = graph.data[within].astype(np.float64)
        e_comp = comp[e_row]
        e_order = np.argsort(e_comp, kind="stable")
        e_row, e_col, e_val = e_row[e_order], e_col[e_order], e_val[e_order]
        entry_counts = np.bincount(e_comp, minlength=n_components)
        entry_offsets = np.zeros(n_components + 1, dtype=np.int64)
        np.cumsum(entry_counts, out=entry_offsets[1:])

        # The certification cap (= the graph's absent-pair bound) applies
        # as soon as any pair is absent from the local matrices (never a
        # candidate, screened, pruned, or cross-component); a single
        # fully-known component reproduces the dense dendrogram to the
        # top.
        total_pairs = n * (n - 1) // 2
        bound = float(graph.bound)
        cap = (
            float("inf")
            if n_components == 1 and int(e_row.size) == total_pairs
            else bound
        )

        runs: List[Optional[Tuple[List[Tuple[float, int, int]], List[float], float]]] = []
        for c in range(n_components):
            m = int(comp_sizes[c])
            if m == 1:
                runs.append(None)
                continue
            s, t = int(entry_offsets[c]), int(entry_offsets[c + 1])
            if m == 2:
                # A two-leaf component is always fully known (its one
                # edge is a stored sub-bound entry), and its only merge
                # is the pair value itself.
                v = float(e_val[s])
                if v < cap - EXACTNESS_MARGIN:
                    runs.append(([(v, 0, 1)], [float("inf")], float("inf")))
                else:
                    runs.append(([], [], v))
                continue
            li = local[e_row[s:t]]
            lj = local[e_col[s:t]]
            # m is one connected component's size, capped by the kNN
            # graph — O(m^2) work matrices are the certified per-component
            # budget, not an O(n^2) densification of the full graph.
            work = np.full((m, m), np.inf)  # pushlint: disable=flow-dense-alloc
            # Upper-triangle entries; the kernels are bitwise symmetric,
            # so mirroring reproduces the full symmetric work matrix.
            work[li, lj] = e_val[s:t]
            work[lj, li] = e_val[s:t]
            if t - s == m * (m - 1) // 2:
                # Every internal pair is stored: no internal lower
                # bounds ever arise, so the dense fit's loop (values
                # only) replays the certified loop's exact selection
                # sequence.
                runs.append(_average_linkage(work, cap))
                continue
            # Same component-bounded budget as `work` above.
            known = np.zeros((m, m))  # pushlint: disable=flow-dense-alloc
            known[li, lj] = 1.0
            known[lj, li] = 1.0
            runs.append(_component_linkage(work, known, cap, bound))

        # --- interleave the component sequences ------------------------
        # Each component's certified heights are nondecreasing, so a heap
        # of sequence heads keyed (height, global slot of a) replays the
        # dense path's global selection rule exactly.
        ids = np.arange(n, dtype=np.int64)
        gsizes = np.ones(n, dtype=np.int64)
        alive = np.ones(n, dtype=bool)
        pointers = [0] * n_components
        # A component's current certification bound: its internal bound
        # before the pending merge while mid-sequence, afterwards the
        # bound it ended on (inf once nothing unknown remains).
        current_bounds = np.full(n_components, np.inf)
        heads: List[Tuple[float, int, int]] = []
        for c, run in enumerate(runs):
            if run is None:
                continue
            merges_c, bounds_c, end_bound = run
            if merges_c:
                h, al, _ = merges_c[0]
                ga = int(members_flat[member_offsets[c] + al])
                heads.append((h, ga, c))
                current_bounds[c] = bounds_c[0]
            else:
                current_bounds[c] = end_bound
        heapq.heapify(heads)

        merges: List[Merge] = []
        next_id = n
        exact = True
        floor = float("inf")
        while heads:
            h, ga, c = heads[0]
            bound = min(cap, float(current_bounds.min()))
            if not h < bound - EXACTNESS_MARGIN:
                floor = min(h, bound)
                exact = False
                break
            heapq.heappop(heads)
            merges_c, bounds_c, end_bound = runs[c]
            _, al, bl = merges_c[pointers[c]]
            base = int(member_offsets[c])
            gb = int(members_flat[base + bl])
            merges.append(
                Merge(
                    int(ids[ga]), int(ids[gb]), float(h),
                    int(gsizes[ga] + gsizes[gb]), next_id,
                )
            )
            ids[ga] = next_id
            gsizes[ga] += gsizes[gb]
            alive[gb] = False
            next_id += 1
            pointers[c] += 1
            p = pointers[c]
            if p < len(merges_c):
                nh, nal, _ = merges_c[p]
                heapq.heappush(
                    heads, (nh, int(members_flat[base + nal]), c)
                )
                current_bounds[c] = bounds_c[p]
            else:
                current_bounds[c] = end_bound
        else:
            # Every certified component merge was taken.  If clusters
            # remain, the next dense merge is only bounded from below.
            if int(alive.sum()) > 1:
                floor = min(cap, float(current_bounds.min()))
                exact = False

        exact_count = len(merges)
        if not exact:
            if merges:
                floor = max(floor, merges[-1].height)
            remaining = np.flatnonzero(alive)
            base_slot = int(remaining[0])
            size_acc = int(gsizes[base_slot])
            id_acc = int(ids[base_slot])
            for s in remaining[1:]:
                size_acc += int(gsizes[int(s)])
                merges.append(
                    Merge(id_acc, int(ids[int(s)]), 1.0, size_acc, next_id)
                )
                id_acc = next_id
                next_id += 1
        return Linkage(
            n, merges, exact_merges=exact_count, height_floor=floor
        )


def _component_linkage(
    work: np.ndarray, known: np.ndarray, cap: float, bound: float
) -> Tuple[List[Tuple[float, int, int]], List[float], float]:
    """Certified global-minimum average linkage over one component.

    ``work`` holds the known pairwise values (``inf`` on the diagonal and
    wherever a pair is unknown); ``known`` is 1.0 exactly where a value
    is known.  Both are consumed in place.  Returns ``(merges, bounds,
    end_bound)``: the certified local merge sequence as ``(height,
    slot_a, slot_b)`` triples, the component's internal unknown-pair
    lower bound before each merge, and the bound left standing after the
    last one (``inf`` once nothing unknown remains).

    Every fused value repeats the dense path's scalar sequence
    ``(size_a * v_a + size_b * v_b) / (size_a + size_b)`` on the same
    operands, so certified heights are bitwise equal to the dense path's
    — ``inf`` operands propagate, marking any cluster pair with an
    unknown leaf pair as unpriceable.  Alongside the values, the loop
    tracks each cluster pair's known-leaf-pair sum and count; a pair not
    fully covered carries the lower bound ``(known_sum + bound *
    unknown_pairs) / total_pairs`` (the absent-pair certificate applied
    to its unknown remainder), and the loop stops as soon as the global
    minimum no longer provably undercuts every such bound and ``cap``.
    """
    m = work.shape[0]
    sizes = np.ones(m)
    active = np.ones(m, dtype=bool)
    ksum = np.where(known > 0.0, work, 0.0)
    kcnt = known
    # Lower bounds for not-fully-known pairs: at leaf level an unknown
    # pair's bound is exactly (0 + bound * 1) / 1 = bound; fully-known
    # pairs carry no bound.
    lbm = np.where(known > 0.0, np.inf, bound)
    np.fill_diagonal(lbm, np.inf)

    row_min = work.min(axis=1)
    row_arg = np.argmin(work, axis=1)
    lb_min = lbm.min(axis=1)
    lb_arg = np.argmin(lbm, axis=1)

    merges: List[Tuple[float, int, int]] = []
    bounds: List[float] = []
    end_bound = float("inf")
    n_active = m
    while n_active > 1:
        # Dead rows carry inf in both caches, so the raw reductions match
        # the masked selection (ties toward the lowest live slot).
        a = int(np.argmin(row_min))
        gmin = float(row_min[a])
        glb = float(lb_min.min())
        if not gmin < min(glb, cap) - EXACTNESS_MARGIN:
            end_bound = min(gmin, glb)
            break
        b = int(row_arg[a])
        bounds.append(glb)
        merges.append((gmin, a, b))

        size_a, size_b = float(sizes[a]), float(sizes[b])
        total = size_a + size_b
        # The dense path's average Lance-Williams update, same operands,
        # same operation order.
        fused = (size_a * work[a] + size_b * work[b]) / total
        fused[a] = np.inf
        fused[b] = np.inf
        ks = ksum[a] + ksum[b]
        ks[a] = 0.0
        ks[b] = 0.0
        kc = kcnt[a] + kcnt[b]
        kc[a] = 0.0
        kc[b] = 0.0
        sizes[a] = total
        active[b] = False
        n_active -= 1
        full = total * sizes
        with np.errstate(invalid="ignore"):
            lb_row = np.where(
                active & (kc < full),
                (ks + bound * (full - kc)) / full,
                np.inf,
            )
        lb_row[a] = np.inf

        work[a, :] = fused
        work[:, a] = fused
        work[b, :] = np.inf
        work[:, b] = np.inf
        ksum[a, :] = ks
        ksum[:, a] = ks
        kcnt[a, :] = kc
        kcnt[:, a] = kc
        lbm[a, :] = lb_row
        lbm[:, a] = lb_row
        lbm[b, :] = np.inf
        lbm[:, b] = np.inf

        # Value caches, exactly the dense fit's maintenance: a fused
        # value lies between its parents, so only rows whose cached
        # argmin pointed at a or b can change their minimum; the rest owe
        # at most the canonical tie-break toward the rewritten column.
        arg = int(np.argmin(fused))
        row_arg[a] = arg
        row_min[a] = fused[arg]
        row_min[b] = np.inf
        rescan = active & ((row_arg == a) | (row_arg == b))
        rescan[a] = False
        for r in np.flatnonzero(rescan):
            arg = int(np.argmin(work[r]))
            row_arg[r] = arg
            row_min[r] = work[r, arg]
        tie = active & ~rescan & (work[:, a] == row_min) & (row_arg > a)
        tie[a] = False
        row_arg[tie] = a

        # Bound caches: a fused bound is a weighted mean of its parents'
        # bounds — except where a fully-known side just turned partial,
        # which can LOWER a row's bound, so fold the fresh column in.
        arg = int(np.argmin(lb_row))
        lb_arg[a] = arg
        lb_min[a] = lb_row[arg]
        lb_min[b] = np.inf
        rescan_lb = active & ((lb_arg == a) | (lb_arg == b))
        rescan_lb[a] = False
        for r in np.flatnonzero(rescan_lb):
            arg = int(np.argmin(lbm[r]))
            lb_arg[r] = arg
            lb_min[r] = lbm[r, arg]
        lower = active & ~rescan_lb & (lb_row < lb_min)
        lower[a] = False
        lb_min[lower] = lb_row[lower]
        lb_arg[lower] = a
    return merges, bounds, end_bound


def _average_linkage(
    work: np.ndarray, cap: float
) -> Tuple[List[Tuple[float, int, int]], List[float], float]:
    """Canonical global-minimum average linkage over a fully-known square.

    ``work`` holds every pairwise value with ``inf`` on the diagonal and
    is consumed in place.  The dense fit runs it with ``cap=inf``; the
    sparse fit runs it for every component whose internal pairs are all
    stored, where there are no internal lower bounds and the only check
    is each height against ``cap``.  Returns :func:`_component_linkage`'s
    ``(merges, bounds, end_bound)``: selection, tie-breaks, the fused
    Lance-Williams update and cache maintenance are that loop's exact
    scalar sequence, so both produce the same merge triples.
    """
    m = work.shape[0]
    sizes = np.ones(m)
    active = np.ones(m, dtype=bool)
    # Per-row nearest-neighbour cache: row_min[r] = min(work[r]) and
    # row_arg[r] = the LOWEST column achieving it (np.argmin returns the
    # first occurrence).  A fused value lies between its two parents, so
    # after a merge only rows whose cached argmin pointed at a or b need
    # a full rescan; the rest owe at most the tie-break to column a.
    row_min = work.min(axis=1)
    row_arg = np.argmin(work, axis=1)

    merges: List[Tuple[float, int, int]] = []
    bounds: List[float] = []
    inf = float("inf")
    n_active = m
    while n_active > 1:
        # Dead rows carry inf in row_min, so the raw argmin is the masked
        # selection (ties toward the lowest slot).  b > a always: a pair
        # (a, c) at the minimum with c < a would put row c first.
        a = int(np.argmin(row_min))
        gmin = float(row_min[a])
        if not gmin < cap - EXACTNESS_MARGIN:
            return merges, bounds, gmin
        b = int(row_arg[a])
        bounds.append(inf)
        merges.append((gmin, a, b))

        size_a, size_b = float(sizes[a]), float(sizes[b])
        total = size_a + size_b
        fused = (size_a * work[a] + size_b * work[b]) / total
        fused[a] = np.inf
        fused[b] = np.inf
        sizes[a] = total
        active[b] = False
        n_active -= 1

        work[a, :] = fused
        work[:, a] = fused
        work[b, :] = np.inf
        work[:, b] = np.inf

        arg = int(np.argmin(fused))
        row_arg[a] = arg
        row_min[a] = fused[arg]
        row_min[b] = np.inf
        rescan = active & ((row_arg == a) | (row_arg == b))
        rescan[a] = False
        for r in np.flatnonzero(rescan):
            arg = int(np.argmin(work[r]))
            row_arg[r] = arg
            row_min[r] = work[r, arg]
        tie = active & ~rescan & (work[:, a] == row_min) & (row_arg > a)
        tie[a] = False
        row_arg[tie] = a
    return merges, bounds, inf


@dataclass(frozen=True)
class CutSelection:
    """Outcome of silhouette cut selection, with evaluation accounting."""

    threshold: float
    labels: np.ndarray
    score: float
    n_candidates: int
    merges_swept: int = 0  # merges applied, up to the highest scored cut


def _dependency_order(linkage: Linkage) -> List[Merge]:
    """Height-sorted merges, reordered so children precede parents.

    ``Linkage.merges`` sorts by height with a stable sort, which under
    height TIES may place a parent merge before the merge that created
    one of its children. Sweeps that materialize per-cluster state (the
    silhouette sweep's mean columns) need the creating merge applied
    first, and so do :meth:`Linkage.to_scipy`'s rows. Reordering only
    within equal-height runs is threshold-safe: tied merges always fall
    on the same side of any cut. The Kahn pass with a min-heap on
    height-sorted position keeps the order deterministic and, outside
    ties, unchanged.
    """
    ordered: List[Merge] = []
    emitted = set(range(linkage.n_leaves))
    blocked: Dict[int, int] = {}
    waiting: Dict[int, List[int]] = {}
    ready: List[int] = []
    for index, merge in enumerate(linkage.merges):
        missing = [i for i in (merge.id_a, merge.id_b) if i not in emitted]
        if missing:
            blocked[index] = len(missing)
            for unresolved in missing:
                waiting.setdefault(unresolved, []).append(index)
        else:
            heapq.heappush(ready, index)
    while ready:
        index = heapq.heappop(ready)
        merge = linkage.merges[index]
        ordered.append(merge)
        emitted.add(merge.new_id)
        for waiter in waiting.pop(merge.new_id, ()):
            blocked[waiter] -= 1
            if blocked[waiter] == 0:
                heapq.heappush(ready, waiter)
    if len(ordered) != len(linkage.merges):
        raise RuntimeError("inconsistent dendrogram")
    return ordered


def silhouette_schedule(
    linkage: Linkage, thresholds: Sequence[float]
) -> SilhouetteSchedule:
    """The silhouette sweep's schedule at nondecreasing ``thresholds``.

    Walks the dependency-ordered merges once, doing the sweep's
    bookkeeping (union-find roots to columns, cluster sizes, compaction)
    without reading a distance; :func:`repro.perf.silhouette_rows` then
    applies it to any row tile.  Column means accumulate along the merge
    tree, not in index order, so scores can differ from
    :func:`~repro.core.silhouette.average_silhouette` in the last few ulps.
    Degenerate cuts (k < 2 or k == n) are not scheduled; they score -1.0.
    """
    n = linkage.n_leaves
    counts = [1.0] * n
    col_of: Dict[int, int] = {leaf: leaf for leaf in range(n)}
    id_of: List[int] = list(range(n))
    uf = UnionFind(range(n))
    for merge in linkage.merges:
        uf.add(merge.new_id)
    order = _dependency_order(linkage)
    columns: List[Tuple[int, int, int]] = []
    sizes: List[Tuple[float, float]] = []
    scored: List[float] = []
    stops: List[int] = []
    owns: List[np.ndarray] = []
    own_counts: List[np.ndarray] = []
    ks: List[int] = []
    position, k = 0, n
    last_threshold = -np.inf
    for threshold in thresholds:
        if threshold < last_threshold:
            raise ValueError(
                f"sweep thresholds must be nondecreasing: {threshold} < "
                f"{last_threshold}"
            )
        last_threshold = threshold
        while position < len(order) and order[position].height <= threshold:
            merge = order[position]
            position += 1
            # col_of is keyed by union-find ROOT (which need not be the
            # cluster id the dendrogram assigned), so resolve first.
            col_a = col_of.pop(uf.find(merge.id_a))
            col_b = col_of.pop(uf.find(merge.id_b))
            last = k - 1
            columns.append((col_a, col_b, last))
            sizes.append((counts[col_a], counts[col_b]))
            counts[col_a] += counts[col_b]
            uf.union(merge.id_a, merge.new_id)
            uf.union(merge.id_b, merge.new_id)
            root = uf.find(merge.new_id)
            col_of[root] = col_a
            id_of[col_a] = root
            # Compact: the last live column moves into the freed slot.
            if col_b != last:
                counts[col_b] = counts[last]
                moved = id_of[last]
                id_of[col_b] = moved
                col_of[moved] = col_b
            k -= 1
        if k < 2 or k >= n:
            continue
        own = np.fromiter(
            (col_of[uf.find(leaf)] for leaf in range(n)),
            dtype=np.intp,
            count=n,
        )
        scored.append(float(threshold))
        stops.append(len(columns))
        owns.append(own)
        own_counts.append(np.array(counts, dtype=np.float64)[own])
        ks.append(k)
    applied = stops[-1] if stops else 0
    return SilhouetteSchedule(
        n=n,
        thresholds=tuple(scored),
        columns=np.array(columns[:applied], dtype=np.intp).reshape(-1, 3),
        sizes=np.array(sizes[:applied], dtype=np.float64).reshape(-1, 2),
        stops=tuple(stops),
        owns=tuple(owns),
        own_counts=tuple(own_counts),
        ks=tuple(ks),
    )


def _select_scored(
    linkage: Linkage,
    candidate_list: List[float],
    schedule: SilhouetteSchedule,
    parts: Iterable[np.ndarray],
) -> CutSelection:
    """The best candidate by mean of the stacked per-point tiles; the
    first of tied candidates wins, and unscheduled ones score -1.0."""
    scores = {t: -1.0 for t in candidate_list}
    if schedule.stops:
        samples = np.concatenate(list(parts), axis=1)
        for index, threshold in enumerate(schedule.thresholds):
            scores[threshold] = float(samples[index].mean())
    best: Tuple[float, float] = (0.0, -np.inf)
    found = False
    for threshold in candidate_list:
        if scores[threshold] > best[1]:
            best = (threshold, scores[threshold])
            found = True
    if not found:
        threshold = float(np.median(linkage.heights()))
        return CutSelection(
            threshold, linkage.cut(threshold), -1.0, len(candidate_list),
            schedule.n_merges,
        )
    return CutSelection(
        best[0], linkage.cut(best[0]), best[1], len(candidate_list),
        schedule.n_merges,
    )


def _candidate_thresholds(
    heights: np.ndarray,
    n_leaves: int,
    max_candidates: int,
    min_cluster_fraction: float,
    max_threshold: float,
) -> Tuple[List[float], bool, np.ndarray]:
    """Default candidate cut thresholds for a height-sorted merge array.

    Quantiles of the positive merge heights, deduplicated and restricted
    to conservative cuts: ``t <= max_threshold`` and at least
    ``min_cluster_fraction * n_leaves`` clusters remaining.  Returns
    ``(candidates, used_fallback, raw_quantiles)`` — when the filter
    comes up empty, ``candidates`` is the single fallback cut
    ``min(heights[0], max_threshold)`` and ``used_fallback`` is True.
    ``raw_quantiles`` is the unfiltered quantile vector, which the
    sparse path compares across placeholder substitutions to certify
    the dense path would have produced the same list.
    """
    positive = heights[heights > 1e-12]
    base = positive if positive.size else heights
    quantiles = np.linspace(0.02, 1.0, max_candidates)
    raw = np.array([float(np.quantile(base, q)) for q in quantiles])
    candidates = sorted(set(raw.tolist()))
    min_clusters = min_cluster_fraction * n_leaves
    # clusters after cutting at t: n - (#merges with height <= t)
    filtered = [
        t
        for t in candidates
        if t <= max_threshold
        and n_leaves - np.searchsorted(heights, t, side="right")
        >= min_clusters
    ]
    if filtered:
        return filtered, False, raw
    return [min(float(heights[0]), max_threshold)], True, raw


def _unmerged_cut(
    linkage: Linkage, candidates: Optional[Sequence[float]]
) -> CutSelection:
    """The cut of a linkage without merges: nothing to score (0.0), at
    the first given candidate (else 0.0), with every candidate counted."""
    candidate_list = [float(t) for t in candidates or ()]
    threshold = candidate_list[0] if candidate_list else 0.0
    return CutSelection(
        threshold, linkage.cut(threshold), 0.0, len(candidate_list)
    )


def evaluate_cuts(
    linkage: Linkage,
    distances: np.ndarray,
    candidates: Optional[Sequence[float]] = None,
    max_candidates: int = 24,
    min_cluster_fraction: float = 0.33,
    max_threshold: float = 0.25,
) -> CutSelection:
    """Pick the dendrogram cut with the highest average silhouette.

    Candidate thresholds default to quantiles of the merge heights,
    restricted to *conservative* cuts in two ways: keep at least
    ``min_cluster_fraction * n`` clusters, and never cut above
    ``max_threshold`` (with the paper's combined text+URL distance, 0.25
    still means near-identical messages). The paper tunes its clustering
    to yield tight clusters (8,780 clusters over 12,262 WPNs) precisely
    because the global silhouette optimum sits at coarse cuts that mix ads
    from unrelated campaigns. The returned :class:`CutSelection` also
    records how many candidate cuts were silhouette-scored.
    """
    heights = linkage.heights()
    if heights.size == 0:
        return _unmerged_cut(linkage, candidates)
    if candidates is None:
        candidates, _, _ = _candidate_thresholds(
            heights,
            linkage.n_leaves,
            max_candidates,
            min_cluster_fraction,
            max_threshold,
        )

    # One ascending sweep scores every distinct threshold, tile by tile.
    n = linkage.n_leaves
    if distances.shape != (n, n):
        raise ValueError(
            f"distance matrix shape {distances.shape} does not match "
            f"{n} leaves"
        )
    candidate_list = [float(t) for t in candidates]
    schedule = silhouette_schedule(linkage, sorted(set(candidate_list)))
    parts = (
        silhouette_rows(schedule, distances[tile.start:tile.stop], tile)
        for tile in row_tiles(n, DEFAULT_TILE_SIZE)
    )
    return _select_scored(linkage, candidate_list, schedule, parts)


def evaluate_cuts_sparse(
    linkage: Linkage,
    operands: PairwiseOperands,
    *,
    plan: Optional[ExecutionPlan] = None,
    candidates: Optional[Sequence[float]] = None,
    max_candidates: int = 24,
    min_cluster_fraction: float = 0.33,
    max_threshold: float = 0.25,
) -> CutSelection:
    """:func:`evaluate_cuts` over a certified sparse linkage, streaming.

    Never materializes the dense distance matrix: each row tile is
    recomputed once from the pairwise ``operands`` by
    :func:`repro.perf.cut_silhouette_tile` and swept with the schedule
    and kernel :func:`evaluate_cuts` runs on the square's row slices, so
    every score is bitwise :func:`evaluate_cuts`'s.

    Exactness is certified before any scoring:

    * Default candidate generation depends on the merge-height quantiles,
      and the sparse linkage only knows its certified prefix — dense
      heights past ``exact_merges`` are somewhere in ``[height_floor,
      1.0]``.  The candidate list is therefore generated twice, once
      with the placeholder tail pinned at 1.0 and once pinned at the
      floor.  Each quantile is monotone in every order statistic, so a
      quantile the two runs agree on bit for bit is the dense value
      (the dense heights are sandwiched coordinate-wise between the two
      variants); a quantile they disagree on is only tolerated when its
      floor-pinned value — a lower bound on the dense quantile — already
      clears ``max_threshold``, i.e. the candidate filter discards it
      for *any* dense tail.  The min-cluster filter is itself monotone
      in the tail (the 1.0-pinned run can only over-retain, the
      floor-pinned run only under-retain), so matching filtered lists
      and fallback flags pin the dense list exactly.
    * Every retained threshold must undercut ``height_floor`` by
      :data:`EXACTNESS_MARGIN`: below the floor the merge prefix is
      bitwise the dense path's, so the labels are too.

    Any failed certificate raises
    :class:`~repro.perf.BlockingExactnessError` rather than silently
    approximating; callers then rerun with a larger ``blocking_bound``
    or dense storage.
    """
    heights = linkage.heights()
    if heights.size == 0:
        return _unmerged_cut(linkage, candidates)
    n = linkage.n_leaves
    floor = linkage.height_floor
    n_exact = linkage.exact_merges
    certify_tail = n_exact < len(linkage.merges)

    if candidates is None:
        if certify_tail:
            if not floor > 1e-12:
                raise BlockingExactnessError(
                    f"certification floor {floor} is not positive: the "
                    "candidate quantile base cannot be certified; raise "
                    "the blocking bound or use dense storage"
                )
            upper_list, fb_u, raw_u = _candidate_thresholds(
                heights, n, max_candidates, min_cluster_fraction,
                max_threshold,
            )
            lower = heights.copy()
            lower[n_exact:] = floor
            lower_list, fb_l, raw_l = _candidate_thresholds(
                lower, n, max_candidates, min_cluster_fraction,
                max_threshold,
            )
            disagree = raw_u != raw_l
            if bool(
                np.any(raw_l[disagree] <= max_threshold + EXACTNESS_MARGIN)
            ) or upper_list != lower_list or fb_u != fb_l:
                raise BlockingExactnessError(
                    "candidate thresholds depend on uncertified merge "
                    f"heights (floor {floor:.6f}, {n_exact} certified of "
                    f"{len(linkage.merges)}); raise the blocking bound "
                    "or use dense storage"
                )
            if fb_u and n_exact == 0:
                raise BlockingExactnessError(
                    "the fallback cut depends on the first merge height, "
                    "which is not certified; raise the blocking bound "
                    "or use dense storage"
                )
            candidates = upper_list
        else:
            candidates, _, _ = _candidate_thresholds(
                heights, n, max_candidates, min_cluster_fraction,
                max_threshold,
            )

    candidate_list = [float(t) for t in candidates]
    if certify_tail:
        uncertified = [
            t for t in candidate_list if not t < floor - EXACTNESS_MARGIN
        ]
        if uncertified:
            raise BlockingExactnessError(
                f"cut threshold(s) {uncertified} do not provably "
                f"undercut the certification floor {floor:.6f}; raise "
                "the blocking bound or use dense storage"
            )

    schedule = silhouette_schedule(linkage, sorted(set(candidate_list)))
    cut_operands = CutScoringOperands(pairwise=operands, schedule=schedule)
    the_plan = plan if plan is not None else ExecutionPlan()
    parts = the_plan.stream(cut_silhouette_tile, cut_operands, the_plan.tiles(n))
    return _select_scored(linkage, candidate_list, schedule, parts)


def cluster_records(
    distances: np.ndarray,
    *,
    threshold: Optional[float] = None,
) -> Tuple[np.ndarray, Linkage, float, float]:
    """One-call clustering: dendrogram + (selected or given) cut.

    Returns ``(labels, linkage, threshold, silhouette_score)``.
    """
    linkage = AgglomerativeClusterer().fit(distances)
    candidates = None if threshold is None else [threshold]
    selection = evaluate_cuts(linkage, distances, candidates=candidates)
    return selection.labels, linkage, selection.threshold, selection.score
