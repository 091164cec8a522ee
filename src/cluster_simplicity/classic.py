"""Reference implementations of six classic cluster validity indices.

Calinski-Harabasz, Silhouette, Score Function, Dunn, Davies-Bouldin and
C-index, in their canonical forms, over Euclidean distance and arithmetic-mean
centroids. Every zero-denominator path returns :data:`UNDEFINED` instead of
raising or producing NaN/infinity.

All indices, including the simplicity forms, are reachable through the string
registry used by the CLI and the property harness: :func:`evaluate_many`
scores a partition by several index ids in one pass, :func:`evaluate` by one,
and :func:`descriptor` reports an index's direction, formula-defined best
value (when one exists) and reference baseline (when one exists).
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from typing import Literal

import numpy as np

from .core import (
    UNDEFINED,
    ClusterStats,
    Dataset,
    IndexValue,
    Partition,
    _distances_to,
    is_defined,
    points_index,
)
from .simplicity import _si_centroid, _si_distance


class UnknownIndexError(ValueError):
    """Raised for an index id that is not in the registry."""


def _ch(stats: ClusterStats) -> IndexValue:
    """Variance-ratio criterion: between-cluster over within-cluster dispersion.

    UNDEFINED for k = 1, k = N, or zero within-cluster dispersion (the
    degrees-of-freedom or dispersion denominator vanishes).
    """
    n, k = stats.n, stats.k
    if k == 1 or k == n:
        return UNDEFINED
    overall = stats.points.mean(axis=0)
    between = float(np.dot(stats.sizes, ((stats.centroids - overall) ** 2).sum(axis=1)))
    within = float((stats.offsets**2).sum())
    if within == 0.0:
        return UNDEFINED
    return (between / (k - 1)) / (within / (n - k))


def _silhouette(stats: ClusterStats) -> IndexValue:
    """Mean silhouette width over all points.

    Per point: cohesion a = mean distance to the rest of its own cluster,
    separation b = least mean distance to another cluster; the width is
    (b - a) scaled by max(a, b), taken as 0 when a = b. Singletons score 0.
    UNDEFINED on a single-cluster partition (no other cluster exists).
    """
    if stats.k == 1:
        return UNDEFINED
    rows, own = np.arange(stats.n), stats.sorted_labels
    own_size = stats.sizes[own]
    a = stats.row_sums[rows, own] / np.maximum(own_size - 1, 1)
    mean_to = stats.row_sums / stats.sizes
    mean_to[rows, own] = np.inf
    b = mean_to.min(axis=1)
    scale = np.maximum(a, b)
    # singletons and a = b = 0 keep width 0
    width = np.divide(b - a, scale, out=np.zeros(stats.n), where=(own_size > 1) & (scale > 0))
    return float(width.sum()) / stats.n


def _sf(stats: ClusterStats) -> IndexValue:
    """Bounded score from the gap between inter- and intra-cluster spread.

    Combines size-weighted centroid-to-grand-centroid distances (between) with
    per-cluster mean member-to-centroid distances (within) through a double
    exponential, yielding a value in (0, 1). No zero-denominator path.
    """
    overall = stats.points.mean(axis=0)
    between = float(np.dot(stats.sizes, np.linalg.norm(stats.centroids - overall, axis=1))) / (stats.n * stats.k)
    gap = between - float(stats.radii.sum())
    if gap > 700.0:  # exp(exp(gap)) overflows; the score saturates at 1
        return 1.0
    return -math.expm1(-math.exp(gap))  # not 1 - exp(...), which rounds a tiny score to 0


def _dunn(stats: ClusterStats) -> IndexValue:
    """Smallest inter-cluster distance over largest cluster diameter.

    UNDEFINED for k = 1 (no cluster pair) and for zero maximum diameter
    (every cluster a singleton or coincident).
    """
    if stats.k == 1:
        return UNDEFINED
    max_diameter = float(stats.blocks(np.maximum).diagonal().max())
    if max_diameter == 0.0:
        return UNDEFINED
    min_separation = float(stats.blocks(np.minimum)[np.triu_indices(stats.k, k=1)].min())
    return min_separation / max_diameter


def _db(stats: ClusterStats) -> IndexValue:
    """Mean worst-case ratio of summed dispersions to centroid separation.

    Dispersion of a cluster is the mean member-to-centroid distance.
    UNDEFINED for k = 1 and whenever two cluster centroids coincide.
    """
    if stats.k == 1:
        return UNDEFINED
    # the pairwise_distances rows, unchecked: overflowed centroids give NaN for the finiteness guard
    gaps = np.array([_distances_to(stats.centroids, c) for c in stats.centroids])
    np.fill_diagonal(gaps, np.inf)  # a cluster is not compared with itself
    if not gaps.all():
        return UNDEFINED
    worst = ((stats.radii[:, None] + stats.radii[None, :]) / gaps).max(axis=1)
    return float(worst.sum()) / stats.k


def _cindex(stats: ClusterStats) -> IndexValue:
    """Within-cluster distance sum scaled between its attainable extremes.

    With w within-cluster pairs: (S - S_min) / (S_max - S_min), where S sums
    the within-pair distances and S_min / S_max sum the w smallest / largest
    pairwise distances in the whole dataset. UNDEFINED when S_max = S_min
    (covers k = 1, k = N, and all-equal pairwise distances).
    """
    n_within = int((stats.sizes * (stats.sizes - 1)).sum()) // 2
    n_pairs = stats.n * (stats.n - 1) // 2
    if not 0 < n_within < n_pairs:  # k = N, k = 1 or N = 1: S_max = S_min
        return UNDEFINED
    all_distances = stats.distances[np.triu(np.ones((stats.n, stats.n), dtype=bool), k=1)]
    all_distances.partition((n_within - 1, n_pairs - n_within))  # the w smallest and w largest to the ends
    within_sum = float(stats.blocks(np.add).trace()) / 2  # each pair twice
    smallest_sum = float(all_distances[:n_within].sum())
    largest_sum = float(all_distances[-n_within:].sum())
    if largest_sum == smallest_sum:
        return UNDEFINED
    return (within_sum - smallest_sum) / (largest_sum - smallest_sum)


calinski_harabasz = points_index("calinski_harabasz", _ch)
silhouette = points_index("silhouette", _silhouette)
score_function = points_index("score_function", _sf)
dunn = points_index("dunn", _dunn)
davies_bouldin = points_index("davies_bouldin", _db)
c_index = points_index("c_index", _cindex)


@dataclass(frozen=True)
class IndexDescriptor:
    """Stable metadata about an index.

    ``best_value`` is the optimum defined by the formula itself, absent for
    indices whose improvement direction is unbounded (infinity is the largest
    value, not the best one). ``baseline`` gives, as a function of N, the
    reference value attained at both extreme partitions, absent for indices
    without such a reference.
    """

    id: str
    direction: Literal["higher-better", "lower-better"]
    best_value: float | None = None
    baseline: Callable[[int], float] | None = None


# id -> (metadata, scorer); the scorer is None for the dendrogram scorer
_INDICES: dict[str, tuple[IndexDescriptor, Callable[[ClusterStats], IndexValue] | None]] = {
    meta.id: (meta, scorer)
    for meta, scorer in (
        (IndexDescriptor("si_centroid", "lower-better", best_value=1.0, baseline=float), _si_centroid),
        (IndexDescriptor("si_distance", "lower-better", best_value=1.0, baseline=float), _si_distance),
        (IndexDescriptor("ch", "higher-better"), _ch),
        (IndexDescriptor("silhouette", "higher-better", best_value=1.0), _silhouette),
        (IndexDescriptor("sf", "higher-better"), _sf),
        (IndexDescriptor("dunn", "higher-better"), _dunn),
        (IndexDescriptor("db", "lower-better"), _db),
        (IndexDescriptor("cindex", "lower-better", best_value=0.0), _cindex),
        (IndexDescriptor("si_hierarchical", "lower-better"), None),
    )
}

#: Every registered index id, partition scorers first.
INDEX_IDS: tuple[str, ...] = tuple(_INDICES)

#: Ids that score a (dataset, partition) pair; excludes the hierarchy scorer.
PARTITION_INDEX_IDS: tuple[str, ...] = INDEX_IDS[:-1]


def descriptor(index_id: str) -> IndexDescriptor:
    """Metadata for a registered index id."""
    try:
        return _INDICES[index_id][0]
    except KeyError:
        raise UnknownIndexError(f"unknown index {index_id!r} (known: {', '.join(INDEX_IDS)})") from None


def _check_partition_ids(index_ids: Sequence[str]) -> None:
    """UnknownIndexError for the first id that does not score a partition."""
    for index_id in index_ids:
        if index_id == "si_hierarchical":
            raise UnknownIndexError(
                "si_hierarchical scores a dendrogram, not a partition; score one with si_curve "
                "and si_hierarchical, or with the CLI's 'hierarchical' command"
            )
        if index_id not in PARTITION_INDEX_IDS:
            raise UnknownIndexError(f"unknown index {index_id!r} (known: {', '.join(PARTITION_INDEX_IDS)})")


def evaluate_many(index_ids: Sequence[str], dataset: Dataset, partition: Partition) -> list[IndexValue]:
    """Score a partition with each index in ``index_ids``, in request order.

    Every id is checked before any scoring (``si_hierarchical`` scores
    dendrograms: see :func:`cluster_simplicity.simplicity.si_hierarchical`).
    The indices share one set of cluster statistics, so the points' distance
    matrix is built at most once. A value that overflows to NaN or infinity
    raises ValueError naming its index.
    """
    _check_partition_ids(index_ids)
    stats = ClusterStats(partition, points=dataset.points)
    values = [_INDICES[index_id][1](stats) for index_id in index_ids]
    for index_id, value in zip(index_ids, values):
        if is_defined(value) and not math.isfinite(value):
            raise ValueError(f"index {index_id!r}: the arithmetic overflowed to {value}; the coordinates are too large")
    return values


def evaluate(index_id: str, dataset: Dataset, partition: Partition) -> IndexValue:
    """Score a partition with one index: :func:`evaluate_many` for ``[index_id]``."""
    return evaluate_many([index_id], dataset, partition)[0]
