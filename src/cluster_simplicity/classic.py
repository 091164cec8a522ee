"""Reference implementations of six classic cluster validity indices.

Calinski-Harabasz, Silhouette, Score Function, Dunn, Davies-Bouldin and
C-index, in their canonical forms, over Euclidean distance and arithmetic-mean
centroids. Every zero-denominator path returns :data:`UNDEFINED` instead of
raising or producing NaN/infinity.

All indices, including the simplicity forms, are reachable through the string
registry used by the CLI and the property harness: :func:`evaluate` scores a
partition by index id and :func:`descriptor` reports an index's direction,
formula-defined best value (when one exists) and reference baseline (when one
exists).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Literal

import numpy as np

from .core import (
    UNDEFINED,
    ClusterStats,
    Dataset,
    DistanceMatrix,
    IndexValue,
    Partition,
    pairwise_distances,
)
from .simplicity import si_centroid, si_distance


class UnknownIndexError(ValueError):
    """Raised for an index id that is not in the registry."""


def calinski_harabasz(dataset: Dataset, partition: Partition) -> IndexValue:
    """Variance-ratio criterion: between-cluster over within-cluster dispersion.

    UNDEFINED for k = 1, k = N, or zero within-cluster dispersion (the
    degrees-of-freedom or dispersion denominator vanishes).
    """
    stats = ClusterStats(partition, points=dataset.points)
    n, k = stats.n, stats.k
    if k == 1 or k == n:
        return UNDEFINED
    overall = dataset.points.mean(axis=0)
    between = float(np.dot(stats.sizes, ((stats.centroids - overall) ** 2).sum(axis=1)))
    within = float((stats.offsets**2).sum())
    if within == 0.0:
        return UNDEFINED
    return (between / (k - 1)) / (within / (n - k))


def silhouette(dataset: Dataset, partition: Partition) -> IndexValue:
    """Mean silhouette width over all points.

    Per point: cohesion a = mean distance to the rest of its own cluster,
    separation b = least mean distance to another cluster; the width is
    (b - a) scaled by max(a, b), taken as 0 when a = b. Singletons score 0.
    UNDEFINED on a single-cluster partition (no other cluster exists).
    """
    stats = ClusterStats(partition, points=dataset.points)
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


def score_function(dataset: Dataset, partition: Partition) -> IndexValue:
    """Bounded score from the gap between inter- and intra-cluster spread.

    Combines size-weighted centroid-to-grand-centroid distances (between) with
    per-cluster mean member-to-centroid distances (within) through a double
    exponential, yielding a value in (0, 1). No zero-denominator path.
    """
    stats = ClusterStats(partition, points=dataset.points)
    overall = dataset.points.mean(axis=0)
    between = float(np.dot(stats.sizes, np.linalg.norm(stats.centroids - overall, axis=1))) / (stats.n * stats.k)
    gap = between - float(stats.radii.sum())
    if gap > 700.0:  # exp(exp(gap)) overflows; the score saturates at 1
        return 1.0
    return -math.expm1(-math.exp(gap))  # not 1 - exp(...), which rounds a tiny score to 0


def dunn(dataset: Dataset, partition: Partition) -> IndexValue:
    """Smallest inter-cluster distance over largest cluster diameter.

    UNDEFINED for k = 1 (no cluster pair) and for zero maximum diameter
    (every cluster a singleton or coincident).
    """
    stats = ClusterStats(partition, points=dataset.points)
    if stats.k == 1:
        return UNDEFINED
    max_diameter = float(stats.blocks(np.maximum).diagonal().max())
    if max_diameter == 0.0:
        return UNDEFINED
    min_separation = float(stats.blocks(np.minimum)[np.triu_indices(stats.k, k=1)].min())
    return min_separation / max_diameter


def davies_bouldin(dataset: Dataset, partition: Partition) -> IndexValue:
    """Mean worst-case ratio of summed dispersions to centroid separation.

    Dispersion of a cluster is the mean member-to-centroid distance.
    UNDEFINED for k = 1 and whenever two cluster centroids coincide.
    """
    stats = ClusterStats(partition, points=dataset.points)
    if stats.k == 1:
        return UNDEFINED
    gaps = pairwise_distances(stats.centroids)
    np.fill_diagonal(gaps, np.inf)  # a cluster is not compared with itself
    if not gaps.all():
        return UNDEFINED
    worst = ((stats.radii[:, None] + stats.radii[None, :]) / gaps).max(axis=1)
    return float(worst.sum()) / stats.k


def c_index(dataset: Dataset, partition: Partition) -> IndexValue:
    """Within-cluster distance sum scaled between its attainable extremes.

    With w within-cluster pairs: (S - S_min) / (S_max - S_min), where S sums
    the within-pair distances and S_min / S_max sum the w smallest / largest
    pairwise distances in the whole dataset. UNDEFINED when S_max = S_min
    (covers k = 1, k = N, and all-equal pairwise distances).
    """
    stats = ClusterStats(partition, points=dataset.points)
    all_distances = np.sort(stats.distances[np.triu_indices(stats.n, k=1)])
    n_within = int((stats.sizes * (stats.sizes - 1)).sum()) // 2
    within_sum = float(stats.blocks(np.add).trace()) / 2  # each pair twice
    smallest_sum = float(all_distances[:n_within].sum())
    largest_sum = float(all_distances[len(all_distances) - n_within:].sum())
    if largest_sum == smallest_sum:
        return UNDEFINED
    return (within_sum - smallest_sum) / (largest_sum - smallest_sum)


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


def _baseline_n(n: int) -> float:
    return float(n)


_DESCRIPTORS: dict[str, IndexDescriptor] = {
    d.id: d
    for d in (
        IndexDescriptor("si_centroid", "lower-better", best_value=1.0, baseline=_baseline_n),
        IndexDescriptor("si_distance", "lower-better", best_value=1.0, baseline=_baseline_n),
        IndexDescriptor("si_hierarchical", "lower-better"),
        IndexDescriptor("ch", "higher-better"),
        IndexDescriptor("silhouette", "higher-better", best_value=1.0),
        IndexDescriptor("sf", "higher-better"),
        IndexDescriptor("dunn", "higher-better"),
        IndexDescriptor("db", "lower-better"),
        IndexDescriptor("cindex", "lower-better", best_value=0.0),
    )
}

_EVALUATORS: dict[str, Callable[[Dataset, Partition], IndexValue]] = {
    "si_centroid": si_centroid,
    "si_distance": lambda d, p: si_distance(DistanceMatrix.from_dataset(d), p),
    "ch": calinski_harabasz,
    "silhouette": silhouette,
    "sf": score_function,
    "dunn": dunn,
    "db": davies_bouldin,
    "cindex": c_index,
}

#: Every registered index id, partition scorers first.
INDEX_IDS: tuple[str, ...] = (
    "si_centroid",
    "si_distance",
    "ch",
    "silhouette",
    "sf",
    "dunn",
    "db",
    "cindex",
    "si_hierarchical",
)

#: Ids that score a (dataset, partition) pair; excludes the hierarchy scorer.
PARTITION_INDEX_IDS: tuple[str, ...] = INDEX_IDS[:-1]


def descriptor(index_id: str) -> IndexDescriptor:
    """Metadata for a registered index id."""
    try:
        return _DESCRIPTORS[index_id]
    except KeyError:
        known = ", ".join(INDEX_IDS)
        raise UnknownIndexError(f"unknown index {index_id!r} (known: {known})") from None


def evaluate(index_id: str, dataset: Dataset, partition: Partition) -> IndexValue:
    """Score a partition with the index named by ``index_id``.

    Returns a finite float or UNDEFINED, never NaN or infinity.
    ``si_hierarchical`` scores dendrograms, not partitions, so it is rejected
    here; use :func:`cluster_simplicity.simplicity.si_hierarchical`.
    """
    if index_id == "si_hierarchical":
        raise UnknownIndexError(
            "si_hierarchical scores a dendrogram, not a partition; "
            "build a curve with si_curve and score it with si_hierarchical"
        )
    try:
        evaluator = _EVALUATORS[index_id]
    except KeyError:
        known = ", ".join(PARTITION_INDEX_IDS)
        raise UnknownIndexError(f"unknown index {index_id!r} (known: {known})") from None
    return evaluator(dataset, partition)
