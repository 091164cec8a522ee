"""Reference implementations of six classic cluster validity indices.

Calinski-Harabasz, Silhouette, Score Function, Dunn, Davies-Bouldin and
C-index, in their canonical forms, over Euclidean distance and arithmetic-mean
centroids. Every zero-denominator path returns :data:`UNDEFINED` instead of
raising or producing NaN/infinity.

All indices, including the simplicity forms, are reachable through the string
registry used by the CLI and the property harness: :func:`evaluate_many`
scores a partition by several index ids in one pass, :func:`evaluate` by one,
and :func:`descriptor` reports an index's direction, formula-defined best
value (when one exists) and reference baseline (when one exists). The named
functions, ``si_centroid`` and ``si_distance`` included, live here and score
through the same guarded step.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass
from typing import Literal

import numpy as np

from .core import (
    UNDEFINED,
    ClusterStats,
    Dataset,
    DistanceMatrix,
    IndexValue,
    Partition,
    _distance_blocks,
    is_defined,
)
from .simplicity import _si_centroid, _si_distance


class UnknownIndexError(ValueError):
    """Raised for an index id that is not in the registry."""


def _ch(stats: ClusterStats) -> IndexValue:
    """Variance-ratio criterion: between-cluster over within-cluster dispersion.

    UNDEFINED for k = 1, k = N, or zero within-cluster dispersion (a
    denominator factor, k - 1, N - k or the dispersion, vanishes). Infinite
    where the dispersion is nonzero but its mean over N - k underflows to 0.
    """
    n, k = stats.n, stats.k
    if k == 1 or k == n:
        return UNDEFINED
    centroids, squared, _ = stats.clusters
    within = float(squared.sum())
    if within == 0.0:
        return UNDEFINED
    between = float(np.dot(stats.sizes, ((centroids - stats.whole[0]) ** 2).sum(axis=1)))
    spread = within / (n - k)
    if spread == 0.0:  # the true ratio passes the largest float
        return math.inf
    return (between / (k - 1)) / spread


def _silhouette(stats: ClusterStats) -> IndexValue:
    """Mean silhouette width over all points.

    Per point: cohesion a = mean distance to the rest of its own cluster,
    separation b = least mean distance to another cluster; the width is
    (b - a) scaled by max(a, b), taken as 0 when a = b. Singletons score 0.
    UNDEFINED on a single-cluster partition (no other cluster exists).
    """
    if stats.k == 1:
        return UNDEFINED
    own = stats.reduced("within")[0]
    own_size = stats.sizes[stats.sorted_labels]
    a = own / np.maximum(own_size - 1, 1)
    b = stats.reduced("rows").min(axis=1)
    scale = np.maximum(a, b)
    # singletons and a = b = 0 keep width 0
    width = np.divide(b - a, scale, out=np.zeros(stats.n), where=(own_size > 1) & (scale > 0))
    return float(width.sum()) / stats.n


def _sf(stats: ClusterStats) -> IndexValue:
    """Bounded score from the gap between inter- and intra-cluster spread.

    Combines size-weighted centroid-to-grand-centroid distances (between) with
    per-cluster mean member-to-centroid distances (within) through a double
    exponential, yielding a value in [0, 1]: exactly 0 once ``exp(gap)``
    underflows, at a gap below about -745. The gap is in raw units, not
    scale-free: taken in the rescaled units of the statistics, it is scaled
    back by 2^``exponent`` (infinite past the largest float). No
    zero-denominator path.
    """
    centroids, _, radii = stats.clusters
    between = float(np.dot(stats.sizes, np.linalg.norm(centroids - stats.whole[0], axis=1))) / (stats.n * stats.k)
    gap = np.ldexp(between - float(radii.sum()), stats.exponent)
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
    max_diameter, min_separation = stats.reduced("extremes")
    if max_diameter == 0.0:
        return UNDEFINED
    return min_separation / max_diameter


def _db(stats: ClusterStats) -> IndexValue:
    """Mean worst-case ratio of summed dispersions to centroid separation.

    Dispersion of a cluster is the mean member-to-centroid distance.
    UNDEFINED for k = 1 and whenever two cluster centroids coincide.
    Gaps of the upper triangle only, in the blocks of :func:`_distance_blocks`
    over the centroids: a ratio is exactly symmetric.
    """
    (centroids, _, radii), k = stats.clusters, stats.k
    if k == 1:
        return UNDEFINED
    worst = np.zeros(k)  # each cluster's largest ratio; every ratio is >= 0
    for start, stop, gaps in _distance_blocks(centroids):
        sums = radii[start:stop, None] + radii[start:]
        np.fill_diagonal(gaps, np.inf)  # a cluster is not compared with itself
        if not gaps.all():
            return UNDEFINED
        ratios = sums / gaps
        worst[start:stop] = np.maximum(worst[start:stop], ratios.max(axis=1))
        worst[stop:] = np.maximum(worst[stop:], ratios[:, stop - start :].max(axis=0))
    return float(worst.sum()) / k


def _cindex(stats: ClusterStats) -> IndexValue:
    """Within-cluster distance sum scaled between its attainable extremes.

    With w within-cluster pairs: (S - S_min) / (S_max - S_min), where S sums
    the within-pair distances and S_min / S_max sum the w smallest / largest
    pairwise distances in the whole dataset. UNDEFINED when S_max = S_min
    (covers k = 1, k = N, and all-equal pairwise distances). S_min <= S <=
    S_max, so the value lies in [0, 1]; rounding past either end is clamped.
    Exactly 0 when no within distance exceeds a between distance: the w
    smallest pairs are then the within pairs, so S = S_min however both round.
    """
    if not 0 < stats.n_within < stats.n * (stats.n - 1) // 2:  # k = N, k = 1 or N = 1: S_max = S_min
        return UNDEFINED
    smallest_sum, largest_sum = stats.reduced("tails")
    if largest_sum == smallest_sum:
        return UNDEFINED
    max_within, min_between = stats.reduced("extremes")
    if max_within <= min_between:
        return 0.0
    within_sum = float(stats.reduced("within")[1].sum())
    return min(max((within_sum - smallest_sum) / (largest_sum - smallest_sum), 0.0), 1.0)


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


# id -> (metadata, scorer, the ClusterStats distance reductions the scorer reads);
# the scorer is None for the dendrogram scorer
_INDICES: dict[str, tuple[IndexDescriptor, Callable[[ClusterStats], IndexValue] | None, frozenset[str]]] = {
    meta.id: (meta, scorer, frozenset(reductions))
    for meta, scorer, reductions in (
        (IndexDescriptor("si_centroid", "lower-better", best_value=1.0, baseline=float), _si_centroid, ()),
        (IndexDescriptor("si_distance", "lower-better", best_value=1.0, baseline=float), _si_distance, ("within",)),
        (IndexDescriptor("ch", "higher-better"), _ch, ()),
        (IndexDescriptor("silhouette", "higher-better", best_value=1.0), _silhouette, ("rows", "within")),
        (IndexDescriptor("sf", "higher-better"), _sf, ()),
        (IndexDescriptor("dunn", "higher-better"), _dunn, ("extremes",)),
        (IndexDescriptor("db", "lower-better"), _db, ()),
        (IndexDescriptor("cindex", "lower-better", best_value=0.0), _cindex, ("within", "extremes", "tails")),
        (IndexDescriptor("si_hierarchical", "lower-better"), None, ()),
    )
}

#: Every registered index id, partition scorers first.
INDEX_IDS: tuple[str, ...] = tuple(_INDICES)

#: Ids that score a (dataset, partition) pair; excludes the hierarchy scorer.
PARTITION_INDEX_IDS: tuple[str, ...] = INDEX_IDS[:-1]


def _named(name: str, index_id: str) -> Callable[[Dataset, Partition], IndexValue]:
    """The public ``name(dataset, partition)`` function: :func:`evaluate` for ``index_id``."""
    def index(dataset: Dataset, partition: Partition) -> IndexValue:
        return evaluate_many([index_id], dataset, partition)[0]
    scorer = _INDICES[index_id][1]
    index.__name__ = index.__qualname__ = name
    index.__doc__ = scorer.__doc__
    index.__annotations__["return"] = scorer.__annotations__["return"]
    return index


si_centroid = _named("si_centroid", "si_centroid")
calinski_harabasz = _named("calinski_harabasz", "ch")
silhouette = _named("silhouette", "silhouette")
score_function = _named("score_function", "sf")
dunn = _named("dunn", "dunn")
davies_bouldin = _named("davies_bouldin", "db")
c_index = _named("c_index", "cindex")


def si_distance(distances: DistanceMatrix, partition: Partition) -> float:
    """Simplicity index from a pairwise distance matrix: :func:`si_centroid`'s
    form with a group's mean pairwise distance (0 for a singleton) as its
    radius, and the mean over all pairs in the matrix as the reference radius."""
    return _score(["si_distance"], partition, distances=distances.entries)[0]


def descriptor(index_id: str) -> IndexDescriptor:
    """Metadata for a registered index id."""
    try:
        return _INDICES[index_id][0]
    except KeyError:
        raise UnknownIndexError(f"unknown index {index_id!r} (known: {', '.join(INDEX_IDS)})") from None


def _check_partition_ids(index_ids: Iterable[str]) -> tuple[str, ...]:
    """The ids as a tuple, taken once, so that a one-shot iterator is scored too.
    UnknownIndexError for a bare string, or for the first id that does not score a partition."""
    if isinstance(index_ids, str):  # iterating it would check one-letter ids
        raise UnknownIndexError(f"index ids must be a list of ids, got the string {index_ids!r}; pass [{index_ids!r}]")
    index_ids = tuple(index_ids)
    for index_id in index_ids:
        if index_id == "si_hierarchical":
            raise UnknownIndexError(
                "si_hierarchical scores a dendrogram, not a partition; score one with si_curve "
                "and si_hierarchical, or with the CLI's 'hierarchical' command"
            )
        if index_id not in PARTITION_INDEX_IDS:
            raise UnknownIndexError(f"unknown index {index_id!r} (known: {', '.join(PARTITION_INDEX_IDS)})")
    return index_ids


def _score(index_ids: Sequence[str], partition: Partition, **source: np.ndarray) -> list[IndexValue]:
    """The scoring step of every public scorer: checked ``index_ids`` on one
    ClusterStats of ``source`` (``points=`` or ``distances=``) with only the
    reductions they read. The statistics are rescaled, so no quantity an
    index reads over- or underflows; only an index value itself can pass the
    largest float, as an SI or a ratio of two quantities can. Such a value,
    infinite, raises ValueError naming its index, and numpy's overflow
    warning is not shown."""
    reductions = frozenset().union(*(_INDICES[index_id][2] for index_id in index_ids))
    stats = ClusterStats(partition, reductions=reductions, **source)
    with np.errstate(over="ignore"):
        values = [_INDICES[index_id][1](stats) for index_id in index_ids]
    for index_id, value in zip(index_ids, values):
        if is_defined(value) and not math.isfinite(value):
            raise ValueError(f"index {index_id!r}: the arithmetic overflowed to {value}; the index passes the largest float")
    return values


def evaluate_many(index_ids: Iterable[str], dataset: Dataset, partition: Partition) -> list[IndexValue]:
    """Score a partition with each index in ``index_ids``, in request order.

    Every id is checked before any scoring (``si_hierarchical`` scores
    dendrograms: see :func:`cluster_simplicity.simplicity.si_hierarchical`).
    The indices share one set of cluster statistics, whose one streamed
    distance pass makes only the reductions the requested ids read, so the
    points' distance matrix is never built. A value that passes the largest
    float raises ValueError naming its index.
    """
    return _score(_check_partition_ids(index_ids), partition, points=dataset.points)


def evaluate(index_id: str, dataset: Dataset, partition: Partition) -> IndexValue:
    """Score a partition with one index: :func:`evaluate_many` for ``[index_id]``."""
    return evaluate_many([index_id], dataset, partition)[0]
