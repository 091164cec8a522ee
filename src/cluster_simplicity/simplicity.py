"""The simplicity index: partition scoring by structural simplicity.

A partition is simple when it has few clusters, tight clusters, and small
clusters. The index multiplies the three ingredients into

    SI = k * (prod_n  size_n ** (radius_n / dataset_radius)) ** (1/k)

where ``k`` is the number of clusters, ``size_n`` the member count of cluster
``n`` and ``radius_n`` its radius. Lower is better; the best possible value is
1 (a single cluster of coincident points) and both extreme partitions of N
distinct points (all singletons, or one all-inclusive cluster) score N, the
reference for the most complex state. When the dataset radius is zero every
exponent is taken as zero, which removes the only division hazard.

Two radius notions are supported: the centroid form uses the mean distance of
members to their cluster centroid (:func:`si_centroid`), the distance-matrix
form uses the mean pairwise distance among members (:func:`si_distance`).
:func:`si_curve` evaluates the index at every level of a dendrogram and
:func:`si_hierarchical` condenses that curve into one score for the whole
tree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    UNDEFINED,
    ClusterStats,
    Dataset,
    Dendrogram,
    DistanceMatrix,
    IndexValue,
    Partition,
    points_index,
    radius_centroid,
)


def _si_from_exponents(sizes: np.ndarray, exponents: np.ndarray) -> float:
    # product computed in log space: k * exp(mean(exponent * ln size))
    k = len(sizes)
    log_sum = float(np.dot(exponents, np.log(sizes)))
    return k * math.exp(log_sum / k)


def _si_centroid(stats: ClusterStats) -> float:
    """Simplicity index of a partition, centroid-radius form.

    Each cluster's size enters with exponent ``cluster_radius /
    dataset_radius``, where a radius is the mean member-to-centroid distance.
    Always returns a finite value >= 1.
    """
    dataset_radius = radius_centroid(stats.points)
    exponents = stats.radii / dataset_radius if dataset_radius != 0.0 else np.zeros(stats.k)
    return _si_from_exponents(stats.sizes, exponents)


si_centroid = points_index("si_centroid", _si_centroid)


def _si_distance(stats: ClusterStats) -> float:
    n, sizes = stats.n, stats.sizes
    sums = stats.blocks(np.add)  # every pair counted twice, as are the pair counts below
    whole_mean = float(sums.sum()) / (n * (n - 1)) if n > 1 else 0.0
    cluster_means = sums.diagonal() / np.maximum(sizes * (sizes - 1), 1)  # 0 for a singleton
    exponents = cluster_means / whole_mean if whole_mean != 0.0 else np.zeros(stats.k)
    return _si_from_exponents(sizes, exponents)


def si_distance(distances: DistanceMatrix, partition: Partition) -> float:
    """Simplicity index from a pairwise distance matrix.

    Same form as :func:`si_centroid` but the radius of a group is its mean
    pairwise distance (0 for a singleton), and the reference radius is the
    mean over all pairs in the matrix.
    """
    return _si_distance(ClusterStats(partition, distances=distances.entries))


@dataclass(frozen=True)
class SiCurve:
    """Simplicity index sampled along a dendrogram's merge distances.

    One ``(distance, si_value)`` sample per level, in level order, with
    nondecreasing distances. For a dataset of N distinct points the first and
    last samples both equal N.
    """

    samples: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        samples = tuple((float(d), float(v)) for d, v in self.samples)
        if not samples:
            raise ValueError("curve has no samples")
        for i, (d, v) in enumerate(samples):
            if not (math.isfinite(d) and math.isfinite(v)) or d < 0:
                raise ValueError(f"sample {i + 1} must be finite with nonnegative distance, got {(d, v)}")
            if i and d < samples[i - 1][0]:
                raise ValueError(
                    f"curve distances must be nondecreasing: sample {i + 1} has "
                    f"{d} after {samples[i - 1][0]}"
                )
        object.__setattr__(self, "samples", samples)

    def __len__(self) -> int:
        return len(self.samples)

    @property
    def distances(self) -> tuple[float, ...]:
        return tuple(d for d, _ in self.samples)

    @property
    def values(self) -> tuple[float, ...]:
        return tuple(v for _, v in self.samples)

    def minimum(self) -> tuple[int, float]:
        """1-based level of the smallest sample (first on ties) and its value."""
        values = self.values
        level = min(range(len(values)), key=values.__getitem__)
        return level + 1, values[level]


def si_curve(dataset: Dataset, dendrogram: Dendrogram) -> SiCurve:
    """Centroid-form simplicity index at every level of a dendrogram.

    Walks the merges once with the points in the dendrogram's leaf order,
    where every cluster is one contiguous slice. A merge changes only two
    clusters, so each step computes the merged cluster's radius alone and
    updates the running sum of exponent * ln(size); the sum is compensated,
    so it carries no more rounding than a fresh one. No Partition is built.
    """
    n = dendrogram.n_points
    if n != dataset.n_points:
        raise ValueError(f"dendrogram covers {n} points, dataset has {dataset.n_points}")
    order, start, size = _leaf_layout(dendrogram)
    points = dataset.points[order]
    dataset_radius = radius_centroid(dataset.points)
    term = [0.0] * (2 * n - 1)  # exponent * ln(size) per cluster id
    total = compensation = 0.0
    samples = [(0.0, float(n))]
    merges = dendrogram.merges.tolist()
    for row, distance in enumerate(dendrogram.distances.tolist()):
        node = n + row
        if dataset_radius != 0.0:
            left, right = merges[row]
            members = points[start[node] : start[node] + size[node]]
            term[node] = radius_centroid(members) / dataset_radius * math.log(size[node])
            for x in (term[node], -term[left], -term[right]):
                # Neumaier summation
                t = total + x
                if abs(total) >= abs(x):
                    compensation += (total - t) + x
                else:
                    compensation += (x - t) + total
                total = t
        k = n - row - 1
        samples.append((distance, k * math.exp((total + compensation) / k)))
    return SiCurve(tuple(samples))


def _leaf_layout(dendrogram: Dendrogram) -> tuple[np.ndarray, list[int], list[int]]:
    """Leaf order of the points, and each cluster id's start and size in it."""
    n = dendrogram.n_points
    merges = dendrogram.merges.tolist()
    size = [1] * (2 * n - 1)
    for row, (left, right) in enumerate(merges):
        size[n + row] = size[left] + size[right]
    start = [0] * (2 * n - 1)
    for row in range(n - 2, -1, -1):
        left, right = merges[row]
        start[left] = start[n + row]
        start[right] = start[left] + size[left]
    order = np.empty(n, dtype=np.intp)
    order[start[:n]] = np.arange(n)
    return order, start, size


def si_hierarchical(curve: SiCurve) -> IndexValue:
    """Score a whole hierarchy from its simplicity curve.

    Trapezoid integral of the curve over its distance span, normalized by
    ``(N - 1) * (last_distance - first_distance)``. UNDEFINED when the span is
    zero (every merge at the same distance, e.g. all points coincident).
    """
    if len(curve) < 2:
        raise ValueError("hierarchy scoring needs at least 2 curve samples")
    d = curve.distances
    v = curve.values
    span = d[-1] - d[0]
    if span == 0.0:
        return UNDEFINED
    area = 0.0
    for i in range(1, len(curve)):
        area += (v[i] + v[i - 1]) * (d[i] - d[i - 1]) / 2.0
    return area / ((len(curve) - 1) * span)
