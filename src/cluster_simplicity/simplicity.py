"""The simplicity index: partition scoring by structural simplicity.

A partition is simple when it has few clusters, tight clusters, and small
clusters. The index multiplies the three ingredients into

    SI = k * (prod_n  size_n ** (radius_n / R)) ** (1/k)

where ``k`` is the number of clusters, ``size_n`` the member count of cluster
``n``, ``radius_n`` its radius and ``R`` the radius of the whole dataset. Lower is better; the best possible value is
1 (a single cluster of coincident points) and both extreme partitions of N
distinct points (all singletons, or one all-inclusive cluster) score exactly
N, the reference for the most complex state. When the dataset radius is zero every
exponent is taken as zero, which removes the only division hazard.

Two radius notions are supported: the centroid form uses the mean distance of
members to their cluster centroid (``si_centroid``), the distance-matrix form
uses the mean pairwise distance among members (``si_distance``). Their
:class:`ClusterStats` scorers are here; the public functions live beside the
index registry in :mod:`.classic` and score through it.
:func:`si_curve` evaluates the index at every level of a dendrogram and
:func:`si_hierarchical` condenses that curve into one score for the whole
tree.
"""

from __future__ import annotations

import math
from contextlib import suppress
from dataclasses import dataclass

import numpy as np

from .core import UNDEFINED, ClusterStats, Dataset, Dendrogram, IndexValue, _TEXT, _merge_radii, _real


def _exponents(radii: np.ndarray, reference: float) -> np.ndarray:
    """Each cluster's exponent: its radius over the dataset's, all zero when the dataset radius is zero."""
    return radii / reference if reference != 0.0 else np.zeros(len(radii))


def _si(k: int, log_sum: float) -> float:
    """The index of ``k`` clusters from their sum of exponent * ln(size): k * exp(log_sum / k), and
    infinite where it passes the largest float, for the caller to raise on."""
    try:
        return k * math.exp(log_sum / k)
    except OverflowError:
        return math.inf


def _si_of(exponents: np.ndarray, sizes: np.ndarray) -> float:
    """The index of clusters of ``sizes`` that enter with ``exponents``. One
    cluster's is ``size ** exponent``, whose exponent is 1, or 0 when the
    points coincide: exactly N or 1, where exp(ln N) may miss N. More
    clusters' is :func:`_si` of their sum of exponent * ln(size)."""
    if len(sizes) == 1:
        return float(sizes[0]) ** float(exponents[0])
    return _si(len(sizes), float(np.dot(exponents, np.log(sizes))))


def _si_centroid(stats: ClusterStats) -> float:
    """Simplicity index of a partition, centroid-radius form.

    Each cluster's size enters with exponent ``radius_n / R``, its radius
    over the dataset's, where a radius is the mean member-to-centroid distance.
    The radii are in the statistics' rescaled units, and their ratios are the
    raw ones. A finite value >= 1; where the index itself passes the largest
    float, the scoring step raises ValueError naming the index.
    """
    return _si_of(_exponents(stats.clusters[2], stats.whole[2][0]), stats.sizes)


def _si_distance(stats: ClusterStats) -> float:
    n, sizes = stats.n, stats.sizes
    _, sums, total = stats.reduced("within")
    whole_mean = total / (n * (n - 1) // 2) if n > 1 else 0.0
    cluster_means = sums / np.maximum(sizes * (sizes - 1) // 2, 1)  # 0 for a singleton
    return _si_of(_exponents(cluster_means, whole_mean), sizes)


@dataclass(frozen=True)
class SiCurve:
    """Simplicity index sampled along a dendrogram's merge distances.

    One ``(distance, si_value)`` sample per level, in level order, with
    nondecreasing distances, stored as float pairs. For a dataset of N
    distinct points the first sample and the last are exactly N.
    """

    samples: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        table = _sample_table(self.samples)
        if not len(table):
            raise ValueError("curve has no samples")
        samples = tuple(map(tuple, table.tolist()))
        distances = table[:, 0]
        invalid = ~np.isfinite(table).all(axis=1) | (distances < 0)
        decreasing = np.concatenate(([False], distances[1:] < distances[:-1]))
        bad = np.flatnonzero(invalid | decreasing)
        if bad.size:  # the first failing sample, and at it the finite/nonnegative check first
            i = int(bad[0])
            if invalid[i]:
                raise ValueError(f"sample {i + 1} must be finite with nonnegative distance, got {samples[i]}")
            raise ValueError(
                f"curve distances must be nondecreasing: sample {i + 1} has "
                f"{samples[i][0]} after {samples[i - 1][0]}"
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


def _sample_table(samples: object) -> np.ndarray:
    """The samples as an n x 2 float table, cast at once by :func:`~.core._real` when they form one,
    and walked one by one only when they do not, to name the first bad sample or to read samples
    that numpy cannot, such as iterators."""
    with suppress(ValueError):
        table = _real(samples, "curve samples")
        if table.ndim == 2 and table.shape[1] == 2:
            return table
    try:
        samples = tuple(samples)
    except TypeError:
        raise ValueError(f"curve samples must be a sequence of (distance, value) pairs, got {samples!r}") from None
    walked = []
    for i, sample in enumerate(samples, start=1):
        try:
            d, v = sample
            if any(isinstance(x, _TEXT) for x in (sample, d, v)):
                raise TypeError
            walked.append((float(d), float(v)))
        except (TypeError, ValueError, OverflowError):
            raise ValueError(f"sample {i} must be a (distance, value) pair of real numbers, got {sample!r}") from None
    return np.array(walked).reshape(-1, 2)


def si_curve(dataset: Dataset, dendrogram: Dendrogram) -> SiCurve:
    """Centroid-form simplicity index at every level of a dendrogram.

    A merge changes only two clusters, so each level's sum of exponent *
    ln(size) is the last level's plus the merged cluster's term less its two
    parts'. The merged clusters' sizes and radii, and the dataset radius,
    which is the top merge's, come from one :func:`~.core._merge_radii` pass
    and the running sum from :func:`_running_sums`, which is compensated, so
    it carries no more rounding than a fresh sum. The top level is
    :func:`_si_of` its one cluster, exactly N for distinct points. No
    Partition is built. ValueError when a level's index passes the largest
    float.
    """
    n = dendrogram.n_points
    if n != dataset.n_points:
        raise ValueError(f"dendrogram covers {n} points, dataset has {dataset.n_points}")
    sizes, radii, reference = _merge_radii(dataset.points, dendrogram)
    exponents = _exponents(radii, reference)
    merged = exponents * np.log(sizes)
    # each level adds its merged cluster's term and takes away its parts'; a point's term is 0
    term = np.concatenate((np.zeros(n), merged))
    sums = _running_sums(np.column_stack((merged, -term[dendrogram.merges])).ravel())[2::3]
    values = [float(n), *map(_si, range(n - 1, 0, -1), sums.tolist())]
    if n > 1:  # the top level: one cluster of all the points, whose exponent is 1 (0 if they coincide)
        values[-1] = _si_of(exponents[-1:], sizes[-1:])
    if not all(map(math.isfinite, values)):
        raise ValueError("si_curve: the arithmetic overflowed to inf; a level's index passes the largest float")
    return SiCurve(np.column_stack((np.concatenate(([0.0], dendrogram.distances)), values)))


def _running_sums(steps: np.ndarray) -> np.ndarray:
    """Neumaier-compensated running sums of ``steps``, in array passes.

    ``accumulate`` adds in sequence, so the running totals, each addition's
    rounding error and the errors' running sum are those of the loop that
    adds one step at a time, bit for bit.
    """
    totals = np.cumsum(steps)
    before = np.concatenate(([0.0], totals))[:-1]
    errors = np.where(np.abs(before) >= np.abs(steps), (before - totals) + steps, (steps - totals) + before)
    return totals + np.cumsum(errors)


def si_hierarchical(curve: SiCurve) -> IndexValue:
    """Score a whole hierarchy from its simplicity curve.

    Trapezoid integral of the curve over its distance span, normalized by
    ``(N - 1) * (last_distance - first_distance)``. UNDEFINED when the span is
    zero (every merge at the same distance, e.g. all points coincident).
    Each gap is divided by the span before it is weighted, so no product
    overflows or loses bits to subnormals, and rescaling the distances by a
    power of two leaves the score's bits unchanged.
    """
    if len(curve) < 2:
        raise ValueError("hierarchy scoring needs at least 2 curve samples")
    d = np.array(curve.distances)
    v = np.array(curve.values)
    span = d[-1] - d[0]
    if span == 0.0:
        return UNDEFINED
    area = float(((v[1:] / 2.0 + v[:-1] / 2.0) * (np.diff(d) / span)).sum())
    return area / (len(curve) - 1)
