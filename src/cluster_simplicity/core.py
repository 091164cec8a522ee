"""Data model and geometric primitives shared by every index.

Holds the immutable container types (:class:`Dataset`, :class:`Partition`,
:class:`DistanceMatrix`, :class:`Dendrogram`), the distinguished
:data:`UNDEFINED` result, plain Euclidean geometry helpers, the per-cluster
statistics every partition index reads, the builtin synthetic benchmark
datasets, affine transforms, and a deterministic single-linkage dendrogram
builder.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np


class Undefined:
    """Distinguished non-value for an index whose defining denominator is zero.

    A singleton: every construction returns the same object, so results can be
    compared with ``is UNDEFINED``. Arithmetic involving an Undefined operand
    yields Undefined again, so an undefined result can never silently turn
    back into a number.
    """

    __slots__ = ()
    _singleton: "Undefined | None" = None

    def __new__(cls) -> "Undefined":
        if cls._singleton is None:
            cls._singleton = super().__new__(cls)
        return cls._singleton

    def __repr__(self) -> str:
        return "undefined"

    def __bool__(self) -> bool:
        return False

    def _absorb(self, _other: object = None) -> "Undefined":
        return self

    __add__ = __radd__ = _absorb
    __sub__ = __rsub__ = _absorb
    __mul__ = __rmul__ = _absorb
    __truediv__ = __rtruediv__ = _absorb
    __pow__ = __rpow__ = _absorb
    __neg__ = __pos__ = __abs__ = _absorb


UNDEFINED = Undefined()

# A scored index is either a finite float or the UNDEFINED sentinel.
IndexValue = float | Undefined


def is_defined(value: IndexValue) -> bool:
    """True when ``value`` is an actual number rather than UNDEFINED."""
    return not isinstance(value, Undefined)


def _real(values: object, what: str) -> np.ndarray:
    arr = np.asarray(values)
    if arr.dtype.kind != "c":  # a float cast would keep the real part with only a warning
        try:
            return np.asarray(arr, dtype=float)
        except TypeError:  # a complex number or another non-real object in an object array
            pass
    raise ValueError(f"{what} must be real numbers")


def _as_points(points: object) -> np.ndarray:
    pts = _real(points, "points")
    if pts.ndim != 2:
        raise ValueError(f"points must be a 2-D array of shape (n, dim), got shape {pts.shape}")
    if pts.shape[0] == 0:
        raise ValueError("point set is empty")
    if not np.all(np.isfinite(pts)):
        raise ValueError("points contain non-finite coordinates")
    return pts


def _readonly(arr: np.ndarray) -> np.ndarray:
    out = arr.copy()
    out.setflags(write=False)
    return out


@dataclass(frozen=True, eq=False)
class Dataset:
    """An ordered set of real-valued points of uniform dimension.

    ``points`` is coerced to a read-only float64 array of shape
    ``(n_points, dim)``; duplicate points are allowed.
    """

    points: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "points", _readonly(_as_points(self.points)))

    @property
    def n_points(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]


@dataclass(frozen=True, eq=False)
class Partition:
    """Assignment of every point index to exactly one cluster label.

    Labels must be the contiguous integers ``0 .. k-1`` with every label
    occurring at least once; a gap would denote an empty cluster.
    """

    labels: np.ndarray

    def __post_init__(self) -> None:
        labels = np.asarray(self.labels)
        if labels.ndim != 1 or labels.size == 0:
            raise ValueError("labels must be a non-empty 1-D sequence")
        if not np.issubdtype(labels.dtype, np.integer):
            labels = _integral_labels(labels)
        labels = labels.astype(int)
        if labels.min() < 0:
            raise ValueError(f"cluster labels must be nonnegative, got {labels.min()}")
        k = int(labels.max()) + 1
        # counted up to N only: a label past N leaves a gap below N, and a huge one would size the count
        counts = np.bincount(np.minimum(labels, labels.size))
        missing = np.flatnonzero(counts == 0)
        if missing.size:
            raise ValueError(f"cluster label {missing[0]} has no members (labels must cover 0..{k - 1})")
        object.__setattr__(self, "labels", _readonly(labels))

    @property
    def n_items(self) -> int:
        return self.labels.shape[0]

    @property
    def n_clusters(self) -> int:
        return int(self.labels.max()) + 1

    def cluster_sizes(self) -> np.ndarray:
        """Member count of each cluster, indexed by label."""
        return np.bincount(self.labels, minlength=self.n_clusters)

    def members(self, label: int) -> np.ndarray:
        """Point indices belonging to cluster ``label``."""
        return np.flatnonzero(self.labels == label)


def _integral_labels(labels: np.ndarray) -> np.ndarray:
    """Bool, float or object labels as int64; ValueError unless each is an integer value."""
    if labels.dtype.kind not in "bfO":  # complex, strings, dates
        raise ValueError("labels must be integers")
    try:
        with np.errstate(invalid="ignore"):  # nan, inf and floats past int64 cast to garbage, caught below
            as_int = labels.astype(np.int64)
    except (TypeError, ValueError, OverflowError):  # None, nan or an int past int64 among objects
        raise ValueError("labels must be integers") from None
    if not np.array_equal(as_int, labels):  # 1.5, Decimal("1.5") and the garbage casts
        raise ValueError("labels must be integers")
    return as_int


@dataclass(frozen=True, eq=False)
class DistanceMatrix:
    """Symmetric nonnegative N x N matrix of pairwise distances, zero diagonal."""

    entries: np.ndarray

    def __post_init__(self) -> None:
        entries = _real(self.entries, "distance matrix entries")
        if entries.ndim != 2 or entries.shape[0] != entries.shape[1]:
            raise ValueError(f"distance matrix must be square, got shape {entries.shape}")
        if not np.all(np.isfinite(entries)):
            raise ValueError("distance matrix contains non-finite entries")
        if np.any(entries < 0):
            raise ValueError("distance matrix contains negative entries")
        if np.any(np.diag(entries) != 0):
            raise ValueError("distance matrix diagonal must be zero")
        if not np.array_equal(entries, entries.T):
            raise ValueError("distance matrix must be symmetric")
        object.__setattr__(self, "entries", _readonly(entries))

    @property
    def n_items(self) -> int:
        return self.entries.shape[0]

    @classmethod
    def from_dataset(cls, dataset: Dataset) -> "DistanceMatrix":
        return cls(pairwise_distances(dataset.points))


class DendrogramLevel(NamedTuple):
    """One level of a dendrogram, as read from :attr:`Dendrogram.levels`."""

    distance: float
    partition: Partition


@dataclass(frozen=True, eq=False)
class Dendrogram:
    """Agglomerative hierarchy over ``n_points`` points, stored as its merges.

    ``merges`` is an ``(n_points - 1, 2)`` integer array under the usual
    linkage-matrix id convention: ids ``0 .. n_points-1`` are the points and
    merge row ``r`` (0-based) creates cluster id ``n_points + r`` from the two
    clusters it names. ``distances`` holds the ``n_points - 1`` merge
    distances, finite, nonnegative and nondecreasing. Both are validated here,
    once, and stored read-only; a bad row raises ValueError naming the row.

    Level ``i`` (1-based) is the partition into ``N - i + 1`` clusters left
    after the first ``i - 1`` merges, formed at the distance of the last of
    them: level 1 is all singletons at distance 0 and level N is the single
    all-inclusive cluster. Partitions are not stored: :meth:`partition_at`
    derives one in O(N) and :attr:`levels` is a read-only sequence that
    derives each level when it is read. The merge array is O(N) memory.
    """

    n_points: int
    merges: np.ndarray
    distances: np.ndarray

    def __post_init__(self) -> None:
        n = self.n_points
        if not isinstance(n, (int, np.integer)) or n < 1:
            raise ValueError(f"n_points must be an integer >= 1, got {n!r}")
        n = int(n)
        merges = np.asarray(self.merges)
        if merges.size == 0:
            merges = merges.reshape(0, 2)
        distances = np.asarray(self.distances, dtype=float)
        if merges.ndim != 2 or merges.shape[1] != 2:
            raise ValueError(f"merges must be an array of shape (n_points - 1, 2), got shape {merges.shape}")
        if distances.shape != (len(merges),):
            raise ValueError(f"expected one distance per merge, got shape {distances.shape} for {len(merges)} merges")
        if len(merges) != n - 1:
            raise ValueError(f"expected {n - 1} merges for {n} points, got {len(merges)}")

        merged = bytearray(2 * n - 1)
        previous = 0.0
        for row, (pair, distance) in enumerate(zip(merges.tolist(), distances.tolist()), start=1):
            limit = n + row - 1
            for cid in pair:
                if not float(cid).is_integer():
                    raise ValueError(f"merge row {row}: cluster id {cid!r} is not an integer")
                if not 0 <= cid < limit:
                    raise ValueError(f"merge row {row}: cluster id {int(cid)} out of range 0..{limit - 1}")
                if merged[int(cid)]:
                    raise ValueError(f"merge row {row}: cluster id {int(cid)} already merged")
            left, right = int(pair[0]), int(pair[1])
            if left == right:
                raise ValueError(f"merge row {row}: cannot merge cluster {left} with itself")
            if not math.isfinite(distance) or distance < 0:
                raise ValueError(f"merge row {row}: distance must be finite and nonnegative, got {distance}")
            if distance < previous:
                raise ValueError(f"merge row {row}: distance {distance} decreases below previous {previous}")
            merged[left] = merged[right] = 1
            previous = distance
        object.__setattr__(self, "n_points", n)
        object.__setattr__(self, "merges", _readonly(merges.astype(np.intp)))
        object.__setattr__(self, "distances", _readonly(distances))

    def partition_at(self, level: int) -> Partition:
        """Partition at 1-based ``level``, after the first ``level - 1`` merges.

        Clusters are labelled in the order of their smallest point index.
        """
        n = self.n_points
        if not 1 <= level <= n:
            raise ValueError(f"level must be in 1..{n}, got {level}")
        # walk the applied merges from the last: each node's root is its parent's
        root = list(range(n + level - 1))
        merges = self.merges[: level - 1].tolist()
        for node in range(n + level - 2, n - 1, -1):
            left, right = merges[node - n]
            root[left] = root[right] = root[node]
        label_of: dict[int, int] = {}
        return Partition(np.array([label_of.setdefault(r, len(label_of)) for r in root[:n]]))

    @property
    def levels(self) -> Sequence[DendrogramLevel]:
        """The N levels in order, each derived when it is read."""
        return _Levels(self)


class _Levels(Sequence):
    """Read-only sequence view of a dendrogram's levels."""

    def __init__(self, dendrogram: Dendrogram) -> None:
        self._dendrogram = dendrogram

    def __len__(self) -> int:
        return self._dendrogram.n_points

    def __getitem__(self, index: int | slice) -> DendrogramLevel | tuple[DendrogramLevel, ...]:
        if isinstance(index, slice):
            return tuple(self[i] for i in range(*index.indices(len(self))))
        level = range(1, len(self) + 1)[index]
        distance = float(self._dendrogram.distances[level - 2]) if level > 1 else 0.0
        return DendrogramLevel(distance, self._dendrogram.partition_at(level))


def euclidean_distance(a: Sequence[float], b: Sequence[float]) -> float:
    """L2 distance between two points of equal dimension."""
    av = np.asarray(a, dtype=float)
    bv = np.asarray(b, dtype=float)
    if av.shape != bv.shape:
        raise ValueError(f"dimension mismatch: {av.shape} vs {bv.shape}")
    return float(np.linalg.norm(av - bv))


def centroid(points: object) -> np.ndarray:
    """Coordinate-wise arithmetic mean of a nonempty point set."""
    return _as_points(points).mean(axis=0)


def radius_centroid(points: object) -> float:
    """Mean distance from the centroid to each member.

    Zero for a singleton or a set of coincident points.
    """
    pts = _as_points(points)
    return float(np.linalg.norm(pts - pts.mean(axis=0), axis=1).mean())


def mean_pairwise_distance(points: object) -> float:
    """Mean distance over all unordered point pairs; 0 for a singleton."""
    pts = _as_points(points)
    n = pts.shape[0]
    if n < 2:
        return 0.0
    dm = pairwise_distances(pts)
    return float(dm[np.triu_indices(n, k=1)].mean())


def diameter(points: object) -> float:
    """Largest pairwise distance within a point set; 0 for a singleton."""
    pts = _as_points(points)
    if pts.shape[0] < 2:
        return 0.0
    return float(pairwise_distances(pts).max())


def pairwise_distances(points: object) -> np.ndarray:
    """Full square matrix of Euclidean distances between rows of ``points``.

    Built row by row in O(N d) extra memory. The squares of ``p_j - p_i`` are
    exactly those of ``p_i - p_j``, so the matrix is exactly symmetric.
    """
    pts = _as_points(points)
    dm = np.empty((pts.shape[0], pts.shape[0]))
    for i, point in enumerate(pts):
        dm[i] = _distances_to(pts, point)
    return dm


class ClusterStats:
    """Per-cluster statistics of one partition, shared by every partition index.

    Built from the ``points`` the partition labels or from their ``distances``
    matrix; ValueError if the partition labels another number of items. Each
    quantity is computed when first read and belongs to this object alone.
    Distance quantities reduce the matrix over blocks of label-sorted rows and
    columns, in which each cluster is one contiguous slice.
    """

    def __init__(
        self, partition: Partition, *, points: np.ndarray | None = None, distances: np.ndarray | None = None
    ) -> None:
        self.n = (points if distances is None else distances).shape[0]
        if partition.n_items != self.n:
            raise ValueError(f"partition labels {partition.n_items} items, dataset has {self.n}")
        self.points = points
        self.labels = partition.labels
        self.sizes = partition.cluster_sizes()
        self.k = len(self.sizes)
        self.sorted_labels = np.repeat(np.arange(self.k), self.sizes)
        self._starts = np.cumsum(self.sizes) - self.sizes
        self._matrix = distances

    @cached_property
    def centroids(self) -> np.ndarray:
        """k x d cluster means: in-order member sums divided by size."""
        sums = np.zeros((self.k, self.points.shape[1]))
        np.add.at(sums, self.labels, self.points)
        return sums / self.sizes[:, None]

    @cached_property
    def offsets(self) -> np.ndarray:
        """Each point minus its cluster's centroid, in point order."""
        return self.points - self.centroids[self.labels]

    @cached_property
    def radii(self) -> np.ndarray:
        """Mean member-to-centroid distance of each cluster; 0 for a singleton."""
        member_distances = np.linalg.norm(self.offsets, axis=1)
        return np.bincount(self.labels, weights=member_distances, minlength=self.k) / self.sizes

    @cached_property
    def distances(self) -> np.ndarray:
        """N x N distance matrix with rows and columns in label order."""
        order = np.argsort(self.labels, kind="stable")
        if self._matrix is None:
            return pairwise_distances(self.points[order])
        return self._matrix[order[:, None], order]

    @cached_property
    def row_sums(self) -> np.ndarray:
        """N x k: summed distance from each point, in label order, to each cluster."""
        return np.add.reduceat(self.distances, self._starts, axis=1)

    def blocks(self, ufunc: np.ufunc) -> np.ndarray:
        """k x k: ``ufunc`` (np.add, np.minimum or np.maximum) over the
        distances between the members of each pair of clusters."""
        rows = self.row_sums if ufunc is np.add else ufunc.reduceat(self.distances, self._starts, axis=1)
        return ufunc.reduceat(rows, self._starts, axis=0)


def points_index(name: str, scorer: Callable[[ClusterStats], IndexValue]) -> Callable[[Dataset, Partition], IndexValue]:
    """The public ``name(dataset, partition)`` form of a ClusterStats scorer."""
    def index(dataset: Dataset, partition: Partition):
        return scorer(ClusterStats(partition, points=dataset.points))
    index.__name__ = index.__qualname__ = name
    index.__module__, index.__doc__ = scorer.__module__, scorer.__doc__
    index.__annotations__["return"] = scorer.__annotations__["return"]
    return index


def scale_dataset(dataset: Dataset, factor: float) -> Dataset:
    """Multiply every coordinate by ``factor`` (nonzero; 0 would collapse the data)."""
    if factor == 0:
        raise ValueError("scale factor must be nonzero")
    return Dataset(dataset.points * float(factor))


def shift_dataset(dataset: Dataset, offset: float) -> Dataset:
    """Add ``offset`` to every coordinate of every point."""
    return Dataset(dataset.points + float(offset))


# Benchmark coordinates: three unit-basis points plus scaled copies, and a
# coincident triple for the degenerate cases.
_BASIS = {
    1: (0.0, 0.0, 1.0),
    2: (0.0, 1.0, 0.0),
    3: (1.0, 0.0, 0.0),
    4: (0.0, 0.0, 2.0),
    5: (0.0, 2.0, 0.0),
    6: (2.0, 0.0, 0.0),
    7: (0.0, 0.0, 3.0),
    8: (0.0, 3.0, 0.0),
    9: (3.0, 0.0, 0.0),
}

_SYNTHETIC: dict[str, tuple[tuple[int, ...], tuple[int, ...]]] = {
    # id -> (point ids, labels)
    "X1S": ((1, 2, 3), (0, 0, 0)),
    "X2S": ((1, 2, 3), (0, 1, 1)),
    "X3S": ((1, 2, 3), (0, 1, 2)),
    "Y1S": ((1, 1, 1), (0, 0, 0)),
    "Y2S": ((1, 1, 1), (0, 0, 1)),
    "X1L": ((1, 2, 3, 4, 5, 6, 7, 8, 9), (0,) * 9),
    "X2L": ((1, 2, 3, 4, 5, 6, 7, 8, 9), (0, 0, 0, 1, 1, 1, 1, 1, 1)),
    "X9L": ((1, 2, 3, 4, 5, 6, 7, 8, 9), tuple(range(9))),
    "Y1L": ((1, 1, 1, 1, 1, 1), (0,) * 6),
    "Y2L": ((1, 1, 1, 1, 1, 1), (0, 0, 0, 1, 1, 1)),
}

SYNTHETIC_DATASET_IDS: tuple[str, ...] = tuple(_SYNTHETIC)


def synthetic_dataset(dataset_id: str) -> tuple[Dataset, Partition]:
    """Return one of the builtin benchmark datasets with its partition.

    X-datasets hold distinct points, Y-datasets coincident ones; the digit in
    the id is the number of clusters, the trailing letter the size variant
    (S = 3 points, L = 6 or 9 points).
    """
    try:
        point_ids, labels = _SYNTHETIC[dataset_id]
    except KeyError:
        known = ", ".join(SYNTHETIC_DATASET_IDS)
        raise ValueError(f"unknown synthetic dataset {dataset_id!r} (known: {known})") from None
    points = np.array([_BASIS[i] for i in point_ids])
    return Dataset(points), Partition(np.array(labels))


def dendrogram_from_merges(
    n_points: int, merges: Iterable[Sequence[float]]
) -> Dendrogram:
    """Build a Dendrogram from linkage rows ``(left, right, distance)``.

    ``merges`` lists ``n_points - 1`` rows under the usual linkage-matrix id
    convention: ids ``0 .. n_points-1`` are the original points and merge row
    ``r`` creates cluster id ``n_points + r``. Ids may be integral floats, as
    in the first two columns of a scipy linkage matrix. Raises ValueError
    naming the offending row for a row that is not three values, for ids that
    are not integers, out of range or merged twice, and for decreasing
    distances.
    """
    rows = list(merges)
    for row, values in enumerate(rows, start=1):
        if len(values) != 3:
            raise ValueError(f"merge row {row}: expected 3 values (left, right, distance), got {len(values)}")
    ids = np.array([values[:2] for values in rows], dtype=float)
    distances = np.array([values[2] for values in rows], dtype=float)
    return Dendrogram(n_points, ids, distances)


def _distances_to(points: np.ndarray, point: np.ndarray) -> np.ndarray:
    # the one distance kernel: pairwise_distances and the spanning tree both use it
    diff = points - point
    return np.sqrt(np.einsum("ij,ij->i", diff, diff))


def _minimum_spanning_tree(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Prim's algorithm on the complete Euclidean graph: (n-1, 2) ends and lengths.

    One distance row per step, so O(N^2 d) time and O(N d) memory.
    """
    n = points.shape[0]
    outside = np.ones(n, dtype=bool)
    best = np.full(n, np.inf)  # distance from each outside point to the tree
    nearest = np.zeros(n, dtype=np.intp)  # the tree point at that distance
    ends = np.empty((n - 1, 2), dtype=np.intp)
    lengths = np.empty(n - 1)
    current = 0
    for step in range(n - 1):
        outside[current] = False
        best[current] = np.inf
        row = _distances_to(points, points[current])
        closer = outside & (row < best)
        best[closer] = row[closer]
        nearest[closer] = current
        current = int(np.argmin(best))
        ends[step] = nearest[current], current
        lengths[step] = best[current]
    return ends, lengths


class _Forest:
    """The clusters of a single-linkage hierarchy as it grows: union-find over
    cluster ids, each merge recorded as a linkage row."""

    def __init__(self, n_points: int) -> None:
        self.n_points = n_points
        self.parent = list(range(2 * n_points - 1))  # cluster id -> the id it merged into
        self.members = {p: [p] for p in range(n_points)}  # active cluster id -> points
        self.merges: list[tuple[int, int]] = []
        self.distances: list[float] = []

    def cluster_of(self, point: int) -> int:
        root = point
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[point] != root:  # path compression
            self.parent[point], point = root, self.parent[point]
        return root

    def merge(self, a: int, b: int, distance: float) -> int:
        """Merge active clusters ``a`` and ``b`` and return the new cluster's id."""
        new_id = self.n_points + len(self.merges)
        self.parent[a] = self.parent[b] = new_id
        larger, smaller = sorted((self.members.pop(a), self.members.pop(b)), key=len, reverse=True)
        larger.extend(smaller)
        self.members[new_id] = larger
        self.merges.append((min(a, b), max(a, b)))
        self.distances.append(distance)
        return new_id


class _TieGroup:
    """Clusters that a run of equal-length MST edges joins into one, with the
    boolean matrix of which pairs of them are at the run's distance.

    Only clusters in one group can be at that distance from each other. Each
    cluster is compared with the larger ones through member distances, so
    over a whole hierarchy this costs at most one distance per pair of points;
    the matrix takes m^2 bytes for m tied clusters.
    """

    def __init__(self, points: np.ndarray, forest: _Forest, clusters: list[int], distance: float) -> None:
        clusters = sorted(clusters, key=lambda c: (-len(forest.members[c]), c))
        sizes = [len(forest.members[c]) for c in clusters]
        members = points[[p for c in clusters for p in forest.members[c]]]
        slot = np.repeat(np.arange(len(clusters)), sizes)
        ends = np.cumsum(sizes)
        self.tied = np.zeros((len(clusters), len(clusters)), dtype=bool)
        for i in range(1, len(clusters)):
            before = ends[i - 1]
            for row in range(before, ends[i]):
                near = _distances_to(members[:before], members[row]) <= distance
                self.tied[i, slot[:before][near]] = True
        self.tied |= self.tied.T
        self.degree = self.tied.sum(axis=1)
        self.ids = np.array(clusters)

    def smallest_pair(self) -> tuple[int, int] | None:
        """Slots of the tied pair with the lexicographically smallest ids."""
        linked = np.flatnonzero(self.degree)
        if not linked.size:
            return None
        a = linked[np.argmin(self.ids[linked])]
        partners = np.flatnonzero(self.tied[a])
        return int(a), int(partners[np.argmin(self.ids[partners])])

    def merge(self, a: int, b: int, new_id: int) -> None:
        """Replace slots ``a`` and ``b`` by their union, in slot ``a``: the
        union is tied to every cluster either part was tied to."""
        row = self.tied[a] | self.tied[b]
        row[[a, b]] = False
        self.degree -= self.tied[a]
        self.degree -= self.tied[b]
        self.degree += row
        self.tied[[a, b], :] = False
        self.tied[:, [a, b]] = False
        self.tied[a] = row
        self.tied[:, a] = row
        self.degree[a] = row.sum()
        self.degree[b] = 0
        self.ids[a] = new_id


def _merge_tied(points: np.ndarray, forest: _Forest, edges: list[list[int]], distance: float) -> None:
    """Merge the clusters joined by a run of equal-length MST edges.

    Reproduces the closest-pair scan: among active clusters at single-link
    distance ``distance`` the lexicographically smallest pair of ids merges
    first, and a merged cluster is at that distance from every cluster either
    part was. The MST alone cannot say which pairs are at that distance, so
    each group of joined clusters builds its tie matrix from member distances.
    """
    import heapq  # only tied runs need it; importing the package stays lean

    parent: dict[int, int] = {}  # touched cluster -> union-find parent

    def find(c: int) -> int:
        while parent[c] != c:
            parent[c] = c = parent[parent[c]]  # path halving
        return c

    for u, v in edges:
        a, b = forest.cluster_of(u), forest.cluster_of(v)
        parent.setdefault(a, a)
        parent.setdefault(b, b)
        parent[find(a)] = find(b)
    joined: dict[int, list[int]] = {}
    for c in parent:
        joined.setdefault(find(c), []).append(c)
    groups = [_TieGroup(points, forest, clusters, distance) for clusters in joined.values()]

    # one entry per group, its current smallest pair: (id, id, group, slot, slot)
    heap = []
    for g, group in enumerate(groups):
        a, b = group.smallest_pair()
        heap.append((int(group.ids[a]), int(group.ids[b]), g, a, b))
    heapq.heapify(heap)
    while heap:
        left, right, g, a, b = heapq.heappop(heap)
        group = groups[g]
        group.merge(a, b, forest.merge(left, right, distance))
        pair = group.smallest_pair()
        if pair is not None:
            a, b = pair
            heapq.heappush(heap, (int(group.ids[a]), int(group.ids[b]), g, a, b))


def single_linkage(dataset: Dataset) -> Dendrogram:
    """Agglomerative single-linkage dendrogram over a dataset of >= 2 points.

    Merges the closest pair of clusters under minimum inter-cluster distance;
    ties go to the lexicographically smallest pair of cluster ids, which makes
    the result deterministic. Built as Gower & Ross (1969) do: a Prim minimum
    spanning tree, whose edges sorted by length are the merges, joined with
    union-find. O(N^2) time and O(N) memory beyond the points; no N x N
    matrix is formed. A run of equal-length edges is resolved against member
    distances so that the tie rule holds exactly; ``m`` clusters tied at one
    distance take an ``m x m`` boolean matrix while they are merged.
    """
    n = dataset.n_points
    if n < 2:
        raise ValueError("single linkage needs at least 2 points")
    points = dataset.points
    ends, lengths = _minimum_spanning_tree(points)
    order = np.argsort(lengths, kind="stable")
    ends, lengths = ends[order].tolist(), lengths[order].tolist()
    forest = _Forest(n)
    start = 0
    while start < n - 1:
        distance = lengths[start]
        stop = start + 1
        while stop < n - 1 and lengths[stop] == distance:
            stop += 1
        if stop - start == 1:
            u, v = ends[start]
            forest.merge(forest.cluster_of(u), forest.cluster_of(v), distance)
        else:
            _merge_tied(points, forest, ends[start:stop], distance)
        start = stop
    return Dendrogram(n, np.array(forest.merges), np.array(forest.distances))
