"""Data model and geometric primitives shared by every index.

Holds the immutable container types (:class:`Dataset`, :class:`Partition`,
:class:`DistanceMatrix`, :class:`Dendrogram`), the distinguished
:data:`UNDEFINED` result, the Euclidean distance kernel, the per-cluster
statistics every partition index reads, the builtin synthetic benchmark
datasets, affine transforms, and a deterministic single-linkage dendrogram
builder.
"""

from __future__ import annotations

import math
from array import array
from collections.abc import Iterable, Iterator, Sequence
from contextlib import contextmanager, nullcontext, suppress
from dataclasses import dataclass
from functools import cached_property
from typing import Any

import numpy as np


class Undefined:
    """Distinguished non-value for an index whose defining denominator is zero.

    A singleton: every construction returns the same object, so results can be
    compared with ``is UNDEFINED``. It defines no arithmetic, so using an
    undefined result as a number raises TypeError rather than silently
    turning it back into one.
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


UNDEFINED = Undefined()

# A scored index is either a finite float or the UNDEFINED sentinel.
IndexValue = float | Undefined


def is_defined(value: IndexValue) -> bool:
    """True when ``value`` is an actual number rather than UNDEFINED."""
    return not isinstance(value, Undefined)


# Text: float() parses str and bytes, and numpy reads a bytearray as its byte codes
_TEXT = (str, bytes, bytearray)


def _real(values: object, what: str) -> np.ndarray:
    try:
        arr = np.asarray(values)
    except ValueError:  # numpy's "inhomogeneous shape" for ragged nesting, as of a bytearray entry among numbers
        fault = "be real numbers" if _holds_text(values, 3) else "have rows of equal length"
        raise ValueError(f"{what} must {fault}") from None
    # numpy reads a bytearray as an axis of byte codes, so text lies no deeper than the array's axes
    if not isinstance(values, np.ndarray) and _holds_text(values, min(arr.ndim, 3)):
        raise ValueError(f"{what} must be real numbers")
    if arr.dtype.kind in "biufO":  # a float cast would keep a complex number's real part, and parse strings
        if arr.dtype.kind == "O" and any(v is None or isinstance(v, _TEXT) for v in arr.flat):
            raise ValueError(f"{what} must be real numbers")  # the cast would parse text and make None NaN
        try:
            return np.asarray(arr, dtype=float)
        except (TypeError, ValueError, OverflowError):  # a complex number, an int past 2^1024, another non-real
            pass
    raise ValueError(f"{what} must be real numbers")


def _scalar(value: object, what: str) -> float:
    """``value`` as a float, cast by :func:`_real`; ValueError naming ``what`` unless it is one real number."""
    arr = _real(value, what)
    if arr.ndim:
        raise ValueError(f"{what} must be a single real number, got shape {arr.shape}")
    return float(arr)


def _holds_text(values: object, levels: int) -> bool:
    """Whether text is among ``values``, its items, their items and so on,
    down to ``levels`` levels, where only lists and tuples have items."""
    level = [values]
    for depth in range(levels):
        if depth:
            level = [item for value in level if isinstance(value, (list, tuple)) for item in value]
        if any(issubclass(kind, _TEXT) for kind in set(map(type, level))):
            return True
    return False


def _as_points(points: object) -> np.ndarray:
    pts = _real(points, "points")
    if pts.ndim != 2:
        raise ValueError(f"points must be a 2-D array of shape (n, dim), got shape {pts.shape}")
    if pts.shape[0] == 0:
        raise ValueError("point set is empty")
    if pts.shape[1] == 0:
        raise ValueError("points need at least one coordinate")
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
        try:
            labels = np.asarray(self.labels)
        except ValueError:  # numpy's "inhomogeneous shape" for ragged nesting
            raise ValueError("labels must be a 1-D sequence, got nested rows of different lengths") from None
        if labels.ndim != 1 or labels.size == 0:
            raise ValueError("labels must be a non-empty 1-D sequence")
        if not np.issubdtype(labels.dtype, np.integer):
            labels = _integral_labels(labels)
        if labels.min() < 0:
            raise ValueError(f"cluster labels must be nonnegative, got {labels.min()}")
        k = int(labels.max()) + 1  # read before the cast, which wraps an unsigned label past 2**63
        as_int = labels.astype(int)
        # counted up to N only: a label past N leaves a gap below N, and a huge one would size the count
        as_int[labels >= labels.size] = labels.size
        missing = np.flatnonzero(np.bincount(as_int) == 0)
        if missing.size:
            raise ValueError(f"cluster label {missing[0]} has no members (labels must cover 0..{k - 1})")
        object.__setattr__(self, "labels", _readonly(as_int))

    @property
    def n_items(self) -> int:
        return self.labels.shape[0]

    @property
    def n_clusters(self) -> int:
        return int(self.labels.max()) + 1

    def cluster_sizes(self) -> np.ndarray:
        """Member count of each cluster, indexed by label."""
        return np.bincount(self.labels, minlength=self.n_clusters)


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
        if entries.size == 0:
            raise ValueError("distance matrix is empty")
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
    all-inclusive cluster. Levels are read from one O(N) leaf layout,
    computed once when first read: a point order in which every cluster of
    every level is one slice, so :meth:`partition_at` derives a level in O(N).
    """

    n_points: int
    merges: np.ndarray
    distances: np.ndarray

    def __post_init__(self) -> None:
        n = self.n_points
        if not isinstance(n, (int, np.integer)) or n < 1:
            raise ValueError(f"n_points must be an integer >= 1, got {n!r}")
        n = int(n)
        merges = _real(self.merges, "merges")
        if merges.size == 0:
            merges = merges.reshape(0, 2)
        distances = _real(self.distances, "merge distances")
        if merges.ndim != 2 or merges.shape[1] != 2:
            raise ValueError(f"merges must be an array of shape (n_points - 1, 2), got shape {merges.shape}")
        if distances.shape != (len(merges),):
            raise ValueError(f"expected one distance per merge, got shape {distances.shape} for {len(merges)} merges")
        if len(merges) != n - 1:
            raise ValueError(f"expected {n - 1} merges for {n} points, got {len(merges)}")

        bad, merged = _merge_faults(n, merges, distances)
        if bad.size:
            row = int(bad[0])
            previous = float(distances[row - 1]) if row else 0.0
            fault = _merge_fault(
                merges[row].tolist(), float(distances[row]), previous, n + row, merged[row].tolist()
            )
            raise ValueError(f"merge row {row + 1}: {fault}")
        object.__setattr__(self, "n_points", n)
        object.__setattr__(self, "merges", _readonly(merges.astype(np.intp)))
        object.__setattr__(self, "distances", _readonly(distances))

    @cached_property
    def _layout(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Leaf order of the points, and each cluster id's start and size in it, read-only."""
        n = self.n_points
        merges = self.merges.tolist()
        size = [1] * (2 * n - 1)
        for row, (left, right) in enumerate(merges):
            size[n + row] = size[left] + size[right]
        start = [0] * (2 * n - 1)
        for row in range(n - 2, -1, -1):
            left, right = merges[row]
            start[left] = start[n + row]
            start[right] = start[left] + size[left]
        start, size = np.array(start), np.array(size)
        return tuple(_readonly(part) for part in (np.argsort(start[:n]), start, size))

    def partition_at(self, level: int) -> Partition:
        """Partition at 1-based ``level``, after the first ``level - 1`` merges.

        Clusters are labelled in the order of their smallest point index.
        """
        n = self.n_points
        if not isinstance(level, (int, np.integer)) or not 1 <= level <= n:
            raise ValueError(f"level must be an integer in 1..{n}, got {level}")
        order, start, _ = self._layout
        # a merge removes the leaf-order boundary where its right part starts
        boundary = np.zeros(n, dtype=bool)
        boundary[0] = True
        boundary[start[self.merges[level - 1 :, 1]]] = True
        slice_of = np.cumsum(boundary)[start[:n]] - 1  # each point's cluster, as a slice number
        smallest = np.minimum.reduceat(order, np.flatnonzero(boundary))  # each slice's smallest point
        rank = np.empty(n - level + 1, dtype=np.intp)
        rank[np.argsort(smallest)] = np.arange(n - level + 1)
        return Partition(rank[slice_of])


def _merge_faults(n: int, merges: np.ndarray, distances: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The 0-based merge rows that fail a check, in order, and for each id
    whether an earlier row names an equal id.

    Row ``r`` names two different integral ids below ``n + r`` that no
    earlier row names; its distance is finite, nonnegative and not below row
    ``r - 1``'s. The ids stay floats, so no non-integral or out-of-range id
    is cast. A stable argsort puts equal ids in row order: an id was merged
    when the equal id sorted just before it lies in an earlier row. The rows
    before the first failing one are all valid, so that row's flags are the
    ones a row-by-row check would see.
    """
    limit = np.arange(n, 2 * n - 1)[:, None]
    valid = np.isfinite(merges) & (np.trunc(merges) == merges) & (merges >= 0) & (merges < limit)
    ids = merges.ravel()
    order = np.argsort(ids, kind="stable")
    repeat = ids[order[1:]] == ids[order[:-1]]
    later, earlier = order[1:][repeat], order[:-1][repeat]
    merged = np.zeros(ids.size, dtype=bool)
    merged[later] = earlier // 2 < later // 2
    merged = merged.reshape(merges.shape)
    bad = ~valid.all(axis=1) | merged.any(axis=1) | (merges[:, 0] == merges[:, 1])
    bad |= ~np.isfinite(distances) | (distances < 0)
    bad[1:] |= distances[1:] < distances[:-1]
    return np.flatnonzero(bad), merged


def _merge_fault(pair: list[float], distance: float, previous: float, limit: int, merged: list[bool]) -> str:
    """What is wrong with a failing merge row, whose ids must lie below
    ``limit`` and whose ``merged`` flags say which ids an earlier row took:
    the first failed check, left id before right, ids before distance."""
    for cid, taken in zip(pair, merged):
        if not cid.is_integer():
            return f"cluster id {cid!r} is not an integer"
        if not 0 <= cid < limit:
            return f"cluster id {int(cid)} out of range 0..{limit - 1}"
        if taken:
            return f"cluster id {int(cid)} already merged"
    left, right = int(pair[0]), int(pair[1])
    if left == right:
        return f"cannot merge cluster {left} with itself"
    if not math.isfinite(distance) or distance < 0:
        return f"distance must be finite and nonnegative, got {distance}"
    return f"distance {distance} decreases below previous {previous}"


def radius_centroid(points: object) -> float:
    """Mean distance from the centroid to each member.

    Zero for a singleton or a set of coincident points. Computed on the
    points rescaled by :func:`_scaled` and scaled back, so no intermediate
    over- or underflows; ValueError when the radius itself passes the
    largest float.
    """
    exponent, points = _scaled(_as_points(points))
    try:
        return math.ldexp(_whole(points)[2][0], exponent)
    except OverflowError:
        raise ValueError("radius_centroid: the radius overflowed to inf; the inputs are too large") from None


def _scaled(values: np.ndarray) -> tuple[int, np.ndarray]:
    """``(e, values * 2**-e)``, exactly: the one place the float range is
    decided. ``e`` is 0, and the values are returned as they are, while their
    largest magnitude lies in [2^-400, 2^400) or is 0, so in-range inputs
    keep their bits; otherwise ``e`` is chosen so that the largest magnitude
    of the result lies in [2^399, 2^400), the top of that band, which leaves
    the most room below it for small differences. Multiplying by a power of
    two commutes with every rounding short of the subnormals, so a distance,
    a radius or a sum taken on the rescaled values is the raw one times 2^-e
    (a square times 2^-2e), and a ratio of two is the raw ratio, bit for bit.
    Only a value below 2^-1421 times the largest one loses bits."""
    exponent = math.frexp(max(values.max(), -values.min()))[1]
    # the exponent of a largest magnitude in [2^-400, 2^400): the squares of such values and of
    # their differences, summed over any count of them, stay far below 2^1024, and the square
    # of that magnitude far above 2^-1022
    return (0, values) if -400 < exponent <= 400 else (exponent - 400, np.ldexp(values, 400 - exponent))


def _whole(points: np.ndarray) -> tuple[np.ndarray, ...]:
    """:func:`_centroid_stats` of the points as one slice; its centroid is never compared, so not rounded once."""
    return _centroid_stats(points, np.zeros(1, dtype=np.intp), np.array([points.shape[0]]), round_once=False)


def _merge_radii(points: np.ndarray, dendrogram: Dendrogram) -> tuple[np.ndarray, np.ndarray, float]:
    """The size and radius of the cluster each merge makes, in merge order, and the radius of all the
    ``points``, on the points rescaled by :func:`_scaled`, so each ratio of two radii is the raw one.
    In the dendrogram's leaf layout every cluster is one slice of the points. Consecutive merges are
    gathered in chunks of at most ``_BLOCK`` coordinates, one merge at least, and a chunk's radii are
    one :func:`_centroid_stats` call: O(chunk) memory and O(sum of the merged sizes) work. The last
    merge makes the cluster of all the points, so the dataset radius is its radius, bit for bit, and
    the top merge's ratio is exactly 1. Coincident points give every radius 0; one point, radius 0."""
    points = _scaled(points)[1]
    n, d = points.shape
    order, start, size = dendrogram._layout
    starts, sizes = start[n:], size[n:]
    leaves, ends, radii = points[order], np.cumsum(sizes), np.empty(n - 1)  # ends: merge ends in the gathered members
    budget = max(1, _BLOCK // d)  # gathered rows in one chunk
    first = 0
    while first < n - 1:
        base = ends[first] - sizes[first]
        last = max(first + 1, int(np.searchsorted(ends, base + budget, side="right")))
        chunk_sizes = sizes[first:last]
        offsets = ends[first:last] - chunk_sizes - base  # each segment's start in the chunk
        members = leaves[np.arange(ends[last - 1] - base) + np.repeat(starts[first:last] - offsets, chunk_sizes)]
        radii[first:last] = _centroid_stats(members, offsets, chunk_sizes, round_once=False)[2]
        first = last
    return sizes, radii, radii[-1] if n > 1 else 0.0


def _centroid_stats(
    members: np.ndarray, starts: np.ndarray, sizes: np.ndarray, *, round_once: bool = True
) -> tuple[np.ndarray, ...]:
    """The one route to centroids: the k x d centroids, each member's squared
    offset and the k radii (mean member-to-centroid distances) of the row
    slices of ``members`` at ``starts``, by segment sums. Offsets are taken
    from each slice's first member before they are averaged (Chan, Golub &
    LeVeque 1983), so coincident members give their exact centroid and
    radius 0, and a shift far past the spread costs no accuracy. Each
    centroid is ``first + sum / size`` rounded once (:func:`_round_once`),
    so clusters whose exact centroids are equal get equal floats. With
    ``round_once=False`` it is ``first + mean offset``, rounded twice, which
    is cheaper for callers that never compare centroids for equality."""
    firsts = members[starts]
    offsets = np.subtract(members, np.repeat(firsts, sizes, axis=0), order="C")
    sums = np.add.reduceat(offsets, starts, axis=0)
    means = sums / sizes[:, None]
    offsets -= np.repeat(means, sizes, axis=0)
    offsets *= offsets
    squared = np.add.reduce(offsets, axis=1)
    centroids = _round_once(firsts, sums, means, sizes[:, None]) if round_once else firsts + means
    return centroids, squared, np.add.reduceat(np.sqrt(squared), starts) / sizes


def _round_once(firsts: np.ndarray, sums: np.ndarray, means: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """``firsts + sums / sizes`` rounded once, not twice, up to a tie too
    close to call, where ``means`` is ``sums / sizes`` rounded.

    What the two roundings drop is recovered exactly and added back: the
    division's remainder ``sums - means * sizes``, from ``means`` split into
    halves of 26 significant bits whose products with a size below 2^25 are
    exact (Veltkamp's split, Dekker 1971), and the error of ``firsts +
    means`` by TwoSum (Knuth). The callers' values are rescaled by
    :func:`_scaled`, so no part of the split overflows."""
    centroids = firsts + means
    scaled = means * 134217729.0  # 2^27 + 1
    high = scaled - (scaled - means)
    low = means - high
    remainders = (sums - high * sizes) - low * sizes
    back = centroids - firsts
    dropped = (firsts - (centroids - back)) + (means - back) + remainders / sizes
    return centroids + dropped


def pairwise_distances(points: object) -> np.ndarray:
    """Full square matrix of Euclidean distances between rows of ``points``.

    Each pair is computed once, in the blocks of :func:`_distance_blocks`:
    the part right of a block's own square is mirrored below it. The squares
    of ``p_j - p_i`` are exactly those of ``p_i - p_j``, so the matrix is
    exactly symmetric. The pass runs on the points rescaled by
    :func:`_scaled`, and a rescaled matrix is scaled back: a distance past
    the largest float is infinite.
    """
    exponent, points = _scaled(_as_points(points))
    dm = np.empty((len(points), len(points)))
    for start, stop, block in _distance_blocks(points):
        dm[start:stop, start:] = block
        dm[stop:, start:stop] = block[:, stop - start :].T
    if exponent:
        with np.errstate(over="ignore"):
            np.ldexp(dm, exponent, out=dm)
    return dm


# At most 2^14 distances (128 KB) in one block of the distance pass, computed
# or gathered from a matrix, and 2^16 differences (512 KB) in one kernel call.
_DISTANCES, _BLOCK = 2**14, 2**16

# numpy's default ufunc buffer, in elements, and the one the kernel runs under.
_UFUNC_BUFFER, _KERNEL_BUFFER = 2**13, 16

# The scope of a distance block whose kernel work fits in one default buffer: made once, since a new
# nullcontext per block slowed the many small passes of an audit by about 1.6%.
_DEFAULT_BUFFER = nullcontext()


@contextmanager
def _kernel_buffer() -> Iterator[None]:
    """numpy's ufunc buffer set to ``_KERNEL_BUFFER`` elements, and the
    previous size restored on exit, also on an exception. Under the default
    size numpy copies the kernel's broadcast d x 1 row operand through the
    buffer whenever an inner loop is shorter than it: one 8 x 8 x 1000
    subtract takes 58 us, against 18 us under 16 floats. No elementwise
    result and none of the kernel's row-by-row sums depend on the size, but
    the blocks of numpy's pairwise summation do, so it is set only around
    kernel calls and Prim's loops, never around a caller's sums. numpy keeps
    the size per thread (1.x) or per context (2.x), so no other thread sees it."""
    previous = np.setbufsize(_KERNEL_BUFFER)
    try:
        yield
    finally:
        np.setbufsize(previous)


def _row_blocks(n: int) -> Iterator[tuple[int, int]]:
    """Row spans ``[start, stop)`` of an upper-triangle pass over ``n`` rows.

    A block's rows meet only the columns ``[start, n)``, so its height comes
    from its remaining width: at most ``_DISTANCES`` (2^14) distances, and one
    row at least. Later blocks are taller."""
    start = 0
    while start < n:
        stop = min(n, start + max(1, _DISTANCES // (n - start)))
        yield start, stop
        start = stop


def _distance_blocks(points: np.ndarray) -> Iterator[tuple[int, int, np.ndarray]]:
    """The upper-triangle distance pass over the N x d ``points``: for each
    span ``[start, stop)`` of :func:`_row_blocks`, the (stop - start) x
    (N - start) block of distances from those rows to the points from start on.

    Holds the points as one d x N copy, fills each block with :func:`_squares`
    calls of at most ``_BLOCK`` differences (one row at least; one call at
    d <= 4, since a block holds at most 2^14 distances) and square-roots it in
    place, so a distance has the bits of both spanning-tree passes, each
    summed over its coordinates in order. The calls run under
    :func:`_kernel_buffer`, left before the block is yielded, so the caller's
    sums keep its buffer; a block whose kernel work fits in one default buffer
    skips it, since setting and restoring the size costs more there than it
    saves (at d = 1 only a block of at most 8192 distances: a whole pass over
    at most 90 points, or a pass's last block). A block
    is allocated before its difference arrays, or glibc's heap grows and
    shrinks each block (five times the page faults of a ``compute`` on
    1000 x 8 points). The points are rescaled by :func:`_scaled`, so no
    square or sum overflows."""
    n, d = points.shape
    columns = np.ascontiguousarray(points.T)
    for start, stop in _row_blocks(n):
        step = max(1, _BLOCK // (d * (n - start)))
        block, right, rows = np.empty((stop - start, n - start)), columns[:, start:], points[start:stop, :, None]
        with _kernel_buffer() if block.size * d > _UFUNC_BUFFER else _DEFAULT_BUFFER:
            for first in range(0, len(block), step):
                block[first : first + step] = _squares(right, rows[first : first + step])
        yield start, stop, np.sqrt(block, out=block)


def _squares(columns: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Squared distances from the d x 1 column ``rows``, or from each of a
    b x d x 1 stack of them, to each of the w points held coordinate-major
    in the d x w ``columns``: w entries, or b x w.

    The one distance kernel. The differences are laid out in C order whatever
    the inputs' order, then squared and summed over the coordinate axis in one
    ``np.einsum`` pass, at its default ``optimize=False``, which never takes a
    BLAS route: its inner loop runs along the rows of w and multiply-adds one
    coordinate's row at a time into the output, so each sum runs in coordinate
    order, ``((x_0^2 + x_1^2) + x_2^2) + ...``, whatever the caller. A numpy
    build whose einsum fuses that multiply-add (NEON on aarch64) rounds each
    step once, so its bits may differ from the unfused formula's, but every
    caller still gets the same ones. ``(p_j - p_i)^2`` is ``(p_i - p_j)^2``.
    Every caller passes points rescaled by :func:`_scaled`, so no square
    overflows."""
    if columns.shape[1] == 1:  # einsum would make the coordinates its inner loop and sum them with partial sums
        return _squares(np.repeat(columns, 2, axis=1), rows)[..., :1]
    diff = np.subtract(columns, rows, order="C")
    return np.einsum("...dw,...dw->...w", diff, diff)


class ClusterStats:
    """Per-cluster statistics of one partition, shared by every partition index.

    Built from the ``points`` the partition labels or from their ``distances``
    matrix; ValueError if the partition labels another number of items. Both are
    held rescaled by :func:`_scaled`, so no quantity over- or underflows: every
    quantity is in units of 2^``exponent`` raw units, and a ratio of two of them
    is the raw ratio, bit for bit. The points are gathered once, in label order,
    into ``points``, each cluster one slice; every quantity reads that copy, so
    a relisting that keeps each cluster's member order keeps every bit. Each
    quantity is computed when first read and belongs to this object alone.

    Distance quantities come from one streamed pass over the upper triangle of
    the pair distances (:func:`_distance_blocks` for points), run when the
    first of them is read: rows and columns in label order, each pair computed
    once, by the one kernel :func:`_squares`, which sums a distance's squared
    differences in coordinate order (once-rounded steps where numpy fuses the
    multiply-add). It makes only the ``reductions`` named at construction,
    read by :meth:`reduced`; reading another one raises KeyError. No N x N
    matrix is formed: the pass holds O(b N) floats for blocks of b rows and at
    most 2^14 distances, the row means N k, the within sums N, the extremes two
    floats, and the tails O(min(w, P - w)) for w within-cluster pairs of P.
    """

    def __init__(
        self,
        partition: Partition,
        *,
        points: np.ndarray | None = None,
        distances: np.ndarray | None = None,
        reductions: Iterable[str] = (),
    ) -> None:
        self.n = (points if distances is None else distances).shape[0]
        if partition.n_items != self.n:
            raise ValueError(f"partition labels {partition.n_items} items, dataset has {self.n}")
        self.exponent, scaled = _scaled(points if distances is None else distances)
        self._order = np.argsort(partition.labels, kind="stable")  # point indices in label order
        self.points, self._matrix = (scaled[self._order], None) if distances is None else (None, scaled)
        self.sizes = partition.cluster_sizes()
        self.k = len(self.sizes)
        self.sorted_labels = np.repeat(np.arange(self.k), self.sizes)
        self.n_within = int((self.sizes * (self.sizes - 1)).sum()) // 2  # within-cluster pairs
        self._starts = np.cumsum(self.sizes) - self.sizes
        self._reductions = frozenset(reductions)

    @cached_property
    def clusters(self) -> tuple[np.ndarray, ...]:
        """:func:`_centroid_stats` of the clusters' slices: k x d centroids, the squared offsets, k radii."""
        return _centroid_stats(self.points, self._starts, self.sizes)

    @cached_property
    def whole(self) -> tuple[np.ndarray, ...]:
        """:func:`_whole` of the points: the dataset centroid, each point's squared offset, the radius."""
        return _whole(self.points)

    def reduced(self, name: str) -> Any:
        """The distance reduction ``name`` named at construction, in label
        order. ``"rows"``: N x k mean distances from each point to each other
        cluster, infinite at its own. ``"within"``: each point's summed
        distance to its own cluster, each cluster's sum over its pairs, and
        the sum over all pairs. ``"extremes"``: the largest within-cluster
        distance (0 if none) and the smallest between-cluster one (infinite
        if none). ``"tails"``: the sums of the w = ``n_within`` smallest and
        largest pair distances, if 0 < w < P. Each is made one way only."""
        return self._reduced[name]

    @cached_property
    def _reduced(self) -> dict[str, Any]:
        """The requested reductions, from one pass over the blocks of
        :func:`_distance_blocks`, or the same spans gathered from the matrix:
        rows ``[start, stop)`` against columns ``[start, N)``.

        A block's square holds its own pairs twice; the columns past it meet
        no later block's rows, so their sums over each cluster's rows add into
        those rows' sums, and the last cluster's into their own-cluster sums.
        The within sums add up the own-cluster sums, and the row sums become
        means at the end. The tails take the entries right of the square's diagonal.
        """
        n, k, starts, labels = self.n, self.k, self._starts, self.sorted_labels
        ends = starts + self.sizes
        spans = list(_row_blocks(n))
        if self._matrix is None:
            blocks = _distance_blocks(self.points)
        else:
            matrix, order = self._matrix, self._order
            blocks = ((start, stop, matrix[order[start:stop]].take(order[start:], axis=1)) for start, stop in spans)
        wanted = self._reductions
        summed, extremes = not wanted.isdisjoint(("rows", "within", "tails")), "extremes" in wanted
        rows = np.zeros((n, k)) if "rows" in wanted else None
        own = np.zeros(n)  # each point's summed distance to its own cluster
        pair_sums: list[float] = []
        largest, smallest = -math.inf, math.inf
        n_pairs, w = n * (n - 1) // 2, self.n_within
        m, index, side = min(w, n_pairs - w), np.arange(n), max(stop - start for start, stop in spans)
        block = max((stop - start) * (n - start) for start, stop in spans)
        tails = _Tails(m, min(3 * m + block, n_pairs)) if "tails" in wanted and m else None
        upper = index[:side] > index[:side, None]  # the pairs of a block's square
        for start, stop, distances in blocks:
            square = stop - start
            c0, c1 = labels[start], labels[stop - 1] + 1  # the clusters of the block's rows
            segments = starts[c0:] - start  # each cluster's first column, relative to start
            segments[0] = 0  # the block may start inside cluster c0
            near, end = segments[: c1 - c0], ends[c1 - 1] - start  # where the rows' clusters start and end
            mine = index[:square], labels[start:stop] - c0  # each row's own cluster among them
            far = distances[:, square:]
            if summed:
                own[start:stop] += np.add.reduceat(distances[:, :end], near, axis=1)[mine]
                if rows is not None:
                    rows[start:stop, c0:] += np.add.reduceat(distances, segments, axis=1)
                if far.size:  # the last block has no far columns
                    bounds = [*near.tolist(), square]
                    for c, first, last in zip(range(c0, c1), bounds, bounds[1:]):
                        sums = np.add.reduce(far[first:last], axis=0)  # over the rows of cluster c
                        if rows is not None:
                            rows[stop:, c] += sums
                        pair_sums.append(float(sums.sum()))
                    own[stop : start + end] += sums[: end - square]  # the last cluster may go on past the square
                pair_sums.append(float(distances[:, :square].sum()) / 2)
            if extremes:
                highs = np.maximum.reduceat(distances[:, :end], near, axis=1)
                lows = np.minimum.reduceat(distances, segments[: c1 - c0 + 1], axis=1)  # and all later columns
                lows[mine] = math.inf
                largest, smallest = max(largest, highs[mine].max()), min(smallest, lows.min())
            if tails is not None:
                tails.add(distances, upper[:square, :square])
        if rows is not None:  # sums to means, with no other cluster at a point's own
            rows /= self.sizes
            rows[index, labels] = math.inf
        total = math.fsum(pair_sums)
        # one cluster's pairs are all the pairs, so its pair sum is the total, not a second sum of them
        within = (own, np.add.reduceat(own, starts) / 2 if k > 1 else np.array([total]), total)
        reduced: dict[str, Any] = {"rows": rows, "within": within, "extremes": (float(largest), float(smallest))}
        if tails is not None:
            low, high = tails.sums()
            # past P / 2, the w smallest are all but the m largest, and the w largest all but the m smallest
            reduced["tails"] = (total - high, total - low) if w > n_pairs - w else (low, high)
        return {name: value for name, value in reduced.items() if name in wanted}


class _Tails:
    """Exact sums of the ``m`` smallest and the ``m`` largest of a stream of at
    least 2m values, in a buffer of ``capacity``: 3m plus the largest block,
    or the whole stream. Values past the low or the high cut are buffered;
    past 3m of them, partitions keep each end's m and move the cuts to the
    innermost of those, so a value between the cuts is dropped at once."""

    def __init__(self, m: int, capacity: int) -> None:
        self.m, self.count, self.buffer = m, 0, np.empty(capacity)
        self.low, self.high = math.inf, -math.inf

    def add(self, block: np.ndarray, upper: np.ndarray) -> None:
        """Take a 2-D block of values, but of its first columns, as many as
        ``upper`` has, only those where ``upper`` is true."""
        keep = (block < self.low) | (block > self.high)
        keep[:, : upper.shape[1]] &= upper
        kept = block[keep]
        self.buffer[self.count : self.count + kept.size] = kept
        self.count += kept.size
        if self.count > 3 * self.m:
            self._prune()

    def _prune(self) -> None:
        m, count, held = self.m, self.count, self.buffer[: self.count]
        held.partition(m - 1)
        held[m:].partition(count - 2 * m)  # one kth at a time: numpy selects a tuple of them far slower
        self.low, self.high = held[m - 1], held[count - m]
        held[m : 2 * m] = held[count - m :]
        self.count = 2 * m

    def sums(self) -> tuple[float, float]:
        """The sums of the m smallest values and of the m largest."""
        self._prune()
        return float(self.buffer[: self.m].sum()), float(self.buffer[self.m : 2 * self.m].sum())


def scale_dataset(dataset: Dataset, factor: float) -> Dataset:
    """Multiply every coordinate by ``factor`` (finite and nonzero; 0 would collapse the data)."""
    factor = _scalar(factor, "scale factor")
    if factor == 0 or not math.isfinite(factor):
        raise ValueError(f"scale factor must be finite and nonzero, got {factor}")
    with np.errstate(over="ignore"):  # an overflowed coordinate is infinite, which Dataset rejects
        return Dataset(dataset.points * factor)


def shift_dataset(dataset: Dataset, offset: float) -> Dataset:
    """Add the finite ``offset`` to every coordinate of every point."""
    offset = _scalar(offset, "shift offset")
    if not math.isfinite(offset):
        raise ValueError(f"shift offset must be finite, got {offset}")
    with np.errstate(over="ignore"):  # an overflowed coordinate is infinite, which Dataset rejects
        return Dataset(dataset.points + offset)


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
    distances. The rows are cast at once by :func:`_real`, and walked only if
    that fails or the table is not r x 3; if every row is three values, the
    cast's own error is raised.
    """
    rows, table = merges if isinstance(merges, np.ndarray) else list(merges), None
    with suppress(ValueError):
        table = _real(rows, "merges")
    if table is None or table.shape[1:] != (3,):
        for row, values in enumerate(rows, start=1):
            try:
                count = len(values)
            except TypeError:  # a bare number
                count = None
            if count != 3:
                raise ValueError(f"merge row {row}: expected 3 values (left, right, distance), got {values!r}")
        table = _real(rows, "merges").reshape(len(rows), 3)
    return Dendrogram(n_points, table[:, :2], table[:, 2])


def _minimum_spanning_tree(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Prim's algorithm on the complete Euclidean graph: the join order (n
    point ids, point 0 first) and each joiner's distance to the tree (n-1).

    Prim runs on squared keys over the points still outside the tree, which
    fill the first m columns of one (d+2) x (n-1) table: coordinates
    (coordinate-major, as the kernel reads them), key and id, so a join moves
    one column. Each step is one call of :func:`_squares`, from the newest
    tree point, held as a d x 1 column, to the m outside points, so each pair
    is computed once: O(N^2 d) time, O(N d) memory. sqrt is correctly rounded
    and monotone, so the tree is minimal for the distances too, and the keys'
    square roots, taken once, have the distance pass's bits. Among equal keys
    the first column joins. The loop runs under :func:`_kernel_buffer`: its
    other ufuncs (``minimum``, ``argmin``, the comparison, ``sqrt``) are
    exact whatever numpy's buffer size.
    """
    n, d = points.shape
    table = np.empty((d + 2, n - 1))
    columns, keys, ids = table[:d], table[d], table[d + 1]
    columns[:], keys[:], ids[:] = points[1:].T, np.inf, np.arange(1, n)
    rows = points[:, :, None]  # each point as a d x 1 column
    order = np.zeros(n, dtype=np.intp)  # point 0 starts the tree
    squares = np.empty(n - 1)
    current = 0
    with _kernel_buffer():
        for m in range(n - 1, 0, -1):
            outside = keys[:m]
            np.minimum(outside, _squares(columns[:, :m], rows[current]), out=outside)
            j = int(outside.argmin())
            current = order[n - m] = int(ids[j])
            squares[n - 1 - m] = outside[j]
            table[:, j] = table[:, m - 1]
    return order, np.sqrt(squares, out=squares)


def _pair_order_tree(points: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Prim's algorithm as in :func:`_minimum_spanning_tree`, with point pairs
    ordered by (distance, smaller id, larger id): each joiner's tree point, the
    joiner and their distance, one entry per edge in join order.

    Each outside point keeps its nearest tree point, and on an equal distance
    the smaller id: for a fixed point p, the pair (p, x) precedes (p, y)
    exactly when x < y. The point that joins next is the one whose (distance,
    smaller id, larger id) is least. Under that order no two pairs tie, as in
    Edelsbrunner & Mücke's Simulation of Simplicity (1990), so the tree is the
    one spanning tree minimal under it. The keys are distances, not squares:
    two squares can round to one distance. Each step is one call of
    :func:`_squares`, square-rooted in place; the points are rescaled by
    :func:`_scaled`, so no key is infinite. The loop runs under
    :func:`_kernel_buffer`, as :func:`_minimum_spanning_tree`'s does: its
    comparisons, masked copies, ``argmin`` and ``lexsort`` are exact
    whatever numpy's buffer size.
    """
    n, d = points.shape
    table = np.empty((d + 3, n - 1))  # coordinates, key, id and nearest tree point
    columns, keys, ids, nears = table[:d], table[d], table[d + 1], table[d + 2]
    columns[:], keys[:], ids[:], nears[:] = points[1:].T, np.inf, np.arange(1, n), 0
    rows = points[:, :, None]  # each point as a d x 1 column
    edges = np.empty((3, n - 1))  # each edge's key, id and nearest tree point
    current = 0
    with _kernel_buffer():
        for m in range(n - 1, 0, -1):
            key, near = keys[:m], nears[:m]
            lengths = _squares(columns[:, :m], rows[current])
            np.sqrt(lengths, out=lengths)
            closer = lengths < key
            closer |= (lengths == key) & (near > current)
            np.copyto(key, lengths, where=closer)
            np.copyto(near, current, where=closer)
            j = int(key.argmin())
            tied = key == key[j]
            if np.count_nonzero(tied) > 1:
                ties = np.flatnonzero(tied)
                j = ties[np.lexsort((np.maximum(ids[ties], near[ties]), np.minimum(ids[ties], near[ties])))[0]]
            edges[:, n - 1 - m] = table[d:, j]
            current = int(ids[j])
            table[:, j] = table[:, m - 1]
    return edges[2].astype(np.intp), edges[1].astype(np.intp), edges[0]


def _ints(values: np.ndarray) -> array[int]:
    """``values`` as 8-byte ints, which a Python loop reads without an int object held per entry."""
    return array("q", values.astype(np.int64).tobytes())


def single_linkage(dataset: Dataset) -> Dendrogram:
    """Agglomerative single-linkage dendrogram over a dataset of >= 2 points.

    Merges the closest pair of clusters under minimum inter-cluster distance,
    with point pairs ordered by (distance, smaller id, larger id), so that no
    two pairs tie and the result is deterministic. Built as Gower & Ross
    (1969) do: Kruskal over a minimum spanning tree, its edges sorted by that
    order and merged with union-find, in O(N^2) time and O(N) memory beyond
    the points. Prim's fast pass gives the tree's lengths, which are the merge
    heights. When no two lengths are equal every tie rule gives the same
    dendrogram, and as in Sibson's SLINK (1973) the join order carries it: at
    any height h the clusters are the maximal runs of the order whose joiners
    after the first joined at most h from the tree, so each joiner's edge may
    link it to the point that joined just before it. When a length repeats,
    :func:`_pair_order_tree` finds the one tree minimal under the pair order.
    Both run on the points rescaled by :func:`_scaled`, and the heights are
    scaled back; ValueError when a height passes the largest float.
    """
    n = dataset.n_points
    if n < 2:
        raise ValueError("single linkage needs at least 2 points")
    exponent, points = _scaled(dataset.points)
    joined, lengths = _minimum_spanning_tree(points)
    ends = joined[:-1], joined[1:]
    if (np.diff(np.sort(lengths)) == 0).any():  # a repeated length: the pair order picks the tree
        *ends, lengths = _pair_order_tree(points)
    low, high = np.minimum(*ends), np.maximum(*ends)
    order = np.lexsort((high, low, lengths))
    parent, label = array("q", range(n)), array("q", range(n))  # a root's cluster id in label
    merges = array("q")  # the merged id pairs, flat: a seventh of the bytes of a list of tuples
    for new_id, a, b in zip(range(n, 2 * n - 1), _ints(low[order]), _ints(high[order])):
        while parent[a] != a:  # path halving
            parent[a] = a = parent[parent[a]]
        while parent[b] != b:
            parent[b] = b = parent[parent[b]]
        merges.extend(sorted((label[a], label[b])))
        parent[b], label[a] = a, new_id
    with np.errstate(over="ignore"):  # a height past the largest float is infinite, and raises below
        heights = np.ldexp(lengths[order], exponent)  # the largest last
    if heights[-1] == math.inf:
        raise ValueError("single linkage: a merge height overflowed to inf; the coordinates are too large")
    return Dendrogram(n, np.frombuffer(merges, dtype=np.int64).reshape(n - 1, 2), heights)
