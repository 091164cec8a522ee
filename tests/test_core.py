import math
import tracemalloc
import warnings
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cluster_simplicity import (
    PARTITION_INDEX_IDS,
    Dataset,
    Dendrogram,
    DistanceMatrix,
    Partition,
    UNDEFINED,
    Undefined,
    dendrogram_from_merges,
    evaluate_many,
    is_defined,
    pairwise_distances,
    radius_centroid,
    scale_dataset,
    shift_dataset,
    single_linkage,
    synthetic_dataset,
    SYNTHETIC_DATASET_IDS,
)
from cluster_simplicity import core
from cluster_simplicity.core import ClusterStats, _Tails, _distance_blocks, _row_blocks, _squares

import oracles

SQRT2 = 1.4142135623730951

P1 = (0.0, 0.0, 1.0)
P2 = (0.0, 1.0, 0.0)
P3 = (1.0, 0.0, 0.0)


# half-integer coordinates keep the affine-transform checks well conditioned
grid_coord = st.integers(min_value=-100, max_value=100).map(lambda v: v / 2.0)


def point_sets(min_points=1, max_points=10, dim=3):
    return st.lists(
        st.lists(grid_coord, min_size=dim, max_size=dim),
        min_size=min_points,
        max_size=max_points,
    ).map(np.array)


@st.composite
def labelled_points(draw, max_points=12, dim=3):
    """Points and their labels; coordinates in -1..1 make coincident points common."""
    n = draw(st.integers(1, max_points))
    coord = st.one_of(st.integers(-1, 1).map(float), grid_coord)
    pts = draw(st.lists(st.lists(coord, min_size=dim, max_size=dim), min_size=n, max_size=n))
    k = draw(st.integers(1, n))
    extra = draw(st.lists(st.integers(0, k - 1), min_size=n - k, max_size=n - k))
    return np.array(pts), np.array(draw(st.permutations(list(range(k)) + extra)))


@st.composite
def shifted_clusters(draw):
    """Points and labels of up to 5 clusters of 1-6 members in 1-4 dimensions:
    unit-box coordinates scaled by a spread of 2^-30 to 2^30 and shifted by up
    to 1e6 spreads per coordinate. About half the clusters are one point
    repeated, so their members coincide whatever the shift."""
    dim = draw(st.integers(1, 4))
    spread = 2.0 ** draw(st.integers(-30, 30))
    shift = np.array(draw(st.lists(st.floats(-1e6, 1e6), min_size=dim, max_size=dim))) * spread
    point = st.lists(st.floats(-1.0, 1.0), min_size=dim, max_size=dim)
    rows, labels = [], []
    for label in range(draw(st.integers(1, 5))):
        size = draw(st.integers(1, 6))
        rows += [draw(point)] * size if draw(st.booleans()) else draw(st.lists(point, min_size=size, max_size=size))
        labels += [label] * size
    order = np.array(draw(st.permutations(range(len(labels)))))
    return shift + spread * np.array(rows)[order], np.array(labels)[order]


@st.composite
def scaled_duplicated_points(draw):
    """2-60 points in 1-24 dimensions, drawn from a pool of distinct rows, so
    that duplicate points are common, and scaled by a power of two. Past 8
    dimensions numpy's own summation order would differ from the kernel's."""
    n, dim = draw(st.integers(2, 60)), draw(st.integers(1, 24))
    row = st.lists(st.floats(-1e3, 1e3), min_size=dim, max_size=dim)
    pool = draw(st.lists(row, min_size=1, max_size=n))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=n, max_size=n))
    return np.array([pool[i] for i in picks]) * 2.0 ** draw(st.integers(-30, 30))


@st.composite
def duplicated_float_points(draw):
    """2-30 points in 1-4 dimensions, drawn from a pool of 1-8 distinct float
    rows: distances tie at 0 and between the copies of one pair, on
    non-integer coordinates."""
    n, dim = draw(st.integers(2, 30)), draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pool = rng.standard_normal((draw(st.integers(1, 8)), dim)) * 10.0 ** draw(st.integers(-3, 3))
    return pool[rng.integers(0, len(pool), n)]


def _centroids(points, labels):
    return ClusterStats(Partition(labels), points=np.array(points)).clusters[0]


def _grouping(labels):
    clusters = {}
    for index, label in enumerate(labels):
        clusters.setdefault(int(label), set()).add(index)
    return frozenset(frozenset(members) for members in clusters.values())


@st.composite
def small_clouds(draw):
    """2-40 points in 1-3 dimensions: a small integer grid, rows drawn from a
    small pool (so duplicates are common), or standard Gaussians."""
    n, dim = draw(st.integers(2, 40)), draw(st.integers(1, 3))
    kind = draw(st.sampled_from(["grid", "duplicates", "gaussian"]))
    if kind == "grid":
        row = st.lists(st.integers(-2, 2).map(float), min_size=dim, max_size=dim)
        return np.array(draw(st.lists(row, min_size=n, max_size=n)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "duplicates":
        pool = rng.standard_normal((draw(st.integers(1, n)), dim))
        return pool[rng.integers(0, len(pool), n)]
    return rng.standard_normal((n, dim))


def _merge_rows(dendrogram):
    return [
        (left, right, distance)
        for (left, right), distance in zip(dendrogram.merges.tolist(), dendrogram.distances.tolist())
    ]


def _tied_inputs():
    """Inputs whose tied runs hold several clusters, small enough for the closest-pair scan."""
    grid = [[float(x), float(y)] for x in range(9) for y in range(9)]
    # each block of five is one point of each of four cliques, then a distinct point,
    # so the distance-0 run holds four groups whose merges interleave
    corners, others = [[0, 0], [9, 0], [0, 9], [9, 9]], [[2, 5], [4, 1], [5, 7], [7, 4], [3, 3]]
    cliques = [[float(c) for c in p] for other in others for p in corners + [other]]
    # at distance 1 a run of six points ties with four pairs, and far off four pairs
    # tie in a chain; the two groups' points alternate, so their cluster ids interleave
    star = [(x / 2, 0) for x in range(6)]
    star += [(0, 1), (0, 1.5), (1, -1), (1, -1.5), (2, 1), (2, 1.5), (3.5, 0), (4, 0)]
    chain = [(10 + x, y) for x in range(3) for y in (0, 0.5)] + [(11, 1.5), (11, 2)]
    mixed = [[float(c) for c in p] for i in range(len(star)) for p in star[i : i + 1] + chain[i : i + 1]]
    # 15 far-apart triples, rows shuffled: spacings 1..15 make 15 tied runs of two edges;
    # one spacing makes one run of 15 groups, and the equal gaps a run of one 15-cluster group
    shuffle = np.random.default_rng(5).permutation(45).tolist()
    spaced = [[100.0 * i + (i + 1) * step] for i in range(15) for step in range(3)]
    spaced = [spaced[i] for i in shuffle]
    even = [[100.0 * i + step] for i in range(15) for step in range(3)]
    even = [even[i] for i in shuffle]
    # at distance 10 each copy's pair, block and pair join in that order, so each group's
    # largest cluster is in the middle of the join order; the blocks hold 3, 4 and 5 points
    rotated = [[1000.0 * copy + x] for copy in range(3) for x in (0, 2, *range(12, 15 + copy), 24 + copy, 26 + copy)]
    return grid, cliques, mixed, spaced, even, rotated


def _random_merges(draw, n):
    """A valid merge table over ``n`` points: each row joins two active ids
    drawn at random, so it holds merge orders single linkage never makes."""
    active, merges = list(range(n)), []
    for new_id in range(n, 2 * n - 1):
        left = active.pop(draw(st.integers(0, len(active) - 1)))
        right = active.pop(draw(st.integers(0, len(active) - 1)))
        merges.append([left, right])
        active.append(new_id)
    return merges


@st.composite
def merge_tables(draw):
    n = draw(st.integers(min_value=1, max_value=40))
    return n, _random_merges(draw, n)


@st.composite
def corrupted_merge_tables(draw):
    """A random valid merge table over 2-8 points, as float id pairs and
    distances, with up to three rows corrupted."""
    n = draw(st.integers(min_value=2, max_value=8))
    merges = [[float(left), float(right)] for left, right in _random_merges(draw, n)]
    gaps = draw(st.lists(st.sampled_from([0.0, 0.5, 1.0, 3.0]), min_size=n - 1, max_size=n - 1))
    distances = np.cumsum(gaps).tolist()
    for _ in range(draw(st.integers(0, 3))):
        row = draw(st.integers(0, n - 2))
        side = draw(st.integers(0, 1))
        kind = draw(st.sampled_from(["id", "reuse", "self", "distance", "decrease"]))
        if kind == "id":
            merges[row][side] = draw(st.sampled_from([
                merges[row][side] + 0.5, math.nan, math.inf, -math.inf, -1.0, -0.0, float(n + row),
                float(n + row + 1), 1e300,
            ]))
        elif kind == "reuse":
            merges[row][side] = draw(st.sampled_from([cid for pair in merges for cid in pair]))
        elif kind == "self":
            merges[row][side] = merges[row][1 - side]
        elif kind == "distance":
            distances[row] = draw(st.sampled_from([math.nan, math.inf, -math.inf, -1.0, -0.0]))
        else:
            distances[row] = distances[row - 1] - draw(st.sampled_from([0.25, 5.0])) if row else -0.5
    return n, merges, distances


class TestUndefined:
    def test_singleton(self):
        assert Undefined() is UNDEFINED
        assert repr(UNDEFINED) == "undefined"
        assert not UNDEFINED
        assert not is_defined(UNDEFINED)
        assert is_defined(1.0)

    @pytest.mark.parametrize(
        "use",
        [
            lambda u: u + 1.0,
            lambda u: 1.0 + u,
            lambda u: u * 3,
            lambda u: 2.0 / u,
            lambda u: u - u,
            lambda u: -u,
            lambda u: abs(u),
            lambda u: u**2,
            lambda u: float(u),
        ],
    )
    def test_arithmetic_raises(self, use):
        # an undefined result never turns back into a number
        with pytest.raises(TypeError):
            use(UNDEFINED)


class TestEuclideanDistance:
    def test_identical_points(self):
        assert np.array_equal(pairwise_distances([P1, P1]), np.zeros((2, 2)))

    def test_unit_simplex_pairs(self):
        dm = pairwise_distances([P1, P2, P3])
        assert np.array_equal(dm, dm.T)
        assert not dm.diagonal().any()
        assert dm[np.triu_indices(3, k=1)] == pytest.approx([SQRT2] * 3, rel=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="points must have rows of equal length"):
            pairwise_distances([(0.0, 1.0), (0.0, 1.0, 2.0)])

    def test_a_distance_past_the_largest_float_is_infinite(self):
        # the pair is 4.8e308 apart, past the largest float; the rescaled pass is not
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            dm = pairwise_distances([[1.7e308, 1.7e308], [-1.7e308, -1.7e308]])
        assert dm.tolist() == [[0.0, math.inf], [math.inf, 0.0]]


class TestCentroid:
    def test_singleton(self):
        assert np.array_equal(_centroids([P1], [0]), [P1])

    def test_two_points(self):
        assert np.allclose(_centroids([P2, P3], [0, 0]), [[0.5, 0.5, 0.0]])

    def test_three_points(self):
        assert np.allclose(_centroids([P1, P2, P3], [0, 0, 0]), [[1 / 3, 1 / 3, 1 / 3]])

    @given(labelled_points(), st.integers(-40, 40))
    @settings(max_examples=200, deadline=None)
    def test_grid_centroids_are_the_exact_mean_rounded_once(self, pts_labels, scale):
        # on a grid every offset sum is exact, so each centroid must be the
        # exact mean rounded once: equal exact centroids then compare equal
        pts, labels = pts_labels
        pts = np.ldexp(pts, scale)
        for label, row in enumerate(_centroids(pts, labels)):
            members = pts[labels == label]
            exact = [float(sum(map(Fraction, column.tolist())) / len(members)) for column in members.T]
            assert row.tolist() == exact


class TestRadii:
    def test_radius_coincident(self):
        assert radius_centroid([P1, P1, P1]) == 0.0

    def test_radius_two_points(self):
        # centroid (0.5, 0.5, 0), both members sqrt(0.5) away
        assert radius_centroid([P2, P3]) == pytest.approx(0.7071067811865476, rel=1e-12)

    def test_radius_simplex(self):
        # all three points are sqrt(6)/3 from (1/3, 1/3, 1/3)
        assert radius_centroid([P1, P2, P3]) == pytest.approx(0.816496580927726, rel=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            radius_centroid(np.empty((0, 3)))

    @pytest.mark.parametrize(
        "pts, value", [([[1e308, 1e308], [-1e308, -1e308]], 1e308 * SQRT2), ([[1e300, 0.0], [-1e300, 0.0]], 1e300)]
    )
    def test_radius_near_the_largest_float_without_a_warning(self, pts, value):
        # unscaled, the first pair's offsets would overflow to nan, the second's squares to inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert radius_centroid(pts) == pytest.approx(value, rel=1e-15)

    def test_a_small_offset_beside_a_large_coordinate_keeps_its_value(self):
        # the pair's largest magnitude, 2^450, is rescaled to the top of the band, 2^399,
        # where the offset 2^-151 still squares to a normal float
        pts = [[2.0**450, 0.0], [2.0**450, 2.0**-100]]
        assert radius_centroid(pts) == 2.0**-101
        assert pairwise_distances(pts).tolist() == [[0.0, 2.0**-100], [2.0**-100, 0.0]]
        # and dunn reads the pair's diameter, not two coincident points
        assert evaluate_many(["dunn"], Dataset(pts + [[0.0, 0.0]]), Partition(np.array([0, 0, 1]))) == [2.0**550]

    def test_overflow_raises_without_a_warning(self):
        # the radius itself, |(1.7e308, 1.7e308)|, passes the largest float
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            message = "radius_centroid: the radius overflowed to inf; the inputs are too large"
            with pytest.raises(ValueError, match=message):
                radius_centroid([[1.7e308, 1.7e308], [-1.7e308, -1.7e308]])

    @given(point_sets())
    @settings(max_examples=60, deadline=None)
    def test_matches_oracle(self, pts):
        assert radius_centroid(pts) == pytest.approx(oracles.centroid_radius(pts.tolist()), abs=1e-12)

    @given(point_sets())
    @settings(max_examples=60, deadline=None)
    def test_affine_homogeneity(self, pts):
        # f(a*X + b) == |a| * f(X)
        reference = radius_centroid(pts)
        for a in (-2.0, 0.5, 3.0):
            for b in (-5.0, 7.0):
                transformed = radius_centroid(pts * a + b)
                assert transformed == pytest.approx(abs(a) * reference, rel=1e-9, abs=1e-12)

    @given(point_sets())
    @settings(max_examples=60, deadline=None)
    def test_zero_iff_coincident(self, pts):
        coincident = bool(np.all(pts == pts[0]))
        assert (radius_centroid(pts) == 0.0) == coincident

    def test_input_layout_does_not_change_the_bits(self):
        # np.array keeps a transpose Fortran-ordered; the differences are laid
        # out in C order whatever the inputs' order, so the coordinates are
        # still summed one at a time, in order
        for d in (3, 8, 33, 64):
            pts = np.random.default_rng(37).normal(size=(40, d))
            fortran = np.asfortranarray(pts)
            assert fortran.flags.f_contiguous and not fortran.flags.c_contiguous
            [(start, stop, full)] = _distance_blocks(pts)  # 40 points are one block
            assert (start, stop) == (0, 40)
            assert [(s, e, b.tobytes()) for s, e, b in _distance_blocks(fortran)] == [(0, 40, full.tobytes())], d
            # the kernel on Fortran-ordered columns, against a stack of rows of either order and
            # against each row as Prim's d x 1 column
            columns = np.array(pts.T)
            assert columns.flags.f_contiguous and not columns.flags.c_contiguous
            for rows in (fortran[:, :, None], pts[:, :, None]):
                assert np.sqrt(_squares(columns, rows)).tobytes() == full.tobytes(), d
                assert all(np.sqrt(_squares(columns, rows[i])).tobytes() == full[i].tobytes() for i in range(40)), d

    def test_many_blocks_match_the_full_matrix(self):
        # 300 points span three blocks of the distance pass. Whatever the block,
        # a distance comes out the same, at every d: from the matrix, from each
        # block of the pass, from a one-row call, from a one-column call and
        # from the kernel's one d x 1 row, so that single linkage's distances
        # agree exactly. At d >= 33 a block takes several kernel calls.
        assert len(list(_row_blocks(300))) >= 3
        part = Partition(np.zeros(300, dtype=int))
        for d in (1, 2, 3, 8, 33, 64):
            pts = np.random.default_rng(31).normal(size=(300, d))
            columns = np.ascontiguousarray(pts.T)
            full = pairwise_distances(pts)
            assert np.array_equal(full, full.T), d
            spans = []
            for start, stop, block in _distance_blocks(pts):
                assert block.tobytes() == full[start:stop, start:].tobytes(), (d, start)
                spans.append((start, stop))
            assert spans == list(_row_blocks(300)), d
            rows = pts[:, :, None]  # each point as a d x 1 column, stacked as a block's rows are
            assert all(np.sqrt(_squares(columns, rows[i : i + 1]))[0].tobytes() == full[i].tobytes() for i in range(300)), d
            # the unit-width path: a stack of every point against the last one
            assert np.sqrt(_squares(columns[:, -1:], rows)).tobytes() == full[:, -1:].tobytes(), d
            # the call each Prim step makes: one d x 1 row against the first w points
            for w in (1, 2, 300):
                roots = [np.sqrt(_squares(columns[:, :w], rows[i])) for i in range(300)]
                assert all(r.tobytes() == full[i, :w].tobytes() for i, r in enumerate(roots)), (d, w)
            stats = ClusterStats(part, points=pts, reductions=["within", "extremes"])
            assert stats.reduced("extremes")[0] == full.max(), d
            from_matrix = ClusterStats(part, distances=full, reductions=["within"])
            own, (within,), total = stats.reduced("within")
            assert np.array_equal(own, from_matrix.reduced("within")[0]), d
            pair_sum = full[np.triu_indices(300, k=1)].sum()
            assert within == pytest.approx(pair_sum, rel=1e-15) and total == pytest.approx(pair_sum, rel=1e-15), d

    def test_the_kernel_sums_in_coordinate_order(self):
        # each squared distance is ((x0^2 + x1^2) + x2^2) + ..., rounded at every step, for a
        # d x 1 column and for stacks of them, at widths from one point up. At w = 1 einsum
        # would make the coordinates its inner loop and sum them with partial sums; the unit-width
        # guard keeps them in order. A numpy whose einsum fuses the multiply-add (NEON on
        # aarch64) rounds each step once: there every mismatch must be that fused sum
        rng = np.random.default_rng(59)
        fused = 0
        for d in (1, 2, 3, 8, 33, 64):
            for w in (1, 2, 3, 300):
                columns = rng.normal(size=(d, w)) * 2.0 ** rng.integers(-8, 9, size=(d, 1))
                rows = rng.normal(size=(100, d, 1))
                diff = columns - rows
                ordered = diff[:, 0] ** 2
                for coordinate in range(1, d):
                    ordered = ordered + diff[:, coordinate] ** 2
                calls = [(_squares(columns, rows), ordered, diff)]
                calls += [(_squares(columns, rows[i]), ordered[i], diff[i]) for i in range(0, 100, 9)]
                for squares, expected, differences in calls:
                    assert squares.shape == expected.shape, (d, w)
                    coordinates = np.moveaxis(differences, -2, -1)  # each distance's d differences, in order
                    for at in zip(*np.nonzero(squares != expected)):
                        assert squares[at] == _fused_sum_of_squares(coordinates[at]), (d, w, at)
                        fused += 1
        if fused:
            pytest.skip(f"this numpy's einsum fuses its multiply-add: {fused} sums were rounded once a step")

    def test_the_kernel_buffer_keeps_the_bits(self):
        # the kernel runs under a 16-float ufunc buffer; under numpy's default
        # 8192 it gives the same bits, at every d and at widths from one point
        # to past the default buffer: for Prim's d x 1 row against a slice of
        # its table and for a pass block's stack of rows against its columns
        rng = np.random.default_rng(43)
        for d in (1, 2, 3, 8, 33, 64):
            pts = rng.normal(size=(8193, d)) * 2.0 ** rng.integers(-20, 20, size=(8193, 1))
            table = np.empty((d + 2, 8193))  # coordinates, then Prim's key and id rows
            table[:d] = pts.T
            columns, rows = np.ascontiguousarray(pts.T), pts[:, :, None]

            def calls():
                for w in (1, 2, 300, 8193):
                    yield from (_squares(table[:d, :w], rows[i]) for i in (0, 4096, 8192))
                    yield _squares(columns[:, 8193 - w :], rows[:3])

            previous = np.setbufsize(8192)
            try:
                default = [squares.tobytes() for squares in calls()]
            finally:
                np.setbufsize(previous)
            with core._kernel_buffer():
                assert np.getbufsize() == 16
                assert [squares.tobytes() for squares in calls()] == default, d

    @given(point_sets(min_points=2))
    @settings(max_examples=60, deadline=None)
    def test_bounded_by_diameter(self, pts):
        assert radius_centroid(pts) <= oracles.diameter(pts.tolist()) + 1e-12

    @given(shifted_clusters())
    @example((np.array([[0.0], [1e-323]]), np.array([0, 0])))
    @example((np.array([[1.0, 0.0], [1.0, 1.87e-188]]), np.array([0, 0])))
    @settings(max_examples=200, deadline=None)
    def test_radii_match_the_exact_oracle(self, case):
        # offsets from each cluster's first member: within 1e-14 of the exact
        # radius at any spread and shift, and exactly 0 for coincident members.
        # The limit the README states: in the units of 2^exponent the points are
        # scored in, an offset below about 2^-537 squares to a subnormal or to 0,
        # so the radius may also be off by that much (the second example reads 0).
        # A radius below the smallest normal float is rounded on the subnormal grid,
        # by the oracle's distances and by the scale back, so the two may be off by
        # an ulp or two of that grid (the first example's exact radius is 5e-324)
        pts, labels = case
        stats = ClusterStats(Partition(labels), points=pts)
        radii = np.ldexp(stats.clusters[2], stats.exponent)  # in raw units
        floor = math.ldexp(1.0, stats.exponent - 530) + 2 * math.ulp(0.0)
        clusters = [pts[labels == label] for label in range(len(radii))]
        for radius, members in [*zip(radii, clusters), (radius_centroid(pts), pts)]:
            exact = oracles.centroid_radius_exact(members.tolist())
            if (members == members[0]).all():
                assert radius == 0.0, radius
            else:
                assert abs(radius - exact) <= 1e-14 * exact + floor, (radius, exact)

    @given(shifted_clusters())
    @settings(max_examples=60, deadline=None)
    def test_one_cluster_radius_is_radius_centroid(self, case):
        # one slice of one routine: the same bits from ClusterStats and radius_centroid,
        # whose statistics are in units of 2^exponent
        pts, _ = case
        stats = ClusterStats(Partition(np.zeros(len(pts), dtype=int)), points=pts)
        cluster, whole = math.ldexp(stats.clusters[2][0], stats.exponent), math.ldexp(stats.whole[2][0], stats.exponent)
        assert cluster == radius_centroid(pts) == whole

    @pytest.mark.parametrize("block", [1, 40, core._BLOCK])
    def test_merge_radii_are_the_merged_clusters_radii(self, block, monkeypatch):
        # each merge's cluster is one slice of the leaf order; gathered in chunks of any
        # size, its radius has the bits of radius_centroid on that slice
        monkeypatch.setattr(core, "_BLOCK", block)
        pts = np.random.default_rng(3).normal(size=(40, 3))
        tree = single_linkage(Dataset(pts))
        sizes, radii, radius = core._merge_radii(pts, tree)
        order, start, size = tree._layout
        clusters = [pts[order][start[c] : start[c] + size[c]] for c in range(40, 79)]
        assert sizes.tolist() == [len(members) for members in clusters]
        assert radii.tolist() == [radius_centroid(members) for members in clusters]
        assert radius == radius_centroid(pts)
        sizes, radii, radius = core._merge_radii(np.full((5, 2), 0.1), single_linkage(Dataset(np.full((5, 2), 0.1))))
        assert (sizes.tolist(), radii.tolist(), radius) == ([2, 3, 4, 5], [0.0] * 4, 0.0)
        sizes, radii, radius = core._merge_radii(np.ones((1, 2)), dendrogram_from_merges(1, []))
        assert (sizes.tolist(), radii.tolist(), radius) == ([], [], 0.0)


def _fused_sum_of_squares(differences: np.ndarray) -> float:
    """round(acc + x^2) over ``differences`` in order, each step exact before its one rounding."""
    acc = 0.0
    for x in differences.tolist():
        acc = float(Fraction(acc) + Fraction(x) ** 2)
    return acc


class TestWithinClusterSums:
    """The within-cluster sums and the extremes of ``ClusterStats`` against the loop oracles."""

    @given(labelled_points())
    @example((np.array([P1]), np.array([0])))
    @example((np.array([P2, P3]), np.array([0, 0])))
    @example((np.array([P1, P2, P3]), np.array([0, 0, 0])))
    @example((np.array([P1, P1, P1, P2]), np.array([0, 0, 1, 0])))
    @settings(max_examples=100, deadline=None)
    def test_match_oracles(self, data):
        pts, labels = data
        members = [pts[labels == c].tolist() for c in range(labels.max() + 1)]
        between = [oracles.dist(p, q) for i, p in enumerate(pts) for j, q in enumerate(pts) if labels[i] != labels[j]]
        # f(a*X + b) == |a| * f(X): the oracles read the untransformed points
        for a, b in ((1.0, 0.0), (-2.0, 7.0), (0.5, -5.0)):
            stats = ClusterStats(Partition(labels), points=pts * a + b, reductions=["within", "extremes"])
            (own, sums, total), (largest, smallest) = stats.reduced("within"), stats.reduced("extremes")
            for point, p in enumerate(pts[np.argsort(labels, kind="stable")]):  # own is in label order
                mine = members[stats.sorted_labels[point]]
                expected = sum(oracles.dist(p.tolist(), q) for q in mine)
                assert own[point] == pytest.approx(abs(a) * expected, rel=1e-9, abs=1e-12)
            for c, size in enumerate(stats.sizes):
                mean = sums[c] / max(size * (size - 1) // 2, 1)  # a singleton sums to 0
                assert mean == pytest.approx(abs(a) * oracles.mean_pairwise(members[c]), rel=1e-9, abs=1e-12)
            n = len(pts)
            assert total / max(n * (n - 1) // 2, 1) == pytest.approx(
                abs(a) * oracles.mean_pairwise(pts.tolist()), rel=1e-9, abs=1e-12
            )
            diameter = max(oracles.diameter(group) for group in members)
            assert largest == pytest.approx(abs(a) * diameter, rel=1e-9, abs=1e-12)
            assert (largest == 0.0) == all(m == group[0] for group in members for m in group)
            assert smallest == pytest.approx(abs(a) * min(between, default=math.inf), rel=1e-9, abs=1e-12)


@st.composite
def multi_block_labelled_points(draw):
    """420 to 480 half-grid points, so duplicates and tied distances, in 1-3
    dimensions: three blocks or more of the distance pass. The
    first clusters in label order are singletons. Drawn from a seed, so that
    a failing case shrinks quickly."""
    dim, n, k = draw(st.integers(1, 3)), draw(st.integers(420, 480)), draw(st.integers(2, 40))
    singletons = draw(st.integers(0, k // 2))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    labels = np.concatenate([np.arange(k), rng.integers(singletons, k, n - k)])
    return rng.integers(-3, 4, (n, dim)) / 2.0, rng.permutation(labels)


def _brute_force_pass(points, labels):
    """Row means to the other clusters (infinite at a point's own), each
    point's own-cluster sum with the within-cluster sums and the all-pairs
    total, the largest within-cluster and smallest between-cluster distances,
    and the sorted pair distances, from the full label-ordered matrix a
    cluster pair at a time."""
    order = np.argsort(labels, kind="stable")
    full = pairwise_distances(points)[np.ix_(order, order)]
    sorted_labels = labels[order]
    members = [np.flatnonzero(sorted_labels == c) for c in range(labels.max() + 1)]
    row_means = np.stack([full[:, rows].mean(axis=1) for rows in members], axis=1)
    row_means[np.arange(len(labels)), sorted_labels] = np.inf
    own = np.array([full[point, members[c]].sum() for point, c in enumerate(sorted_labels)])
    within = np.array([full[np.ix_(rows, rows)].sum() / 2 for rows in members])  # each pair twice
    largest = max(full[np.ix_(rows, rows)].max() for rows in members)
    smallest = min(
        (full[np.ix_(rows, columns)].min() for rows in members for columns in members if rows is not columns),
        default=np.inf,
    )
    pairs = np.sort(full[np.triu_indices(len(labels), k=1)])
    return row_means, (own, within, math.fsum(pairs)), (largest, smallest), pairs


class TestDistancePass:
    """Every reduction of the upper-triangle pass, in both ClusterStats forms,
    against the full matrix of :func:`pairwise_distances`."""

    @staticmethod
    def _assert_matches_brute_force(points, labels):
        row_means, (own, within, total), extremes, pairs = _brute_force_pass(points, labels)
        part = Partition(labels)
        for source in ({"points": points}, {"distances": pairwise_distances(points)}):
            stats = ClusterStats(part, reductions=["rows", "within", "extremes", "tails"], **source)
            # sums run in another order than the oracle's; a zero sum has only zero terms
            np.testing.assert_allclose(stats.reduced("rows"), row_means, rtol=1e-12, atol=0)
            np.testing.assert_allclose(stats.reduced("within")[0], own, rtol=1e-12, atol=0)
            np.testing.assert_allclose(stats.reduced("within")[1], within, rtol=1e-12, atol=0)
            assert stats.reduced("within")[2] == pytest.approx(total, rel=1e-12)
            assert stats.reduced("extremes") == extremes
            w = stats.n_within
            tails = ["tails"] if 0 < w < len(pairs) else []
            # made alone, each reduction has the same bits as made with all the others
            for name in ["rows", "within", "extremes", *tails]:
                alone = ClusterStats(part, reductions=[name], **source)
                np.testing.assert_equal(alone.reduced(name), stats.reduced(name))
            if tails:
                smallest, largest = stats.reduced("tails")
                assert smallest == pytest.approx(math.fsum(pairs[:w]), rel=1e-12)
                assert largest == pytest.approx(math.fsum(pairs[-w:]), rel=1e-12)

    @given(multi_block_labelled_points())
    @settings(max_examples=20, deadline=None)
    def test_many_blocks_match_brute_force(self, data):
        pts, labels = data
        assert len(list(_row_blocks(len(pts)))) >= 3
        self._assert_matches_brute_force(pts, labels)

    def test_a_later_block_larger_than_the_first(self):
        # 607 points: the first block is 26 rows of 15431 pairs, the second 28
        # rows of 581 columns and 15862 pairs. Halving the coordinates at each
        # block makes its distances the smallest yet, so the tails' buffer takes
        # a whole block at once, and one singleton makes m = 606 small. In 64-D
        # the kernel takes a block's rows 1 to 12 at a time.
        rng = np.random.default_rng(17)
        spans = list(_row_blocks(607))
        block_of_row = np.repeat(np.arange(len(spans)), [stop - start for start, stop in spans])
        pts = rng.integers(-2, 3, (607, 64)) / 2.0 * 2.0 ** -block_of_row[:, None]
        upper = [(stop - start) * (607 - start) - (stop - start) * (stop - start + 1) // 2 for start, stop in spans]
        assert max(upper) > upper[0] + 400
        self._assert_matches_brute_force(pts, np.array([0] + [1] * 606))


class TestTailsOfAStream:
    """The C-index tails' two-ended selection, against a sort of the whole stream."""

    @given(
        st.lists(st.one_of(grid_coord, st.floats(0, 1e6)), min_size=2, max_size=400),
        st.data(),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_a_sort(self, values, data):
        m = data.draw(st.integers(1, len(values) // 2))
        block = data.draw(st.integers(1, 50))
        tails = _Tails(m, min(3 * m + block, len(values)))
        for start in range(0, len(values), block):
            tails.add(np.array([values[start : start + block]]), np.ones((1, 0), dtype=bool))
        ordered = sorted(values)
        low, high = tails.sums()
        assert low == pytest.approx(math.fsum(ordered[:m]), rel=1e-12, abs=1e-12)
        assert high == pytest.approx(math.fsum(ordered[-m:]), rel=1e-12, abs=1e-12)


class TestSyntheticDatasets:
    def test_x2s(self):
        data, part = synthetic_dataset("X2S")
        assert np.array_equal(data.points, np.array([P1, P2, P3]))
        assert part.labels.tolist() == [0, 1, 1]

    def test_y2s(self):
        data, part = synthetic_dataset("Y2S")
        assert np.array_equal(data.points, np.array([P1, P1, P1]))
        assert part.labels.tolist() == [0, 0, 1]

    def test_x9l(self):
        data, part = synthetic_dataset("X9L")
        assert data.n_points == 9
        assert part.labels.tolist() == list(range(9))
        assert data.points[3].tolist() == [0.0, 0.0, 2.0]
        assert data.points[8].tolist() == [3.0, 0.0, 0.0]

    def test_y_datasets_are_coincident(self):
        for dataset_id in ("Y1S", "Y2S", "Y1L", "Y2L"):
            data, _ = synthetic_dataset(dataset_id)
            assert np.all(data.points == np.array(P1))

    def test_bit_exact_across_calls(self):
        for dataset_id in SYNTHETIC_DATASET_IDS:
            d1, p1 = synthetic_dataset(dataset_id)
            d2, p2 = synthetic_dataset(dataset_id)
            assert np.array_equal(d1.points, d2.points)
            assert np.array_equal(p1.labels, p2.labels)

    def test_unknown_id(self):
        with pytest.raises(ValueError, match="unknown synthetic dataset"):
            synthetic_dataset("X4S")


class TestTransforms:
    def test_scale(self):
        data, _ = synthetic_dataset("X1S")
        scaled = scale_dataset(data, 2.0)
        assert np.array_equal(scaled.points, data.points * 2.0)

    def test_scale_identity(self):
        data, _ = synthetic_dataset("X1S")
        assert np.array_equal(scale_dataset(data, 1.0).points, data.points)

    def test_scale_coincident(self):
        data, _ = synthetic_dataset("Y1S")
        assert np.all(scale_dataset(data, 10.0).points == np.array([0.0, 0.0, 10.0]))

    def test_scale_zero_rejected(self):
        data, _ = synthetic_dataset("X1S")
        with pytest.raises(ValueError, match="nonzero"):
            scale_dataset(data, 0.0)

    def test_shift(self):
        data, _ = synthetic_dataset("X1S")
        shifted = shift_dataset(data, 1.0)
        assert np.array_equal(shifted.points, data.points + 1.0)

    def test_shift_identity(self):
        data, _ = synthetic_dataset("X1S")
        assert np.array_equal(shift_dataset(data, 0.0).points, data.points)

    def test_shift_negative(self):
        data, _ = synthetic_dataset("Y1S")
        assert np.all(shift_dataset(data, -1.0).points == np.array([-1.0, -1.0, 0.0]))

    @pytest.mark.parametrize("factor", [math.inf, -math.inf, math.nan])
    def test_scale_non_finite_rejected(self, factor):
        # an infinite factor times a zero coordinate is NaN: rejected before any
        # arithmetic, so no RuntimeWarning comes first
        data, _ = synthetic_dataset("X1S")
        with pytest.raises(ValueError, match=f"scale factor must be finite and nonzero, got {factor}"):
            scale_dataset(data, factor)

    @pytest.mark.parametrize("offset", [math.inf, -math.inf, math.nan])
    def test_shift_non_finite_rejected(self, offset):
        data, _ = synthetic_dataset("X1S")
        with pytest.raises(ValueError, match=f"shift offset must be finite, got {offset}"):
            shift_dataset(data, offset)

    @pytest.mark.parametrize(
        "value",
        ["2", b"2", " 1e0 ", None, 1 + 2j, 10**400, np.array([2.0]), [1.0, 2.0]],
        ids=["str", "bytes", "padded-str", "none", "complex", "int-past-float", "one-element-array", "list"],
    )
    def test_scalar_must_be_one_real_number(self, value):
        # float() parsed text and read a 1-element array; None, complex and 10**400 raised TypeError or OverflowError
        data, _ = synthetic_dataset("X1S")
        with pytest.raises(ValueError, match="scale factor must be"):
            scale_dataset(data, value)
        with pytest.raises(ValueError, match="shift offset must be"):
            shift_dataset(data, value)

    def test_scalar_of_any_real_type_accepted(self):
        data, _ = synthetic_dataset("X1S")
        for value in (2, np.float32(2.0), np.array(2.0), Fraction(2), Decimal(2), True + True):
            assert np.array_equal(scale_dataset(data, value).points, data.points * 2.0)
            assert np.array_equal(shift_dataset(data, value).points, data.points + 2.0)

    def test_overflowing_transform_rejected_without_warning(self):
        # a finite factor or offset whose result overflows gives infinite coordinates
        data, _ = synthetic_dataset("X9L")
        for transform in (lambda: scale_dataset(data, 1e308), lambda: shift_dataset(shift_dataset(data, 1e308), 1e308)):
            with pytest.raises(ValueError, match="points contain non-finite coordinates"):
                transform()


class TestContainers:
    def test_dataset_read_only(self):
        data, _ = synthetic_dataset("X1S")
        with pytest.raises(ValueError):
            data.points[0, 0] = 5.0

    def test_dataset_rejects_one_dimensional_points(self):
        with pytest.raises(ValueError, match=r"points must be a 2-D array of shape \(n, dim\), got shape \(3,\)"):
            Dataset(np.array([0.0, 1.0, 2.0]))

    @pytest.mark.parametrize(
        "labels, message",
        [
            ([], "labels must be a non-empty 1-D sequence"),
            ([[0, 1], [1, 0]], "labels must be a non-empty 1-D sequence"),
            (["0", "1"], "labels must be integers"),
        ],
        ids=["empty", "2-D", "strings"],
    )
    def test_partition_rejects_empty_2d_and_string_labels(self, labels, message):
        with pytest.raises(ValueError, match=message):
            Partition(labels)

    def test_dataset_rejects_ragged_and_empty(self):
        with pytest.raises(ValueError):
            Dataset(np.empty((0, 2)))
        with pytest.raises(ValueError):
            Dataset([[np.nan, 0.0]])
        # numpy's own message ("inhomogeneous shape") names neither points nor labels
        with pytest.raises(ValueError, match="points must have rows of equal length"):
            Dataset([[0, 1], [0, 1, 2]])

    @pytest.mark.parametrize("build", [Dataset, pairwise_distances, radius_centroid])
    def test_points_need_a_coordinate(self, build):
        # zero-width points would size the distance pass's blocks by a division by zero
        with pytest.raises(ValueError, match="points need at least one coordinate"):
            build(np.empty((3, 0)))

    def test_partition_rejects_ragged_labels(self):
        with pytest.raises(ValueError, match="labels must be a 1-D sequence"):
            Partition([[0], [1, 2]])

    def test_partition_counts(self):
        part = Partition(np.array([0, 1, 1, 2]))
        assert part.n_clusters == 3
        assert part.cluster_sizes().tolist() == [1, 2, 1]

    def test_partition_rejects_gap(self):
        with pytest.raises(ValueError, match="label 1 has no members"):
            Partition(np.array([0, 2, 2]))

    def test_partition_rejects_negative_and_fractional(self):
        with pytest.raises(ValueError):
            Partition(np.array([-1, 0]))
        with pytest.raises(ValueError):
            Partition(np.array([0.5, 1.0]))

    @pytest.mark.parametrize(
        "labels",
        [
            [0, Decimal("1.5")],
            np.array([0, 1.5], dtype=object),
            [0, None],
            [0.0, np.nan],
            [0.0, np.inf],
            [0.0, 1e20],
        ],
        ids=["decimal", "object-float", "none", "nan", "inf", "past-int64"],
    )
    def test_partition_rejects_non_integer_labels(self, labels):
        # a cast RuntimeWarning first would fail this test under the global error filter
        with pytest.raises(ValueError, match="labels must be integers"):
            Partition(labels)

    def test_partition_accepts_integral_values(self):
        for labels in ([0.0, 1.0], [0, Decimal("1")], np.array([0, 1], dtype=object), np.array([0, 1], dtype=np.uint8)):
            assert Partition(labels).labels.tolist() == [0, 1]

    def test_partition_gap_past_size(self):
        # a label far past N is a gap, found without a count array sized by the label
        with pytest.raises(ValueError, match="label 1 has no members"):
            Partition(np.array([0, 10**12]))

    def test_partition_unsigned_label_past_size(self):
        # an unsigned label is never negative: past N it is a gap, named by its true value
        with pytest.raises(ValueError, match=r"label 1 has no members \(labels must cover 0\.\.9223372036854775808\)"):
            Partition(np.array([0, 2**63], dtype=np.uint64))
        with pytest.raises(ValueError, match=r"label 2 has no members \(labels must cover 0\.\.18446744073709551615\)"):
            Partition(np.array([0, 1, 2**64 - 1], dtype=np.uint64))

    def test_complex_values_rejected(self):
        with pytest.raises(ValueError, match="must be real"):
            Dataset(np.array([[1 + 1j, 2.0], [0, 0]]))
        with pytest.raises(ValueError, match="must be real"):
            Dataset(np.array([[1 + 1j, 2.0], [0, 0]], dtype=object))
        with pytest.raises(ValueError, match="must be real"):
            DistanceMatrix(np.array([[0, 1 + 1j], [1 + 1j, 0]]))

    def test_text_and_none_in_object_arrays_rejected(self):
        # a float cast would parse the text and turn None into NaN
        for points in ([["1", "2"]], [[b"1", 2.0]], [[None, 2.0]]):
            with pytest.raises(ValueError, match="points must be real numbers"):
                Dataset(np.array(points, dtype=object))
        with pytest.raises(ValueError, match="merges must be real numbers"):
            Dendrogram(2, [[0, None]], [1.0])
        with pytest.raises(ValueError, match="merge distances must be real numbers"):
            Dendrogram(2, [[0, 1]], np.array(["1.0"], dtype=object))
        # numpy reads a bytearray as its byte codes: [bytearray(b"12")] was the point (49, 50),
        # and a bytearray entry made the rows look ragged
        for points in ([bytearray(b"12")], [[bytearray(b"1"), 2.0]], [[0.0, 1.0], (bytearray(b"1"), 2.0)], bytearray(b"12")):
            with pytest.raises(ValueError, match="points must be real numbers"):
                Dataset(points)
        with pytest.raises(ValueError, match="points must be real numbers"):
            Dataset(np.array([[bytearray(b"1"), 2.0]], dtype=object))
        with pytest.raises(ValueError, match="distance matrix entries must be real numbers"):
            DistanceMatrix([bytearray(b"\x00\x01"), bytearray(b"\x01\x00")])
        with pytest.raises(ValueError, match="merges must be real numbers"):
            dendrogram_from_merges(2, [bytearray(b"\x00\x01\x01")])

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: Dataset([[1.0, 10**400]]), "points"),
            (lambda: DistanceMatrix([[0, 10**400], [10**400, 0]]), "distance matrix entries"),
            (lambda: dendrogram_from_merges(2, [(0, 1, 10**400)]), "merges"),
            (lambda: Dendrogram(2, [[0, 1]], [10**400]), "merge distances"),
            (lambda: radius_centroid([[0.0], [10**400]]), "points"),
            (lambda: pairwise_distances([[0.0], [10**400]]), "points"),
        ],
        ids=["dataset", "distance-matrix", "merge-table", "merge-distance", "radius", "pairwise"],
    )
    def test_int_past_the_float_range_rejected(self, build, message):
        # the float cast raises OverflowError, not ValueError, for an int past 2^1024
        with pytest.raises(ValueError, match=f"{message} must be real numbers"):
            build()

    def test_numbers_in_object_arrays_accepted(self):
        points = np.array([[1, 2.5], [np.float32(0.5), np.int64(3)], [Fraction(1, 4), True]], dtype=object)
        assert Dataset(points).points.tolist() == [[1.0, 2.5], [0.5, 3.0], [0.25, 1.0]]
        assert Dendrogram(2, np.array([[0, 1]], dtype=object), [1]).merges.tolist() == [[0, 1]]

    def test_distance_matrix_validation(self):
        with pytest.raises(ValueError, match="symmetric"):
            DistanceMatrix([[0.0, 1.0], [2.0, 0.0]])
        with pytest.raises(ValueError, match="diagonal"):
            DistanceMatrix([[1.0, 1.0], [1.0, 0.0]])
        with pytest.raises(ValueError, match="negative"):
            DistanceMatrix([[0.0, -1.0], [-1.0, 0.0]])
        with pytest.raises(ValueError, match="square"):
            DistanceMatrix([[0.0, 1.0]])
        with pytest.raises(ValueError, match="distance matrix contains non-finite entries"):
            DistanceMatrix([[0.0, np.inf], [np.inf, 0.0]])
        with pytest.raises(ValueError, match="distance matrix is empty"):
            DistanceMatrix(np.zeros((0, 0)))

    def test_distance_matrix_from_dataset(self):
        data, _ = synthetic_dataset("X2S")
        dm = DistanceMatrix(pairwise_distances(data.points))  # accepted: exactly symmetric, zero diagonal
        assert dm.n_items == 3
        assert np.allclose(dm.entries[np.triu_indices(3, 1)], SQRT2)


class TestSingleLinkage:
    def test_one_dimensional_line(self):
        dg = single_linkage(Dataset([[0.0], [1.0], [3.0]]))
        assert dg.distances.tolist() == [1.0, 2.0]
        assert dg.partition_at(1).labels.tolist() == [0, 1, 2]
        assert dg.partition_at(2).labels.tolist() == [0, 0, 1]
        assert dg.partition_at(3).labels.tolist() == [0, 0, 0]

    def test_two_points(self):
        dg = single_linkage(Dataset([P1, P2]))
        assert dg.distances.tolist() == pytest.approx([SQRT2], rel=1e-12)
        assert dg.partition_at(1).n_clusters == 2
        assert dg.partition_at(2).n_clusters == 1

    def test_three_identical_points(self):
        dg = single_linkage(Dataset([P1, P1, P1]))
        assert dg.distances.tolist() == [0.0, 0.0]
        assert [dg.partition_at(level).n_clusters for level in (1, 2, 3)] == [3, 2, 1]
        # the pair (0, 1) comes first among the tied pairs, so points 0 and 1 merge first
        assert dg.partition_at(2).labels.tolist() == [0, 0, 1]

    @given(
        st.integers(1, 3).flatmap(
            lambda dim: st.lists(
                st.lists(st.integers(-2, 2).map(float), min_size=dim, max_size=dim),
                min_size=2,
                max_size=30,
            )
        )
    )
    # the pairs at distance 1 are (0, 1), (0, 3), (1, 2) and (3, 4): point 3 joins {0, 1} before point 2
    @example([[2.0], [1.0], [0.0], [3.0], [4.0]])
    @settings(max_examples=40, deadline=None)
    def test_tie_order_matches_closest_pair_scan(self, pts):
        # small integer grids: many duplicates and equal heights, exact distances
        assert _merge_rows(single_linkage(Dataset(pts))) == oracles.single_linkage_merges(pts)

    def test_tie_order_matches_closest_pair_scan_on_larger_inputs(self):
        for pts in _tied_inputs():
            assert _merge_rows(single_linkage(Dataset(pts))) == oracles.single_linkage_merges(pts)

    def test_tie_order_holds_when_tied_pairs_span_many_blocks(self, monkeypatch):
        monkeypatch.setattr(core, "_DISTANCES", 5)  # a block of one or a few rows
        for pts in _tied_inputs():
            assert _merge_rows(single_linkage(Dataset(pts))) == oracles.single_linkage_merges(pts)

    def test_tied_path_memory_is_linear(self):
        # every spanning-tree edge of a 40 x 40 grid has length 1, so the
        # pair-order pass runs: 0.31 MB under tracemalloc, where an m x m tie
        # matrix of the 1600 tied clusters alone would take 2.56 MB
        grid = Dataset([[float(x), float(y)] for x in range(40) for y in range(40)])
        tracemalloc.start()
        try:
            single_linkage(grid)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 700_000

    def test_untied_path_memory_is_linear(self):
        # 3000 points in O(N) arrays: 0.48 MB under tracemalloc. Holding the
        # sorted edges and the run starts as lists of Python ints peaks at
        # 0.65 MB, the edges as a list of their 2(N-1) ends beside a
        # union-find array at 0.74 MB, and the join order and the keys in
        # lists with the edges as a list of pairs at 0.91 MB
        data = Dataset(np.random.default_rng(3).standard_normal((3000, 2)))
        tracemalloc.start()
        try:
            single_linkage(data)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 700_000

    @given(small_clouds())
    @settings(max_examples=100, deadline=None)
    def test_heights_split_the_join_order_into_runs(self, pts):
        # on untied inputs single linkage takes each joiner's edge to the point
        # before it in Prim's join order; that rests on every cluster at every
        # height being one run of the order. Inside a tied run the merges follow
        # the point pairs of another tree, so a level before the run's last
        # merge need not be runs.
        joined, lengths = core._minimum_spanning_tree(pts)
        assert sorted(joined.tolist()) == list(range(len(pts))) and joined[0] == 0
        assert sorted(lengths.tolist()) == oracles.spanning_tree_lengths(pairwise_distances(pts).tolist())
        dg = single_linkage(Dataset(pts))
        heights = dg.distances.tolist()
        for applied in range(len(pts)):
            if 0 < applied < len(pts) - 1 and heights[applied - 1] == heights[applied]:
                continue  # inside a tied run
            partition = dg.partition_at(applied + 1)
            in_order = partition.labels[joined]
            assert np.count_nonzero(np.diff(in_order)) == partition.n_clusters - 1, applied

    @given(duplicated_float_points())
    @settings(max_examples=60, deadline=None)
    def test_tie_order_matches_closest_pair_scan_on_floats(self, pts):
        # the scan reads the kernel's distances: Python's x ** 2 can round
        # otherwise than x * x, and would reorder near-equal pairs
        reference = oracles.single_linkage_merges(pts.tolist(), pairwise_distances(pts).tolist())
        assert _merge_rows(single_linkage(Dataset(pts))) == reference

    def test_matches_closest_pair_scan_on_floats(self):
        rng = np.random.default_rng(97)
        for n in (2, 5, 17, 30):
            points = rng.normal(size=(n, 3))
            ours = _merge_rows(single_linkage(Dataset(points)))
            reference = oracles.single_linkage_merges(points.tolist())
            assert [row[:2] for row in ours] == [row[:2] for row in reference]
            assert [row[2] for row in ours] == pytest.approx([row[2] for row in reference], rel=1e-12)

    @given(scaled_duplicated_points())
    # Gaussian coordinates past 8 dimensions: drawn floats are often round, and round
    # squares sum to the same bits in any order
    @example(np.random.default_rng(3).normal(size=(40, 20)))
    @settings(max_examples=60, deadline=None)
    def test_heights_are_the_spanning_tree_lengths_exactly(self, pts):
        lengths = oracles.spanning_tree_lengths(pairwise_distances(pts).tolist())
        assert single_linkage(Dataset(pts)).distances.tolist() == lengths

    def test_rejects_single_point(self):
        with pytest.raises(ValueError, match="at least 2"):
            single_linkage(Dataset([[0.0]]))

    @pytest.mark.parametrize("scale", [1e154, 1e160])
    def test_distances_past_the_square_root_of_the_largest_float(self, scale):
        # the squared differences would overflow unscaled, which once made a spanning-tree
        # edge infinite; the tree is the unit rectangle's, its heights scaled
        rectangle = np.array([[0.0, 0.0], [0.0, 1.0], [3.0, 0.0], [3.0, 1.0]])
        unit, dg = single_linkage(Dataset(rectangle)), single_linkage(Dataset(rectangle * scale))
        assert dg.merges.tolist() == unit.merges.tolist()
        assert dg.distances.tolist() == pytest.approx((unit.distances * scale).tolist(), rel=1e-15)

    def test_a_height_past_the_largest_float_raises(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="single linkage: a merge height overflowed to inf"):
                single_linkage(Dataset([[1.7e308, 1.7e308], [-1.7e308, -1.7e308]]))

    @given(point_sets(min_points=2, max_points=12))
    @settings(max_examples=40, deadline=None)
    def test_dendrogram_invariants(self, pts):
        dg = single_linkage(Dataset(pts))
        n = len(pts)
        assert dg.n_points == n
        assert len(dg.distances) == n - 1
        assert [dg.partition_at(level).n_clusters for level in range(1, n + 1)] == list(range(n, 0, -1))
        distances = dg.distances.tolist()
        assert all(b >= a for a, b in zip(distances, distances[1:]))

    def test_matches_scipy_reference(self):
        hierarchy = pytest.importorskip("scipy.cluster.hierarchy")
        rng = np.random.default_rng(4711)
        for _ in range(15):
            n = int(rng.integers(2, 25))
            points = rng.normal(size=(n, 3))
            reference = hierarchy.linkage(points, method="single")
            dg = single_linkage(Dataset(points))
            assert np.allclose(dg.distances, reference[:, 2], rtol=1e-9, atol=1e-12)
            # same grouping at every level (unique distances make the tree unique);
            # cut_tree column j holds the n - j cluster labeling
            cuts = hierarchy.cut_tree(reference)
            for level in range(n):
                expected = _grouping(cuts[:, level])
                assert _grouping(dg.partition_at(level + 1).labels) == expected


class TestKernelBuffer:
    """The kernel's 16-float ufunc buffer is scoped: every call leaves the
    caller's buffer size as it found it, on return and on an exception."""

    @pytest.fixture(autouse=True)
    def caller_buffer(self):
        previous = np.setbufsize(4096)  # not numpy's default, so a reset to the default shows
        yield
        np.setbufsize(previous)

    @pytest.fixture
    def kernel_buffers(self, monkeypatch):
        """The buffer size of every kernel call, in call order."""
        sizes, kernel = [], core._squares

        def recorded(columns, rows):
            sizes.append(np.getbufsize())
            return kernel(columns, rows)

        monkeypatch.setattr(core, "_squares", recorded)
        return sizes

    def test_pass_and_scoring_restore_the_buffer(self, kernel_buffers):
        pts = np.random.default_rng(7).normal(size=(300, 8))
        pairwise_distances(pts[:90, :1])  # 90 x 1: one block of 8100 distances, within one default buffer
        assert np.getbufsize() == 4096 and kernel_buffers == [4096]
        pairwise_distances(pts[:, :1])  # 300 x 1: one kernel call a block, under the kernel's buffer past one default
        spans = list(_row_blocks(300))
        assert kernel_buffers[1:] == [16 if (stop - start) * (300 - start) > 8192 else 4096 for start, stop in spans]
        assert np.getbufsize() == 4096 and 16 in kernel_buffers
        pairwise_distances(pts)  # at d = 8 every block's does
        assert np.getbufsize() == 4096 and set(kernel_buffers[-len(list(_row_blocks(300))) :]) == {16}
        labels = Partition(np.arange(300) % 7)
        assert all(map(is_defined, evaluate_many(PARTITION_INDEX_IDS, Dataset(pts), labels)))
        assert np.getbufsize() == 4096

    def test_both_prim_passes_restore_the_buffer(self, kernel_buffers):
        single_linkage(Dataset(np.random.default_rng(7).normal(size=(200, 3))))  # untied: one Prim pass
        assert np.getbufsize() == 4096 and set(kernel_buffers) == {16} and len(kernel_buffers) >= 199
        untied = len(kernel_buffers)
        grid = Dataset([[float(x), float(y)] for x in range(55) for y in range(55)])
        single_linkage(grid)  # every edge ties: the pair-order pass runs too
        assert np.getbufsize() == 4096 and set(kernel_buffers) == {16} and len(kernel_buffers) - untied >= 2 * 3024

    def test_a_pass_closed_after_its_first_block_restores_the_buffer(self):
        blocks = _distance_blocks(np.random.default_rng(7).normal(size=(1000, 8)))
        next(blocks)
        assert np.getbufsize() == 4096  # left before the block is yielded
        blocks.close()
        assert np.getbufsize() == 4096

    def test_an_overflow_restores_the_buffer(self):
        grid = np.array([[x, y] for x in range(20) for y in range(20)], dtype=float)
        heights = single_linkage(Dataset(grid * 2.0**532)).distances  # 1.4e160: rescaled, through both Prim passes
        assert heights.tolist() == np.ldexp(single_linkage(Dataset(grid)).distances, 532).tolist()
        assert np.getbufsize() == 4096
        with pytest.raises(ValueError, match="overflowed to inf"):  # raised once the passes are left
            single_linkage(Dataset([[1.7e308, 1.7e308], [-1.7e308, -1.7e308]]))
        assert np.getbufsize() == 4096
        # no overflow raises inside a scope any more: an exception inside one must restore the size
        with pytest.raises(KeyError):
            with core._kernel_buffer():
                raise KeyError
        assert np.getbufsize() == 4096


class TestDendrogramFromMerges:
    def test_out_of_range_id_names_row(self):
        with pytest.raises(ValueError, match="merge row 1: cluster id 5"):
            dendrogram_from_merges(3, [(0, 5, 1.0), (2, 3, 2.0)])

    def test_reused_id_names_row(self):
        with pytest.raises(ValueError, match="merge row 2: cluster id 0 already merged"):
            dendrogram_from_merges(3, [(0, 1, 1.0), (0, 2, 2.0)])

    def test_decreasing_distance_names_row(self):
        with pytest.raises(ValueError, match="merge row 2: distance 0.5 decreases"):
            dendrogram_from_merges(3, [(0, 1, 1.0), (2, 3, 0.5)])

    def test_self_merge_rejected(self):
        with pytest.raises(ValueError, match="itself"):
            dendrogram_from_merges(2, [(0, 0, 1.0)])

    def test_wrong_merge_count(self):
        with pytest.raises(ValueError, match="expected 2 merges"):
            dendrogram_from_merges(3, [(0, 1, 1.0)])

    def test_non_integral_id_names_row(self):
        with pytest.raises(ValueError, match="merge row 1: cluster id 1.5 is not an integer"):
            dendrogram_from_merges(2, [(0, 1.5, 1.0)])

    def test_linkage_matrix_row_names_row(self):
        # a scipy linkage matrix carries a fourth column of cluster sizes
        z = np.array([[0.0, 1.0, 1.0, 2.0], [2.0, 3.0, 2.0, 3.0]])
        with pytest.raises(ValueError, match="merge row 1: expected 3 values"):
            dendrogram_from_merges(3, z)
        # its first three columns are accepted: the ids are integral floats
        assert dendrogram_from_merges(3, z[:, :3]).merges.tolist() == [[0, 1], [2, 3]]

    def test_bare_number_row_names_row(self):
        with pytest.raises(ValueError, match="merge row 1: expected 3 values .*, got 5"):
            dendrogram_from_merges(2, [5])

    def test_non_real_values_name_the_merges(self):
        for rows in ([(0, 1, 1j)], [("0", "1", "1")]):
            with pytest.raises(ValueError, match="merges must be real numbers"):
                dendrogram_from_merges(2, rows)

    def test_reads_arrays_lists_and_iterators_alike(self):
        table = np.array([[1.0, 2.0, 0.5], [0.0, 3.0, 2.0]])
        expected = Dendrogram(3, table[:, :2], table[:, 2])
        for rows in (table, [tuple(row) for row in table.tolist()], iter(table.tolist())):
            dendrogram = dendrogram_from_merges(3, rows)
            assert dendrogram.merges.tolist() == expected.merges.tolist()
            assert dendrogram.distances.tolist() == expected.distances.tolist()

    def test_matches_linkage_convention(self):
        dg = dendrogram_from_merges(3, [(0, 1, 1.0), (2, 3, 2.0)])
        assert dg.distances.tolist() == [1.0, 2.0]
        assert dg.partition_at(2).labels.tolist() == [0, 0, 1]
        assert dg.partition_at(3).labels.tolist() == [0, 0, 0]


class TestDendrogramValidation:
    def test_accepts_valid_chain(self):
        dg = Dendrogram(3, np.array([[0, 2], [1, 3]]), np.array([1.0, 2.0]))
        assert dg.n_points == 3
        assert dg.merges.tolist() == [[0, 2], [1, 3]]
        assert dg.partition_at(2).labels.tolist() == [0, 1, 0]

    @given(corrupted_merge_tables())
    @settings(max_examples=400, deadline=None)
    def test_rejects_exactly_as_the_row_loop(self, table):
        # the array checks name the row, id and check the loop would name first
        n, merges, distances = table
        expected = oracles.merge_fault(n, merges, distances)
        try:
            Dendrogram(n, np.array(merges), np.array(distances))
        except ValueError as exc:
            assert str(exc) == expected
        else:
            assert expected is None

    @given(merge_tables())
    @settings(max_examples=100, deadline=None)
    def test_levels_match_the_root_walk(self, table):
        n, merges = table
        dg = Dendrogram(n, np.array(merges, dtype=np.intp).reshape(-1, 2), np.zeros(n - 1))
        for level in range(1, n + 1):
            assert dg.partition_at(level).labels.tolist() == oracles.partition_at(n, merges, level)

    def test_rejects_wrong_level_count(self):
        with pytest.raises(ValueError, match="expected 2 merges for 3 points"):
            Dendrogram(3, np.empty((0, 2), dtype=int), np.empty(0))

    def test_rejects_decreasing_distances(self):
        with pytest.raises(ValueError, match="merge row 2: distance 0.5 decreases"):
            Dendrogram(3, np.array([[0, 1], [2, 3]]), np.array([1.0, 0.5]))

    @pytest.mark.parametrize(
        "n_points, merges, distances, message",
        [
            (0, np.empty((0, 2)), np.empty(0), r"n_points must be an integer >= 1, got 0"),
            (3, np.array([0, 1, 2, 3]), np.array([1.0, 2.0]), r"merges must be an array of shape \(n_points - 1, 2\), got shape \(4,\)"),
            (3, np.array([[0, 1, 2], [2, 3, 4]]), np.array([1.0, 2.0]), r"got shape \(2, 3\)"),
            (3, np.array([[0, 1], [2, 3]]), np.array([1.0]), r"expected one distance per merge, got shape \(1,\) for 2 merges"),
            (3, np.array([[0, 1], [2, 3]]), np.array([[1.0, 2.0]]), r"got shape \(1, 2\) for 2 merges"),
            (3, np.array([[0, 1], [2, 3]]), np.array([-1.0, 2.0]), r"merge row 1: distance must be finite and nonnegative, got -1.0"),
            (3, np.array([[0, 1], [2, 3]]), np.array([1.0, np.nan]), r"merge row 2: distance must be finite and nonnegative, got nan"),
        ],
        ids=["no-points", "flat-merges", "three-column-merges", "short-distances", "2-D-distances", "negative", "nan"],
    )
    def test_rejects_malformed_fields(self, n_points, merges, distances, message):
        with pytest.raises(ValueError, match=message):
            Dendrogram(n_points, merges, distances)

    @pytest.mark.parametrize(
        "merges, distances, message",
        [
            ([["0", "1"], ["2", "3"]], [1.0, 2.0], "merges must be real numbers"),
            ([[0, 1], [2, 3 + 0j]], [1.0, 2.0], "merges must be real numbers"),
            ([[0, 1], [2, 3]], [1.0, 2 + 1j], "merge distances must be real numbers"),
            ([[0, 1], [2, 3]], ["1", "2"], "merge distances must be real numbers"),
            ([[0, 1], [2]], [1.0, 2.0], "merges must have rows of equal length"),
            ([[0, 1], bytearray(b"\x02\x03")], [1.0, 2.0], "merges must be real numbers"),
            ([[0, 1], [2, 3]], bytearray(b"\x01\x02"), "merge distances must be real numbers"),
            ([[0, 1], [2, 3]], [1.0, bytearray(b"2")], "merge distances must be real numbers"),
        ],
        ids=[
            "string-ids", "complex-ids", "complex-distances", "string-distances", "ragged-merges",
            "bytearray-ids", "bytearray-distances", "bytearray-distance",
        ],
    )
    def test_rejects_non_real_fields_by_name(self, merges, distances, message):
        with pytest.raises(ValueError, match=message):
            Dendrogram(3, merges, distances)

    def test_levels_are_derived_read_only_views(self):
        dg = Dendrogram(4, np.array([[2, 3], [0, 4], [1, 5]]), np.array([0.5, 1.0, 1.0]))
        assert [dg.partition_at(level).labels.tolist() for level in range(1, 5)] == [
            [0, 1, 2, 3],
            [0, 1, 2, 2],
            [0, 1, 0, 0],
            [0, 0, 0, 0],
        ]
        with pytest.raises(ValueError):
            dg.merges[0, 0] = 1
        with pytest.raises(ValueError):
            dg.distances[0] = 0.0
        for level in (0, 5, 2.0, 2.5):
            with pytest.raises(ValueError, match=r"level must be an integer in 1\.\.4, got " + str(level)):
                dg.partition_at(level)
