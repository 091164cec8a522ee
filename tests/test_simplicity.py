import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from cluster_simplicity import (
    Dataset,
    DistanceMatrix,
    Partition,
    SiCurve,
    UNDEFINED,
    PARTITION_INDEX_IDS,
    calinski_harabasz,
    dendrogram_from_merges,
    evaluate_many,
    is_defined,
    pairwise_distances,
    radius_centroid,
    scale_dataset,
    shift_dataset,
    si_centroid,
    si_curve,
    si_distance,
    si_hierarchical,
    single_linkage,
    synthetic_dataset,
)
from cluster_simplicity import core, simplicity

import oracles

# frozen from the literal-formula oracles in oracles.py
SI_CENTROID_X2S = 2.700099742577109
SI_DISTANCE_X2S = 2.8284271247461903
SI_LEVEL2_LINE = 2.337554497122491  # 1-D {0, 1, 3} split {0,1}|{3}
SI_H_LINE = 1.3343886242806229

grid_coord = st.integers(min_value=-100, max_value=100).map(lambda v: v / 2.0)


@st.composite
def dataset_with_partition(draw, min_points=2, max_points=10, dim=3):
    n = draw(st.integers(min_points, max_points))
    pts = draw(
        st.lists(st.lists(grid_coord, min_size=dim, max_size=dim), min_size=n, max_size=n)
    )
    k = draw(st.integers(1, n))
    extra = draw(st.lists(st.integers(0, k - 1), min_size=n - k, max_size=n - k))
    labels = draw(st.permutations(list(range(k)) + extra))
    return Dataset(np.array(pts)), Partition(np.array(labels))


def si_distance_of(dataset, partition):
    return si_distance(DistanceMatrix(pairwise_distances(dataset.points)), partition)


def _assert_curve_matches_oracle(data, dendrogram):
    # the incremental curve against a fresh literal-formula score of each level
    curve = si_curve(data, dendrogram)
    points = data.points.tolist()
    assert curve.distances == (0.0, *dendrogram.distances.tolist())
    for level, value in enumerate(curve.values, start=1):
        labels = dendrogram.partition_at(level).labels.tolist()
        assert value == pytest.approx(oracles.si_centroid_oracle(points, labels), rel=1e-12)


class TestSiCentroidAnchors:
    def test_coincident_single_cluster_is_best(self):
        assert si_centroid(*synthetic_dataset("Y1S")) == 1.0

    def test_extreme_partitions_score_point_count(self):
        assert si_centroid(*synthetic_dataset("X1S")) == pytest.approx(3.0, abs=1e-12)
        assert si_centroid(*synthetic_dataset("X3S")) == pytest.approx(3.0, abs=1e-12)
        assert si_centroid(*synthetic_dataset("X1L")) == pytest.approx(9.0, abs=1e-12)
        assert si_centroid(*synthetic_dataset("X9L")) == pytest.approx(9.0, abs=1e-12)

    def test_two_cluster_value_matches_oracle(self):
        data, part = synthetic_dataset("X2S")
        value = si_centroid(data, part)
        assert value == pytest.approx(SI_CENTROID_X2S, rel=1e-12)
        assert value == pytest.approx(
            oracles.si_centroid_oracle(data.points.tolist(), part.labels.tolist()), rel=1e-9
        )

    def test_coincident_split_scores_cluster_count(self):
        # zero dataset radius forces every exponent to zero, leaving just k
        assert si_centroid(*synthetic_dataset("Y2S")) == 2.0
        assert si_centroid(*synthetic_dataset("Y2L")) == 2.0

    def test_partition_size_mismatch(self):
        data, _ = synthetic_dataset("X2S")
        with pytest.raises(ValueError, match="labels 2 items"):
            si_centroid(data, Partition(np.array([0, 1])))


class TestCoincidentPoints:
    @given(
        st.floats(allow_nan=False, allow_infinity=False),
        st.integers(1, 3),
        st.lists(st.integers(0, 3), min_size=2, max_size=8),
    )
    @example(0.1, 3, [0, 0, 0, 1, 1, 1])
    @settings(max_examples=100, deadline=None)
    def test_reference_values_hold_at_any_coordinate(self, value, dim, groups):
        # offsets from a cluster's first member are exactly 0 for coincident points,
        # so every radius is 0: the best value 1 for one cluster, k when split
        points = np.full((len(groups), dim), value)
        data = Dataset(points)
        split = Partition(np.unique(groups, return_inverse=True)[1])
        assert si_centroid(data, Partition(np.zeros(len(groups), dtype=int))) == 1.0
        assert si_centroid(data, split) == split.n_clusters
        assert calinski_harabasz(data, split) is UNDEFINED
        assert radius_centroid(points) == 0.0
        assert si_curve(data, single_linkage(data)).samples[-1][1] == 1.0


class TestSiDistanceAnchors:
    def test_coincident_single_cluster_is_best(self):
        assert si_distance_of(*synthetic_dataset("Y1S")) == 1.0

    def test_two_cluster_value_matches_oracle(self):
        data, part = synthetic_dataset("X2S")
        value = si_distance_of(data, part)
        assert value == pytest.approx(SI_DISTANCE_X2S, rel=1e-12)
        assert value == pytest.approx(
            oracles.si_distance_oracle(data.points.tolist(), part.labels.tolist()), rel=1e-9
        )

    def test_extreme_partitions_score_point_count(self):
        assert si_distance_of(*synthetic_dataset("X1S")) == pytest.approx(3.0, abs=1e-12)
        assert si_distance_of(*synthetic_dataset("X3S")) == pytest.approx(3.0, abs=1e-12)

    def test_coincident_split_scores_cluster_count(self):
        assert si_distance_of(*synthetic_dataset("Y2S")) == 2.0


class TestSiProperties:
    @given(dataset_with_partition())
    @settings(max_examples=60, deadline=None)
    def test_scale_and_shift_invariance(self, data_part):
        dataset, partition = data_part
        for si in (si_centroid, si_distance_of):
            reference = si(dataset, partition)
            for a in (0.5, 2.0, 10.0):
                value = si(scale_dataset(dataset, a), partition)
                assert value == pytest.approx(reference, rel=1e-9)
            for b in (-5.0, 1.0, 100.0):
                value = si(shift_dataset(dataset, b), partition)
                assert value == pytest.approx(reference, rel=1e-9)

    @given(dataset_with_partition())
    @settings(max_examples=60, deadline=None)
    def test_lower_bound_is_cluster_count(self, data_part):
        dataset, partition = data_part
        for si in (si_centroid, si_distance_of):
            value = si(dataset, partition)
            assert value >= partition.n_clusters - 1e-12
            assert value >= 1.0 - 1e-12

    @given(st.integers(2, 6), st.integers(1, 4))
    @settings(max_examples=30, deadline=None)
    def test_equals_k_when_all_radii_zero(self, k, copies):
        # k clusters of coincident points, all at the same location
        pts = np.tile([1.5, -2.0, 0.5], (k * copies, 1))
        labels = np.repeat(np.arange(k), copies)
        dataset, partition = Dataset(pts), Partition(labels)
        assert si_centroid(dataset, partition) == float(k)
        assert si_distance_of(dataset, partition) == float(k)

    @given(dataset_with_partition(), st.randoms(use_true_random=False))
    @settings(max_examples=60, deadline=None)
    def test_permutation_invariance(self, data_part, rng):
        dataset, partition = data_part
        n, k = dataset.n_points, partition.n_clusters
        point_order = list(range(n))
        rng.shuffle(point_order)
        relabel = list(range(k))
        rng.shuffle(relabel)
        shuffled = Dataset(dataset.points[point_order])
        new_labels = np.array([relabel[partition.labels[i]] for i in point_order])
        shuffled_part = Partition(new_labels)
        for si in (si_centroid, si_distance_of):
            assert si(shuffled, shuffled_part) == pytest.approx(si(dataset, partition), rel=1e-9)

    @given(dataset_with_partition(min_points=2, max_points=8))
    @settings(max_examples=60, deadline=None)
    def test_extremes_score_point_count(self, data_part):
        dataset, _ = data_part
        distinct = np.unique(dataset.points, axis=0).shape[0] == dataset.n_points
        if not distinct:
            return
        n = dataset.n_points
        singletons = Partition(np.arange(n))
        whole = Partition(np.zeros(n, dtype=int))
        for si in (si_centroid, si_distance_of):
            assert si(dataset, singletons) == pytest.approx(float(n), rel=1e-12)
            assert si(dataset, whole) == pytest.approx(float(n), rel=1e-12)


def _single_linkage_tree():
    # a chaining tree over three blobs
    rng = np.random.default_rng(31)
    points = np.vstack([rng.normal(loc=c, size=(12, 3)) for c in (-4.0, 0.0, 5.0)])
    points[5] = points[4]  # a duplicate point merges at distance 0
    data = Dataset(points)
    return data, single_linkage(data)


def _average_linkage_tree():
    hierarchy = pytest.importorskip("scipy.cluster.hierarchy")
    rng = np.random.default_rng(32)
    points = np.vstack([rng.normal(loc=c, size=(12, 2)) for c in (-3.0, 0.0, 3.0)])
    linkage = hierarchy.linkage(points, method="average")
    return Dataset(points), dendrogram_from_merges(len(points), linkage[:, :3])


@st.composite
def shifted_points_with_tree(draw):
    """2-12 points in 1-3 dimensions, two of them distinct at least, on an
    integer grid scaled and shifted off it, and a random valid merge order
    over them: each merge joins two clusters not merged yet, at distance 1, 2, ..."""
    n, dim = draw(st.integers(2, 12)), draw(st.integers(1, 3))
    grid = draw(arrays(np.int64, (n, dim), elements=st.integers(-20, 20)))
    assume((grid != grid[0]).any())
    scale, shift = draw(st.floats(1e-3, 1e3)), draw(st.floats(-1e4, 1e4))
    live, merges = list(range(n)), []
    for row in range(1, n):
        left = live.pop(draw(st.integers(0, len(live) - 1)))
        right = live.pop(draw(st.integers(0, len(live) - 1)))
        merges.append((left, right, float(row)))
        live.append(n + row - 1)
    return grid * scale + shift, dendrogram_from_merges(n, merges)


class TestSiCurve:
    def test_line_dataset(self):
        data = Dataset([[0.0], [1.0], [3.0]])
        curve = si_curve(data, single_linkage(data))
        assert curve.distances == (0.0, 1.0, 2.0)
        assert curve.values[0] == pytest.approx(3.0, abs=1e-12)
        assert curve.values[1] == pytest.approx(SI_LEVEL2_LINE, rel=1e-12)
        assert curve.values[2] == pytest.approx(3.0, abs=1e-12)

    def test_coincident_points_step_down(self):
        data, _ = synthetic_dataset("Y1S")
        curve = si_curve(data, single_linkage(data))
        assert curve.distances == (0.0, 0.0, 0.0)
        assert curve.values == (3.0, 2.0, 1.0)

    def test_two_point_endpoints(self):
        data = Dataset([[0.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
        curve = si_curve(data, single_linkage(data))
        assert len(curve) == 2
        assert curve.values[0] == pytest.approx(2.0, abs=1e-12)
        assert curve.values[1] == pytest.approx(2.0, abs=1e-12)

    def test_matches_oracle_at_every_single_linkage_level(self):
        _assert_curve_matches_oracle(*_single_linkage_tree())

    def test_matches_oracle_at_every_average_linkage_level(self):
        _assert_curve_matches_oracle(*_average_linkage_tree())

    def test_hierarchy_memory_stays_linear(self):
        # N = 2000, d = 8: one N x N float matrix alone would take 32 MB
        rng = np.random.default_rng(2000)
        centres = rng.normal(scale=10.0, size=(8, 8))
        data = Dataset(centres[rng.integers(0, 8, size=2000)] + rng.normal(size=(2000, 8)))
        tracemalloc.start()
        try:
            curve = si_curve(data, single_linkage(data))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(curve) == 2000
        assert peak < 8 * 2**20

    def test_minimum_reports_first_smallest_level(self):
        assert SiCurve(((0.0, 3.0), (1.0, 2.3), (2.0, 3.0))).minimum() == (2, 2.3)
        assert SiCurve(((0.0, 2.0), (5.0, 2.0))).minimum() == (1, 2.0)

    def test_casts_real_numbers_of_any_type(self):
        # lists, ints, numpy floats and a Fraction that no float equals, as pairs of floats
        samples = [[0, 3], (np.float64(0.5), Fraction(1, 3)), iter((1, np.float32(2)))]
        curve = SiCurve(samples)
        assert curve.samples == ((0.0, 3.0), (0.5, 1 / 3), (1.0, 2.0))
        assert all(type(x) is float for sample in curve.samples for x in sample)

    def test_rejects_decreasing_distances(self):
        with pytest.raises(ValueError, match="nondecreasing"):
            SiCurve(((1.0, 3.0), (0.5, 2.0)))

    @pytest.mark.parametrize(
        "samples, message",
        [
            ((), "curve has no samples"),
            (((0.0, 3.0), (1.0, math.inf)), r"sample 2 must be finite with nonnegative distance, got \(1.0, inf\)"),
            (((math.nan, 3.0),), r"sample 1 must be finite with nonnegative distance, got \(nan, 3.0\)"),
            # negative and decreasing at one sample: the sign is reported
            (((1.0, 3.0), (-1.0, 2.0)), r"sample 2 must be finite with nonnegative distance, got \(-1.0, 2.0\)"),
            # the first failing sample is reported, not the first non-finite one
            (((1.0, 3.0), (0.5, 2.0), (math.nan, 1.0)), "nondecreasing: sample 2 has 0.5 after 1.0"),
            # a sample that is not a pair of real numbers is named, the first one of them
            ((1.0,), r"sample 1 must be a \(distance, value\) pair of real numbers, got 1.0$"),
            (((0.0, None),), r"sample 1 must be a \(distance, value\) pair of real numbers, got \(0.0, None\)"),
            (((0.0, 1.0), (1.0, 1 + 2j)), r"sample 2 must be .* real numbers, got \(1.0, \(1\+2j\)\)"),
            (((0.0, 1.0, 2.0),), r"sample 1 must be .* real numbers, got \(0.0, 1.0, 2.0\)"),
            (((0.0, 1.0), (1.0, 10**400), (2.0, "x")), "sample 2 must be a .* pair of real numbers"),
            (5, "curve samples must be a sequence of .* pairs, got 5"),
            # float() would parse text, which Dataset and DistanceMatrix reject as not real numbers
            (((" 1e0 ", b"2"),), r"sample 1 must be .* real numbers, got \(' 1e0 ', b'2'\)"),
            (((0.0, 1.0), (1.0, bytearray(b"2"))), r"sample 2 must be .* real numbers, got \(1.0, bytearray"),
            (((0.0, 1.0), "12"), r"sample 2 must be .* real numbers, got '12'"),
            ((b"12",), r"sample 1 must be .* real numbers, got b'12'"),
        ],
        ids=[
            "empty", "infinite-value", "nan-distance", "negative-and-decreasing", "decreasing-before-nan",
            "bare-number", "none", "complex", "triple", "int-past-float", "not-iterable",
            "text", "bytearray", "text-sample", "bytes-sample",
        ],
    )
    def test_rejects_empty_and_non_finite_samples(self, samples, message):
        with pytest.raises(ValueError, match=message):
            SiCurve(samples)

    @pytest.mark.parametrize("n", [4094, 4200])
    def test_index_past_the_largest_float_raises(self, n):
        # N - 2 coincident points, then the pair +-1: at the two-cluster level the pair's
        # exponent is N / 2, and SI = 2 exp(N ln 2 / 4) passes the largest float; at
        # N = 4094 the exp itself is finite, about 1.28e308, and only its double overflows
        points = np.zeros((n, 1))
        points[:2, 0] = (1.0, -1.0)
        chain = [(2, 3, 0.0), *((n + i, 4 + i, 0.0) for i in range(n - 4))]
        dendrogram = dendrogram_from_merges(n, [*chain, (0, 1, 2.0), (2 * n - 4, 2 * n - 3, 2.0)])
        with pytest.raises(ValueError, match="si_curve: the arithmetic overflowed to inf"):
            si_curve(Dataset(points), dendrogram)

    def test_the_whole_float_range_keeps_the_curve(self):
        # below about 1e-160 the squared offsets once underflowed, giving (4, 3, 2, 1),
        # and from 1e154 they overflowed, which raised
        rectangle = np.array([[0.0, 0.0], [0.0, 1.0], [3.0, 0.0], [3.0, 1.0]])
        unit = si_curve(Dataset(rectangle), single_linkage(Dataset(rectangle)))
        assert unit.values == pytest.approx((4.0, 3.2274, 2.4901, 4.0), abs=1e-4)
        for scale in (1e-300, 1e-170, 2.0**-600, 1e154, 1e160, 2.0**600, 1e300):
            data = Dataset(rectangle * scale)
            curve = si_curve(data, single_linkage(data))
            assert curve.values == pytest.approx(unit.values, rel=1e-12), scale

    def test_rejects_mismatched_dataset(self):
        data = Dataset([[0.0], [1.0], [3.0]])
        other = Dataset([[0.0], [1.0]])
        with pytest.raises(ValueError, match="covers 3 points"):
            si_curve(other, single_linkage(data))

    @given(st.lists(st.lists(grid_coord, min_size=2, max_size=2), min_size=2, max_size=10, unique_by=tuple))
    @settings(max_examples=40, deadline=None)
    def test_endpoints_equal_point_count_for_distinct_points(self, pts):
        data = Dataset(np.array(pts))
        curve = si_curve(data, single_linkage(data))
        n = float(data.n_points)
        assert curve.values[0] == pytest.approx(n, rel=1e-9)
        assert curve.values[-1] == pytest.approx(n, rel=1e-9)

    @given(shifted_points_with_tree())
    @settings(max_examples=100, deadline=None)
    def test_top_merge_has_exponent_one(self, case):
        # the dataset radius is the top merge's own radius, so the last sample is exp(ln N), bit for bit
        pts, tree = case
        radii, radius = core._merge_radii(pts, tree)[1:]
        assert radius == radii[-1]
        assert si_curve(Dataset(pts), tree).values[-1] == simplicity._si(1, float(np.log(len(pts))))


class TestSiFinalStep:
    def test_infinite_where_the_product_passes_the_largest_float(self):
        # exp(709.5) is about 1.35e308, finite, and twice it is not
        assert math.isfinite(math.exp(1419 / 2))
        assert simplicity._si(2, 1419.0) == math.inf
        assert simplicity._si(2, 1e6) == math.inf
        assert simplicity._si(2, 1418.0) == 2 * math.exp(709.0)


class TestSiCurveChunks:
    """A chunk of merges gathers at most ``_BLOCK`` coordinates, one merge at least."""

    @pytest.fixture(params=[1, 40], ids=["one-merge", "few-merges"], autouse=True)
    def budget(self, request, monkeypatch):
        monkeypatch.setattr(core, "_BLOCK", request.param)

    def test_single_linkage_tree(self):
        _assert_curve_matches_oracle(*_single_linkage_tree())

    def test_average_linkage_tree(self):
        _assert_curve_matches_oracle(*_average_linkage_tree())

    def test_coincident_points_step_down_exactly(self):
        data = Dataset(np.full((7, 3), 2.5))
        assert si_curve(data, single_linkage(data)).values == (7.0, 6.0, 5.0, 4.0, 3.0, 2.0, 1.0)


def _neumaier_loop(steps):
    total = compensation = 0.0
    sums = []
    for x in steps:
        t = total + x
        if abs(total) >= abs(x):
            compensation += (total - t) + x
        else:
            compensation += (x - t) + total
        total = t
        sums.append(total + compensation)
    return sums


class TestRunningSums:
    @given(st.lists(st.floats(-1e300, 1e300) | st.sampled_from([1e16, -1e16, 1.0, 1e-16]), max_size=60))
    @settings(max_examples=200, deadline=None)
    def test_matches_the_loop_bit_for_bit(self, steps):
        assert simplicity._running_sums(np.array(steps, dtype=float)).tolist() == _neumaier_loop(steps)

    def test_compensates_cancellation(self):
        # a plain running sum loses the 1.0 under 1e16 and ends at 0
        assert simplicity._running_sums(np.array([1e16, 1.0, -1e16])).tolist() == [1e16, 1e16 + 1.0, 1.0]


class TestSiHierarchical:
    def test_line_dataset_matches_oracle(self):
        data = Dataset([[0.0], [1.0], [3.0]])
        curve = si_curve(data, single_linkage(data))
        value = si_hierarchical(curve)
        assert value == pytest.approx(SI_H_LINE, rel=1e-12)
        assert value == pytest.approx(oracles.si_hierarchical_oracle(curve.samples), rel=1e-12)

    def test_zero_span_is_undefined(self):
        data, _ = synthetic_dataset("Y1S")
        curve = si_curve(data, single_linkage(data))
        assert si_hierarchical(curve) is UNDEFINED

    def test_constant_curve(self):
        # trapezoid area (2+2)*5/2 = 10 over denominator (2-1)*5 = 5
        curve = SiCurve(((0.0, 2.0), (5.0, 2.0)))
        expected = oracles.si_hierarchical_oracle(curve.samples)
        assert expected == 2.0
        assert si_hierarchical(curve) == pytest.approx(expected, rel=1e-12)

    def test_subnormal_gaps(self):
        # trapezoids (4+3)/2 and (3+4)/2 over half the span each: 3.5 / (3 - 1)
        assert si_hierarchical(SiCurve(((0.0, 4.0), (5e-324, 3.0), (1e-323, 4.0)))) == 1.75

    def test_power_of_two_scales_keep_the_bits(self):
        distances, values = (0.0, 1.0, 1.5, 3.0, 7.0), (5.0, 3.2, 2.9, 4.1, 5.0)
        expected = si_hierarchical(SiCurve(tuple(zip(distances, values))))
        assert expected == pytest.approx(oracles.si_hierarchical_oracle(tuple(zip(distances, values))), rel=1e-15)
        for j in range(-1000, 1001):
            scaled = SiCurve(tuple((math.ldexp(d, j), v) for d, v in zip(distances, values)))
            assert si_hierarchical(scaled) == expected, j
        # the largest scale keeps the last distance finite: 7 * 2**1021
        top = SiCurve(tuple((math.ldexp(d, 1021), v) for d, v in zip(distances, values)))
        assert math.isfinite(si_hierarchical(top))
        with pytest.raises(OverflowError):
            math.ldexp(distances[-1], 1022)

    def test_rejects_short_curve(self):
        with pytest.raises(ValueError, match="at least 2"):
            si_hierarchical(SiCurve(((0.0, 1.0),)))

    @given(
        st.lists(st.lists(grid_coord, min_size=2, max_size=2), min_size=2, max_size=10, unique_by=tuple)
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_oracle_on_random_dendrograms(self, pts):
        data = Dataset(np.array(pts))
        curve = si_curve(data, single_linkage(data))
        value = si_hierarchical(curve)
        if curve.distances[-1] == curve.distances[0]:
            assert value is UNDEFINED
        else:
            assert is_defined(value)
            assert value == pytest.approx(oracles.si_hierarchical_oracle(curve.samples), rel=1e-9)


# the partition ids whose value no rescaling changes: sf's gap is in raw units
SCALE_FREE_IDS = [index_id for index_id in PARTITION_INDEX_IDS if index_id != "sf"]

RECTANGLE = (np.array([[0.0, 0.0], [0.0, 1.0], [3.0, 0.0], [3.0, 1.0]]), np.array([0, 0, 1, 1]))
# the 55 x 55 grid, whose spanning-tree edges all tie, in 25 blocks of 11 x 11
GRID = (
    np.array([[x, y] for x in range(55) for y in range(55)], dtype=float),
    np.array([x // 11 * 5 + y // 11 for x in range(55) for y in range(55)]),
)


@st.composite
def labelled_fine_points(draw):
    """2-12 points in 1-3 dimensions drawn from a pool of rows, so duplicates
    are common, with coordinates on a grid of 2^-10 out to +-1024, and labels.
    Every nonzero coordinate times 2^j, for j in [-1000, 1000], is a normal
    float, and no square, sum or mean of them under- or overflows."""
    dim = draw(st.integers(1, 3))
    coord = st.integers(-(2**20), 2**20).map(lambda v: v / 2**10)
    pool = draw(st.lists(st.lists(coord, min_size=dim, max_size=dim), min_size=1, max_size=12))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=2, max_size=12))
    n = len(picks)
    k = draw(st.integers(1, n))
    extra = draw(st.lists(st.integers(0, k - 1), min_size=n - k, max_size=n - k))
    return np.array([pool[i] for i in picks]), np.array(draw(st.permutations(list(range(k)) + extra)))


def _bits(values):
    return [value.hex() if is_defined(value) else value for value in values]


class TestPowerOfTwoScales:
    """Points times 2^j score as the unit-scale points do, bit for bit, over the
    whole float range: every entry point rescales by an exact power of two."""

    @given(labelled_fine_points(), st.integers(-1000, 1000))
    @example(RECTANGLE, -565)  # about 1e-170
    @example(RECTANGLE, 532)  # about 1e160
    @example(GRID, -600)
    @example(GRID, 600)
    @settings(max_examples=60, deadline=None)
    def test_scores_trees_and_curves_keep_their_bits(self, case, j):
        pts, labels = case
        scaled = np.ldexp(pts, j)
        nonzero = np.abs(scaled[pts != 0])
        assert np.all((nonzero >= 2.0**-1022) & (nonzero < math.inf))  # normal floats, exactly 2^j times
        unit_data, data, part = Dataset(pts), Dataset(scaled), Partition(labels)
        assert _bits(evaluate_many(SCALE_FREE_IDS, data, part)) == _bits(evaluate_many(SCALE_FREE_IDS, unit_data, part))
        unit_tree, tree = single_linkage(unit_data), single_linkage(data)
        assert tree.merges.tolist() == unit_tree.merges.tolist()
        assert tree.distances.tolist() == np.ldexp(unit_tree.distances, j).tolist()
        assert _bits(si_curve(data, tree).values) == _bits(si_curve(unit_data, unit_tree).values)
