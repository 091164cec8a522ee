from decimal import Decimal

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cluster_simplicity import (
    Dataset,
    Dendrogram,
    DistanceMatrix,
    Partition,
    UNDEFINED,
    Undefined,
    centroid,
    dendrogram_from_merges,
    diameter,
    euclidean_distance,
    is_defined,
    mean_pairwise_distance,
    radius_centroid,
    scale_dataset,
    shift_dataset,
    single_linkage,
    synthetic_dataset,
    SYNTHETIC_DATASET_IDS,
)

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


def _grouping(labels):
    clusters = {}
    for index, label in enumerate(labels):
        clusters.setdefault(int(label), set()).add(index)
    return frozenset(frozenset(members) for members in clusters.values())


def _merge_rows(dendrogram):
    return [
        (left, right, distance)
        for (left, right), distance in zip(dendrogram.merges.tolist(), dendrogram.distances.tolist())
    ]


class TestUndefined:
    def test_singleton(self):
        assert Undefined() is UNDEFINED
        assert repr(UNDEFINED) == "undefined"
        assert not UNDEFINED
        assert not is_defined(UNDEFINED)
        assert is_defined(1.0)

    def test_arithmetic_absorbs(self):
        assert UNDEFINED + 1.0 is UNDEFINED
        assert 1.0 + UNDEFINED is UNDEFINED
        assert UNDEFINED * 3 is UNDEFINED
        assert 2.0 / UNDEFINED is UNDEFINED
        assert UNDEFINED - UNDEFINED is UNDEFINED
        assert -UNDEFINED is UNDEFINED
        assert abs(UNDEFINED) is UNDEFINED
        assert UNDEFINED ** 2 is UNDEFINED


class TestEuclideanDistance:
    def test_identical_points(self):
        assert euclidean_distance(P1, P1) == 0.0

    def test_unit_simplex_pairs(self):
        assert euclidean_distance(P1, P2) == pytest.approx(SQRT2, rel=1e-12)
        assert euclidean_distance(P1, P3) == pytest.approx(SQRT2, rel=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            euclidean_distance((0.0, 1.0), (0.0, 1.0, 2.0))


class TestCentroid:
    def test_singleton(self):
        assert np.array_equal(centroid([P1]), np.array(P1))

    def test_two_points(self):
        assert np.allclose(centroid([P2, P3]), [0.5, 0.5, 0.0])

    def test_three_points(self):
        assert np.allclose(centroid([P1, P2, P3]), [1 / 3, 1 / 3, 1 / 3])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            centroid(np.empty((0, 3)))


class TestRadii:
    def test_radius_coincident(self):
        assert radius_centroid([P1, P1, P1]) == 0.0

    def test_radius_two_points(self):
        # centroid (0.5, 0.5, 0), both members sqrt(0.5) away
        assert radius_centroid([P2, P3]) == pytest.approx(0.7071067811865476, rel=1e-12)

    def test_radius_simplex(self):
        # all three points are sqrt(6)/3 from (1/3, 1/3, 1/3)
        assert radius_centroid([P1, P2, P3]) == pytest.approx(0.816496580927726, rel=1e-12)

    def test_mean_pairwise_singleton(self):
        assert mean_pairwise_distance([P1]) == 0.0

    def test_mean_pairwise_single_pair(self):
        assert mean_pairwise_distance([P2, P3]) == pytest.approx(SQRT2, rel=1e-12)

    def test_mean_pairwise_simplex(self):
        assert mean_pairwise_distance([P1, P2, P3]) == pytest.approx(SQRT2, rel=1e-12)

    def test_empty_rejected(self):
        for fn in (radius_centroid, mean_pairwise_distance, diameter):
            with pytest.raises(ValueError):
                fn(np.empty((0, 3)))

    @given(point_sets())
    @settings(max_examples=60, deadline=None)
    def test_matches_oracle(self, pts):
        assert radius_centroid(pts) == pytest.approx(oracles.centroid_radius(pts.tolist()), abs=1e-12)
        assert mean_pairwise_distance(pts) == pytest.approx(oracles.mean_pairwise(pts.tolist()), abs=1e-12)

    @given(point_sets())
    @settings(max_examples=60, deadline=None)
    def test_affine_homogeneity(self, pts):
        # f(a*X + b) == |a| * f(X) for both radius notions
        for fn in (radius_centroid, mean_pairwise_distance):
            reference = fn(pts)
            for a in (-2.0, 0.5, 3.0):
                for b in (-5.0, 7.0):
                    transformed = fn(pts * a + b)
                    assert transformed == pytest.approx(abs(a) * reference, rel=1e-9, abs=1e-12)

    @given(point_sets())
    @settings(max_examples=60, deadline=None)
    def test_zero_iff_coincident(self, pts):
        coincident = bool(np.all(pts == pts[0]))
        assert (radius_centroid(pts) == 0.0) == coincident
        assert (mean_pairwise_distance(pts) == 0.0) == coincident

    @given(point_sets(min_points=2))
    @settings(max_examples=60, deadline=None)
    def test_bounded_by_diameter(self, pts):
        d = diameter(pts)
        assert radius_centroid(pts) <= d + 1e-12
        assert mean_pairwise_distance(pts) <= d + 1e-12


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


class TestContainers:
    def test_dataset_read_only(self):
        data, _ = synthetic_dataset("X1S")
        with pytest.raises(ValueError):
            data.points[0, 0] = 5.0

    def test_dataset_rejects_ragged_and_empty(self):
        with pytest.raises(ValueError):
            Dataset(np.empty((0, 2)))
        with pytest.raises(ValueError):
            Dataset([[np.nan, 0.0]])

    def test_partition_counts(self):
        part = Partition(np.array([0, 1, 1, 2]))
        assert part.n_clusters == 3
        assert part.cluster_sizes().tolist() == [1, 2, 1]
        assert part.members(1).tolist() == [1, 2]

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

    def test_complex_values_rejected(self):
        with pytest.raises(ValueError, match="must be real"):
            Dataset(np.array([[1 + 1j, 2.0], [0, 0]]))
        with pytest.raises(ValueError, match="must be real"):
            Dataset(np.array([[1 + 1j, 2.0], [0, 0]], dtype=object))
        with pytest.raises(ValueError, match="must be real"):
            DistanceMatrix(np.array([[0, 1 + 1j], [1 + 1j, 0]]))

    def test_distance_matrix_validation(self):
        with pytest.raises(ValueError, match="symmetric"):
            DistanceMatrix([[0.0, 1.0], [2.0, 0.0]])
        with pytest.raises(ValueError, match="diagonal"):
            DistanceMatrix([[1.0, 1.0], [1.0, 0.0]])
        with pytest.raises(ValueError, match="negative"):
            DistanceMatrix([[0.0, -1.0], [-1.0, 0.0]])
        with pytest.raises(ValueError, match="square"):
            DistanceMatrix([[0.0, 1.0]])

    def test_distance_matrix_from_dataset(self):
        data, _ = synthetic_dataset("X2S")
        dm = DistanceMatrix.from_dataset(data)
        assert dm.n_items == 3
        assert np.allclose(dm.entries[np.triu_indices(3, 1)], SQRT2)


class TestSingleLinkage:
    def test_one_dimensional_line(self):
        dg = single_linkage(Dataset([[0.0], [1.0], [3.0]]))
        assert [lvl.distance for lvl in dg.levels] == [0.0, 1.0, 2.0]
        assert dg.levels[0].partition.labels.tolist() == [0, 1, 2]
        assert dg.levels[1].partition.labels.tolist() == [0, 0, 1]
        assert dg.levels[2].partition.labels.tolist() == [0, 0, 0]

    def test_two_points(self):
        dg = single_linkage(Dataset([P1, P2]))
        assert dg.levels[0].distance == 0.0
        assert dg.levels[1].distance == pytest.approx(SQRT2, rel=1e-12)
        assert dg.levels[1].partition.n_clusters == 1

    def test_three_identical_points(self):
        dg = single_linkage(Dataset([P1, P1, P1]))
        assert [lvl.distance for lvl in dg.levels] == [0.0, 0.0, 0.0]
        assert [lvl.partition.n_clusters for lvl in dg.levels] == [3, 2, 1]
        # lexicographic tie-break merges points 0 and 1 first
        assert dg.levels[1].partition.labels.tolist() == [0, 0, 1]

    @given(
        st.integers(1, 3).flatmap(
            lambda dim: st.lists(
                st.lists(st.integers(-2, 2).map(float), min_size=dim, max_size=dim),
                min_size=2,
                max_size=30,
            )
        )
    )
    # point 2 is tied only to point 1; once {0, 1} merges, (2, {0, 1}) comes before (3, 4)
    @example([[2.0], [1.0], [0.0], [3.0], [4.0]])
    @settings(max_examples=40, deadline=None)
    def test_tie_order_matches_closest_pair_scan(self, pts):
        # small integer grids: many duplicates and equal heights, exact distances
        assert _merge_rows(single_linkage(Dataset(pts))) == oracles.single_linkage_merges(pts)

    def test_matches_closest_pair_scan_on_floats(self):
        rng = np.random.default_rng(97)
        for n in (2, 5, 17, 30):
            points = rng.normal(size=(n, 3))
            ours = _merge_rows(single_linkage(Dataset(points)))
            reference = oracles.single_linkage_merges(points.tolist())
            assert [row[:2] for row in ours] == [row[:2] for row in reference]
            assert [row[2] for row in ours] == pytest.approx([row[2] for row in reference], rel=1e-12)

    def test_rejects_single_point(self):
        with pytest.raises(ValueError, match="at least 2"):
            single_linkage(Dataset([[0.0]]))

    @given(point_sets(min_points=2, max_points=12))
    @settings(max_examples=40, deadline=None)
    def test_dendrogram_invariants(self, pts):
        dg = single_linkage(Dataset(pts))
        n = len(pts)
        assert len(dg.levels) == n
        assert dg.levels[0].distance == 0.0
        assert dg.levels[0].partition.n_clusters == n
        assert dg.levels[-1].partition.n_clusters == 1
        distances = [lvl.distance for lvl in dg.levels]
        assert all(b >= a for a, b in zip(distances, distances[1:]))

    def test_matches_scipy_reference(self):
        hierarchy = pytest.importorskip("scipy.cluster.hierarchy")
        rng = np.random.default_rng(4711)
        for _ in range(15):
            n = int(rng.integers(2, 25))
            points = rng.normal(size=(n, 3))
            reference = hierarchy.linkage(points, method="single")
            dg = single_linkage(Dataset(points))
            ours = [lvl.distance for lvl in dg.levels[1:]]
            assert np.allclose(ours, reference[:, 2], rtol=1e-9, atol=1e-12)
            # same grouping at every level (unique distances make the tree unique);
            # cut_tree column j holds the n - j cluster labeling
            cuts = hierarchy.cut_tree(reference)
            for level in range(n):
                expected = _grouping(cuts[:, level])
                assert _grouping(dg.levels[level].partition.labels) == expected


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

    def test_matches_linkage_convention(self):
        dg = dendrogram_from_merges(3, [(0, 1, 1.0), (2, 3, 2.0)])
        assert dg.levels[1].partition.labels.tolist() == [0, 0, 1]
        assert dg.levels[2].partition.labels.tolist() == [0, 0, 0]


class TestDendrogramValidation:
    def test_accepts_valid_chain(self):
        dg = Dendrogram(3, np.array([[0, 2], [1, 3]]), np.array([1.0, 2.0]))
        assert dg.n_points == 3
        assert dg.merges.tolist() == [[0, 2], [1, 3]]
        assert dg.partition_at(2).labels.tolist() == [0, 1, 0]

    def test_rejects_wrong_level_count(self):
        with pytest.raises(ValueError, match="expected 2 merges for 3 points"):
            Dendrogram(3, np.empty((0, 2), dtype=int), np.empty(0))

    def test_rejects_decreasing_distances(self):
        with pytest.raises(ValueError, match="merge row 2: distance 0.5 decreases"):
            Dendrogram(3, np.array([[0, 1], [2, 3]]), np.array([1.0, 0.5]))

    def test_levels_are_derived_read_only_views(self):
        dg = Dendrogram(4, np.array([[2, 3], [0, 4], [1, 5]]), np.array([0.5, 1.0, 1.0]))
        assert len(dg.levels) == 4
        assert [lvl.distance for lvl in dg.levels] == [0.0, 0.5, 1.0, 1.0]
        assert dg.levels[-2].partition.labels.tolist() == [0, 1, 0, 0]
        assert [lvl.partition.n_clusters for lvl in dg.levels[1:3]] == [3, 2]
        with pytest.raises(ValueError):
            dg.merges[0, 0] = 1
        with pytest.raises(TypeError):
            dg.levels[0] = dg.levels[1]
        with pytest.raises(ValueError, match="level must be in 1..4"):
            dg.partition_at(5)
