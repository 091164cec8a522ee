import inspect
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from cluster_simplicity import (
    Dataset,
    DistanceMatrix,
    Partition,
    UNDEFINED,
    UnknownIndexError,
    PARTITION_INDEX_IDS,
    c_index,
    calinski_harabasz,
    davies_bouldin,
    descriptor,
    dunn,
    evaluate,
    evaluate_many,
    is_defined,
    pairwise_distances,
    scale_dataset,
    shift_dataset,
    score_function,
    si_centroid,
    si_distance,
    silhouette,
    synthetic_dataset,
    values_equal,
    SYNTHETIC_DATASET_IDS,
)
from cluster_simplicity.core import _BLOCK, ClusterStats, _row_blocks

import oracles

X2S = synthetic_dataset("X2S")
Y1S = synthetic_dataset("Y1S")
Y2S = synthetic_dataset("Y2S")
X1S = synthetic_dataset("X1S")
X3S = synthetic_dataset("X3S")

# frozen from the hand/oracle derivations below
DB_X2S = 0.5773502691896258  # dispersions (0, sqrt(.5)), centroid gap sqrt(1.5)
SF_X2S = 0.47654420435671063  # oracle-evaluated double exponential
SF_COINCIDENT = 0.6321205588285577  # 1 - 1/e, between = within = 0


class TestDunn:
    def test_x2s(self):
        # every pairwise distance is sqrt(2): separation = diameter
        assert dunn(*X2S) == pytest.approx(1.0, rel=1e-12)

    def test_single_cluster_undefined(self):
        assert dunn(*Y1S) is UNDEFINED
        assert dunn(*X1S) is UNDEFINED

    def test_zero_diameter_undefined(self):
        assert dunn(*Y2S) is UNDEFINED
        assert dunn(*X3S) is UNDEFINED


class TestSilhouette:
    def test_x2s_balances_to_zero(self):
        # both grouped points have a = b = sqrt(2); the singleton scores 0
        assert silhouette(*X2S) == 0.0

    def test_single_cluster_undefined(self):
        assert silhouette(*Y1S) is UNDEFINED
        assert silhouette(*X1S) is UNDEFINED

    def test_coincident_split_is_zero(self):
        # a = b = 0 for every point; the zero-gap case must not divide
        assert silhouette(*Y2S) == 0.0

    def test_well_separated_close_to_one(self):
        pts = np.vstack([np.zeros((3, 2)), np.full((3, 2), 100.0)])
        part = Partition(np.array([0, 0, 0, 1, 1, 1]))
        value = silhouette(Dataset(pts), part)
        assert 0.99 < value <= 1.0


class TestCalinskiHarabasz:
    def test_x2s(self):
        # between = 1 (size-weighted squared centroid gaps), within = 1
        assert calinski_harabasz(*X2S) == pytest.approx(1.0, rel=1e-12)

    def test_single_cluster_undefined(self):
        assert calinski_harabasz(*Y1S) is UNDEFINED
        assert calinski_harabasz(*X1S) is UNDEFINED

    def test_all_singletons_undefined(self):
        assert calinski_harabasz(*X3S) is UNDEFINED

    def test_zero_within_dispersion_undefined(self):
        assert calinski_harabasz(*Y2S) is UNDEFINED

    @pytest.mark.parametrize("low, high", [(0.1, 0.7), (-1e308, 1e308)])
    def test_coincident_clusters_have_zero_dispersion(self, low, high):
        # three copies each of two points: every offset from a cluster's first
        # member is 0, so the within dispersion and both radii are exactly 0, even
        # where the centroid gap overflows; the CH denominator and the DB numerators vanish
        data = Dataset(np.array([[low, low]] * 3 + [[high, high]] * 3))
        part = Partition(np.array([0, 0, 0, 1, 1, 1]))
        assert calinski_harabasz(data, part) is UNDEFINED
        assert davies_bouldin(data, part) == 0.0


class TestDaviesBouldin:
    def test_x2s(self):
        assert davies_bouldin(*X2S) == pytest.approx(DB_X2S, rel=1e-12)
        assert davies_bouldin(*X2S) == pytest.approx(
            (0.0 + math.sqrt(0.5)) / math.sqrt(1.5), rel=1e-12
        )

    def test_single_cluster_undefined(self):
        assert davies_bouldin(*Y1S) is UNDEFINED

    def test_coincident_centroids_undefined(self):
        assert davies_bouldin(*Y2S) is UNDEFINED

    def test_equal_exact_centroids_reached_from_different_first_members(self):
        # both exact centroids are 1/6, from offsets to 0.0 and to -0.5; each is
        # rounded once, so they coincide and no centroid gap is a rounding error
        data = Dataset(np.array([[0.0], [0.0], [0.5], [-0.5], [0.0], [1.0]]))
        part = Partition(np.array([0, 0, 0, 1, 1, 1]))
        assert davies_bouldin(data, part) is UNDEFINED

    def test_all_singletons_is_zero(self):
        assert davies_bouldin(*X3S) == 0.0

    @pytest.mark.parametrize("k, dim", [(2, 1), (150, 3), (400, 8), (1500, 2)])
    def test_blocks_of_rows_match_the_full_gap_matrix(self, k, dim):
        # the upper triangle's blocks (6 at k = 400, 73 at k = 1500) give each
        # worst ratio of the full matrix, bit for bit
        assert len(list(_row_blocks(k))) == {2: 1, 150: 2, 400: 6, 1500: 73}[k]
        data, part = _blobs(k, 3 * k, k, dim)
        centroids, _, radii = ClusterStats(part, points=data.points).clusters
        gaps = pairwise_distances(centroids)
        np.fill_diagonal(gaps, np.inf)
        worst = ((radii[:, None] + radii[None, :]) / gaps).max(axis=1)
        assert davies_bouldin(data, part) == float(worst.sum()) / k

    def test_coincident_centroids_in_a_later_block_undefined(self):
        data, part = _blobs(3, 600, 300, 2)
        points = data.points.copy()
        points[part.labels == 299] = points[part.labels == 298]
        assert davies_bouldin(Dataset(points), part) is UNDEFINED

    def test_memory_is_linear_in_k(self):
        # N = 3000, k = 1500: a k x k array of centroid gaps alone would take 18 MB
        assert _peak(*_blobs(5, 3000, 1500), ["db"]) < 4 * 2**20


class TestCIndex:
    def test_equal_distances_undefined(self):
        # all three pairwise distances of X2S coincide, so the spread is zero
        assert c_index(*X2S) is UNDEFINED

    def test_degenerate_partitions_undefined(self):
        assert c_index(*Y1S) is UNDEFINED
        assert c_index(*Y2S) is UNDEFINED
        assert c_index(*X1S) is UNDEFINED
        assert c_index(*X3S) is UNDEFINED

    def test_perfect_partition_is_zero(self):
        pts = np.array([[0.0, 0.0], [0.0, 1.0], [10.0, 0.0], [10.0, 1.0]])
        part = Partition(np.array([0, 0, 1, 1]))
        # within pairs are exactly the two smallest distances
        assert c_index(Dataset(pts), part) == 0.0

    def test_worst_partition_is_one(self):
        pts = np.array([[0.0, 0.0], [0.0, 1.0], [10.0, 0.0], [10.0, 1.0]])
        # diagonal pairing: within pairs are exactly the two largest distances
        part = Partition(np.array([0, 1, 1, 0]))
        value = c_index(Dataset(pts), part)
        assert value == pytest.approx(1.0, rel=1e-12)

    def test_perfectly_separated_blobs_are_zero(self):
        # 8 blobs of 200 points with Dunn 1.30: the within pairs are exactly the w
        # smallest, so S = S_min however the two sums round (they once gave 2.9e-17)
        data, part = _blobs(0, 200, 8)
        assert dunn(data, part) == pytest.approx(1.30, abs=0.005)
        assert c_index(data, part) == 0.0

    def test_rounding_stays_in_range(self):
        # two 8-d blobs of 1000 points: the rounded sums once gave -2.9e-17
        assert 0.0 <= c_index(*_blobs(7, 2000, 2)) <= 1.0

    def test_most_pairs_within_one_cluster(self):
        # 297 of 300 points in one cluster: w > P / 2, so the tails keep the P - w extreme pairs
        rng = np.random.default_rng(12)
        pts = rng.normal(size=(300, 3))
        labels = np.zeros(300, dtype=int)
        labels[[5, 150, 299]] = [1, 2, 3]
        expected = TestAgainstNaiveOracles._naive(pts.tolist(), labels.tolist())["cindex"]
        assert c_index(Dataset(pts), Partition(labels)) == pytest.approx(expected, rel=1e-9)


class TestScoreFunction:
    def test_x2s_matches_oracle(self):
        data, part = X2S
        value = score_function(data, part)
        assert value == pytest.approx(SF_X2S, rel=1e-12)

        def sf_oracle(pts, labels):
            n, k = len(pts), max(labels) + 1
            overall = oracles.centroid(pts)
            between = within = 0.0
            for lab in range(k):
                members = [p for p, l in zip(pts, labels) if l == lab]
                g = oracles.centroid(members)
                between += len(members) * oracles.dist(g, overall)
                within += sum(oracles.dist(p, g) for p in members) / len(members)
            return 1.0 - 1.0 / math.exp(math.exp(between / (n * k) - within))

        assert value == pytest.approx(sf_oracle(data.points.tolist(), part.labels.tolist()), rel=1e-12)

    def test_coincident_datasets_share_value(self):
        # between and within spreads both vanish, leaving 1 - 1/e
        assert score_function(*Y1S) == pytest.approx(SF_COINCIDENT, rel=1e-12)
        assert score_function(*Y2S) == pytest.approx(SF_COINCIDENT, rel=1e-12)
        assert SF_COINCIDENT == pytest.approx(1.0 - 1.0 / math.e, rel=1e-12)

    def test_shift_invariant_scale_sensitive(self):
        data, part = X2S
        reference = score_function(data, part)
        for b in (-5.0, 1.0, 100.0):
            assert score_function(shift_dataset(data, b), part) == pytest.approx(reference, rel=1e-9)
        for a in (0.5, 2.0, 10.0):
            shifted = score_function(scale_dataset(data, a), part)
            assert abs(shifted - reference) > 1e-6

    def test_tiny_score_stays_positive(self):
        # one cluster of two points 100 apart: between = 0, within = 50, gap = -50
        value = score_function(Dataset(np.array([[-50.0], [50.0]])), Partition(np.array([0, 0])))
        assert value > 0.0
        assert value == pytest.approx(math.exp(-50.0), rel=1e-12)

    def test_score_is_zero_once_the_gap_underflows(self):
        # two clusters sharing centroid 0: between = 0, within = 1000 + 1000, gap = -2000
        value = score_function(Dataset(np.array([[-1000.0], [1000.0], [-1000.0], [1000.0]])), Partition([0, 0, 1, 1]))
        assert value == 0.0
        assert math.copysign(1.0, value) == 1.0  # +0.0

    def test_saturates_instead_of_overflowing(self):
        # far-apart tight clusters drive the inner exponential over the top
        pts = np.vstack([np.zeros((2, 1)), np.full((2, 1), 1e6)])
        part = Partition(np.array([0, 0, 1, 1]))
        value = score_function(Dataset(pts), part)
        assert value == 1.0


class TestDescriptors:
    def test_si_centroid(self):
        meta = descriptor("si_centroid")
        assert meta.direction == "lower-better"
        assert meta.best_value == 1.0
        assert meta.baseline is not None
        assert meta.baseline(3) == 3.0
        assert meta.baseline(9) == 9.0

    def test_unbounded_indices_declare_no_best(self):
        for index_id in ("ch", "sf", "dunn", "db", "si_hierarchical"):
            meta = descriptor(index_id)
            assert meta.best_value is None
            assert meta.baseline is None

    def test_bounded_classics(self):
        assert descriptor("silhouette").best_value == 1.0
        assert descriptor("silhouette").baseline is None
        assert descriptor("cindex").best_value == 0.0
        assert descriptor("cindex").direction == "lower-better"

    def test_directions(self):
        assert descriptor("ch").direction == "higher-better"
        assert descriptor("db").direction == "lower-better"

    def test_unknown_id(self):
        with pytest.raises(UnknownIndexError):
            descriptor("bogus")


# a coarse half-integer grid, so duplicate points, exact distance ties and
# coincident centroids occur; its span keeps the SF oracle's exp(exp(.)) finite
half_grid = st.integers(-6, 6).map(lambda v: v / 2.0)


@st.composite
def grid_partition(draw, max_points=10):
    n = draw(st.integers(2, max_points))
    dim = draw(st.integers(1, 3))
    pts = draw(st.lists(st.lists(half_grid, min_size=dim, max_size=dim), min_size=n, max_size=n))
    k = draw(st.integers(2, n))
    extra = draw(st.lists(st.integers(0, k - 1), min_size=n - k, max_size=n - k))
    labels = draw(st.permutations(list(range(k)) + extra))
    return Dataset(np.array(pts)), Partition(np.array(labels))


def _multi_block_size(blocks=3):
    """The fewest points whose distance pass runs ``blocks`` blocks of rows."""
    n = 2
    while len(list(_row_blocks(n))) < blocks:
        n += 1
    return n


@st.composite
def multi_block_partition(draw):
    # about 150 half-grid points: duplicates and tied distances fall on both
    # sides of every block boundary and in both C-index tails
    dim = draw(st.integers(1, 3))
    n = _multi_block_size()
    pts = draw(arrays(np.int64, (n, dim), elements=st.integers(-6, 6))) / 2.0
    k = draw(st.integers(2, n // 2))
    extra = draw(arrays(np.int64, n - k, elements=st.integers(0, k - 1)))
    labels = draw(st.permutations(list(range(k)) + extra.tolist()))
    return Dataset(pts), Partition(np.array(labels))


def _blobs(seed, n, k, dim=8):
    """Unit-variance Gaussian blobs around uniform centres, labelled by blob."""
    rng = np.random.default_rng(seed)
    centres = rng.uniform(-10.0, 10.0, (k, dim))
    labels = rng.permutation(np.arange(n) % k)
    return Dataset(centres[labels] + rng.standard_normal((n, dim))), Partition(labels)


def _peak(data, part, index_ids=PARTITION_INDEX_IDS):
    """tracemalloc peak, in bytes, of evaluate_many over ``index_ids``; each value must be defined."""
    tracemalloc.start()
    try:
        values = evaluate_many(index_ids, data, part)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert all(is_defined(value) for value in values)
    return peak


# the public (dataset, partition) function behind each partition index id
PUBLIC_FUNCTIONS = {
    "si_centroid": si_centroid,
    "si_distance": lambda data, part: si_distance(DistanceMatrix(pairwise_distances(data.points)), part),
    "ch": calinski_harabasz,
    "silhouette": silhouette,
    "sf": score_function,
    "dunn": dunn,
    "db": davies_bouldin,
    "cindex": c_index,
}


def _assert_many_matches_public_functions(data, part):
    values = evaluate_many(PARTITION_INDEX_IDS, data, part)
    for index_id, value in zip(PARTITION_INDEX_IDS, values, strict=True):
        direct = PUBLIC_FUNCTIONS[index_id](data, part)
        assert value == direct or (value is UNDEFINED and direct is UNDEFINED), index_id


def _random_labeled_dataset(rng, max_points=30, max_clusters=6):
    n = int(rng.integers(4, max_points))
    k = int(rng.integers(2, min(n - 1, max_clusters) + 1))
    points = rng.normal(size=(n, 3))
    labels = np.concatenate([np.arange(k), rng.integers(0, k, size=n - k)])
    rng.shuffle(labels)
    return Dataset(points), Partition(labels)


class TestAgainstNaiveOracles:
    """Explicit-loop re-derivations of every formula on random data."""

    @staticmethod
    def _naive(pts, labels):
        k = max(labels) + 1
        n = len(pts)
        clusters = [[p for p, l in zip(pts, labels) if l == lab] for lab in range(k)]
        cents = [oracles.centroid(c) for c in clusters]
        overall = oracles.centroid(pts)

        between = sum(len(c) * oracles.dist(g, overall) ** 2 for c, g in zip(clusters, cents))
        within = sum(oracles.dist(p, g) ** 2 for c, g in zip(clusters, cents) for p in c)
        ch = (between / (k - 1)) / (within / (n - k)) if within else None

        widths = []
        for i in range(n):
            own = [pts[j] for j in range(n) if labels[j] == labels[i] and j != i]
            if not own:
                widths.append(0.0)
                continue
            a = sum(oracles.dist(pts[i], q) for q in own) / len(own)
            b = min(
                sum(oracles.dist(pts[i], q) for q in clusters[lab]) / len(clusters[lab])
                for lab in range(k)
                if lab != labels[i]
            )
            widths.append(0.0 if a == b else (1.0 - a / b if a < b else b / a - 1.0))
        sil = sum(widths) / n

        bcd = sum(len(c) * oracles.dist(g, overall) for c, g in zip(clusters, cents)) / (n * k)
        wcd = sum(
            sum(oracles.dist(p, g) for p in c) / len(c) for c, g in zip(clusters, cents)
        )
        sf = 1.0 - 1.0 / math.exp(math.exp(bcd - wcd))

        max_diam = max(
            (oracles.dist(p, q) for c in clusters for p in c for q in c), default=0.0
        )
        min_sep = min(
            oracles.dist(p, q)
            for a_ in range(k)
            for b_ in range(a_ + 1, k)
            for p in clusters[a_]
            for q in clusters[b_]
        )
        dunn_value = min_sep / max_diam if max_diam else None

        disp = [sum(oracles.dist(p, g) for p in c) / len(c) for c, g in zip(clusters, cents)]
        ratios = []
        try:
            for a_ in range(k):
                worst = max(
                    (disp[a_] + disp[b_]) / oracles.dist(cents[a_], cents[b_])
                    for b_ in range(k)
                    if b_ != a_
                )
                ratios.append(worst)
            db_value = sum(ratios) / k
        except ZeroDivisionError:  # two centroids coincide
            db_value = None

        all_pairs = sorted(
            oracles.dist(pts[i], pts[j]) for i in range(n) for j in range(i + 1, n)
        )
        within_pairs = [
            oracles.dist(pts[i], pts[j])
            for i in range(n)
            for j in range(i + 1, n)
            if labels[i] == labels[j]
        ]
        w = len(within_pairs)
        s_min, s_max = sum(all_pairs[:w]), sum(all_pairs[len(all_pairs) - w:])
        cidx = (sum(within_pairs) - s_min) / (s_max - s_min) if s_max != s_min else None

        return {"ch": ch, "silhouette": sil, "sf": sf, "dunn": dunn_value, "db": db_value, "cindex": cidx}

    def test_random_datasets(self):
        rng = np.random.default_rng(193)
        for _ in range(20):
            data, part = _random_labeled_dataset(rng)
            expected = self._naive(data.points.tolist(), part.labels.tolist())
            for index_id, value in expected.items():
                actual = evaluate(index_id, data, part)
                if value is None:
                    assert actual is UNDEFINED, index_id
                else:
                    assert actual == pytest.approx(value, rel=1e-9), index_id


    @given(grid_partition())
    @settings(max_examples=300, deadline=None)
    def test_degenerate_grid_datasets(self, data_part):
        data, part = data_part
        expected = self._naive(data.points.tolist(), part.labels.tolist())
        for index_id, value in expected.items():
            actual = evaluate(index_id, data, part)
            if value is None:
                assert actual is UNDEFINED, index_id
            else:
                assert actual == pytest.approx(value, rel=1e-9, abs=1e-12), index_id
        _assert_many_matches_public_functions(data, part)


    @given(multi_block_partition())
    @settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.data_too_large, HealthCheck.too_slow])
    def test_grid_datasets_over_many_blocks(self, data_part):
        data, part = data_part
        points, labels = data.points.tolist(), part.labels.tolist()
        expected = self._naive(points, labels)
        expected["si_centroid"] = oracles.si_centroid_oracle(points, labels)
        expected["si_distance"] = oracles.si_distance_oracle(points, labels)
        for index_id, value in zip(PARTITION_INDEX_IDS, evaluate_many(PARTITION_INDEX_IDS, data, part)):
            if expected[index_id] is None:
                assert value is UNDEFINED, index_id
            else:
                assert value == pytest.approx(expected[index_id], rel=1e-9, abs=1e-12), index_id
        _assert_many_matches_public_functions(data, part)

    def test_both_distance_forms_sum_in_one_order(self):
        # 293 2-D half-grid points in 4 clusters: when the points and the matrix
        # forms of the pass cut their blocks apart, si_distance's sums grouped
        # differently and the two routes differed in the last bit
        rng = np.random.default_rng(9)
        dim = int(rng.integers(1, 4))
        pts = rng.integers(-6, 7, (293, dim)) / 2
        k = int(rng.integers(2, 146))
        labels = np.concatenate([np.arange(k), rng.integers(0, k, 293 - k)])
        rng.shuffle(labels)
        _assert_many_matches_public_functions(Dataset(pts), Partition(labels))


class TestAgainstScikitLearn:
    """Cross-check the shared indices against an independent implementation."""

    def test_random_datasets(self):
        metrics = pytest.importorskip("sklearn.metrics")
        rng = np.random.default_rng(811)
        for _ in range(20):
            data, part = _random_labeled_dataset(rng)
            X, labels = np.asarray(data.points), np.asarray(part.labels)
            assert calinski_harabasz(data, part) == pytest.approx(
                metrics.calinski_harabasz_score(X, labels), rel=1e-9
            )
            assert silhouette(data, part) == pytest.approx(
                metrics.silhouette_score(X, labels), rel=1e-9
            )
            assert davies_bouldin(data, part) == pytest.approx(
                metrics.davies_bouldin_score(X, labels), rel=1e-9
            )


@st.composite
def relisted_partition(draw):
    """2-12 points in 1-3 dimensions on an integer grid scaled and shifted off
    it, their labels, and a relisting of the points: the clusters interleaved
    anew, each cluster's members kept in their relative order."""
    n, dim = draw(st.integers(2, 12)), draw(st.integers(1, 3))
    grid = draw(arrays(np.int64, (n, dim), elements=st.integers(-20, 20)))
    scale, shift = draw(st.floats(1e-3, 1e3)), draw(st.floats(-1e4, 1e4))
    k = draw(st.integers(1, n))
    extra = draw(st.lists(st.integers(0, k - 1), min_size=n - k, max_size=n - k))
    labels = np.array(draw(st.permutations(list(range(k)) + extra)))
    interleaved = np.array(draw(st.permutations(labels.tolist())))  # the relisting's labels
    relisted = np.empty(n, dtype=np.intp)
    # the t-th slot of cluster c takes its t-th member: both are listed in stable label order
    relisted[np.argsort(interleaved, kind="stable")] = np.argsort(labels, kind="stable")
    return grid * scale + shift, labels, relisted


class TestRelisting:
    @given(relisted_partition())
    @settings(max_examples=100, deadline=None)
    def test_interleaving_the_clusters_keeps_every_bit(self, case):
        # every statistic reads the points in label order, which the relisting keeps
        pts, labels, relisted = case

        def bits(points, part):
            values = evaluate_many(PARTITION_INDEX_IDS, Dataset(points), part)
            return {index_id: v.hex() if is_defined(v) else v for index_id, v in zip(PARTITION_INDEX_IDS, values)}

        assert bits(pts[relisted], Partition(labels[relisted])) == bits(pts, Partition(labels))


class TestRatioFormInvariance:
    def test_scale_and_shift_on_random_data(self):
        rng = np.random.default_rng(527)
        ratio_forms = ("ch", "silhouette", "dunn", "db", "cindex")
        for _ in range(10):
            data, part = _random_labeled_dataset(rng, max_points=16)
            for index_id in ratio_forms:
                reference = evaluate(index_id, data, part)
                for a in (0.5, 2.0, 10.0):
                    value = evaluate(index_id, scale_dataset(data, a), part)
                    assert values_equal(value, reference), (index_id, a)
                for b in (-5.0, 1.0, 100.0):
                    value = evaluate(index_id, shift_dataset(data, b), part)
                    assert values_equal(value, reference), (index_id, b)


def _assert_keeps_value(index_id, points, part):
    """Scoring ``points`` gives the value of the copy scaled by 2^-512, which is
    exact: a scale-free index keeps it, and sf, whose gap scales too, saturates
    to 1 or 0 on the side of the copy's gap (SF_COINCIDENT is its value at a gap
    of 0)."""
    expected = evaluate(index_id, Dataset(points * 2.0**-512), part)
    if index_id == "sf" and expected != SF_COINCIDENT:  # the copy's gap is positive or negative, not 0
        expected = 1.0 if expected > SF_COINCIDENT else 0.0
    value = evaluate(index_id, Dataset(points), part)
    assert values_equal(value, expected), (index_id, value, expected)


class TestEvaluateRegistry:
    def test_matches_direct_functions(self):
        data, part = X2S
        assert evaluate("dunn", data, part) == dunn(data, part)
        assert evaluate("silhouette", data, part) == silhouette(data, part)
        assert evaluate("db", data, part) == davies_bouldin(data, part)
        assert evaluate("ch", data, part) == calinski_harabasz(data, part)
        assert evaluate("sf", data, part) == score_function(data, part)
        assert evaluate("cindex", data, part) is c_index(data, part)
        _assert_many_matches_public_functions(data, part)

    def test_public_functions_keep_their_signature(self):
        # built from registry ids, they still take (dataset, partition)
        for function in (si_centroid, calinski_harabasz, silhouette, score_function, dunn, davies_bouldin, c_index):
            assert list(inspect.signature(function).parameters) == ["dataset", "partition"], function.__name__
            assert function.__doc__, function.__name__

    def test_many_checks_every_id_first(self):
        with pytest.raises(UnknownIndexError, match="unknown index 'bogus'"):
            evaluate_many(["ch", "bogus"], *X2S)
        with pytest.raises(UnknownIndexError, match="dendrogram"):
            evaluate_many(["ch", "si_hierarchical"], *X2S)

    def test_many_shares_one_distance_matrix(self):
        # N = 1000, d = 8, k = 64 blobs: each index building its own matrix peaks
        # above two N x N float matrices
        n = 1000
        rng = np.random.default_rng(64)
        labels = rng.permutation(np.arange(n) % 64)
        data = Dataset(rng.uniform(-10.0, 10.0, (64, 8))[labels] + rng.standard_normal((n, 8)))
        part = Partition(labels)
        tracemalloc.start()
        try:
            values = evaluate_many(PARTITION_INDEX_IDS, data, part)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert all(is_defined(value) for value in values)
        assert peak < 2 * n * n * 8

    def test_many_memory_is_linear_in_n(self):
        # N = 4000, k = 64: one N x N matrix alone would take 128 MB
        assert _peak(*_blobs(64, 4000, 64)) < 10_000 * 4000

    def test_many_cindex_tails_cost_less_than_the_matrix(self):
        # k = 2, N = 2000: w is about P / 2, the largest the C-index tails get
        assert _peak(*_blobs(7, 2000, 2)) < 12 * 2000 * 2000

    def test_dunn_memory_is_quadratic_in_k(self):
        # N = 2000, k = 1000: Dunn's minima and maxima fit in k x k arrays of 8 MB;
        # N x k arrays of them would take the peak past the bound (a block is 0.5 MB)
        k = 1000
        assert _peak(*_blobs(9, 2 * k, k, dim=2), ["dunn"]) < 4 * k * k * 8 + 8 * _BLOCK * 8

    def test_dunn_reads_its_minima_without_index_arrays(self):
        # the off-diagonal minimum is read in place: two k(k-1)/2 index arrays and their
        # gathered copy (3.5 k^2 floats at the peak) would pass the bound of 3.25 k^2
        k = 1000
        assert _peak(*_blobs(9, 2 * k, k, dim=2), ["dunn"]) < 3.25 * k * k * 8

    @pytest.mark.parametrize("index_id", ["dunn", "si_distance", "cindex"])
    def test_distance_scorers_hold_no_cluster_arrays(self, index_id):
        # N = 3000, k = 1500 pairs: N x k row sums alone would take 36 MB, and k x k
        # extremes 18 MB each; the pass holds a few blocks and O(N) sums
        assert _peak(*_blobs(5, 3000, 1500), [index_id]) < 5e6

    def test_silhouette_holds_one_cluster_array(self):
        # N = 3000, k = 1500: the row means are one N x k array of 36 MB; a second
        # N x k array beside it, such as a copy with the own cluster masked, takes
        # the peak past 72 MB
        assert _peak(*_blobs(5, 3000, 1500), ["silhouette"]) < 40e6

    @pytest.mark.parametrize("index_id", ["si_centroid", "si_distance", "ch", "silhouette", "sf", "db"])
    def test_points_out_to_the_largest_float_keep_their_value(self, index_id):
        # every public route scores: the registry and the named function on coordinates
        # out to +-1e308, whose centroid offsets and squares would overflow unscaled, and
        # si_distance on a matrix of 1e308 distances, whose sums would. Each gives the
        # value of the copy scaled by 2^-1023, exactly; sf, whose gap is -1.25e307 in
        # raw units, gives 0
        part = Partition(np.array([0, 0, 1, 1]))
        if index_id == "si_distance":
            distances = 1e308 * (1 - np.eye(4))
            routes = [lambda: si_distance(DistanceMatrix(distances), part)]
            expected = si_distance(DistanceMatrix(distances * 2.0**-1023), part)
        else:
            points = np.array([[-1e308], [-5e307], [5e307], [1e308]])
            data = Dataset(points)
            routes = [lambda: evaluate_many([index_id], data, part)[0], lambda: PUBLIC_FUNCTIONS[index_id](data, part)]
            expected = 0.0 if index_id == "sf" else evaluate(index_id, Dataset(points * 2.0**-1023), part)
        for route in routes:
            assert route() == expected

    @pytest.mark.parametrize("index_id", PARTITION_INDEX_IDS)
    def test_the_whole_float_range_keeps_the_unit_scale_value(self, index_id):
        # a 3 x 1 rectangle, scored one id at a time: below about 1e-160 the squared
        # differences once underflowed (si_centroid = si_distance = 2, cindex UNDEFINED),
        # and from 1e154 they overflowed, which raised. Every scale-free index keeps its
        # unit-scale value; sf is not scale-free and keeps its raw-unit value, from a gap
        # of -0.25 times the scale. No RuntimeWarning comes first (pytest's filter)
        square = np.array([[0.0, 0.0], [0.0, 1.0], [3.0, 0.0], [3.0, 1.0]])
        part = Partition(np.array([0, 0, 1, 1]))
        unit = evaluate(index_id, Dataset(square), part)
        for scale in (1e-300, 1e-170, 2.0**-600, 1e153, 1e154, 1e155, 1e160, 1e200, 2.0**600, 1e300):
            value = evaluate(index_id, Dataset(square * scale), part)
            if index_id == "sf":
                assert value == pytest.approx(-math.expm1(-math.exp(-0.25 * scale)), rel=1e-12), scale
            else:
                assert value == pytest.approx(unit, rel=1e-12, abs=1e-12), scale
        if index_id == "sf":
            assert evaluate(index_id, Dataset(square * 1e-170), part) == pytest.approx(0.6321, abs=1e-4)
            assert evaluate(index_id, Dataset(square * 1e154), part) == 0.0

    @pytest.mark.parametrize(
        "index_id, points, labels, value",
        [
            # the within sum of squares would overflow, the between term (1e306) not;
            # ch once read 0.0
            ("ch", [[-2e154, 0], [2e154, 0], [1e153, 0], [1e153, 0]], [0, 0, 1, 1], 0.0025),
            # the largest diameter would overflow, the least separation (1e154) not;
            # dunn once read 0.0
            ("dunn", [[0, 0], [2e154, 0], [3e154, 0], [4e154, 0]], [0, 0, 1, 1], 0.5),
            # one member's distance to its centroid would overflow, the between term not;
            # sf once read 0.0 (the gap is about +2.8e153)
            ("sf", [[0]] * 99 + [[2e154]] + [[1.3e154]] * 100, [0] * 100 + [1] * 100, 1.0),
            # the first point's mean distance to cluster 1 (6e153) would overflow, that to
            # cluster 2 (8e153) not; silhouette once took b from cluster 2 and read 0.2393
            ("silhouette", [[0], [1e153], [2e153], [2e153], [1.4e154], [8e153], [8e153]], [0, 0, 1, 1, 1, 2, 2], 0.2333),
            # 8 of the 10 pair distances would overflow; with w = 6 of P = 10 within pairs
            # the tails were the infinite total less the other tail, and cindex once read 0.0
            ("cindex", [[-1e154], [-1e154], [1e154], [1e154], [2.5e154]], [0, 0, 0, 0, 1], 0.125),
        ],
        ids=["ch", "dunn", "sf", "silhouette", "cindex"],
    )
    def test_true_value_where_some_squares_would_overflow(self, index_id, points, labels, value):
        # only some squared differences pass the largest float at these scales; on the
        # rescaled points none does, and the index that once absorbed one is right
        data, part = Dataset(np.array(points, dtype=float)), Partition(np.array(labels))
        assert evaluate(index_id, data, part) == pytest.approx(value, abs=5e-5)
        for other in PARTITION_INDEX_IDS:
            _assert_keeps_value(other, data.points, part)

    def test_squares_past_the_largest_float_keep_the_scaled_down_value(self):
        # points in [-1, 1]^d times 2^512: unscaled, a squared difference would overflow
        # exactly when the unit-scale difference passes 1, so some would and some not;
        # the rescaled points give every index the value of the copy at unit scale
        rng = np.random.default_rng(7)
        for _ in range(150):
            n = int(rng.integers(3, 9))
            unit = rng.uniform(-1.0, 1.0, size=(n, int(rng.integers(1, 3))))
            part = Partition(np.concatenate([[0, 1], rng.integers(0, 3, size=n - 2)]))
            for index_id in PARTITION_INDEX_IDS:
                _assert_keeps_value(index_id, unit * 2.0**512, part)

    @pytest.mark.parametrize("index_id", ["si_centroid", "si_distance"])
    def test_simplicity_index_past_the_largest_float_raises_naming_index(self, index_id):
        # 4198 coincident points and the pair +-1 as a second cluster: the pair's exponent
        # is N / 2, so SI = 2 exp(N ln 2 / 4), past the largest float from N = 4097
        points = np.zeros((4200, 1))
        points[:2, 0] = (1.0, -1.0)
        part = Partition(np.array([0, 0] + [1] * 4198))
        with pytest.raises(ValueError, match=f"index '{index_id}': the arithmetic overflowed to inf"):
            evaluate(index_id, Dataset(points), part)

    def test_ch_past_the_largest_float_raises_naming_index(self):
        # the within dispersion (2^-1073, the points are in range) over N - k = 8 underflows to 0, so the
        # true ratio passes the largest float; it once raised a bare ZeroDivisionError
        points = np.array([[0.0], [2.0**-536]] + [[1.0]] * 8)
        part = Partition(np.array([0, 0] + [1] * 8))
        with pytest.raises(ValueError, match="index 'ch': the arithmetic overflowed to inf"):
            evaluate_many(["ch"], Dataset(points), part)

    def test_cindex_of_distances_past_the_largest_float(self):
        # every pair distance passes the largest float unscaled, which once gave
        # S_max = S_min = inf; the rescaled points score 1.0, as the copy scaled by 1e-308
        points = np.array([[1e308, -1e308], [-1e308, 1e308], [1e308, 1e308], [-1e308, -1e308]])
        part = Partition(np.array([0, 0, 1, 1]))
        assert c_index(Dataset(points * 1e-308), part) == 1.0
        assert c_index(Dataset(points), part) == 1.0

    def test_unknown_id(self):
        with pytest.raises(UnknownIndexError, match="unknown index"):
            evaluate("bogus", *X2S)

    def test_a_string_of_ids_is_not_split_into_letters(self):
        with pytest.raises(UnknownIndexError, match="must be a list of ids, got the string 'ch'"):
            evaluate_many("ch", *X2S)

    def test_one_shot_iterable_of_ids_is_scored(self):
        # the ids are taken once: checking them must not use up an iterator
        expected = evaluate_many(["ch", "dunn"], *X2S)
        assert evaluate_many(iter(["ch", "dunn"]), *X2S) == expected
        assert evaluate_many((index_id for index_id in ["ch", "dunn"]), *X2S) == expected

    def test_hierarchy_scorer_rejected(self):
        with pytest.raises(UnknownIndexError, match="dendrogram"):
            evaluate("si_hierarchical", *X2S)

    @pytest.mark.parametrize("index_id", PARTITION_INDEX_IDS)
    def test_partition_length_mismatch_names_both_counts(self, index_id):
        data, _ = X3S
        with pytest.raises(ValueError, match="labels 5 items, dataset has 3"):
            evaluate(index_id, data, Partition(np.arange(5)))

    def test_never_nan_or_infinite(self):
        for dataset_id in SYNTHETIC_DATASET_IDS:
            data, part = synthetic_dataset(dataset_id)
            for index_id in PARTITION_INDEX_IDS:
                value = evaluate(index_id, data, part)
                assert not is_defined(value) or math.isfinite(value), (index_id, dataset_id)
