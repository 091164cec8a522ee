import inspect
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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

    def test_all_singletons_is_zero(self):
        assert davies_bouldin(*X3S) == 0.0


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


# the public (dataset, partition) function behind each partition index id
PUBLIC_FUNCTIONS = {
    "si_centroid": si_centroid,
    "si_distance": lambda data, part: si_distance(DistanceMatrix.from_dataset(data), part),
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
        # built from ClusterStats scorers, they still take (dataset, partition)
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

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("index_id", ["si_centroid", "ch", "silhouette", "sf", "db"])
    def test_overflow_raises_naming_index(self, index_id):
        # coordinates of +-1e308: centroid sums and squared offsets overflow to NaN
        data = Dataset(np.array([[-1e308], [-1e308], [1e308], [1e308]]))
        part = Partition(np.array([0, 0, 1, 1]))
        with pytest.raises(ValueError, match=f"index '{index_id}': the arithmetic overflowed"):
            evaluate_many([index_id], data, part)

    def test_unknown_id(self):
        with pytest.raises(UnknownIndexError, match="unknown index"):
            evaluate("bogus", *X2S)

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
