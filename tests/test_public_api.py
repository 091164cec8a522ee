"""The package's public names: what is exported, and what is not."""

import pytest

import cluster_simplicity
from cluster_simplicity import Dendrogram, DistanceMatrix, Partition

# names that only tests ever used; the indices, the audit and partition_at cover their behaviour
REMOVED = (
    "DendrogramLevel",
    "centroid",
    "check_baseline",
    "check_invariance",
    "check_optimality",
    "diameter",
    "euclidean_distance",
    "mean_pairwise_distance",
)


@pytest.mark.parametrize("name", REMOVED)
def test_removed_names_are_not_exported(name):
    assert not hasattr(cluster_simplicity, name)
    assert name not in cluster_simplicity.__all__


@pytest.mark.parametrize(
    "cls, attribute",
    [(Dendrogram, "levels"), (Partition, "members"), (DistanceMatrix, "from_dataset")],
)
def test_removed_attributes(cls, attribute):
    assert not hasattr(cls, attribute)


def test_all_resolves_without_duplicates():
    assert len(set(cluster_simplicity.__all__)) == len(cluster_simplicity.__all__)
    for name in cluster_simplicity.__all__:
        assert getattr(cluster_simplicity, name) is not None
