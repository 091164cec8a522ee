"""Cluster validity through structural simplicity.

Scores partitions with the simplicity index (centroid, distance-matrix and
hierarchical forms) and six classic validity indices, and audits any of them
for transform invariance, optimal clustering and unbiased clustering on the
builtin benchmark datasets.
"""

from .classic import (
    INDEX_IDS,
    PARTITION_INDEX_IDS,
    IndexDescriptor,
    UnknownIndexError,
    c_index,
    calinski_harabasz,
    davies_bouldin,
    descriptor,
    dunn,
    evaluate,
    evaluate_many,
    score_function,
    si_centroid,
    si_distance,
    silhouette,
)
from .core import (
    SYNTHETIC_DATASET_IDS,
    UNDEFINED,
    Dataset,
    Dendrogram,
    DistanceMatrix,
    IndexValue,
    Partition,
    Undefined,
    dendrogram_from_merges,
    is_defined,
    pairwise_distances,
    radius_centroid,
    scale_dataset,
    shift_dataset,
    single_linkage,
    synthetic_dataset,
)
from .harness import (
    AuditDetail,
    PropertyFlags,
    audit,
    audit_all,
    values_equal,
)
from .simplicity import SiCurve, si_curve, si_hierarchical

__version__ = "0.1.0"

__all__ = [
    "AuditDetail",
    "Dataset",
    "Dendrogram",
    "DistanceMatrix",
    "INDEX_IDS",
    "IndexDescriptor",
    "IndexValue",
    "PARTITION_INDEX_IDS",
    "Partition",
    "PropertyFlags",
    "SYNTHETIC_DATASET_IDS",
    "SiCurve",
    "UNDEFINED",
    "Undefined",
    "UnknownIndexError",
    "audit",
    "audit_all",
    "c_index",
    "calinski_harabasz",
    "davies_bouldin",
    "dendrogram_from_merges",
    "descriptor",
    "dunn",
    "evaluate",
    "evaluate_many",
    "is_defined",
    "pairwise_distances",
    "radius_centroid",
    "scale_dataset",
    "score_function",
    "shift_dataset",
    "si_centroid",
    "si_curve",
    "si_distance",
    "si_hierarchical",
    "silhouette",
    "single_linkage",
    "synthetic_dataset",
    "values_equal",
]
