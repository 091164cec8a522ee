"""A committed corpus of the package's outputs, kept in ``corpus.json`` beside this file.

The inputs come from ``np.random.RandomState``, a stream that numpy keeps
frozen: standard Gaussians of several shapes, each also on the half grid
``round(2x) / 2`` (tied distances and duplicate points), the 200 x 8 set
scaled by 1e-300 and by 1e300, and six coincident points. Each is split into
k in {1, 2, 8, 64, N // 2, N} clusters, wherever k <= N. The outputs are
``evaluate_many`` over every partition index, ``si_distance`` on the
distance matrix (N <= 1000), the single-linkage merge heights, its
``si_curve`` samples and their ``si_hierarchical`` score.

A scalar is stored as ``float.hex``, or ``"undefined"``; an array as the
SHA-256 of its float64 bytes, with its ``math.fsum``, minimum and maximum as
hex. ``test_corpus.py`` compares the current outputs with the file: bit for
bit where numpy's version and the machine are the recorded ones, and within
``RELATIVE_TOLERANCE`` elsewhere.

    PYTHONPATH=src python tests/corpus.py --write   # regenerate corpus.json
    PYTHONPATH=src python tests/corpus.py --diff    # per id: outputs changed, largest change in ulps
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import platform
import struct
import sys
from collections import defaultdict
from collections.abc import Iterator
from pathlib import Path

import numpy as np

from cluster_simplicity import (
    PARTITION_INDEX_IDS,
    Dataset,
    DistanceMatrix,
    Partition,
    evaluate_many,
    is_defined,
    pairwise_distances,
    si_curve,
    si_distance,
    si_hierarchical,
    single_linkage,
)

PATH = Path(__file__).with_name("corpus.json")
SHAPES = ((2, 1), (7, 3), (40, 2), (200, 8), (1000, 8), (3000, 2))
CLUSTER_COUNTS = (1, 2, 8, 64)
MATRIX_LIMIT = 1000  # si_distance on a DistanceMatrix up to this N: the matrix is N x N
RELATIVE_TOLERANCE = 1e-12


def inputs() -> Iterator[tuple[str, np.ndarray, np.random.RandomState]]:
    """Each input's name and points, with the stream its partitions are drawn from."""
    for n, d in SHAPES:
        rng = np.random.RandomState(n)
        x = rng.standard_normal((n, d))
        variants = {"": x, "/grid": np.round(2 * x) / 2}
        if (n, d) == (200, 8):
            variants.update({"*1e-300": x * 1e-300, "*1e300": x * 1e300})
        labels_seed = rng.randint(2**31)
        for suffix, points in variants.items():
            yield f"gauss{n}x{d}{suffix}", points, np.random.RandomState(labels_seed)
    yield "coincident6", np.tile([0.3, -1.7], (6, 1)), np.random.RandomState(6)


def _partitions(n: int, rng: np.random.RandomState) -> Iterator[tuple[int, Partition]]:
    for k in sorted({*CLUSTER_COUNTS, n // 2, n}):
        if 1 <= k <= n:
            yield k, Partition(rng.permutation(np.arange(n) % k))


def _scalar(value: object) -> str:
    return float.hex(value) if is_defined(value) else "undefined"


def _array(values: object) -> dict[str, str]:
    flat = np.ascontiguousarray(values, dtype=np.float64).ravel()
    return {
        "sha256": hashlib.sha256(flat.tobytes()).hexdigest(),
        "fsum": float.hex(math.fsum(flat.tolist())),
        "min": float.hex(float(flat.min())),
        "max": float.hex(float(flat.max())),
    }


def outputs() -> dict[str, object]:
    """Every output of the corpus by key ``input/k=K/id`` or ``input/id``."""
    found: dict[str, object] = {}
    for name, points, rng in inputs():
        dataset = Dataset(points)
        n = dataset.n_points
        matrix = DistanceMatrix(pairwise_distances(points)) if n <= MATRIX_LIMIT else None
        for k, partition in _partitions(n, rng):
            values = evaluate_many(PARTITION_INDEX_IDS, dataset, partition)
            found.update({f"{name}/k={k}/{i}": _scalar(v) for i, v in zip(PARTITION_INDEX_IDS, values)})
            if matrix is not None:
                found[f"{name}/k={k}/si_distance_matrix"] = _scalar(si_distance(matrix, partition))
        dendrogram = single_linkage(dataset)
        curve = si_curve(dataset, dendrogram)
        found[f"{name}/heights"] = _array(dendrogram.distances)
        found[f"{name}/si_curve"] = _array(curve.samples)
        found[f"{name}/si_hierarchical"] = _scalar(si_hierarchical(curve))
    return found


def recorded() -> dict[str, object]:
    with PATH.open() as f:
        return json.load(f)


def same_platform(record: dict[str, object]) -> bool:
    """Whether the file was made under this numpy version, on this kind of machine."""
    return record["numpy"] == np.__version__ and record["machine"] == platform.machine()


def _floats(value: object) -> list[float | None]:
    """A stored output's comparable floats: the scalar (None if undefined), or an array's summaries."""
    if isinstance(value, dict):
        return [float.fromhex(value[part]) for part in ("fsum", "min", "max")]
    return [None if value == "undefined" else float.fromhex(value)]


def _ordinal(x: float) -> int:
    """``x``'s place among the floats, so that neighbouring floats differ by 1."""
    bits = struct.unpack("<q", struct.pack("<d", x))[0]
    return bits if bits >= 0 else -(bits & 0x7FFF_FFFF_FFFF_FFFF)


def ulps(old: object, new: object) -> float:
    """The largest change between two stored outputs in units in the last place, infinite
    when one of them is undefined and the other not."""
    pairs = list(zip(_floats(old), _floats(new)))
    if any((a is None) != (b is None) for a, b in pairs):
        return math.inf
    return max((abs(_ordinal(a) - _ordinal(b)) for a, b in pairs if a is not None), default=0)


def close(old: object, new: object) -> bool:
    """Whether two stored outputs agree within ``RELATIVE_TOLERANCE``, undefined only with undefined."""
    for a, b in zip(_floats(old), _floats(new)):
        if (a is None) != (b is None):
            return False
        if a is not None and abs(a - b) > RELATIVE_TOLERANCE * max(abs(a), abs(b)):
            return False
    return True


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    action = parser.add_mutually_exclusive_group(required=True)
    action.add_argument("--write", action="store_true", help="regenerate corpus.json from the current code")
    action.add_argument(
        "--diff", action="store_true", help="per id, count the outputs that changed and the largest change in ulps"
    )
    args = parser.parse_args(argv)
    current = outputs()
    if args.write:
        record = {"numpy": np.__version__, "machine": platform.machine(), "outputs": current}
        PATH.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
        print(f"wrote {len(current)} outputs to {PATH}")
        return 0
    record = recorded()
    print(f"recorded under numpy {record['numpy']} on {record['machine']}; "
          f"now numpy {np.__version__} on {platform.machine()}")
    changes: dict[str, list[float]] = defaultdict(list)
    for key in sorted(record["outputs"].keys() | current.keys()):
        old, new = record["outputs"].get(key), current.get(key)
        if old != new:
            changes[key.rsplit("/", 1)[1]].append(math.inf if old is None or new is None else ulps(old, new))
    for index_id, changed in sorted(changes.items()):
        print(f"{index_id}: {len(changed)} changed, largest {max(changed):g} ulps")
    print(f"{sum(map(len, changes.values()))} of {len(current)} outputs changed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
