"""Write one workload's input files, made from a seed.

    python3 perfbench/inputs.py WORKLOAD SEED SIZE OUTDIR

SIZE is ``full`` (the sizes the benchmark measures) or ``smoke`` (tiny sizes
for the benchmark's own tests). The script writes the CSV files the CLI reads
and ``expect.json``, which holds the job's shape and the reference values the
output checks compare against. scipy supplies the linkage references; it runs
here, in its own process, so that it adds nothing to the measuring process's
memory. The same seed always gives the same files.
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

import numpy as np
import scipy
from scipy.cluster.hierarchy import linkage

INDEX_IDS = ("si_centroid", "si_distance", "ch", "silhouette", "sf", "dunn", "db", "cindex")

# (n_points, dim, n_blobs) per workload and size
SHAPES = {
    "full": {"compute_large": (1000, 8, 64), "hierarchy_auto": (200, 8, 8), "hierarchy_file": (200, 8, 8)},
    "smoke": {"compute_large": (40, 8, 4), "hierarchy_auto": (40, 8, 4), "hierarchy_file": (40, 8, 4)},
}


def blobs(rng: np.random.Generator, n: int, dim: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Unit-variance Gaussian blobs around uniform centres; sizes differ by at most 1."""
    centres = rng.uniform(-10.0, 10.0, (k, dim))
    labels = rng.permutation(np.arange(n) % k)
    return centres[labels] + rng.standard_normal((n, dim)), labels


def write_rows(path: Path, rows: list[list]) -> None:
    # repr keeps every digit, so the CLI parses back the exact floats
    path.write_text("".join(",".join(repr(v) for v in row) + "\n" for row in rows))


def merge_rows(z: np.ndarray) -> list[list]:
    # scipy's linkage matrix uses the CLI's id convention: row r creates id N + r
    return [[int(a), int(b), float(h)] for a, b, h in z[:, :3].tolist()]


def main(workload: str, seed: int, size: str, out: Path) -> None:
    out.mkdir(parents=True, exist_ok=True)
    expect: dict = {"workload": workload, "seed": seed, "size": size, "scipy": scipy.__version__}
    if workload == "audit_small":
        # the seed fixes the order of the --index flags; the report keeps it
        expect["indices"] = random.Random(seed).sample(INDEX_IDS, len(INDEX_IDS))
    else:
        n, dim, k = SHAPES[size][workload]
        points, labels = blobs(np.random.default_rng(seed), n, dim, k)
        write_rows(out / "points.csv", points.tolist())
        expect.update(n_points=n, dim=dim, n_clusters=k)
        if workload == "compute_large":
            (out / "labels.csv").write_text("".join(f"{label}\n" for label in labels.tolist()))
            expect["indices"] = list(INDEX_IDS)
        elif workload == "hierarchy_auto":
            single = merge_rows(linkage(points, method="single"))
            write_rows(out / "single.txt", single)
            expect["heights"] = [h for _, _, h in single]
        else:
            z = linkage(points, method="average")
            # average linkage has no inversions; this guards the file against a
            # last-digit rounding dip, which the CLI would reject
            z[:, 2] = np.maximum.accumulate(z[:, 2])
            rows = merge_rows(z)
            (out / "linkage.txt").write_text("".join(f"{a} {b} {h!r}\n" for a, b, h in rows))
            expect["heights"] = [h for _, _, h in rows]
    (out / "expect.json").write_text(json.dumps(expect))


if __name__ == "__main__":
    main(sys.argv[1], int(sys.argv[2]), sys.argv[3], Path(sys.argv[4]))
