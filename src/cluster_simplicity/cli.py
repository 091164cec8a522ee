"""Command-line interface.

Four subcommands:

* ``compute``   -- score a points/labels CSV pair with one or more indices
* ``properties`` -- run the property audit and print the flag table
* ``hierarchical`` -- score a whole dendrogram (from a linkage file or built
  by single linkage) with the simplicity curve and hierarchy score
* ``synth``     -- write one of the builtin benchmark datasets as CSV files

Reports go to standard output as a single JSON document (``--format
structured``, default) or as a plain table (``--format table``); undefined
results are rendered as the token ``"undefined"`` and still exit 0. Exit code
1 flags a usage error, 2 a file parse or validation error.

File formats: points are headerless CSV, one point per row; labels are
headerless, one nonnegative integer per row; linkage files have N-1 rows
``left right distance`` (whitespace or comma separated) where ids 0..N-1 are
the points and row r creates cluster id N+r; ids may be written as integral
floats, as ``np.savetxt`` writes them.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from .classic import PARTITION_INDEX_IDS, UnknownIndexError, _check_partition_ids, evaluate_many
from .core import (
    Dataset,
    IndexValue,
    Partition,
    dendrogram_from_merges,
    is_defined,
    single_linkage,
    synthetic_dataset,
    SYNTHETIC_DATASET_IDS,
)
from .harness import PropertyFlags, _join_flags, audit_all
from .simplicity import si_curve, si_hierarchical


class InputError(Exception):
    """A file failed to parse or validate; exits with code 2."""


class _Parser(argparse.ArgumentParser):
    # argparse defaults to exit code 2 on usage errors; this CLI reserves 2
    # for input validation and uses 1 for usage problems.
    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _render(value: IndexValue) -> float | str:
    return value if is_defined(value) else "undefined"


def _read_points(path: str) -> Dataset:
    rows: list[list[float]] = []
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise InputError(f"cannot read points file {path}: {exc}") from exc
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        fields = [f.strip() for f in line.split(",")]
        try:
            row = [float(f) for f in fields]
        except ValueError:
            raise InputError(f"{path}: row {lineno}: not a numeric CSV row: {line!r}") from None
        if rows and len(row) != len(rows[0]):
            raise InputError(
                f"{path}: row {lineno}: expected {len(rows[0])} coordinates, got {len(row)}"
            )
        rows.append(row)
    if not rows:
        raise InputError(f"{path}: no data rows")
    try:
        return Dataset(np.array(rows))
    except ValueError as exc:
        raise InputError(f"{path}: {exc}") from exc


def _read_labels(path: str, n_points: int) -> Partition:
    labels: list[int] = []
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise InputError(f"cannot read labels file {path}: {exc}") from exc
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            labels.append(int(line.strip()))
        except ValueError:
            raise InputError(f"{path}: row {lineno}: not an integer label: {line.strip()!r}") from None
    if len(labels) != n_points:
        raise InputError(f"{path}: {len(labels)} labels for {n_points} points")
    try:
        return Partition(np.array(labels))
    except ValueError as exc:
        raise InputError(f"{path}: {exc}") from exc


def _read_linkage(path: str, n_points: int) -> list[tuple[float, float, float]]:
    # ids are read as floats: dendrogram_from_merges rejects a non-integral id by row
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise InputError(f"cannot read linkage file {path}: {exc}") from exc
    merges: list[tuple[float, float, float]] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        fields = line.replace(",", " ").split()
        if len(fields) != 3:
            raise InputError(
                f"{path}: row {lineno}: expected 'left right distance', got {line.strip()!r}"
            )
        try:
            left, right, distance = map(float, fields)
        except ValueError:
            raise InputError(f"{path}: row {lineno}: malformed linkage row {line.strip()!r}") from None
        merges.append((left, right, distance))
    if len(merges) != n_points - 1:
        raise InputError(f"{path}: expected {n_points - 1} merge rows for {n_points} points, got {len(merges)}")
    return merges


def _check_index_ids(ids: list[str], parser: _Parser) -> None:
    try:
        _check_partition_ids(ids)
    except UnknownIndexError as exc:
        parser.error(str(exc))


def _flags_record(flags: PropertyFlags) -> dict:
    record = dataclasses.asdict(flags)
    return {"index": record.pop("index_id"), **record}


def _cmd_compute(args: argparse.Namespace, parser: _Parser) -> dict:
    _check_index_ids(args.index, parser)
    dataset = _read_points(args.data)
    partition = _read_labels(args.labels, dataset.n_points)
    try:
        values = evaluate_many(args.index, dataset, partition)
    except ValueError as exc:  # an index overflowed on these coordinates
        raise InputError(f"{args.data}: {exc}") from exc
    return {
        "command": "compute",
        "data": args.data,
        "labels": args.labels,
        "n_points": dataset.n_points,
        "dim": dataset.dim,
        "n_clusters": partition.n_clusters,
        "results": [{"index": index_id, "value": _render(value)} for index_id, value in zip(args.index, values)],
    }


def _cmd_properties(args: argparse.Namespace, parser: _Parser) -> dict:
    ids = args.index or list(PARTITION_INDEX_IDS)
    _check_index_ids(ids, parser)
    return {
        "command": "properties",
        "indices": ids,
        "flags": [_flags_record(flags) for flags in audit_all(ids)],
    }


def _cmd_hierarchical(args: argparse.Namespace, parser: _Parser) -> dict:
    dataset = _read_points(args.data)
    if dataset.n_points < 2:
        raise InputError(f"{args.data}: hierarchy scoring needs at least 2 points")
    if args.linkage == "auto":
        dendrogram = single_linkage(dataset)
    else:
        merges = _read_linkage(args.linkage, dataset.n_points)
        try:
            dendrogram = dendrogram_from_merges(dataset.n_points, merges)
        except ValueError as exc:
            raise InputError(f"{args.linkage}: {exc}") from exc
    curve = si_curve(dataset, dendrogram)
    min_level, min_value = curve.minimum()
    return {
        "command": "hierarchical",
        "data": args.data,
        "linkage": args.linkage,
        "n_points": dataset.n_points,
        "dim": dataset.dim,
        "curve": [{"distance": d, "si": v} for d, v in curve.samples],
        "si_h": _render(si_hierarchical(curve)),
        "min_level": min_level,
        "min_si": min_value,
    }


def _cmd_synth(args: argparse.Namespace, parser: _Parser) -> dict:
    if args.id not in SYNTHETIC_DATASET_IDS:
        parser.error(f"unknown dataset id {args.id!r} (known: {', '.join(SYNTHETIC_DATASET_IDS)})")
    dataset, partition = synthetic_dataset(args.id)
    out_dir = Path(args.out_dir or ".")
    points_path = out_dir / f"{args.id}_points.csv"
    labels_path = out_dir / f"{args.id}_labels.csv"
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        points_path.write_text(
            "".join(",".join(repr(c) for c in row) + "\n" for row in dataset.points.tolist())
        )
        labels_path.write_text("".join(f"{label}\n" for label in partition.labels.tolist()))
    except OSError as exc:
        raise InputError(f"cannot write to {out_dir}: {exc}") from exc
    return {
        "command": "synth",
        "id": args.id,
        "points_path": str(points_path),
        "labels_path": str(labels_path),
        "n_points": dataset.n_points,
        "dim": dataset.dim,
        "n_clusters": partition.n_clusters,
    }


def _format_table(report: dict) -> str:
    lines = [f"command: {report['command']}"]
    if "n_points" in report:
        digest = f"N={report['n_points']} dim={report['dim']}"
        if "n_clusters" in report:
            digest += f" k={report['n_clusters']}"
        lines.append(f"input: {digest}")
    if "results" in report:
        width = max(len(r["index"]) for r in report["results"])
        lines += [f"{r['index']:<{width}}  {r['value']}" for r in report["results"]]
    if "flags" in report:
        header = f"{'index':<12} {'variant':<8} {'flags':<8} detail"
        lines.append(header)
        for row in report["flags"]:
            flag_str = _join_flags(row["invariance"], row["optimality"], row["baseline"])
            detail = " ".join(f"{k}={'T' if v else 'F'}" for k, v in row["detail"].items())
            lines.append(f"{row['index']:<12} {row['variant']:<8} {flag_str:<8} {detail}")
            if row["undefined_probes"]:
                lines.append(f"{'':<12} undefined probes: {', '.join(row['undefined_probes'])}")
    if "curve" in report:
        lines.append(f"{'level':<6} {'distance':<22} si")
        lines += [
            f"{i + 1:<6} {s['distance']:<22} {s['si']}" for i, s in enumerate(report["curve"])
        ]
        lines.append(f"si_h: {report['si_h']}")
        lines.append(f"curve minimum: level {report['min_level']} (si={report['min_si']})")
    if report["command"] == "synth":
        lines.append(f"wrote {report['points_path']} and {report['labels_path']}")
    return "\n".join(lines) + "\n"


def _emit(report: dict, fmt: str, out: str | None) -> None:
    text = json.dumps(report, indent=2) + "\n" if fmt == "structured" else _format_table(report)
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def build_parser() -> _Parser:
    parser = _Parser(prog="cluster-simplicity", description="Cluster validity scoring and property audit.")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def add_common(p: _Parser) -> None:
        p.add_argument("--format", choices=("structured", "table"), default="structured",
                       help="report format: JSON document (default) or plain table")
        p.add_argument("--out", help="write the report to this file instead of stdout")

    p_compute = sub.add_parser("compute", help="score a dataset/partition with one or more indices")
    p_compute.add_argument("--data", required=True, help="points CSV (headerless, one point per row)")
    p_compute.add_argument("--labels", required=True, help="labels file (one integer per row)")
    p_compute.add_argument("--index", action="append", required=True,
                           help=f"index id, repeatable; one of: {', '.join(PARTITION_INDEX_IDS)}")
    add_common(p_compute)
    p_compute.set_defaults(handler=_cmd_compute)

    p_props = sub.add_parser("properties", help="audit index properties and print the flag table")
    p_props.add_argument("--index", action="append",
                         help="index id, repeatable; default: all partition indices")
    add_common(p_props)
    p_props.set_defaults(handler=_cmd_properties)

    p_hier = sub.add_parser("hierarchical", help="score a dendrogram over a dataset")
    p_hier.add_argument("--data", required=True, help="points CSV (headerless, one point per row)")
    p_hier.add_argument("--linkage", default="auto",
                        help="linkage file of N-1 rows 'left right distance', or 'auto' "
                             "to build a single-linkage dendrogram (default)")
    add_common(p_hier)
    p_hier.set_defaults(handler=_cmd_hierarchical)

    p_synth = sub.add_parser("synth", help="write a builtin benchmark dataset as CSV files")
    p_synth.add_argument("id", help=f"dataset id, one of: {', '.join(SYNTHETIC_DATASET_IDS)}")
    p_synth.add_argument("--format", choices=("structured", "table"), default="structured",
                         help="report format: JSON document (default) or plain table")
    p_synth.add_argument("--out", dest="out_dir",
                         help="directory to write the CSV files into (default: .)")
    p_synth.set_defaults(handler=_cmd_synth)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        report = args.handler(args, parser)
    except SystemExit as exc:  # argparse usage errors and --help
        code = exc.code
        return code if isinstance(code, int) else (0 if code is None else 1)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except UnknownIndexError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        _emit(report, args.format, getattr(args, "out", None))
    except OSError as exc:
        print(f"error: cannot write report: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
