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
headerless, one nonnegative integer per row, which may be written as an
integral float; linkage files have N-1 rows
``left right distance`` (whitespace or comma separated) where ids 0..N-1 are
the points and row r creates cluster id N+r; ids may be written as integral
floats, as ``np.savetxt`` writes them.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections.abc import Callable
from pathlib import Path

import numpy as np

from .classic import PARTITION_INDEX_IDS, UnknownIndexError, _check_partition_ids, evaluate_many
from .core import (
    Dataset,
    Dendrogram,
    IndexValue,
    Partition,
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


def _data_lines(path: str, what: str) -> list[tuple[int, str]]:
    r"""The non-blank lines of the ``what`` file at ``path``, with their 1-based
    line numbers; InputError if the file cannot be read or is not UTF-8.
    A leading byte-order mark is dropped; lines end at ``\n`` alone, which
    ``read_text`` makes of ``\r\n`` and ``\r``, so a form feed stays in its row."""
    try:
        text = Path(path).read_text(encoding="utf-8-sig")
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {what} file {path}: {exc}") from exc
    return [(lineno, line) for lineno, line in enumerate(text.split("\n"), start=1) if line.strip()]


# Fields cast to float at once by :func:`_cast_rows`: a chunk's split rows
# are the only Python strings held per field, never the whole file's.
_CAST_FIELDS = 2**11


def _cast_rows(
    path: str,
    lines: list[tuple[int, str]],
    split: Callable[[str], list[str]],
    width: int,
    fault: Callable[[str, list[str], int], str | None],
) -> np.ndarray:
    """The ``len(lines) x width`` float table of the fields that ``split``
    makes of each line, cast ``max(1, _CAST_FIELDS // width)`` rows at a
    time into one preallocated array; numpy parses each field with
    ``float()`` (which ignores surrounding whitespace).

    Only when a chunk does not cast to exactly its rows x ``width`` are its
    rows walked: ``fault(line, fields, width)`` gives what is wrong with a
    row, or None, and the first fault raises InputError naming the row's
    file line. The chunks before it cast, so none of their rows is faulty."""
    table = np.empty((len(lines), width))
    step = max(1, _CAST_FIELDS // width)
    for start in range(0, len(lines), step):
        rows = table[start : start + step]
        try:
            # the split chunk lives only for its cast; reshape raises unless every
            # row has width fields, so a chunk of one-field rows cannot broadcast
            cast = np.array([split(line) for _, line in lines[start : start + step]], dtype=float)
            rows[...] = cast.reshape(rows.shape)
        except ValueError:
            for lineno, line in lines[start : start + step]:
                message = fault(line, split(line), width)
                if message:
                    raise InputError(f"{path}: row {lineno}: {message}") from None
            raise
    return table


def _points_fault(line: str, fields: list[str], width: int) -> str | None:
    try:
        list(map(float, fields))
    except ValueError:
        return f"not a numeric CSV row: {line!r}"
    if len(fields) != width:
        return f"expected {width} coordinates, got {len(fields)}"
    return None


def _linkage_fault(line: str, fields: list[str], width: int) -> str | None:
    if len(fields) != width:
        return f"expected 'left right distance', got {line.strip()!r}"
    try:
        list(map(float, fields))
    except ValueError:
        return f"malformed linkage row {line.strip()!r}"
    return None


def _csv_fields(line: str) -> list[str]:
    return line.split(",")


def _linkage_fields(line: str) -> list[str]:
    return line.replace(",", " ").split()


def _read_points(path: str) -> Dataset:
    """The points file's rows as a Dataset, cast by :func:`_cast_rows` as
    wide as the first row; the first row that does not parse, or differs in
    width, is named."""
    lines = _data_lines(path, "points")
    if not lines:
        raise InputError(f"{path}: no data rows")
    points = _cast_rows(path, lines, _csv_fields, len(_csv_fields(lines[0][1])), _points_fault)
    try:
        return Dataset(points)
    except ValueError as exc:
        raise InputError(f"{path}: {exc}") from exc


def _read_labels(path: str, n_points: int) -> Partition:
    """The labels file's rows as a Partition, every whole line cast in one
    call (a row is its one field, so chunks would bound no memory).

    Read as floats, so that the integral floats np.savetxt writes are
    accepted. The first row that is not an integer (1.5, nan, inf or text)
    is named."""
    lines = _data_lines(path, "labels")
    try:
        labels = np.array([line for _, line in lines], dtype=float)
    except ValueError:  # a row of text: read row by row, text as NaN, so the first bad row is named below
        labels = np.array([_label_or_nan(line) for _, line in lines])
    bad = np.flatnonzero(~np.isfinite(labels) | (np.trunc(labels) != labels))
    if bad.size:
        lineno, line = lines[bad[0]]
        raise InputError(f"{path}: row {lineno}: not an integer label: {line.strip()!r}")
    if len(labels) != n_points:
        raise InputError(f"{path}: {len(labels)} labels for {n_points} points")
    try:
        return Partition(labels)
    except ValueError as exc:
        raise InputError(f"{path}: {exc}") from exc


def _label_or_nan(line: str) -> float:
    try:
        return float(line)
    except ValueError:
        return np.nan


def _read_linkage(path: str, n_points: int) -> np.ndarray:
    """The ``(N-1) x 3`` float table of a linkage file's rows, cast by
    :func:`_cast_rows`; the first row that has other than three fields, or
    a field that does not parse, is named.

    Ids are read as floats: Dendrogram rejects a non-integral id by row."""
    lines = _data_lines(path, "linkage")
    table = _cast_rows(path, lines, _linkage_fields, 3, _linkage_fault)
    if len(lines) != n_points - 1:
        raise InputError(f"{path}: expected {n_points - 1} merge rows for {n_points} points, got {len(lines)}")
    return table


def _check_index_ids(ids: list[str], parser: _Parser) -> None:
    try:
        _check_partition_ids(ids)
    except UnknownIndexError as exc:
        parser.error(str(exc))


def _flags_record(flags: PropertyFlags) -> dict:
    return {
        "index": flags.index_id,
        "variant": flags.variant,
        "invariance": flags.invariance,
        "optimality": flags.optimality,
        "baseline": flags.baseline,
        "detail": dict(vars(flags.detail)),
        "undefined_probes": flags.undefined_probes,
    }


def _cmd_compute(args: argparse.Namespace, parser: _Parser) -> dict:
    _check_index_ids(args.index, parser)
    dataset = _read_points(args.data)
    partition = _read_labels(args.labels, dataset.n_points)
    try:
        values = evaluate_many(args.index, dataset, partition)
    except ValueError as exc:  # an index value passed the largest float
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
        try:
            dendrogram = single_linkage(dataset)
        except ValueError as exc:  # a merge height passed the largest float
            raise InputError(f"{args.data}: {exc}") from exc
    else:
        table = _read_linkage(args.linkage, dataset.n_points)
        try:
            dendrogram = Dendrogram(dataset.n_points, table[:, :2], table[:, 2])
        except ValueError as exc:
            raise InputError(f"{args.linkage}: {exc}") from exc
    try:
        curve = si_curve(dataset, dendrogram)
    except ValueError as exc:  # a level's index passed the largest float
        raise InputError(f"{args.data}: {exc}") from exc
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
    text = json.dumps(report, allow_nan=False) + "\n" if fmt == "structured" else _format_table(report)
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _add_common(p: _Parser, out_dest: str = "out",
                out_help: str = "write the report to this file instead of stdout") -> None:
    p.add_argument("--format", choices=("structured", "table"), default="structured",
                   help="report format: JSON document (default) or plain table")
    p.add_argument("--out", dest=out_dest, help=out_help)


def _compute_arguments(p: _Parser) -> None:
    p.add_argument("--data", required=True, help="points CSV (headerless, one point per row)")
    p.add_argument("--labels", required=True, help="labels file (one integer per row)")
    p.add_argument("--index", action="append", required=True,
                   help=f"index id, repeatable; one of: {', '.join(PARTITION_INDEX_IDS)}")
    _add_common(p)


def _properties_arguments(p: _Parser) -> None:
    p.add_argument("--index", action="append", help="index id, repeatable; default: all partition indices")
    _add_common(p)


def _hierarchical_arguments(p: _Parser) -> None:
    p.add_argument("--data", required=True, help="points CSV (headerless, one point per row)")
    p.add_argument("--linkage", default="auto",
                   help="linkage file of N-1 rows 'left right distance', or 'auto' "
                        "to build a single-linkage dendrogram (default)")
    _add_common(p)


def _synth_arguments(p: _Parser) -> None:
    p.add_argument("id", help=f"dataset id, one of: {', '.join(SYNTHETIC_DATASET_IDS)}")
    _add_common(p, out_dest="out_dir", out_help="directory to write the CSV files into (default: .)")


# command -> (help, a function that adds its arguments, handler), in the order --help lists them
_COMMANDS: dict[str, tuple[str, Callable[[_Parser], None], Callable[[argparse.Namespace, _Parser], dict]]] = {
    "compute": ("score a dataset/partition with one or more indices", _compute_arguments, _cmd_compute),
    "properties": ("audit index properties and print the flag table", _properties_arguments, _cmd_properties),
    "hierarchical": ("score a dendrogram over a dataset", _hierarchical_arguments, _cmd_hierarchical),
    "synth": ("write a builtin benchmark dataset as CSV files", _synth_arguments, _cmd_synth),
}


def build_parser(command: str | None = None) -> _Parser:
    """The CLI's parser: with only the subparser of ``command`` when it names
    a command exactly, and with all four otherwise (None included).

    Help and usage output do not depend on which are built: a command line
    whose first argument names a command never reaches another subparser,
    nor the top-level help that lists them all, and the top-level usage
    names every command either way."""
    parser = _Parser(prog="cluster-simplicity", description="Cluster validity scoring and property audit.")
    names = [command] if command in _COMMANDS else list(_COMMANDS)
    # argparse builds the usage line's command list from the registered subparsers; no metavar
    # with all four, or an invalid-choice error would name the argument by its list, not 'command'
    metavar = None if len(names) == len(_COMMANDS) else "{" + ",".join(_COMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser, metavar=metavar)
    for name in names:
        help_text, add_arguments, handler = _COMMANDS[name]
        p = sub.add_parser(name, help=help_text)
        add_arguments(p)
        p.set_defaults(handler=handler)
    return parser


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser(argv[0] if argv else None)
    try:
        args = parser.parse_args(argv)
        report = args.handler(args, parser)
    except SystemExit as exc:  # argparse usage errors and --help
        code = exc.code
        return code if isinstance(code, int) else (0 if code is None else 1)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        _emit(report, args.format, getattr(args, "out", None))
    except OSError as exc:
        print(f"error: cannot write report: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
