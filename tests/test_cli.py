import json
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import cluster_simplicity
from cluster_simplicity import (
    Dataset,
    Partition,
    cli,
    evaluate,
    si_curve,
    si_hierarchical,
    single_linkage,
    synthetic_dataset,
)
from cluster_simplicity.cli import (
    _CAST_FIELDS,
    InputError,
    _read_labels,
    _read_linkage,
    _read_points,
    build_parser,
    main,
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


@pytest.fixture
def line_csv(tmp_path):
    path = tmp_path / "line.csv"
    path.write_text("0\n1\n3\n")
    return str(path)


@pytest.fixture
def x2s_files(tmp_path, capsys):
    report = run_json(capsys, "synth", "X2S", "--out", str(tmp_path))
    return report["points_path"], report["labels_path"]


class TestSynth:
    def test_writes_exact_files(self, tmp_path, capsys):
        report = run_json(capsys, "synth", "X2S", "--out", str(tmp_path))
        points = (tmp_path / "X2S_points.csv").read_text()
        labels = (tmp_path / "X2S_labels.csv").read_text()
        assert points == "0.0,0.0,1.0\n0.0,1.0,0.0\n1.0,0.0,0.0\n"
        assert labels == "0\n1\n1\n"
        assert report["n_points"] == 3
        assert report["dim"] == 3
        assert report["n_clusters"] == 2

    def test_y1s(self, tmp_path, capsys):
        run_json(capsys, "synth", "Y1S", "--out", str(tmp_path))
        assert (tmp_path / "Y1S_points.csv").read_text() == "0.0,0.0,1.0\n" * 3
        assert (tmp_path / "Y1S_labels.csv").read_text() == "0\n0\n0\n"

    def test_x9l(self, tmp_path, capsys):
        run_json(capsys, "synth", "X9L", "--out", str(tmp_path))
        lines = (tmp_path / "X9L_points.csv").read_text().splitlines()
        assert len(lines) == 9
        assert lines[3] == "0.0,0.0,2.0"
        assert lines[8] == "3.0,0.0,0.0"
        labels = (tmp_path / "X9L_labels.csv").read_text().splitlines()
        assert labels == [str(i) for i in range(9)]

    def test_unknown_id_is_usage_error(self, tmp_path, capsys):
        code, _, err = run_cli(capsys, "synth", "X4S", "--out", str(tmp_path))
        assert code == 1
        assert "unknown dataset id" in err

    def test_unwritable_out_is_input_error(self, tmp_path, capsys):
        # a directory cannot be made under a regular file
        blocker = tmp_path / "file"
        blocker.write_text("")
        code, out, err = run_cli(capsys, "synth", "X2S", "--out", str(blocker / "sub"))
        assert code == 2
        assert out == ""
        assert f"cannot write to {blocker / 'sub'}" in err
        assert list(tmp_path.iterdir()) == [blocker]


class TestCompute:
    def test_round_trips_library_values(self, x2s_files, capsys):
        points_path, labels_path = x2s_files
        report = run_json(
            capsys, "compute", "--data", points_path, "--labels", labels_path,
            "--index", "si_centroid", "--index", "si_distance", "--index", "dunn",
        )
        data, part = synthetic_dataset("X2S")
        expected = {
            "si_centroid": evaluate("si_centroid", data, part),
            "si_distance": evaluate("si_distance", data, part),
            "dunn": evaluate("dunn", data, part),
        }
        assert [r["index"] for r in report["results"]] == ["si_centroid", "si_distance", "dunn"]
        for record in report["results"]:
            assert record["value"] == expected[record["index"]]  # bit-exact
        assert report["n_points"] == 3
        assert report["dim"] == 3
        assert report["n_clusters"] == 2

    def test_undefined_token_exits_zero(self, tmp_path, capsys):
        run_json(capsys, "synth", "Y1S", "--out", str(tmp_path))
        report = run_json(
            capsys, "compute",
            "--data", str(tmp_path / "Y1S_points.csv"),
            "--labels", str(tmp_path / "Y1S_labels.csv"),
            "--index", "si_centroid", "--index", "ch",
        )
        assert report["results"][0] == {"index": "si_centroid", "value": 1.0}
        assert report["results"][1] == {"index": "ch", "value": "undefined"}

    def test_single_cluster_distance_form(self, tmp_path, capsys):
        run_json(capsys, "synth", "X1S", "--out", str(tmp_path))
        report = run_json(
            capsys, "compute",
            "--data", str(tmp_path / "X1S_points.csv"),
            "--labels", str(tmp_path / "X1S_labels.csv"),
            "--index", "si_distance",
        )
        assert report["results"][0]["value"] == pytest.approx(3.0, abs=1e-12)

    def test_request_order_preserved(self, x2s_files, capsys):
        points_path, labels_path = x2s_files
        report = run_json(
            capsys, "compute", "--data", points_path, "--labels", labels_path,
            "--index", "db", "--index", "ch", "--index", "db",
        )
        assert [r["index"] for r in report["results"]] == ["db", "ch", "db"]

    def test_structured_output_round_trips(self, x2s_files, capsys):
        points_path, labels_path = x2s_files
        code, out, _ = run_cli(
            capsys, "compute", "--data", points_path, "--labels", labels_path,
            "--index", "si_centroid",
        )
        assert code == 0
        parsed = json.loads(out)
        assert json.loads(json.dumps(parsed)) == parsed

    def test_table_format(self, x2s_files, capsys):
        points_path, labels_path = x2s_files
        code, out, _ = run_cli(
            capsys, "compute", "--data", points_path, "--labels", labels_path,
            "--index", "cindex", "--format", "table",
        )
        assert code == 0
        assert "cindex" in out
        assert "undefined" in out

    def test_out_file(self, x2s_files, tmp_path, capsys):
        points_path, labels_path = x2s_files
        out_path = tmp_path / "report.json"
        code, out, _ = run_cli(
            capsys, "compute", "--data", points_path, "--labels", labels_path,
            "--index", "dunn", "--out", str(out_path),
        )
        assert code == 0
        assert out == ""
        assert json.loads(out_path.read_text())["results"][0]["index"] == "dunn"

    def test_unwritable_out_path(self, x2s_files, tmp_path, capsys):
        points_path, labels_path = x2s_files
        code, _, err = run_cli(
            capsys, "compute", "--data", points_path, "--labels", labels_path,
            "--index", "dunn", "--out", str(tmp_path),  # a directory, not a file
        )
        assert code == 2
        assert "cannot write report" in err

    def test_unknown_index_is_usage_error(self, x2s_files, capsys):
        points_path, labels_path = x2s_files
        code, _, err = run_cli(
            capsys, "compute", "--data", points_path, "--labels", labels_path, "--index", "nope",
        )
        assert code == 1
        assert "unknown index" in err

    def test_hierarchy_scorer_redirected(self, x2s_files, capsys):
        points_path, labels_path = x2s_files
        code, _, err = run_cli(
            capsys, "compute", "--data", points_path, "--labels", labels_path,
            "--index", "si_hierarchical",
        )
        assert code == 1
        assert "hierarchical" in err

    def test_missing_file_is_input_error(self, tmp_path, capsys):
        code, _, err = run_cli(
            capsys, "compute", "--data", str(tmp_path / "nope.csv"),
            "--labels", str(tmp_path / "nope2.csv"), "--index", "ch",
        )
        assert code == 2
        assert "cannot read" in err

    def test_bad_row_names_row(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("1,2\nx,3\n")
        labels = tmp_path / "labels.csv"
        labels.write_text("0\n0\n")
        code, _, err = run_cli(
            capsys, "compute", "--data", str(bad), "--labels", str(labels), "--index", "ch",
        )
        assert code == 2
        assert "row 2" in err

    def test_ragged_row_names_row(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("1,2\n3,4,5\n")
        labels = tmp_path / "labels.csv"
        labels.write_text("0\n0\n")
        code, _, err = run_cli(
            capsys, "compute", "--data", str(bad), "--labels", str(labels), "--index", "ch",
        )
        assert code == 2
        assert "row 2" in err and "expected 2 coordinates" in err

    def test_label_count_mismatch(self, x2s_files, tmp_path, capsys):
        points_path, _ = x2s_files
        labels = tmp_path / "short_labels.csv"
        labels.write_text("0\n1\n")
        code, _, err = run_cli(
            capsys, "compute", "--data", points_path, "--labels", str(labels), "--index", "ch",
        )
        assert code == 2
        assert "2 labels for 3 points" in err

    def test_empty_cluster_names_label(self, x2s_files, tmp_path, capsys):
        points_path, _ = x2s_files
        labels = tmp_path / "gappy.csv"
        labels.write_text("0\n2\n2\n")
        code, _, err = run_cli(
            capsys, "compute", "--data", points_path, "--labels", str(labels), "--index", "ch",
        )
        assert code == 2
        assert "label 1 has no members" in err

    def test_coordinates_out_to_the_largest_float_score(self, tmp_path, capsys):
        # unscaled, the centroid offsets and squares would overflow; the rescaled points
        # give the values of the copy scaled by 2^-1023, exactly
        points = tmp_path / "huge.csv"
        points.write_text("-1e308\n-5e307\n5e307\n1e308\n")
        labels = tmp_path / "labels.csv"
        labels.write_text("0\n0\n1\n1\n")
        report = run_json(
            capsys, "compute", "--data", str(points), "--labels", str(labels),
            "--index", "ch", "--index", "si_distance",
        )
        copy = Dataset(np.array([[-1e308], [-5e307], [5e307], [1e308]]) * 2.0**-1023)
        part = Partition(np.array([0, 0, 1, 1]))
        assert [r["value"] for r in report["results"]] == [evaluate("ch", copy, part), evaluate("si_distance", copy, part)]

    def test_coordinates_near_1e154_score(self, tmp_path, capsys):
        # the diagonal's squared difference would overflow: once a silent 2.0, with a
        # RuntimeWarning, then an input error; now the unit-scale value
        points = tmp_path / "huge.csv"
        points.write_text("0,0\n0,1e154\n3e154,0\n3e154,1e154\n")
        labels = tmp_path / "labels.csv"
        labels.write_text("0\n0\n1\n1\n")
        report = run_json(
            capsys, "compute", "--data", str(points), "--labels", str(labels), "--index", "si_centroid",
        )
        unit = evaluate("si_centroid", Dataset([[0.0, 0.0], [0.0, 1.0], [3.0, 0.0], [3.0, 1.0]]), Partition([0, 0, 1, 1]))
        assert report["results"][0]["value"] == pytest.approx(unit, rel=1e-12)

    def test_index_past_the_largest_float_is_input_error(self, tmp_path, capsys):
        # SI = 2 exp(N ln 2 / 4) at N = 4200: once an uncaught OverflowError
        points = tmp_path / "spike.csv"
        points.write_text("1\n-1\n" + "0\n" * 4198)
        labels = tmp_path / "labels.csv"
        labels.write_text("0\n0\n" + "1\n" * 4198)
        code, out, err = run_cli(
            capsys, "compute", "--data", str(points), "--labels", str(labels), "--index", "si_centroid",
        )
        assert (code, out) == (2, "")
        assert f"{points}: index 'si_centroid': the arithmetic overflowed to inf" in err

    def test_ch_past_the_largest_float_is_input_error(self, tmp_path, capsys):
        # the within dispersion's mean underflows to 0: once a ZeroDivisionError traceback and exit 1
        points = tmp_path / "tight.csv"
        points.write_text(f"0\n{2.0**-536!r}\n" + "1\n" * 8)
        labels = tmp_path / "labels.csv"
        labels.write_text("0\n0\n" + "1\n" * 8)
        code, out, err = run_cli(capsys, "compute", "--data", str(points), "--labels", str(labels), "--index", "ch")
        assert (code, out) == (2, "")
        assert f"{points}: index 'ch': the arithmetic overflowed to inf" in err

    def test_bad_label_names_row(self, x2s_files, tmp_path, capsys):
        points_path, _ = x2s_files
        labels = tmp_path / "bad_labels.csv"
        labels.write_text("0\nzero\n1\n")
        code, _, err = run_cli(
            capsys, "compute", "--data", points_path, "--labels", str(labels), "--index", "ch",
        )
        assert code == 2
        assert "row 2" in err


class TestProperties:
    def test_default_audits_all(self, capsys):
        report = run_json(capsys, "properties")
        ids = [row["index"] for row in report["flags"]]
        assert ids == [
            "si_centroid", "si_distance", "ch", "silhouette", "sf", "dunn", "db", "cindex",
        ]

    def test_si_centroid_row(self, capsys):
        report = run_json(capsys, "properties", "--index", "si_centroid")
        row = report["flags"][0]
        assert (row["invariance"], row["optimality"], row["baseline"]) == ("S", "B", "C")
        assert all(row["detail"].values())
        assert row["undefined_probes"] == []

    def test_classic_rows(self, capsys):
        report = run_json(capsys, "properties", "--index", "ch", "--index", "db")
        flags = [(r["invariance"], r["optimality"], r["baseline"]) for r in report["flags"]]
        assert flags == [("S", "none", "none"), ("S", "none", "none")]

    def test_sf_row(self, capsys):
        report = run_json(capsys, "properties", "--index", "sf")
        assert report["flags"][0]["invariance"] == "s"

    def test_unknown_index(self, capsys):
        code, _, err = run_cli(capsys, "properties", "--index", "nope")
        assert code == 1
        assert "unknown index" in err


class TestHierarchical:
    def test_auto_linkage_line(self, line_csv, capsys):
        report = run_json(capsys, "hierarchical", "--data", line_csv)
        assert [s["distance"] for s in report["curve"]] == [0.0, 1.0, 2.0]
        assert report["curve"][0]["si"] == pytest.approx(3.0, abs=1e-12)
        assert report["curve"][1]["si"] == pytest.approx(2.337554497122491, rel=1e-12)
        assert report["curve"][2]["si"] == pytest.approx(3.0, abs=1e-12)
        assert report["si_h"] == pytest.approx(1.3343886242806229, rel=1e-12)
        assert report["min_level"] == 2

    def test_explicit_linkage_matches_auto(self, line_csv, tmp_path, capsys):
        linkage = tmp_path / "linkage.txt"
        linkage.write_text("0 1 1.0\n2 3 2.0\n")
        auto = run_json(capsys, "hierarchical", "--data", line_csv)
        explicit = run_json(capsys, "hierarchical", "--data", line_csv, "--linkage", str(linkage))
        assert explicit["curve"] == auto["curve"]
        assert explicit["si_h"] == auto["si_h"]

    def test_comma_separated_linkage(self, line_csv, tmp_path, capsys):
        linkage = tmp_path / "linkage.csv"
        linkage.write_text("0,1,1.0\n2,3,2.0\n")
        report = run_json(capsys, "hierarchical", "--data", line_csv, "--linkage", str(linkage))
        assert report["si_h"] == pytest.approx(1.3343886242806229, rel=1e-12)

    def test_savetxt_linkage_matches_integer_ids(self, line_csv, tmp_path, capsys):
        # np.savetxt writes the ids of a linkage matrix as floats such as 2.000e+00
        integer = tmp_path / "integer.txt"
        integer.write_text("0 1 1.0\n2 3 2.0\n")
        floats = tmp_path / "floats.txt"
        np.savetxt(floats, np.array([[0.0, 1.0, 1.0], [2.0, 3.0, 2.0]]))
        expected = run_json(capsys, "hierarchical", "--data", line_csv, "--linkage", str(integer))
        report = run_json(capsys, "hierarchical", "--data", line_csv, "--linkage", str(floats))
        assert {**report, "linkage": None} == {**expected, "linkage": None}

    def test_non_integral_id_named(self, line_csv, tmp_path, capsys):
        linkage = tmp_path / "bad.txt"
        linkage.write_text("0 1.5 1.0\n2 3 2.0\n")
        code, _, err = run_cli(capsys, "hierarchical", "--data", line_csv, "--linkage", str(linkage))
        assert code == 2
        assert "merge row 1" in err and "not an integer" in err

    def test_identical_points_undefined(self, tmp_path, capsys):
        data = tmp_path / "same.csv"
        data.write_text("1,2\n1,2\n1,2\n")
        report = run_json(capsys, "hierarchical", "--data", data.as_posix())
        assert report["si_h"] == "undefined"

    def test_two_points_endpoints(self, tmp_path, capsys):
        data = tmp_path / "two.csv"
        data.write_text("0\n5\n")
        report = run_json(capsys, "hierarchical", "--data", str(data))
        assert [s["si"] for s in report["curve"]] == pytest.approx([2.0, 2.0], abs=1e-12)

    def test_matches_library(self, line_csv, capsys):
        from cluster_simplicity import Dataset

        report = run_json(capsys, "hierarchical", "--data", line_csv)
        data = Dataset([[0.0], [1.0], [3.0]])
        curve = si_curve(data, single_linkage(data))
        assert report["si_h"] == si_hierarchical(curve)  # bit-exact

    def test_malformed_row_named(self, line_csv, tmp_path, capsys):
        linkage = tmp_path / "bad.txt"
        linkage.write_text("0 1 1.0\n2 3\n")
        code, _, err = run_cli(capsys, "hierarchical", "--data", line_csv, "--linkage", str(linkage))
        assert code == 2
        assert "row 2" in err

    def test_decreasing_distance_named(self, line_csv, tmp_path, capsys):
        linkage = tmp_path / "bad.txt"
        linkage.write_text("0 1 2.0\n2 3 1.0\n")
        code, _, err = run_cli(capsys, "hierarchical", "--data", line_csv, "--linkage", str(linkage))
        assert code == 2
        assert "merge row 2" in err and "decreases" in err

    def test_out_of_range_id_named(self, line_csv, tmp_path, capsys):
        linkage = tmp_path / "bad.txt"
        linkage.write_text("0 9 1.0\n2 3 2.0\n")
        code, _, err = run_cli(capsys, "hierarchical", "--data", line_csv, "--linkage", str(linkage))
        assert code == 2
        assert "merge row 1" in err and "out of range" in err

    def test_wrong_row_count(self, line_csv, tmp_path, capsys):
        linkage = tmp_path / "bad.txt"
        linkage.write_text("0 1 1.0\n")
        code, _, err = run_cli(capsys, "hierarchical", "--data", line_csv, "--linkage", str(linkage))
        assert code == 2
        assert "expected 2 merge rows" in err

    def test_single_point_auto(self, tmp_path, capsys):
        data = tmp_path / "one.csv"
        data.write_text("1,2\n")
        code, _, err = run_cli(capsys, "hierarchical", "--data", str(data))
        assert code == 2
        assert "at least 2 points" in err

    def test_distances_past_the_square_root_of_the_largest_float_score(self, tmp_path, capsys):
        # the squared differences would overflow unscaled; the curve is the unit rectangle's
        data = tmp_path / "huge.csv"
        data.write_text("0,0\n0,1e160\n3e160,0\n3e160,1e160\n")
        report = run_json(capsys, "hierarchical", "--data", str(data))
        rectangle = Dataset([[0.0, 0.0], [0.0, 1.0], [3.0, 0.0], [3.0, 1.0]])
        unit = si_curve(rectangle, single_linkage(rectangle))
        assert [s["si"] for s in report["curve"]] == pytest.approx(unit.values, rel=1e-12)
        assert [s["distance"] for s in report["curve"]] == pytest.approx([d * 1e160 for d in unit.distances], rel=1e-12)

    def test_a_height_past_the_largest_float_is_input_error(self, tmp_path, capsys):
        data = tmp_path / "huge.csv"
        data.write_text("1.7e308,1.7e308\n-1.7e308,-1.7e308\n")
        code, out, err = run_cli(capsys, "hierarchical", "--data", str(data))
        assert code == 2
        assert out == ""
        assert f"error: {data}: single linkage: a merge height overflowed to inf" in err

    def test_radii_past_the_square_root_of_the_largest_float_score(self, tmp_path, capsys):
        # the distances fit, but the squared centroid offsets of si_curve would overflow
        # unscaled, which was an input error; the curve is (4, 3.2274, 2.4901, 4)
        data = tmp_path / "huge.csv"
        data.write_text("0,0\n0,1e200\n3e200,0\n3e200,1e200\n")
        linkage = tmp_path / "merges.txt"
        linkage.write_text("0 1 1e200\n2 3 1e200\n4 5 3e200\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            report = run_json(capsys, "hierarchical", "--data", str(data), "--linkage", str(linkage))
        assert caught == []
        assert [s["si"] for s in report["curve"]] == pytest.approx([4.0, 3.2274, 2.4901, 4.0], abs=1e-4)

    def test_huge_merge_distances_give_valid_json(self, tmp_path, capsys):
        # the trapezoid area and (N - 1) * span both overflow; their ratio does not
        data = tmp_path / "square.csv"
        data.write_text("0,0\n0,1\n3,0\n3,1\n")
        linkage = tmp_path / "merges.txt"
        linkage.write_text("0 1 1e308\n2 3 1.5e308\n4 5 1.7e308\n")
        code, out, err = run_cli(capsys, "hierarchical", "--data", str(data), "--linkage", str(linkage))
        assert (code, err) == (0, "")

        def reject(constant):
            raise ValueError(f"{constant} is not JSON")

        report = json.loads(out, parse_constant=reject)
        assert 1.0 <= report["si_h"] <= 4.0

    def test_single_point_explicit_linkage(self, tmp_path, capsys):
        data = tmp_path / "one.csv"
        data.write_text("1,2\n")
        linkage = tmp_path / "empty.txt"
        linkage.write_text("")
        code, _, err = run_cli(capsys, "hierarchical", "--data", str(data), "--linkage", str(linkage))
        assert code == 2
        assert "at least 2 points" in err


class TestTableFormat:
    # compute's table is covered in TestCompute
    def test_properties(self, capsys):
        code, out, _ = run_cli(capsys, "properties", "--index", "si_centroid", "--index", "ch", "--format", "table")
        assert code == 0
        assert out.splitlines() == [
            "command: properties",
            "index        variant  flags    detail",
            "si_centroid  short    S B C    scale_ok=T shift_ok=T is_best_at_y1=T y2_worse_than_y1=T "
            "baseline_at_x1=T baseline_at_xmax=T",
            "ch           short    S        scale_ok=T shift_ok=T is_best_at_y1=F y2_worse_than_y1=F "
            "baseline_at_x1=F baseline_at_xmax=F",
            "             undefined probes: Y1, Y2, X1, Xmax",
        ]

    def test_hierarchical(self, line_csv, capsys):
        report = run_json(capsys, "hierarchical", "--data", line_csv)
        code, out, _ = run_cli(capsys, "hierarchical", "--data", line_csv, "--format", "table")
        assert code == 0
        si = [sample["si"] for sample in report["curve"]]
        assert out.splitlines() == [
            "command: hierarchical",
            "input: N=3 dim=1",
            "level  distance               si",
            f"1      0.0                    {si[0]}",
            f"2      1.0                    {si[1]}",
            f"3      2.0                    {si[2]}",
            f"si_h: {report['si_h']}",
            f"curve minimum: level 2 (si={si[1]})",
        ]

    def test_synth(self, tmp_path, capsys):
        code, out, _ = run_cli(capsys, "synth", "X2S", "--out", str(tmp_path), "--format", "table")
        assert code == 0
        assert out.splitlines() == [
            "command: synth",
            "input: N=3 dim=3 k=2",
            f"wrote {tmp_path / 'X2S_points.csv'} and {tmp_path / 'X2S_labels.csv'}",
        ]


class TestReaders:
    # three points on a line, their labels and their single-linkage rows
    FILES = {"points": "0,0\n1,0\n3,0\n", "labels": "0\n0\n1\n", "linkage": "0 1 1.0\n2 3 2.0\n"}

    @pytest.mark.parametrize("blank", ["points", "labels", "linkage"])
    def test_blank_lines_are_skipped(self, blank, tmp_path, capsys):
        paths = {}
        for name, text in self.FILES.items():
            if name == blank:
                text = "\n" + text.replace("\n", "\n  \n", 1) + "\n"
            paths[name] = tmp_path / f"{name}.txt"
            paths[name].write_text(text)
        compute = run_json(
            capsys, "compute", "--data", str(paths["points"]), "--labels", str(paths["labels"]), "--index", "ch"
        )
        assert compute["n_points"] == 3
        line = Dataset([[0.0, 0.0], [1.0, 0.0], [3.0, 0.0]])
        assert compute["results"][0]["value"] == evaluate("ch", line, Partition([0, 0, 1]))
        hierarchy = run_json(capsys, "hierarchical", "--data", str(paths["points"]), "--linkage", str(paths["linkage"]))
        assert [sample["distance"] for sample in hierarchy["curve"]] == [0.0, 1.0, 2.0]

    @pytest.mark.parametrize(
        "name, text, message",
        [
            ("points", "0,0\n\nx,1\n", "row 3: not a numeric CSV row: 'x,1'"),
            ("labels", "0\n\n\nzero\n", "row 4: not an integer label: 'zero'"),
            ("labels", "0\n0\n1.5\n", "row 3: not an integer label: '1.5'"),
            ("linkage", "\n0 1 1.0\n2 3 x\n", "row 3: malformed linkage row '2 3 x'"),
        ],
    )
    def test_row_numbers_count_blank_lines(self, name, text, message, tmp_path, capsys):
        files = {**self.FILES, name: text}
        for file, content in files.items():
            (tmp_path / file).write_text(content)
        data, labels, linkage = (str(tmp_path / file) for file in files)
        argv = (
            ["hierarchical", "--data", data, "--linkage", linkage]
            if name == "linkage"
            else ["compute", "--data", data, "--labels", labels, "--index", "ch"]
        )
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == f"error: {tmp_path / name}: {message}\n"

    # each reader on a path, as a plain array
    READ = {
        "points": lambda path: _read_points(path).points,
        "labels": lambda path: _read_labels(path, 3).labels,
        "linkage": lambda path: _read_linkage(path, 3),
    }

    @pytest.mark.parametrize("separator", ["\f", "\x1c", "\u2028"], ids=["form feed", "file separator", "line separator"])
    @pytest.mark.parametrize(
        "name, first, message",
        [
            ("points", "0,0{}1,1", "not a numeric CSV row: {!r}"),
            ("labels", "0{}1", "not an integer label: {!r}"),
            ("linkage", "0 1 1.0{}2 3 2.0", "expected 'left right distance', got {!r}"),
        ],
        ids=["points", "labels", "linkage"],
    )
    def test_only_a_newline_ends_a_row(self, name, first, message, separator, tmp_path):
        # the first line joins two rows with a character that str.splitlines would
        # also break at; the line is one row, and so a bad one, named whole
        first = first.format(separator)
        path = tmp_path / name
        path.write_text(first + "\n" + self.FILES[name].split("\n", 1)[1], encoding="utf-8")
        with pytest.raises(InputError) as raised:
            self.READ[name](str(path))
        assert str(raised.value) == f"{path}: row 1: {message.format(first)}"

    @pytest.mark.parametrize("newline", ["\r\n", "\r"], ids=["CRLF", "CR"])
    @pytest.mark.parametrize(
        "name, text",
        [
            *FILES.items(),
            ("points", "0,0\n\nx,1\n"),
            ("labels", "0\n\n\nzero\n"),
            ("linkage", "\n0 1 1.0\n2 3 x\n"),
        ],
        ids=["points", "labels", "linkage", "bad points", "bad labels", "bad linkage"],
    )
    def test_other_line_ends_read_as_newlines(self, name, text, newline, tmp_path):
        # the same rows, or the same row named by the same line number
        def outcome(path):
            try:
                return self.READ[name](str(path)).tolist()
            except InputError as exc:
                return str(exc).replace(str(path), "")

        (tmp_path / "lf").write_bytes(text.encode())
        (tmp_path / "other").write_bytes(text.replace("\n", newline).encode())
        assert outcome(tmp_path / "other") == outcome(tmp_path / "lf")

    @pytest.mark.parametrize(
        "bad, message",
        [("24 25 1e", "malformed linkage row '24 25 1e'"), ("24 25", "expected 'left right distance', got '24 25'")],
    )
    def test_late_bad_linkage_row_names_its_file_line(self, bad, message, tmp_path):
        # 30 rows with a blank line after the fifth: the 25th row is file line 26;
        # the malformed row after it is never reached
        rows = [f"{i} {i + 1} {i}.0" for i in range(30)]
        rows[24], rows[27] = bad, "x y z"
        rows.insert(5, "")
        path = tmp_path / "linkage.txt"
        path.write_text("\n".join(rows) + "\n")
        with pytest.raises(InputError) as raised:
            _read_linkage(str(path), 31)
        assert str(raised.value) == f"{path}: row 26: {message}"

    @pytest.mark.parametrize(
        "bad, later, message",
        [("1,2e", "7", "not a numeric CSV row: '1,2e'"), ("7", "1,2e", "expected 2 coordinates, got 1")],
    )
    def test_late_bad_points_row_names_its_file_line(self, bad, later, message, tmp_path):
        # 30 rows with a blank line after the fifth: the 25th row is file line 26;
        # the bad row of the other kind after it is never reached
        rows = [f"{i},{i}.5" for i in range(30)]
        rows[24], rows[27] = bad, later
        rows.insert(5, "")
        path = tmp_path / "points.csv"
        path.write_text("\n".join(rows) + "\n")
        with pytest.raises(InputError) as raised:
            _read_points(str(path))
        assert str(raised.value) == f"{path}: row 26: {message}"

    # rows per cast of 2-field points and of 3-field linkage rows, and a good row of each
    CHUNK = {"points": _CAST_FIELDS // 2, "linkage": _CAST_FIELDS // 3}
    ROW = {"points": "{i},{i}.5", "linkage": "{i} {i} {i}.0"}

    @staticmethod
    def read(name, path, n_rows):
        return _read_points(str(path)) if name == "points" else _read_linkage(str(path), n_rows + 1)

    @pytest.mark.parametrize(
        "name, bad, message",
        [
            ("points", "7,2e", "not a numeric CSV row: '7,2e'"),
            ("points", "7", "expected 2 coordinates, got 1"),
            ("linkage", "5 6 1e", "malformed linkage row '5 6 1e'"),
            ("linkage", "5 6", "expected 'left right distance', got '5 6'"),
        ],
    )
    def test_bad_row_in_a_later_chunk_names_its_file_line(self, name, bad, message, tmp_path):
        # three chunks, with two blank lines in the first: the row 10 past the
        # start of the third chunk is file line 2 * chunk + 13
        chunk = self.CHUNK[name]
        rows = [self.ROW[name].format(i=i) for i in range(3 * chunk)]
        rows[2 * chunk + 10] = bad
        rows[3:3] = ["", "  "]
        path = tmp_path / name
        path.write_text("\n".join(rows) + "\n")
        with pytest.raises(InputError) as raised:
            self.read(name, path, 3 * chunk)
        assert str(raised.value) == f"{path}: row {2 * chunk + 13}: {message}"

    @pytest.mark.parametrize("name", ["points", "linkage"])
    def test_only_the_failing_chunk_is_walked(self, name, monkeypatch, tmp_path):
        # the file of test_bad_row_in_a_later_chunk_names_its_file_line: the rows of
        # the first two chunks cast, so only the third chunk's rows are checked one by one
        fault_name = f"_{name}_fault"
        fault = getattr(cli, fault_name)
        calls = []

        def counted(*args):
            calls.append(args)
            return fault(*args)

        monkeypatch.setattr(cli, fault_name, counted)
        chunk = self.CHUNK[name]
        rows = [self.ROW[name].format(i=i) for i in range(3 * chunk)]
        rows[2 * chunk + 10] = "x"
        rows[3:3] = ["", "  "]
        path = tmp_path / name
        path.write_text("\n".join(rows) + "\n")
        with pytest.raises(InputError) as raised:
            self.read(name, path, 3 * chunk)
        message = "not a numeric CSV row: 'x'" if name == "points" else "expected 'left right distance', got 'x'"
        assert str(raised.value) == f"{path}: row {2 * chunk + 13}: {message}"
        assert len(calls) <= chunk

    @pytest.mark.parametrize("name", ["points", "linkage"])
    def test_later_chunk_of_one_field_rows_is_rejected(self, name, tmp_path):
        # every row of the second chunk holds one field: cast alone it is a
        # one-column array, which must not be spread across the columns
        chunk = self.CHUNK[name]
        rows = [self.ROW[name].format(i=i) if i < chunk else str(i) for i in range(2 * chunk)]
        rows[3:3] = [""]
        path = tmp_path / name
        path.write_text("\n".join(rows) + "\n")
        message = "expected 2 coordinates, got 1" if name == "points" else f"expected 'left right distance', got '{chunk}'"
        with pytest.raises(InputError) as raised:
            self.read(name, path, 2 * chunk)
        assert str(raised.value) == f"{path}: row {chunk + 2}: {message}"

    @pytest.mark.parametrize("first, later", [("1.5", "x"), ("x", "1.5")])
    @pytest.mark.parametrize("gap", [1, _CAST_FIELDS], ids=["one chunk", "next chunk"])
    def test_first_bad_label_row_is_named(self, first, later, gap, tmp_path):
        # labels are cast a chunk of whole lines at a time; a row that is not an
        # integer and one that does not parse are named alike, the first one first.
        # With a blank line after the third row, the sixth row is file line 7
        rows = ["0"] * (2 * _CAST_FIELDS)
        rows[5], rows[5 + gap] = first, later
        rows.insert(3, "")
        path = tmp_path / "labels.txt"
        path.write_text("\n".join(rows) + "\n")
        with pytest.raises(InputError) as raised:
            _read_labels(str(path), 2 * _CAST_FIELDS)
        assert str(raised.value) == f"{path}: row 7: not an integer label: {first!r}"

    def test_points_cast_in_bounded_memory(self, tmp_path):
        # one chunk's split fields are held at a time, not the whole file's:
        # 1000 x 8 repr floats (150 kB of text) peak near 0.5 MB under
        # tracemalloc, and holding every field as a string at once passes 1 MB
        points = np.random.default_rng(0).standard_normal((1000, 8))
        path = tmp_path / "points.csv"
        path.write_text("".join(",".join(map(repr, row)) + "\n" for row in points.tolist()))
        _read_points(str(path))  # first-call imports and caches are not counted
        tracemalloc.start()
        try:
            dataset = _read_points(str(path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(dataset.points, points)
        assert peak < 0.75e6

    def test_savetxt_labels_are_read(self, tmp_path, capsys):
        # np.savetxt writes integer labels as integral floats: 0.000000000000000000e+00
        (tmp_path / "points.csv").write_text(self.FILES["points"])
        np.savetxt(tmp_path / "labels.txt", np.array([0, 0, 1]))
        compute = run_json(
            capsys, "compute", "--data", str(tmp_path / "points.csv"), "--labels", str(tmp_path / "labels.txt"),
            "--index", "ch",
        )
        line = Dataset([[0.0, 0.0], [1.0, 0.0], [3.0, 0.0]])
        assert compute["results"][0]["value"] == evaluate("ch", line, Partition([0, 0, 1]))

    def test_no_data_rows(self, tmp_path, capsys):
        data = tmp_path / "blank.csv"
        data.write_text("\n  \n")
        code, _, err = run_cli(capsys, "hierarchical", "--data", str(data))
        assert code == 2
        assert err == f"error: {data}: no data rows\n"

    def test_non_finite_coordinate(self, tmp_path, capsys):
        data = tmp_path / "nan.csv"
        data.write_text("0,1\nnan,2\n")
        code, _, err = run_cli(capsys, "hierarchical", "--data", str(data))
        assert code == 2
        assert err == f"error: {data}: points contain non-finite coordinates\n"

    @pytest.mark.parametrize("what", ["labels", "linkage"])
    def test_unreadable_file(self, what, line_csv, tmp_path, capsys):
        missing = tmp_path / "missing.txt"
        if what == "labels":
            argv = ["compute", "--data", line_csv, "--labels", str(missing), "--index", "ch"]
        else:
            argv = ["hierarchical", "--data", line_csv, "--linkage", str(missing)]
        code, _, err = run_cli(capsys, *argv)
        assert code == 2
        assert err.startswith(f"error: cannot read {what} file {missing}: ")

    def test_file_that_is_not_utf8(self, tmp_path, capsys):
        data = tmp_path / "latin1.csv"
        data.write_bytes(b"\xff0,0\n1,0\n")
        code, out, err = run_cli(capsys, "hierarchical", "--data", str(data))
        assert (code, out) == (2, "")
        assert err.startswith(f"error: cannot read points file {data}: ")
        assert "can't decode byte 0xff" in err

    def test_byte_order_mark_is_dropped(self, tmp_path, capsys):
        data = tmp_path / "bom.csv"
        data.write_bytes(b"\xef\xbb\xbf" + self.FILES["points"].encode())  # UTF-8 byte-order mark
        hierarchy = run_json(capsys, "hierarchical", "--data", str(data))
        assert hierarchy["n_points"] == 3
        assert [sample["distance"] for sample in hierarchy["curve"]] == [0.0, 1.0, 2.0]


def parse_outcome(parser, argv, capsys):
    """(exit code, stdout, stderr) of parsing ``argv``; the code is 0 with the
    namespace, and the top-level usage that a handler's parser.error prints,
    when parsing succeeds."""
    try:
        namespace = parser.parse_args(argv)
    except SystemExit as exc:
        return (exc.code, *capsys.readouterr())
    return 0, vars(namespace), parser.format_usage()


_RUN = ["--data", "p.csv", "--labels", "l.csv", "--index", "ch"]
PARSER_CASES = [
    [], ["-h"], ["--help"], ["--"], ["-h", "compute"], ["--help", "synth"], ["-x"], ["--", "compute"],
    ["bogus"], ["comp"], ["Compute"], ["hier"], ["--format", "table", "compute"], ["--data", "p.csv", "compute"],
    ["compute"], ["compute", "-h"], ["compute", "--help"], ["compute", "--data", "p.csv"],
    ["compute", "--data", "p.csv", "--labels", "l.csv"], ["compute", *_RUN],
    ["compute", *_RUN, "--index", "db", "--format", "table", "--out", "r.txt"], ["compute", *_RUN, "extra"],
    ["compute", "--data", "p.csv", "--labels", "l.csv", "--index", "bogus"], ["compute", *_RUN, "--format", "xml"],
    ["compute", "--dat", "p.csv", "--lab", "l.csv", "--ind", "ch"], ["compute", *_RUN, "--bogus"],
    ["compute", "--data"], ["compute", "--data", "p.csv", "-h"], ["compute", "--", "x"], ["compute", "-x"],
    ["properties"], ["properties", "-h"], ["properties", "--help"], ["properties", "--index", "ch", "--index", "sf"],
    ["properties", "--index", "nope"], ["properties", "x"], ["properties", "--format", "table", "--out", "f"],
    ["properties", "--form", "xml"], ["properties", "--in", "ch"], ["properties", "--index"],
    ["hierarchical"], ["hierarchical", "-h"], ["hierarchical", "--help"], ["hierarchical", "--data", "p.csv"],
    ["hierarchical", "--data", "p.csv", "--linkage", "m.txt"], ["hierarchical", "--data", "p.csv", "y"],
    ["hierarchical", "--data", "p.csv", "--linkage"], ["hierarchical", "--data", "p.csv", "--format", "json"],
    ["hierarchical", "--lin", "auto", "--data", "p.csv"], ["hierarchical", "--linkage", "m.txt"],
    ["synth"], ["synth", "-h"], ["synth", "--help"], ["synth", "X2L"], ["synth", "X2L", "--out", "d"],
    ["synth", "X2L", "a"], ["synth", "bogus"], ["synth", "X2L", "--format", "x"], ["synth", "--out", "d"],
    ["synth", "X2L", "--o", "d"], ["synth", "X2L", "--format", "table", "extra", "more"],
]


class TestUsage:
    def test_missing_subcommand(self, capsys):
        assert run_cli(capsys)[0] == 1

    def test_unknown_subcommand(self, capsys):
        code, _, err = run_cli(capsys, "bogus")
        assert code == 1
        assert "argument command: invalid choice: 'bogus'" in err  # not named by the command list

    def test_missing_required_flag(self, capsys):
        assert run_cli(capsys, "compute", "--data", "x.csv")[0] == 1

    def test_help_exits_zero(self, capsys):
        assert run_cli(capsys, "--help")[0] == 0

    @pytest.mark.parametrize("argv", PARSER_CASES, ids=" ".join)
    def test_parser_of_first_argument_matches_full_parser(self, argv, capsys):
        # main builds only the subparser that argv[0] names; compared with the full
        # parser, not stored text, since argparse's wording differs between versions
        one, full = (parse_outcome(parser, argv, capsys) for parser in (build_parser(*argv[:1]), build_parser()))
        assert one == full

    @pytest.mark.parametrize(
        "argv, expected",
        [
            (["hierarchical", "--help"], "usage: cluster-simplicity hierarchical"),
            (["compute", "--data", "a", "--labels", "b", "--index", "ch", "extra"], "unrecognized arguments: extra"),
        ],
    )
    def test_console_argv_matches_full_parser(self, argv, expected, monkeypatch, capsys):
        # the console script calls main() with no arguments, which reads sys.argv once
        code, out, err = parse_outcome(build_parser(), argv, capsys)
        monkeypatch.setattr(sys, "argv", ["cluster-simplicity", *argv])
        assert (main(), *capsys.readouterr()) == (code, out, err)
        assert expected in out + err

    def test_one_command_parser_registers_only_that_command(self, capsys):
        parser = build_parser("synth")
        assert parse_outcome(parser, ["synth", "X2S"], capsys)[0] == 0
        assert parse_outcome(parser, ["compute", *_RUN], capsys)[0] == 1


def test_module_entry_point(tmp_path):
    # the child imports the copy under test, also when pytest's own pythonpath found it
    package_root = str(Path(cluster_simplicity.__file__).parents[1])
    paths = [package_root, *filter(None, [os.environ.get("PYTHONPATH")])]
    result = subprocess.run(
        [sys.executable, "-m", "cluster_simplicity", "synth", "Y2S", "--out", str(tmp_path)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(paths)},
    )
    assert result.returncode == 0
    report = json.loads(result.stdout)
    assert report["id"] == "Y2S"
    assert (tmp_path / "Y2S_labels.csv").read_text() == "0\n0\n1\n"
