import json
import subprocess
import sys

import numpy as np
import pytest

from cluster_simplicity import evaluate, si_curve, si_hierarchical, single_linkage, synthetic_dataset
from cluster_simplicity.cli import main


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

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflow_is_input_error_naming_index(self, tmp_path, capsys):
        points = tmp_path / "huge.csv"
        points.write_text("-1e308\n-1e308\n1e308\n1e308\n")
        labels = tmp_path / "labels.csv"
        labels.write_text("0\n0\n1\n1\n")
        code, out, err = run_cli(
            capsys, "compute", "--data", str(points), "--labels", str(labels),
            "--index", "si_distance", "--index", "ch",
        )
        assert code == 2
        assert "NaN" not in out
        assert f"{points}: index 'ch': the arithmetic overflowed" in err

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

    def test_single_point_explicit_linkage(self, tmp_path, capsys):
        data = tmp_path / "one.csv"
        data.write_text("1,2\n")
        linkage = tmp_path / "empty.txt"
        linkage.write_text("")
        code, _, err = run_cli(capsys, "hierarchical", "--data", str(data), "--linkage", str(linkage))
        assert code == 2
        assert "at least 2 points" in err


class TestUsage:
    def test_missing_subcommand(self, capsys):
        assert run_cli(capsys)[0] == 1

    def test_unknown_subcommand(self, capsys):
        assert run_cli(capsys, "bogus")[0] == 1

    def test_missing_required_flag(self, capsys):
        assert run_cli(capsys, "compute", "--data", "x.csv")[0] == 1

    def test_help_exits_zero(self, capsys):
        assert run_cli(capsys, "--help")[0] == 0


def test_module_entry_point(tmp_path):
    result = subprocess.run(
        [sys.executable, "-m", "cluster_simplicity", "synth", "Y2S", "--out", str(tmp_path)],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    report = json.loads(result.stdout)
    assert report["id"] == "Y2S"
    assert (tmp_path / "Y2S_labels.csv").read_text() == "0\n0\n1\n"
