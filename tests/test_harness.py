import pytest

from cluster_simplicity import (
    PARTITION_INDEX_IDS,
    UNDEFINED,
    UnknownIndexError,
    audit,
    audit_all,
    values_equal,
)
from cluster_simplicity.core import ClusterStats

# expected flag rows, the same on both variants
EXPECTED_FLAGS = {
    "si_centroid": ("S", "B", "C"),
    "si_distance": ("S", "B", "C"),
    "ch": ("S", "none", "none"),
    "silhouette": ("S", "none", "none"),
    "sf": ("s", "none", "none"),
    "dunn": ("S", "none", "none"),
    "db": ("S", "none", "none"),
    "cindex": ("S", "none", "none"),
}


class TestValuesEqual:
    def test_undefined_equals_only_undefined(self):
        assert values_equal(UNDEFINED, UNDEFINED)
        assert not values_equal(UNDEFINED, 1.0)
        assert not values_equal(1.0, UNDEFINED)

    def test_relative_tolerance(self):
        assert values_equal(1.0, 1.0 + 1e-10)
        assert not values_equal(1.0, 1.0 + 1e-8)
        assert values_equal(1e12, 1e12 + 1.0)  # scaled by the reference
        assert not values_equal(1e12, 1e12 * (1 + 1e-8))


class TestChecks:
    """The detail fields behind each flag, read from ``audit(index_id, variant).detail``."""

    def test_invariance_examples(self):
        for index_id in ("si_centroid", "ch"):
            d = audit(index_id).detail
            assert (d.scale_ok, d.shift_ok) == (True, True)
        d = audit("sf").detail
        assert d.scale_ok != d.shift_ok  # exactly one transform survives

    def test_optimality_examples(self):
        d = audit("si_centroid").detail
        assert (d.is_best_at_y1, d.y2_worse_than_y1) == (True, True)
        assert not audit("dunn").detail.is_best_at_y1  # no declared best value
        # silhouette's outcome is reported, whatever it is
        d = audit("silhouette").detail
        assert isinstance(d.is_best_at_y1, bool) and isinstance(d.y2_worse_than_y1, bool)

    def test_baseline_examples(self):
        for variant in ("short", "long"):
            d = audit("si_centroid", variant).detail
            assert (d.baseline_at_x1, d.baseline_at_xmax) == (True, True)
        d = audit("ch").detail
        assert (d.baseline_at_x1, d.baseline_at_xmax) == (False, False)

    def test_unknown_variant(self):
        with pytest.raises(ValueError, match="unknown variant"):
            audit("si_centroid", "medium")


class TestAudit:
    @pytest.mark.parametrize(
        "index_id, variant",
        [
            pytest.param(index_id, variant, id=index_id if variant == "short" else f"{index_id}-{variant}")
            for variant in ("short", "long")
            for index_id in PARTITION_INDEX_IDS
        ],
    )
    def test_flag_rows(self, index_id, variant):
        flags = audit(index_id, variant)
        assert (flags.invariance, flags.optimality, flags.baseline) == EXPECTED_FLAGS[index_id]
        assert flags.variant == variant

    def test_flags_follow_detail(self):
        for flags in audit_all():
            d = flags.detail
            if d.scale_ok and d.shift_ok:
                assert flags.invariance == "S"
            elif d.scale_ok or d.shift_ok:
                assert flags.invariance == "s"
            else:
                assert flags.invariance == "none"
            if d.is_best_at_y1 and d.y2_worse_than_y1:
                assert flags.optimality == "B"
            elif d.is_best_at_y1:
                assert flags.optimality == "b"
            else:
                assert flags.optimality == "none"
            assert flags.baseline == ("C" if d.baseline_at_x1 and d.baseline_at_xmax else "none")

    def test_si_detail_true_on_both_variants(self):
        for index_id in ("si_centroid", "si_distance"):
            for variant in ("short", "long"):
                d = audit(index_id, variant).detail
                assert d.scale_ok and d.shift_ok
                assert d.is_best_at_y1 and d.y2_worse_than_y1
                assert d.baseline_at_x1 and d.baseline_at_xmax

    def test_si_has_no_undefined_probes(self):
        assert audit("si_centroid").undefined_probes == ()
        assert audit("si_distance").undefined_probes == ()

    def test_undefined_probes_recorded(self):
        flags = audit("cindex")
        # every short-variant probe of the C-index degenerates
        assert "X2" in flags.undefined_probes
        assert "Y1" in flags.undefined_probes
        assert "Y2" in flags.undefined_probes
        assert "X1" in flags.undefined_probes
        assert "Xmax" in flags.undefined_probes
        assert audit("ch").undefined_probes == ("Y1", "Y2", "X1", "Xmax")

    def test_undefined_y2_counts_as_incomparable(self):
        flags = audit("dunn", "long")
        assert not flags.detail.y2_worse_than_y1
        assert "Y2" in flags.undefined_probes

    def test_deterministic(self):
        assert audit("si_centroid") == audit("si_centroid")
        assert audit("sf") == audit("sf")

    def test_flags_string(self):
        assert audit("si_centroid").flags_string() == "S B C"
        assert audit("ch").flags_string() == "S"

    def test_audit_all_order(self):
        rows = audit_all()
        assert tuple(r.index_id for r in rows) == PARTITION_INDEX_IDS
        subset = audit_all(["db", "ch"])
        assert [r.index_id for r in subset] == ["db", "ch"]

    def test_unknown_index(self):
        with pytest.raises(ValueError):
            audit("bogus")

    def test_audit_all_rejects_a_string_of_ids(self):
        with pytest.raises(UnknownIndexError, match="must be a list of ids, got the string 'ch'"):
            audit_all("ch")

    def test_audit_all_scores_each_probe_once(self, monkeypatch):
        built = []
        init = ClusterStats.__init__

        def counting_init(self, *args, **kwargs):
            built.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(ClusterStats, "__init__", counting_init)
        assert len(audit_all()) == len(PARTITION_INDEX_IDS)
        assert len(built) == 11  # one per probe, shared by all 8 ids
