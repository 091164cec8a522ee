"""Mechanized audit of the desirable index properties.

Probes an index on the builtin benchmark datasets and condenses the outcome
into three flags:

* invariance ``S`` / ``s``: the value on the two-cluster X dataset survives
  scalar rescaling and constant shifting (``S`` = both, ``s`` = exactly one);
* optimality ``B`` / ``b``: the index attains its declared best value when
  coincident points share one cluster (``b``), and additionally rates any
  split of those points strictly worse (``B``);
* baseline ``C``: the declared reference value is attained at both extreme
  partitions (one big cluster, and one cluster per point).

An UNDEFINED probe can never silently pass: two UNDEFINEDs count as equal for
the invariance comparison (both transforms degenerate identically) but fail
the best-value and baseline checks, and every undefined probe is recorded on
the audit detail.
"""

from __future__ import annotations

from dataclasses import dataclass

from .classic import PARTITION_INDEX_IDS, descriptor, evaluate
from .core import IndexValue, is_defined, scale_dataset, shift_dataset, synthetic_dataset

SCALE_FACTORS: tuple[float, ...] = (0.5, 2.0, 10.0)
SHIFT_OFFSETS: tuple[float, ...] = (-5.0, 1.0, 100.0)
RELATIVE_TOLERANCE = 1e-9

_VARIANTS = {
    "short": {"X2": "X2S", "Y1": "Y1S", "Y2": "Y2S", "X1": "X1S", "Xmax": "X3S"},
    "long": {"X2": "X2L", "Y1": "Y1L", "Y2": "Y2L", "X1": "X1L", "Xmax": "X9L"},
}


def values_equal(value: IndexValue, reference: IndexValue, rel_tol: float = RELATIVE_TOLERANCE) -> bool:
    """Equality with UNDEFINED equal only to UNDEFINED.

    Finite values compare within ``rel_tol * max(1, |reference|)``.
    """
    if not is_defined(value) or not is_defined(reference):
        return not is_defined(value) and not is_defined(reference)
    return abs(value - reference) <= rel_tol * max(1.0, abs(reference))


@dataclass(frozen=True)
class AuditDetail:
    """The six per-evaluation booleans behind a flag row."""

    scale_ok: bool
    shift_ok: bool
    is_best_at_y1: bool
    y2_worse_than_y1: bool
    baseline_at_x1: bool
    baseline_at_xmax: bool


@dataclass(frozen=True)
class PropertyFlags:
    """Audit outcome for one index on one dataset variant.

    Flag fields hold ``"S"``/``"s"``, ``"B"``/``"b"``, ``"C"`` or ``"none"``.
    ``undefined_probes`` names every probe whose value came back UNDEFINED.
    """

    index_id: str
    variant: str
    invariance: str
    optimality: str
    baseline: str
    detail: AuditDetail
    undefined_probes: tuple[str, ...]

    def flags_string(self) -> str:
        parts = [f for f in (self.invariance, self.optimality, self.baseline) if f != "none"]
        return " ".join(parts) if parts else "none"


def _variant_datasets(variant: str) -> dict[str, str]:
    try:
        return _VARIANTS[variant]
    except KeyError:
        raise ValueError(f"unknown variant {variant!r} (expected 'short' or 'long')") from None


def _probe_values(index_id: str, variant: str) -> dict[str, IndexValue]:
    """The index on each of the variant's 10 probes, by name, in audit order:
    ``X2`` (two clusters), its rescaled and shifted copies ``X2*a`` and ``X2+b``,
    ``Y1`` and ``Y2`` (coincident points), ``X1`` and ``Xmax`` (extreme partitions)."""
    ids = _variant_datasets(variant)
    dataset, partition = synthetic_dataset(ids["X2"])
    values = {"X2": evaluate(index_id, dataset, partition)}
    for a in SCALE_FACTORS:
        values[f"X2*{a:g}"] = evaluate(index_id, scale_dataset(dataset, a), partition)
    for b in SHIFT_OFFSETS:
        values[f"X2{b:+g}"] = evaluate(index_id, shift_dataset(dataset, b), partition)
    for name in ("Y1", "Y2", "X1", "Xmax"):
        values[name] = evaluate(index_id, *synthetic_dataset(ids[name]))
    return values


def _detail(index_id: str, variant: str) -> tuple[AuditDetail, dict[str, IndexValue]]:
    """The six checks of an audit, all derived from one probe table, and the table."""
    values = _probe_values(index_id, variant)
    meta = descriptor(index_id)
    reference, y1_value, y2_value = values["X2"], values["Y1"], values["Y2"]
    if not is_defined(y1_value) or not is_defined(y2_value):
        split_worse = False
    elif meta.direction == "lower-better":
        split_worse = y2_value > y1_value
    else:
        split_worse = y2_value < y1_value
    ids = _variant_datasets(variant)
    at_baseline = {
        name: meta.baseline is not None
        and values_equal(values[name], meta.baseline(synthetic_dataset(ids[name])[0].n_points))
        for name in ("X1", "Xmax")
    }
    detail = AuditDetail(
        scale_ok=all(values_equal(values[f"X2*{a:g}"], reference) for a in SCALE_FACTORS),
        shift_ok=all(values_equal(values[f"X2{b:+g}"], reference) for b in SHIFT_OFFSETS),
        is_best_at_y1=meta.best_value is not None and values_equal(y1_value, meta.best_value),
        y2_worse_than_y1=split_worse,
        baseline_at_x1=at_baseline["X1"],
        baseline_at_xmax=at_baseline["Xmax"],
    )
    return detail, values


def check_invariance(index_id: str, variant: str = "short") -> tuple[bool, bool]:
    """(scale_ok, shift_ok) for the index on the variant's two-cluster dataset."""
    detail, _ = _detail(index_id, variant)
    return detail.scale_ok, detail.shift_ok


def check_optimality(index_id: str, variant: str = "short") -> tuple[bool, bool]:
    """(is_best, split_worse) on the variant's coincident-point datasets.

    ``is_best`` requires a declared best value attained on the one-cluster
    dataset; ``split_worse`` requires the split dataset to score strictly
    worse in the index's direction. UNDEFINED on either side fails the
    affected check (an undefined score is not comparable).
    """
    detail, _ = _detail(index_id, variant)
    return detail.is_best_at_y1, detail.y2_worse_than_y1


def check_baseline(index_id: str, variant: str = "short") -> tuple[bool, bool]:
    """(at_x1, at_xmax): declared baseline attained at both extreme partitions."""
    detail, _ = _detail(index_id, variant)
    return detail.baseline_at_x1, detail.baseline_at_xmax


def audit(index_id: str, variant: str = "short") -> PropertyFlags:
    """Evaluate the 10 probes once for one index and compose its flag row."""
    detail, values = _detail(index_id, variant)
    if detail.scale_ok and detail.shift_ok:
        invariance = "S"
    elif detail.scale_ok or detail.shift_ok:
        invariance = "s"
    else:
        invariance = "none"
    if detail.is_best_at_y1 and detail.y2_worse_than_y1:
        optimality = "B"
    elif detail.is_best_at_y1:
        optimality = "b"
    else:
        optimality = "none"
    baseline = "C" if detail.baseline_at_x1 and detail.baseline_at_xmax else "none"

    return PropertyFlags(
        index_id=index_id,
        variant=variant,
        invariance=invariance,
        optimality=optimality,
        baseline=baseline,
        detail=detail,
        undefined_probes=tuple(name for name, value in values.items() if not is_defined(value)),
    )


def audit_all(index_ids: tuple[str, ...] | list[str] | None = None) -> list[PropertyFlags]:
    """Flag rows for the given ids (default: every partition index)."""
    ids = PARTITION_INDEX_IDS if index_ids is None else tuple(index_ids)
    return [audit(index_id) for index_id in ids]
