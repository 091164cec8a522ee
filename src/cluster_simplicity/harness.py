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

from collections.abc import Sequence
from dataclasses import dataclass

from .classic import PARTITION_INDEX_IDS, _check_partition_ids, descriptor, evaluate_many
from .core import Dataset, IndexValue, Partition, is_defined, scale_dataset, shift_dataset, synthetic_dataset

SCALE_FACTORS: tuple[float, ...] = (0.5, 2.0, 10.0)
SHIFT_OFFSETS: tuple[float, ...] = (-5.0, 1.0, 100.0)
RELATIVE_TOLERANCE = 1e-9

_VARIANTS = {
    "short": {"X2": "X2S", "Y1": "Y1S", "Y2": "Y2S", "X1": "X1S", "Xmax": "X3S"},
    "long": {"X2": "X2L", "Y1": "Y1L", "Y2": "Y2L", "X1": "X1L", "Xmax": "X9L"},
}


def values_equal(value: IndexValue, reference: IndexValue) -> bool:
    """Equality with UNDEFINED equal only to UNDEFINED.

    Finite values compare within ``RELATIVE_TOLERANCE * max(1, |reference|)``.
    """
    if not is_defined(value) or not is_defined(reference):
        return not is_defined(value) and not is_defined(reference)
    return abs(value - reference) <= RELATIVE_TOLERANCE * max(1.0, abs(reference))


@dataclass(frozen=True)
class AuditDetail:
    """The six per-evaluation booleans behind a flag row.

    An UNDEFINED on ``Y1`` or ``Y2`` leaves ``y2_worse_than_y1`` False: an
    undefined score is not comparable.
    """

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
        return _join_flags(self.invariance, self.optimality, self.baseline)


def _join_flags(*flags: str) -> str:
    """The flags that are not ``"none"``, space-separated, or ``"none"``."""
    return " ".join(f for f in flags if f != "none") or "none"


def _probes(variant: str) -> dict[str, tuple[Dataset, Partition]]:
    """The variant's 11 probe inputs by name, in audit order: ``X2`` (two
    clusters), its rescaled copies ``X2*0.5``, ``X2*2``, ``X2*10`` and shifted
    copies ``X2-5``, ``X2+1``, ``X2+100``, ``Y1`` and ``Y2`` (coincident
    points), ``X1`` and ``Xmax`` (extreme partitions)."""
    try:
        ids = _VARIANTS[variant]
    except KeyError:
        raise ValueError(f"unknown variant {variant!r} (expected 'short' or 'long')") from None
    dataset, partition = synthetic_dataset(ids["X2"])
    probes = {"X2": (dataset, partition)}
    for a in SCALE_FACTORS:
        probes[f"X2*{a:g}"] = scale_dataset(dataset, a), partition
    for b in SHIFT_OFFSETS:
        probes[f"X2{b:+g}"] = shift_dataset(dataset, b), partition
    for name in ("Y1", "Y2", "X1", "Xmax"):
        probes[name] = synthetic_dataset(ids[name])
    return probes


def _audit_table(index_ids: Sequence[str], variant: str) -> list[PropertyFlags]:
    """Flag rows for ``index_ids`` on ``variant``: every probe is scored once,
    by all the ids together, and each row is derived from its id's column."""
    probes = _probes(variant)
    table = [evaluate_many(index_ids, dataset, partition) for dataset, partition in probes.values()]
    rows = []
    for index_id, column in zip(index_ids, zip(*table)):
        values = dict(zip(probes, column))
        meta = descriptor(index_id)
        reference, y1_value, y2_value = values["X2"], values["Y1"], values["Y2"]
        if not is_defined(y1_value) or not is_defined(y2_value):
            split_worse = False
        elif meta.direction == "lower-better":
            split_worse = y2_value > y1_value
        else:
            split_worse = y2_value < y1_value
        scale_ok = all(values_equal(values[f"X2*{a:g}"], reference) for a in SCALE_FACTORS)
        shift_ok = all(values_equal(values[f"X2{b:+g}"], reference) for b in SHIFT_OFFSETS)
        is_best = meta.best_value is not None and values_equal(y1_value, meta.best_value)
        at_x1, at_xmax = (
            meta.baseline is not None and values_equal(values[name], meta.baseline(probes[name][0].n_points))
            for name in ("X1", "Xmax")
        )
        rows.append(PropertyFlags(
            index_id=index_id,
            variant=variant,
            invariance="S" if scale_ok and shift_ok else "s" if scale_ok or shift_ok else "none",
            optimality="B" if is_best and split_worse else "b" if is_best else "none",
            baseline="C" if at_x1 and at_xmax else "none",
            detail=AuditDetail(scale_ok, shift_ok, is_best, split_worse, at_x1, at_xmax),
            undefined_probes=tuple(name for name, value in values.items() if not is_defined(value)),
        ))
    return rows


def audit(index_id: str, variant: str = "short") -> PropertyFlags:
    """Score the variant's 11 probes for one index and compose its flag row."""
    return _audit_table([index_id], variant)[0]


def audit_all(index_ids: tuple[str, ...] | list[str] | None = None) -> list[PropertyFlags]:
    """Flag rows on the short variant for the given ids (default: every
    partition index), with each of the 11 probes scored once for all of them."""
    return _audit_table(PARTITION_INDEX_IDS if index_ids is None else _check_partition_ids(index_ids), "short")
