"""Group-fairness decision core.

Empirical gaps are computed as exact rationals; the pass/fail rule compares
the gap against the tolerance threshold and checks that every relevant
per-group (or per-group-per-label) sample count reaches the concentration
bound evaluated at the observed gap. Thresholds and confidence parameters
are exact rationals at micro-unit resolution (integer / 10**6), which is
also how they travel on the wire.
"""

from __future__ import annotations

import enum
import functools
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Sequence

if TYPE_CHECKING:
    from .model import Dataset

MICRO = 10**6

REASON_GAP_TOO_LARGE = "EFG_TOO_LARGE"
REASON_INSUFFICIENT_SAMPLES = "INSUFFICIENT_SAMPLES"


class LengthMismatchError(ValueError):
    pass


class IdOutOfRangeError(ValueError):
    pass


class EmptyCellError(ValueError):
    pass


class GapNotBelowThresholdError(ValueError):
    pass


def micro_fraction(units: int) -> Fraction:
    """Exact rational worth `units` micro-units."""
    return Fraction(units, MICRO)


def parse_micro(text: str) -> Fraction:
    """Parse a decimal string into an exact micro-unit rational.

    Raises ValueError if the value is not representable as integer / 10**6.
    """
    value = Fraction(text)
    scaled = value * MICRO
    if scaled.denominator != 1:
        raise ValueError(f"{text!r} is not representable in micro-units")
    return value


def to_micro(value: Fraction) -> int:
    """Inverse of micro_fraction; raises if the value is off-grid."""
    scaled = value * MICRO
    if scaled.denominator != 1:
        raise ValueError(f"{value!r} is not representable in micro-units")
    return int(scaled)


class FairnessMetric(enum.Enum):
    """Which per-group quantity must be (eps-)equal across groups."""

    ORE = "ore"  # per-group misclassification rate
    EO = "eo"    # per-(group, true label) misclassification rate
    DP = "dp"    # per-group likelihood of each predicted label


MODE_PRIVATE = "private"
MODE_AUGMENTED = "augmented"


def _check_unit_interval(name: str, value: Fraction) -> None:
    if not (0 < value < 1):
        raise ValueError(f"{name} must lie strictly between 0 and 1")
    to_micro(value)  # enforces micro-unit resolution


@dataclass(frozen=True)
class FairnessSpec:
    """What is being certified: metric, tolerance and confidence.

    alpha present means the augmented test: the empirical gap on augmented
    data is compared against alpha instead of epsilon.
    """

    metric: FairnessMetric
    epsilon: Fraction
    delta: Fraction
    alpha: Fraction | None = None

    def __post_init__(self) -> None:
        _check_unit_interval("epsilon", self.epsilon)
        _check_unit_interval("delta", self.delta)
        if self.alpha is not None:
            _check_unit_interval("alpha", self.alpha)

    @property
    def augmented(self) -> bool:
        return self.alpha is not None

    @property
    def fairness_string(self) -> str:
        """The human-readable tag naming the metric and mode, e.g. "ore-private"."""
        return f"{self.metric.value}-{MODE_AUGMENTED if self.augmented else MODE_PRIVATE}"

    @property
    def threshold(self) -> Fraction:
        """Tolerance the empirical gap is compared against."""
        return self.alpha if self.alpha is not None else self.epsilon


@dataclass(frozen=True)
class GroupRiskTable:
    """Integer counts summarizing predictions against a labelled test set,
    one row per group and one column per label.

    m_gy: samples of each true label within each group.
    err_gy: the misclassified ones among them.
    pred_gy: how often each label was predicted within each group.
    The shape and the per-group totals m_g and err_g are read off these.
    """

    m_gy: tuple[tuple[int, ...], ...]
    err_gy: tuple[tuple[int, ...], ...]
    pred_gy: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if not self.m_gy or not self.m_gy[0]:
            raise ValueError("need at least one group and one label")
        for name in ("m_gy", "err_gy", "pred_gy"):
            grid = getattr(self, name)
            if len(grid) != self.num_groups or any(len(row) != self.num_labels for row in grid):
                raise LengthMismatchError(f"{name} must be num_groups rows of num_labels counts")
        for m_row, err_row, pred_row in zip(self.m_gy, self.err_gy, self.pred_gy):
            if any(v < 0 for v in m_row + err_row + pred_row):
                raise ValueError("counts must be nonnegative")
            if any(e > m for e, m in zip(err_row, m_row)):
                raise ValueError("errors cannot exceed counts")
            if sum(pred_row) != sum(m_row):
                raise LengthMismatchError("prediction counts must sum to the group count")

    @property
    def num_groups(self) -> int:
        return len(self.m_gy)

    @property
    def num_labels(self) -> int:
        return len(self.m_gy[0])

    @functools.cached_property
    def m_g(self) -> tuple[int, ...]:
        """Samples per group."""
        return tuple(sum(row) for row in self.m_gy)

    @functools.cached_property
    def err_g(self) -> tuple[int, ...]:
        """Misclassified samples per group."""
        return tuple(sum(row) for row in self.err_gy)

    @property
    def total(self) -> int:
        return sum(self.m_g)


def build_risk_table(dataset: "Dataset", predictions: Sequence[int]) -> GroupRiskTable:
    """Tally a prediction vector against a labelled dataset."""
    if len(predictions) != len(dataset.groups):
        raise LengthMismatchError(
            f"{len(predictions)} predictions for {len(dataset.groups)} samples"
        )
    num_g, num_y = dataset.num_groups, dataset.num_labels
    m_gy = [[0] * num_y for _ in range(num_g)]
    err_gy = [[0] * num_y for _ in range(num_g)]
    pred_gy = [[0] * num_y for _ in range(num_g)]
    # One counting pass over (group, label, prediction); the cells are few.
    for (g, y, pred), count in Counter(zip(dataset.groups, dataset.labels, predictions)).items():
        if not (0 <= pred < num_y):
            raise IdOutOfRangeError(f"prediction {pred} outside [0, {num_y})")
        m_gy[g][y] += count
        pred_gy[g][pred] += count
        if pred != y:
            err_gy[g][y] += count
    return GroupRiskTable(*(tuple(map(tuple, grid)) for grid in (m_gy, err_gy, pred_gy)))


def comparison_cells(
    table: GroupRiskTable, metric: FairnessMetric
) -> list[list[tuple[int, int]]]:
    """The (numerator, denominator) cells whose pairwise ratio differences
    define the gap, grouped into classes compared among themselves.

    ORE yields one class over groups; EO and DP yield one class per label.
    """
    if metric is FairnessMetric.ORE:
        return [[(table.err_g[g], table.m_g[g]) for g in range(table.num_groups)]]
    if metric is FairnessMetric.EO:
        return [
            [(table.err_gy[g][y], table.m_gy[g][y]) for g in range(table.num_groups)]
            for y in range(table.num_labels)
        ]
    if metric is FairnessMetric.DP:
        return [
            [(table.pred_gy[g][y], table.m_g[g]) for g in range(table.num_groups)]
            for y in range(table.num_labels)
        ]
    raise ValueError(f"unknown metric {metric!r}")


def empirical_gap(table: GroupRiskTable, metric: FairnessMetric) -> Fraction:
    """Largest absolute difference between any two comparable cell ratios.

    An empty pair set (fewer than two groups) is 0 by definition. A zero
    denominator in any compared cell raises EmptyCellError.
    """
    if table.num_groups < 2:
        return Fraction(0)
    gap = Fraction(0)
    for cells in comparison_cells(table, metric):
        for num, den in cells:
            if den == 0:
                raise EmptyCellError("a compared cell has no samples")
        ratios = [Fraction(num, den) for num, den in cells]
        spread = max(ratios) - min(ratios)
        if spread > gap:
            gap = spread
    return gap


def relevant_counts(table: GroupRiskTable, metric: FairnessMetric) -> tuple[int, ...]:
    """Counts the sample-size condition applies to: m_gy for EO, m_g otherwise."""
    if metric is FairnessMetric.EO:
        return tuple(c for row in table.m_gy for c in row)
    return table.m_g


VARIANT_UNION = "union"
VARIANT_EFFICIENCY = "efficiency"


def min_samples(
    spec: FairnessSpec,
    efg: Fraction,
    num_groups: int,
    num_labels: int,
    variant: str = VARIANT_UNION,
) -> int:
    """Per-cell sample count needed to certify at the observed gap.

    The normative "union" bound is 2/(t - efg)^2 * ln(2*|G|*|Y| / delta)
    with t the spec threshold, a union over every one-sided cell estimate.
    variant="efficiency" swaps the log argument for 2*|G| / delta^2, a
    looser-confidence trade that shrinks circuits; never used by decide().
    """
    if num_groups < 1 or num_labels < 1:
        raise ValueError("need at least one group and one label")
    t = spec.threshold
    if efg >= t:
        raise GapNotBelowThresholdError(
            f"observed gap {efg} is not below the threshold {t}"
        )
    if variant == VARIANT_UNION:
        log_arg = Fraction(2 * num_groups * num_labels) / spec.delta
    elif variant == VARIANT_EFFICIENCY:
        log_arg = Fraction(2 * num_groups) / (spec.delta * spec.delta)
    else:
        raise ValueError(f"unknown variant {variant!r}")
    margin = float(t - efg)
    return math.ceil(2.0 / (margin * margin) * math.log(float(log_arg)))


@dataclass(frozen=True)
class TestReport:
    """Outcome of the certification decision rule."""

    __test__ = False  # keep test collectors away despite the Test* name

    efg: Fraction
    per_group_required: int | None
    per_group_actual: tuple[int, ...]
    passed: bool
    failure_reason: str | None = None


def decide(spec: FairnessSpec, table: GroupRiskTable) -> TestReport:
    """Certification decision: gap strictly below the threshold and every
    relevant count at least the bound evaluated at the observed gap.

    A gap exactly equal to the threshold fails (ties break toward fail).
    """
    efg = empirical_gap(table, spec.metric)
    counts = relevant_counts(table, spec.metric)
    if efg >= spec.threshold:
        return TestReport(efg, None, counts, False, REASON_GAP_TOO_LARGE)
    required = min_samples(spec, efg, table.num_groups, table.num_labels)
    enough = min(counts) >= required
    return TestReport(
        efg, required, counts, enough, None if enough else REASON_INSUFFICIENT_SAMPLES
    )
