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
import math
from collections import Counter
from dataclasses import dataclass, field
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

    @classmethod
    def from_string(cls, name: str) -> "FairnessMetric":
        try:
            return cls(name.lower())
        except ValueError:
            raise ValueError(f"unknown metric {name!r}") from None


MODE_PRIVATE = "private"
MODE_AUGMENTED = "augmented"


def canonical_fairness_string(metric: FairnessMetric, augmented: bool) -> str:
    return f"{metric.value}-{MODE_AUGMENTED if augmented else MODE_PRIVATE}"


def _check_unit_interval(name: str, value: Fraction) -> None:
    if not (0 < value < 1):
        raise ValueError(f"{name} must lie strictly between 0 and 1")
    to_micro(value)  # enforces micro-unit resolution


@dataclass(frozen=True)
class FairnessSpec:
    """What is being certified: metric, tolerance and confidence.

    alpha present means the augmented test: the empirical gap on augmented
    data is compared against alpha instead of epsilon. fairness_string is a
    human-readable tag that uniquely determines (metric, mode); it defaults
    to the canonical form and anything else is rejected.
    """

    metric: FairnessMetric
    epsilon: Fraction
    delta: Fraction
    alpha: Fraction | None = None
    fairness_string: str = field(default="")

    def __post_init__(self) -> None:
        _check_unit_interval("epsilon", self.epsilon)
        _check_unit_interval("delta", self.delta)
        if self.alpha is not None:
            _check_unit_interval("alpha", self.alpha)
        canonical = canonical_fairness_string(self.metric, self.alpha is not None)
        if not self.fairness_string:
            object.__setattr__(self, "fairness_string", canonical)
        elif self.fairness_string != canonical:
            raise ValueError(
                f"fairness_string {self.fairness_string!r} does not match "
                f"the metric/mode ({canonical!r})"
            )

    @property
    def augmented(self) -> bool:
        return self.alpha is not None

    @property
    def threshold(self) -> Fraction:
        """Tolerance the empirical gap is compared against."""
        return self.alpha if self.alpha is not None else self.epsilon


@dataclass(frozen=True)
class GroupRiskTable:
    """Integer counts summarizing predictions against a labelled test set.

    m_g / err_g: per-group sample and misclassification counts.
    m_gy / err_gy: the same split by true label.
    pred_gy: how often each label was predicted within each group.
    """

    num_groups: int
    num_labels: int
    m_g: tuple[int, ...]
    err_g: tuple[int, ...]
    m_gy: tuple[tuple[int, ...], ...]
    err_gy: tuple[tuple[int, ...], ...]
    pred_gy: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if self.num_groups < 1 or self.num_labels < 1:
            raise ValueError("need at least one group and one label")
        for name in ("m_g", "err_g", "m_gy", "err_gy", "pred_gy"):
            if len(getattr(self, name)) != self.num_groups:
                raise LengthMismatchError(f"{name} must have one entry per group")
        for g in range(self.num_groups):
            for name in ("m_gy", "err_gy", "pred_gy"):
                if len(getattr(self, name)[g]) != self.num_labels:
                    raise LengthMismatchError(f"{name}[{g}] must have one entry per label")
            if any(v < 0 for v in self.m_gy[g] + self.err_gy[g] + self.pred_gy[g]):
                raise ValueError("counts must be nonnegative")
            if sum(self.m_gy[g]) != self.m_g[g]:
                raise LengthMismatchError("label counts must sum to the group count")
            if sum(self.pred_gy[g]) != self.m_g[g]:
                raise LengthMismatchError("prediction counts must sum to the group count")
            if sum(self.err_gy[g]) != self.err_g[g]:
                raise LengthMismatchError("per-label errors must sum to the group errors")
            if any(e > m for e, m in zip(self.err_gy[g], self.m_gy[g])):
                raise ValueError("errors cannot exceed counts")

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
    return GroupRiskTable(
        num_groups=num_g,
        num_labels=num_y,
        m_g=tuple(sum(row) for row in m_gy),
        err_g=tuple(sum(row) for row in err_gy),
        m_gy=tuple(tuple(row) for row in m_gy),
        err_gy=tuple(tuple(row) for row in err_gy),
        pred_gy=tuple(tuple(row) for row in pred_gy),
    )


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


def tail_bound(m: int, half_width: float) -> float:
    """Two-sided concentration tail for an empirical rate over m samples:
    the chance it sits more than half_width from its mean, capped at 1.
    """
    if m < 1:
        raise ValueError("m must be at least 1")
    if half_width <= 0:
        raise ValueError("half_width must be positive")
    return min(1.0, 2.0 * math.exp(-m * (2.0 * half_width) ** 2 / 2.0))


@dataclass(frozen=True)
class TestReport:
    """Outcome of the certification decision rule."""

    __test__ = False  # keep test collectors away despite the Test* name

    efg: Fraction
    per_group_required: int | None
    per_group_actual: tuple[int, ...]
    passed: bool
    failure_reason: str | None = None

    def to_lines(self) -> list[str]:
        lines = [
            f"decision: {'pass' if self.passed else 'fail'}",
            f"efg: {self.efg}",
            f"required: {'-' if self.per_group_required is None else self.per_group_required}",
            f"actual: {','.join(str(c) for c in self.per_group_actual)}",
        ]
        if self.failure_reason:
            lines.append(f"reason: {self.failure_reason}")
        return lines


def decide(spec: FairnessSpec, table: GroupRiskTable) -> TestReport:
    """Certification decision: gap strictly below the threshold and every
    relevant count at least the bound evaluated at the observed gap.

    A gap exactly equal to the threshold fails (ties break toward fail).
    """
    efg = empirical_gap(table, spec.metric)
    counts = relevant_counts(table, spec.metric)
    if efg >= spec.threshold:
        return TestReport(
            efg=efg,
            per_group_required=None,
            per_group_actual=counts,
            passed=False,
            failure_reason=REASON_GAP_TOO_LARGE,
        )
    required = min_samples(spec, efg, table.num_groups, table.num_labels)
    if min(counts) < required:
        return TestReport(
            efg=efg,
            per_group_required=required,
            per_group_actual=counts,
            passed=False,
            failure_reason=REASON_INSUFFICIENT_SAMPLES,
        )
    return TestReport(
        efg=efg,
        per_group_required=required,
        per_group_actual=counts,
        passed=True,
    )
