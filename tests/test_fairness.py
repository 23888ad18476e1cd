import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from faircert.fairness import (
    REASON_GAP_TOO_LARGE,
    REASON_INSUFFICIENT_SAMPLES,
    EmptyCellError,
    FairnessMetric,
    FairnessSpec,
    GapNotBelowThresholdError,
    GroupRiskTable,
    IdOutOfRangeError,
    LengthMismatchError,
    build_risk_table,
    decide,
    empirical_gap,
    micro_fraction,
    min_samples,
    parse_micro,
    relevant_counts,
    to_micro,
)
from faircert.model import Dataset, Sample


def spec_of(eps, delta, alpha=None, metric=FairnessMetric.ORE):
    return FairnessSpec(
        metric=metric,
        epsilon=Fraction(eps),
        delta=Fraction(delta),
        alpha=None if alpha is None else Fraction(alpha),
    )


def make_dataset(rows):
    """rows: (group, label) pairs over 2 groups / 2 labels, dim 1."""
    groups = max(r[0] for r in rows) + 1
    labels = max(max(r[1] for r in rows) + 1, 2)
    return Dataset(1, groups, labels, tuple(Sample((0,), g, y) for g, y in rows))


# --- micro-unit plumbing ---------------------------------------------------


def test_parse_micro():
    assert parse_micro("0.1") == Fraction(1, 10)
    assert parse_micro("0.000001") == Fraction(1, 10**6)
    assert parse_micro("1") == 1


def test_parse_micro_rejects_off_grid():
    with pytest.raises(ValueError):
        parse_micro("0.0000001")


def test_micro_round_trip():
    assert to_micro(micro_fraction(123456)) == 123456
    with pytest.raises(ValueError):
        to_micro(Fraction(1, 3))


# --- spec validation -------------------------------------------------------


def test_fairness_string_defaults():
    assert spec_of("0.1", "0.05").fairness_string == "ore-private"
    assert (
        spec_of("0.1", "0.05", alpha="0.2", metric=FairnessMetric.EO).fairness_string
        == "eo-augmented"
    )
    assert spec_of("0.1", "0.05", metric=FairnessMetric.DP).fairness_string == "dp-private"


def test_spec_threshold_picks_alpha_when_augmented():
    assert spec_of("0.1", "0.05").threshold == Fraction(1, 10)
    augmented = spec_of("0.1", "0.05", alpha="0.2")
    assert augmented.threshold == Fraction(1, 5)
    assert augmented.augmented


def test_spec_rejects_out_of_range_parameters():
    with pytest.raises(ValueError):
        spec_of("0", "0.05")
    with pytest.raises(ValueError):
        spec_of("1", "0.05")
    with pytest.raises(ValueError):
        spec_of("0.1", "0.05", alpha=Fraction(1, 3))  # off the micro grid


# --- hand-checked gap oracle ----------------------------------------------

# Two groups, two labels, four samples:
#   group 0: labels (1, 0), predictions (1, 1) -> one error on label 0
#   group 1: labels (1, 0), predictions (1, 0) -> no errors
HAND_ROWS = [(0, 1), (0, 0), (1, 1), (1, 0)]
HAND_PREDS = [1, 1, 1, 0]


def hand_table():
    return build_risk_table(make_dataset(HAND_ROWS), HAND_PREDS)


def test_hand_table_counts():
    table = hand_table()
    assert table.m_g == (2, 2)
    assert table.err_g == (1, 0)
    assert table.m_gy == ((1, 1), (1, 1))
    assert table.err_gy == ((1, 0), (0, 0))
    assert table.pred_gy == ((0, 2), (1, 1))
    assert table.total == 4


def test_hand_gaps():
    table = hand_table()
    assert empirical_gap(table, FairnessMetric.ORE) == Fraction(1, 2)
    assert empirical_gap(table, FairnessMetric.EO) == Fraction(1)
    assert empirical_gap(table, FairnessMetric.DP) == Fraction(1, 2)


def test_relevant_counts_by_metric():
    table = hand_table()
    assert relevant_counts(table, FairnessMetric.ORE) == (2, 2)
    assert relevant_counts(table, FairnessMetric.DP) == (2, 2)
    assert relevant_counts(table, FairnessMetric.EO) == (1, 1, 1, 1)


def test_single_group_gap_is_zero():
    table = build_risk_table(make_dataset([(0, 0), (0, 1)]), [1, 1])
    for metric in FairnessMetric:
        assert empirical_gap(table, metric) == 0


def test_empty_cell_raises():
    # group 1 exists but received no samples
    table = GroupRiskTable(
        m_gy=((2, 2), (0, 0)),
        err_gy=((1, 0), (0, 0)),
        pred_gy=((2, 2), (0, 0)),
    )
    with pytest.raises(EmptyCellError):
        empirical_gap(table, FairnessMetric.ORE)


def test_build_risk_table_input_validation():
    dataset = make_dataset(HAND_ROWS)
    with pytest.raises(LengthMismatchError):
        build_risk_table(dataset, [1, 1, 1])
    with pytest.raises(IdOutOfRangeError):
        build_risk_table(dataset, [1, 1, 1, 2])


def test_table_consistency_validation():
    with pytest.raises(LengthMismatchError):
        GroupRiskTable(((1, 0), (1, 1)), ((0, 0), (0, 0)), ((1, 1), (1, 1)))
    with pytest.raises(ValueError):
        GroupRiskTable(((1, 1), (1, 1)), ((2, 1), (0, 0)), ((1, 1), (1, 1)))
    with pytest.raises(LengthMismatchError):
        GroupRiskTable(((1, 1), (1,)), ((0, 0), (0,)), ((1, 1), (1,)))
    with pytest.raises(ValueError):
        GroupRiskTable((), (), ())


# --- brute-force re-derivation of the gap ----------------------------------


def brute_gap(num_groups, num_labels, rows, metric):
    """Definition-level evaluation straight off the (g, y, pred) triples."""

    def spread(vals):
        return max(vals) - min(vals)

    if metric is FairnessMetric.ORE:
        rates = []
        for g in range(num_groups):
            sub = [(y, p) for gg, y, p in rows if gg == g]
            rates.append(Fraction(sum(1 for y, p in sub if p != y), len(sub)))
        return spread(rates)
    best = Fraction(0)
    for label in range(num_labels):
        vals = []
        for g in range(num_groups):
            sub = [(y, p) for gg, y, p in rows if gg == g]
            if metric is FairnessMetric.EO:
                cell = [(y, p) for y, p in sub if y == label]
                vals.append(Fraction(sum(1 for y, p in cell if p != y), len(cell)))
            else:
                vals.append(Fraction(sum(1 for _, p in sub if p == label), len(sub)))
        best = max(best, spread(vals))
    return best


@st.composite
def occupied_rows(draw):
    num_groups = draw(st.integers(min_value=2, max_value=3))
    num_labels = draw(st.integers(min_value=1, max_value=3))
    cells = [(g, y) for g in range(num_groups) for y in range(num_labels)]
    cells += draw(
        st.lists(
            st.tuples(
                st.integers(0, num_groups - 1), st.integers(0, num_labels - 1)
            ),
            max_size=8,
        )
    )
    preds = draw(
        st.lists(
            st.integers(0, num_labels - 1),
            min_size=len(cells),
            max_size=len(cells),
        )
    )
    return num_groups, num_labels, [(g, y, p) for (g, y), p in zip(cells, preds)]


@settings(max_examples=300)
@given(occupied_rows())
def test_gap_matches_brute_force(case):
    num_groups, num_labels, rows = case
    dataset = Dataset(
        1, num_groups, num_labels, tuple(Sample((0,), g, y) for g, y, _ in rows)
    )
    table = build_risk_table(dataset, [p for _, _, p in rows])
    for metric in FairnessMetric:
        assert empirical_gap(table, metric) == brute_gap(
            num_groups, num_labels, rows, metric
        )


# --- sample-count bound ----------------------------------------------------


def test_min_samples_frozen_values():
    # ceil(2 / 0.05^2 * ln(2*2*2 / 0.05)) = ceil(800 * ln 160)
    assert min_samples(spec_of("0.1", "0.05"), Fraction(1, 20), 2, 2) == 4061
    # gap 0 leaves the full margin: ceil(200 * ln 160)
    assert min_samples(spec_of("0.1", "0.05"), Fraction(0), 2, 2) == 1016
    # looser-confidence variant: ceil(800 * ln(200 / 0.04))
    assert (
        min_samples(
            spec_of("0.1", "0.2"), Fraction(1, 20), 100, 2, variant="efficiency"
        )
        == 6814
    )


def test_min_samples_rejects_gap_at_threshold():
    with pytest.raises(GapNotBelowThresholdError):
        min_samples(spec_of("0.1", "0.05"), Fraction(1, 10), 2, 2)
    with pytest.raises(GapNotBelowThresholdError):
        min_samples(spec_of("0.1", "0.05"), Fraction(2, 10), 2, 2)


def test_min_samples_unknown_variant():
    with pytest.raises(ValueError):
        min_samples(spec_of("0.1", "0.05"), Fraction(0), 2, 2, variant="bogus")


micro_gap = st.integers(min_value=0, max_value=99_999).map(micro_fraction)


@given(micro_gap, micro_gap)
def test_min_samples_monotone_in_gap(g1, g2):
    spec = spec_of("0.1", "0.05")
    lo, hi = sorted((g1, g2))
    assert min_samples(spec, lo, 2, 2) <= min_samples(spec, hi, 2, 2)


@given(
    st.integers(min_value=1, max_value=50),
    st.integers(min_value=1, max_value=50),
    st.integers(min_value=1, max_value=10),
)
def test_min_samples_monotone_in_cardinalities(num_groups, bigger, num_labels):
    spec = spec_of("0.1", "0.05")
    a = min_samples(spec, Fraction(0), num_groups, num_labels)
    b = min_samples(spec, Fraction(0), num_groups + bigger, num_labels)
    c = min_samples(spec, Fraction(0), num_groups, num_labels + 1)
    assert a <= b
    assert a <= c


def test_min_samples_decreasing_in_delta():
    tight = min_samples(spec_of("0.1", "0.01"), Fraction(0), 2, 2)
    loose = min_samples(spec_of("0.1", "0.2"), Fraction(0), 2, 2)
    assert loose < tight


@given(
    st.integers(min_value=1, max_value=50_000).map(micro_fraction),
    st.integers(min_value=1, max_value=199_999).map(micro_fraction),
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=1, max_value=4),
)
def test_union_bound_meets_delta(delta, epsilon, num_groups, num_labels):
    """The bound's defining property: at the returned size, the per-cell tail
    times the number of cells stays within the confidence budget. Each side
    of the Hoeffding tail of a rate over m samples at half-width h is
    exp(-2 * m * h^2), and the union runs over both sides of every cell."""
    spec = spec_of(epsilon, delta)
    m = min_samples(spec, Fraction(0), num_groups, num_labels)
    half_width = float(epsilon) / 2.0
    one_sided = math.exp(-2.0 * m * half_width * half_width)
    assert 2 * num_groups * num_labels * one_sided <= float(delta) * (1 + 1e-9)


# --- the decision rule ------------------------------------------------------


def zero_error_table(m_per_group):
    half = [m // 2 for m in m_per_group]
    return GroupRiskTable(
        m_gy=tuple((h, m - h) for h, m in zip(half, m_per_group)),
        err_gy=((0, 0), (0, 0)),
        pred_gy=tuple((h, m - h) for h, m in zip(half, m_per_group)),
    )


def test_decide_passes_at_exact_bound():
    report = decide(spec_of("0.1", "0.05"), zero_error_table((1016, 1016)))
    assert report.passed
    assert report.per_group_required == 1016
    assert report.efg == 0


def test_decide_insufficient_samples():
    report = decide(spec_of("0.1", "0.05"), zero_error_table((1015, 1016)))
    assert not report.passed
    assert report.failure_reason == REASON_INSUFFICIENT_SAMPLES
    assert report.per_group_required == 1016
    assert report.per_group_actual == (1015, 1016)


def test_decide_gap_too_large():
    table = GroupRiskTable(
        m_gy=((508, 508), (508, 508)),
        err_gy=((0, 0), (101, 102)),
        pred_gy=((508, 508), (508, 508)),
    )
    report = decide(spec_of("0.1", "0.05"), table)
    assert not report.passed
    assert report.failure_reason == REASON_GAP_TOO_LARGE
    assert report.per_group_required is None


def test_decide_fails_on_tie_with_threshold():
    table = GroupRiskTable(
        m_gy=((508, 508), (508, 508)),
        err_gy=((0, 0), (254, 254)),
        pred_gy=((508, 508), (508, 508)),
    )
    report = decide(spec_of("0.5", "0.05"), table)
    assert not report.passed
    assert report.failure_reason == REASON_GAP_TOO_LARGE


def test_decide_uses_alpha_in_augmented_mode():
    table = GroupRiskTable(
        m_gy=((2030, 2031), (2030, 2031)),
        err_gy=((0, 0), (304, 305)),  # gap 609/4061 ~ 0.15
        pred_gy=((2030, 2031), (2030, 2031)),
    )
    private = decide(spec_of("0.1", "0.05"), table)
    assert not private.passed
    augmented = decide(spec_of("0.1", "0.05", alpha="0.25"), table)
    assert augmented.passed


def test_decide_eo_checks_per_cell_counts():
    # per-group counts clear the bar but one (group, label) cell is thin
    table = GroupRiskTable(
        m_gy=((1990, 10), (1000, 1000)),
        err_gy=((0, 0), (0, 0)),
        pred_gy=((1990, 10), (1000, 1000)),
    )
    report = decide(spec_of("0.1", "0.05", metric=FairnessMetric.EO), table)
    assert not report.passed
    assert report.failure_reason == REASON_INSUFFICIENT_SAMPLES
    assert min(report.per_group_actual) == 10
