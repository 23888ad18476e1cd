"""Experiment harnesses behind the CLI.

Coverage: repeated draw-and-decide trials against a planted distribution,
reporting per-trial outcomes and the overall certification rate. Attack: a
nearest-neighbor router that serves a fair model near the (augmented)
reference set it expects to be tested on and an unfair model elsewhere,
swept over the distance threshold. Sweep: model quality and gap as the
augmentation degree grows.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Iterable, Sequence

from .augmentor import AugmentorConfig, augment_dataset
from .fairness import (
    FairnessMetric,
    FairnessSpec,
    TestReport,
    build_risk_table,
    decide,
    empirical_gap,
)
from .model import (
    Dataset,
    ModelSpec,
    PlantedConfig,
    generate_planted,
    predict,  # noqa: F401  (bench/ traces predictions under this name)
    predict_batch,
)
from .prg import derive_key

from . import fixedpoint as fx


@dataclass(frozen=True)
class TrialResult:
    trial: int
    true_gap: Fraction
    report: TestReport


def run_coverage(
    config: PlantedConfig,
    spec: FairnessSpec,
    trials: int,
    *,
    m: int = 0,
    group_counts: tuple[int, ...] | None = None,
) -> list[TrialResult]:
    """Draw a fresh planted instance per trial and run the decision rule."""
    if trials < 1:
        raise ValueError("at least one trial required")
    results = []
    for t in range(trials):
        cfg = replace(config, seed=derive_key(config.seed, f"trial-{t}"))
        dataset, model, gaps = generate_planted(cfg, m, group_counts=group_counts)
        report = decide(spec, build_risk_table(dataset, predict_batch(model, dataset)))
        results.append(
            TrialResult(trial=t, true_gap=getattr(gaps, spec.metric.value), report=report)
        )
    return results


def pass_rate(results: Sequence[TrialResult]) -> Fraction:
    return Fraction(sum(1 for r in results if r.report.passed), len(results))


def write_coverage_csv(fh, results: Sequence[TrialResult]) -> None:
    writer = csv.writer(fh)
    writer.writerow(["trial", "true_gap", "efg", "decision"])
    for r in results:
        writer.writerow(
            [r.trial, f"{float(r.true_gap):.6f}", f"{float(r.report.efg):.6f}",
             "pass" if r.report.passed else "fail"]
        )
    mean_efg = sum(float(r.report.efg) for r in results) / len(results)
    writer.writerow(
        ["summary", f"{float(results[0].true_gap):.6f}", f"{mean_efg:.6f}",
         f"{float(pass_rate(results)):.6f}"]
    )


@dataclass(frozen=True)
class AttackPoint:
    tau: float
    accuracy: Fraction
    efg: Fraction
    routed_unfair_fraction: Fraction


def _squared_distance(a: tuple[int, ...], b: tuple[int, ...]) -> int:
    total = 0
    for x, y in zip(a, b):
        d = x - y
        total += d * d
    return total


def knn_attack_sweep(
    fair_model: ModelSpec,
    unfair_model: ModelSpec,
    reference_features: Sequence[tuple[int, ...]],
    eval_dataset: Dataset,
    taus: Iterable[float],
) -> list[AttackPoint]:
    """Nearest-neighbor (k = 1) routing between two models.

    A query is answered by the fair model when its distance to the closest
    reference point is at most tau, by the unfair model otherwise. Reports
    accuracy, the per-group-risk gap, and the routed-to-unfair fraction on
    the eval set for each tau.
    """
    if not reference_features:
        raise ValueError("reference set must be nonempty")
    nearest_sq = [
        min(_squared_distance(row, ref) for ref in reference_features)
        for row in eval_dataset.features
    ]
    # Predictions are pure, so each model labels the eval set once and each
    # tau only chooses between the two labels.
    fair = predict_batch(fair_model, eval_dataset)
    unfair = predict_batch(unfair_model, eval_dataset)
    points = []
    for tau in taus:
        if tau < 0 or math.isnan(tau):
            raise ValueError("tau must be nonnegative")
        tau_sq = (tau * fx.ONE) ** 2 if not math.isinf(tau) else math.inf
        routed = [d_sq > tau_sq for d_sq in nearest_sq]
        predictions = [u if r else f for f, u, r in zip(fair, unfair, routed)]
        table = build_risk_table(eval_dataset, predictions)
        points.append(
            AttackPoint(
                tau=tau,
                accuracy=Fraction(table.total - sum(table.err_g), table.total),
                efg=empirical_gap(table, FairnessMetric.ORE),
                routed_unfair_fraction=Fraction(sum(routed), len(predictions)),
            )
        )
    return points


def write_attack_csv(fh, points: Sequence[AttackPoint]) -> None:
    writer = csv.writer(fh)
    writer.writerow(["tau", "accuracy", "efg", "routed_unfair_fraction"])
    for p in points:
        writer.writerow(
            [f"{p.tau:g}", f"{float(p.accuracy):.6f}", f"{float(p.efg):.6f}",
             f"{float(p.routed_unfair_fraction):.6f}"]
        )


@dataclass(frozen=True)
class SweepPoint:
    degree: Fraction
    accuracy: Fraction
    efg: Fraction


def augmentation_sweep(
    config: PlantedConfig,
    m: int,
    base_aug: AugmentorConfig,
    degrees: Sequence[Fraction],
) -> list[SweepPoint]:
    """Evaluate the planted model on increasingly augmented copies of one
    drawn test set. Reported, not asserted: the effect is not monotone."""
    dataset, model, _ = generate_planted(config, m)
    points = []
    for degree in degrees:
        aug = replace(base_aug, degree=degree)
        augmented = augment_dataset(aug, dataset)
        table = build_risk_table(augmented, predict_batch(model, augmented))
        points.append(
            SweepPoint(
                degree=degree,
                accuracy=Fraction(table.total - sum(table.err_g), table.total),
                efg=empirical_gap(table, FairnessMetric.ORE),
            )
        )
    return points


def write_sweep_csv(fh, points: Sequence[SweepPoint]) -> None:
    writer = csv.writer(fh)
    writer.writerow(["degree", "accuracy", "efg"])
    for p in points:
        writer.writerow(
            [f"{float(p.degree):.6f}", f"{float(p.accuracy):.6f}", f"{float(p.efg):.6f}"]
        )
