"""Acceptance suite: one test per release criterion, one printed line each.

Each test prints "ACCEPTANCE NN PASS/FAIL (detail)" and then asserts, so a
plain pytest run doubles as the sign-off checklist. Budgets are asserted
with the wall clock; everything here is deterministic.
"""

import csv
import time
from fractions import Fraction

from conftest import (
    CHEAP_SPEC,
    KEY_SEED,
    certification_setup,
    restated_rule,
    tcp_link,
)

from faircert import fixedpoint as fx
from faircert.augmentor import AugmentorConfig, augment_dataset
from faircert.cli import main
from faircert.crypto import Certificate, merkle_root, verify_certificate
from faircert.dealer import certification_decision, estimate_gates
from faircert.experiments import pass_rate, run_coverage
from faircert.fairness import (
    FairnessMetric,
    FairnessSpec,
    GroupRiskTable,
    decide,
    min_samples,
)
from faircert.model import (
    LinearModel,
    PlantedConfig,
    Sample,
    generate_planted,
    predict,
    serialize_model,
)
from faircert.prg import CounterPrg
from faircert.protocol import (
    REASON_PRECHECK_FAILED,
    REASON_SIG_INVALID,
    REASON_SPEC_MISMATCH,
    AcceptedPrediction,
    CertFailure,
    Client,
    Reject,
    Server,
    channel_pair,
    run_certification_local,
    run_inference_local,
)

QUARTER = ((Fraction(1, 4), Fraction(1, 4)), (Fraction(1, 4), Fraction(1, 4)))


def report(number: int, ok: bool, detail: str, elapsed: float, budget: float) -> None:
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"ACCEPTANCE {number:02d} {status} ({detail}; {elapsed:.2f}s of {budget:g}s)")
    assert ok, f"criterion {number}: {detail}"
    assert elapsed < budget, f"criterion {number} over budget: {elapsed:.2f}s"


def test_criterion_01_sample_bound(capsys):
    start = time.monotonic()
    code = main(
        [
            "bound",
            "--eps", "0.1",
            "--efg", "0.05",
            "--delta", "0.2",
            "--groups", "100",
            "--variant", "efficiency",
        ]
    )
    printed = capsys.readouterr().out.strip()
    elapsed = time.monotonic() - start
    ok = code == 0 and printed.isdigit() and 6750 <= int(printed) <= 6850
    with capsys.disabled():
        report(1, ok, f"bound={printed}, window [6750, 6850]", elapsed, 1.0)


def test_criterion_02_gate_costs(capsys):
    start = time.monotonic()
    rep = estimate_gates(1000, 8000)
    ok = (
        rep.hash_and_gates_per_input_bit == 24
        and rep.merkle_and_gates_per_input_bit == 48
        and rep.inference_and_gates_per_weight_bit == 191
        and rep.overhead_ratio is not None
        and 0.245 <= rep.overhead_ratio <= 0.255
    )
    elapsed = time.monotonic() - start
    with capsys.disabled():
        report(
            2,
            ok,
            f"24/48/191 per-bit rates, ratio={rep.overhead_ratio:.4f}",
            elapsed,
            1.0,
        )


SOUNDNESS_SPEC = FairnessSpec(
    metric=FairnessMetric.ORE, epsilon=Fraction(1, 10), delta=Fraction(1, 20)
)
DEMANDED_SIZE = min_samples(SOUNDNESS_SPEC, Fraction(0), 2, 2)  # 1016 per group


def test_criterion_03_soundness_on_unfair_plant(capsys):
    start = time.monotonic()
    rates = (Fraction(1, 20), Fraction(1, 5))  # true ORE gap 0.15 = eps + 0.05
    results = run_coverage(
        PlantedConfig(QUARTER, rates, seed=b"\x03" * 8),
        SOUNDNESS_SPEC,
        500,
        group_counts=(DEMANDED_SIZE, DEMANDED_SIZE),
    )
    rate = float(pass_rate(results))
    tolerance = 0.05 + 3 * (0.05 * 0.95 / 500) ** 0.5
    elapsed = time.monotonic() - start
    with capsys.disabled():
        report(
            3,
            rate <= tolerance,
            f"false-certification rate {rate:.4f} <= {tolerance:.4f} over 500 trials",
            elapsed,
            300.0,
        )


def test_criterion_04_completeness_on_fair_plant(capsys):
    start = time.monotonic()
    rates = (Fraction(0), Fraction(0))
    results = run_coverage(
        PlantedConfig(QUARTER, rates, seed=b"\x04" * 8),
        SOUNDNESS_SPEC,
        500,
        group_counts=(DEMANDED_SIZE, DEMANDED_SIZE),
    )
    rate = float(pass_rate(results))
    elapsed = time.monotonic() - start
    with capsys.disabled():
        report(
            4,
            rate >= 0.90,
            f"certification rate {rate:.4f} >= 0.90 over 500 trials",
            elapsed,
            300.0,
        )


def _int_below(prg: CounterPrg, n: int) -> int:
    """Uniform int in [0, n): the next draw below the largest multiple of n
    that fits in 2**64, reduced mod n."""
    limit = 2**64 - 2**64 % n
    u = prg.u64()
    while u >= limit:
        u = prg.u64()
    return u % n


def _random_table(prg: CounterPrg) -> GroupRiskTable:
    num_groups = 2 + _int_below(prg, 3)
    num_labels = 2 + _int_below(prg, 2)
    m_gy, err_gy, pred_gy = [], [], []
    for _ in range(num_groups):
        counts = tuple(1 + _int_below(prg, 60) for _ in range(num_labels))
        errors = tuple(_int_below(prg, c + 1) for c in counts)
        total = sum(counts)
        preds, remaining = [], total
        for j in range(num_labels - 1):
            take = _int_below(prg, remaining + 1)
            preds.append(take)
            remaining -= take
        preds.append(remaining)
        m_gy.append(counts)
        err_gy.append(errors)
        pred_gy.append(tuple(preds))
    return GroupRiskTable(m_gy=tuple(m_gy), err_gy=tuple(err_gy), pred_gy=tuple(pred_gy))


def test_criterion_05_circuit_host_equivalence(capsys):
    start = time.monotonic()
    prg = CounterPrg(b"\x05" * 8)
    epsilons = [Fraction(1, 20), Fraction(1, 10), Fraction(1, 4), Fraction(1, 2)]
    metrics = list(FairnessMetric)
    disagreements = 0
    for i in range(10_000):
        table = _random_table(prg)
        spec = FairnessSpec(
            metric=metrics[i % 3],
            epsilon=epsilons[_int_below(prg, len(epsilons))],
            delta=Fraction(1, 20),
        )
        expected = restated_rule(spec, table)
        circuit = certification_decision(spec, table)
        if decide(spec, table).failure_reason != expected or circuit != (expected is None):
            disagreements += 1
    elapsed = time.monotonic() - start
    with capsys.disabled():
        report(
            5,
            disagreements == 0,
            f"{disagreements} disagreements with the restated rule over 10000 random tables",
            elapsed,
            30.0,
        )


def _scenario_honest(link) -> str | None:
    regulator, server, _, model = certification_setup()
    cert = run_certification_local(regulator, server, link=link).regulator_result
    if not isinstance(cert, Certificate):
        return f"expected a certificate, got {cert!r}"
    if not verify_certificate(regulator.keypair.verification_key, cert):
        return "issued certificate does not verify"
    features = (fx.ONE, 0, 0, 0)
    client = Client(features, regulator.keypair.verification_key, CHEAP_SPEC)
    result = run_inference_local(client, server, link=link).client_result
    expected = predict(model, Sample(features, 0, 0))
    if result != AcceptedPrediction(label=expected, model_digest=cert.model_digest):
        return f"expected label {expected}, got {result!r}"
    return None


def _certified_server(link):
    regulator, server, _, _ = certification_setup()
    cert = run_certification_local(regulator, server, link=link).regulator_result
    assert isinstance(cert, Certificate)
    return regulator, server, cert


def _scenario_tampered(link) -> str | None:
    regulator, server, cert = _certified_server(link)
    swapped = Server(
        LinearModel(4, 2, ((1, 2, 3, 4), (4, 3, 2, 1)), (0, 0))
    )
    swapped.certificate = cert  # presents a certificate for the other model
    client = Client((0, 0, 0, 0), regulator.keypair.verification_key, CHEAP_SPEC)
    result = run_inference_local(client, swapped, link=link).client_result
    if result != Reject(REASON_SIG_INVALID):
        return f"expected SIG_INVALID, got {result!r}"
    return None


def _scenario_wrong_key(link) -> str | None:
    _, server, _ = _certified_server(link)
    from faircert.crypto import keygen

    stranger = keygen(bytes(reversed(KEY_SEED)))
    client = Client((0, 0, 0, 0), stranger.verification_key, CHEAP_SPEC)
    result = run_inference_local(client, server, link=link).client_result
    if result != Reject(REASON_SIG_INVALID):
        return f"expected SIG_INVALID, got {result!r}"
    return None


def _scenario_spec_mismatch(link) -> str | None:
    regulator, server, _ = _certified_server(link)
    demanded = FairnessSpec(
        metric=FairnessMetric.ORE, epsilon=Fraction(1, 10), delta=Fraction(1, 5)
    )
    client = Client((0, 0, 0, 0), regulator.keypair.verification_key, demanded)
    result = run_inference_local(client, server, link=link).client_result
    if result != Reject(REASON_SPEC_MISMATCH):
        return f"expected SPEC_MISMATCH, got {result!r}"
    return None


def _scenario_undersampled(link) -> str | None:
    regulator, server, _, _ = certification_setup(group_counts=(10, 10))
    run = run_certification_local(regulator, server, link=link)
    if run.regulator_result != CertFailure(REASON_PRECHECK_FAILED):
        return f"expected PRECHECK_FAILED, got {run.regulator_result!r}"
    if run.recorders["reg_to_server"].sent != []:
        return "regulator contacted the server despite the failed precheck"
    return None


def test_criterion_06_protocol_scenarios(capsys):
    start = time.monotonic()
    scenarios = [
        ("honest", _scenario_honest),
        ("tampered-weights", _scenario_tampered),
        ("wrong-key", _scenario_wrong_key),
        ("spec-mismatch", _scenario_spec_mismatch),
        ("undersampled", _scenario_undersampled),
    ]
    failures = []
    for transport_name, link in (("local", channel_pair), ("tcp", tcp_link)):
        for name, fn in scenarios:
            problem = fn(link)
            if problem is not None:
                failures.append(f"{name}/{transport_name}: {problem}")
    elapsed = time.monotonic() - start
    with capsys.disabled():
        report(
            6,
            not failures,
            "; ".join(failures) if failures else "5/5 scenarios on both transports",
            elapsed,
            30.0,
        )


def test_criterion_07_merkle_avalanche(capsys):
    start = time.monotonic()
    dim, labels = 125, 2
    weights = tuple(
        tuple((g * dim + j) % 251 - 125 for j in range(dim)) for g in range(labels)
    )
    blob = bytearray(serialize_model(LinearModel(dim, labels, weights, (7, -7))))
    base = merkle_root(bytes(blob))
    prg = CounterPrg(b"\x07" * 8)
    unchanged = 0
    for _ in range(1000):
        bit = _int_below(prg, len(blob) * 8)
        blob[bit // 8] ^= 1 << (bit % 8)
        if merkle_root(bytes(blob)) == base:
            unchanged += 1
        blob[bit // 8] ^= 1 << (bit % 8)
    elapsed = time.monotonic() - start
    with capsys.disabled():
        report(
            7,
            unchanged == 0,
            f"{unchanged}/1000 single-bit flips left the {len(blob)}-byte root unchanged",
            elapsed,
            5.0,
        )


def test_criterion_08_leakage_audit(capsys):
    start = time.monotonic()
    problems = []

    regulator, server, _, _ = certification_setup()
    cert_run = run_certification_local(regulator, server)
    log = cert_run.session.leakage_log
    if [(e.party, e.name, e.length) for e in log] != [
        ("P2", "fair_bit", 1),
        ("P2", "model_digest", 32),
    ]:
        problems.append(f"certification log {log!r}")

    client = Client((0, 0, 0, 0), regulator.keypair.verification_key, CHEAP_SPEC)
    infer_run = run_inference_local(client, server)
    log = infer_run.session.leakage_log
    if [(e.party, e.name, e.length) for e in log] != [
        ("P2", "prediction", 2),
        ("P2", "model_digest", 32),
    ]:
        problems.append(f"inference log {log!r}")

    elapsed = time.monotonic() - start
    with capsys.disabled():
        report(
            8,
            not problems,
            "; ".join(problems) if problems else "P1 empty, P2 exactly the named outputs",
            elapsed,
            5.0,
        )


def test_criterion_09_augmentor_laws(capsys):
    start = time.monotonic()
    config = PlantedConfig(
        cell_weights=QUARTER, error_rates=(Fraction(0), Fraction(0)), seed=b"\x09" * 8
    )
    dataset, _, _ = generate_planted(config, 100_000)
    aug = AugmentorConfig(
        master_seed=b"\x0a" * 8,
        noise_sigma=fx.ONE // 10,
        mask_prob=Fraction(1, 4),
        invoke_prob=Fraction(1, 2),
    )
    problems = []
    out = augment_dataset(aug, dataset)
    if len(out.groups) != len(dataset.groups):
        problems.append("length changed")
    if (out.groups, out.labels) != (dataset.groups, dataset.labels):
        problems.append("a group or label changed")
    if augment_dataset(aug, dataset) != out:
        problems.append("same seed, different output")
    identity = AugmentorConfig(master_seed=b"\x0b" * 8)
    if augment_dataset(identity, dataset) != dataset:
        problems.append("identity config modified the data")
    elapsed = time.monotonic() - start
    with capsys.disabled():
        report(
            9,
            not problems,
            "; ".join(problems)
            if problems
            else f"laws hold on {len(dataset.groups)} samples",
            elapsed,
            10.0,
        )


def test_criterion_10_knn_attack_tradeoff(tmp_path, capsys):
    start = time.monotonic()
    config = PlantedConfig(
        cell_weights=QUARTER, error_rates=(Fraction(0), Fraction(0)), seed=b"\x10" * 8
    )
    config_path = tmp_path / "attack-config.json"
    config_path.write_text(config.to_json())
    args = [
        "attack-knn",
        "--config", str(config_path),
        "--fair-rates", "0.2,0.2",
        "--unfair-rates", "0.02,0.25",
        "--ref-size", "400",
        "--eval-size", "1000",
        "--taus", "0,0.05,0.1,0.15,0.2,0.3,0.5,1,inf",
        "--seed", "16",
    ]
    blobs = []
    for name in ("sweep-1.csv", "sweep-2.csv"):
        out = tmp_path / name
        assert main(args + ["--out", str(out)]) == 0
        blobs.append(out.read_bytes())

    problems = []
    if blobs[0] != blobs[1]:
        problems.append("CSV not byte-stable across runs")
    rows = list(csv.DictReader(blobs[0].decode().splitlines()))
    fractions = [float(r["routed_unfair_fraction"]) for r in rows]
    if any(a < b for a, b in zip(fractions, fractions[1:])):
        problems.append("routed fraction not nonincreasing in tau")
    unfair_acc = float(rows[0]["accuracy"])  # tau=0 routes everything unfair
    fair_efg = float(rows[-1]["efg"])  # tau=inf routes everything fair
    violators = [
        r["tau"]
        for r in rows
        if float(r["efg"]) <= fair_efg + 0.01
        and float(r["accuracy"]) >= unfair_acc - 0.01
    ]
    if violators:
        problems.append(f"tau {violators} reach both fair EFG and unfair accuracy")
    elapsed = time.monotonic() - start
    with capsys.disabled():
        report(
            10,
            not problems,
            "; ".join(problems)
            if problems
            else f"stable CSV; accuracy drop {unfair_acc - float(rows[-1]['accuracy']):.3f} at fair routing",
            elapsed,
            120.0,
        )
