"""Tests of the benchmark itself.

    python3 -m pytest bench/tests -q

Every workload runs at the tiny size with no failed operation and prints
every metric BENCHMARK.json names; every reference check rejects a
deliberately wrong output, which proves the checks can fail.
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import faircert  # noqa: E402
import reference  # noqa: E402
import workloads  # noqa: E402
from tracing import NullTracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = [w["name"] for w in SPEC["workloads"]]


def run_command(workload, trace, cwd=ROOT, seed=3):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "0.5", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170, check=False,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_tiny_run_passes_and_prints_every_metric(workload, trace):
    proc = run_command(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    assert result["failed"] == 0
    names = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in names}
    for m in names:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_command_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_command("coverage", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def _flip_byte(data: bytes, index: int) -> bytes:
    return data[:index] + bytes([data[index] ^ 1]) + data[index + 1 :]


def test_merkle_reference_matches_the_documented_scheme():
    for size in (1, 63, 64, 65, 200, 31_446):
        data = bytes(i % 251 for i in range(size))
        assert reference.merkle_root(data) == faircert.crypto.merkle_root(data)
    assert reference.merkle_root(b"\x00" * 64) != reference.merkle_root(b"\x00" * 65)


@pytest.fixture(scope="module")
def private_run():
    workload = workloads.CertifyPrivateTcp(workloads.TINY, 5, NullTracer())
    state = workload.setup("setup")
    try:
        records = [(i, workload.op(state, i)[1]) for i in range(2)]
    finally:
        workload.close(state)
    return workload, state, records


def test_certification_check_accepts_the_program(private_run):
    workload, state, records = private_run
    assert workload.check(state, records) == set()


def test_certification_check_rejects_a_flipped_digest(private_run):
    workload, state, records = private_run
    (i, (which, cert, server_cert)) = records[0]
    assert isinstance(cert, faircert.crypto.Certificate)
    forged = dataclasses.replace(cert, model_digest=_flip_byte(cert.model_digest, 7))
    assert workload.check(state, [(i, (which, forged, forged))]) == {i}
    spec = state.spec
    spec_bytes = reference.fairness_spec_bytes("ore", spec.epsilon, spec.delta, None)
    vk = state.keypair.verification_key
    root = reference.merkle_root(state.plants[which].model_bytes())
    assert reference.certificate_ok(cert.to_bytes(), vk, root, spec_bytes)
    assert not reference.certificate_ok(cert.to_bytes(), vk, _flip_byte(root, 0), spec_bytes)
    assert not reference.certificate_ok(_flip_byte(cert.to_bytes(), 40), vk, root, spec_bytes)


def test_certification_check_rejects_swapped_verdicts(private_run):
    workload, state, records = private_run
    (i, (_, cert, server_cert)), (j, (_, failure, server_failure)) = records
    swapped = [(i, (0, failure, server_failure)), (j, (1, cert, server_cert))]
    assert workload.check(state, swapped) == {i, j}
    one_sided = [(j, (1, failure, server_cert))]
    assert workload.check(state, one_sided) == {j}


def test_expected_verdict_needs_the_planted_gap(private_run):
    workload, state, _ = private_run
    fair, unfair = state.plants
    assert workload.expected_verdict_holds(state, fair)
    assert workload.expected_verdict_holds(state, unfair)
    # The unfair model expected to pass: its re-tallied gap of about 0.15
    # fails the decision rule, so the expectation does not hold.
    mislabelled = dataclasses.replace(unfair, fair=True)
    assert not workload.expected_verdict_holds(state, mislabelled)


@pytest.fixture(scope="module")
def infer_run():
    workload = workloads.InferTcp(workloads.TINY, 5, NullTracer())
    state = workload.setup("setup")
    try:
        records = [(i, workload.op(state, i)[1]) for i in range(3)]
    finally:
        workload.close(state)
    return workload, state, records


def test_inference_check_accepts_the_program(infer_run):
    workload, state, records = infer_run
    assert workload.check(state, records) == set()


def test_inference_check_rejects_a_wrong_label(infer_run):
    workload, state, records = infer_run
    i, (q, result, server_result) = records[1]
    wrong = dataclasses.replace(result, label=(result.label + 1) % 10)
    assert workload.check(state, [(i, (q, wrong, server_result))]) == {i}


def test_inference_check_rejects_a_flipped_digest(infer_run):
    workload, state, records = infer_run
    i, (q, result, server_result) = records[0]
    wrong = dataclasses.replace(result, model_digest=_flip_byte(result.model_digest, 31))
    assert workload.check(state, [(i, (q, wrong, server_result))]) == {i}


def test_planted_label_reference_flips_at_the_rate():
    seed = reference.flip_seed(b"\x07" * 8)
    features = [(65536, -65536, v, -v) for v in range(2000)]
    flips = sum(reference.planted_label(f, 2, Fraction(1, 10), seed) != 0 for f in features)
    assert 120 <= flips <= 280  # 200 expected
    assert all(reference.planted_label(f, 2, Fraction(0), seed) == 0 for f in features)


@pytest.fixture(scope="module")
def coverage_run():
    workload = workloads.Coverage(workloads.TINY, 5, NullTracer())
    state = workload.setup("setup")
    records = [(i, workload.op(state, i)[1]) for i in range(4)]
    return workload, state, records


def test_coverage_check_accepts_the_program(coverage_run):
    workload, state, records = coverage_run
    assert workload.check(state, records) == set()


def test_coverage_check_rejects_a_swapped_verdict(coverage_run):
    workload, state, records = coverage_run
    (i, (_, fair_trial)), (j, (_, unfair_trial)) = records[:2]
    failed_fair = dataclasses.replace(
        fair_trial, report=dataclasses.replace(fair_trial.report, passed=False)
    )
    assert workload.check(state, [(i, (0, failed_fair))]) == {i}
    certified_unfair = dataclasses.replace(
        unfair_trial, report=dataclasses.replace(unfair_trial.report, passed=True)
    )
    assert workload.check(state, [(j, (1, certified_unfair))]) == {j}
    nonzero_gap = dataclasses.replace(
        fair_trial, report=dataclasses.replace(fair_trial.report, efg=Fraction(1, 1016))
    )
    assert workload.check(state, [(i, (0, nonzero_gap))]) == {i}
