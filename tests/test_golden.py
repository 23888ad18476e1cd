"""Pinned SHA3-256 digests of the program's byte-deterministic outputs.

Each digest was taken once and frozen: a refactor or a speed-up that
changes any of these bytes changes behaviour, and must say so.
"""

import hashlib
import io
import struct
from fractions import Fraction

from conftest import CHEAP_SPEC, KEY_SEED, certification_setup

from faircert import fixedpoint as fx
from faircert.augmentor import AugmentorConfig, augment_dataset
from faircert.cli import main
from faircert.crypto import Certificate, issue_certificate, keygen, merkle_root
from faircert.dealer import encode_test_bundle
from faircert.experiments import run_coverage, write_coverage_csv
from faircert.fairness import FairnessMetric, FairnessSpec
from faircert.model import (
    BiasedModel,
    Dataset,
    LinearModel,
    LookupModel,
    PlantedConfig,
    Sample,
    encode_dataset,
    generate_planted,
    predict,
)
from faircert.prg import CounterPrg
from faircert.protocol import (
    AcceptedPrediction,
    Client,
    Server,
    run_certification_local,
    run_inference_local,
)

AUG = AugmentorConfig(
    master_seed=b"\x77" * 8,
    noise_sigma=fx.ONE // 100,
    mask_prob=Fraction(1, 10),
    invoke_prob=Fraction(1, 2),
)
AUG_SPEC = FairnessSpec(
    metric=FairnessMetric.ORE,
    epsilon=Fraction(1, 2),
    delta=Fraction(1, 5),
    alpha=Fraction(1, 2),
)

THREE_LABELS = PlantedConfig(
    cell_weights=(
        (Fraction(1, 6), Fraction(1, 6), Fraction(1, 6)),
        (Fraction(1, 6), Fraction(1, 6), Fraction(1, 6)),
    ),
    error_rates=(Fraction(1, 10), Fraction(3, 10)),
    seed=b"\x13" * 8,
    noise_dims=3,
)

# Six features: a one-hot block of three labels and three noise coordinates.
# Row 0 saturates upwards, row 1 downwards, row 2 mixes signs and zeros.
WIDE = LinearModel(
    dimension=6,
    num_labels=3,
    weights=(
        (fx.INT32_MAX, fx.INT32_MAX - 7, 0, 3 * fx.ONE, -fx.ONE // 3, 0),
        (fx.INT32_MIN, 0, fx.INT32_MIN + 5, fx.ONE // 2, 0, 9 * fx.ONE),
        (fx.ONE, -fx.ONE, 0, 0, fx.INT32_MAX // 2, fx.INT32_MIN // 3),
    ),
    biases=(fx.INT32_MAX - 3, fx.INT32_MIN + 11, -fx.ONE),
)


def sha3(data: bytes) -> str:
    return hashlib.sha3_256(data).hexdigest()


def planted_set(count=400):
    return generate_planted(THREE_LABELS, 0, group_counts=(count, count))[0]


def labels_digest(model, dataset) -> str:
    preds = [predict(model, s) for s in dataset.samples]
    return sha3(struct.pack(f"<{len(preds)}H", *preds))


def test_private_bundle_bytes():
    regulator, _, _, _ = certification_setup(group_counts=(200, 200))
    bundle = encode_test_bundle(regulator.spec, regulator.dataset, regulator.aug)
    assert sha3(bundle) == "25b5b69b098850ff0618365457809470fa9d700822ae60938a17bd0840578e5b"


def test_augmented_bundle_bytes():
    regulator, _, _, _ = certification_setup(
        group_counts=(200, 200), spec=AUG_SPEC, aug=AUG
    )
    bundle = encode_test_bundle(regulator.spec, regulator.dataset, regulator.aug)
    assert sha3(bundle) == "175ed8758eb80f9743fc75ccef785a2c49adceff4a6dfa12ef98fd7b03f7a118"


def _certify(**kwargs):
    regulator, server, _, _ = certification_setup(group_counts=(200, 200), **kwargs)
    run = run_certification_local(regulator, server)
    assert isinstance(run.regulator_result, Certificate)
    return run.regulator_result.to_bytes(), "\n".join(run.session.transcript_lines())


def test_private_certificate_and_transcript():
    cert, transcript = _certify()
    assert sha3(cert) == "aeb3f82d51d826db86764503c38ca920063c2fbea00d584e5ea3456d771c067b"
    assert sha3(transcript.encode()) == "9805fb3b461b538bf69b4c053bec8af5b1b8ee20dc49d8e47ff7a4c1d4749906"


def test_augmented_certificate_and_transcript():
    cert, transcript = _certify(spec=AUG_SPEC, aug=AUG)
    assert sha3(cert) == "070adbcfa7b7e5cab61a3a151462137b70f884141f03587f672d7382c9217a9d"
    assert sha3(transcript.encode()) == "a16361f6f360ce8d0bc2913abb33b763b714e427fc17a706e12c3a26cebc2689"


def test_linear_predictions():
    assert labels_digest(WIDE, planted_set()) == "f9e9777e9f34137e95f78783a282330d4eb99453a6a8f952daf3fe50028d716b"


def test_lookup_predictions():
    # The lookup reads the first feature's integer part; spread it over
    # [-5, 5) by moving a scaled noise coordinate to the front.
    planted = planted_set()
    spread = Dataset(
        planted.dimension,
        planted.num_groups,
        planted.num_labels,
        tuple(
            Sample((5 * s.features[3],) + s.features[1:], s.group, s.label)
            for s in planted.samples
        ),
    )
    lookup = LookupModel(dimension=6, num_labels=3, table=(2, 0, 1, 1, 0, 2, 1))
    assert labels_digest(lookup, spread) == "6df2a59c3231c874721064262cfb57d3db4cf1efa1b3ee5b812b50892b4356d8"


def test_biased_predictions():
    biased = BiasedModel(
        inner=WIDE,
        flip_rates=(Fraction(1, 4), Fraction(3, 5)),
        seed=b"\x2a" * 8,
    )
    assert labels_digest(biased, planted_set()) == "e95eda3aa07fb30281e430c78cbb5eaecb67eb90a237d3c6ae5c762bbe9aa012"


# Certified inference: the dealer's transcript and leakage log, every
# recorded channel's wire bytes and the accepted prediction, for a query
# whose features sit at the int32 edges, against each architecture.
INFER_QUERY = (fx.INT32_MAX, fx.INT32_MIN, 0, -fx.ONE, 3 * fx.ONE // 2, 7)
INFER_CASES = {
    "linear": "c5e2ae2f602ed31b9a6db5cfd6ebae6af9cf93fb6e7cca8a7d6d73243c613f9e",
    "lookup": "0b43082b90a57ccdbdb1acfc105c5a233f6850e23303f58ee8b0fd313a9c1044",
    "biased": "102a4e2cdf3ddf600f43677d974472f23cb101300f2b19e4445950ef69f1116d",
}


def _inference_bytes(kind: str) -> bytes:
    model = {
        "linear": WIDE,
        "lookup": LookupModel(dimension=6, num_labels=3, table=(2, 0, 1, 1, 0, 2, 1)),
        "biased": BiasedModel(
            inner=WIDE, flip_rates=(Fraction(1, 2), Fraction(1, 5)), seed=b"\x2b" * 8
        ),
    }[kind]
    server = Server(model)
    pair = keygen(KEY_SEED)
    server.certificate = issue_certificate(pair, merkle_root(server.model_bytes), CHEAP_SPEC)
    run = run_inference_local(Client(INFER_QUERY, pair.verification_key, CHEAP_SPEC), server)
    result = run.client_result
    assert isinstance(result, AcceptedPrediction)
    lines = run.session.transcript_lines() + [
        f"{entry.party} {entry.name} {entry.length}" for entry in run.session.leakage_log
    ]
    wires = [name.encode() + b"".join(run.recorders[name].sent) for name in sorted(run.recorders)]
    outcome = struct.pack("<H", result.label) + result.model_digest
    return "\n".join(lines).encode() + b"".join(wires) + outcome


def test_inference_transcripts():
    digests = {kind: sha3(_inference_bytes(kind)) for kind in INFER_CASES}
    assert digests == INFER_CASES


def test_coverage_csv():
    spec = FairnessSpec(
        metric=FairnessMetric.ORE, epsilon=Fraction(1, 5), delta=Fraction(1, 5)
    )
    config = PlantedConfig(
        cell_weights=((Fraction(1, 4), Fraction(1, 4)), (Fraction(1, 4), Fraction(1, 4))),
        error_rates=(Fraction(1, 20), Fraction(1, 10)),
        seed=b"\x07" * 8,
    )
    results = run_coverage(config, spec, 6, group_counts=(150, 150))
    out = io.StringIO()
    write_coverage_csv(out, results)
    assert sha3(out.getvalue().encode()) == "bff89a5d93893de747346acf62f87c7852db9e6e1c82ab8bbfe008800f77fd6f"


# Augmented dataset bytes. Each case is (dimension, sigma, mask, invoke,
# degree): odd and even dimensions, a sigma at which every noise step past one
# standard deviation saturates, masking off and certain, invocation never and always.
AUGMENT_CASES = {
    (3, fx.ONE // 100, "1/10", "1/2", "1"): "99d49391081a51e718f286ac09c4228184d564793e29fd427fc6ec6886723eb2",
    (4, fx.INT32_MAX, "0", "1", "1"): "787569bba61f884c44577d924151b53752e3f328d74d3e49845f099961dbc567",
    (5, fx.INT32_MAX // 3, "1", "1", "1"): "70a788476cd8e3e7614e24975082495160f8e697becee8fec948c18c1bd1ccdd",
    (2, fx.ONE, "3/10", "0", "1"): "ca5247e6ff8585d38b4a3869a75a0bfb5512943658fe1a9c12260c1c2544490e",
    (1, 3 * fx.ONE, "1/2", "1", "1/2"): "bdd0b0850d66572a4340938c7e9cfecacb30069e2bc16fbbfa72954d0dddefc4",
    (6, 2 * fx.ONE, "1", "3/4", "1"): "1cb273f99b15bbe8b649b5c5387bf99eebf545647f895950fc15a7e29e5264fa",
    (7, 0, "1/4", "1", "1"): "ec7ae5822c7af54390c00ee0fcfd8458e8882ef8f4c4561fb112997bb6f2dbbc",
}


def _augmented_bytes(dimension, sigma, mask, invoke, degree) -> bytes:
    config = PlantedConfig(
        cell_weights=((Fraction(1, 4), Fraction(1, 4)), (Fraction(1, 4), Fraction(1, 4))),
        error_rates=(Fraction(0), Fraction(0)),
        seed=bytes([dimension]) * 8,
        noise_dims=dimension - 2 if dimension > 2 else 0,
    )
    dataset = generate_planted(config, 0, group_counts=(60, 60))[0]
    if dimension < 2:
        dataset = Dataset.from_columns(
            1, 2, 2, [row[:1] for row in dataset.features], dataset.groups, dataset.labels
        )
    aug = AugmentorConfig(
        master_seed=bytes([0x40 + dimension]) * 8,
        noise_sigma=sigma,
        mask_prob=Fraction(mask),
        invoke_prob=Fraction(invoke),
        degree=Fraction(degree),
    )
    return encode_dataset(augment_dataset(aug, dataset))


def test_augmented_dataset_bytes():
    digests = {case: sha3(_augmented_bytes(*case)) for case in AUGMENT_CASES}
    assert digests == AUGMENT_CASES


# Planted datasets from the i.i.d. path (m) and the fixed-count path, with no
# noise coordinates and with 774, the noise width of the benchmark's
# 784-feature inference model. A zero-weight cell sits between two others.
PLANTED_CASES = {
    ("m", 0): "07fa806f5fe98e8284bb3bab5f373313a21c9ae4f6ce234d92ed9569242e3e93",
    ("m", 774): "ae2d81f6dac9c66b67ea5436bfa3fab09264d8b4f2725d72550928251b575aa9",
    ("counts", 0): "d85b2b22404f98da7d364c67ddd1982905e034b81f05244949c80d2c3bc0c866",
    ("counts", 774): "6d7af9570913390e5e391abd0df0571b55b8dd8e680d109f9ee9b445e812f9a3",
}


def _planted_bytes(path: str, noise_dims: int) -> bytes:
    config = PlantedConfig(
        cell_weights=(
            (Fraction(1, 10), Fraction(0), Fraction(3, 20)),
            (Fraction(1, 4), Fraction(1, 5), Fraction(3, 10)),
        ),
        error_rates=(Fraction(1, 8), Fraction(2, 5)),
        seed=bytes([noise_dims % 256]) * 8,
        noise_dims=noise_dims,
    )
    if path == "m":
        dataset = generate_planted(config, 90)[0]
    else:
        dataset = generate_planted(config, 0, group_counts=(37, 53))[0]
    return encode_dataset(dataset)


def test_planted_dataset_bytes():
    digests = {case: sha3(_planted_bytes(*case)) for case in PLANTED_CASES}
    assert digests == PLANTED_CASES


def test_counter_prg_draws():
    prg = CounterPrg(b"\x5a" * 8)
    words = [prg.u64() for _ in range(1000)]
    assert sha3(struct.pack("<1000Q", *words)) == "f2f19ec2034ab8f8011dcb4a4d1afeee2d6820624cad92be62fc53f14925bba1"
    cumulative = [(Fraction(1, 5), 0), (Fraction(1, 5), 1), (Fraction(2, 3), 2), (Fraction(1), 3)]
    mixed = []
    for i in range(300):
        kind = i % 3
        if kind == 0:
            mixed.append(int(prg.below(Fraction(i + 1, 301))))
        elif kind == 1:
            mixed.append(prg.choose_weighted(cumulative))
        else:
            mixed.append(int(prg.below(Fraction(0))))
    assert sha3(repr(mixed).encode()) == "3d332329e7c365bda1827f5136c3f5b04b97be22c0b65a0e6295557a4ee1e21b"


# CLI experiment CSVs, with nondefault augmentor flags so every flag the
# commands parse reaches the bytes.
CLI_CONFIG = PlantedConfig(
    cell_weights=((Fraction(1, 4), Fraction(1, 4)), (Fraction(1, 4), Fraction(1, 4))),
    error_rates=(Fraction(1, 10), Fraction(1, 4)),
    seed=bytes(8),
    noise_dims=2,
)
AUG_FLAGS = [
    "--aug-sigma", "0.7", "--mask-prob", "0.2", "--invoke-prob", "0.5", "--degree", "0.75"
]


def _cli_csv(tmp_path, argv) -> bytes:
    config_path = tmp_path / "config.json"
    config_path.write_text(CLI_CONFIG.to_json())
    out = tmp_path / "out.csv"
    assert main(argv + ["--config", str(config_path), "--out", str(out)] + AUG_FLAGS) == 0
    return out.read_bytes()


def test_attack_knn_csv(tmp_path):
    data = _cli_csv(
        tmp_path,
        [
            "attack-knn",
            "--fair-rates", "0.15,0.15",
            "--unfair-rates", "0.02,0.25",
            "--ref-size", "60",
            "--eval-size", "120",
            "--taus", "0,0.5,2,inf",
            "--seed", "13",
        ],
    )
    assert sha3(data) == "43e25ad507442fbed7d96351d57b75b6446027ec1716cdb20a0a26b99fd7c457"


def test_augment_sweep_csv(tmp_path):
    data = _cli_csv(
        tmp_path, ["augment-sweep", "--m", "200", "--degrees", "0,0.5,1", "--seed", "3"]
    )
    assert sha3(data) == "85cd24fdd5f16179a5787a8d3b4b0c45069252b6561246701d6abc734440912d"
