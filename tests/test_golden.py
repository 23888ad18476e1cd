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
    assert sha3(bundle) == "f231b787d5474ed20de2fb6a49c0c6ed62d83ca8c04fc307bfe77d14ff7c38a8"


def test_augmented_bundle_bytes():
    regulator, _, _, _ = certification_setup(
        group_counts=(200, 200), spec=AUG_SPEC, aug=AUG
    )
    bundle = encode_test_bundle(regulator.spec, regulator.dataset, regulator.aug)
    assert sha3(bundle) == "20160805553a6410ba1cc0ef62ec81955f1898900d1e0f44e45ad61ba1b98866"


def _certify(**kwargs):
    regulator, server, _, _ = certification_setup(group_counts=(200, 200), **kwargs)
    run = run_certification_local(regulator, server)
    assert isinstance(run.regulator_result, Certificate)
    return run.regulator_result.to_bytes(), "\n".join(run.session.transcript_lines())


def test_private_certificate_and_transcript():
    cert, transcript = _certify()
    assert sha3(cert) == "aeb3f82d51d826db86764503c38ca920063c2fbea00d584e5ea3456d771c067b"
    assert sha3(transcript.encode()) == "dc451f1f381266794f2be3d99f6247be9db53b3162470021ccb9ef965e8451a7"


def test_augmented_certificate_and_transcript():
    cert, transcript = _certify(spec=AUG_SPEC, aug=AUG)
    assert sha3(cert) == "070adbcfa7b7e5cab61a3a151462137b70f884141f03587f672d7382c9217a9d"
    assert sha3(transcript.encode()) == "732d03fb33de79ddb312b484c12323436f13a0839bc1fd67f1aa65c453e6e337"


def test_linear_predictions():
    assert labels_digest(WIDE, planted_set()) == "d9be7b3d2554fa027184e89dd777e5d911299396287e35e2cd9dd2cd917883f9"


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
    assert labels_digest(lookup, spread) == "9c93794459a1104d31a4176157b58129875e8044878713ed3ed08da6a19172c7"


def test_biased_predictions():
    biased = BiasedModel(
        inner=WIDE,
        flip_rates=(Fraction(1, 4), Fraction(3, 5)),
        seed=b"\x2a" * 8,
    )
    assert labels_digest(biased, planted_set()) == "3ee75d4861e8dfaab929c64d1d94a2842aabb1fc2d63b538ae708dd9795d7a0e"


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
    assert sha3(out.getvalue().encode()) == "4f4009993d1cacb4e08b8c01866744f78d20381ad4daf9805af12d451ddfbcfb"


# Augmented dataset bytes. Each case is (dimension, sigma, mask, invoke,
# degree): odd and even dimensions, a sigma at which every noise step past one
# standard deviation saturates, masking off and certain, invocation never and always.
AUGMENT_CASES = {
    (3, fx.ONE // 100, "1/10", "1/2", "1"): "aa2ea1e0a95ef454088fc62eb13160a5f728a1651011c787049d18119f9b2810",
    (4, fx.INT32_MAX, "0", "1", "1"): "8f11cd1079e44414e936311472e8513b3f11e1005f8c05ec314a0f9a33f85644",
    (5, fx.INT32_MAX // 3, "1", "1", "1"): "877d7da9d2079c249bd1c5ab0bfe7d5ab7b5a666d95fb7f1969d5fc8ba9c83d6",
    (2, fx.ONE, "3/10", "0", "1"): "fcd96603d70b5c40ab37ddcd94f89ffac5cfcd0e0b6f530434f51827a69ade00",
    (1, 3 * fx.ONE, "1/2", "1", "1/2"): "d880daabcacd8df38c4db392e9426724a5fc6b3a454849cede16e12d89597aca",
    (6, 2 * fx.ONE, "1", "3/4", "1"): "588012b1b0959cfc0b5a7239dc4757c1e996dac61a97efa0e5443baa631b9f7f",
    (7, 0, "1/4", "1", "1"): "9143c2b44e4f29ad6b35dc6750191961a0dc5d595ed7a7a076fafe1aaea64ab4",
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
    ("m", 0): "ba191800be45fc9e9dbf7801a4a1258b5c4d7433c423cdc820bb3655fa91b1ca",
    ("m", 774): "7a80b28dec2a1c5c11cff1d0969893d9b19e827ac1ee3a27fd1348f553ed14a0",
    ("counts", 0): "5b52dbca60c8271716b01eb98579f9955a106559b0360bdf438e28c33dc45535",
    ("counts", 774): "fabf78a88e0d74ba868f2e4016de96d0867264c9fff4b475caaa44e877eeb13f",
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
    assert sha3(struct.pack("<1000Q", *words)) == "a317df17664f7c02638eab033d7ef1e4ef91e52919374f15db7c7f7fee358bb4"
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
    assert sha3(repr(mixed).encode()) == "b9daea59c0fcee92f4838bae1c655b9de3ec247cb6c05a4e23509fdf18971c6b"


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
    assert sha3(data) == "4e3ada639f520e2394038a68beade2c5581e13a5978904e8c9cf44e2459df9ed"


def test_augment_sweep_csv(tmp_path):
    data = _cli_csv(
        tmp_path, ["augment-sweep", "--m", "200", "--degrees", "0,0.5,1", "--seed", "3"]
    )
    assert sha3(data) == "970e3ed410ede7f26aaf5198c46c4ff9880dad33d468f50f65a663d471d6924d"
