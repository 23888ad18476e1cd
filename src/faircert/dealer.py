"""Trusted-dealer emulation of the two-party secure computation.

A session runs the ideal functionality's one sequence: each party gives its
input, both name the same circuit, and its output goes to the checking party
alone; the model holder receives nothing. A request that names no circuit,
an unknown one, or one the other party did not name aborts the session. The
session records a leakage log (every datum delivered, to whom, and its size)
and a timestamp-free transcript (input / compute / output / abort) suitable
for line-oriented audit files.

Two circuits exist, each one function of the two inputs: it parses both
once, aborts on an input it cannot use, and evaluates. The certification
circuit evaluates the server's model on the regulator's test bundle in one
batch (augmenting it first when its spec has an alpha: the spec alone names
the mode) and decides fairness with fairness.decide, the one certification
rule: the exact rational gap is below the threshold and every relevant
count reaches the sample bound at that gap. A compared cell with no samples
aborts the session with EMPTY_CELL; every cell is checked before any pair,
so the verdict does not depend on the order of the groups. The inference
circuit returns the model's label for one query plus the Merkle digest of
the model bytes actually used, which is what lets the client check the
certificate afterwards. It scores the query's wire bytes as they arrived: a
query is a u32 dimension and that many int32s, which is a record whose 4
head bytes the kernel skips.

A server sends the same model bytes every session, so the dealer keeps what
it derives from them in one memo, keyed by the exact bytes: the transcript
digest of the server's input, the parsed model with the kernel it compiles
on first use, and the Merkle root. Each is computed once, when first
needed, and equal bytes give equal values, so no output changes. The memo
is an LRU of at most four model byte strings, and a session holds the
memo's copy of its server input, so each model's bytes are kept once. An
empty server input takes no slot. A model that does not parse raises each
time it is asked for, so it aborts every session it is sent in.

The decoded test set stays in its wire form, as every Dataset does: the
dealer keeps the bundle's packed records (about 4 + 4d bytes per sample, a
view of the session's input, which is itself a view of the payload of the
frame that carried it, so the bundle is held once), the one store of each
sample's ids and features. The batch kernel and the augmentor unpack each
feature row as they read it, and no row of the regulator's set is kept,
where a row tuple would take about 224 bytes per sample at d = 4.
"""

from __future__ import annotations

import functools
import hashlib
import struct
from dataclasses import dataclass

from .augmentor import CONFIG_BYTES, SEED_BYTES, AugmentorConfig, augment_dataset
from .crypto import merkle_root, encode_fairness_spec, decode_fairness_spec
from .fairness import EmptyCellError, FairnessSpec, GroupRiskTable, build_risk_table, decide
from .fairness import min_samples  # noqa: F401  (bench/ traces it here)
from .model import (
    MODEL_HEADER_BYTES,
    BiasedModel,
    Dataset,
    MalformedDatasetError,
    MalformedModelError,
    ModelSpec,
    decode_dataset,
    encode_dataset,
    deserialize_model,
    pack_record,
    parameter_count,
    predict_batch,
    predict_record,
    serialize_model,
)
from .model import predict  # noqa: F401  (the single-sample form; bench/ traces it here)

CIRCUIT_CERT = 1
CIRCUIT_INFER = 2

PARTY_SERVER = 1  # model holder
PARTY_CHECKER = 2  # regulator (certification) or client (inference)

ABORT_SIZE_MISMATCH = "SIZE_MISMATCH"
ABORT_MALFORMED_MODEL = "MALFORMED_MODEL"
ABORT_EMPTY_CELL = "EMPTY_CELL"
ABORT_DIMENSION_MISMATCH = "DIMENSION_MISMATCH"
ABORT_GROUP_MISMATCH = "GROUP_MISMATCH"
ABORT_LABEL_MISMATCH = "LABEL_MISMATCH"
ABORT_CIRCUIT_MISMATCH = "CIRCUIT_MISMATCH"

class SessionAbort(RuntimeError):
    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


# Test bundle: what the checking party feeds the certification circuit.

def augmentor_block(spec: FairnessSpec, aug: AugmentorConfig | None, seed: bool) -> bytes:
    """What a header carries after its spec: aug's public parameters, led by
    its seed when seed is set, or nothing; ValueError unless aug is given
    exactly when the spec is augmented."""
    if (aug is not None) != spec.augmented:
        need = "needs an" if spec.augmented else "takes no"
        raise ValueError(f"spec {spec.fairness_string} {need} augmentor config")
    if aug is None:
        return b""
    return aug.encode() if seed else aug.encode_public()


def encode_test_bundle(
    spec: FairnessSpec, dataset: Dataset, aug: AugmentorConfig | None = None
) -> bytes:
    """The spec, aug's 24 bytes (seed first) when the spec is augmented,
    then the dataset."""
    block = augmentor_block(spec, aug, seed=True)
    return encode_fairness_spec(spec) + block + encode_dataset(dataset)


def decode_test_bundle(
    data: bytes | memoryview,
) -> tuple[FairnessSpec, Dataset, AugmentorConfig | None]:
    """Inverse of encode_test_bundle; any malformed part raises
    MalformedDatasetError."""
    try:
        spec, offset = decode_fairness_spec(data, 0)
        end = offset + (SEED_BYTES + CONFIG_BYTES if spec.augmented else 0)
        aug = AugmentorConfig.decode(bytes(data[offset:end])) if spec.augmented else None
    except ValueError as exc:  # a bad spec, or a bad config after an augmented one
        raise MalformedDatasetError(f"bundle header: {exc}") from exc
    return spec, decode_dataset(memoryview(data)[end:]), aug


def certification_decision(spec: FairnessSpec, table: GroupRiskTable) -> bool:
    """The circuit's pass bit: fairness.decide's verdict on the table."""
    return decide(spec, table).passed


def encode_query(features: tuple[int, ...]) -> bytes:
    """u32 dimension, then the features as int32s; ValueError for a feature
    that is not an int32."""
    return pack_record(len(features), features)


def query_dimension(data: bytes) -> int:
    """The dimension a query declares; ValueError unless the query holds
    exactly that many int32s after it."""
    if len(data) < 4:
        raise ValueError("query too short")
    (dim,) = struct.unpack_from("<I", data, 0)
    if len(data) != 4 + 4 * dim:
        raise ValueError("query length does not match its dimension")
    return dim


# Circuits: each is one function of the server's input and the checker's
# input. It parses both once, raises SessionAbort on an input it cannot use,
# and returns the checker's output as named parts so deliveries can be
# audited by name.

_Parts = list[tuple[str, bytes]]

_MODELS_KEPT = 4  # model byte strings the dealer's memo keeps


class _ServedModel:
    """What the dealer derives from one model byte string, each part
    computed on first use and then kept with the bytes.

    deserialize_model and merkle_root are looked up at call time, so a
    wrapper installed on this module's names sees every computation.
    """

    def __init__(self, model_bytes: bytes):
        self.model_bytes = model_bytes

    @functools.cached_property
    def input_digest(self) -> str:
        """The transcript digest of the bytes as a session input."""
        return hashlib.sha3_256(self.model_bytes).hexdigest()

    @functools.cached_property
    def model(self) -> ModelSpec:
        """The model the bytes encode; a malformed model raises SessionAbort
        every time it is asked for, since nothing is kept for it."""
        if len(self.model_bytes) < MODEL_HEADER_BYTES:
            raise SessionAbort(ABORT_SIZE_MISMATCH)
        try:
            return deserialize_model(self.model_bytes)
        except MalformedModelError:
            raise SessionAbort(ABORT_MALFORMED_MODEL) from None

    @functools.cached_property
    def root(self) -> bytes:
        """The Merkle root of the bytes: the digest a certificate names."""
        return merkle_root(self.model_bytes)


@functools.lru_cache(maxsize=_MODELS_KEPT)
def _served(model_bytes: bytes) -> _ServedModel:
    return _ServedModel(model_bytes)


def _certify(model_bytes: bytes, bundle_bytes: bytes) -> _Parts:
    try:
        spec, dataset, aug = decode_test_bundle(bundle_bytes)
    except ValueError:
        raise SessionAbort(ABORT_SIZE_MISMATCH) from None
    if not dataset.groups:
        raise SessionAbort(ABORT_SIZE_MISMATCH)
    served = _served(model_bytes)
    model = served.model
    if model.dimension != dataset.dimension:
        raise SessionAbort(ABORT_DIMENSION_MISMATCH)
    if isinstance(model, BiasedModel) and len(model.flip_rates) < dataset.num_groups:
        raise SessionAbort(ABORT_GROUP_MISMATCH)
    if model.num_labels > dataset.num_labels:
        raise SessionAbort(ABORT_LABEL_MISMATCH)
    if aug is not None:
        dataset = augment_dataset(aug, dataset)
    table = build_risk_table(dataset, predict_batch(model, dataset))
    try:
        fair = certification_decision(spec, table)
    except EmptyCellError:
        raise SessionAbort(ABORT_EMPTY_CELL) from None
    return [("fair_bit", b"\x01" if fair else b"\x00"), ("model_digest", served.root)]


def _infer(model_bytes: bytes, query_bytes: bytes) -> _Parts:
    try:
        dimension = query_dimension(query_bytes)
    except ValueError:
        raise SessionAbort(ABORT_SIZE_MISMATCH) from None
    served = _served(model_bytes)
    if dimension != served.model.dimension:
        raise SessionAbort(ABORT_DIMENSION_MISMATCH)
    # The query is one record as it stands. It carries no group; a wrapper
    # model served for inference flips by its first group's rate. Deployed
    # models are linear or lookup.
    label = predict_record(served.model, query_bytes, 0)
    return [("prediction", struct.pack("<H", label)), ("model_digest", served.root)]


_CIRCUITS = {CIRCUIT_CERT: _certify, CIRCUIT_INFER: _infer}


@dataclass(frozen=True)
class LeakageEntry:
    party: str
    name: str
    length: int


@dataclass(frozen=True)
class TranscriptEntry:
    seq: int
    party: str
    kind: str
    length: int
    digest: str

    def line(self) -> str:
        return f"{self.seq} {self.party} {self.kind} {self.length} {self.digest}"


def _party_name(party: int) -> str:
    return {PARTY_SERVER: "P1", PARTY_CHECKER: "P2"}[party]


class FscSession:
    """One run of the ideal functionality between two parties."""

    def __init__(self) -> None:
        self.abort_reason: str | None = None
        self.output: bytes | None = None  # the checker's, once delivered
        self.leakage_log: list[LeakageEntry] = []
        self.transcript: list[TranscriptEntry] = []
        self._inputs: dict[int, bytes | memoryview] = {}
        self._circuit: int | None = None  # the first request's

    def _record(self, party: str, kind: str, payload: bytes, digest: str | None = None) -> None:
        """Append an entry; digest, when given, is the payload's SHA3-256 hex."""
        self.transcript.append(
            TranscriptEntry(
                seq=len(self.transcript),
                party=party,
                kind=kind,
                length=len(payload),
                digest=digest or hashlib.sha3_256(payload).hexdigest(),
            )
        )

    def input(self, party: int, payload: bytes | memoryview) -> None:
        """Take a party's input. The session keeps bytes, or a view of an
        immutable bytes object, and copies any other buffer."""
        digest = None
        if party == PARTY_SERVER and payload:  # model bytes, in both circuits
            served = _served(bytes(payload))
            payload, digest = served.model_bytes, served.input_digest
        elif not isinstance(memoryview(payload).obj, bytes):
            payload = bytes(payload)  # no view into a buffer the caller may change
        self._inputs[party] = payload
        self._record(_party_name(party), "input", payload, digest)

    def _abort(self, reason: str) -> None:
        self.abort_reason = reason
        self._record("F", "abort", reason.encode("ascii"))

    def compute(self, party: int, circuit_id: int | None) -> None:
        """Record a party's request for a circuit. The second request runs
        the circuit and delivers its output to the checker at once. A
        request that names no circuit (None), an unknown one, or one the
        other party did not name aborts the session with CIRCUIT_MISMATCH."""
        if circuit_id not in _CIRCUITS or self._circuit not in (None, circuit_id):
            self._abort(ABORT_CIRCUIT_MISMATCH)
            return
        self._record(_party_name(party), "compute", bytes([circuit_id]))
        if self._circuit is None:
            self._circuit = circuit_id
            return
        try:
            parts = _CIRCUITS[circuit_id](self._inputs[PARTY_SERVER], self._inputs[PARTY_CHECKER])
        except SessionAbort as abort:
            self._abort(abort.reason)
            return
        checker = _party_name(PARTY_CHECKER)
        for name, data in parts:
            self.leakage_log.append(LeakageEntry(party=checker, name=name, length=len(data)))
        self.output = b"".join(data for _, data in parts)
        self._record(checker, "output", self.output)

    def transcript_lines(self) -> list[str]:
        return [entry.line() for entry in self.transcript]


# Gate-cost model for garbling these computations as boolean circuits.

KECCAK_INPUT_BITS = 1600
KECCAK_AND_GATES = 38400
HASH_AND_GATES_PER_INPUT_BIT = KECCAK_AND_GATES / KECCAK_INPUT_BITS  # 24.0
MERKLE_AND_GATES_PER_INPUT_BIT = 2 * HASH_AND_GATES_PER_INPUT_BIT  # tree doubles it
MUL32_AND_GATES_PER_BIT = 185
ADD32_AND_GATES_PER_BIT = 6
INFERENCE_AND_GATES_PER_WEIGHT_BIT = MUL32_AND_GATES_PER_BIT + ADD32_AND_GATES_PER_BIT


@dataclass(frozen=True)
class GateCostReport:
    hash_and_gates_per_input_bit: float
    merkle_and_gates_per_input_bit: float
    inference_and_gates_per_weight_bit: float
    merkle_total_and_gates: int
    total_inference_gates: int
    overhead_ratio: float | None

    def to_lines(self) -> list[str]:
        ratio = "n/a" if self.overhead_ratio is None else f"{self.overhead_ratio:.4f}"
        return [
            f"hash AND gates per input bit: {self.hash_and_gates_per_input_bit:g}",
            f"merkle AND gates per input bit: {self.merkle_and_gates_per_input_bit:g}",
            f"inference AND gates per weight bit: {self.inference_and_gates_per_weight_bit:g}",
            f"merkle total AND gates: {self.merkle_total_and_gates}",
            f"inference total AND gates: {self.total_inference_gates}",
            f"commitment overhead ratio: {ratio}",
        ]


def estimate_gates(model_byte_count: int, weight_bit_count: int) -> GateCostReport:
    """Arithmetic-only cost estimate; no circuits are built."""
    if model_byte_count < 1:
        raise ValueError("model_byte_count must be positive")
    if weight_bit_count < 0:
        raise ValueError("weight_bit_count must be nonnegative")
    merkle_total = int(MERKLE_AND_GATES_PER_INPUT_BIT * model_byte_count * 8)
    inference_total = INFERENCE_AND_GATES_PER_WEIGHT_BIT * weight_bit_count
    ratio = merkle_total / inference_total if inference_total else None
    return GateCostReport(
        hash_and_gates_per_input_bit=HASH_AND_GATES_PER_INPUT_BIT,
        merkle_and_gates_per_input_bit=MERKLE_AND_GATES_PER_INPUT_BIT,
        inference_and_gates_per_weight_bit=float(INFERENCE_AND_GATES_PER_WEIGHT_BIT),
        merkle_total_and_gates=merkle_total,
        total_inference_gates=inference_total,
        overhead_ratio=ratio,
    )


def estimate_gates_for_model(model) -> GateCostReport:
    return estimate_gates(
        model_byte_count=len(serialize_model(model)),
        weight_bit_count=32 * parameter_count(model),
    )
