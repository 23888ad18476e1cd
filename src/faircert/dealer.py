"""Trusted-dealer emulation of the two-party secure computation.

A session takes one private input from each party, runs a named circuit once
both have asked for the same one, and hands each party only its designated
output. The session records two things auditors care about: a leakage log
(every datum actually delivered, to whom, and its size) and a timestamp-free
transcript of the messages (input / compute / output / abort) suitable for
line-oriented audit files.

Two circuits exist, each one function of the two inputs: it parses both
once, aborts on an input it cannot use, and evaluates. The certification
circuit evaluates the server's model on the regulator's test bundle in one
batch (augmenting it first when the bundle says so) and decides fairness
with division-free integer comparisons: the gap test
|err0*m1 - err1*m0| * 10**6 < threshold_micro * m0 * m1 per comparable
pair, never forming a quotient. A compared cell with no samples aborts the
session with EMPTY_CELL; every cell is checked before any pair, so the
verdict does not depend on the order of the groups. The inference circuit
returns the model's label for one query plus the Merkle digest of the model
bytes actually used, which is what lets the client check the certificate
afterwards. Both circuits take that digest from one bounded memo keyed by
the exact model bytes (at most four of them), so a server answering query
after query pays for its root once. A second memo of the same bound keeps
the parsed model, with the kernel it compiles on first use, so the dealer
retains at most four parsed models and parses and compiles each once.

The decoded test set stays in its wire form, as every Dataset does: the
dealer keeps the bundle's packed records (about 4 + 4d bytes per sample, a
view of the session's input bytes) and the group and label columns, and
the batch kernel and the augmentor unpack each feature row as they read it.
No row of the regulator's set is kept, where a row tuple would take about
224 bytes per sample at d = 4.
"""

from __future__ import annotations

import functools
import hashlib
import struct
from dataclasses import dataclass
from fractions import Fraction

from .augmentor import AugmentorConfig, augment_dataset
from .crypto import merkle_root, encode_fairness_spec, decode_fairness_spec
from .fairness import (
    EmptyCellError,
    FairnessSpec,
    GroupRiskTable,
    MICRO,
    build_risk_table,
    comparison_cells,
    empirical_gap,
    min_samples,
    relevant_counts,
    to_micro,
)
from .model import (
    MODEL_HEADER_BYTES,
    BiasedModel,
    Dataset,
    MalformedDatasetError,
    MalformedModelError,
    ModelSpec,
    Sample,
    decode_dataset,
    encode_dataset,
    deserialize_model,
    parameter_count,
    predict,
    predict_batch,
    serialize_model,
)

CIRCUIT_CERT = 1
CIRCUIT_INFER = 2

PARTY_SERVER = 1  # model holder
PARTY_CHECKER = 2  # regulator (certification) or client (inference)

STATE_AWAITING_INPUT = "AWAITING_INPUT"
STATE_READY = "READY"
STATE_COMPUTED = "COMPUTED"
STATE_DELIVERED = "DELIVERED"
STATE_ABORTED = "ABORTED"

ABORT_SIZE_MISMATCH = "SIZE_MISMATCH"
ABORT_MALFORMED_MODEL = "MALFORMED_MODEL"
ABORT_EMPTY_CELL = "EMPTY_CELL"
ABORT_DIMENSION_MISMATCH = "DIMENSION_MISMATCH"
ABORT_GROUP_MISMATCH = "GROUP_MISMATCH"
ABORT_LABEL_MISMATCH = "LABEL_MISMATCH"

MODE_PRIVATE_BYTE = 0
MODE_AUGMENTED_BYTE = 1


class WrongStateError(RuntimeError):
    pass


class CircuitMismatchError(ValueError):
    pass


class SessionAbort(RuntimeError):
    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


# Test bundle: what the checking party feeds the certification circuit.

def encode_test_bundle(
    spec: FairnessSpec, dataset: Dataset, aug: AugmentorConfig | None = None
) -> bytes:
    out = encode_fairness_spec(spec)
    if aug is None:
        out += bytes([MODE_PRIVATE_BYTE])
    else:
        out += bytes([MODE_AUGMENTED_BYTE]) + aug.encode()
    return out + encode_dataset(dataset)


def decode_test_bundle(
    data: bytes,
) -> tuple[FairnessSpec, Dataset, AugmentorConfig | None]:
    """Inverse of encode_test_bundle; any malformed part raises
    MalformedDatasetError."""
    try:
        spec, offset = decode_fairness_spec(data, 0)
    except ValueError as exc:
        raise MalformedDatasetError(f"bundle spec: {exc}") from exc
    if offset >= len(data):
        raise MalformedDatasetError("bundle missing mode byte")
    mode = data[offset]
    offset += 1
    aug = None
    if mode == MODE_AUGMENTED_BYTE:
        try:
            aug = AugmentorConfig.decode(data[offset : offset + 24])
        except ValueError as exc:
            raise MalformedDatasetError(f"bundle augmentor config: {exc}") from exc
        offset += 24
    elif mode != MODE_PRIVATE_BYTE:
        raise MalformedDatasetError(f"unknown bundle mode {mode}")
    return spec, decode_dataset(memoryview(data)[offset:]), aug


# Division-free fairness decision. This is the circuit's route; the host
# route in fairness.decide compares exact rationals. Keep them separate.

def integer_gap_strictly_below(
    table: GroupRiskTable, metric, threshold: Fraction
) -> bool:
    """Gap < threshold decided purely on integers via cross-multiplication.

    As empirical_gap does, it raises EmptyCellError when a compared cell
    has no samples: every cell is checked before any pair is compared, so
    the outcome does not depend on the order of the groups.
    """
    classes = comparison_cells(table, metric)
    if table.num_groups > 1 and any(d == 0 for cells in classes for _, d in cells):
        raise EmptyCellError("a compared cell has no samples")
    t_micro = to_micro(threshold)
    for cells in classes:
        for i, (n0, d0) in enumerate(cells):
            for n1, d1 in cells[i + 1 :]:
                if abs(n0 * d1 - n1 * d0) * MICRO >= t_micro * d0 * d1:
                    return False
    return True


def certification_decision(spec: FairnessSpec, table: GroupRiskTable) -> bool:
    """The circuit's pass bit: integer gap test plus the sample-count
    condition on the public counts, evaluated beside the integer core."""
    if not integer_gap_strictly_below(table, spec.metric, spec.threshold):
        return False
    gap = empirical_gap(table, spec.metric)
    required = min_samples(spec, gap, table.num_groups, table.num_labels)
    return min(relevant_counts(table, spec.metric)) >= required


def encode_query(features: tuple[int, ...]) -> bytes:
    return struct.pack("<I", len(features)) + struct.pack(
        f"<{len(features)}i", *features
    )


def decode_query(data: bytes) -> tuple[int, ...]:
    if len(data) < 4:
        raise ValueError("query too short")
    (dim,) = struct.unpack_from("<I", data, 0)
    if len(data) != 4 + 4 * dim:
        raise ValueError("query length does not match its dimension")
    return struct.unpack_from(f"<{dim}i", data, 4)


# Circuits: each is one function of the server's input and the checker's
# input. It parses both once, raises SessionAbort on an input it cannot use,
# and returns the per-party outputs as named parts so deliveries can be
# audited by name.

_Parts = list[tuple[str, bytes]]

_MODELS_KEPT = 4  # model byte strings each dealer memo keeps


@functools.lru_cache(maxsize=_MODELS_KEPT)
def _parse_model(model_bytes: bytes) -> ModelSpec:
    """The model the exact bytes encode, compiled kernel and all.

    Kept as _model_digest keeps roots, for the last few byte strings: a
    parsed model is immutable and compiles its kernel once, on first use,
    so a server answering query after query pays for both once. A malformed
    model raises and is never kept. deserialize_model is looked up at call
    time, so a wrapper installed on this module's name sees every miss.
    """
    if len(model_bytes) < MODEL_HEADER_BYTES:
        raise SessionAbort(ABORT_SIZE_MISMATCH)
    try:
        return deserialize_model(model_bytes)
    except MalformedModelError:
        raise SessionAbort(ABORT_MALFORMED_MODEL) from None


@functools.lru_cache(maxsize=_MODELS_KEPT)
def _model_digest(model_bytes: bytes) -> bytes:
    """Merkle root of the exact model bytes a circuit evaluated.

    A server answering queries sends the same bytes every session, and the
    root is most of an inference's cost, so the last few roots are kept,
    keyed by the bytes themselves: equal bytes give an equal root, so no
    output changes. merkle_root is looked up at call time, so a wrapper
    installed on this module's name sees every miss.
    """
    return merkle_root(model_bytes)


def _certify(model_bytes: bytes, bundle_bytes: bytes) -> tuple[_Parts, _Parts]:
    try:
        spec, dataset, aug = decode_test_bundle(bundle_bytes)
    except ValueError:
        raise SessionAbort(ABORT_SIZE_MISMATCH) from None
    if not dataset.groups:
        raise SessionAbort(ABORT_SIZE_MISMATCH)
    model = _parse_model(model_bytes)
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
    checker: _Parts = [
        ("fair_bit", b"\x01" if fair else b"\x00"),
        ("model_digest", _model_digest(model_bytes)),
    ]
    return [], checker


def _infer(model_bytes: bytes, query_bytes: bytes) -> tuple[_Parts, _Parts]:
    try:
        features = decode_query(query_bytes)
    except ValueError:
        raise SessionAbort(ABORT_SIZE_MISMATCH) from None
    model = _parse_model(model_bytes)
    if len(features) != model.dimension:
        raise SessionAbort(ABORT_DIMENSION_MISMATCH)
    # A query carries no group; a wrapper model served for inference flips
    # by its first group's rate. Deployed models are linear or lookup.
    label = predict(model, Sample(features=tuple(features), group=0, label=0))
    checker: _Parts = [
        ("prediction", struct.pack("<H", label)),
        ("model_digest", _model_digest(model_bytes)),
    ]
    return [], checker


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
        self.state = STATE_AWAITING_INPUT
        self.abort_reason: str | None = None
        self.leakage_log: list[LeakageEntry] = []
        self.transcript: list[TranscriptEntry] = []
        self._inputs: dict[int, bytes | None] = {PARTY_SERVER: None, PARTY_CHECKER: None}
        self._requests: dict[int, int | None] = {PARTY_SERVER: None, PARTY_CHECKER: None}
        self._outputs: dict[int, _Parts] = {}
        self._delivered: dict[int, bool] = {PARTY_SERVER: False, PARTY_CHECKER: False}

    def _record(self, party: str, kind: str, payload: bytes) -> None:
        self.transcript.append(
            TranscriptEntry(
                seq=len(self.transcript),
                party=party,
                kind=kind,
                length=len(payload),
                digest=hashlib.sha3_256(payload).hexdigest(),
            )
        )

    def _check_party(self, party: int) -> None:
        if party not in (PARTY_SERVER, PARTY_CHECKER):
            raise ValueError(f"unknown party {party}")

    def input(self, party: int, payload: bytes) -> None:
        self._check_party(party)
        if self.state != STATE_AWAITING_INPUT or self._inputs[party] is not None:
            raise WrongStateError(f"cannot accept input in state {self.state}")
        self._inputs[party] = bytes(payload)
        self._record(_party_name(party), "input", payload)
        if all(v is not None for v in self._inputs.values()):
            self.state = STATE_READY

    def _abort(self, reason: str) -> None:
        self.state = STATE_ABORTED
        self.abort_reason = reason
        self._record("F", "abort", reason.encode("ascii"))

    def compute(self, party: int, circuit_id: int) -> None:
        """Record a compute request; runs the circuit once both agree."""
        self._check_party(party)
        if self.state != STATE_READY:
            raise WrongStateError(f"compute requires READY, session is {self.state}")
        other = self._requests[PARTY_CHECKER if party == PARTY_SERVER else PARTY_SERVER]
        if other is not None and other != circuit_id:
            raise CircuitMismatchError(
                f"parties disagree on the circuit ({other} vs {circuit_id})"
            )
        if circuit_id not in _CIRCUITS:
            raise CircuitMismatchError(f"unknown circuit id {circuit_id}")
        self._requests[party] = circuit_id
        self._record(_party_name(party), "compute", bytes([circuit_id]))
        if any(v is None for v in self._requests.values()):
            return
        circuit = _CIRCUITS[circuit_id]
        try:
            y1, y2 = circuit(self._inputs[PARTY_SERVER], self._inputs[PARTY_CHECKER])
        except SessionAbort as abort:
            self._abort(abort.reason)
            return
        self._outputs = {PARTY_SERVER: y1, PARTY_CHECKER: y2}
        self.state = STATE_COMPUTED

    def output(self, party: int) -> bytes:
        """Deliver the party's designated output (possibly empty)."""
        self._check_party(party)
        if self.state == STATE_ABORTED:
            raise SessionAbort(self.abort_reason or "aborted")
        if self.state not in (STATE_COMPUTED, STATE_DELIVERED):
            raise WrongStateError(f"output requires COMPUTED, session is {self.state}")
        if self._delivered[party]:
            raise WrongStateError("output already delivered")
        parts = self._outputs[party]
        payload = b"".join(data for _, data in parts)
        for name, data in parts:
            self.leakage_log.append(
                LeakageEntry(party=_party_name(party), name=name, length=len(data))
            )
        self._record(_party_name(party), "output", payload)
        self._delivered[party] = True
        if all(self._delivered.values()):
            self.state = STATE_DELIVERED
        return payload

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
