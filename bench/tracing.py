"""Spans and counters around the public functions of each faircert module.

A traced run installs wrappers at the names callers look functions up by
(faircert.dealer.predict, faircert.protocol.SocketChannel.recv_frame, ...)
and removes them when it ends. Three kinds of wrapper exist:

- span: start, end, parent span in the same thread, operation id; kept in
  memory and written out when the run ends;
- timed: per-sample hot calls (predict) keep only a per-operation count and
  total time, since 10^5 span records per operation would dwarf the work;
- count: calls (and bytes or samples) only, for the hottest functions.

A span's self time is its duration minus the time of the spans and timed
calls it encloses in its own thread.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
import statistics
import threading
import time
from pathlib import Path

# (metric, unit, traced name, quantity). ms and self_ms are medians over
# operations; calls, bytes and samples are means per operation.
LAYER_METRICS = [
    ("protocol.send_frame.calls", "count", "protocol.send_frame", "calls"),
    ("protocol.send_frame.bytes", "bytes", "protocol.send_frame", "amount"),
    ("protocol.send_frame.ms", "ms", "protocol.send_frame", "ms"),
    ("protocol.recv_frame.ms", "ms", "protocol.recv_frame", "ms"),
    ("protocol.connect_channel.ms", "ms", "protocol.connect_channel", "ms"),
    ("protocol.accept_channel.ms", "ms", "protocol.accept_channel", "ms"),
    ("protocol.exchange_hello.calls", "count", "protocol.exchange_hello", "calls"),
    ("protocol.Regulator.precheck.ms", "ms", "protocol.Regulator.precheck", "ms"),
    ("protocol.serve_dealer.self_ms", "ms", "protocol.serve_dealer", "self_ms"),
    ("dealer.encode_test_bundle.ms", "ms", "dealer.encode_test_bundle", "ms"),
    ("dealer.decode_test_bundle.calls", "count", "dealer.decode_test_bundle", "calls"),
    ("dealer.decode_test_bundle.ms", "ms", "dealer.decode_test_bundle", "ms"),
    ("dealer.FscSession.input.ms", "ms", "dealer.FscSession.input", "ms"),
    ("dealer.FscSession.compute.self_ms", "ms", "dealer.FscSession.compute", "self_ms"),
    ("dealer.certification_decision.ms", "ms", "dealer.certification_decision", "ms"),
    ("model.decode_dataset.ms", "ms", "model.decode_dataset", "ms"),
    ("model.decode_dataset.samples", "samples", "model.decode_dataset", "amount"),
    ("model.encode_dataset.ms", "ms", "model.encode_dataset", "ms"),
    ("model.canonical_order.ms", "ms", "model.canonical_order", "ms"),
    ("model.predict.calls", "count", "model.predict", "calls"),
    ("model.predict.ms", "ms", "model.predict", "ms"),
    ("model.deserialize_model.calls", "count", "model.deserialize_model", "calls"),
    ("model.deserialize_model.ms", "ms", "model.deserialize_model", "ms"),
    ("model.serialize_model.ms", "ms", "model.serialize_model", "ms"),
    ("model.generate_planted.ms", "ms", "model.generate_planted", "ms"),
    ("model.generate_planted.samples", "samples", "model.generate_planted", "amount"),
    ("fixedpoint.dot.calls", "count", "fixedpoint.dot", "calls"),
    ("prg.sha3.calls", "count", "prg.sha3", "calls"),
    ("prg.CounterPrg.u64.calls", "count", "prg.CounterPrg.u64", "calls"),
    ("prg.hash_u64.calls", "count", "prg.hash_u64", "calls"),
    ("augmentor.augment_dataset.ms", "ms", "augmentor.augment_dataset", "ms"),
    ("augmentor.augment.calls", "count", "augmentor.augment", "calls"),
    ("fairness.build_risk_table.ms", "ms", "fairness.build_risk_table", "ms"),
    ("fairness.decide.ms", "ms", "fairness.decide", "ms"),
    ("fairness.min_samples.calls", "count", "fairness.min_samples", "calls"),
    ("crypto.merkle_root.ms", "ms", "crypto.merkle_root", "ms"),
    ("crypto.merkle_root.bytes", "bytes", "crypto.merkle_root", "amount"),
    ("crypto.sign.ms", "ms", "crypto.sign", "ms"),
    ("crypto.verify.ms", "ms", "crypto.verify", "ms"),
    ("crypto.key_id.calls", "count", "crypto.key_id", "calls"),
    ("experiments.run_coverage.ms", "ms", "experiments.run_coverage", "ms"),
]

# Set-up work, as the median over a run's set-up repetitions: where the
# generation, ordering and (for infer_tcp) certification behind setup_s go.
SETUP_METRICS = [
    ("setup.model.generate_planted.ms", "ms", "model.generate_planted", "ms"),
    ("setup.model.canonical_order.ms", "ms", "model.canonical_order", "ms"),
    ("setup.model.serialize_model.ms", "ms", "model.serialize_model", "ms"),
    ("setup.protocol.Regulator.certify.ms", "ms", "protocol.Regulator.certify", "ms"),
]

# The traced run's own mean operation time; against the untraced op_mean_ms
# of the same workload it gives the tracing overhead.
TRACED_OP_METRIC = ("trace.op_mean_ms", "ms")


def _frame_bytes(args, result) -> int:
    return len(args[1].payload) + 5  # 4-byte length, type byte, payload


def _wrap_table(faircert):
    """(owner, attribute, kind, traced name, amount-of-call). Owners are the
    objects callers look the function up on."""
    protocol, dealer, model = faircert.protocol, faircert.dealer, faircert.model
    experiments, crypto = faircert.experiments, faircert.crypto
    samples_out = lambda args, result: len(result.samples)  # noqa: E731
    generated = lambda args, result: len(result[0].samples)  # noqa: E731
    data_in = lambda args, result: len(args[0])  # noqa: E731
    table = []
    for chan in (protocol.SocketChannel, protocol.QueueChannel):
        table.append((chan, "send_frame", "span", "protocol.send_frame", _frame_bytes))
        table.append((chan, "recv_frame", "span", "protocol.recv_frame", None))
    table += [
        (protocol, "connect_channel", "span", "protocol.connect_channel", None),
        (protocol, "accept_channel", "span", "protocol.accept_channel", None),
        (protocol, "exchange_hello", "count", "protocol.exchange_hello", None),
        (protocol.Regulator, "precheck", "span", "protocol.Regulator.precheck", None),
        (protocol.Regulator, "certify", "span", "protocol.Regulator.certify", None),
        (protocol, "serve_dealer", "span", "protocol.serve_dealer", None),
        (protocol, "encode_test_bundle", "span", "dealer.encode_test_bundle", None),
        (dealer, "decode_test_bundle", "span", "dealer.decode_test_bundle", None),
        (dealer.FscSession, "input", "span", "dealer.FscSession.input", None),
        (dealer.FscSession, "compute", "span", "dealer.FscSession.compute", None),
        (dealer, "certification_decision", "span", "dealer.certification_decision", None),
        (dealer, "decode_dataset", "span", "model.decode_dataset", samples_out),
        (dealer, "encode_dataset", "span", "model.encode_dataset", None),
        (protocol, "canonical_order", "span", "model.canonical_order", None),
        (dealer, "predict", "timed", "model.predict", None),
        (experiments, "predict", "timed", "model.predict", None),
        (dealer, "deserialize_model", "span", "model.deserialize_model", None),
        (protocol, "serialize_model", "span", "model.serialize_model", None),
        (model, "generate_planted", "span", "model.generate_planted", generated),
        (experiments, "generate_planted", "span", "model.generate_planted", generated),
        (faircert.fixedpoint, "dot", "count", "fixedpoint.dot", None),
        (faircert.prg.CounterPrg, "u64", "count", "prg.CounterPrg.u64", None),
        (model, "hash_u64", "count", "prg.hash_u64", None),
        (dealer, "augment_dataset", "span", "augmentor.augment_dataset", None),
        (faircert.augmentor, "augment", "count", "augmentor.augment", None),
        (dealer, "build_risk_table", "span", "fairness.build_risk_table", None),
        (experiments, "build_risk_table", "span", "fairness.build_risk_table", None),
        (experiments, "decide", "span", "fairness.decide", None),
        (faircert.fairness, "min_samples", "count", "fairness.min_samples", None),
        (dealer, "min_samples", "count", "fairness.min_samples", None),
        (protocol, "min_samples", "count", "fairness.min_samples", None),
        (dealer, "merkle_root", "span", "crypto.merkle_root", data_in),
        (crypto, "sign", "span", "crypto.sign", None),
        (protocol, "verify", "span", "crypto.verify", None),
        (crypto, "key_id", "count", "crypto.key_id", None),
        (protocol, "key_id", "count", "crypto.key_id", None),
        (experiments, "run_coverage", "span", "experiments.run_coverage", None),
    ]
    return table


class _HashlibProxy:
    """Stands in for the hashlib module inside faircert.prg, counting SHA3."""

    def __init__(self, sha3_256):
        self.sha3_256 = sha3_256

    def __getattr__(self, name):
        return getattr(hashlib, name)


class NullTracer:
    """What untraced runs use: attributing work to operations costs nothing."""

    def set_op(self, op) -> None:
        pass


class Tracer:
    """Per-thread span stacks and per-operation tallies, merged at the end."""

    def __init__(self):
        self.spans: list[tuple] = []  # (id, name, start_ns, end_ns, parent, op, thread)
        self.op_times: dict = {}  # op id -> (start_ns, end_ns)
        self._ids = itertools.count()
        self._local = threading.local()
        self._tallies: list[dict] = []  # one per thread: (op, name) -> [calls, ns, child_ns, amount]
        self._lock = threading.Lock()
        self._installed: list[tuple] = []

    def set_op(self, op) -> None:
        self._local.op = op

    def _thread_state(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.tally = {}
            with self._lock:
                self._tallies.append(local.tally)
        return local.stack, local.tally, getattr(local, "op", None)

    def _timed(self, name, fn, amount, keep_span):
        spans, ids = self.spans, self._ids

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack, tally, op = self._thread_state()
            sid = next(ids)
            frame = [sid, 0]  # id, time covered by children
            parent = stack[-1] if stack else None
            stack.append(frame)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                if parent is not None:
                    parent[1] += end - start
                entry = tally.get((op, name))
                if entry is None:
                    entry = tally[(op, name)] = [0, 0, 0, 0]
                entry[0] += 1
                entry[1] += end - start
                entry[2] += frame[1]
                if keep_span:
                    spans.append(
                        (sid, name, start, end, parent[0] if parent else None, op,
                         threading.current_thread().name)
                    )
            if amount is not None:
                entry[3] += amount(args, result)
            return result

        return wrapper

    def _counted(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            _stack, tally, op = self._thread_state()
            entry = tally.get((op, name))
            if entry is None:
                entry = tally[(op, name)] = [0, 0, 0, 0]
            entry[0] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self, faircert) -> None:
        for owner, attr, kind, name, amount in _wrap_table(faircert):
            original = vars(owner)[attr]
            if kind == "count":
                wrapped = self._counted(name, original)
            else:
                wrapped = self._timed(name, original, amount, keep_span=kind == "span")
            self._installed.append((owner, attr, original))
            setattr(owner, attr, wrapped)
        prg = faircert.prg
        self._installed.append((prg, "hashlib", prg.hashlib))
        prg.hashlib = _HashlibProxy(self._counted("prg.sha3", hashlib.sha3_256))

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    def record_op(self, op, start_ns: int, end_ns: int) -> None:
        self.op_times[op] = (start_ns, end_ns)

    def _merged(self) -> dict:
        merged: dict = {}
        for tally in list(self._tallies):
            for (op, name), (calls, ns, child, amount) in list(tally.items()):
                entry = merged.setdefault(op, {}).setdefault(name, [0, 0, 0, 0])
                entry[0] += calls
                entry[1] += ns
                entry[2] += child
                entry[3] += amount
        return merged

    def metrics(self, ops: list, setup_ops: list) -> dict:
        """Every per-layer metric, 0 where the workload never calls it."""
        merged = self._merged()

        def value(op_ids, name, quantity):
            if not op_ids:
                return 0.0
            calls, ns, child, amount = zip(
                *(merged.get(op, {}).get(name, (0, 0, 0, 0)) for op in op_ids)
            )
            if quantity == "ms":
                return statistics.median(ns) / 1e6
            if quantity == "self_ms":
                return statistics.median(n - c for n, c in zip(ns, child)) / 1e6
            if quantity == "calls":
                return sum(calls) / len(op_ids)
            return sum(amount) / len(op_ids)

        out = {}
        for metric, unit, name, quantity in LAYER_METRICS:
            out[metric] = {"value": value(ops, name, quantity), "unit": unit}
        for metric, unit, name, quantity in SETUP_METRICS:
            out[metric] = {"value": value(setup_ops, name, quantity), "unit": unit}
        return out

    def write(self, path: Path) -> None:
        """Spans, then per-operation tallies, as JSON lines."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for op, (start, end) in self.op_times.items():
                fh.write(json.dumps({"op": op, "start_ns": start, "end_ns": end}) + "\n")
            for sid, name, start, end, parent, op, thread in self.spans:
                fh.write(
                    json.dumps(
                        {"span": sid, "name": name, "start_ns": start, "end_ns": end,
                         "parent": parent, "op": op, "thread": thread}
                    )
                    + "\n"
                )
            for op, names in self._merged().items():
                for name, (calls, ns, child, amount) in names.items():
                    fh.write(
                        json.dumps(
                            {"tally": name, "op": op, "calls": calls, "ns": ns,
                             "child_ns": child, "amount": amount}
                        )
                        + "\n"
                    )
