"""The four workloads and the loop that runs one of them.

Every workload is a closed loop with one operation in flight. A run
attempts whole rounds of operations until the window ends, setting up
anew at even points of it (setup_s is the median of the set-ups), then
checks every recorded output against the reference computations in
reference.py. Inputs come only from the workload seed, so every set-up of
a run builds the same inputs.
"""

from __future__ import annotations

import functools
import hashlib
import math
import resource
import statistics
import time
from dataclasses import dataclass, replace
from fractions import Fraction as F
from pathlib import Path
from types import SimpleNamespace

import faircert
import faircert.experiments  # noqa: F401  (not imported by the package)
import reference
from harness import Sessions
from tracing import TRACED_OP_METRIC, NullTracer, Tracer


@dataclass(frozen=True)
class Size:
    """Input sizes; FULL is what the benchmark measures, TINY is for its tests."""

    private_per_group: int = 50_000  # 2 groups: 10^5 samples
    augmented_per_group: int = 6_000  # 4 groups x 3 labels: ~2000 per cell
    infer_queries: int = 128
    setup_reps: int = 3


FULL = Size()
TINY = Size(
    private_per_group=6_000,
    augmented_per_group=3_000,
    infer_queries=4,
    setup_reps=2,
)

QUARTER = ((F(1, 4), F(1, 4)), (F(1, 4), F(1, 4)))


class SetupFailed(RuntimeError):
    pass


@dataclass(frozen=True)
class Plant:
    """A planted model: exact one-hot decoder with per-group flip rates."""

    fair: bool
    config: object  # faircert.model.PlantedConfig
    model: object

    @property
    def rates(self) -> tuple:
        return self.config.error_rates

    @property
    def true_gap(self) -> F:
        """Analytic ORE and EO gap: the decoder is exact, so a group's error
        rate in every label is its flip rate."""
        return max(self.rates) - min(self.rates)

    @functools.cached_property
    def flip_seed(self) -> bytes:
        return reference.flip_seed(self.config.seed)

    def model_bytes(self) -> bytes:
        return reference.planted_model_bytes(
            self.config.dimension, self.config.num_labels, self.rates, self.flip_seed
        )

    def label(self, features, group: int) -> int:
        return reference.planted_label(
            features, self.config.num_labels, self.rates[group], self.flip_seed
        )


class Workload:
    name = ""
    round_len = 2  # operations alternate between two kinds

    def __init__(self, size: Size, seed: int, tracer):
        self.size = size
        self.seed = seed
        self.tracer = tracer

    def derive(self, label: str, n: int = 8) -> bytes:
        return hashlib.sha3_256(f"faircert-bench:{self.seed}:{label}".encode()).digest()[:n]

    def plant(self, weights, rates, label: str, noise_dims: int = 2) -> Plant:
        config = faircert.model.PlantedConfig(
            cell_weights=weights,
            error_rates=rates,
            seed=self.derive(label),
            noise_dims=noise_dims,
        )
        return Plant(
            fair=max(rates) == min(rates),
            config=config,
            model=faircert.model.planted_model(config),
        )

    def setup(self, op):
        raise NotImplementedError

    def op(self, state, i: int):
        """Run operation i; returns ((start_ns, end_ns) of the timed call, record)."""
        raise NotImplementedError

    def check(self, state, records: list) -> set:
        """Indices of operations whose output disagrees with the reference."""
        raise NotImplementedError

    def close(self, state) -> None:
        pass


class _Certify(Workload):
    """Shared by both certification workloads: a regulator certifying a
    stream of submitted models, alternating fair and unfair, against one
    fixed test set."""

    tcp = True
    metric = ""

    def inputs(self):
        """(dataset, fair plant, unfair plant, spec, augmentor config)."""
        raise NotImplementedError

    def setup(self, op):
        dataset, fair, unfair, spec, aug = self.inputs()
        keypair = faircert.crypto.keygen(self.derive("regulator-key", 32))
        return SimpleNamespace(
            plants=(fair, unfair),
            spec=spec,
            aug=aug,
            keypair=keypair,
            regulator=faircert.protocol.Regulator(keypair, dataset, spec, aug),
            servers=(faircert.protocol.Server(fair.model), faircert.protocol.Server(unfair.model)),
            sessions=Sessions(self.tracer, tcp=self.tcp),
        )

    def op(self, state, i):
        sessions, server = state.sessions, state.servers[i % 2]
        span, result, server_result, _session = sessions.run(
            i,
            lambda: state.regulator.certify(sessions.host_accept, sessions.main_to_dealer),
            lambda: server.serve_certification(sessions.host_connect(), sessions.server_to_dealer),
        )
        return span, (i % 2, result, server_result)

    def close(self, state):
        state.sessions.close()

    def expected_verdict_holds(self, state, plant: Plant) -> bool:
        """Re-tally the gap from the benchmark's own predictions: on the raw
        test set it must lie within a Hoeffding distance of the analytic
        gap, and the decision rule applied to the tally of the data the
        circuit evaluates must give the verdict the plant is built for."""
        spec, dataset = state.spec, state.regulator.dataset
        groups, labels = dataset.num_groups, dataset.num_labels

        def classes_of(samples):
            cells = [(s.group, s.label, plant.label(s.features, s.group)) for s in samples]
            m, err, pred = reference.tally(cells, groups, labels)
            counts = [c for row in m for c in row] if self.metric == "eo" else [sum(r) for r in m]
            return reference.rate_classes(self.metric, m, err, pred), counts

        raw, counts = classes_of(dataset.samples)
        gap = reference.gap(raw)
        if abs(float(gap - plant.true_gap)) > reference.hoeffding_distance(raw):
            return False
        if state.aug is not None:
            evaluated = faircert.augmentor.augment_dataset(state.aug, dataset).samples
            classes, counts = classes_of(evaluated)
            gap = reference.gap(classes)
        threshold = spec.threshold
        passes = gap < threshold and min(counts) >= reference.min_samples(
            threshold, gap, groups * labels, spec.delta
        )
        return passes == plant.fair

    def check(self, state, records):
        protocol = faircert.protocol
        spec = state.spec
        spec_bytes = reference.fairness_spec_bytes(self.metric, spec.epsilon, spec.delta, spec.alpha)
        vk = state.keypair.verification_key
        roots = [reference.merkle_root(p.model_bytes()) for p in state.plants]
        holds = [self.expected_verdict_holds(state, p) for p in state.plants]
        bad = set()
        for i, (which, result, server_result) in records:
            if not holds[which]:
                bad.add(i)
            elif state.plants[which].fair:
                ok = (
                    isinstance(result, faircert.crypto.Certificate)
                    and isinstance(server_result, faircert.crypto.Certificate)
                    and result.to_bytes() == server_result.to_bytes()
                    and reference.certificate_ok(result.to_bytes(), vk, roots[which], spec_bytes)
                )
                if not ok:
                    bad.add(i)
            elif not (
                isinstance(result, protocol.CertFailure)
                and isinstance(server_result, protocol.CertFailure)
                and result.reason == server_result.reason == protocol.REASON_NOT_FAIR
            ):
                bad.add(i)
        return bad


class CertifyPrivateTcp(_Certify):
    """10^5 samples, 2 groups x 2 labels, 4 features, ORE eps 0.1 delta 0.05,
    over TCP loopback. Fair plant 1/10, 1/10 (gap 0); unfair 1/20, 1/5
    (gap 0.15)."""

    name = "certify_private_tcp"
    metric = "ore"

    def inputs(self):
        n = self.size.private_per_group
        data = self.plant(QUARTER, (F(0), F(0)), "test-set")
        dataset = faircert.model.generate_planted(data.config, 0, group_counts=(n, n))[0]
        fair = self.plant(QUARTER, (F(1, 10), F(1, 10)), "fair-model")
        unfair = self.plant(QUARTER, (F(1, 20), F(1, 5)), "unfair-model")
        spec = faircert.fairness.FairnessSpec(
            faircert.fairness.FairnessMetric.ORE, epsilon=F(1, 10), delta=F(1, 20)
        )
        return dataset, fair, unfair, spec, None


class CertifyAugmentedLocal(_Certify):
    """~24k samples, 4 groups x 3 labels, 6 features, EO alpha = eps = 0.2,
    delta 0.05, on the in-process queue transport; augmentation sigma 0.05,
    mask 0.1, invoke 0.5. Fair plant all 1/10; unfair 1/20, 1/20, 1/20,
    7/20 (EO gap 0.3)."""

    name = "certify_augmented_local"
    metric = "eo"
    tcp = False

    def inputs(self):
        n = self.size.augmented_per_group
        weights = tuple((F(1, 12),) * 3 for _ in range(4))
        data = self.plant(weights, (F(0),) * 4, "test-set", noise_dims=3)
        dataset = faircert.model.generate_planted(data.config, 0, group_counts=(n,) * 4)[0]
        fair = self.plant(weights, (F(1, 10),) * 4, "fair-model", noise_dims=3)
        unfair = self.plant(weights, (F(1, 20),) * 3 + (F(7, 20),), "unfair-model", noise_dims=3)
        spec = faircert.fairness.FairnessSpec(
            faircert.fairness.FairnessMetric.EO, epsilon=F(1, 5), delta=F(1, 20), alpha=F(1, 5)
        )
        aug = faircert.augmentor.AugmentorConfig(
            master_seed=self.derive("augmentor"),
            noise_sigma=faircert.fixedpoint.from_float(0.05),
            mask_prob=F(1, 10),
            invoke_prob=F(1, 2),
        )
        return dataset, fair, unfair, spec, aug


class InferTcp(Workload):
    """Certified inference queries over TCP loopback to a wide planted model:
    784 features, 10 labels, 2 groups (31,446 model bytes), certified once
    during set-up under DP eps 0.4 delta 0.2. Queries cycle through a
    held-out planted set drawn with another seed."""

    name = "infer_tcp"
    round_len = 1
    labels = 10
    noise_dims = 774  # 784 features
    cert_per_group = 200

    def setup(self, op):
        n = self.cert_per_group
        weights = ((F(1, 20),) * self.labels,) * 2
        plant = self.plant(weights, (F(1, 10), F(1, 10)), "model", self.noise_dims)
        dataset = faircert.model.generate_planted(plant.config, 0, group_counts=(n, n))[0]
        held_out = replace(plant.config, seed=self.derive("queries"))
        queries = faircert.model.generate_planted(
            held_out, 0, group_counts=(self.size.infer_queries, 0)
        )[0]
        spec = faircert.fairness.FairnessSpec(
            faircert.fairness.FairnessMetric.DP, epsilon=F(2, 5), delta=F(1, 5)
        )
        keypair = faircert.crypto.keygen(self.derive("regulator-key", 32))
        regulator = faircert.protocol.Regulator(keypair, dataset, spec)
        server = faircert.protocol.Server(plant.model)
        sessions = Sessions(self.tracer, tcp=True)
        try:
            _span, cert, _server_cert, _session = sessions.run(
                op,
                lambda: regulator.certify(sessions.host_accept, sessions.main_to_dealer),
                lambda: server.serve_certification(
                    sessions.host_connect(), sessions.server_to_dealer
                ),
            )
            if not isinstance(cert, faircert.crypto.Certificate):
                raise SetupFailed(f"the wide model was not certified: {cert!r}")
        except BaseException:
            sessions.close()
            raise
        return SimpleNamespace(
            plant=plant,
            spec=spec,
            keypair=keypair,
            server=server,
            queries=tuple(s.features for s in queries.samples),
            sessions=sessions,
        )

    def op(self, state, i):
        sessions = state.sessions
        q = i % len(state.queries)
        client = faircert.protocol.Client(
            state.queries[q], state.keypair.verification_key, state.spec
        )
        span, result, server_result, _session = sessions.run(
            i,
            lambda: client.infer(sessions.host_connect, sessions.main_to_dealer),
            lambda: state.server.serve_inference(sessions.host_accept(), sessions.server_to_dealer),
        )
        return span, (q, result, server_result)

    def close(self, state):
        state.sessions.close()

    def check(self, state, records):
        root = reference.merkle_root(state.plant.model_bytes())
        spec = state.spec
        cert_ok = reference.certificate_ok(
            state.server.certificate.to_bytes(),
            state.keypair.verification_key,
            root,
            reference.fairness_spec_bytes("dp", spec.epsilon, spec.delta, None),
        )
        # A query carries no group; the served wrapper flips by group 0's rate.
        expected = {}
        bad = set()
        for i, (q, result, server_result) in records:
            if q not in expected:
                expected[q] = state.plant.label(state.queries[q], 0)
            ok = (
                cert_ok
                and isinstance(result, faircert.protocol.AcceptedPrediction)
                and result.label == expected[q]
                and result.model_digest == root
                and server_result is None
            )
            if not ok:
                bad.add(i)
        return bad


class Coverage(Workload):
    """One trial of experiments.run_coverage at the bound for eps 0.1,
    delta 0.05 (1016 samples per group), alternating the fair plant (rates
    0, 0) and the unfair plant (1/20, 1/5)."""

    name = "coverage"

    def setup(self, op):
        spec = faircert.fairness.FairnessSpec(
            faircert.fairness.FairnessMetric.ORE, epsilon=F(1, 10), delta=F(1, 20)
        )
        per_group = faircert.fairness.min_samples(spec, F(0), 2, 2)
        plants = (
            self.plant(QUARTER, (F(0), F(0)), "fair"),
            self.plant(QUARTER, (F(1, 20), F(1, 5)), "unfair"),
        )
        # Warm-up: one untimed trial of each plant.
        for plant in plants:
            faircert.experiments.run_coverage(
                replace(plant.config, seed=self.derive("warm-up")), spec, 1,
                group_counts=(per_group, per_group),
            )
        return SimpleNamespace(spec=spec, per_group=per_group, plants=plants)

    def op(self, state, i):
        plant = state.plants[i % 2]
        config = replace(plant.config, seed=self.derive(f"trial-{i}"))
        counts = (state.per_group, state.per_group)
        start = time.perf_counter_ns()
        (trial,) = faircert.experiments.run_coverage(config, state.spec, 1, group_counts=counts)
        end = time.perf_counter_ns()
        return (start, end), (i % 2, trial)

    def check(self, state, records):
        """Fair trials pass with an empirical gap of exactly 0; unfair trials
        are certified at most delta + 3 sigma of the time."""
        bad = set()
        delta = float(state.spec.delta)
        unfair = [(i, trial) for i, (which, trial) in records if which == 1]
        certified = [i for i, trial in unfair if trial.report.passed]
        if unfair:
            sigma = math.sqrt(delta * (1 - delta) / len(unfair))
            if len(certified) / len(unfair) > delta + 3 * sigma:
                bad.update(certified)
        for i, (which, trial) in records:
            plant = state.plants[which]
            if trial.true_gap != plant.true_gap:
                bad.add(i)
            elif plant.fair and not (trial.report.passed and trial.report.efg == 0):
                bad.add(i)
        return bad


WORKLOADS = {
    w.name: w for w in (CertifyPrivateTcp, CertifyAugmentedLocal, InferTcp, Coverage)
}


def _percentile(values: list, q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def run(name: str, seed: int, seconds: float, trace: bool, size: Size, out_dir: Path) -> dict:
    """One run of one workload; returns the result object the command prints,
    plus a "summary" entry with what does not go into it."""
    tracer = Tracer() if trace else NullTracer()
    if trace:
        tracer.install(faircert)
    workload = WORKLOADS[name](size, seed, tracer)
    setup_times, setup_ops = [], []
    times, records, errors = [], [], {}
    state = None

    def set_up():
        # The host's speed drifts over tens of seconds, so set-up is timed
        # at the start and again at even points of the window, not in a row.
        nonlocal state
        if state is not None:
            workload.close(state)
            state = None
        op = f"setup-{len(setup_times)}"
        setup_ops.append(op)
        tracer.set_op(op)
        start = time.perf_counter()
        state = workload.setup(op)
        setup_times.append(time.perf_counter() - start)

    try:
        set_up()
        window_start, paused = time.perf_counter(), 0.0
        i = 0
        while True:
            if i % workload.round_len == 0:
                elapsed = time.perf_counter() - window_start - paused
                if len(setup_times) < size.setup_reps and (
                    elapsed >= seconds * len(setup_times) / size.setup_reps
                ):
                    started = time.perf_counter()
                    set_up()
                    paused += time.perf_counter() - started
                    continue
                if i > 0 and elapsed >= seconds:
                    break
            tracer.set_op(i)
            try:
                (start_ns, end_ns), record = workload.op(state, i)
            except Exception as exc:  # the operation failed; count it
                errors[i] = repr(exc)
            else:
                times.append((end_ns - start_ns) / 1e6)
                records.append((i, record))
                if trace:
                    tracer.record_op(i, start_ns, end_ns)
            i += 1
    finally:
        if state is not None:
            workload.close(state)
        if trace:
            tracer.uninstall()
    if not times:
        raise RuntimeError(f"every operation failed, first: {next(iter(errors.values()))}")
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # before the checks
    disagreements = workload.check(state, records)
    summary = {
        "workload": name,
        "seed": seed,
        "ops": i,
        "errors": sorted(errors.items())[:3],
        "disagreements": sorted(disagreements)[:10],
        "setup_s": setup_times,
        "op_p50_ms": statistics.median(times),
    }
    if len(times) >= 100:  # below that a 90th percentile has no tail
        summary["op_p90_ms"] = _percentile(times, 90)
    if trace:
        metrics = tracer.metrics([op for op, _ in records], setup_ops)
        metrics[TRACED_OP_METRIC[0]] = {"value": statistics.fmean(times), "unit": TRACED_OP_METRIC[1]}
        trace_path = out_dir / f"trace-{name}-seed{seed}.jsonl"
        tracer.write(trace_path)
        summary["trace_file"] = str(trace_path)
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "op_mean_ms": {"value": statistics.fmean(times), "unit": "ms"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    return {
        "correct": not disagreements,
        "attempted": i,
        "failed": len(errors) + len(disagreements),
        "metrics": metrics,
        "summary": summary,
    }
