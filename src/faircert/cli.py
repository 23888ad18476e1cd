"""Command-line interface.

argparse checks every input before a command runs; the fairness spec is
augmented exactly when --alpha is given. Exit codes: 0 success or accept, 2
reject / not fair, or a bad or missing flag (argparse's usage on stderr), 3
precondition failure, 4 protocol abort, or a peer that breaks the protocol
or hangs up (one line on stderr). Every command is deterministic given
--seed (default 0); CSV outputs are byte-stable.
"""

from __future__ import annotations

import argparse
import hashlib
import struct
import sys
from contextlib import ExitStack, closing
from dataclasses import replace
from fractions import Fraction

from . import fixedpoint as fx
from .augmentor import AugmentorConfig, augment_dataset
from .crypto import Certificate, keygen
from .dealer import FscSession, estimate_gates, estimate_gates_for_model
from .experiments import (
    augmentation_sweep,
    knn_attack_sweep,
    run_coverage,
    write_attack_csv,
    write_coverage_csv,
    write_sweep_csv,
)
from .fairness import (
    FairnessMetric,
    FairnessSpec,
    GapNotBelowThresholdError,
    min_samples,
    parse_micro,
)
from .model import (
    PlantedConfig,
    decode_dataset,
    deserialize_model,
    encode_dataset,
    generate_planted,
    planted_model,
    serialize_model,
    true_gaps,
)
from .prg import derive_key
from .protocol import (
    REASON_FSC_ABORT,
    REASON_NOT_FAIR,
    REASON_PRECHECK_FAILED,
    REASON_SIG_INVALID,
    REASON_SPEC_MISMATCH,
    AcceptedPrediction,
    CertFailure,
    ChannelClosed,
    Client,
    ProtocolError,
    Reject,
    Regulator,
    Server,
    accept_channel,
    connect_channel,
    open_listener,
    parse_endpoint,
    run_certification_local,
    run_inference_local,
    serve_dealer,
)

EXIT_OK = 0
EXIT_REJECT = 2
EXIT_PRECONDITION = 3
EXIT_ABORT = 4

_FAILURE_EXITS = {
    REASON_NOT_FAIR: EXIT_REJECT,
    REASON_SIG_INVALID: EXIT_REJECT,
    REASON_SPEC_MISMATCH: EXIT_REJECT,
    REASON_PRECHECK_FAILED: EXIT_PRECONDITION,
    REASON_FSC_ABORT: EXIT_ABORT,
}


def _seed_bytes(seed: int) -> bytes:
    return struct.pack("<Q", seed)


def _signing_seed(seed: int) -> bytes:
    return hashlib.sha3_256(_seed_bytes(seed) + b"/signing-key").digest()


def _typed(parse, each: bool = False):
    """An argparse type: parse the value, or each comma-separated part of it."""

    def convert(text: str):
        try:
            return tuple(map(parse, text.split(","))) if each else parse(text)
        except (ValueError, ZeroDivisionError) as exc:  # Fraction("1/0") divides by zero
            raise argparse.ArgumentTypeError(str(exc)) from None

    return convert


def _q16(text: str) -> int:
    """Decimal string to raw Q16.16, exact rounding."""
    return round(Fraction(text) * fx.ONE)


def _u64(text: str) -> int:
    value = int(text)
    if not 0 <= value < 1 << 64:
        raise ValueError(f"{value} does not lie in [0, 2**64)")
    return value


def _count(text: str) -> int:
    value = int(text)
    if value < 0:
        raise ValueError(f"{value} is negative")
    return value


_micro = _typed(parse_micro)
_micro_list = _typed(parse_micro, each=True)
_counts = _typed(_count, each=True)
_host_port = _typed(parse_endpoint)


def _write_out(path: str | None, write, rows) -> None:
    """write(fh, rows) to the file at path, or to stdout for None or "-"."""
    if path is None or path == "-":
        write(sys.stdout, rows)
        return
    with open(path, "w", newline="") as fh:
        write(fh, rows)


def _add_spec_flags(parser) -> None:
    parser.add_argument("--eps", type=_micro, default="0.1", help="tolerance, micro-unit decimal")
    parser.add_argument("--delta", type=_micro, default="0.05", help="confidence parameter")
    parser.add_argument("--alpha", type=_micro, help="augmented-mode tolerance; sets the mode")
    parser.add_argument("--metric", default="ore", choices=["ore", "eo", "dp"])


def _add_aug_flags(parser, seed_label: str) -> None:
    """The augmentor flags; main builds args.aug from them, its seed derived
    from --seed under seed_label."""
    parser.set_defaults(aug_label=seed_label)
    parser.add_argument("--aug-sigma", type=_typed(_q16), default="0.05",
                        help="noise scale, decimal")
    parser.add_argument("--mask-prob", type=_micro, default="0",
                        help="per-coordinate mask probability")
    parser.add_argument("--invoke-prob", type=_micro, default="1",
                        help="per-augmentation invoke probability")
    parser.add_argument("--degree", type=_micro, default="1",
                        help="scales the invoke probability")


# The flags each role reads, files included; a missing one is a usage error.
_ROLE_NEEDS = {
    ("certify", "local"): ("data", "model"),
    ("certify", "dealer"): ("listen",),
    ("certify", "regulator"): ("listen", "dealer", "data"),
    ("certify", "server"): ("connect", "dealer", "model"),
    ("infer", "local"): ("model", "cert", "features"),
    ("infer", "dealer"): ("listen",),
    ("infer", "server"): ("listen", "dealer", "model", "cert"),
    ("infer", "client"): ("connect", "dealer", "features"),
}


def _add_role_flags(parser, command: str) -> None:
    """--role, and the flags _ROLE_NEEDS names for both certify and infer."""
    roles = [role for cmd, role in _ROLE_NEEDS if cmd == command]
    parser.add_argument("--role", default="local", choices=roles)
    parser.add_argument("--model")
    parser.add_argument("--listen", type=_host_port, help="host:port to accept on")
    parser.add_argument("--connect", type=_host_port, help="host:port to dial")
    parser.add_argument("--dealer", type=_host_port, help="host:port of the dealer")


def cmd_bound(args) -> int:
    try:
        needed = min_samples(args.spec, args.efg, args.groups, args.labels, variant=args.variant)
    except GapNotBelowThresholdError as exc:
        print(f"GAP_NOT_BELOW_THRESHOLD: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    print(needed)
    return EXIT_OK


def cmd_gen_data(args) -> int:
    config = _load_config(args)
    dataset, _, gaps = generate_planted(config, args.m, group_counts=args.group_counts)
    with open(args.out, "wb") as fh:
        fh.write(encode_dataset(dataset))
    print(f"samples: {len(dataset.groups)}")
    print(f"true ore gap: {float(gaps.ore):.6f}")
    print(f"true eo gap: {float(gaps.eo):.6f}")
    print(f"true dp gap: {float(gaps.dp):.6f}")
    return EXIT_OK


def cmd_gen_model(args) -> int:
    config = _load_config(args)
    if args.rates:
        config = replace(config, error_rates=args.rates)
    model = planted_model(config)
    data = serialize_model(model)
    with open(args.out, "wb") as fh:
        fh.write(data)
    print(f"model bytes: {len(data)}")
    gaps = true_gaps(config)
    print(f"true ore gap: {float(gaps.ore):.6f}")
    return EXIT_OK


def _load_config(args) -> PlantedConfig:
    with open(args.config, "r", encoding="utf-8") as fh:
        config = PlantedConfig.from_json(fh.read())
    # --seed always has a value, so it always replaces the config's own seed.
    return replace(config, seed=derive_key(_seed_bytes(args.seed), "data"))


def _failure_exit(label: str, reason: str) -> int:
    print(f"{label}: {reason}")
    return _FAILURE_EXITS[reason]


def _load_server(model_path: str, cert_path: str | None = None) -> Server:
    """The server for the model file, holding the certificate file if given."""
    with open(model_path, "rb") as fh:
        server = Server(deserialize_model(fh.read()))
    if cert_path is not None:
        with open(cert_path, "rb") as fh:
            server.certificate = Certificate.from_bytes(fh.read())
    return server


def _connector(stack: ExitStack, endpoint: tuple[str, int]):
    """A channel factory that dials the endpoint; the stack closes every
    channel it opens."""
    return lambda: stack.enter_context(closing(connect_channel(*endpoint)))


def _acceptor(stack: ExitStack, endpoint: tuple[str, int]):
    """A channel factory that accepts at the endpoint, listening from now
    on; the stack closes the listener and every channel it accepts."""
    listener = stack.enter_context(closing(open_listener(*endpoint)))
    return lambda: stack.enter_context(closing(accept_channel(listener)))


def _serve_dealer(endpoint: tuple[str, int]) -> FscSession:
    """Listen at the endpoint, accept both parties and run one dealer
    session over their channels; all three sockets are closed either way."""
    with ExitStack() as stack:
        accept = _acceptor(stack, endpoint)
        return serve_dealer(accept(), accept())


def cmd_certify(args) -> int:
    if args.role == "dealer":
        session = _serve_dealer(args.listen)
        for line in session.transcript_lines():
            print(line)
        return EXIT_OK if session.abort_reason is None else EXIT_ABORT

    if args.role == "server":
        server = _load_server(args.model)
        with ExitStack() as stack:
            regulator_channel = _connector(stack, args.connect)()
            result = server.serve_certification(regulator_channel, _connector(stack, args.dealer))
    else:
        with open(args.data, "rb") as fh:
            dataset = decode_dataset(fh.read())
        aug = args.aug if args.spec.augmented else None
        keypair = keygen(_signing_seed(args.seed))
        regulator = Regulator(keypair, dataset, args.spec, aug)
        if args.vk_out:
            with open(args.vk_out, "wb") as fh:
                fh.write(keypair.verification_key)
        if args.role == "regulator":
            with ExitStack() as stack:
                result = regulator.certify(
                    _acceptor(stack, args.listen), _connector(stack, args.dealer)
                )
        else:  # in-process: all three endpoints locally
            result = run_certification_local(regulator, _load_server(args.model)).regulator_result

    if isinstance(result, CertFailure):
        return _failure_exit("failed", result.reason)
    action = "received" if args.role == "server" else "issued"
    print(f"certificate {action}: {result.model_digest.hex()}")
    if args.cert_out:
        with open(args.cert_out, "wb") as fh:
            fh.write(result.to_bytes())
    return EXIT_OK


def cmd_infer(args) -> int:
    if args.role == "dealer":
        session = _serve_dealer(args.listen)
        return EXIT_OK if session.abort_reason is None else EXIT_ABORT

    if args.role == "server":
        server = _load_server(args.model, args.cert)
        with ExitStack() as stack:
            client_channel = _acceptor(stack, args.listen)()
            result = server.serve_inference(client_channel, _connector(stack, args.dealer))
        if isinstance(result, Reject):
            return _failure_exit("client rejected", result.reason)
        print("inference served")
        return EXIT_OK

    if args.vk:
        with open(args.vk, "rb") as fh:
            vk = fh.read()
    else:
        vk = keygen(_signing_seed(args.seed)).verification_key
    try:
        client = Client(args.features, vk, args.spec)
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return EXIT_PRECONDITION

    if args.role == "client":
        with ExitStack() as stack:
            result = client.infer(_connector(stack, args.connect), _connector(stack, args.dealer))
    else:  # in-process
        result = run_inference_local(client, _load_server(args.model, args.cert)).client_result

    if isinstance(result, Reject):
        return _failure_exit("rejected", result.reason)
    assert isinstance(result, AcceptedPrediction)
    print(f"prediction: {result.label}")
    print(f"model digest: {result.model_digest.hex()}")
    return EXIT_OK


def cmd_estimate_gates(args) -> int:
    if args.model:
        with open(args.model, "rb") as fh:
            report = estimate_gates_for_model(deserialize_model(fh.read()))
    else:
        report = estimate_gates(args.model_bytes, args.weight_bits)
    for line in report.to_lines():
        print(line)
    return EXIT_OK


def cmd_experiment_coverage(args) -> int:
    config = _load_config(args)
    results = run_coverage(
        config, args.spec, args.trials, m=args.m, group_counts=args.group_counts
    )
    _write_out(args.out, write_coverage_csv, results)
    return EXIT_OK


def cmd_attack_knn(args) -> int:
    config = _load_config(args)
    fair_cfg = replace(config, error_rates=args.fair_rates)
    unfair_cfg = replace(config, error_rates=args.unfair_rates)
    fair = planted_model(fair_cfg)
    unfair = planted_model(unfair_cfg)
    ref_cfg = replace(config, seed=derive_key(config.seed, "reference"))
    reference, _, _ = generate_planted(ref_cfg, args.ref_size)
    reference = augment_dataset(args.aug, reference)
    eval_cfg = replace(unfair_cfg, seed=derive_key(config.seed, "eval"))
    eval_dataset, _, _ = generate_planted(eval_cfg, args.eval_size)
    points = knn_attack_sweep(fair, unfair, reference.features, eval_dataset, args.taus)
    _write_out(args.out, write_attack_csv, points)
    return EXIT_OK


def cmd_augment_sweep(args) -> int:
    config = _load_config(args)
    points = augmentation_sweep(config, args.m, args.aug, args.degrees)
    _write_out(args.out, write_sweep_csv, points)
    return EXIT_OK


def cmd_audit(args) -> int:
    # A canned honest certification over the in-process transport, printed
    # as the dealer's line-oriented transcript plus the delivery log.
    config = PlantedConfig(
        cell_weights=(
            (Fraction(1, 4), Fraction(1, 4)),
            (Fraction(1, 4), Fraction(1, 4)),
        ),
        error_rates=(Fraction(0), Fraction(0)),
        seed=derive_key(_seed_bytes(args.seed), "audit"),
    )
    spec = FairnessSpec(
        metric=FairnessMetric.ORE, epsilon=Fraction(1, 2), delta=Fraction(1, 5)
    )
    needed = min_samples(spec, Fraction(0), 2, 2)
    dataset, model, _ = generate_planted(config, 0, group_counts=(needed, needed))
    regulator = Regulator(keygen(_signing_seed(args.seed)), dataset, spec)
    run = run_certification_local(regulator, Server(model))
    assert run.session is not None
    lines = run.session.transcript_lines()
    lines.append("deliveries:")
    for entry in run.session.leakage_log:
        lines.append(f"  {entry.party} {entry.name} {entry.length}")
    if not any(e.party == "P1" for e in run.session.leakage_log):
        lines.append("  P1 (none)")
    text = "\n".join(lines)
    print(text)
    if args.out:
        with open(args.out, "w", encoding="ascii") as fh:
            fh.write(text + "\n")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="faircert",
        description="Certified group-fairness testing and private inference.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, **kwargs):
        # No prefix matching: an unknown flag is never read as a longer one it begins.
        p = sub.add_parser(name, allow_abbrev=False, **kwargs)
        p.set_defaults(fn=fn)
        p.add_argument("--seed", type=_typed(_u64), default=0, help="master seed (u64)")
        return p

    p = add("bound", cmd_bound, help="print the per-cell sample-count bound")
    p.add_argument("--eps", type=_micro, required=True)
    p.add_argument("--efg", type=_micro, required=True, help="observed or assumed empirical gap")
    p.add_argument("--delta", type=_micro, required=True)
    p.add_argument("--groups", type=int, required=True)
    p.add_argument("--labels", type=int, default=2)
    p.add_argument("--variant", default="union", choices=["union", "efficiency"])
    p.set_defaults(metric="ore", alpha=None)

    p = add("gen-data", cmd_gen_data, help="draw a planted test set to a file")
    p.add_argument("--config", required=True, help="planted-config JSON path")
    p.add_argument("--m", type=int, default=0)
    p.add_argument("--group-counts", type=_counts, help="exact per-group sizes, comma list")
    p.add_argument("--out", required=True)

    p = add("gen-model", cmd_gen_model, help="write the planted model's canonical bytes")
    p.add_argument("--config", required=True)
    p.add_argument("--rates", type=_micro_list, help="override per-group error rates")
    p.add_argument("--out", required=True)

    p = add("certify", cmd_certify, help="run the certification protocol")
    _add_spec_flags(p)
    _add_aug_flags(p, "augment")
    _add_role_flags(p, "certify")
    p.add_argument("--data")
    p.add_argument("--cert-out")
    p.add_argument("--vk-out")

    p = add("infer", cmd_infer, help="run the certified-inference protocol")
    _add_spec_flags(p)
    _add_role_flags(p, "infer")
    p.add_argument("--cert")
    p.add_argument("--vk", help="regulator verification key file")
    p.add_argument("--features", type=_typed(_q16, each=True), help="query vector, comma decimals")

    p = add("estimate-gates", cmd_estimate_gates, help="commitment/inference gate costs")
    p.add_argument("--model")
    p.add_argument("--model-bytes", type=int)
    p.add_argument("--weight-bits", type=int)

    p = add("experiment-coverage", cmd_experiment_coverage, help="repeated planted trials, CSV")
    p.add_argument("--config", required=True)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--m", type=int, default=0)
    p.add_argument("--group-counts", type=_counts)
    _add_spec_flags(p)
    p.add_argument("--out")

    p = add("attack-knn", cmd_attack_knn, help="nearest-neighbor routing attack sweep")
    p.add_argument("--config", required=True)
    p.add_argument("--fair-rates", type=_micro_list, required=True)
    p.add_argument("--unfair-rates", type=_micro_list, required=True)
    p.add_argument("--ref-size", type=int, default=400)
    p.add_argument("--eval-size", type=int, default=1000)
    p.add_argument("--taus", type=_typed(float, each=True), required=True,
                   help="comma list, inf allowed")
    _add_aug_flags(p, "attack-aug")
    p.add_argument("--out")

    p = add("augment-sweep", cmd_augment_sweep, help="accuracy/gap across degrees")
    p.add_argument("--config", required=True)
    p.add_argument("--m", type=int, default=2000)
    _add_aug_flags(p, "augment")
    p.add_argument("--degrees", type=_micro_list, default="0,0.25,0.5,0.75,1")
    p.add_argument("--out")

    p = add("audit", cmd_audit, help="print a compute-session audit transcript")
    p.add_argument("--out")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    flags = _ROLE_NEEDS.get((args.command, getattr(args, "role", None)), ())
    missing = [f"--{flag}" for flag in flags if getattr(args, flag) is None]
    if missing:
        parser.error(f"--role {args.role} needs {' and '.join(missing)}")
    if args.command == "estimate-gates" and not args.model:
        if args.model_bytes is None or args.weight_bits is None:
            parser.error("estimate-gates needs --model or both --model-bytes and --weight-bits")
    if hasattr(args, "eps"):  # bound, certify, infer and experiment-coverage
        try:
            args.spec = FairnessSpec(FairnessMetric(args.metric), args.eps, args.delta, args.alpha)
        except ValueError as exc:
            parser.error(str(exc))
    if hasattr(args, "aug_label"):  # certify, attack-knn and augment-sweep
        try:
            args.aug = AugmentorConfig(
                master_seed=derive_key(_seed_bytes(args.seed), args.aug_label),
                noise_sigma=args.aug_sigma,
                mask_prob=args.mask_prob,
                invoke_prob=args.invoke_prob,
                degree=args.degree,
            )
        except ValueError as exc:
            parser.error(str(exc))
    try:
        return args.fn(args)
    except (ProtocolError, ChannelClosed) as exc:  # a peer deviated or hung up
        print(f"aborted: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_ABORT


if __name__ == "__main__":
    sys.exit(main())
