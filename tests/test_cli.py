import csv
import socket
import threading
from fractions import Fraction

import pytest
from conftest import NO_CIRCUIT, naming_circuit, rewriting_dealer_input

from faircert import cli, protocol
from faircert.cli import main
from faircert.crypto import Certificate, verify_certificate
from faircert.model import PlantedConfig, decode_dataset, deserialize_model
from faircert.protocol import (
    FRAME_CERT_REQUEST,
    ROLE_REGULATOR,
    ChannelClosed,
    Frame,
    Server,
    accept_channel,
    exchange_hello,
    open_listener,
)


@pytest.fixture
def config_path(tmp_path):
    config = PlantedConfig(
        cell_weights=(
            (Fraction(1, 4), Fraction(1, 4)),
            (Fraction(1, 4), Fraction(1, 4)),
        ),
        error_rates=(Fraction(0), Fraction(0)),
        seed=bytes(8),
    )
    path = tmp_path / "config.json"
    path.write_text(config.to_json())
    return str(path)


def lines_of(capsys):
    return capsys.readouterr().out.splitlines()


# --- bound ---------------------------------------------------------------------


def test_bound(capsys):
    code = main(
        ["bound", "--eps", "0.1", "--efg", "0.05", "--delta", "0.05", "--groups", "2"]
    )
    assert code == 0
    assert lines_of(capsys) == ["4061"]


def test_bound_zero_gap(capsys):
    code = main(
        ["bound", "--eps", "0.1", "--efg", "0", "--delta", "0.05", "--groups", "2"]
    )
    assert code == 0
    assert lines_of(capsys) == ["1016"]


def test_bound_efficiency_variant(capsys):
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
    assert code == 0
    assert lines_of(capsys) == ["6814"]


def test_bound_rejects_gap_at_threshold(capsys):
    code = main(
        ["bound", "--eps", "0.1", "--efg", "0.1", "--delta", "0.05", "--groups", "2"]
    )
    assert code == 3
    assert "GAP_NOT_BELOW_THRESHOLD" in capsys.readouterr().err


# --- data and model generation ----------------------------------------------------


def test_gen_data_writes_decodable_file(tmp_path, config_path, capsys):
    out = tmp_path / "data.bin"
    code = main(
        [
            "gen-data",
            "--config", config_path,
            "--group-counts", "30,30",
            "--out", str(out),
            "--seed", "7",
        ]
    )
    assert code == 0
    dataset = decode_dataset(out.read_bytes())
    assert len(dataset.samples) == 60
    assert sorted({s.group for s in dataset.samples}) == [0, 1]
    out_lines = lines_of(capsys)
    assert out_lines[0] == "samples: 60"
    assert "true dp gap: 0.000000" in out_lines


def test_gen_model_writes_canonical_bytes(tmp_path, config_path, capsys):
    out = tmp_path / "model.bin"
    code = main(["gen-model", "--config", config_path, "--out", str(out), "--seed", "7"])
    assert code == 0
    model = deserialize_model(out.read_bytes())
    assert model.dimension == 4
    assert lines_of(capsys)[0] == f"model bytes: {len(out.read_bytes())}"


def test_gen_data_is_seed_deterministic(tmp_path, config_path):
    blobs = []
    for name in ("a.bin", "b.bin"):
        out = tmp_path / name
        main(
            [
                "gen-data",
                "--config", config_path,
                "--group-counts", "20,20",
                "--out", str(out),
                "--seed", "11",
            ]
        )
        blobs.append(out.read_bytes())
    assert blobs[0] == blobs[1]


# --- certification and inference over the in-process transport -----------------------


def certified_setup(tmp_path, config_path, capsys, *flags, group_counts="30,30"):
    """gen-data + gen-model + certify, given more certify flags if any;
    returns the artifact paths."""
    data, model = tmp_path / "data.bin", tmp_path / "model.bin"
    cert, vk = tmp_path / "cert.bin", tmp_path / "vk.bin"
    assert main(
        [
            "gen-data",
            "--config", config_path,
            "--group-counts", group_counts,
            "--out", str(data),
            "--seed", "5",
        ]
    ) == 0
    assert main(
        ["gen-model", "--config", config_path, "--out", str(model), "--seed", "5"]
    ) == 0
    code = main(
        [
            "certify",
            "--eps", "0.5",
            "--delta", "0.2",
            "--data", str(data),
            "--model", str(model),
            "--cert-out", str(cert),
            "--vk-out", str(vk),
            "--seed", "5",
            *flags,
        ]
    )
    assert code == 0
    return data, model, cert, vk


def test_certify_local_issues_certificate(tmp_path, config_path, capsys):
    _, _, cert_path, vk_path = certified_setup(tmp_path, config_path, capsys)
    out = capsys.readouterr().out
    assert "certificate issued: " in out
    vk = vk_path.read_bytes()
    assert len(vk) == 32
    cert = Certificate.from_bytes(cert_path.read_bytes())
    assert verify_certificate(vk, cert)
    assert cert.model_digest.hex() in out


def test_certify_not_fair_exits_2(tmp_path, config_path, capsys):
    data, model = tmp_path / "data.bin", tmp_path / "model.bin"
    main(
        [
            "gen-data",
            "--config", config_path,
            "--group-counts", "200,200",
            "--out", str(data),
            "--seed", "5",
        ]
    )
    main(
        [
            "gen-model",
            "--config", config_path,
            "--rates", "0,0.45",
            "--out", str(model),
            "--seed", "5",
        ]
    )
    code = main(
        [
            "certify",
            "--eps", "0.2",
            "--delta", "0.2",
            "--data", str(data),
            "--model", str(model),
            "--seed", "5",
        ]
    )
    assert code == 2
    assert "failed: NOT_FAIR" in capsys.readouterr().out


def test_certify_undersampled_exits_3(tmp_path, config_path, capsys):
    data, model = tmp_path / "data.bin", tmp_path / "model.bin"
    main(
        [
            "gen-data",
            "--config", config_path,
            "--group-counts", "10,10",
            "--out", str(data),
            "--seed", "5",
        ]
    )
    main(["gen-model", "--config", config_path, "--out", str(model), "--seed", "5"])
    code = main(
        [
            "certify",
            "--eps", "0.5",
            "--delta", "0.2",
            "--data", str(data),
            "--model", str(model),
            "--seed", "5",
        ]
    )
    assert code == 3
    assert "failed: PRECHECK_FAILED" in capsys.readouterr().out


def test_alpha_alone_certifies_and_infers_in_augmented_mode(tmp_path, config_path, capsys):
    # 119 per group meets alpha = 0.25 at delta = 0.2
    _, model, cert, vk = certified_setup(
        tmp_path, config_path, capsys, "--alpha", "0.25", "--aug-sigma", "0.05",
        group_counts="120,120",
    )
    spec = Certificate.from_bytes(cert.read_bytes()).spec
    assert spec.alpha == Fraction(1, 4)
    assert spec.fairness_string == "ore-augmented"
    capsys.readouterr()
    query = [
        "infer", "--eps", "0.5", "--delta", "0.2", "--model", str(model),
        "--cert", str(cert), "--vk", str(vk), "--features", "0,1,0,0",
    ]
    assert main([*query, "--alpha", "0.25"]) == 0
    assert lines_of(capsys)[0] == "prediction: 1"
    assert main(query) == 2
    assert "rejected: SPEC_MISMATCH" in capsys.readouterr().out


def test_infer_local_accepts(tmp_path, config_path, capsys):
    _, model, cert, vk = certified_setup(tmp_path, config_path, capsys)
    capsys.readouterr()
    code = main(
        [
            "infer",
            "--eps", "0.5",
            "--delta", "0.2",
            "--model", str(model),
            "--cert", str(cert),
            "--vk", str(vk),
            "--features", "0,1,0,0",
            "--seed", "5",
        ]
    )
    assert code == 0
    out_lines = lines_of(capsys)
    assert out_lines[0] == "prediction: 1"
    assert out_lines[1].startswith("model digest: ")


def test_infer_spec_mismatch_exits_2(tmp_path, config_path, capsys):
    _, model, cert, vk = certified_setup(tmp_path, config_path, capsys)
    capsys.readouterr()
    code = main(
        [
            "infer",
            "--eps", "0.4",
            "--delta", "0.2",
            "--model", str(model),
            "--cert", str(cert),
            "--vk", str(vk),
            "--features", "0,1,0,0",
            "--seed", "5",
        ]
    )
    assert code == 2
    assert "rejected: SPEC_MISMATCH" in capsys.readouterr().out


def test_infer_wrong_key_exits_2(tmp_path, config_path, capsys):
    _, model, cert, _ = certified_setup(tmp_path, config_path, capsys)
    capsys.readouterr()
    code = main(
        [
            "infer",
            "--eps", "0.5",
            "--delta", "0.2",
            "--model", str(model),
            "--cert", str(cert),
            "--features", "0,1,0,0",
            "--seed", "6",  # derives a different regulator key
        ]
    )
    assert code == 2
    assert "rejected: SIG_INVALID" in capsys.readouterr().out


def test_infer_refuses_a_feature_outside_int32_before_connecting(monkeypatch, capsys):
    dialled = []
    monkeypatch.setattr(cli, "connect_channel", lambda *args: dialled.append(args))
    code = main(
        [
            "infer", "--role", "client",
            "--connect", "127.0.0.1:9", "--dealer", "127.0.0.1:9",
            "--eps", "0.5", "--delta", "0.2", "--seed", "5",
            "--features", "32768,0,0,0",  # 2**31 in Q16.16
        ]
    )
    assert code == 3
    assert dialled == []
    assert "feature outside the signed 32-bit range" in capsys.readouterr().err


# --- certification and inference over TCP, one thread per role ------------------------


def free_endpoint():
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return f"127.0.0.1:{sock.getsockname()[1]}"


def run_roles(*argvs):
    """main(argv) for each argv on its own thread; each one's exit code, or
    the exception it raised."""
    outcomes = [None] * len(argvs)

    def run(i, argv):
        try:
            outcomes[i] = main(argv)
        except BaseException as exc:  # reported by the assertion on outcomes
            outcomes[i] = exc

    threads = [threading.Thread(target=run, args=pair, daemon=True) for pair in enumerate(argvs)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
        assert not thread.is_alive()
    return outcomes


def test_certify_and_infer_over_tcp(tmp_path, config_path, capsys):
    # Private mode, then augmented mode, where alpha 0.25 at delta 0.2 needs
    # 119 a group: either way the three roles issue the local certificate.
    cases = (("private", (), "30,30"), ("augmented", ("--alpha", "0.25"), "120,120"))
    for mode, flags, counts in cases:
        (tmp_path / mode).mkdir()
        certify_and_infer_over_tcp(tmp_path / mode, config_path, capsys, flags, counts)


def certify_and_infer_over_tcp(tmp_path, config_path, capsys, flags, group_counts):
    data, model, local_cert, vk = certified_setup(
        tmp_path, config_path, capsys, *flags, group_counts=group_counts
    )
    capsys.readouterr()
    spec = ["--eps", "0.5", "--delta", "0.2", "--seed", "5", *flags]
    issued, received = tmp_path / "issued.bin", tmp_path / "received.bin"
    dealer, host = free_endpoint(), free_endpoint()
    assert run_roles(
        ["certify", "--role", "dealer", "--listen", dealer, *spec],
        ["certify", "--role", "regulator", "--listen", host, "--dealer", dealer,
         "--data", str(data), "--cert-out", str(issued), *spec],
        ["certify", "--role", "server", "--connect", host, "--dealer", dealer,
         "--model", str(model), "--cert-out", str(received), *spec],
    ) == [0, 0, 0]
    cert_bytes = issued.read_bytes()
    assert received.read_bytes() == cert_bytes == local_cert.read_bytes()
    assert verify_certificate(vk.read_bytes(), Certificate.from_bytes(cert_bytes))
    out = capsys.readouterr().out
    digest = Certificate.from_bytes(cert_bytes).model_digest.hex()
    assert f"certificate issued: {digest}" in out
    assert f"certificate received: {digest}" in out

    dealer, host = free_endpoint(), free_endpoint()
    assert run_roles(
        ["infer", "--role", "dealer", "--listen", dealer, *spec],
        ["infer", "--role", "server", "--listen", host, "--dealer", dealer,
         "--model", str(model), "--cert", str(received), *spec],
        ["infer", "--role", "client", "--connect", host, "--dealer", dealer,
         "--vk", str(vk), "--features", "0,1,0,0", *spec],
    ) == [0, 0, 0]
    out = lines_of(capsys)
    assert "prediction: 1" in out
    assert f"model digest: {digest}" in out
    assert "inference served" in out


def test_certify_over_tcp_not_fair_exits_2_on_both_parties(tmp_path, config_path, capsys):
    data, model = tmp_path / "data.bin", tmp_path / "model.bin"
    main(["gen-data", "--config", config_path, "--group-counts", "200,200",
          "--out", str(data), "--seed", "5"])
    main(["gen-model", "--config", config_path, "--rates", "0,0.45",
          "--out", str(model), "--seed", "5"])
    capsys.readouterr()
    spec = ["--eps", "0.2", "--delta", "0.2", "--seed", "5"]
    dealer, host = free_endpoint(), free_endpoint()
    assert run_roles(
        ["certify", "--role", "dealer", "--listen", dealer, *spec],
        ["certify", "--role", "regulator", "--listen", host, "--dealer", dealer,
         "--data", str(data), *spec],
        ["certify", "--role", "server", "--connect", host, "--dealer", dealer,
         "--model", str(model), *spec],
    ) == [0, 2, 2]
    assert lines_of(capsys).count("failed: NOT_FAIR") == 2


def certify_over_tcp_exits_4_on_every_role(data, model, capsys):
    """Run the three TCP certify roles with a deviating server already
    patched in: every role exits 4 and the dealer's transcript ends with its
    abort after the two inputs."""
    spec = ["--eps", "0.5", "--delta", "0.2", "--seed", "5"]
    dealer, host = free_endpoint(), free_endpoint()
    assert run_roles(
        ["certify", "--role", "dealer", "--listen", dealer, *spec],
        ["certify", "--role", "regulator", "--listen", host, "--dealer", dealer,
         "--data", str(data), *spec],
        ["certify", "--role", "server", "--connect", host, "--dealer", dealer,
         "--model", str(model), *spec],
    ) == [4, 4, 4]
    out = lines_of(capsys)
    assert out.count("failed: FSC_ABORT") == 2
    assert [line.split()[:3] for line in out if " F " in line] == [["2", "F", "abort"]]


def test_certify_over_tcp_wrong_circuit_exits_4_on_every_role(
    tmp_path, config_path, capsys, monkeypatch
):
    data, model, _, _ = certified_setup(tmp_path, config_path, capsys)
    capsys.readouterr()
    naming_circuit(monkeypatch, Server, "serve_certification", 7)
    certify_over_tcp_exits_4_on_every_role(data, model, capsys)


def test_certify_over_tcp_empty_dealer_input_exits_4_on_every_role(
    tmp_path, config_path, capsys, monkeypatch
):
    data, model, _, _ = certified_setup(tmp_path, config_path, capsys)
    capsys.readouterr()
    rewriting_dealer_input(monkeypatch, Server, "serve_certification", NO_CIRCUIT["empty"])
    certify_over_tcp_exits_4_on_every_role(data, model, capsys)


# What a deviating regulator sends the server after the hellos, and the
# one line the server role then prints on stderr.
DEVIATIONS = {
    "truncated-request": (
        [Frame(FRAME_CERT_REQUEST, b"\x00\x01")],
        "aborted: ProtocolError: certification request spec: truncated spec encoding",
    ),
    "hang-up": ([], "aborted: ChannelClosed: peer closed the connection"),
}


@pytest.mark.parametrize("frames, line", DEVIATIONS.values(), ids=DEVIATIONS.keys())
def test_certify_server_facing_a_deviating_regulator_exits_4(
    tmp_path, config_path, capsys, frames, line
):
    model = tmp_path / "model.bin"
    assert main(["gen-model", "--config", config_path, "--out", str(model)]) == 0
    capsys.readouterr()
    listener = open_listener("127.0.0.1", 0)

    def regulator():
        chan = accept_channel(listener, 10.0)
        exchange_hello(chan, ROLE_REGULATOR)
        for frame in frames:
            chan.send_frame(frame)
        if frames:
            try:  # until the server hangs up, so no frame is lost to our close
                chan.recv_frame()
            except ChannelClosed:
                pass
        chan.close()

    thread = threading.Thread(target=regulator, daemon=True)
    thread.start()
    try:
        code = main(["certify", "--role", "server", "--model", str(model),
                     "--connect", f"127.0.0.1:{listener.getsockname()[1]}",
                     "--dealer", "127.0.0.1:9"])
        thread.join(timeout=10)
    finally:
        listener.close()
    assert not thread.is_alive()
    assert code == 4
    assert capsys.readouterr().err.splitlines() == [line]


def test_certify_server_facing_a_closed_port_exits_4(tmp_path, config_path, capsys, monkeypatch):
    model = tmp_path / "model.bin"
    assert main(["gen-model", "--config", config_path, "--out", str(model)]) == 0
    capsys.readouterr()
    monkeypatch.setattr(protocol, "CONNECT_RETRY_S", 0.2)
    closed = free_endpoint()  # bound once, then released: nothing listens there
    code = main(["certify", "--role", "server", "--model", str(model),
                 "--connect", closed, "--dealer", closed])
    assert code == 4
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith(f"aborted: ChannelClosed: cannot reach {closed}: ")


def test_certify_dealer_no_party_connects_exits_4(capsys, monkeypatch):
    monkeypatch.setattr(cli, "accept_channel", lambda listener: accept_channel(listener, 0.2))
    code = main(["certify", "--role", "dealer", "--listen", "127.0.0.1:0"])
    assert code == 4
    assert capsys.readouterr().err.splitlines() == [
        "aborted: ProtocolError: timed out waiting for a peer to connect"
    ]


@pytest.mark.parametrize(
    "argv, line",
    [
        (["gen-data", "--config", "{missing}", "--out", "{out}"], "FileNotFoundError"),
        (["gen-data", "--config", "{no_rates}", "--out", "{out}"], "KeyError: 'error_rates'"),
        (["certify", "--data", "{junk}", "--model", "{model}"],
         "MalformedDatasetError: bad dataset magic"),
        (["certify", "--data", "{data}", "--model", "{junk}"],
         "MalformedModelError: bad model magic"),
        (["estimate-gates", "--model", "{junk}"], "MalformedModelError: bad model magic"),
        (["infer", "--model", "{model}", "--cert", "{junk}", "--features", "0"],
         "MalformedCertificateError: bad certificate magic"),
        (["infer", "--model", "{model}", "--cert", "{cert}", "--vk", "{junk}", "--features", "0"],
         "verification key must be 32 bytes"),
    ],
    ids=("config-missing", "config-without-rates", "data-junk", "model-junk",
         "estimate-gates-model-junk", "cert-junk", "vk-junk"),
)
def test_a_bad_input_file_exits_3_with_one_line(tmp_path, config_path, capsys, argv, line):
    data, model, cert, _ = certified_setup(tmp_path, config_path, capsys)
    no_rates, junk = tmp_path / "no-rates.json", tmp_path / "junk.bin"
    no_rates.write_text('{"cell_weights": [["1/2", "1/2"]], "seed": "0000000000000000"}')
    junk.write_bytes(b"not a faircert file")
    paths = dict(missing=tmp_path / "missing.json", no_rates=no_rates, junk=junk,
                 data=data, model=model, cert=cert, out=tmp_path / "out.bin")
    capsys.readouterr()
    assert main([arg.format(**paths) for arg in argv]) == 3
    [err] = capsys.readouterr().err.splitlines()
    assert line in err


BOUND = ["--efg", "0", "--delta", "0.05", "--groups", "2"]
DEALER = ["--dealer", "127.0.0.1:9"]
KNN = ["attack-knn", "--config", "{config}", "--unfair-rates", "0,0.1"]


@pytest.mark.parametrize(
    "argv, message",
    [
        (["certify", "--role", "dealer", "--listen", "127.0.0.1:70000"], "port up to 65535"),
        (["certify", "--role", "dealer", "--listen", "127.0.0.1:abc"], "must be host:port"),
        (["certify", "--role", "dealer"], "--role dealer needs --listen"),
        (["bound", "--eps", "abc", *BOUND], "--eps: Invalid literal for Fraction: 'abc'"),
        (["bound", "--eps", "0.1234567", *BOUND], "not representable in micro-units"),
        (["bound", "--eps", "1.5", *BOUND], "epsilon must lie strictly between 0 and 1"),
        (["bound", "--eps", "1/0", *BOUND], "--eps: Fraction(1, 0)"),
        (["certify", "--eps", "2", "--data", "D", "--model", "M"], "epsilon must lie strictly"),
        (["infer", "--model", "M", "--cert", "C", "--features", "1,x"],
         "--features: Invalid literal for Fraction: 'x'"),
        (["infer", "--model", "M", "--cert", "C"], "--role local needs --features"),
        (["certify"], "--role local needs --data and --model"),
        (["certify", "--role", "server", "--connect", "127.0.0.1:9", *DEALER],
         "--role server needs --model"),
        (["estimate-gates"], "needs --model or both --model-bytes and --weight-bits"),
        (["infer", "--role", "server", "--listen", "127.0.0.1:0", *DEALER, "--model", "M"],
         "--role server needs --cert"),
        (["certify", "--mode", "augmented", "--alpha", "0.25", "--data", "D", "--model", "M"],
         "unrecognized arguments: --mode augmented"),
        (["audit", "--seed", "-1"], "--seed: -1 does not lie in [0, 2**64)"),
        (["certify", "--alpha", "0.25", "--mask-prob", "2", "--data", "D", "--model", "M"],
         "mask_prob must lie in [0, 1]"),
        (["augment-sweep", "--config", "C", "--invoke-prob", "1.5"],
         "invoke_prob must lie in [0, 1]"),
        (["attack-knn", "--config", "C", "--fair-rates", "0,0", "--unfair-rates", "0,0",
          "--taus", "1", "--degree", "2"], "degree must lie in [0, 1]"),
        (["certify", "--alpha", "0.25", "--aug-sigma", "-0.5", "--data", "D", "--model", "M"],
         "noise_sigma must be a nonnegative"),
        (["gen-data", "--config", "C", "--group-counts", "5,-1", "--out", "O"],
         "--group-counts: -1 is negative"),
        (["gen-model", "--config", "{config}", "--rates", "0.1", "--out", "{out}"],
         "--rates: one error rate per group required"),
        (["gen-model", "--config", "{config}", "--rates", "0.1,1", "--out", "{out}"],
         "--rates: error rates must lie in [0, 1)"),
        (["gen-data", "--config", "{config}", "--group-counts", "5", "--out", "{out}"],
         "--group-counts: one count per group required"),
        (["gen-data", "--config", "C", "--m", "-3", "--out", "O"], "--m: -3 is negative"),
        (["experiment-coverage", "--config", "C", "--trials", "0"], "--trials: 0 is not positive"),
        (["augment-sweep", "--config", "C", "--m", "0"], "--m: 0 is not positive"),
        (["augment-sweep", "--config", "{config}", "--m", "1"],
         "--m: a compared cell has no samples"),
        ([*KNN, "--fair-rates", "0.1", "--taus", "1"],
         "--fair-rates: one error rate per group required"),
        ([*KNN, "--fair-rates", "0,0", "--taus", "0,-1"], "--taus: -1 is not a nonnegative"),
        ([*KNN, "--fair-rates", "0,0", "--taus", "1e200"], "--taus: 1e200 is too large"),
        ([*KNN, "--fair-rates", "0,0", "--taus", "1", "--ref-size", "0"],
         "--ref-size: 0 is not positive"),
        (["bound", "--eps", "0.1", "--efg", "0", "--delta", "0.05", "--groups", "0"],
         "--groups: 0 is not positive"),
        (["bound", "--eps", "0.1", *BOUND, "--labels", "0"], "--labels: 0 is not positive"),
        (["estimate-gates", "--model-bytes", "0", "--weight-bits", "8"],
         "--model-bytes: 0 is not positive"),
    ],
    ids=(
        "port-too-large", "port-not-a-number", "missing",
        "eps-not-a-number", "eps-off-the-micro-grid", "eps-above-one", "eps-divides-by-zero",
        "certify-eps-above-one", "feature-not-a-number", "infer-local-without-features",
        "certify-local-without-files", "certify-server-without-model",
        "estimate-gates-without-sizes", "infer-server-without-cert", "mode-is-gone",
        "seed-negative", "mask-prob-above-one", "invoke-prob-above-one", "degree-above-one",
        "aug-sigma-negative", "group-count-negative",
        "rates-one-short", "rate-of-one", "group-counts-one-short", "m-negative",
        "trials-zero", "sweep-m-zero", "sweep-m-leaves-a-group-empty", "fair-rates-one-short",
        "tau-negative", "tau-too-large", "ref-size-zero", "groups-zero", "labels-zero",
        "model-bytes-zero",
    ),
)
def test_a_bad_endpoint_is_a_usage_error(argv, message, tmp_path, config_path, capsys):
    """Every flag, not only endpoints: a value that does not parse, lies out
    of range or disagrees with the config file exits 2 with one stderr line."""
    paths = dict(config=config_path, out=tmp_path / "out.bin")
    with pytest.raises(SystemExit) as exit_info:
        main([arg.format(**paths) for arg in argv])
    assert exit_info.value.code == 2
    [line] = capsys.readouterr().err.splitlines()
    assert message in line

# --- gate estimates -----------------------------------------------------------------


def test_estimate_gates_matched_counts(capsys):
    code = main(["estimate-gates", "--model-bytes", "1000", "--weight-bits", "8000"])
    assert code == 0
    out = capsys.readouterr().out
    assert "0.2513" in out


def test_estimate_gates_zero_weight_bits(capsys):
    code = main(["estimate-gates", "--model-bytes", "10", "--weight-bits", "0"])
    assert code == 0
    assert "n/a" in capsys.readouterr().out


# --- experiment commands --------------------------------------------------------------


def test_coverage_csv_is_byte_stable(tmp_path, config_path):
    outs = []
    for name in ("c1.csv", "c2.csv"):
        out = tmp_path / name
        code = main(
            [
                "experiment-coverage",
                "--config", config_path,
                "--trials", "3",
                "--group-counts", "40,40",
                "--eps", "0.5",
                "--delta", "0.2",
                "--out", str(out),
                "--seed", "9",
            ]
        )
        assert code == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
    rows = list(csv.reader(outs[0].decode().splitlines()))
    assert rows[0] == ["trial", "true_gap", "efg", "decision"]
    assert rows[-1][0] == "summary"
    assert len(rows) == 5  # header + 3 trials + summary
    assert all(row[3] == "pass" for row in rows[1:4])


def test_augment_sweep_csv(tmp_path, config_path):
    out = tmp_path / "sweep.csv"
    code = main(
        [
            "augment-sweep",
            "--config", config_path,
            "--m", "200",
            "--degrees", "0,1",
            "--aug-sigma", "0.2",
            "--invoke-prob", "0.5",
            "--out", str(out),
            "--seed", "3",
        ]
    )
    assert code == 0
    rows = list(csv.reader(out.read_text().splitlines()))
    assert rows[0] == ["degree", "accuracy", "efg"]
    assert len(rows) == 3
    assert [row[0] for row in rows[1:]] == ["0.000000", "1.000000"]


def test_attack_knn_csv(tmp_path, config_path):
    args = [
        "attack-knn",
        "--config", config_path,
        "--fair-rates", "0.15,0.15",
        "--unfair-rates", "0.02,0.25",
        "--ref-size", "50",
        "--eval-size", "100",
        "--taus", "0,inf",
        "--seed", "13",
    ]
    outs = []
    for name in ("a1.csv", "a2.csv"):
        out = tmp_path / name
        assert main(args + ["--out", str(out)]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
    rows = list(csv.reader(outs[0].decode().splitlines()))
    assert rows[0] == ["tau", "accuracy", "efg", "routed_unfair_fraction"]
    assert [row[0] for row in rows[1:]] == ["0", "inf"]
    # tau=0 matches nothing (route unfair); tau=inf matches everything (route fair)
    assert rows[1][3] == "1.000000"
    assert rows[2][3] == "0.000000"


# --- audit -----------------------------------------------------------------------------


def test_audit_transcript(tmp_path, capsys):
    out = tmp_path / "audit.txt"
    code = main(["audit", "--seed", "2", "--out", str(out)])
    assert code == 0
    text = capsys.readouterr().out
    assert "deliveries:" in text
    assert "P2 fair_bit 1" in text
    assert "P2 model_digest 32" in text
    assert "P1 (none)" in text
    assert out.read_text().strip() == text.strip()
