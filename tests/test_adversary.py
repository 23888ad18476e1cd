"""A deviating server in augmented mode, on both links.

The augmentation seed must never reach the server, and the server's model
must be fixed before anything that depends on the seed leaves the
regulator: otherwise a server that knows the augmented test set could pick
the model it feeds the dealer after seeing it.
"""

import hashlib
from fractions import Fraction

import pytest
from conftest import AUG, AUG_SPEC, LINKS, certification_setup

from faircert import protocol
from faircert.crypto import Certificate, merkle_root
from faircert.dealer import CIRCUIT_CERT
from faircert.model import BiasedModel
from faircert.protocol import (
    FRAME_CERTIFICATE,
    FRAME_COMPUTE_INPUT,
    ROLE_SERVER,
    Frame,
    ProtocolError,
    Server,
    exchange_hello,
    run_certification_local,
)


@pytest.mark.parametrize("link", LINKS)
def test_the_server_never_receives_the_seed(link):
    regulator, server, _, _ = certification_setup(spec=AUG_SPEC, aug=AUG)
    run = run_certification_local(regulator, server, link=link)
    assert isinstance(run.regulator_result, Certificate)
    assert run.server_result == run.regulator_result
    assert run.regulator_result.model_digest == merkle_root(server.model_bytes)
    received = run.recorders["server_to_reg"].received + run.recorders["server_to_dealer"].received
    assert received
    assert not any(AUG.master_seed in frame for frame in received)


class CommitThenSwap(Server):
    """Echoes a commitment to its own model A, waits for one more regulator
    frame (where a seed reveal would come), then feeds the dealer model B."""

    def __init__(self, committed, fed):
        super().__init__(committed)
        self.fed = Server(fed).model_bytes
        self.received = []

    def serve_certification(self, regulator_channel, dealer_factory):
        exchange_hello(regulator_channel, ROLE_SERVER)
        self.received.append(regulator_channel.recv_frame())
        own = Frame(FRAME_COMPUTE_INPUT, bytes([CIRCUIT_CERT]) + self.model_bytes)
        commitment = hashlib.sha3_256(own.encode()).digest()
        regulator_channel.send_frame(Frame(FRAME_COMPUTE_INPUT, bytes([CIRCUIT_CERT]) + commitment))
        self.received.append(regulator_channel.recv_frame())
        chan_f = dealer_factory()
        exchange_hello(chan_f, ROLE_SERVER)
        chan_f.send_frame(Frame(FRAME_COMPUTE_INPUT, bytes([CIRCUIT_CERT]) + self.fed))
        self.received.append(regulator_channel.recv_frame())
        return self.received[-1]


@pytest.mark.parametrize("link", LINKS)
def test_commit_then_swap_gets_no_certificate(link, monkeypatch):
    regulator, _, _, model = certification_setup(spec=AUG_SPEC, aug=AUG)
    swapped = BiasedModel(model.inner, (Fraction(0), Fraction(1, 100)), model.seed)
    server = CommitThenSwap(model, swapped)
    issued = []
    issue = protocol.issue_certificate

    def counted(*args):
        issued.append(issue(*args))
        return issued[-1]

    monkeypatch.setattr(protocol, "issue_certificate", counted)
    with pytest.raises(ProtocolError):
        run_certification_local(regulator, server, timeout=1.0, link=link)
    assert issued == []
    assert server.certificate is None
    assert not any(frame.type == FRAME_CERTIFICATE for frame in server.received)
