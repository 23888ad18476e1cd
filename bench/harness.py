"""Party threads and transports for closed-loop sessions.

Each protocol operation has one session in flight: the timed party
(regulator or client) runs on the calling thread, the server and the dealer
each on a long-lived worker thread that takes one job per operation. TCP
listeners are opened once during set-up, so an operation times the
program's connections, hellos and frames and not the benchmark's sockets.
Every channel an operation opens is closed after all three parties are done
with it, since a socket closed early drops frames still in flight.
"""

from __future__ import annotations

import queue
import threading
import time

from faircert import protocol

TIMEOUT = 15.0  # a session takes at most a few seconds; a stuck one fails the op


class PartyFailed(RuntimeError):
    """A worker party raised; the operation counts as failed."""


class Worker:
    """A party's thread; runs submitted jobs in order, one per operation."""

    def __init__(self, name: str, tracer):
        self._tracer = tracer
        self._jobs: queue.Queue = queue.Queue()
        self._results: queue.Queue = queue.Queue()
        self._thread = threading.Thread(target=self._loop, name=name, daemon=True)
        self._thread.start()

    def _loop(self) -> None:
        while True:
            job = self._jobs.get()
            if job is None:
                return
            op, fn = job
            self._tracer.set_op(op)
            try:
                self._results.put((op, True, fn()))
            except Exception as exc:  # handed to the operation, which counts it
                self._results.put((op, False, exc))

    def submit(self, op, fn) -> None:
        self._jobs.put((op, fn))

    def result(self, op):
        """The outcome of the job for operation op; a late outcome of an
        earlier operation that timed out is dropped."""
        while True:
            try:
                done, ok, value = self._results.get(timeout=TIMEOUT + 5)
            except queue.Empty:
                raise PartyFailed(f"{self._thread.name} did not finish") from None
            if done == op:
                break
        if not ok:
            raise PartyFailed(f"{self._thread.name}: {value!r}") from value
        return value

    def stop(self) -> None:
        self._jobs.put(None)
        self._thread.join(TIMEOUT + 5)


class Sessions:
    """The server and dealer threads plus the transport between the parties.

    "host" is the party whose listener the other connects to: the regulator
    during certification, the server during inference. The main thread plays
    the regulator or the client.
    """

    def __init__(self, tracer, tcp: bool):
        self.tcp = tcp
        self.server = Worker("server", tracer)
        self.dealer = Worker("dealer", tracer)
        self._opened: list = []
        self._local_pairs: dict = {}
        if tcp:
            self._dealer_listener = protocol.open_listener("127.0.0.1", 0)
            self._host_listener = protocol.open_listener("127.0.0.1", 0)
            self._dealer_port = self._dealer_listener.getsockname()[1]
            self._host_port = self._host_listener.getsockname()[1]

    def _keep(self, chan):
        self._opened.append(chan)
        return chan

    def _prepare_local(self) -> None:
        pairs = {
            "host": protocol.channel_pair(TIMEOUT),
            "main_dealer": protocol.channel_pair(TIMEOUT),
            "server_dealer": protocol.channel_pair(TIMEOUT),
        }
        for a, b in pairs.values():
            self._keep(a)
            self._keep(b)
        self._local_pairs = pairs

    # Channel ends, by who holds them. Module attributes are looked up at
    # call time so that a traced run sees connect_channel and accept_channel.

    def host_accept(self):
        if not self.tcp:
            return self._local_pairs["host"][0]
        return self._keep(protocol.accept_channel(self._host_listener, TIMEOUT))

    def host_connect(self):
        if not self.tcp:
            return self._local_pairs["host"][1]
        return self._keep(protocol.connect_channel("127.0.0.1", self._host_port, TIMEOUT))

    def main_to_dealer(self):
        if not self.tcp:
            return self._local_pairs["main_dealer"][0]
        return self._keep(protocol.connect_channel("127.0.0.1", self._dealer_port, TIMEOUT))

    def server_to_dealer(self):
        if not self.tcp:
            return self._local_pairs["server_dealer"][0]
        return self._keep(protocol.connect_channel("127.0.0.1", self._dealer_port, TIMEOUT))

    def _dealer_job(self):
        if self.tcp:
            a = self._keep(protocol.accept_channel(self._dealer_listener, TIMEOUT))
            b = self._keep(protocol.accept_channel(self._dealer_listener, TIMEOUT))
        else:
            a = self._local_pairs["server_dealer"][1]
            b = self._local_pairs["main_dealer"][1]
        return protocol.serve_dealer(a, b)

    def run(self, op, main_call, server_call):
        """One session: returns ((start_ns, end_ns) of main_call, its result,
        the server's result, the dealer session)."""
        if not self.tcp:
            self._prepare_local()
        self.dealer.submit(op, self._dealer_job)
        self.server.submit(op, server_call)
        failure = None
        result = None
        start = time.perf_counter_ns()
        try:
            result = main_call()
        except Exception as exc:
            failure = exc
            self._close_opened()  # unblocks the other parties
        end = time.perf_counter_ns()
        # Collect both workers even after a failure, so that no result is
        # left behind for the next operation to pick up.
        outcomes = []
        for worker in (self.server, self.dealer):
            try:
                outcomes.append(worker.result(op))
            except PartyFailed as exc:
                failure = failure or exc
                outcomes.append(None)
        self._close_opened()
        if failure is not None:
            raise failure
        return (start, end), result, outcomes[0], outcomes[1]

    def _close_opened(self) -> None:
        for chan in self._opened:
            chan.close()
        self._opened.clear()

    def close(self) -> None:
        self._close_opened()
        self.server.stop()
        self.dealer.stop()
        if self.tcp:
            self._dealer_listener.close()
            self._host_listener.close()
