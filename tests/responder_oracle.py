"""Reference responder and sender: the bin model of
``SimulatedServer.advance``, the per-visit ``SimulatedTransport.end_visit``
and the numpy ``send_run`` of the transports, evaluated one echo at a time,
kept so property tests can compare the two.

``advance_to`` moves a server's clock to one time through the 1 s bins,
drawing each step's noise as the walk first reaches it, ``serve_echo``
answers one echo after such a move, and ``ScalarTransport`` draws each
echo's loss as it is sent, keeps the delivered ones, and serves them one
by one when the visit ends. The transport keeps the open-visit table the
fleet once kept for its truth windows, hands each window's rate to its
``truth`` destination, and returns its replies in the reply dict
transports once returned. ``send_run_per_send`` is the per-send loop a
``send_run`` stands for; ``PerSendRuns`` gives a fake transport that loop
over its own ``_send_echo``.
"""

from __future__ import annotations

import math
import random

import numpy as np

from fleetscope.ipid import IdBehavior
from fleetscope.simulation import BIN_NS, NOISE_STEP_NS, SimulatedFleet, SimulatedServer


def cumulative_packets(server: SimulatedServer) -> int:
    """Total packets sent: background traffic plus our echo replies."""
    return int(server.background_packets) + server.reply_packets


def _step(server: SimulatedServer, at_ns: int, to_ns: int, count: float) -> float:
    """The count at ``to_ns`` of one noise step from ``count`` at ``at_ns``."""
    cumulative = server.profile._cumulative
    packets = cumulative(to_ns / 1e9) - cumulative(at_ns / 1e9)
    noise_rel = server.profile.noise_rel
    if server._noise_rng is not None and noise_rel > 0:
        std = noise_rel * math.sqrt(NOISE_STEP_NS / (to_ns - at_ns))
        packets *= max(0.0, 1.0 + std * server._noise_rng.gauss(0.0, 1.0))
    return count + packets


def advance_to(server: SimulatedServer, to_ns: int) -> None:
    """Move the server's clock to ``to_ns``; a time behind the clock moves
    nothing. Past the end of the clock's step, the whole bins before the
    bin of ``to_ns`` are one step and that bin (from the clock, if the
    clock is inside it) is another; the count is read on the line through
    the ends of the step that holds ``to_ns``."""
    if to_ns <= server.time_ns:
        return
    step = server._open_step
    if step is None or to_ns > step[1]:
        at, count = ((server.time_ns, server.background_packets) if step is None
                     else (step[1], step[3]))
        start = to_ns // BIN_NS * BIN_NS
        if start > at:
            at, count = start, _step(server, at, start, count)
        step = (at, start + BIN_NS, count, _step(server, at, start + BIN_NS, count))
        server._open_step = step
    # np.interp of one segment: the responder reads its knots with it, so both round alike
    server.background_packets = float(np.interp(to_ns, step[:2], step[2:]))
    server.time_ns = to_ns


def serve_echo(server: SimulatedServer, at_ns: int) -> int | None:
    """Answer one echo arriving at ``at_ns``: returns the reply's IP ID.

    The current ID is returned first, then the counter moves by one for
    the reply packet itself. Unreachable servers never reply.
    """
    if not server.reachable:
        return None
    advance_to(server, at_ns)
    if server.id_behavior is IdBehavior.GLOBAL_COUNTER:
        ipid = cumulative_packets(server) & 0xFFFF
    elif server.id_behavior is IdBehavior.RANDOM:
        ipid = server._id_rng.randrange(0, 1 << 16) if server._id_rng else 0
    else:
        ipid = server.constant_id
    server.reply_packets += 1
    return ipid


def send_run_per_send(transport, send_echo, targets, first_ns: int, interval_ns: int, start: int,
                      stop: int, not_before_ns) -> np.ndarray:
    """``send_run`` as one ``send_echo(target, index)`` call per send, each
    returning its send time, on ``transport``'s clock: each index waits in
    ``sleep_until_ns`` for its due time and reads the clock once, then each
    target whose previous send is under one interval old waits until that
    send plus the interval."""
    last_ns = [int(t_ns) for t_ns in not_before_ns]
    sent_ns = np.empty((len(targets), stop - start), dtype=np.int64)
    for column, index in enumerate(range(start, stop)):
        transport.sleep_until_ns(first_ns + index * interval_ns)
        now_ns = transport.now_ns()
        for row, target in enumerate(targets):
            if now_ns < last_ns[row] + interval_ns:
                transport.sleep_until_ns(last_ns[row] + interval_ns)
                now_ns = transport.now_ns()
            sent_ns[row, column] = last_ns[row] = send_echo(target, index)
    return sent_ns


class PerSendRuns:
    """``send_run`` as ``send_run_per_send`` over the class's ``_send_echo``."""

    def send_run(self, targets, first_ns: int, interval_ns: int, start: int, stop: int,
                 not_before_ns) -> np.ndarray:
        return send_run_per_send(self, self._send_echo, targets, first_ns, interval_ns, start,
                                 stop, not_before_ns)


class ScalarTransport(PerSendRuns):
    """The simulated transport with per-send state: a visit's first send
    advances the responder and opens its truth window, a send draws its
    loss and remembers a delivered echo, and ``end_visit`` serves each one
    and returns the replies as ``{seq: (recv_ns, ip_id)}``."""

    def __init__(self, fleet: SimulatedFleet, loss_rate: float = 0.0, truth=None):
        self.fleet = fleet
        self.loss_rate = loss_rate
        self.truth = truth
        self._now_ns = 0
        self._loss_rngs: dict[str, random.Random] = {}
        self._pending: dict[str, dict[int, int]] = {}  # seq -> sent_ns of delivered echoes
        self._windows: dict[str, tuple[int, float]] = {}  # first send, counter then

    def _loss_rng(self, target: str) -> random.Random:
        rng = self._loss_rngs.get(target)
        if rng is None:
            rng = random.Random(f"{self.fleet.seed}:loss:{target}")
            self._loss_rngs[target] = rng
        return rng

    def now_ns(self) -> int:
        return self._now_ns

    def sleep_until_ns(self, t_ns: int) -> None:
        if t_ns > self._now_ns:
            self._now_ns = t_ns

    def _send_echo(self, target: str, seq: int) -> int:
        sent_ns = self._now_ns
        server = self.fleet.by_address.get(target)
        if server is not None and server.reachable:
            if seq == 0:
                self._pending.pop(target, None)
                advance_to(server, sent_ns)
                self._windows[target] = (sent_ns, server.background_packets)
            if self.loss_rate and self._loss_rng(target).random() < self.loss_rate:
                return sent_ns
            self._pending.setdefault(target, {})[seq] = sent_ns
        return sent_ns

    def end_visit(self, target: str, sent_ns: list[int]) -> dict[int, tuple[int, int]]:
        replies = {}
        server = self.fleet.by_address.get(target)
        for seq, sent in self._pending.pop(target, {}).items():
            replies[seq] = (sent + server.rtt_ns, serve_echo(server, sent + server.rtt_ns // 2))
        opened = self._windows.pop(target, None)
        if opened is not None and sent_ns[-1] > opened[0]:
            start_ns, start_packets = opened
            advance_to(server, sent_ns[-1])
            pps = (server.background_packets - start_packets) / ((server.time_ns - start_ns) / 1e9)
            if self.truth is not None:
                self.truth((target, start_ns, sent_ns[-1], pps))
        return replies
