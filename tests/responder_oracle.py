"""Reference responder and sender: the bin model and the per-slot
``SimulatedTransport.end_run`` of the simulator, and the numpy ``send_run``
of the transports, evaluated one echo at a time, kept so property tests can
compare the two.

``advance_to`` moves a server's clock to one time through the 1 s bins,
drawing each step's noise as the walk first reaches it, ``serve_echo``
answers one echo after such a move, and ``ScalarTransport`` draws each
echo's loss as it is sent, keeps the delivered ones, and serves them one
by one, visit by visit, when the slot ends. The transport keeps the
open-visit table the fleet once kept for its truth windows, hands each
window's rate to its ``truth`` destination, and fills its reply arrays
one reply at a time. ``send_run_per_send`` is the per-send loop a
``send_run`` stands for; ``PerSendRuns`` gives a fake transport that loop
over its own ``_send_echo``.

Every draw runs a ``SplitMix64`` generator of Python ints word by word from
a state built from the fleet seed, the address, a stream tag and what the
draw is for, and the numpy kernels of the simulator are not used.
"""

from __future__ import annotations

import math

import numpy as np

from fleetscope.ipid import IdBehavior
from fleetscope.simulation import BIN_NS, NOISE_STEP_NS, SimulatedFleet, SimulatedServer

_MASK = (1 << 64) - 1
NOISE, IDS, LOSS = 1, 2, 3  # the stream tags


class SplitMix64:
    """Steele, Lea & Flood's splitmix64 generator over Python ints."""

    def __init__(self, state: int):
        self.state = state & _MASK

    def next(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return z ^ (z >> 31)

    def uniform(self) -> float:
        """The next word's top 53 bits as a fraction of 2**53."""
        return (self.next() >> 11) / 2**53


def extend(key: int, value: int) -> int:
    """The first word of the generator from ``key`` XOR ``value``."""
    return SplitMix64(key ^ value).next()


def stream_key(seed: int, address: str, tag: int) -> int:
    """The seed, the address in zero-padded 8-byte little-endian words,
    the address's length in bytes and the stream tag, extended from 0."""
    data = address.encode("utf-8")
    key = extend(0, seed)
    for at in range(0, len(data), 8):
        key = extend(key, int.from_bytes(data[at:at + 8].ljust(8, b"\0"), "little"))
    return extend(extend(key, len(data)), tag)


def cumulative_packets(server: SimulatedServer) -> int:
    """Total packets sent: background traffic plus our echo replies."""
    return int(server.background_packets) + server.reply_packets


def _step(server: SimulatedServer, seed: int, at_ns: int, to_ns: int, count: float) -> float:
    """The count at ``to_ns`` of one noise step from ``count`` at ``at_ns``:
    its normal is Box-Muller of the first two uniforms of the generator from
    the step's start extending the noise key, XOR its end."""
    cumulative = server.profile._cumulative
    packets = cumulative(to_ns / 1e9) - cumulative(at_ns / 1e9)
    noise_rel = server.profile.noise_rel
    if noise_rel > 0:
        draws = SplitMix64(extend(stream_key(seed, server.address, NOISE), at_ns) ^ to_ns)
        u, v = draws.uniform(), draws.uniform()
        normal = math.sqrt(-2.0 * math.log(1.0 - u)) * math.cos(2.0 * math.pi * v)
        std = noise_rel * math.sqrt(NOISE_STEP_NS / (to_ns - at_ns))
        packets *= max(0.0, 1.0 + std * normal)
    return count + packets


def advance_to(server: SimulatedServer, to_ns: int, seed: int) -> None:
    """Move the server's clock to ``to_ns`` in a fleet of ``seed``; a time
    behind the clock moves nothing. Past the end of the clock's step, the whole bins before the
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
            at, count = start, _step(server, seed, at, start, count)
        step = (at, start + BIN_NS, count, _step(server, seed, at, start + BIN_NS, count))
        server._open_step = step
    # np.interp of one segment: the responder reads its knots with it, so both round alike
    server.background_packets = float(np.interp(to_ns, step[:2], step[2:]))
    server.time_ns = to_ns


def serve_echo(server: SimulatedServer, at_ns: int, seed: int) -> int | None:
    """Answer one echo arriving at ``at_ns`` in a fleet of ``seed``: returns
    the reply's IP ID.

    The current ID is returned first, then the counter moves by one for
    the reply packet itself. A random ID is the top 16 bits of the word of
    the generator from the arrival time extending the ID key that follows
    one word for each echo served at that time before. Unreachable servers
    never reply.
    """
    if not server.reachable:
        return None
    advance_to(server, at_ns, seed)
    if server.id_behavior is IdBehavior.GLOBAL_COUNTER:
        ipid = cumulative_packets(server) & 0xFFFF
    elif server.id_behavior is IdBehavior.RANDOM:
        last = server._last_arrival
        before = last[1] if last is not None and last[0] == at_ns else 0
        draws = SplitMix64(extend(stream_key(seed, server.address, IDS), at_ns))
        for _ in range(before):
            draws.next()
        ipid = draws.next() >> 48
        server._last_arrival = (at_ns, before + 1)
    else:
        ipid = server.constant_id
    server.reply_packets += 1
    return ipid


def send_run_per_send(transport, send_echo, targets, first_ns: int, interval_ns: int, count: int,
                      not_before_ns) -> np.ndarray:
    """``send_run`` as one ``send_echo(target, index)`` call per send, each
    returning its send time, on ``transport``'s clock: each index waits in
    ``sleep_until_ns`` for its due time and reads the clock once, then each
    target whose previous send is under one interval old waits until that
    send plus the interval."""
    last_ns = [int(t_ns) for t_ns in not_before_ns]
    sent_ns = np.empty((len(targets), count), dtype=np.int64)
    for index in range(count):
        transport.sleep_until_ns(first_ns + index * interval_ns)
        now_ns = transport.now_ns()
        for row, target in enumerate(targets):
            if now_ns < last_ns[row] + interval_ns:
                transport.sleep_until_ns(last_ns[row] + interval_ns)
                now_ns = transport.now_ns()
            sent_ns[row, index] = last_ns[row] = send_echo(target, index)
    return sent_ns


class PerSendRuns:
    """``send_run`` as ``send_run_per_send`` over the class's ``_send_echo``."""

    def send_run(self, targets, first_ns: int, interval_ns: int, count: int,
                 not_before_ns) -> np.ndarray:
        return send_run_per_send(self, self._send_echo, targets, first_ns, interval_ns, count,
                                 not_before_ns)


class ScalarTransport(PerSendRuns):
    """The simulated transport with per-send state: a visit's first send
    advances the responder, opens its truth window and starts its loss
    generator from the send time extending the target's loss key, a send
    is lost when the generator's next uniform is below the loss rate or
    else remembered, and ``end_run`` serves each delivered echo of each
    target in turn and returns the replies as ``end_run``'s arrays."""

    def __init__(self, fleet: SimulatedFleet, loss_rate: float = 0.0, truth=None):
        self.fleet = fleet
        self.loss_rate = loss_rate
        self.truth = truth
        self._now_ns = 0
        self._losses: dict[str, SplitMix64] = {}  # the open visits' loss generators
        self._pending: dict[str, dict[int, int]] = {}  # seq -> sent_ns of delivered echoes
        self._windows: dict[str, tuple[int, float]] = {}  # first send, counter then

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
                advance_to(server, sent_ns, self.fleet.seed)
                self._windows[target] = (sent_ns, server.background_packets)
                self._losses[target] = SplitMix64(
                    extend(stream_key(self.fleet.seed, target, LOSS), sent_ns))
            if self.loss_rate and self._losses[target].uniform() < self.loss_rate:
                return sent_ns
            self._pending.setdefault(target, {})[seq] = sent_ns
        return sent_ns

    def end_run(self, targets, sent_ns) -> tuple[np.ndarray, np.ndarray]:
        recv_ns = np.full(np.shape(sent_ns), -1, dtype=np.int64)
        ip_id = np.zeros(np.shape(sent_ns), dtype=np.int64)
        for row, (target, sent) in enumerate(zip(targets, np.asarray(sent_ns).tolist())):
            for seq, (recv, ipid) in self._end_visit(target, sent).items():
                recv_ns[row, seq], ip_id[row, seq] = recv, ipid
        return recv_ns, ip_id

    def _end_visit(self, target: str, sent_ns: list[int]) -> dict[int, tuple[int, int]]:
        replies = {}
        server = self.fleet.by_address.get(target)
        for seq, sent in self._pending.pop(target, {}).items():
            replies[seq] = (sent + server.rtt_ns,
                            serve_echo(server, sent + server.rtt_ns // 2, self.fleet.seed))
        self._losses.pop(target, None)
        opened = self._windows.pop(target, None)
        if opened is not None and sent_ns[-1] > opened[0]:
            start_ns, start_packets = opened
            advance_to(server, sent_ns[-1], self.fleet.seed)
            pps = (server.background_packets - start_packets) / ((server.time_ns - start_ns) / 1e9)
            if self.truth is not None:
                self.truth((target, start_ns, sent_ns[-1], pps))
        return replies
