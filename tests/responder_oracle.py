"""Reference responder and sender: the background count of the simulator
as a scalar cascade, the per-slot ``SimulatedTransport.end_run`` one echo
at a time, and the numpy ``send_run`` of the transports as a per-send loop,
kept so property tests can compare the two.

``background_count`` walks one read's cell path down from its top cell, one
level at a time in Python floats and ints, ``serve_echo`` answers one echo
from it, and ``ScalarTransport`` draws each echo's loss as it is sent,
keeps the delivered ones, and serves them one by one, visit by visit, when
the slot ends. The transport keeps the open-visit table the fleet once kept
for its truth windows, hands each window's rate to its ``truth``
destination, and fills its reply arrays one reply at a time.
``send_run_per_send`` is the per-send loop a ``send_run`` stands for;
``PerSendRuns`` gives a fake transport that loop over its own
``_send_echo``.

Every draw runs a ``SplitMix64`` generator of Python ints word by word from
a state built from the fleet seed, the address, a stream tag and what the
draw is for, and the numpy kernels of the simulator are not used.
"""

from __future__ import annotations

import math

import numpy as np

from fleetscope.ipid import IdBehavior
from fleetscope.simulation import (BIN_NS, DAY_S, NOISE_STEP_NS, SimulatedFleet, SimulatedServer,
                                   TrafficProfile)

_MASK = (1 << 64) - 1
NOISE, IDS, LOSS = 1, 2, 3  # the stream tags
DEPTH = 20  # a top cell spans 2**DEPTH bins


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


def integral(profile: TrafficProfile, t_s: float) -> float:
    """The antiderivative of the profile's deterministic rate at UTC time
    ``t_s``: the sinusoid's, plus whole fill windows and the part of one."""
    local = t_s + profile.tz_offset_s
    phase = 2 * math.pi * (local - profile.peak_local_s) / DAY_S
    total = profile.base_pps * (
        t_s + profile.diurnal_amplitude * (DAY_S / (2 * math.pi)) * math.sin(phase))
    if profile.fill_extra_pps:
        width = profile.fill_end_s - profile.fill_start_s
        days = math.floor(local / DAY_S)
        pos = local - days * DAY_S
        x = min(max(pos - profile.fill_start_s, 0.0), width)
        partial = 0.5 * (x - (width / (2 * math.pi)) * math.sin(2 * math.pi * x / width))
        total += profile.fill_extra_pps * (days * 0.5 * width + partial)
    return total


def background_count(server: SimulatedServer, seed: int, t_ns: int) -> float:
    """The packets ``server`` of a fleet of ``seed`` has sent by ``t_ns``.

    The counts at the ends of the top cell (2**DEPTH bins) holding ``t_ns``
    are the profile's integral from 0. Each level down, the cell holding
    ``t_ns`` splits its count at its midpoint at the share
    ``p + min(p, 1 - p) * a * (2u - 1)``: ``p`` the profile's share of the
    left half, ``u`` the first word of the generator from the midpoint (in
    bins, which names the level and the cell) extending the noise key, and
    ``a`` the amplitude that makes the variance of a cell's mean 0 at the
    top and ``noise_rel**2`` times 30 ms over its width below. The count at
    the midpoint is at most the count at the cell's end, and the count is
    read on the line across the bin."""
    profile = server.profile
    noise_rel = profile.noise_rel
    key = stream_key(seed, server.address, NOISE)
    at = t_ns // BIN_NS
    start = at >> DEPTH << DEPTH
    end = start + (1 << DEPTH)
    zero = integral(profile, 0.0)
    start_integral, end_integral = integral(profile, float(start)), integral(profile, float(end))
    low, high = start_integral - zero, end_integral - zero
    before = 0.0
    for level in range(DEPTH):
        middle = (start + end) // 2
        middle_integral = integral(profile, float(middle))
        across = end_integral - start_integral
        share = (middle_integral - start_integral) / across if across > 0 else 0.5
        share = min(max(share, 0.0), 1.0)
        after = noise_rel * noise_rel * math.ldexp(NOISE_STEP_NS / BIN_NS, level + 1 - DEPTH)
        amplitude = math.sqrt(3.0 * (after - before) / (1.0 + before))
        u = (extend(key, middle) >> 11) / 2**53
        share = share + min(share, 1.0 - share) * amplitude * (u * 2.0 - 1.0)
        before = after
        count = min(low + (high - low) * share, high)
        if at >= middle:
            start, start_integral, low = middle, middle_integral, count
        else:
            end, end_integral, high = middle, middle_integral, count
    return min(low + (high - low) / BIN_NS * (t_ns - at * BIN_NS), high)


def serve_echo(server: SimulatedServer, at_ns: int, seed: int, served: int) -> int | None:
    """Answer one echo arriving at ``at_ns`` in a fleet of ``seed``, after
    ``served`` replies: returns the reply's IP ID.

    A global counter's ID is the count plus the replies served before; the
    reply packet itself moves the counter on. A random ID is the top 16
    bits of the first word of the generator from the arrival time extending
    the ID key. Unreachable servers never reply.
    """
    if not server.reachable:
        return None
    if server.id_behavior is IdBehavior.GLOBAL_COUNTER:
        return (int(background_count(server, seed, at_ns)) + served) & 0xFFFF
    if server.id_behavior is IdBehavior.RANDOM:
        return SplitMix64(extend(stream_key(seed, server.address, IDS), at_ns)).next() >> 48
    return server.constant_id


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
    opens its truth window and starts its loss
    generator from the send time extending the target's loss key, a send
    is lost when the generator's next uniform is below the loss rate or
    else remembered, and ``end_run`` serves each delivered echo of each
    target in turn and returns the replies as ``end_run``'s arrays.
    ``replies`` counts the replies each address has served."""

    def __init__(self, fleet: SimulatedFleet, loss_rate: float = 0.0, truth=None):
        self.fleet = fleet
        self.loss_rate = loss_rate
        self.truth = truth
        self.replies: dict[str, int] = {}
        self._servers = {server.address: server for server in fleet.servers}
        self._now_ns = 0
        self._losses: dict[str, SplitMix64] = {}  # the open visits' loss generators
        self._pending: dict[str, dict[int, int]] = {}  # seq -> sent_ns of delivered echoes
        self._windows: dict[str, int] = {}  # the open visits' first sends

    def now_ns(self) -> int:
        return self._now_ns

    def sleep_until_ns(self, t_ns: int) -> None:
        if t_ns > self._now_ns:
            self._now_ns = t_ns

    def _send_echo(self, target: str, seq: int) -> int:
        sent_ns = self._now_ns
        server = self._servers.get(target)
        if server is not None and server.reachable:
            if seq == 0:
                self._pending.pop(target, None)
                self._windows[target] = sent_ns
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
        """Serve the delivered echoes of ``target``'s visit, and hand its
        truth window on: the mean rate from its first send to its last
        serve, the last send or the last delivered arrival past it."""
        replies = {}
        server = self._servers.get(target)
        last_ns = sent_ns[-1]
        for seq, sent in self._pending.pop(target, {}).items():
            arrival_ns = sent + server.rtt_ns // 2
            served = self.replies.get(target, 0)
            replies[seq] = (sent + server.rtt_ns,
                            serve_echo(server, arrival_ns, self.fleet.seed, served))
            self.replies[target] = served + 1
            last_ns = max(last_ns, arrival_ns)
        self._losses.pop(target, None)
        start_ns = self._windows.pop(target, None)
        if start_ns is not None and sent_ns[-1] > start_ns and self.truth is not None:
            seed = self.fleet.seed
            packets = background_count(server, seed, last_ns) - background_count(server, seed,
                                                                                  start_ns)
            self.truth((target, start_ns, sent_ns[-1], packets / ((last_ns - start_ns) / 1e9)))
        return replies
