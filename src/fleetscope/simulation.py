"""Virtual target fleet: DNS zone, echo responders, and traffic profiles.

Time is virtual throughout, so a ten-day campaign replays in seconds. Every
responder integrates its traffic profile into a cumulative packet counter;
in global-counter mode the exposed IP ID is that counter mod 65536, with
the echo reply itself incrementing it by one, which is exactly what a rate
estimator has to cope with. The counter is integrated per 1 s bin of server
time, not per echo, and is linear within a bin. Each bin an echo falls in
draws one noise factor, and the whole bins between visits are one step with
one factor; a step of width W has the std ``noise_rel * sqrt(30 ms / W)``.
The transport answers every visit of a slot in one call, with a few numpy
passes over the slot's probes, and hands each visit's exact mean rate of
that counter to a truth destination so estimates can be judged against
ground truth.

Every random draw (profile noise, random IDs, probe loss) is a splitmix64
word keyed by what it is drawn for, so the simulator keeps no generator
state and no draw depends on an earlier one. A server's key absorbs the
fleet seed and its address; each stream absorbs a tag into it. A noise
step is keyed by its start and end times, a random ID by its echo's
arrival time and its place among the echoes that arrive at that time, and
a loss by its visit's first send time and its sequence number. One seed,
one behaviour.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .ipid import IdBehavior
from .names import DEFAULT_DOMAIN_SUFFIX, Wordlists, parse_server_name
from .store import MAX_RTT_NS
from .transport import NO_REPLY

DAY_S = 86400.0
# the responder draws one noise factor per bin of server time
BIN_NS = 1_000_000_000
# the width whose noise step has the std noise_rel (see TrafficProfile)
NOISE_STEP_NS = 30_000_000

# splitmix64 (Steele, Lea & Flood, OOPSLA 2014): word n of the generator
# from state s is the finaliser of s + n * _GAMMA, so any word is computed
# from its key alone. Every hash runs on uint64 arrays (a server keeps its
# key as an int): numpy 1.24 makes np.uint64 with an int a float64, and a
# uint64 scalar warns on overflow
_GAMMA = 0x9E3779B97F4A7C15
_MUL1, _MUL2 = 0xBF58476D1CE4E5B9, 0x94D049BB133111EB
_U = np.uint64
_U11, _U27, _U30, _U31, _U48 = _U(11), _U(27), _U(30), _U(31), _U(48)
# the tag each stream absorbs into a server's key
_NOISE, _IDS, _LOSS = 1, 2, 3
# end_run answers a slot in chunks of whole visits of at most this many
# probes, or of one visit if it is longer. The paper-shaped hour (156
# visits of 2,000 probes a slot) peaked at 51.6-51.8 MB in chunks of 2,048
# to 6,000 probes, at 51.7-54.6 MB in chunks of 8,192, at ~55 MB in
# chunks of 16,384 and at ~81 MB a slot at a time (2 vCPUs, numpy 2.4).
# A fleet-sweep slot (150 visits of 25) is one chunk.
CHUNK_PROBES = 4_096
_TAU = 2.0 * math.pi


def splitmix64(states: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Word ``counts`` (1 for the first) of splitmix64 from ``states``,
    elementwise: uint64 in and out."""
    z = states + counts * _U(_GAMMA)
    z ^= z >> _U30
    z *= _U(_MUL1)
    z ^= z >> _U27
    z *= _U(_MUL2)
    return z ^ (z >> _U31)


def _absorb_all(keys, words) -> np.ndarray:
    """Each of ``keys`` (one uint64, or an array of one per word) extended
    by ``words`` (an array, or one int): word 1 of splitmix64 from the state
    ``key ^ word``."""
    return splitmix64(np.asarray(words).astype(np.uint64) ^ keys, _U(1))


def _step_normals(keys: list[int], starts: list[int], ends: list[int]) -> list[float]:
    """The standard normal of each noise step from ``starts[i]`` to
    ``ends[i]`` under the noise key ``keys[i]``: Box-Muller of the top 53
    bits of words 1 and 2 of splitmix64 from the key extended by the start
    (``_absorb_all``), XOR the end, as fractions u and v of 2**53. The
    steps are hashed, and u and v scaled by exact float operations, as
    arrays; the transcendentals are always those of ``math``, since numpy's
    can differ by an ulp across CPUs."""
    states = _absorb_all(np.array(keys, dtype=np.uint64), np.array(starts, dtype=np.uint64))
    states ^= np.array(ends, dtype=np.uint64)
    firsts, seconds = splitmix64(states, np.array([[1], [2]], dtype=np.uint64)) >> _U11
    tails = (1.0 - firsts * 2.0**-53).tolist()
    angles = (_TAU * (seconds * 2.0**-53)).tolist()
    sqrt, log, cos = math.sqrt, math.log, math.cos
    return [sqrt(-2.0 * log(tail)) * cos(angle) for tail, angle in zip(tails, angles)]


def parse_hhmm(text: str) -> float:
    """'23:30' -> seconds since local midnight."""
    hours, _, minutes = text.partition(":")
    return int(hours) * 3600.0 + int(minutes or 0) * 60.0


@dataclass(frozen=True, slots=True)
class TrafficProfile:
    """Instantaneous send rate of a simulated server.

    The deterministic part is a daily sinusoid peaking at ``peak_local_s``
    plus an optional content-fill burst: a raised cosine inside the fill
    window, zero at the edges and ``fill_extra_pps`` high at the window
    midpoint. The responder multiplies the packets of each noise step (a
    1 s bin that an echo falls in, or a span of whole bins that none does)
    of width W by a Gaussian factor of mean 1 and std
    ``noise_rel * sqrt(30 ms / W)``, clipped so the rate never goes
    negative: a visit's mean rate varies about as much as if each 30 ms
    echo drew a factor of std ``noise_rel``.
    """

    base_pps: float
    diurnal_amplitude: float = 0.0
    peak_local_s: float = 84600.0  # 23:30
    tz_offset_s: float = 0.0
    noise_rel: float = 0.0
    fill_extra_pps: float = 0.0
    fill_start_s: float = 7200.0  # 02:00
    fill_end_s: float = 50400.0  # 14:00

    def __post_init__(self) -> None:
        if self.base_pps < 0:
            raise ValueError("base_pps must be >= 0")
        if not 0.0 <= self.diurnal_amplitude <= 1.0:
            raise ValueError("diurnal_amplitude must be within [0, 1]")
        if self.fill_extra_pps < 0:
            raise ValueError("fill_extra_pps must be >= 0")
        if not 0.0 <= self.fill_start_s < self.fill_end_s <= DAY_S:
            raise ValueError("fill window must satisfy 0 <= start < end <= 24h")
        if self.noise_rel < 0:
            raise ValueError("noise_rel must be >= 0")

    def _cumulative(self, t_s: float) -> float:
        """Antiderivative of the deterministic rate at UTC time ``t_s``."""
        local = t_s + self.tz_offset_s
        phase = 2 * math.pi * (local - self.peak_local_s) / DAY_S
        total = self.base_pps * (
            t_s + self.diurnal_amplitude * (DAY_S / (2 * math.pi)) * math.sin(phase)
        )
        if self.fill_extra_pps:
            width = self.fill_end_s - self.fill_start_s
            days = math.floor(local / DAY_S)
            pos = local - days * DAY_S
            x = min(max(pos - self.fill_start_s, 0.0), width)
            partial = 0.5 * (x - (width / (2 * math.pi)) * math.sin(2 * math.pi * x / width))
            total += self.fill_extra_pps * (days * 0.5 * width + partial)
        return total


@dataclass(slots=True)  # a fleet holds thousands: no per-server __dict__
class SimulatedServer:
    """One responder: a name, an address, a profile and an ID counter, whose
    clock and counts ``SimulatedTransport.end_run`` moves."""

    name: str
    address: str
    profile: TrafficProfile
    id_behavior: IdBehavior = IdBehavior.GLOBAL_COUNTER
    reachable: bool = True
    rtt_ns: int = 5_000_000
    constant_id: int = 7
    background_packets: float = field(default=0.0, init=False)
    reply_packets: int = field(default=0, init=False)
    time_ns: int = field(default=0, init=False)
    # the noise step that holds the clock: its start and end times, then the
    # counts at them
    _open_step: tuple[int, int, float, float] | None = field(default=None, init=False,
                                                             repr=False)
    # the fleet seed and the address, hashed (see SimulatedFleet)
    _key: int = field(default=0, init=False, repr=False)
    # the arrival time of the last random ID, and the echoes served at it
    _last_arrival: tuple[int, int] | None = field(default=None, init=False, repr=False)


class SimulatedFleet:
    """All simulated servers plus the DNS zone that names them."""

    def __init__(self, servers: Iterable[SimulatedServer], seed: int = 0,
                 domain_suffix: str = DEFAULT_DOMAIN_SUFFIX):
        self.seed = seed
        self.domain_suffix = domain_suffix
        self.servers = list(servers)
        self.by_address: dict[str, SimulatedServer] = {}
        names: set[str] = set()
        parsed = []
        for server in self.servers:
            parsed.append(parse_server_name(server.name, domain_suffix=domain_suffix))
            if server.address in self.by_address:
                raise ValueError(f"duplicate address {server.address}")
            if server.name in names:
                raise ValueError(f"duplicate name {server.name}")
            self.by_address[server.address] = server
            names.add(server.name)
        # each server's key: the seed (mod 2**64), then the address's UTF-8
        # bytes 8 at a time (little-endian, the last zero-padded), then their
        # count, absorbed in turn from 0
        data = [server.address.encode() for server in self.servers]
        lengths = np.array([len(address) for address in data], dtype=np.uint64)
        width = -(-max(map(len, data), default=0) // 8)
        words = np.frombuffer(b"".join(address.ljust(8 * width, b"\0") for address in data),
                              dtype="<u8").reshape(len(data), width)
        keys = _absorb_all(np.zeros(len(data), dtype=np.uint64), seed % 2**64)
        for column in range(width):
            keys = np.where(lengths > 8 * column, _absorb_all(keys, words[:, column]), keys)
        for server, key in zip(self.servers, _absorb_all(keys, lengths).tolist()):
            server._key = key
        # the dimensions of the names, which wordlists() needs; the names are not kept
        self._dimensions = dict(
            airport_codes=sorted({n.airport_code for n in parsed}),
            isp_labels=sorted({n.isp_label for n in parsed if n.isp_label}),
            nic_types=sorted({n.nic for n in parsed}),
            protocols=sorted({n.protocol for n in parsed}),
            protocol_indices=sorted({n.protocol_index for n in parsed}),
            deployment_indices=sorted({n.deployment_index for n in parsed}),
            max_server_counter=max((n.server_counter for n in parsed), default=0),
            max_site_counter=max((n.site_counter for n in parsed), default=0),
        )

    def wordlists(self) -> Wordlists:
        """Word lists covering exactly the dimensions present in the fleet's
        names. A fleet that no word lists cover (no server, or c000 alone)
        still loads, to be probed; for it this raises ValueError."""
        return Wordlists(**self._dimensions)

    def zone(self) -> dict[str, tuple[str, ...]]:
        return {server.name: (server.address,) for server in self.servers}

    @classmethod
    def from_config(cls, config: Mapping) -> "SimulatedFleet":
        """The fleet a config describes. A missing ``servers`` list, a key
        other than ``servers``, ``seed`` and ``domain_suffix``, a ``seed``
        that is not an integer or a ``domain_suffix`` that is not a string
        raises a ValueError naming the key; a server without a ``name`` or an
        ``address``, or a server value that does not parse or is out of
        range, one naming the server."""
        if "servers" not in config:
            raise ValueError("no 'servers' list")
        for key in config:
            if key not in ("servers", "seed", "domain_suffix"):
                raise ValueError(f"unknown key {key!r}")
        seed = config.get("seed", 0)
        if isinstance(seed, bool) or not isinstance(seed, int):
            raise ValueError(f"'seed' is not a JSON integer: {seed!r}")
        suffix = config.get("domain_suffix", DEFAULT_DOMAIN_SUFFIX)
        if not isinstance(suffix, str):
            raise ValueError(f"'domain_suffix' is not a JSON string: {suffix!r}")
        servers = []
        for index, entry in enumerate(config["servers"]):
            if not isinstance(entry, Mapping):
                raise ValueError(f"servers[{index}] is not an object")
            for key in ("name", "address"):
                if key not in entry:
                    raise ValueError(f"servers[{index}] has no {key!r}")
            try:
                servers.append(_server_from_config(entry))
            except (ValueError, TypeError, AttributeError) as exc:
                raise ValueError(f"servers[{index}] ({entry['name']}): {exc}") from None
        return cls(servers, seed=seed, domain_suffix=suffix)

    @classmethod
    def from_file(cls, path: str | Path) -> "SimulatedFleet":
        """``from_config`` of a JSON file; its ValueErrors name the file."""
        try:
            return cls.from_config(json.loads(Path(path).read_text()))
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None


def _server_from_config(entry: Mapping) -> SimulatedServer:
    reachable = entry.get("reachable", True)
    if type(reachable) is not bool:
        raise ValueError(f"'reachable' is not a JSON bool: {reachable!r}")
    rtt_ms = entry.get("rtt_ms", 5.0)
    if type(rtt_ms) not in (int, float) or not 0 <= rtt_ms < math.inf:
        raise ValueError(f"'rtt_ms' is not a finite number >= 0: {rtt_ms!r}")
    rtt_ns = round(float(rtt_ms) * 1e6)
    if rtt_ns > MAX_RTT_NS:  # a sample stores no longer round trip
        raise ValueError(f"'rtt_ms' is not at most {MAX_RTT_NS / 1e6} ms: {rtt_ms!r}")
    constant_id = entry.get("constant_id", 7)
    if type(constant_id) is not int or not 0 <= constant_id <= 0xFFFF:
        raise ValueError(f"'constant_id' is not a JSON integer in 0..65535: {constant_id!r}")
    profile_cfg = entry.get("profile", {})
    fill = profile_cfg.get("fill") or {}
    profile = TrafficProfile(
        base_pps=float(profile_cfg.get("base_pps", 0.0)),
        diurnal_amplitude=float(profile_cfg.get("diurnal_amplitude", 0.0)),
        peak_local_s=parse_hhmm(profile_cfg.get("peak_local", "23:30")),
        tz_offset_s=float(profile_cfg.get("tz_offset_hours", 0.0)) * 3600.0,
        noise_rel=float(profile_cfg.get("noise_rel", 0.0)),
        fill_extra_pps=float(fill.get("extra_pps", 0.0)),
        fill_start_s=parse_hhmm(fill.get("start", "02:00")),
        fill_end_s=parse_hhmm(fill.get("end", "14:00")),
    )
    return SimulatedServer(
        name=entry["name"],
        address=entry["address"],
        profile=profile,
        id_behavior=IdBehavior(entry.get("id_behavior", "global_counter")),
        reachable=reachable,
        rtt_ns=rtt_ns,
        constant_id=constant_id,
    )


class ZoneResolver:
    """Resolver backed by a static name-to-address map.

    Fleet members resolve to their addresses; everything else is absent.
    Its clock reads 0, so the records a crawl stamps are deterministic.
    """

    def __init__(self, zone: Mapping[str, tuple[str, ...]]):
        self._zone = dict(zone)
        self.queries = 0

    def now_ns(self) -> int:
        return 0

    def query(self, name: str) -> tuple[str, ...]:
        self.queries += 1
        return self._zone.get(name, ())


class SimulatedTransport:
    """Echo transport over a virtual fleet; sleeping costs nothing.

    Its clock is virtual nanoseconds from 0 and never moves backwards.
    Losses model requests dropped in flight: the responder never sees them
    and its counter does not move. Replies arrive one RTT after the send;
    the responder is served at the halfway point. A visit's truth window
    runs from its first send to its last; its rate is the mean from the
    first send to the last serve, the span over which the counter moved.

    A send takes no time, so ``send_run`` only computes the send times and
    moves the clock to the last. ``end_run`` draws the slot's losses, moves
    each responder to its visit's first send, each delivered echo's arrival
    and its last send, and reads the replies: nothing else touches a
    responder while one of its visits is open, so its replies are those it
    would have given as each echo arrived. Send ``seq`` is lost when the top
    53 bits of word ``seq + 1`` of splitmix64 from the visit's first send
    time, absorbed into the target's loss key, are below
    ``ceil(loss_rate * 2**53)``: a function of the fleet seed, the target,
    the visit's first send and ``seq`` alone.

    ``truth``, if given, gets ``(target, start_ns, end_ns, true_pps)`` as
    each such window closes; the transport keeps no record of its own.
    """

    def __init__(self, fleet: SimulatedFleet, loss_rate: float = 0.0,
                 truth: Callable[[tuple[str, int, int, float]], None] | None = None):
        if not 0.0 <= loss_rate <= 1.0:  # NaN compares false
            raise ValueError(f"loss_rate must be a number from 0 to 1, not {loss_rate!r}")
        self.fleet = fleet
        self.loss_rate = loss_rate
        self.truth = truth
        self._now_ns = 0

    def now_ns(self) -> int:
        return self._now_ns

    def sleep_until_ns(self, t_ns: int) -> None:
        if t_ns > self._now_ns:
            self._now_ns = t_ns

    def send_run(self, targets: Sequence[str], first_ns: int, interval_ns: int, count: int,
                 not_before_ns: np.ndarray) -> np.ndarray:
        """The send times of the per-send loop on this clock, where a send
        takes no time: each index waits for its due time, then each target in
        turn for its previous send plus the interval.

        Index 0 is a running maximum, in target order, of the clock, its due
        time and each previous send plus the interval. A later index sends
        each target at the latest of its send of the index before plus the
        interval, the index's due time and the index before's last send. The
        last target's sends step by one interval, and no due time is later
        than index 0's sends plus the intervals between, so each later index
        is index 0, raised to its last send less one interval, plus the
        intervals between."""
        first = np.maximum.accumulate(np.maximum(
            np.asarray(not_before_ns, dtype=np.int64) + interval_ns, max(self._now_ns, first_ns)))
        later = np.maximum(first, int(first[-1]) - interval_ns)
        sent_ns = later[:, None] + interval_ns * np.arange(count, dtype=np.int64)
        sent_ns[:, 0] = first
        self._now_ns = int(sent_ns[-1, -1])
        return sent_ns

    def end_run(self, targets: Sequence[str],
                sent_ns: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The replies to a slot's visits, one target each, in chunks of at
        most ``CHUNK_PROBES`` probes; an unknown or unreachable target hears
        none and has no truth window."""
        recv_ns = np.full(sent_ns.shape, NO_REPLY, dtype=np.int64)
        ip_id = np.zeros(sent_ns.shape, dtype=np.uint16)  # a slot's IDs, 2 bytes each
        servers = [self.fleet.by_address.get(target) for target in targets]
        rows = [row for row, server in enumerate(servers)
                if server is not None and server.reachable]
        step = max(1, CHUNK_PROBES // sent_ns.shape[1])
        for at in range(0, len(rows), step):
            chunk = rows[at:at + step]
            recv_ns[chunk], ip_id[chunk] = self._answer([servers[row] for row in chunk],
                                                        sent_ns[chunk])
        return recv_ns, ip_id

    def _answer(self, servers: list[SimulatedServer],
                sent: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``end_run`` of the visits to ``servers``, sent at the rows of ``sent``.

        Each visit reads its responder's background count at its first
        send, at each delivered echo's arrival and at its last send, in
        that order; a read behind the responder's clock reads the count at
        the clock, and the clock never moves backwards. The count is
        piecewise linear in time, with knots at 1 s bin edges. Each bin a
        read falls in (or its part past the clock, for a clock that no
        earlier read left inside a bin) is one noise step: its factor is
        keyed by the step's start and end, drawn the first time a read
        reaches into it and kept while later reads continue inside it. A
        read on the start edge of a bin, where the step before it ends,
        reads that step's end and opens no step. A span of whole bins that
        no read falls in is one step with one draw. A step of width W has
        the std ``noise_rel * sqrt(NOISE_STEP_NS / W)``, clipped so the
        count never falls. So the counter depends on the read times alone,
        not on how they are split into visits or slots or on what was drawn
        before; a fixed seed and campaign replays identically.

        A reply's ID is the counter (the count plus the replies served
        before) mod 65536 for a global counter, the constant for a
        constant one, and for a random one the top 16 bits of word n + 1
        of splitmix64 from the echo's arrival time absorbed into the
        server's ID key, where n counts the echoes served at that time
        before it, in this visit or the one before.
        """
        visits, count = sent.shape
        starts, ends = sent[:, 0], sent[:, -1]
        keys = np.array([server._key for server in servers], dtype=np.uint64)
        rtt = np.array([server.rtt_ns for server in servers], dtype=np.int64)[:, None]
        arrivals = sent + rtt // 2
        if self.loss_rate:
            states = _absorb_all(_absorb_all(keys, _LOSS), starts)
            words = splitmix64(states[:, None], np.arange(1, count + 1, dtype=np.uint64))
            delivered = words >> _U11 >= _U(math.ceil(self.loss_rate * 2**53))
            # the last send, or the last delivered arrival past it
            last = np.maximum(ends, np.where(delivered, arrivals, starts[:, None]).max(axis=1))
        else:
            delivered = np.ones(sent.shape, dtype=bool)
            last = arrivals[:, -1]
        # each visit's reads in order: its first send, its delivered
        # arrivals, then its last send, raised to the arrival before it
        reads = np.concatenate((starts[:, None], arrivals, last[:, None]), axis=1)
        kept = np.ones(reads.shape, dtype=bool)
        kept[:, 1:-1] = delivered
        served = np.count_nonzero(delivered, axis=1)
        bounds = np.zeros(visits + 1, dtype=np.int64)
        # not np.cumsum, whose traced cache varies from call to call
        bounds[1:] = np.add.accumulate(served + 2)
        clocks = np.array([server.time_ns for server in servers], dtype=np.int64)
        times = np.maximum(reads[kept], np.repeat(clocks, served + 2))

        # the reads of each visit grouped by the bin they fall in, and the
        # groups that reach past the end of the step that holds the clock
        bins = times // BIN_NS * BIN_NS
        first = np.ones(len(times), dtype=bool)
        first[1:] = bins[1:] != bins[:-1]
        first[bounds[:-1]] = True
        firsts = np.flatnonzero(first)
        lasts = times[np.append(firsts[1:], len(times)) - 1]
        owners = np.repeat(np.arange(visits), np.diff(np.searchsorted(firsts, bounds)))
        reach = np.array([server.time_ns if server._open_step is None else server._open_step[1]
                          for server in servers], dtype=np.int64)
        beyond = lasts > reach[owners]
        group_starts = bins[firsts][beyond].tolist()
        # the groups whose reads all sit on the start edge of their bin
        edges = (lasts == bins[firsts])[beyond].tolist()
        group_bounds = np.searchsorted(owners[beyond], np.arange(visits + 1)).tolist()

        # each visit's knots: those of the step that holds the clock, then
        # those its reads reach
        knots = []
        noise_keys = _absorb_all(keys, _NOISE).tolist()
        step_keys, step_starts, step_ends = [], [], []
        for visit, server in enumerate(servers):
            step = server._open_step
            xs = [server.time_ns] if step is None else [step[0], step[1]]
            known = len(xs)
            for at in range(group_bounds[visit], group_bounds[visit + 1]):
                start = group_starts[at]
                if start == xs[-1] and edges[at]:
                    continue  # those reads end the step before, as a later visit's would
                if start > xs[-1]:
                    xs.append(start)  # the whole bins before this one: one step
                xs.append(start + BIN_NS)
            knots.append(xs)
            if server.profile.noise_rel > 0 and len(xs) > known:
                step_keys += [noise_keys[visit]] * (len(xs) - known)
                step_starts += xs[known - 1:-1]
                step_ends += xs[known:]
        normals = iter(_step_normals(step_keys, step_starts, step_ends))

        background = np.empty(len(times))
        moved = (times[bounds[1:] - 1] > clocks).tolist()
        arriving = np.ones(len(times), dtype=bool)
        arriving[bounds[:-1]] = False
        arriving[bounds[1:] - 1] = False
        bounds = bounds.tolist()
        for visit, (server, xs) in enumerate(zip(servers, knots)):
            low, high = bounds[visit], bounds[visit + 1]
            if not moved[visit]:
                background[low:high] = server.background_packets
                continue
            step = server._open_step
            ys = [server.background_packets] if step is None else [step[2], step[3]]
            known = len(ys)
            cumulative = server.profile._cumulative
            noise_rel = server.profile.noise_rel
            before = cumulative(xs[known - 1] / 1e9)
            for at, to in zip(xs[known - 1:-1], xs[known:]):
                after = cumulative(to / 1e9)
                factor = 1.0
                if noise_rel > 0:
                    std = noise_rel * math.sqrt(NOISE_STEP_NS / (to - at))
                    factor = max(0.0, 1.0 + std * next(normals))
                ys.append(ys[-1] + (after - before) * factor)
                before = after
            background[low:high] = np.interp(times[low:high], xs, ys)
            server._open_step = (xs[-2], xs[-1], ys[-2], ys[-1])
            server.background_packets = float(background[high - 1])
            server.time_ns = int(times[high - 1])

        if self.truth is not None:
            for server, start_ns, end_ns, low in zip(servers, starts.tolist(), ends.tolist(),
                                                     bounds):
                if end_ns > start_ns:
                    # the counter moved up to the last serve, half an RTT past the last send
                    pps = ((server.background_packets - float(background[low]))
                           / ((server.time_ns - start_ns) / 1e9))
                    self.truth((server.address, start_ns, end_ns, pps))
        recv_ns = np.full(sent.shape, NO_REPLY, dtype=np.int64)
        recv_ns[delivered] = (sent + rtt)[delivered]
        ip_id = np.zeros(sent.shape, dtype=np.uint16)
        ip_id[delivered] = _reply_ids(servers, served, arrivals[delivered], background[arriving])
        return recv_ns, ip_id


def _reply_ids(servers: list[SimulatedServer], served: np.ndarray, arrivals: np.ndarray,
               counts: np.ndarray) -> np.ndarray:
    """The IP IDs (int64) of the replies ``servers[v]`` serves to the next
    ``served[v]`` of the echoes arriving at ``arrivals``, where the count
    reads ``counts``; each reply moves the counter by one."""
    offsets = np.zeros(len(servers) + 1, dtype=np.int64)
    offsets[1:] = np.add.accumulate(served)
    behaviors = [server.id_behavior for server in servers]
    # int() of each count, plus the replies served before it
    replies = np.array([server.reply_packets for server in servers], dtype=np.int64)
    ids = (counts.astype(np.int64) + np.repeat(replies - offsets[:-1], served)
           + np.arange(len(arrivals))) & 0xFFFF
    constant = np.repeat([behavior is IdBehavior.CONSTANT_OR_PERFLOW for behavior in behaviors],
                         served)
    ids[constant] = np.repeat([server.constant_id for server in servers], served)[constant]
    randoms = [visit for visit, behavior in enumerate(behaviors)
               if behavior is IdBehavior.RANDOM and served[visit]]
    if randoms:
        random = np.repeat([behavior is IdBehavior.RANDOM for behavior in behaviors], served)
        at, sizes = arrivals[random], served[randoms]
        heads = np.zeros(len(randoms), dtype=np.int64)
        heads[1:] = np.add.accumulate(sizes[:-1])
        # n: the place of each echo among those of its visit arriving at its time
        run = np.ones(len(at), dtype=bool)
        run[1:] = at[1:] != at[:-1]
        run[heads] = True
        place = np.arange(len(at))
        nth = place - np.maximum.accumulate(np.where(run, place, 0))
        # those arriving when the visit before ended come after its last echoes
        carried = []
        for visit, first in zip(randoms, at[heads].tolist()):
            last = servers[visit]._last_arrival
            carried.append(last[1] if last is not None and last[0] == first else 0)
        nth += np.repeat(carried, sizes) * (at == np.repeat(at[heads], sizes))
        id_keys = _absorb_all(np.array([servers[visit]._key for visit in randoms],
                                       dtype=np.uint64), _IDS)
        states = _absorb_all(np.repeat(id_keys, sizes), at)
        ids[random] = (splitmix64(states, (nth + 1).astype(np.uint64)) >> _U48).astype(np.int64)
        for visit, end in zip(randoms, (heads + sizes - 1).tolist()):
            servers[visit]._last_arrival = (int(at[end]), int(nth[end]) + 1)
    for server, count in zip(servers, served.tolist()):
        server.reply_packets += count
    return ids
