"""Virtual target fleet: DNS zone, echo responders, and traffic profiles.

Time is virtual throughout, so a ten-day campaign replays in seconds. Each
responder's background count, the packets it has sent by time t, is a pure
function of its key and t; in global-counter mode the exposed IP ID is that
count plus the echo replies served before, mod 65536, which is exactly what
a rate estimator has to cope with. The count is a keyed multiplicative
cascade over the traffic profile (Feldmann, Gilbert & Willinger, "Data
networks as cascades", SIGCOMM 1998; see ``_counts``). The transport
answers every visit of a slot in one call, with a few numpy passes over the
slot's probes, and hands each visit's exact mean rate of that count to a
truth destination so estimates can be judged against ground truth.

Every random draw (cascade shares, random IDs, probe loss) is a splitmix64
word keyed by what it is drawn for, so the simulator keeps no generator
state and no draw depends on an earlier one or on what was read before. A
server's key absorbs the fleet seed and its address; each stream absorbs a
tag into it. A share is keyed by its cell's midpoint, a random ID by its
echo's arrival time, and a loss by its visit's first send time and its
sequence number. One seed, one behaviour.
"""

from __future__ import annotations

import ipaddress
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from .ipid import BEHAVIORS, IdBehavior
from .names import DEFAULT_DOMAIN_SUFFIX, Wordlists, parse_server_name
from .store import MAX_RTT_NS
from .transport import NO_REPLY

DAY_S = 86400.0
# the cascade's finest cell; the count is linear inside one
BIN_NS = 1_000_000_000
# the width whose mean has the std noise_rel (see TrafficProfile)
NOISE_STEP_NS = 30_000_000
# a top cell of the cascade spans 2**_DEPTH bins (~12 days)
_DEPTH = 20
# the variance of the mean over a cell at each depth, in units of
# noise_rel**2: 0 for a top cell, whose integral is exact, and below it 30 ms
# over the cell's width
_CELL_VARIANCE = np.array([0.0] + [math.ldexp(NOISE_STEP_NS / BIN_NS, depth - _DEPTH)
                                   for depth in range(1, _DEPTH + 1)])

# splitmix64 (Steele, Lea & Flood, OOPSLA 2014): word n of the generator
# from state s is the finaliser of s + n * _GAMMA, so any word is computed
# from its key alone. Every hash runs on uint64 arrays: numpy 1.24 makes
# np.uint64 with an int a float64, and a uint64 scalar warns on overflow
_GAMMA = 0x9E3779B97F4A7C15
_MUL1, _MUL2 = 0xBF58476D1CE4E5B9, 0x94D049BB133111EB
_U = np.uint64
_U11, _U27, _U30, _U31, _U48 = _U(11), _U(27), _U(30), _U(31), _U(48)
# the tag each stream absorbs into a server's key
_NOISE, _IDS, _LOSS = 1, 2, 3
# the ID-behaviour codes of a fleet's behavior column: indices into BEHAVIORS
_RANDOM = BEHAVIORS.index(IdBehavior.RANDOM)
_CONSTANT = BEHAVIORS.index(IdBehavior.CONSTANT_OR_PERFLOW)
# end_run answers a slot in chunks of whole visits of at most this many
# probes, or of one visit if it is longer; a chunk costs ~200 numpy calls
# whatever its size. The paper-shaped hour (156 visits of 2,000 probes a
# slot) peaked at 50.5, 51.8-52.9 and 52.9-53.1 MB in chunks of 4,096,
# 16,384 and 32,768 probes (2 vCPUs, numpy 2.4); a fleet-sweep slot is one.
CHUNK_PROBES = 16_384
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


def parse_hhmm(text: str) -> float:
    """'23:30' -> seconds since local midnight; an hour alone is on the
    hour. A time past 24:00, or with minutes of 60 or more, raises a
    ValueError."""
    hours, _, minutes = text.partition(":")
    hours, minutes = int(hours), int(minutes or 0)
    if not (0 <= hours and 0 <= minutes < 60 and hours * 60 + minutes <= 24 * 60):
        raise ValueError(f"{text!r} is not a time of day HH:MM")
    return hours * 3600.0 + minutes * 60.0


@dataclass(frozen=True, slots=True)
class TrafficProfile:
    """Instantaneous send rate of a simulated server.

    The deterministic part is a daily sinusoid peaking at ``peak_local_s``
    plus an optional content-fill burst: a raised cosine inside the fill
    window, zero at the edges and ``fill_extra_pps`` high at the window
    midpoint. The responder's cascade (``_counts``) keeps the exact
    integral of that rate over each ~12-day top cell and moves packets
    between the halves of each cell below it: the mean factor of any W whole
    seconds has mean 1 and std ``noise_rel * sqrt(30 ms / W)``, as if each
    30 ms echo drew a factor of std ``noise_rel``. Every value is finite,
    the peak time and the timezone offset within a day, and ``noise_rel``
    at most 5: above ~5.8 a split would move more than a half's packets.
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
        # NaN fails every comparison, so each check refuses it
        if not 0.0 <= self.base_pps < math.inf:
            raise ValueError(f"base_pps must be >= 0 and finite, not {self.base_pps!r}")
        if not 0.0 <= self.diurnal_amplitude <= 1.0:
            raise ValueError("diurnal_amplitude must be within [0, 1]")
        if not 0.0 <= self.peak_local_s <= DAY_S:
            raise ValueError(f"peak_local_s must be within a day, not {self.peak_local_s!r}")
        if not -DAY_S <= self.tz_offset_s <= DAY_S:
            raise ValueError(f"tz_offset_s must be within a day, not {self.tz_offset_s!r}")
        if not 0.0 <= self.fill_extra_pps < math.inf:
            raise ValueError(
                f"fill_extra_pps must be >= 0 and finite, not {self.fill_extra_pps!r}")
        if not 0.0 <= self.fill_start_s < self.fill_end_s <= DAY_S:
            raise ValueError("fill window must satisfy 0 <= start < end <= 24h")
        if not 0.0 <= self.noise_rel <= 5.0:
            raise ValueError(f"noise_rel must be within [0, 5], not {self.noise_rel!r}")


def _cumulative(profiles: np.ndarray, owners: np.ndarray, t_s: np.ndarray) -> np.ndarray:
    """The antiderivative of the deterministic rate of column ``owners[i]``
    of a fleet's ``profiles`` table at UTC time ``t_s[i]``: numpy's
    arithmetic, which rounds as IEEE requires, and the sines of ``math``,
    since numpy's can differ by an ulp across CPUs."""
    base, amplitude, peak, tz, extra, start, end = profiles[:, owners]
    local = t_s + tz
    sines = list(map(math.sin, (_TAU * (local - peak) / DAY_S).tolist()))
    total = base * (t_s + amplitude * (DAY_S / _TAU) * np.array(sines))
    filled = np.flatnonzero(extra)
    local, start, width = local[filled], start[filled], end[filled] - start[filled]
    days = np.floor(local / DAY_S)
    x = np.minimum(np.maximum(local - days * DAY_S - start, 0.0), width)
    sines = list(map(math.sin, (_TAU * x / width).tolist()))
    partial = 0.5 * (x - (width / _TAU) * np.array(sines))
    total[filled] += extra[filled] * (days * 0.5 * width + partial)
    return total


# a fleet loads thousands: a named tuple has no per-server __dict__, and
# 4,669 build in 3.7 ms against a frozen dataclass's 11.5 ms (Python 3.11)
class SimulatedServer(NamedTuple):
    """One responder's configuration: a name, an address, a profile, how it
    sets its IP IDs, whether it answers, and its round-trip time."""

    name: str
    address: str
    profile: TrafficProfile
    id_behavior: IdBehavior = IdBehavior.GLOBAL_COUNTER
    reachable: bool = True
    rtt_ns: int = 5_000_000
    constant_id: int = 7


class SimulatedFleet:
    """All simulated servers plus the DNS zone that names them.

    ``positions`` maps each address to its server's position in ``servers``,
    which indexes the one array per value the responder reads: the
    ``noise_keys``, ``id_keys`` and ``loss_keys``, ``rtt_ns``, ``reachable``,
    ``behavior`` (an index into ``ipid.BEHAVIORS``), ``constant_id``, the
    ``profiles`` table that ``_cumulative`` reads, ``noise_rel``,
    ``zero_integral`` (the profile's integral at time 0), and ``replies``."""

    def __init__(self, servers: Iterable[SimulatedServer], seed: int = 0,
                 domain_suffix: str = DEFAULT_DOMAIN_SUFFIX):
        self.seed = seed
        self.domain_suffix = domain_suffix
        self.servers = list(servers)
        self.positions: dict[str, int] = {}
        names: set[str] = set()
        parsed = []
        for position, server in enumerate(self.servers):
            parsed.append(parse_server_name(server.name, domain_suffix=domain_suffix))
            if server.address in self.positions:
                raise ValueError(f"duplicate address {server.address}")
            if server.name in names:
                raise ValueError(f"duplicate name {server.name}")
            self.positions[server.address] = position
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
        # and each stream's key: the server's with the stream's tag absorbed
        self.noise_keys, self.id_keys, self.loss_keys = _absorb_all(
            _absorb_all(keys, lengths), np.array([[_NOISE], [_IDS], [_LOSS]]))
        self.rtt_ns, reachable, self.behavior, self.constant_id = np.array(
            [(s.rtt_ns, s.reachable, BEHAVIORS.index(s.id_behavior), s.constant_id)
             for s in self.servers], dtype=np.int64).reshape(-1, 4).T
        self.reachable = reachable == 1
        table = np.array([(p.base_pps, p.diurnal_amplitude, p.peak_local_s, p.tz_offset_s,
                           p.fill_extra_pps, p.fill_start_s, p.fill_end_s, p.noise_rel)
                          for p in (s.profile for s in self.servers)]).reshape(-1, 8).T
        self.profiles, self.noise_rel = table[:7], table[7]
        count = len(self.servers)
        self.zero_integral = _cumulative(self.profiles, np.arange(count), np.zeros(count))
        self.replies = np.zeros(count, dtype=np.int64)
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
        """The fleet a config describes. A missing ``servers`` list, or a
        top-level key, ``seed`` or ``domain_suffix`` it cannot use, raises a
        ValueError naming the key; a server without a ``name`` or an
        ``address``, or with an unknown server, profile or fill key or a value
        that does not parse or is out of range, one naming the server."""
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
            except (ValueError, TypeError, AttributeError, OverflowError) as exc:
                raise ValueError(f"servers[{index}] ({entry['name']}): {exc}") from None
        return cls(servers, seed=seed, domain_suffix=suffix)

    @classmethod
    def from_file(cls, path: str | Path) -> "SimulatedFleet":
        """``from_config`` of a JSON file; its ValueErrors name the file."""
        try:
            return cls.from_config(json.loads(Path(path).read_text()))
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None


# the keys a fleet server, its profile and the profile's fill may hold
_KEYS = ({"name", "address", "reachable", "rtt_ms", "id_behavior", "constant_id", "profile"},
         {"base_pps", "diurnal_amplitude", "peak_local", "tz_offset_hours", "noise_rel", "fill"},
         {"extra_pps", "start", "end"})


def _number(config: Mapping, key: str, default: float = 0.0) -> float:
    """``config[key]``, ``default`` if absent, which must be a JSON number."""
    value = config.get(key, default)
    if type(value) not in (int, float):
        raise ValueError(f"{key!r} is not a JSON number: {value!r}")
    return float(value)


def _server_from_config(entry: Mapping) -> SimulatedServer:
    profile_cfg = entry.get("profile", {})
    fill = profile_cfg.get("fill") or {}
    for keys, config, inside in zip(_KEYS, (entry, profile_cfg, fill),
                                    ("", " in 'profile'", " in 'fill'")):
        if not config.keys() <= keys:
            unknown = next(key for key in config if key not in keys)
            raise ValueError(f"unknown key {unknown!r}{inside}")
    reachable = entry.get("reachable", True)
    if type(reachable) is not bool:
        raise ValueError(f"'reachable' is not a JSON bool: {reachable!r}")
    rtt_ms = _number(entry, "rtt_ms", 5.0)
    if not 0 <= rtt_ms < math.inf:
        raise ValueError(f"'rtt_ms' is not a finite number >= 0: {rtt_ms!r}")
    rtt_ns = round(rtt_ms * 1e6)
    if rtt_ns > MAX_RTT_NS:  # a sample stores no longer round trip
        raise ValueError(f"'rtt_ms' is not at most {MAX_RTT_NS / 1e6} ms: {rtt_ms!r}")
    ipaddress.ip_address(str(entry["address"]))  # str(): it would take a JSON number
    constant_id = entry.get("constant_id", 7)
    if type(constant_id) is not int or not 0 <= constant_id <= 0xFFFF:
        raise ValueError(f"'constant_id' is not a JSON integer in 0..65535: {constant_id!r}")
    profile = TrafficProfile(
        base_pps=_number(profile_cfg, "base_pps"),
        diurnal_amplitude=_number(profile_cfg, "diurnal_amplitude"),
        peak_local_s=parse_hhmm(profile_cfg.get("peak_local", "23:30")),
        tz_offset_s=_number(profile_cfg, "tz_offset_hours") * 3600.0,
        noise_rel=_number(profile_cfg, "noise_rel"),
        fill_extra_pps=_number(fill, "extra_pps"),
        fill_start_s=parse_hhmm(fill.get("start", "02:00")),
        fill_end_s=parse_hhmm(fill.get("end", "14:00")),
    )
    return SimulatedServer(name=entry["name"], address=entry["address"], profile=profile,
                           id_behavior=IdBehavior(entry.get("id_behavior", "global_counter")),
                           reachable=reachable, rtt_ns=rtt_ns, constant_id=constant_id)


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

    ``send_run`` only computes the send times and moves the clock to the
    last. ``end_run`` draws the slot's losses and answers each visit from
    the responder's background count, a function of time alone, so its
    replies are those it would have given as each echo arrived. Send
    ``seq`` is lost when the top 53 bits of word ``seq + 1`` of splitmix64
    from the visit's first send time, absorbed into the target's loss key,
    are below ``ceil(loss_rate * 2**53)``: a function of the fleet seed,
    the target, the visit's first send and ``seq`` alone.

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
        index = self.fleet.positions
        positions = np.array([index.get(target, -1) for target in targets], dtype=np.int64)
        rows = np.flatnonzero(positions >= 0)
        rows = rows[self.fleet.reachable[positions[rows]]]
        step = max(1, CHUNK_PROBES // sent_ns.shape[1])
        for first in range(0, len(rows), step):
            chunk = rows[first:first + step]
            recv_ns[chunk], ip_id[chunk] = self._answer(positions[chunk], sent_ns[chunk])
        return recv_ns, ip_id

    def _answer(self, positions: np.ndarray,
                sent: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``end_run`` of the visits to the fleet's servers at ``positions``,
        sent at the rows of ``sent``. Each visit reads its responder's
        background count (``_counts``) at its first send, each delivered
        echo's arrival and its last serve, the last send or the last
        delivered arrival past it; its truth is the mean rate between the
        first and the last of these. A reply's ID is the counter (the count
        plus the replies served before) mod 65536 for a global counter, the
        constant for a constant one, and for a random one the top 16 bits of
        word 1 of splitmix64 from the echo's arrival time absorbed into the
        server's ID key, so echoes that arrive at one instant get one ID."""
        fleet = self.fleet
        count = sent.shape[1]
        starts, ends = sent[:, 0], sent[:, -1]
        rtt = fleet.rtt_ns[positions][:, None]
        arrivals = sent + rtt // 2
        if self.loss_rate:
            states = _absorb_all(fleet.loss_keys[positions], starts)
            delivered = (splitmix64(states[:, None], np.arange(1, count + 1, dtype=np.uint64))
                         >> _U11 >= _U(math.ceil(self.loss_rate * 2**53)))
            last = np.maximum(ends, np.where(delivered, arrivals, starts[:, None]).max(axis=1))
        else:
            delivered = np.ones(sent.shape, dtype=bool)
            last = arrivals[:, -1]
        # each visit's reads: its first send, its arrivals, then its last serve
        reads = np.concatenate((starts[:, None], arrivals, last[:, None]), axis=1)
        background = _counts(fleet, np.repeat(positions, count + 2),
                             reads.ravel()).reshape(reads.shape)
        if self.truth is not None:
            windows = np.flatnonzero(ends > starts)
            pps = ((background[windows, -1] - background[windows, 0])
                   / ((last - starts)[windows] / 1e9))
            for visit, rate in zip(windows.tolist(), pps.tolist()):
                self.truth((fleet.servers[positions[visit]].address, int(starts[visit]),
                            int(ends[visit]), rate))
        recv_ns = np.full(sent.shape, NO_REPLY, dtype=np.int64)
        recv_ns[delivered] = (sent + rtt)[delivered]
        ip_id = np.zeros(sent.shape, dtype=np.uint16)
        ip_id[delivered] = _reply_ids(fleet, positions, np.count_nonzero(delivered, axis=1),
                                      arrivals[delivered], background[:, 1:-1][delivered])
        return recv_ns, ip_id


def _counts(fleet: SimulatedFleet, owners: np.ndarray, t_ns: np.ndarray) -> np.ndarray:
    """The background count of the server at position ``owners[i]`` of
    ``fleet`` at ``t_ns[i]``: the packets it has sent since time 0, a pure
    function of its key and the time. Reads of one owner in ascending time
    share their cells' work.

    A top cell of 2**_DEPTH bins holds the profile's exact integral. Each
    cell below splits its count at its midpoint m at the share
    q = p + min(p, 1 - p) * a * (2u - 1): p is the profile's share of the
    left half, u the top 53 bits of the noise key absorbing m (in bins,
    which names the cell) as a fraction of 2**53, and a gives the mean over
    each cell the variance noise_rel**2 * _CELL_VARIANCE, with distinct bins
    uncorrelated. The count at m is the count at the cell's start plus q
    times the count across it, at most the count at its end, so no rounding
    lets it fall; it is linear inside a bin.
    """
    bins, into = np.divmod(t_ns, BIN_NS)
    # each owner's distinct bins, adjacent in ascending reads, and their reads
    new = np.ones(len(bins), dtype=bool)
    new[1:] = (bins[1:] != bins[:-1]) | (owners[1:] != owners[:-1])
    firsts = np.flatnonzero(new)
    runs = np.diff(np.append(firsts, len(bins)))
    holders, bins = owners[firsts], bins[firsts]
    # each bin's cell at each level (rows; the last is the bin itself), each
    # distinct cell once in level-major order, and which one each bin's is
    cells = bins >> np.arange(_DEPTH, -1, -1, dtype=np.int64)[:, None]
    fresh = np.ones((_DEPTH, len(bins)), dtype=bool)
    fresh[:, 1:] = (cells[:-1, 1:] != cells[:-1, :-1]) | (holders[1:] != holders[:-1])
    distinct = np.flatnonzero(fresh)
    cell_of = (np.add.accumulate(fresh.ravel(), dtype=np.int64) - 1).reshape(fresh.shape)
    levels, columns = np.divmod(distinct, len(bins))
    index, cell_owners = cells[:-1].ravel()[distinct], holders[columns]
    # the profile's integral at each distinct cell's midpoint, and each top
    # cell's start and end
    n_cells, n_tops = len(distinct), int(np.count_nonzero(fresh[0]))
    spans = np.left_shift(1, levels)
    widths = (1 << _DEPTH) // spans
    middles, tops = index * widths + widths // 2, index[:n_tops] * widths[:n_tops]
    integrals = _cumulative(
        fleet.profiles, np.concatenate((cell_owners, cell_owners[:n_tops], cell_owners[:n_tops])),
        np.concatenate((middles, tops, tops + (1 << _DEPTH))).astype(np.float64))
    # a cell starts at the midpoint of the deepest level above it where its
    # path went right (the lowest set bit of its index below its top cell),
    # or at its top cell's start, and ends at that where it went left (the
    # lowest clear bit), or at its top cell's end
    path = index & (spans - 1)
    ones, zeros = path & -path, ~path & (path + 1)
    top = cell_of[0, columns]
    low = integrals[np.where(ones > 0, cell_of[levels - np.frexp(ones)[1], columns],
                             n_cells + top)]
    high = integrals[np.where(zeros < spans, cell_of[levels - np.frexp(zeros)[1], columns],
                              n_cells + n_tops + top)]
    across = high - low
    shares = np.full(n_cells, 0.5)
    np.divide(integrals[:n_cells] - low, across, out=shares, where=across > 0)
    np.clip(shares, 0.0, 1.0, out=shares)
    # a from the variance of the mean over the cell and over its halves
    noise = fleet.noise_rel[cell_owners]
    above = noise * noise * _CELL_VARIANCE[levels]
    below = noise * noise * _CELL_VARIANCE[levels + 1]
    amplitudes = np.sqrt(3.0 * (below - above) / (1.0 + above))
    jitter = (_absorb_all(fleet.noise_keys[cell_owners], middles) >> _U11) * 2.0**-52 - 1  # 2u - 1
    shares += np.minimum(shares, 1.0 - shares) * amplitudes * jitter

    # down from each top cell's counts: the count at each level's midpoint,
    # then the half each bin lies in; rows 0 and 1 of sides pick the bins in
    # the right half, whose start moves, and those in the left
    edges = integrals[n_cells + np.stack((cell_of[0], n_tops + cell_of[0]))]
    edges -= fleet.zero_integral[holders]
    shares = shares[cell_of]
    right = (cells[1:] & 1).astype(bool)
    sides = np.stack((right, ~right), axis=1)
    split = np.empty(len(bins))
    for level in range(_DEPTH):
        np.subtract(edges[1], edges[0], out=split)
        split *= shares[level]
        split += edges[0]
        np.minimum(split, edges[1], out=split)
        np.copyto(edges, split, where=sides[level])
    low, high = edges
    counts = np.repeat((high - low) / BIN_NS, runs) * into
    counts += np.repeat(low, runs)
    return np.minimum(counts, np.repeat(high, runs), out=counts)


def _reply_ids(fleet: SimulatedFleet, positions: np.ndarray, served: np.ndarray,
               arrivals: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The IP IDs (int64) of the replies of the servers at ``positions``,
    ``served[v]`` each, to the echoes arriving at ``arrivals``, where the
    count reads ``counts``; each reply moves ``fleet.replies`` on by one."""
    # int() of each count, plus the replies served before it
    firsts = fleet.replies[positions] - (np.add.accumulate(served) - served)
    ids = (counts.astype(np.int64) + np.repeat(firsts, served) + np.arange(len(arrivals))) & 0xFFFF
    owners = np.repeat(positions, served)
    behavior = fleet.behavior[owners]
    constant = behavior == _CONSTANT
    ids[constant] = fleet.constant_id[owners[constant]]
    random = behavior == _RANDOM
    states = _absorb_all(fleet.id_keys[owners[random]], arrivals[random])
    ids[random] = (splitmix64(states, _U(1)) >> _U48).astype(np.int64)
    np.add.at(fleet.replies, positions, served)
    return ids
