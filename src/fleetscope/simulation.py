"""Virtual target fleet: DNS zone, echo responders, and traffic profiles.

Time is virtual throughout, so a ten-day campaign replays in seconds. Every
responder integrates its traffic profile into a cumulative packet counter;
in global-counter mode the exposed IP ID is that counter mod 65536, with
the echo reply itself incrementing it by one, which is exactly what a rate
estimator has to cope with. The counter is integrated per 1 s bin of server
time, not per echo, and is linear within a bin. Each bin an echo falls in
draws one noise factor, and the whole bins between visits are one step with
one factor; a step of width W has the std ``noise_rel * sqrt(30 ms / W)``.
The transport hands each visit's exact mean rate of that counter to a
truth destination so estimates can be judged against ground truth.

All randomness (profile noise, random IDs, probe loss) comes from streams
seeded by the fleet seed and the server address: one seed, one behaviour.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .ipid import IdBehavior
from .names import parse_server_name
from .store import MAX_RTT_NS
from .transport import Replies

DAY_S = 86400.0
# the responder draws one noise factor per bin of server time
BIN_NS = 1_000_000_000
# the width whose noise step has the std noise_rel (see TrafficProfile)
NOISE_STEP_NS = 30_000_000


def parse_hhmm(text: str) -> float:
    """'23:30' -> seconds since local midnight."""
    hours, _, minutes = text.partition(":")
    return int(hours) * 3600.0 + int(minutes or 0) * 60.0


@dataclass(frozen=True)
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
    """One responder: a name, an address, a profile and an ID counter."""

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
    _noise_rng: random.Random | None = field(default=None, init=False, repr=False)
    _id_rng: random.Random | None = field(default=None, init=False, repr=False)

    def bind_rngs(self, seed: int) -> None:
        """Seed the streams this server draws from, and only those: profile
        noise when ``noise_rel`` is positive, IDs when they are random."""
        if self.profile.noise_rel > 0:
            self._noise_rng = random.Random(f"{seed}:{self.address}:noise")
        if self.id_behavior is IdBehavior.RANDOM:
            self._id_rng = random.Random(f"{seed}:{self.address}:ids")

    def advance(self, times_ns: Sequence[int]) -> np.ndarray:
        """Integrate the profile up to each of the ascending ``times_ns`` in
        turn: returns the background packet count at each, as float64.

        The count is piecewise linear in time, with knots at 1 s bin edges.
        Each bin a time falls in (or its part past the clock, for a clock
        that no earlier call left inside a bin) is one noise step: its
        factor is drawn in time order the first time a call reaches into it
        and kept while later calls continue inside it. A time on the start
        edge of a bin, where the step before it ends, reads that step's end
        and opens no step. A span of whole bins that no time falls in is
        one step with one draw. A step of width W has the std
        ``noise_rel * sqrt(NOISE_STEP_NS / W)``, clipped so the count never
        falls. So the counter depends on the times alone, not on how they
        are split into calls; a fixed seed and campaign replays
        identically. The clock never moves backwards: a time behind it reads
        the count at the clock.
        """
        times = np.asarray(times_ns, dtype=np.int64)
        if not len(times) or times[-1] <= self.time_ns:
            return np.full(len(times), self.background_packets)
        if self._open_step is None:  # no call has moved the clock yet
            xs, ys = [self.time_ns], [self.background_packets]
        else:
            xs, ys = list(self._open_step[:2]), list(self._open_step[2:])
        known = len(xs)
        beyond = times[times > xs[-1]]
        starts = np.unique(beyond // BIN_NS) * BIN_NS
        edge_only = ()  # the bins whose times all sit on their start edge
        if np.count_nonzero(beyond % BIN_NS) < len(beyond):
            last = beyond[np.searchsorted(beyond, starts + BIN_NS) - 1]
            edge_only = set(starts[last == starts].tolist())
        for start in starts.tolist():
            if start == xs[-1] and start in edge_only:
                continue  # those times read the end of the step before, as a later call's would
            if start > xs[-1]:
                xs.append(start)  # the whole bins before this one: one step
            xs.append(start + BIN_NS)
        cumulative = self.profile._cumulative
        noise_rel = self.profile.noise_rel if self._noise_rng is not None else 0.0
        before = cumulative(xs[known - 1] / 1e9)
        for at, to in zip(xs[known - 1:-1], xs[known:]):
            after = cumulative(to / 1e9)
            factor = 1.0
            if noise_rel > 0:
                std = noise_rel * math.sqrt(NOISE_STEP_NS / (to - at))
                factor = max(0.0, 1.0 + std * self._noise_rng.gauss(0.0, 1.0))
            ys.append(ys[-1] + (after - before) * factor)
            before = after
        background = np.interp(np.maximum(times, self.time_ns), xs, ys)
        self._open_step = (xs[-2], xs[-1], ys[-2], ys[-1])
        self.background_packets = float(background[-1])
        self.time_ns = int(times[-1])
        return background

    def serve_visit(self, at_ns: Sequence[int]) -> np.ndarray:
        """Answer echoes arriving at the ascending times ``at_ns``: ``advance``
        to each, then read its reply's IP ID (returned as int64); the reply
        itself moves the counter by one."""
        count = len(at_ns)
        background = self.advance(at_ns)
        if self.id_behavior is IdBehavior.GLOBAL_COUNTER:
            # int() of each count, plus the replies served before it
            ids = (background.astype(np.int64) + self.reply_packets + np.arange(count)) & 0xFFFF
        elif self.id_behavior is IdBehavior.RANDOM:
            randrange = self._id_rng.randrange
            ids = np.array([randrange(0, 1 << 16) for _ in range(count)], dtype=np.int64)
        else:
            ids = np.full(count, self.constant_id, dtype=np.int64)
        self.reply_packets += count
        return ids


class SimulatedFleet:
    """All simulated servers plus the DNS zone that names them."""

    def __init__(self, servers: Iterable[SimulatedServer], seed: int = 0,
                 domain_suffix: str = "nflxvideo.net"):
        self.seed = seed
        self.domain_suffix = domain_suffix
        self.servers = list(servers)
        self.by_address: dict[str, SimulatedServer] = {}
        names: set[str] = set()
        for server in self.servers:
            parse_server_name(server.name, domain_suffix=domain_suffix)
            if server.address in self.by_address:
                raise ValueError(f"duplicate address {server.address}")
            if server.name in names:
                raise ValueError(f"duplicate name {server.name}")
            server.bind_rngs(seed)
            self.by_address[server.address] = server
            names.add(server.name)

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
        suffix = config.get("domain_suffix", "nflxvideo.net")
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
    moves the clock to the last. ``end_visit`` advances the responder to
    the visit's first send, draws the visit's losses, one per send in
    sequence order, and serves the delivered echoes in one ``serve_visit``
    call: nothing else touches a responder while one of its visits is
    open, so its replies are those it would have given as each echo
    arrived.

    ``truth``, if given, gets ``(target, start_ns, end_ns, true_pps)`` as
    each such window closes; the transport keeps no record of its own.
    """

    def __init__(self, fleet: SimulatedFleet, loss_rate: float = 0.0,
                 truth: Callable[[tuple[str, int, int, float]], None] | None = None):
        self.fleet = fleet
        self.loss_rate = loss_rate
        self.truth = truth
        self._now_ns = 0
        self._loss_rngs: dict[str, random.Random] = {}

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

    def send_run(self, targets: Sequence[str], first_ns: int, interval_ns: int, start: int,
                 stop: int, not_before_ns: np.ndarray) -> np.ndarray:
        """The send times of the per-send loop on this clock, where a send
        takes no time: each index waits for its due time, then each target in
        turn for its previous send plus the interval.

        Index ``start`` is a running maximum, in target order, of the clock,
        its due time and each previous send plus the interval. A later index
        sends each target at the latest of its send of the index before plus
        the interval, the index's due time and the index before's last send.
        From index ``start`` on, the last target's sends step by one
        interval, and no due time is later than index ``start``'s sends plus
        the intervals between, so each later index is index ``start``,
        raised to its last send less one interval, plus the intervals
        between."""
        due_ns = first_ns + start * interval_ns
        first = np.maximum.accumulate(np.maximum(
            np.asarray(not_before_ns, dtype=np.int64) + interval_ns, max(self._now_ns, due_ns)))
        later = np.maximum(first, int(first[-1]) - interval_ns)
        sent_ns = later[:, None] + interval_ns * np.arange(stop - start, dtype=np.int64)
        sent_ns[:, 0] = first
        self._now_ns = int(sent_ns[-1, -1])
        return sent_ns

    def end_visit(self, target: str, sent_ns: np.ndarray) -> Replies:
        server = self.fleet.by_address.get(target)
        if server is None or not server.reachable:
            none = np.zeros(0, dtype=np.int64)
            return none, none, none
        # Python ints keep the responder's clock and the truth row's repr exact
        start_ns, end_ns = int(sent_ns[0]), int(sent_ns[-1])
        server.advance([start_ns])
        start_packets = server.background_packets
        seq = np.arange(len(sent_ns), dtype=np.int64)
        if self.loss_rate:
            draw = self._loss_rng(target).random
            seq = seq[[draw() >= self.loss_rate for _ in range(len(sent_ns))]]
        delivered = sent_ns[seq]
        ip_id = server.serve_visit(delivered + server.rtt_ns // 2)
        if end_ns > start_ns:
            server.advance([end_ns])
            # the counter moved up to the last serve, half an RTT past the last send
            pps = (server.background_packets - start_packets) / ((server.time_ns - start_ns) / 1e9)
            if self.truth is not None:
                self.truth((target, start_ns, end_ns, pps))
        return seq, delivered + server.rtt_ns, ip_id
