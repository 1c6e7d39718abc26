"""Shared builders for simulated fleets, fleet files, visits and records."""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from fleetscope import simulation
from fleetscope.discovery import ServerRecord
from fleetscope.ipid import IdBehavior
from fleetscope.names import parse_server_name
from fleetscope.probe import CampaignParams, run_campaign
from fleetscope.simulation import (SimulatedFleet, SimulatedServer, SimulatedTransport,
                                   TrafficProfile)
from fleetscope.store import VisitFrame
from fleetscope.transport import NO_REPLY


def make_hostname(
    airport: str = "lhr",
    site: int = 1,
    counter: int = 1,
    operator: str = "ix",
    protocol: str = "ipv4",
    nic: str = "lagg0",
) -> str:
    return f"{protocol}_1-{nic}-c{counter:03d}.1.{airport}{site:03d}.{operator}.nflxvideo.net"


_NEXT_ADDR = [0]


def next_address() -> str:
    _NEXT_ADDR[0] += 1
    n = _NEXT_ADDR[0]
    return f"198.18.{n // 250}.{n % 250 + 1}"


def make_server(
    base_pps: float,
    airport: str = "lhr",
    site: int = 1,
    counter: int = 1,
    operator: str = "ix",
    address: str | None = None,
    amplitude: float = 0.0,
    peak_local_s: float = 84600.0,
    tz_offset_h: float = 0.0,
    noise: float = 0.0,
    fill_extra: float = 0.0,
    behavior: IdBehavior = IdBehavior.GLOBAL_COUNTER,
    reachable: bool = True,
    rtt_ms: float = 5.0,
) -> SimulatedServer:
    return SimulatedServer(
        name=make_hostname(airport=airport, site=site, counter=counter, operator=operator),
        address=address or next_address(),
        profile=TrafficProfile(
            base_pps=base_pps,
            diurnal_amplitude=amplitude,
            peak_local_s=peak_local_s,
            tz_offset_s=tz_offset_h * 3600.0,
            noise_rel=noise,
            fill_extra_pps=fill_extra,
        ),
        id_behavior=behavior,
        reachable=reachable,
        rtt_ns=round(rtt_ms * 1e6),
    )


def make_fleet(servers: list[SimulatedServer], seed: int = 1) -> SimulatedFleet:
    return SimulatedFleet(servers, seed=seed)


def hhmm(seconds: float) -> str:
    """'HH:MM' of a time of day in whole minutes, as fleet configs write it."""
    minutes = round(seconds / 60)
    return f"{minutes // 60:02d}:{minutes % 60:02d}"


def write_fleet(path: Path, servers: list[SimulatedServer], seed: int = 5) -> Path:
    """Write ``servers`` as a fleet config for ``SimulatedFleet.from_file``:
    the fields ``make_server`` sets, its peak time in whole minutes."""
    entries = [{
        "name": s.name,
        "address": s.address,
        "id_behavior": s.id_behavior.value,
        "reachable": s.reachable,
        "rtt_ms": s.rtt_ns / 1e6,
        "profile": {
            "base_pps": s.profile.base_pps,
            "diurnal_amplitude": s.profile.diurnal_amplitude,
            "peak_local": hhmm(s.profile.peak_local_s),
            "tz_offset_hours": s.profile.tz_offset_s / 3600.0,
            "noise_rel": s.profile.noise_rel,
            "fill": {"extra_pps": s.profile.fill_extra_pps},
        },
    } for s in servers]
    path.write_text(json.dumps({"seed": seed, "servers": entries}, indent=2) + "\n")
    return path


def one_visit(address: str, interval_s: float, dwell_s: float, transport) -> VisitFrame:
    """The frame of a one-visit ``run_campaign`` of ``address``, which
    starts at the transport's clock."""
    params = CampaignParams(probe_interval_s=interval_s, dwell_s=dwell_s, workers=1,
                            total_duration_s=dwell_s, max_visits_per_hour=None)
    visits = []
    run_campaign([address], params, transport, visits.append)
    (visit,) = visits
    return visit


def serve_visit(fleet: SimulatedFleet, server: SimulatedServer, at_ns) -> np.ndarray:
    """The IDs of ``server``'s replies to echoes arriving at the ascending
    times ``at_ns``: one lossless ``end_run`` of a visit sent half an RTT
    before them, which also reads the count at its first and last sends.
    No times are no visit."""
    if not len(at_ns):
        return np.zeros(0, dtype=np.int64)
    sent_ns = np.asarray(at_ns, dtype=np.int64)[None, :] - server.rtt_ns // 2
    return SimulatedTransport(fleet).end_run([server.address], sent_ns)[1][0]


def count_at(fleet: SimulatedFleet, server: SimulatedServer, t_ns) -> np.ndarray:
    """``server``'s background count at each of the times ``t_ns`` in
    ``fleet``, read together."""
    t_ns = np.asarray(t_ns, dtype=np.int64)
    return simulation._counts(fleet, np.full(len(t_ns), fleet.positions[server.address]), t_ns)


def reply_columns(replies, row: int = 0) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row ``row`` of ``end_run``'s arrays as int64 columns ``(seq, recv_ns,
    ip_id)`` of the replies heard."""
    recv_ns, ip_id = replies
    seq = np.flatnonzero(recv_ns[row] != NO_REPLY)
    return seq, recv_ns[row][seq], ip_id[row][seq].astype(np.int64)


def reply_dict(replies, row: int = 0) -> dict[int, tuple[int, int]]:
    """Row ``row`` of ``end_run``'s arrays as ``{seq: (recv_ns, ip_id)}``."""
    seq, recv_ns, ip_id = (column.tolist() for column in reply_columns(replies, row))
    return dict(zip(seq, zip(recv_ns, ip_id)))


def public_methods(cls) -> set[str]:
    """The public callables of ``cls``, to compare a fake with its protocol."""
    return {name for name in dir(cls) if not name.startswith("_") and callable(getattr(cls, name))}


def record_for(server: SimulatedServer, seen_ns: int = 0) -> ServerRecord:
    return ServerRecord(
        name=parse_server_name(server.name),
        addresses=(server.address,),
        first_seen_ns=seen_ns,
        last_seen_ns=seen_ns,
    )


class InterruptingResolver:
    """Raises KeyboardInterrupt after a fixed number of queries."""

    def __init__(self, inner, after):
        self.inner = inner
        self.after = after
        self.calls = 0

    def now_ns(self):
        return self.inner.now_ns()

    def query(self, name):
        self.calls += 1
        if self.calls > self.after:
            raise KeyboardInterrupt
        return self.inner.query(name)


@pytest.fixture
def steady_server() -> SimulatedServer:
    return make_server(base_pps=1000.0)
