"""Shared builders for simulated fleets and records."""

from __future__ import annotations

import pytest

from fleetscope.discovery import ServerRecord
from fleetscope.ipid import IdBehavior
from fleetscope.names import parse_server_name
from fleetscope.simulation import SimulatedFleet, SimulatedServer, TrafficProfile


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

    def query(self, name):
        self.calls += 1
        if self.calls > self.after:
            raise KeyboardInterrupt
        return self.inner.query(name)


@pytest.fixture
def steady_server() -> SimulatedServer:
    return make_server(base_pps=1000.0)
