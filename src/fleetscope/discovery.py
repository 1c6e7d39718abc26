"""Enumeration crawl: resolve generated candidates and keep the hits.

The crawl walks the candidate stream, resolves each name through a
pluggable resolver, and records one ``ServerRecord`` per name that
resolves. Output is invariant under candidate order. The crawl runs on one
thread and keeps no cursor: an interrupted crawl reruns from the start.
"""

from __future__ import annotations

import logging
import socket
import time
from dataclasses import dataclass
from typing import Iterable, Mapping, Protocol

from .names import (
    OPERATOR_ISP,
    OPERATOR_IXP,
    ServerName,
    Wordlists,
    enumerate_candidates,
    format_server_name,
    parse_server_name,
)

logger = logging.getLogger(__name__)

OUTCOME_RESOLVED = "resolved"
OUTCOME_NXDOMAIN = "nxdomain"
OUTCOME_TIMEOUT = "timeout"
OUTCOME_SERVFAIL = "servfail"

# a timed-out or unavailable resolver is asked again this many times, this far apart
RETRIES = 2
RETRY_BACKOFF_S = 0.5


class ResolverUnavailable(Exception):
    """All resolver endpoints failed; distinct from an authoritative nxdomain."""


@dataclass(slots=True)
class ResolutionResult:
    """Outcome of one resolution attempt."""

    name: str
    outcome: str
    addresses: tuple[str, ...] = ()
    resolved_at_ns: int = 0

    def __post_init__(self) -> None:
        if self.outcome == OUTCOME_RESOLVED and not self.addresses:
            raise ValueError("resolved outcome requires at least one address")


class Resolver(Protocol):
    """One resolution attempt; retry policy lives in the crawl, not here."""

    def query(self, name: str) -> ResolutionResult: ...


class SystemResolver:
    """Resolve through the host's configured DNS via getaddrinfo."""

    def query(self, name: str) -> ResolutionResult:
        now = time.time_ns()
        try:
            infos = socket.getaddrinfo(name, None)
        except socket.gaierror as exc:
            if exc.errno in (socket.EAI_NONAME, getattr(socket, "EAI_NODATA", -5)):
                return ResolutionResult(name, OUTCOME_NXDOMAIN, (), now)
            if exc.errno == socket.EAI_AGAIN:
                return ResolutionResult(name, OUTCOME_TIMEOUT, (), now)
            return ResolutionResult(name, OUTCOME_SERVFAIL, (), now)
        except OSError as exc:
            raise ResolverUnavailable(str(exc)) from exc
        addresses = tuple(dict.fromkeys(info[4][0] for info in infos))
        if not addresses:
            return ResolutionResult(name, OUTCOME_NXDOMAIN, (), now)
        return ResolutionResult(name, OUTCOME_RESOLVED, addresses, now)


@dataclass(slots=True)
class ServerRecord:
    """A discovered server: parsed name, addresses, and discovery times."""

    name: ServerName
    addresses: tuple[str, ...]
    first_seen_ns: int
    last_seen_ns: int

    def __post_init__(self) -> None:
        if not self.addresses:
            raise ValueError("a record needs at least one address")

    @property
    def hostname(self) -> str:
        return format_server_name(self.name)

    @property
    def operator_kind(self) -> str:
        return self.name.operator_kind

    @property
    def isp_label(self) -> str | None:
        return self.name.isp_label

    @property
    def site_code(self) -> str:
        return self.name.site_code

    def to_json(self) -> dict:
        return {
            "v": 1,
            "name": self.hostname,
            "suffix": self.name.domain_suffix,
            "addresses": list(self.addresses),
            "first_seen_ns": self.first_seen_ns,
            "last_seen_ns": self.last_seen_ns,
            "operator_kind": self.operator_kind,
            "isp": self.isp_label,
            "airport": self.name.airport_code,
            "site": self.site_code,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "ServerRecord":
        return cls(
            name=parse_server_name(obj["name"], domain_suffix=obj.get("suffix", "nflxvideo.net")),
            addresses=tuple(obj["addresses"]),
            first_seen_ns=obj["first_seen_ns"],
            last_seen_ns=obj["last_seen_ns"],
        )


class RateLimiter:
    """Token bucket; capacity is a tenth of a second's worth of tokens."""

    def __init__(self, rate_per_s: float):
        if rate_per_s <= 0:
            raise ValueError("the query rate must be > 0")
        self.rate = rate_per_s
        self.capacity = max(1.0, rate_per_s / 10.0)
        self._tokens = self.capacity
        self._last = time.monotonic()

    def acquire(self) -> None:
        while True:
            now = time.monotonic()
            self._tokens = min(self.capacity, self._tokens + (now - self._last) * self.rate)
            self._last = now
            if self._tokens >= 1.0:
                self._tokens -= 1.0
                return
            time.sleep((1.0 - self._tokens) / self.rate)


def resolve_candidate(name: str, resolver: Resolver) -> ResolutionResult:
    """Resolve one candidate, retrying timeouts and unavailable resolvers
    ``RETRIES`` times, ``RETRY_BACKOFF_S`` apart.

    Only timeouts are retried; nxdomain is authoritative absence. Exactly
    one outcome is recorded per candidate. ``ResolverUnavailable``
    propagates once retries are exhausted.
    """
    attempts = 1 + RETRIES
    last: ResolutionResult | None = None
    for attempt in range(attempts):
        try:
            result = resolver.query(name)
        except ResolverUnavailable:
            if attempt == attempts - 1:
                raise
            time.sleep(RETRY_BACKOFF_S)
            continue
        if result.outcome != OUTCOME_TIMEOUT:
            return result
        last = result
        if attempt < attempts - 1 and RETRY_BACKOFF_S > 0:
            time.sleep(RETRY_BACKOFF_S)
    assert last is not None
    return last


def run_crawl(
    lists: Wordlists,
    resolver: Resolver,
    max_queries_per_second: float | None,
    domain_suffix: str = "nflxvideo.net",
) -> list[ServerRecord]:
    """Attempt every candidate once (plus timeout retries) and collect hits,
    at most ``max_queries_per_second`` candidates a second; ``None`` is
    unlimited, for resolvers that are ours (the simulator).

    Returns one record per resolved name, sorted by hostname.
    """
    limiter = RateLimiter(max_queries_per_second) if max_queries_per_second is not None else None
    found = []
    for candidate in enumerate_candidates(lists, domain_suffix=domain_suffix):
        if limiter is not None:
            limiter.acquire()
        result = resolve_candidate(candidate, resolver)
        if result.outcome == OUTCOME_RESOLVED:
            found.append(ServerRecord(
                name=parse_server_name(result.name, domain_suffix=domain_suffix),
                addresses=result.addresses,
                first_seen_ns=result.resolved_at_ns,
                last_seen_ns=result.resolved_at_ns,
            ))
    return sorted(found, key=lambda r: r.hostname)


@dataclass(frozen=True)
class KindCounts:
    servers: int
    locations: int
    countries: int


@dataclass(frozen=True)
class DiscoverySummary:
    """Per-operator-kind discovery counts. Totals are set-union sizes, so a
    location or country hosting both kinds is counted once."""

    isp: KindCounts
    ixp: KindCounts
    total: KindCounts
    isps_found: int
    unknown_airports: tuple[str, ...] = ()


def summarize_discovery(
    records: Iterable[ServerRecord], airport_countries: Mapping[str, str]
) -> DiscoverySummary:
    """Count servers, locations (distinct site codes), countries and ISPs.

    Countries come from ``airport_countries`` metadata; codes missing from
    it are reported in ``unknown_airports`` and excluded from country
    counts.
    """
    kinds = {OPERATOR_ISP: {"servers": 0, "locations": set(), "countries": set()},
             OPERATOR_IXP: {"servers": 0, "locations": set(), "countries": set()}}
    isps: set[str] = set()
    unknown: set[str] = set()
    for record in records:
        bucket = kinds[record.operator_kind]
        bucket["servers"] += 1
        bucket["locations"].add(record.site_code)
        country = airport_countries.get(record.name.airport_code)
        if country is None:
            unknown.add(record.name.airport_code)
        else:
            bucket["countries"].add(country)
        if record.isp_label is not None:
            isps.add(record.isp_label)

    def counts(kind: str) -> KindCounts:
        bucket = kinds[kind]
        return KindCounts(bucket["servers"], len(bucket["locations"]), len(bucket["countries"]))

    total = KindCounts(
        kinds[OPERATOR_ISP]["servers"] + kinds[OPERATOR_IXP]["servers"],
        len(kinds[OPERATOR_ISP]["locations"] | kinds[OPERATOR_IXP]["locations"]),
        len(kinds[OPERATOR_ISP]["countries"] | kinds[OPERATOR_IXP]["countries"]),
    )
    return DiscoverySummary(
        isp=counts(OPERATOR_ISP),
        ixp=counts(OPERATOR_IXP),
        total=total,
        isps_found=len(isps),
        unknown_airports=tuple(sorted(unknown)),
    )
