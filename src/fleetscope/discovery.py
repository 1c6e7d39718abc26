"""Prefix-walk crawl: resolve generated names and keep the hits.

The crawl walks each name prefix of the word lists (``names.name_prefixes``)
upward from server counter c001, resolves each name through a pluggable
resolver, and records one ``ServerRecord`` per name that resolves. A
prefix's walk stops ``MISS_RUN`` misses past its highest hit. Output is
invariant under prefix order. The crawl runs on one thread and keeps no
cursor: an interrupted crawl reruns from the start.

A resolver has two calls. ``query(name)`` returns the name's addresses,
``()`` when the name does not exist (NXDOMAIN, NODATA and SERVFAIL alike),
raises ``ResolverTimeout`` when no answer came in time and
``ResolverUnavailable`` when the resolver cannot be reached. ``now_ns()``
is the time stamped on the records the crawl finds.
"""

from __future__ import annotations

import socket
import time
from dataclasses import dataclass
from typing import Iterable, Mapping, Protocol

from .names import (
    DEFAULT_DOMAIN_SUFFIX,
    OPERATOR_ISP,
    OPERATOR_IXP,
    ServerName,
    Wordlists,
    format_server_name,
    name_prefixes,
    parse_server_name,
)

# a timed-out or unavailable resolver is asked again this many times, this far apart
RETRIES = 2
RETRY_BACKOFF_S = 0.5

# a prefix's walk stops after this many consecutive misses past its highest hit
MISS_RUN = 5


class ResolverUnavailable(Exception):
    """All resolver endpoints failed; distinct from a name that does not exist."""


class ResolverTimeout(Exception):
    """No answer came in time; the name may or may not exist."""


class Resolver(Protocol):
    """One resolution attempt; retry policy lives in the crawl, not here."""

    def now_ns(self) -> int: ...

    def query(self, name: str) -> tuple[str, ...]: ...


class SystemResolver:
    """Resolve through the host's configured DNS via getaddrinfo."""

    def now_ns(self) -> int:
        return time.time_ns()

    def query(self, name: str) -> tuple[str, ...]:
        try:
            infos = socket.getaddrinfo(name, None)
        except socket.gaierror as exc:
            if exc.errno == socket.EAI_AGAIN:
                raise ResolverTimeout(name) from exc
            return ()
        except OSError as exc:
            raise ResolverUnavailable(str(exc)) from exc
        return tuple(dict.fromkeys(info[4][0] for info in infos))


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
        if not isinstance(obj["addresses"], list):  # tuple() would split a string
            raise ValueError(f"addresses: expected a list, not {obj['addresses']!r}")
        return cls(
            name=parse_server_name(obj["name"], obj.get("suffix", DEFAULT_DOMAIN_SUFFIX)),
            addresses=tuple(obj["addresses"]),
            first_seen_ns=obj["first_seen_ns"],
            last_seen_ns=obj["last_seen_ns"],
        )


class RateLimiter:
    """Token bucket; capacity is a tenth of a second's worth of tokens."""

    def __init__(self, rate_per_s: float):
        if not rate_per_s > 0:  # NaN compares false
            raise ValueError(f"the query rate must be > 0, not {rate_per_s!r}")
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


def resolve_candidate(name: str, resolver: Resolver) -> tuple[str, ...]:
    """The addresses of one candidate, ``()`` when it does not exist.

    A timeout or an unavailable resolver is asked again ``RETRIES`` times,
    ``RETRY_BACKOFF_S`` apart. A name that still times out counts as
    absent; ``ResolverUnavailable`` propagates.
    """
    for _ in range(RETRIES):
        try:
            return resolver.query(name)
        except (ResolverTimeout, ResolverUnavailable):
            time.sleep(RETRY_BACKOFF_S)
    try:
        return resolver.query(name)
    except ResolverTimeout:
        return ()


def run_crawl(
    lists: Wordlists,
    resolver: Resolver,
    max_queries_per_second: float | None,
    domain_suffix: str = DEFAULT_DOMAIN_SUFFIX,
) -> list[ServerRecord]:
    """Walk every name prefix's server counters upward from c001 and
    collect the hits, at most ``max_queries_per_second`` names a second
    (timeout retries aside); ``None`` is unlimited, for resolvers that are
    ours (the simulator).

    A prefix's walk stops after ``MISS_RUN`` consecutive misses past its
    highest hit, and never passes ``lists.max_server_counter``; a name that
    still times out after its retries is a miss. So the crawl finds every
    name whose counter is at most ``MISS_RUN`` past the previous found
    counter of its prefix (at most ``MISS_RUN`` for the prefix's first),
    up to ``max_server_counter``.

    Returns one record per resolved name, stamped with the resolver's
    ``now_ns()`` and sorted by hostname.
    """
    limiter = RateLimiter(max_queries_per_second) if max_queries_per_second is not None else None
    found = []
    for head, tail in name_prefixes(lists, domain_suffix=domain_suffix):
        last_hit = 0
        for counter in range(1, lists.max_server_counter + 1):
            if counter - last_hit > MISS_RUN:
                break
            name = f"{head}c{counter:03d}{tail}"
            if limiter is not None:
                limiter.acquire()
            addresses = resolve_candidate(name, resolver)
            if addresses:
                last_hit = counter
                seen_ns = resolver.now_ns()
                found.append(ServerRecord(
                    name=parse_server_name(name, domain_suffix=domain_suffix),
                    addresses=addresses,
                    first_seen_ns=seen_ns,
                    last_seen_ns=seen_ns,
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
