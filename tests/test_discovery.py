"""Crawl behaviour: the resolver contract, retries, the prefix walk, rate
limiting, summaries."""

import socket
import time

import pytest

from fleetscope.discovery import (
    MISS_RUN,
    RETRIES,
    Resolver,
    ResolverTimeout,
    ResolverUnavailable,
    ServerRecord,
    SystemResolver,
    resolve_candidate,
    run_crawl,
    summarize_discovery,
)
from fleetscope import discovery
from fleetscope.names import Wordlists, parse_server_name
from fleetscope.simulation import ZoneResolver

from conftest import (
    InterruptingResolver,
    make_fleet,
    make_hostname,
    make_server,
    public_methods,
    record_for,
)


@pytest.fixture
def no_backoff(monkeypatch):
    monkeypatch.setattr(discovery, "RETRY_BACKOFF_S", 0.0)


def test_resolve_candidate_hit_and_miss():
    fleet = make_fleet([make_server(1.0, airport="lhr")])
    resolver = ZoneResolver(fleet.zone())
    assert resolve_candidate(fleet.servers[0].name, resolver) == (fleet.servers[0].address,)
    assert resolve_candidate(make_hostname(airport="zzz"), resolver) == ()


class FlakyResolver:
    """Times out a fixed number of times, then answers."""

    def __init__(self, inner, failures):
        self.inner = inner
        self.failures = failures
        self.calls = 0

    def now_ns(self):
        return self.inner.now_ns()

    def query(self, name):
        self.calls += 1
        if self.calls <= self.failures:
            raise ResolverTimeout(name)
        return self.inner.query(name)


class DeadResolver:
    def __init__(self):
        self.calls = 0

    def now_ns(self):
        return 0

    def query(self, name):
        self.calls += 1
        raise ResolverUnavailable("endpoint down")


def test_resolve_candidate_retries_timeouts_only(no_backoff):
    fleet = make_fleet([make_server(1.0)])
    flaky = FlakyResolver(ZoneResolver(fleet.zone()), failures=RETRIES)
    assert resolve_candidate(fleet.servers[0].name, flaky) == (fleet.servers[0].address,)
    assert flaky.calls == 1 + RETRIES

    # a name that still times out after its retries counts as absent
    exhausted = FlakyResolver(ZoneResolver(fleet.zone()), failures=10)
    assert resolve_candidate(fleet.servers[0].name, exhausted) == ()
    assert exhausted.calls == 1 + RETRIES


def test_resolver_unavailable_raises_after_retries(no_backoff):
    dead = DeadResolver()
    with pytest.raises(ResolverUnavailable):
        resolve_candidate(make_hostname(), dead)
    assert dead.calls == 1 + RETRIES


class CountingResolver:
    def __init__(self, inner):
        self.inner = inner
        self.per_name: dict[str, int] = {}

    def now_ns(self):
        return self.inner.now_ns()

    def query(self, name):
        self.per_name[name] = self.per_name.get(name, 0) + 1
        return self.inner.query(name)


@pytest.mark.parametrize("cls", [SystemResolver, ZoneResolver, FlakyResolver, DeadResolver,
                                 CountingResolver, InterruptingResolver])
def test_every_resolver_defines_exactly_the_protocol(cls):
    assert public_methods(Resolver) == {"now_ns", "query"}
    assert public_methods(cls) == public_methods(Resolver)


def _getaddrinfo_raising(exc, calls):
    """A ``socket.getaddrinfo`` that adds each name to ``calls`` and raises ``exc``."""
    def getaddrinfo(host, port, *args, **kwargs):
        calls.append(host)
        raise exc
    return getaddrinfo


_ABSENT_ERRNOS = [socket.EAI_NONAME, socket.EAI_FAIL] + (
    [socket.EAI_NODATA] if hasattr(socket, "EAI_NODATA") else [])


@pytest.mark.parametrize("errno", _ABSENT_ERRNOS)
def test_system_resolver_answers_nothing_for_a_name_that_does_not_resolve(monkeypatch, errno):
    monkeypatch.setattr(socket, "getaddrinfo", _getaddrinfo_raising(socket.gaierror(errno, ""), []))
    assert SystemResolver().query(make_hostname()) == ()


def test_system_resolver_timeout_is_retried_then_absent(monkeypatch, no_backoff):
    calls = []
    monkeypatch.setattr(socket, "getaddrinfo",
                        _getaddrinfo_raising(socket.gaierror(socket.EAI_AGAIN, ""), calls))
    with pytest.raises(ResolverTimeout):
        SystemResolver().query(make_hostname())
    calls.clear()
    assert resolve_candidate(make_hostname(), SystemResolver()) == ()
    assert len(calls) == 1 + RETRIES


def test_system_resolver_unreachable_raises_unavailable(monkeypatch):
    monkeypatch.setattr(socket, "getaddrinfo",
                        _getaddrinfo_raising(OSError("network is unreachable"), []))
    with pytest.raises(ResolverUnavailable):
        SystemResolver().query(make_hostname())


def test_system_resolver_collapses_duplicate_addresses_in_order(monkeypatch):
    answer = ["198.18.0.2", "198.18.0.1", "198.18.0.2", "2001:db8::1", "198.18.0.1"]

    def getaddrinfo(host, port, *args, **kwargs):
        return [(socket.AF_INET, socket.SOCK_STREAM, 6, "", (address, 0)) for address in answer]

    monkeypatch.setattr(socket, "getaddrinfo", getaddrinfo)
    assert SystemResolver().query(make_hostname()) == ("198.18.0.2", "198.18.0.1", "2001:db8::1")


def test_system_resolver_resolves_localhost():
    # answered from the hosts file; getaddrinfo lists it once per socket type
    assert SystemResolver().query("localhost").count("127.0.0.1") == 1


def _covering_wordlists(fleet, extra_airports=()):
    parsed = [parse_server_name(s.name) for s in fleet.servers]
    return Wordlists(
        airport_codes=tuple({n.airport_code for n in parsed} | set(extra_airports)),
        isp_labels=tuple({n.isp_label for n in parsed if n.isp_label}),
        nic_types=("lagg0",),
        protocols=("ipv4",),
        max_server_counter=max(n.server_counter for n in parsed),
    )


def test_run_crawl_finds_covered_subset():
    # zone has 10 names; wordlists only cover 7 of them (airport dimension)
    servers = [make_server(1.0, airport=a, counter=i + 1)
               for i, a in enumerate(["lhr"] * 4 + ["ams"] * 3 + ["nrt"] * 3)]
    fleet = make_fleet(servers)
    covered = [s for s in servers if "nrt" not in s.name]
    lists = Wordlists(
        airport_codes=("lhr", "ams"),
        nic_types=("lagg0",),
        protocols=("ipv4",),
        max_server_counter=10,
    )
    resolver = ZoneResolver(fleet.zone())
    resolver.now_ns = lambda: 123
    records = run_crawl(lists, resolver, None)
    assert {r.hostname for r in records} == {s.name for s in covered}
    assert len(records) == 7
    # each record is stamped with the resolver's clock
    assert {(r.first_seen_ns, r.last_seen_ns) for r in records} == {(123, 123)}


def test_run_crawl_empty_zone():
    lists = Wordlists(airport_codes=("lhr",), protocols=("ipv4",), max_server_counter=2)
    assert run_crawl(lists, ZoneResolver({}), None) == []


def test_run_crawl_invariant_under_candidate_order():
    servers = [make_server(1.0, airport=a, counter=c + 1)
               for a in ("lhr", "ams") for c in range(3)]
    fleet = make_fleet(servers)
    lists_a = Wordlists(airport_codes=("lhr", "ams"), protocols=("ipv4",), max_server_counter=4)
    lists_b = Wordlists(airport_codes=("ams", "lhr"), protocols=("ipv4",), max_server_counter=4)
    records_a = run_crawl(lists_a, ZoneResolver(fleet.zone()), None)
    records_b = run_crawl(lists_b, ZoneResolver(fleet.zone()), None)
    assert [r.hostname for r in records_a] == [r.hostname for r in records_b]


def test_run_crawl_queries_each_candidate_at_most_retry_budget(no_backoff):
    fleet = make_fleet([make_server(1.0)])
    # the first name exhausts its retries, the second needs one
    counting = CountingResolver(FlakyResolver(ZoneResolver(fleet.zone()), failures=RETRIES + 2))
    lists = _covering_wordlists(fleet, extra_airports=("ams", "nrt"))
    run_crawl(lists, counting, None)
    assert max(counting.per_name.values()) == 1 + RETRIES
    assert sorted(counting.per_name.values())[-2:] == [2, 1 + RETRIES]


def _walk_one_prefix(counters, max_server_counter=50):
    """The server counters a crawl finds under one prefix whose zone holds
    ``counters``, and the counters it queried, in order."""
    zone = {make_hostname(counter=c): (f"198.18.0.{c}",) for c in counters}
    resolver = CountingResolver(ZoneResolver(zone))
    lists = Wordlists(airport_codes=("lhr",), protocols=("ipv4",),
                      max_server_counter=max_server_counter)
    found = [r.name.server_counter for r in run_crawl(lists, resolver, None)]
    return found, [parse_server_name(name).server_counter for name in resolver.per_name]


def test_run_crawl_finds_a_name_miss_run_past_the_previous_hit():
    found, queried = _walk_one_prefix([1, 1 + MISS_RUN])
    assert found == [1, 1 + MISS_RUN]
    assert queried == list(range(1, 2 + 2 * MISS_RUN))


def test_run_crawl_stops_miss_run_misses_past_the_previous_hit():
    found, queried = _walk_one_prefix([1, 2 + MISS_RUN])
    assert found == [1]
    assert queried == list(range(1, 2 + MISS_RUN))


def test_run_crawl_finds_a_first_name_at_most_miss_run_from_the_start():
    assert _walk_one_prefix([MISS_RUN])[0] == [MISS_RUN]
    found, queried = _walk_one_prefix([MISS_RUN + 1])
    assert found == []
    assert queried == list(range(1, MISS_RUN + 1))


def test_run_crawl_queries_no_counter_past_the_cap():
    found, queried = _walk_one_prefix(range(1, 13), max_server_counter=10)
    assert found == list(range(1, 11))
    assert queried == list(range(1, 11))


def test_run_crawl_rate_limit_is_observed():
    zone = {make_hostname(counter=c): (f"198.18.0.{c}",) for c in range(1, 61)}
    resolver = ZoneResolver(zone)
    lists = Wordlists(airport_codes=("lhr",), protocols=("ipv4",), max_server_counter=100)
    start = time.monotonic()
    assert len(run_crawl(lists, resolver, 200.0)) == 60
    elapsed = time.monotonic() - start
    # c001..c065: 65 queries at 200 q/s with a 20-token burst, at least ~0.2 s
    assert resolver.queries == 60 + MISS_RUN
    assert elapsed >= 0.15


@pytest.mark.parametrize("rate", [0.0, -1.0, float("nan")])
def test_a_rate_limiter_refuses_a_rate_that_is_not_positive(rate):
    # a NaN rate would never wait
    with pytest.raises(ValueError, match="the query rate must be > 0"):
        discovery.RateLimiter(rate)


def test_record_json_round_trip():
    record = record_for(make_server(1.0, operator="bt.isp", airport="man"), seen_ns=123)
    clone = ServerRecord.from_json(record.to_json())
    assert clone.hostname == record.hostname
    assert clone.addresses == record.addresses
    assert clone.operator_kind == "isp"
    assert clone.name.airport_code == "man"


def test_summarize_small_cases():
    countries = {"lhr": "GB", "man": "GB", "ams": "NL"}
    single = [record_for(make_server(1.0, airport="lhr", operator="ix"))]
    summary = summarize_discovery(single, countries)
    assert (summary.total.servers, summary.total.locations, summary.total.countries) == (1, 1, 1)

    same_site = [
        record_for(make_server(1.0, airport="lhr", counter=1, operator="ix")),
        record_for(make_server(1.0, airport="lhr", counter=2, operator="ix")),
    ]
    summary = summarize_discovery(same_site, countries)
    assert summary.total.servers == 2
    assert summary.total.locations == 1

    mixed = [
        record_for(make_server(1.0, airport="lhr", operator="ix")),
        record_for(make_server(1.0, airport="lhr", operator="bt.isp", counter=2)),
        record_for(make_server(1.0, airport="man", operator="sky.isp")),
        record_for(make_server(1.0, airport="ams", operator="ix", counter=3)),
    ]
    summary = summarize_discovery(mixed, countries)
    assert summary.isp.servers == 2 and summary.ixp.servers == 2
    assert summary.total.servers == 4
    # lhr001 hosts both kinds: the union total counts it once, not twice
    assert summary.isp.locations == 2 and summary.ixp.locations == 2
    assert summary.total.locations == 3  # lhr001 counted once, man001, ams001
    assert summary.total.countries == 2  # GB, NL as a set union
    assert summary.isps_found == 2


def test_summarize_reports_unknown_airports():
    records = [record_for(make_server(1.0, airport="xxz"))]
    summary = summarize_discovery(records, {})
    assert summary.unknown_airports == ("xxz",)
    assert summary.total.countries == 0
