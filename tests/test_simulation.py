"""Virtual fleet: profile integration, echo semantics, zone behaviour."""

import gc
import json
import math
import os
import random
import re
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fleetscope import simulation
from fleetscope.ipid import IdBehavior
from fleetscope.names import Wordlists
from fleetscope.probe import CampaignParams, run_campaign
from fleetscope.simulation import (
    BIN_NS,
    DAY_S,
    SimulatedFleet,
    SimulatedServer,
    SimulatedTransport,
    TrafficProfile,
    ZoneResolver,
    parse_hhmm,
)
from fleetscope.transport import NO_REPLY

from conftest import (advance, hhmm, make_fleet, make_hostname, make_server, one_visit,
                      reply_columns, reply_dict, serve_visit, write_fleet)
from responder_oracle import (IDS, LOSS, NOISE, ScalarTransport, SplitMix64, advance_to,
                             send_run_per_send, serve_echo, stream_key)


def test_advance_constant_rate():
    server = make_server(base_pps=1000.0)
    fleet = make_fleet([server])
    advance(fleet, server, 10 * 10**9)
    assert int(server.background_packets) == 10_000


def test_advance_zero_length_is_identity():
    server = make_server(base_pps=1000.0)
    fleet = make_fleet([server])
    advance(fleet, server, 5 * 10**9)
    before = server.background_packets
    advance(fleet, server, 5 * 10**9)
    assert server.background_packets == before


def test_advance_to_a_time_behind_the_clock_moves_nothing():
    server, twin = (make_server(base_pps=10.0, noise=0.2, address="198.18.9.1")
                    for _ in range(2))
    fleets = [make_fleet([responder]) for responder in (server, twin)]
    for fleet, responder in zip(fleets, (server, twin)):
        advance(fleet, responder, 10**9)
    before = (server.background_packets, server.time_ns, server._open_step)
    assert advance(fleets[0], server, 10**8) == before[0]
    assert (server.background_packets, server.time_ns, server._open_step) == before
    # and what it serves next is what a server that never looked back serves
    at_ns = [15 * 10**8, 4 * 10**9]
    assert (serve_visit(fleets[0], server, at_ns).tolist()
            == serve_visit(fleets[1], twin, at_ns).tolist())
    assert server.background_packets == twin.background_packets


def _instant_rate(profile: TrafficProfile, t_s: float) -> float:
    """Reference: the profile's deterministic rate at UTC time ``t_s``, from
    its definition, for quadrature against the closed-form integral."""
    local = t_s + profile.tz_offset_s
    phase = 2 * math.pi * (local - profile.peak_local_s) / DAY_S
    rate = profile.base_pps * (1.0 + profile.diurnal_amplitude * math.cos(phase))
    pos = local % DAY_S
    if profile.fill_extra_pps and profile.fill_start_s <= pos < profile.fill_end_s:
        width = profile.fill_end_s - profile.fill_start_s
        rate += profile.fill_extra_pps * 0.5 * (
            1.0 - math.cos(2 * math.pi * (pos - profile.fill_start_s) / width)
        )
    return rate


def _rate(profile: TrafficProfile, t_s: float) -> float:
    """The mean rate a responder integrates over the second from ``t_s``."""
    return profile._cumulative(t_s + 1.0) - profile._cumulative(t_s)


def test_sinusoid_day_matches_numeric_quadrature():
    # Independent oracle: trapezoidal quadrature of the instantaneous rate.
    profile = TrafficProfile(
        base_pps=5000.0, diurnal_amplitude=0.6, peak_local_s=84600.0, tz_offset_s=-5 * 3600.0
    )
    rates = np.array([_instant_rate(profile, x) for x in np.linspace(0.0, 86400.0, 10_001)])
    quad = np.trapezoid(rates, np.linspace(0.0, 86400.0, 10_001))
    exact = profile._cumulative(86400.0) - profile._cumulative(0.0)
    assert exact == pytest.approx(quad, rel=1e-3)
    assert exact == pytest.approx(5000.0 * 86400.0, rel=1e-9)  # sinusoid integrates out


def test_fill_window_integral_matches_quadrature():
    profile = TrafficProfile(
        base_pps=100.0, fill_extra_pps=900.0, fill_start_s=7200.0, fill_end_s=50400.0
    )
    xs = np.linspace(3600.0, 70000.0, 200_001)
    rates = np.array([_instant_rate(profile, x) for x in xs])
    quad = np.trapezoid(rates, xs)
    exact = profile._cumulative(70000.0) - profile._cumulative(3600.0)
    assert exact == pytest.approx(quad, rel=1e-4)
    # raised cosine: zero at edges, peak at the window midpoint
    assert _rate(profile, 7200.0) == pytest.approx(100.0)
    assert _rate(profile, 28800.0) == pytest.approx(1000.0)


def test_fill_window_respects_timezone():
    profile = TrafficProfile(base_pps=0.0, fill_extra_pps=100.0, tz_offset_s=-5 * 3600.0)
    # local 08:00 peak is 13:00 UTC
    assert _rate(profile, 13 * 3600.0) == pytest.approx(100.0)
    assert _rate(profile, 8 * 3600.0) < 100.0


def test_serve_echo_wraps_at_16_bits():
    server = make_server(base_pps=0.0)
    fleet = make_fleet([server])
    server.background_packets = 65535.0
    # the reply itself advances the counter
    assert serve_visit(fleet, server, [0, 1]).tolist() == [65535, 0]


def test_serve_echo_random_mode_is_unconstrained():
    server = make_server(base_pps=0.0, behavior=IdBehavior.RANDOM)
    fleet = make_fleet([server], seed=5)
    ids = serve_visit(fleet, server, range(2000)).tolist()
    assert all(0 <= i <= 65535 for i in ids)
    assert len(set(ids)) > 1500  # roughly uniform, not a counter


def test_unreachable_server_never_replies():
    server = make_server(base_pps=10.0, reachable=False)
    fleet = make_fleet([server])
    rows = []
    transport = SimulatedTransport(fleet, truth=rows.append)
    transport.sleep_until_ns(10**9)
    seq, recv_ns, ip_id = reply_columns(
        transport.end_run([server.address], np.array([[10**9, 2 * 10**9]])))
    assert len(seq) == len(recv_ns) == len(ip_id) == 0
    assert server.reply_packets == 0
    assert rows == []


def test_id_stream_consistent_with_counter():
    server = make_server(base_pps=12345.0)
    fleet = make_fleet([server])
    for i in range(1, 50):
        at = i * 30_000_000
        advance(fleet, server, at)
        expected = (int(server.background_packets) + server.reply_packets) & 0xFFFF
        assert serve_visit(fleet, server, [at]).tolist() == [expected]


def test_a_server_and_a_transport_hold_no_generator():
    # every draw is keyed, so after noisy, lossy random-ID visits nothing
    # the simulator holds is a generator or a generator's state
    noisy = make_server(base_pps=5000.0, counter=1, noise=0.1)
    randoms = make_server(base_pps=5000.0, counter=2, noise=0.1, behavior=IdBehavior.RANDOM)
    transport = SimulatedTransport(make_fleet([noisy, randoms]), loss_rate=0.3)
    for server in (noisy, randoms):
        one_visit(server.address, 0.03, 3.0, transport)
    assert noisy.reply_packets and randoms.reply_packets
    generators = (random.Random, np.random.Generator, np.random.BitGenerator,
                  np.random.RandomState)
    for held in (noisy, randoms, transport, transport.fleet):
        values = ([getattr(held, name) for name in held.__slots__]
                  if hasattr(held, "__slots__") else list(vars(held).values()))
        assert not [value for value in values if isinstance(value, generators)], held
    assert not hasattr(simulation, "random")


def test_fleet_determinism_same_seed():
    def run(seed):
        server = make_server(base_pps=5000.0, noise=0.1, amplitude=0.3, address="198.18.9.9")
        fleet = SimulatedFleet([server], seed=seed)
        return serve_visit(fleet, server, [i * 30_000_000 for i in range(500)]).tolist()

    assert run(42) == run(42)
    assert run(42) != run(43)


def test_zone_resolver_member_and_unknown():
    fleet = make_fleet([make_server(base_pps=1.0)])
    resolver = ZoneResolver(fleet.zone())
    assert resolver.query(fleet.servers[0].name) == (fleet.servers[0].address,)
    assert resolver.query("ipv4_1-lagg0-c999.1.zzz001.ix.nflxvideo.net") == ()
    assert resolver.queries == 2
    assert resolver.now_ns() == 0


def test_transport_loss_is_request_side():
    # Lost probes never reach the responder, so its counter does not move.
    server = make_server(base_pps=0.0, address="198.18.7.7")
    fleet = SimulatedFleet([server], seed=3)
    transport = SimulatedTransport(fleet, loss_rate=0.5)
    sent = transport.send_run([server.address], 0, 30_000_000, 200, np.array([-30_000_000]))
    seq, recv_ns, ip_id = reply_columns(transport.end_run([server.address], sent))
    assert 0 < len(seq) < 200
    # counter only advanced by replies actually served
    assert ip_id.tolist() == list(range(len(seq)))
    assert (recv_ns == sent[0][seq] + server.rtt_ns).all()


def test_end_visit_returns_int64_columns():
    # end_run's receive times are int64, its IDs 16-bit, both shaped like the sends
    server = make_server(base_pps=100.0)
    transport = SimulatedTransport(make_fleet([server]), loss_rate=0.2)
    sent_ns = np.arange(50, dtype=np.int64)[None, :] * 30_000_000
    replies = transport.end_run([server.address], sent_ns)
    assert [column.dtype for column in replies] == [np.int64, np.uint16]
    assert {column.shape for column in replies} == {sent_ns.shape}


def test_truth_records_mean_rate():
    server = make_server(base_pps=2000.0, address="198.18.8.8")
    fleet = SimulatedFleet([server], seed=1)
    rows = []
    transport = SimulatedTransport(fleet, truth=rows.append)
    sent = transport.send_run([server.address], 0, 30 * 10**9, 2, np.array([-30 * 10**9]))
    transport.end_run([server.address], sent)
    ((target, start_ns, end_ns, true_pps),) = rows
    assert target == server.address
    assert true_pps == pytest.approx(2000.0, rel=1e-6)
    # numpy scalars would print differently in truth.csv
    assert (type(start_ns), type(end_ns), type(true_pps)) == (int, int, float)


def test_a_transport_without_a_truth_destination_keeps_nothing_per_visit():
    # what a campaign leaves traced in memory may not grow with its visits
    def held_after(visits: int) -> int:
        server = make_server(base_pps=1000.0, noise=0.05)
        params = CampaignParams(probe_interval_s=0.03, dwell_s=0.3, workers=1,
                                total_duration_s=visits * 0.3, max_visits_per_hour=None,
                                probe_timeout_s=0.03)
        gc.collect()
        tracemalloc.start()
        try:
            transport = SimulatedTransport(make_fleet([server]), loss_rate=0.1)
            summary = run_campaign([server.address], params, transport, lambda visit: None)
            assert summary.visits_completed == visits
            gc.collect()
            return tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()

    held_after(40)  # fills the interpreter's and numpy's caches
    assert held_after(400) - held_after(40) < 4096


def test_truth_of_a_far_server_is_its_rate():
    # The counter runs to the last serve, 75 ms after the last of 25 sends
    # 30 ms apart; over the 720 ms send span it would read ~10% high.
    server = make_server(base_pps=1000.0, rtt_ms=150.0)
    fleet = make_fleet([server])
    rows = []
    one_visit(server.address, 0.03, 0.75, SimulatedTransport(fleet, truth=rows.append))
    ((_, _, _, true_pps),) = rows
    assert true_pps == pytest.approx(1000.0, rel=1e-9)


def test_hhmm_round_trip():
    assert parse_hhmm("23:30") == 84600.0
    assert parse_hhmm("02:00") == 7200.0
    assert parse_hhmm("7") == 25200.0
    # every minute of a day, as fleet files write it
    assert all(parse_hhmm(hhmm(60.0 * m)) == 60.0 * m for m in range(1440))


def test_fleet_config_round_trip(tmp_path):
    servers = [
        make_server(base_pps=100.0, amplitude=0.4, noise=0.05, airport="lhr"),
        make_server(base_pps=50.0, operator="bt.isp", airport="man", reachable=False),
        make_server(base_pps=10.0, airport="jfk", tz_offset_h=-5.0, peak_local_s=73_800.0,
                    fill_extra=20.0, behavior=IdBehavior.RANDOM, rtt_ms=150.0),
    ]
    loaded = SimulatedFleet.from_file(write_fleet(tmp_path / "fleet.json", servers, seed=11))
    assert loaded.seed == 11

    def fields(s):
        return s.name, s.address, s.profile, s.id_behavior, s.reachable, s.rtt_ns, s.constant_id

    assert [fields(s) for s in loaded.servers] == [fields(s) for s in servers]
    assert loaded.servers[1].reachable is False


@pytest.mark.parametrize("config, error", [
    ({"seed": 1}, r"fleet\.json: no 'servers' list"),
    ({"servers": [{"name": "x", "address": "198.18.0.1"}, {"name": "y"}]},
     r"fleet\.json: servers\[1\] has no 'address'"),
    ({"servers": [{"address": "198.18.0.1"}]}, r"fleet\.json: servers\[0\] has no 'name'"),
    ({"seeds": 7, "servers": []}, r"fleet\.json: unknown key 'seeds'"),
])
def test_fleet_file_errors_name_the_file_and_the_server(tmp_path, config, error):
    path = tmp_path / "fleet.json"
    path.write_text(json.dumps(config))
    with pytest.raises(ValueError, match=error):
        SimulatedFleet.from_file(path)


@pytest.mark.parametrize("change, error", [
    ({"profile": {"peak_local": "ab:cd"}}, "invalid literal for int"),
    ({"profile": {"base_pps": "fast"}}, "could not convert string to float"),
    ({"profile": {"base_pps": None}}, "float() argument must be"),
    ({"id_behavior": "sometimes"}, "'sometimes' is not a valid IdBehavior"),
    ({"profile": 5}, "'int' object has no attribute 'get'"),
    ({"profile": {"base_pps": -1}}, "base_pps must be >= 0"),
    ({"reachable": "false"}, "'reachable' is not a JSON bool: 'false'"),
    ({"constant_id": 7.9}, "'constant_id' is not a JSON integer in 0..65535: 7.9"),
    ({"constant_id": 70000}, "'constant_id' is not a JSON integer in 0..65535: 70000"),
    ({"rtt_ms": -5}, "'rtt_ms' is not a finite number >= 0: -5"),
    ({"rtt_ms": math.nan}, "'rtt_ms' is not a finite number >= 0: nan"),
    ({"rtt_ms": 1e300}, "'rtt_ms' is not at most 4294.967294 ms: 1e+300"),
], ids=["peak_local", "base_pps", "base_pps_null", "id_behavior", "profile", "negative_rate",
        "reachable_string", "constant_id_float", "constant_id_above_16_bits", "negative_rtt",
        "rtt_nan", "rtt_longer_than_a_sample_stores"])
def test_a_bad_value_in_a_fleet_server_is_named(tmp_path, change, error):
    servers = [make_server(base_pps=1.0, counter=1), make_server(base_pps=1.0, counter=2)]
    path = write_fleet(tmp_path / "fleet.json", servers)
    config = json.loads(path.read_text())
    config["servers"][1].update(change)
    path.write_text(json.dumps(config))
    with pytest.raises(ValueError) as raised:
        SimulatedFleet.from_file(path)
    prefix = f"{path}: servers[1] ({servers[1].name}): "
    assert str(raised.value).startswith(prefix)
    assert error in str(raised.value)


def test_a_fleet_server_that_is_no_object_is_named(tmp_path):
    path = tmp_path / "fleet.json"
    path.write_text(json.dumps({"servers": [5]}))
    with pytest.raises(ValueError, match=r"fleet\.json: servers\[0\] is not an object"):
        SimulatedFleet.from_file(path)


def test_fleet_rejects_duplicates_and_bad_names():
    good = make_server(base_pps=1.0, address="198.18.1.1")
    clash = make_server(base_pps=1.0, address="198.18.1.1")
    with pytest.raises(ValueError):
        SimulatedFleet([good, clash])
    bad = SimulatedServer(
        name="not-a-fleet-name.example.com",
        address="198.18.1.2",
        profile=TrafficProfile(base_pps=1.0),
    )
    with pytest.raises(Exception):
        SimulatedFleet([bad])


def test_fleet_word_lists_cover_exactly_its_names():
    fleet = make_fleet([make_server(1.0, airport="lhr", counter=3),
                        make_server(1.0, airport="jfk", site=2, operator="bt.isp", counter=7),
                        make_server(1.0, airport="lhr", operator="kpn.isp")])
    assert fleet.wordlists() == Wordlists(
        airport_codes=("jfk", "lhr"), isp_labels=("bt", "kpn"), nic_types=("lagg0",),
        protocols=("ipv4",), protocol_indices=(1,), deployment_indices=(1,),
        max_server_counter=7, max_site_counter=2)


def test_profile_validation():
    with pytest.raises(ValueError):
        TrafficProfile(base_pps=-1.0)
    with pytest.raises(ValueError):
        TrafficProfile(base_pps=1.0, diurnal_amplitude=1.5)
    with pytest.raises(ValueError):
        TrafficProfile(base_pps=1.0, fill_start_s=50000.0, fill_end_s=7200.0)


# a time as whole intervals plus a part of one, in thousandths of an interval
_thousandths = st.integers(-3_000, 3_000)


@settings(max_examples=300, deadline=None)
@given(interval_ns=st.integers(1, 10**9), first_ns=st.integers(0, 10**15),
       widths=st.lists(st.integers(1, 30), min_size=1, max_size=4),
       clocks=st.lists(_thousandths, min_size=4, max_size=4),
       previous=st.lists(_thousandths, min_size=1, max_size=6))
def test_send_run_matches_the_per_send_loop(interval_ns, first_ns, widths, clocks, previous):
    # consecutive visits of up to 6 targets, each due as the one before ends
    # and each after a clock that may be ahead of its due time, as a
    # collection's wait leaves it; the previous sends, ahead of or behind the
    # first due time, force waits
    def at(thousandths, index):
        return max(0, first_ns + index * interval_ns + thousandths * interval_ns // 1000)

    targets = [f"198.18.4.{i + 1}" for i in range(len(previous))]
    transport, oracle = (SimulatedTransport(make_fleet([])) for _ in range(2))
    not_before_ns = np.array([at(offset, -1) for offset in previous], dtype=np.int64)
    for width, clock in zip(widths, clocks):
        for clocked in (transport, oracle):
            clocked.sleep_until_ns(at(clock, 0))
        expected = send_run_per_send(oracle, lambda target, index: oracle.now_ns(), targets,
                                     first_ns, interval_ns, width, not_before_ns)
        sent_ns = transport.send_run(targets, first_ns, interval_ns, width, not_before_ns)
        assert sent_ns.dtype == np.int64
        assert sent_ns.tolist() == expected.tolist()
        assert transport.now_ns() == oracle.now_ns()
        first_ns, not_before_ns = first_ns + width * interval_ns, sent_ns[:, -1]


def test_virtual_clock_semantics():
    transport = SimulatedTransport(make_fleet([make_server(base_pps=1.0)]))
    transport.sleep_until_ns(100)
    transport.sleep_until_ns(50)  # the clock never goes backwards
    assert transport.now_ns() == 100


_profiles = st.builds(
    lambda base, amplitude, peak, tz_h, noise, extra, start, width: TrafficProfile(
        base_pps=base, diurnal_amplitude=amplitude, peak_local_s=peak, tz_offset_s=tz_h * 3600.0,
        noise_rel=noise, fill_extra_pps=extra, fill_start_s=start,
        fill_end_s=min(start + width, DAY_S)),
    base=st.floats(0.0, 1e5),
    amplitude=st.floats(0.0, 1.0),
    peak=st.floats(0.0, DAY_S - 1.0),
    tz_h=st.floats(-12.0, 14.0),
    noise=st.one_of(st.just(0.0), st.floats(0.0, 0.5)),
    extra=st.one_of(st.just(0.0), st.floats(0.0, 1e4)),
    start=st.floats(0.0, DAY_S - 60.0),
    width=st.floats(60.0, DAY_S),
)
_servers = st.fixed_dictionaries({
    "profile": _profiles,
    "id_behavior": st.sampled_from(IdBehavior),
    "constant_id": st.integers(0, 0xFFFF),
    "rtt_ns": st.integers(0, 300_000_000),
})
# offsets from a visit's start: a coarse grid repeats times and reaches
# back before the responder's clock
_offsets = st.one_of(st.integers(-3, 60).map(lambda k: k * 30_000_000),
                     st.integers(-10**9, 10**11))


def _twin_servers(spec, seed, reachable=True):
    """Two equal servers, each in its own fleet of ``seed``, and the fleets."""
    servers = [SimulatedServer(name=make_hostname(), address="198.18.3.3", reachable=reachable,
                               **spec) for _ in range(2)]
    return servers, [SimulatedFleet([server], seed=seed) for server in servers]


def _state(server):
    return server.background_packets, server.time_ns, server.reply_packets


@settings(max_examples=200, deadline=None)
@given(spec=_servers, seed=st.integers(0, 1000), start_ns=st.integers(0, 10 * 86400 * 10**9),
       visits=st.lists(st.lists(_offsets, max_size=40), min_size=1, max_size=3))
# a noisy visit across 20 bins, whose steps one call hashes as an array
@example(spec={"profile": TrafficProfile(base_pps=1000.0, noise_rel=0.2),
               "id_behavior": IdBehavior.GLOBAL_COUNTER, "constant_id": 0, "rtt_ns": 0},
         seed=3, start_ns=5, visits=[[k * 500_000_000 for k in range(40)]])
def test_serve_visit_matches_the_per_echo_responder(spec, seed, start_ns, visits):
    (server, reference), fleets = _twin_servers(spec, seed)
    for offsets in visits:
        advance(fleets[0], server, start_ns)
        advance_to(reference, start_ns, seed)
        at_ns = sorted(max(0, start_ns + offset) for offset in offsets)
        ids = serve_visit(fleets[0], server, at_ns)
        if at_ns:  # the visit reads the count at its first send too
            advance_to(reference, at_ns[0] - server.rtt_ns // 2, seed)
            assert ids.dtype == np.uint16
        assert ids.tolist() == [serve_echo(reference, at, seed) for at in at_ns]
        assert _state(server) == _state(reference)
        start_ns += 3 * 10**11


@settings(max_examples=200, deadline=None)
@given(spec=_servers, seed=st.integers(0, 1000),
       start_ns=st.integers(0, 10 * 86400 * 10**9) | st.integers(0, 10 * 86400).map(
           lambda s: s * BIN_NS),
       offsets=st.lists(_offsets | st.integers(-1, 4).map(lambda k: k * BIN_NS), min_size=1,
                        max_size=60),
       cuts=st.lists(st.integers(0, 60), max_size=6), later_ns=st.integers(0, 3 * BIN_NS))
# a time on the edge where the first bin ends: one call must not open the
# second bin for it, as the call that starts there does not
@example(spec={"profile": TrafficProfile(base_pps=1.0, peak_local_s=0.0, noise_rel=0.5,
                                         fill_start_s=0.0, fill_end_s=60.0),
               "id_behavior": IdBehavior.GLOBAL_COUNTER, "constant_id": 0, "rtt_ns": 0},
         seed=2, start_ns=0, offsets=[0] * 7 + [30_000_000, BIN_NS, 3 * BIN_NS], cuts=[8],
         later_ns=0)
def test_the_counter_depends_on_time_not_on_how_a_visit_is_cut(spec, seed, start_ns, offsets, cuts,
                                                                later_ns):
    # one serve_visit call, and the same arrivals served in consecutive
    # chunks; times land on and across bin edges, and the visit then runs
    # on inside its last bin, whose noise factor must have been kept. With
    # no RTT a visit's first and last sends are its first and last arrivals,
    # so the chunks read the counter at the times the one call reads it
    (whole, chunked), fleets = _twin_servers({**spec, "rtt_ns": 0}, seed)
    at_ns = sorted(max(0, start_ns + offset) for offset in offsets)
    bounds = sorted({cut % (len(at_ns) + 1) for cut in cuts})
    chunks = [at_ns[a:b] for a, b in zip([0, *bounds], [*bounds, len(at_ns)])]
    for fleet, server in zip(fleets, (whole, chunked)):
        advance(fleet, server, start_ns)
    ids = serve_visit(fleets[0], whole, at_ns).tolist()
    assert [i for chunk in chunks for i in serve_visit(fleets[1], chunked, chunk).tolist()] == ids
    assert _state(chunked) == _state(whole)
    end_ns = at_ns[-1] + later_ns
    assert advance(fleets[1], chunked, end_ns) == advance(fleets[0], whole, end_ns)
    assert _state(chunked) == _state(whole)


@settings(max_examples=200, deadline=None)
@given(spec=_servers, seed=st.integers(0, 1000), reachable=st.booleans(),
       loss_rate=st.sampled_from([0.0, 0.01, 0.3, 0.9, 1.0]) | st.floats(0.0, 1.0),
       start_ns=st.integers(0, 10 * 86400 * 10**9),
       visits=st.lists(st.lists(st.integers(0, 60_000_000), min_size=1, max_size=40),
                       min_size=1, max_size=3))
def test_end_visit_matches_the_per_send_transport(spec, seed, reachable, loss_rate, start_ns,
                                                   visits):
    # each visit sends at its start plus the running sum of its gaps, some
    # 0, and opens with its first send; the per-send transport sends one
    # echo at a time, so a gap of 0 stays 0
    (server, reference), fleets = _twin_servers(spec, seed, reachable)
    rows = [[], []]
    transport = SimulatedTransport(fleets[0], loss_rate, rows[0].append)
    oracle = ScalarTransport(fleets[1], loss_rate, rows[1].append)
    for gaps in visits:
        sent = (start_ns + np.cumsum(gaps)).tolist()
        for seq, sent_ns in enumerate(sent):
            oracle.sleep_until_ns(sent_ns)
            assert oracle._send_echo(server.address, seq) == sent_ns
        columns = transport.end_run([server.address], np.array([sent], dtype=np.int64))
        assert [column.dtype for column in columns] == [np.int64, np.uint16]
        replies = reply_dict(columns)
        assert len(replies) == np.count_nonzero(columns[0] != NO_REPLY)
        assert replies == reply_dict(oracle.end_run([server.address], [sent]))
        assert _state(server) == _state(reference)
        start_ns = sent[-1] + 10**10
    assert rows[0] == rows[1]


# a slot's targets: servers of every ID behaviour, some unreachable, and
# addresses no server has (None); RTTs of 0, and half-RTTs past the next
# slot's first send
_slot_targets = st.lists(st.none() | st.fixed_dictionaries({
    "profile": _profiles,
    "id_behavior": st.sampled_from(IdBehavior),
    "constant_id": st.integers(0, 0xFFFF),
    "rtt_ns": st.sampled_from([0, 1, 2 * BIN_NS]) | st.integers(0, 4 * BIN_NS),
    "reachable": st.booleans(),
}), min_size=1, max_size=12)


@settings(max_examples=200, deadline=None)
@given(targets=_slot_targets, seed=st.integers(0, 1000),
       loss_rate=st.sampled_from([0.0, 0.3, 1.0]),
       first_ns=st.integers(0, 10 * 86400).map(lambda s: s * BIN_NS) | st.integers(0, 10**15),
       interval_ns=st.sampled_from([BIN_NS, BIN_NS // 4, 30_000_000]) | st.integers(1, 2 * BIN_NS),
       count=st.integers(1, 40), gaps=st.lists(st.integers(0, 3 * BIN_NS), min_size=1, max_size=3),
       chunk=st.sampled_from([1, 7, 64, simulation.CHUNK_PROBES]))
# sends on bin edges, one visit per chunk, the next slot sent while the
# replies to the last are still on their way, then one after whole bins
@example(targets=[{"profile": TrafficProfile(base_pps=1000.0, noise_rel=0.2),
                   "id_behavior": IdBehavior.GLOBAL_COUNTER, "constant_id": 0,
                   "rtt_ns": 2 * BIN_NS, "reachable": True}, None,
                  {"profile": TrafficProfile(base_pps=10.0, noise_rel=0.2),
                   "id_behavior": IdBehavior.RANDOM, "constant_id": 0, "rtt_ns": 0,
                   "reachable": True}],
         seed=4, loss_rate=0.3, first_ns=5 * BIN_NS, interval_ns=BIN_NS // 4, count=9,
         gaps=[0, 2 * BIN_NS], chunk=9)
def test_end_run_matches_the_per_echo_transport(targets, seed, loss_rate, first_ns, interval_ns,
                                                count, gaps, chunk):
    # consecutive slots of one visit to each target: replies, truth rows,
    # and each server's clock and counts after each slot, bit for bit
    addresses = [f"198.18.5.{i + 1}" for i in range(len(targets))]
    fleets = [SimulatedFleet([SimulatedServer(name=make_hostname(counter=i + 1), address=address,
                                              **spec)
                              for i, (address, spec) in enumerate(zip(addresses, targets))
                              if spec is not None], seed=seed) for _ in range(2)]
    rows = [[], []]
    transport = SimulatedTransport(fleets[0], loss_rate, rows[0].append)
    oracle = ScalarTransport(fleets[1], loss_rate, rows[1].append)
    not_before_ns = np.full(len(addresses), first_ns - interval_ns, dtype=np.int64)
    with mock.patch.object(simulation, "CHUNK_PROBES", chunk):
        for gap_ns in gaps:
            sent_ns = transport.send_run(addresses, first_ns, interval_ns, count, not_before_ns)
            expected = oracle.send_run(addresses, first_ns, interval_ns, count, not_before_ns)
            assert sent_ns.tolist() == expected.tolist()
            recv_ns, ip_id = transport.end_run(addresses, sent_ns)
            oracle_recv_ns, oracle_ip_id = oracle.end_run(addresses, expected)
            assert recv_ns.tolist() == oracle_recv_ns.tolist()
            assert ip_id.tolist() == oracle_ip_id.tolist()
            for server, reference in zip(*(fleet.servers for fleet in fleets)):
                assert _state(server) == _state(reference), server.address
                assert server._open_step == reference._open_step, server.address
            not_before_ns = sent_ns[:, -1]
            first_ns = int(not_before_ns.max()) + interval_ns + gap_ns
    assert rows[0] == rows[1]


@pytest.mark.parametrize("loss_rate", [-0.1, math.nan, math.inf, 1.5])
def test_a_loss_rate_outside_zero_to_one_is_refused(loss_rate):
    fleet = make_fleet([make_server(base_pps=1.0)])
    with pytest.raises(ValueError, match=re.escape(
            f"loss_rate must be a number from 0 to 1, not {loss_rate!r}")):
        SimulatedTransport(fleet, loss_rate)
    for edge in (0, 0.0, 1, 1.0):
        assert SimulatedTransport(fleet, edge).loss_rate == edge


def test_splitmix64_known_answer_on_both_paths():
    # the first three words of Vigna's splitmix64.c from the state 1234567
    expected = [6457827717110365317, 3203168211198807973, 9817491932198370423]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        words = simulation.splitmix64(np.full(3, 1234567, dtype=np.uint64),
                                      np.arange(1, 4, dtype=np.uint64))
        assert words.dtype == np.uint64
        assert words.tolist() == expected
    draws = SplitMix64(1234567)
    assert [draws.next() for _ in range(3)] == expected


@pytest.mark.parametrize("seed", [0, -1, 2**63, 2**64 + 5, -2**70])
def test_every_fleet_key_is_the_reference_key_for_any_integer_seed(tmp_path, seed):
    # addresses of 7, 8, 9, 16 and 39 bytes: part of a word, whole words and
    # more; a fleet with IPv6 addresses still loads, to be probed
    addresses = ["1.2.3.4", "10.0.0.1", "10.0.0.12", "2001:db8::1:2:34",
                 "2001:0db8:0000:0000:0000:0000:0000:0001"]
    servers = [make_server(1.0, counter=n + 1, address=address)
               for n, address in enumerate(addresses)]
    fleet = SimulatedFleet.from_file(write_fleet(tmp_path / "fleet.json", servers, seed))
    keys = np.array([fleet.by_address[address]._key for address in addresses], dtype=np.uint64)
    for tag in (NOISE, IDS, LOSS):
        assert (simulation._absorb_all(keys, tag).tolist()
                == [stream_key(seed, address, tag) for address in addresses]), tag


def _visit(transport, address: str, start_ns: int, sends: int, interval_ns: int):
    """Send ``sends`` echoes to ``address`` from ``start_ns``, ``interval_ns``
    apart, and end the visit: its delivered sequence numbers, their IDs and
    its last send time."""
    transport.sleep_until_ns(start_ns)
    sent_ns = transport.send_run([address], start_ns, interval_ns, sends,
                                 np.array([start_ns - interval_ns]))
    seq, _, ip_id = reply_columns(transport.end_run([address], sent_ns))
    return seq.tolist(), ip_id.tolist(), int(sent_ns[0, -1])


_visits = st.tuples(st.integers(1, 10**10), st.integers(1, 40), st.integers(0, 60_000_000))


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 1000), loss_rate=st.sampled_from([0.01, 0.5]) | st.floats(0.0, 1.0),
       rtt_ns=st.integers(0, 300_000_000), noise=st.sampled_from([0.0, 0.1]),
       prefix=st.lists(_visits, max_size=4), last=_visits)
def test_a_visit_draws_the_same_losses_and_ids_after_any_earlier_visits(
        seed, loss_rate, rtt_ns, noise, prefix, last):
    # each visit starts its gap after the one before it ends; sends 0 ns
    # apart arrive at the same time
    spec = {"profile": TrafficProfile(base_pps=1000.0, noise_rel=noise),
            "id_behavior": IdBehavior.RANDOM, "constant_id": 0, "rtt_ns": rtt_ns}
    (after, alone), fleets = _twin_servers(spec, seed)
    transports = [SimulatedTransport(fleet, loss_rate) for fleet in fleets]
    end_ns = 0
    for gap_ns, sends, interval_ns in prefix:
        end_ns = _visit(transports[0], after.address, end_ns + gap_ns, sends, interval_ns)[2]
    gap_ns, sends, interval_ns = last
    start_ns = end_ns + gap_ns
    assert (_visit(transports[0], after.address, start_ns, sends, interval_ns)
            == _visit(transports[1], alone.address, start_ns, sends, interval_ns))


def test_keyed_losses_drop_the_loss_rate_of_a_million_sends():
    server = make_server(base_pps=0.0)
    transport = SimulatedTransport(make_fleet([server]), loss_rate=0.01)
    delivered = sum(len(_visit(transport, server.address, visit * 10**10, 2000, 10**6)[0])
                    for visit in range(500))
    assert abs(1 - delivered / 10**6 - 0.01) <= 0.0005


def test_a_lossy_transport_keeps_nothing_per_target():
    # loss draws need no per-target state: what a transport holds after one
    # visit to each of its targets may not grow with their number
    def held_after(targets: int) -> int:
        servers = [make_server(base_pps=1000.0, counter=i + 1) for i in range(targets)]
        fleet = make_fleet(servers)
        untraced = [{name: getattr(server, name) for name in server.__slots__}
                    for server in servers]
        gc.collect()
        tracemalloc.start()
        try:
            transport = SimulatedTransport(fleet, loss_rate=0.1)
            for server, state in zip(servers, untraced):
                assert _visit(transport, server.address, 10**9, 25, 30_000_000)[0]
                for name, value in state.items():  # the responder's state is the fleet's
                    setattr(server, name, value)
            gc.collect()
            return tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()

    held_after(40)  # fills the interpreter's and numpy's caches
    assert held_after(400) - held_after(40) < 4096


def test_the_cli_does_not_import_hashlib():
    # hashlib costs a few MB of import RSS; the simulator hashes keys itself
    package_root = Path(simulation.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(package_root), os.environ.get("PYTHONPATH")]))}
    loaded = subprocess.run([sys.executable, "-c", "import sys, fleetscope.cli; "
                             "print('hashlib' in sys.modules)"],
                            env=env, check=True, capture_output=True, text=True, timeout=60)
    assert loaded.stdout == "False\n"
