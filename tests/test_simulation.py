"""Virtual fleet: profile integration, echo semantics, zone behaviour."""

import gc
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fleetscope.ipid import IdBehavior
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

from conftest import (hhmm, make_fleet, make_hostname, make_server, one_visit, reply_dict,
                      write_fleet)
from responder_oracle import ScalarTransport, advance_to, send_run_per_send, serve_echo


def test_advance_constant_rate():
    server = make_server(base_pps=1000.0)
    make_fleet([server])
    server.advance([10 * 10**9])
    assert int(server.background_packets) == 10_000


def test_advance_zero_length_is_identity():
    server = make_server(base_pps=1000.0)
    make_fleet([server])
    server.advance([5 * 10**9])
    before = server.background_packets
    server.advance([5 * 10**9])
    assert server.background_packets == before


def test_advance_to_a_time_behind_the_clock_moves_nothing():
    server = make_server(base_pps=10.0, noise=0.2)
    make_fleet([server])
    server.advance([10**9])
    before = (server.background_packets, server.time_ns, server._noise_rng.getstate())
    assert server.advance([10**8]).tolist() == [before[0]]
    assert (server.background_packets, server.time_ns, server._noise_rng.getstate()) == before


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
    make_fleet([server])
    server.background_packets = 65535.0
    # the reply itself advances the counter
    assert server.serve_visit([0, 1]).tolist() == [65535, 0]


def test_serve_echo_random_mode_is_unconstrained():
    server = make_server(base_pps=0.0, behavior=IdBehavior.RANDOM)
    make_fleet([server], seed=5)
    ids = server.serve_visit(range(2000)).tolist()
    assert all(0 <= i <= 65535 for i in ids)
    assert len(set(ids)) > 1500  # roughly uniform, not a counter


def test_unreachable_server_never_replies():
    server = make_server(base_pps=10.0, reachable=False)
    fleet = make_fleet([server])
    rows = []
    transport = SimulatedTransport(fleet, truth=rows.append)
    transport.sleep_until_ns(10**9)
    seq, recv_ns, ip_id = transport.end_visit(server.address, np.array([10**9, 2 * 10**9]))
    assert len(seq) == len(recv_ns) == len(ip_id) == 0
    assert server.reply_packets == 0
    assert rows == []


def test_id_stream_consistent_with_counter():
    server = make_server(base_pps=12345.0)
    make_fleet([server])
    for i in range(1, 50):
        at = i * 30_000_000
        server.advance([at])
        expected = (int(server.background_packets) + server.reply_packets) & 0xFFFF
        assert server.serve_visit([at]).tolist() == [expected]


def test_a_server_binds_only_the_streams_it_draws_from():
    counter = make_server(base_pps=5000.0, counter=1)
    noisy = make_server(base_pps=5000.0, counter=2, noise=0.1)
    randoms = make_server(base_pps=5000.0, counter=3, behavior=IdBehavior.RANDOM)
    make_fleet([counter, noisy, randoms])
    assert (counter._noise_rng, counter._id_rng) == (None, None)
    assert noisy._noise_rng is not None and noisy._id_rng is None
    assert randoms._noise_rng is None and randoms._id_rng is not None


def test_fleet_determinism_same_seed():
    def run(seed):
        server = make_server(base_pps=5000.0, noise=0.1, amplitude=0.3, address="198.18.9.9")
        SimulatedFleet([server], seed=seed)
        return server.serve_visit([i * 30_000_000 for i in range(500)]).tolist()

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
    sent = transport.send_run([server.address], 0, 30_000_000, 0, 200, np.array([-30_000_000]))[0]
    seq, recv_ns, ip_id = transport.end_visit(server.address, np.array(sent, dtype=np.int64))
    assert 0 < len(seq) < 200
    # counter only advanced by replies actually served
    assert ip_id.tolist() == list(range(len(seq)))
    assert (recv_ns == np.array(sent)[seq] + server.rtt_ns).all()


def test_end_visit_returns_int64_columns():
    server = make_server(base_pps=100.0)
    transport = SimulatedTransport(make_fleet([server]), loss_rate=0.2)
    sent_ns = np.arange(50, dtype=np.int64) * 30_000_000
    replies = transport.end_visit(server.address, sent_ns)
    assert [column.dtype for column in replies] == [np.int64] * 3
    assert len({len(column) for column in replies}) == 1


def test_truth_records_mean_rate():
    server = make_server(base_pps=2000.0, address="198.18.8.8")
    fleet = SimulatedFleet([server], seed=1)
    rows = []
    transport = SimulatedTransport(fleet, truth=rows.append)
    sent = transport.send_run([server.address], 0, 30 * 10**9, 0, 2, np.array([-30 * 10**9]))[0]
    transport.end_visit(server.address, np.array(sent, dtype=np.int64))
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
       start=st.integers(0, 100), widths=st.lists(st.integers(1, 30), min_size=1, max_size=4),
       clocks=st.lists(_thousandths, min_size=4, max_size=4),
       previous=st.lists(_thousandths, min_size=1, max_size=6))
def test_send_run_matches_the_per_send_loop(interval_ns, first_ns, start, widths, clocks,
                                            previous):
    # consecutive runs of up to 6 targets, each after a clock that may be
    # ahead of the run's due time, as a collection's wait leaves it; the
    # previous sends, ahead of or behind the first due time, force waits
    def at(thousandths, index):
        return max(0, first_ns + index * interval_ns + thousandths * interval_ns // 1000)

    targets = [f"198.18.4.{i + 1}" for i in range(len(previous))]
    transport, oracle = (SimulatedTransport(make_fleet([])) for _ in range(2))
    not_before_ns = np.array([at(offset, start - 1) for offset in previous], dtype=np.int64)
    for width, clock in zip(widths, clocks):
        for clocked in (transport, oracle):
            clocked.sleep_until_ns(at(clock, start))
        expected = send_run_per_send(oracle, lambda target, index: oracle.now_ns(), targets,
                                     first_ns, interval_ns, start, start + width, not_before_ns)
        sent_ns = transport.send_run(targets, first_ns, interval_ns, start, start + width,
                                     not_before_ns)
        assert sent_ns.dtype == np.int64
        assert sent_ns.tolist() == expected.tolist()
        assert transport.now_ns() == oracle.now_ns()
        start, not_before_ns = start + width, sent_ns[:, -1]


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
def test_serve_visit_matches_the_per_echo_responder(spec, seed, start_ns, visits):
    (server, reference), _ = _twin_servers(spec, seed)
    for offsets in visits:
        server.advance([start_ns])
        advance_to(reference, start_ns)
        at_ns = sorted(max(0, start_ns + offset) for offset in offsets)
        ids = server.serve_visit(at_ns)
        assert ids.dtype == np.int64
        assert ids.tolist() == [serve_echo(reference, at) for at in at_ns]
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
    # on inside its last bin, whose noise factor must have been kept
    (whole, chunked), _ = _twin_servers(spec, seed)
    at_ns = sorted(max(0, start_ns + offset) for offset in offsets)
    bounds = sorted({cut % (len(at_ns) + 1) for cut in cuts})
    chunks = [at_ns[a:b] for a, b in zip([0, *bounds], [*bounds, len(at_ns)])]
    for server in (whole, chunked):
        server.advance([start_ns])
    ids = whole.serve_visit(at_ns).tolist()
    assert [i for chunk in chunks for i in chunked.serve_visit(chunk).tolist()] == ids
    assert _state(chunked) == _state(whole)
    end_ns = at_ns[-1] + later_ns
    assert chunked.advance([end_ns]).tolist() == whole.advance([end_ns]).tolist()
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
    # 0, and opens with its first send, as run_campaign drives a transport
    (server, reference), fleets = _twin_servers(spec, seed, reachable)
    rows = [[], []]
    transports = [SimulatedTransport(fleets[0], loss_rate, rows[0].append),
                  ScalarTransport(fleets[1], loss_rate, rows[1].append)]
    for gaps in visits:
        sents = []
        for transport in transports:
            transport.sleep_until_ns(start_ns)
            sent = []
            for seq, gap in enumerate(gaps):
                # one send per run, due at at_ns, with an interval of 1 ns
                # and a previous send 1 ns before: a gap of 0 stays 0
                at_ns = transport.now_ns() + gap
                run = transport.send_run([server.address], at_ns - seq, 1, seq, seq + 1,
                                         np.array([at_ns - 1]))
                sent.append(int(run[0, 0]))
            sents.append(sent)
        assert sents[0] == sents[1]
        columns = transports[0].end_visit(server.address, np.array(sents[0], dtype=np.int64))
        assert [column.dtype for column in columns] == [np.int64] * 3
        replies = reply_dict(columns)
        assert len(replies) == len(columns[0])
        assert replies == transports[1].end_visit(server.address, sents[1])
        assert _state(server) == _state(reference)
        start_ns = transports[0].now_ns() + 10**10
    assert rows[0] == rows[1]
