"""Probe engine: pacing, scheduling, campaign execution; ICMP packet codecs."""

import time

import pytest

from fleetscope.probe import (
    AllProbesLost,
    CampaignParams,
    CapacityExceeded,
    ListSink,
    ProbeSample,
    plan_campaign,
    probe_target,
    run_campaign,
)
from fleetscope.simulation import SimulatedTransport
from fleetscope.transport import build_echo_request, icmp_checksum, parse_echo_reply

from conftest import make_fleet, make_server


def test_plan_matches_thirty_minute_revisit():
    targets = [f"198.18.{i // 250}.{i % 250 + 1}" for i in range(4340)]
    params = CampaignParams(seed=7)
    schedule = plan_campaign(targets, params)
    assert schedule.workers == 150
    assert schedule.targets_per_worker == 29  # ceil(4340 / 150)
    # 29 visits of 60 s come to 29 min; the 2-per-hour courtesy cap pads
    # the cycle to exactly 30 min.
    assert schedule.cycle_s == 1800.0
    assigned = [t for worker in schedule.worker_targets for t in worker]
    assert sorted(assigned) == sorted(targets)


def test_plan_pads_single_target_to_cap_spacing():
    params = CampaignParams(workers=1, max_visits_per_hour=2.0)
    schedule = plan_campaign(["198.18.0.1"], params)
    assert schedule.cycle_s == 1800.0
    assert schedule.target_for_slot(0, 0) == "198.18.0.1"
    assert all(schedule.target_for_slot(0, s) is None for s in range(1, 30))
    assert schedule.target_for_slot(0, 30) == "198.18.0.1"


def test_plan_divides_targets_across_workers():
    targets = [f"198.18.1.{i + 1}" for i in range(200)] + [f"198.18.2.{i + 1}" for i in range(100)]
    schedule = plan_campaign(targets, CampaignParams(workers=150))
    assert schedule.targets_per_worker == 2


def test_plan_is_deterministic_given_seed():
    targets = [f"198.18.3.{i + 1}" for i in range(40)]
    a = plan_campaign(targets, CampaignParams(workers=7, seed=5))
    b = plan_campaign(targets, CampaignParams(workers=7, seed=5))
    c = plan_campaign(targets, CampaignParams(workers=7, seed=6))
    assert a.worker_targets == b.worker_targets
    assert a.worker_targets != c.worker_targets


def test_plan_rejects_unschedulable_configs():
    with pytest.raises(CapacityExceeded):
        plan_campaign(["198.18.0.1"], CampaignParams(max_visits_per_hour=0.0))
    with pytest.raises(ValueError):
        plan_campaign([], CampaignParams())


def test_params_accept_the_most_probes_a_visit_can_number():
    # 65,536 probes of 1 ms in a 65.536 s visit, then one more
    assert CampaignParams(probe_interval_s=0.001, dwell_s=65.536)
    with pytest.raises(ValueError, match="at most 65536 probes"):
        CampaignParams(probe_interval_s=0.001, dwell_s=65.537)


def test_params_accept_the_longest_timeout_a_frame_can_hold():
    assert CampaignParams(probe_timeout_s=4.294967294)
    with pytest.raises(ValueError, match="timeout"):
        CampaignParams(probe_timeout_s=4.294967295)
    # the default timeout is ten intervals: 0.4294967294 s is the longest interval
    assert CampaignParams(probe_interval_s=0.4294967294, dwell_s=60.0)
    with pytest.raises(ValueError, match="timeout"):
        CampaignParams(probe_interval_s=0.4294967295, dwell_s=60.0)


def test_probe_target_sends_dwell_over_interval_probes():
    server = make_server(base_pps=1000.0)
    fleet = make_fleet([server])
    visit = probe_target(server.address, 0.03, 60.0, SimulatedTransport(fleet))
    assert len(visit.samples) == 2000
    assert visit.loss_count == 0
    assert all(0 <= s.ipid <= 65535 for s in visit.samples)


def test_probe_target_pacing_is_exact_under_virtual_clock():
    server = make_server(base_pps=100.0)
    fleet = make_fleet([server])
    visit = probe_target(server.address, 0.03, 6.0, SimulatedTransport(fleet))
    gaps = [b.sent_ns - a.sent_ns for a, b in zip(visit.samples, visit.samples[1:])]
    interval_ns = 30_000_000
    assert all(abs(g - interval_ns) <= interval_ns / 10 for g in gaps)


def test_probe_target_black_hole_raises_with_visit():
    server = make_server(base_pps=10.0, reachable=False)
    fleet = make_fleet([server])
    with pytest.raises(AllProbesLost) as exc:
        probe_target(server.address, 0.03, 6.0, SimulatedTransport(fleet))
    assert exc.value.visit.loss_count == 200


def test_sample_invariants():
    with pytest.raises(ValueError):
        ProbeSample("t", 0, 100, 50, 1)
    with pytest.raises(ValueError):
        ProbeSample("t", 0, 0, 1, 70000)


def test_run_campaign_reachability_partition():
    responsive = [make_server(base_pps=100.0, counter=i + 1) for i in range(10)]
    silent = [make_server(base_pps=100.0, counter=90 + i, reachable=False) for i in range(2)]
    fleet = make_fleet(responsive + silent)
    params = CampaignParams(
        probe_interval_s=0.03, dwell_s=3.0, workers=4, total_duration_s=12.0,
        max_visits_per_hour=None, seed=3,
    )
    sink = ListSink()
    summary = run_campaign(fleet.addresses(), params, SimulatedTransport(fleet), sink)
    assert set(summary.reachable) == {s.address for s in responsive}
    assert set(summary.unreachable) == {s.address for s in silent}
    assert summary.visits_completed == len(sink.visits)


def test_run_campaign_zero_duration_is_empty():
    fleet = make_fleet([make_server(base_pps=1.0)])
    params = CampaignParams(total_duration_s=0.0)
    summary = run_campaign(fleet.addresses(), params, SimulatedTransport(fleet), ListSink())
    assert summary.visits_completed == 0
    assert summary.reachable == ()
    assert summary.unreachable == ()


def test_run_campaign_sample_times_strictly_increase_per_target():
    servers = [make_server(base_pps=50.0, counter=i + 1) for i in range(6)]
    fleet = make_fleet(servers)
    params = CampaignParams(
        probe_interval_s=0.03, dwell_s=3.0, workers=2, total_duration_s=30.0,
        max_visits_per_hour=None, seed=1,
    )
    sink = ListSink()
    run_campaign(fleet.addresses(), params, SimulatedTransport(fleet), sink)
    per_target: dict[str, list[int]] = {}
    for visit in sink.visits:
        per_target.setdefault(visit.target, []).extend(s.sent_ns for s in visit.samples)
    for times in per_target.values():
        assert all(a < b for a, b in zip(times, times[1:]))


def test_run_campaign_respects_courtesy_cap():
    servers = [make_server(base_pps=50.0, counter=i + 1) for i in range(3)]
    fleet = make_fleet(servers)
    # dwell 60 s, cap 2/hour: visits must sit 1800 s apart
    params = CampaignParams(
        probe_interval_s=0.03, dwell_s=60.0, workers=3, total_duration_s=2 * 3600.0,
        max_visits_per_hour=2.0, seed=1,
    )
    sink = ListSink()
    run_campaign(fleet.addresses(), params, SimulatedTransport(fleet), sink)
    starts: dict[str, list[int]] = {}
    for visit in sink.visits:
        starts.setdefault(visit.target, []).append(visit.start_ns)
    hour_ns = 3600 * 10**9
    for times in starts.values():
        times.sort()
        for i, t0 in enumerate(times):
            in_window = sum(1 for t in times if t0 <= t < t0 + hour_ns)
            assert in_window <= 2


class RealTimeCounterTransport:
    """Wall-clock fake transport: a single shared counter, instant replies."""

    is_virtual = False

    def __init__(self):
        import threading

        self.counter = 0
        self._lock = threading.Lock()
        self._pending: dict[str, dict[int, tuple[int, int]]] = {}

    def now_ns(self) -> int:
        return time.monotonic_ns()

    def sleep_until_ns(self, t_ns: int) -> None:
        delta = t_ns - time.monotonic_ns()
        if delta > 0:
            time.sleep(delta / 1e9)

    def begin_visit(self, target: str) -> None:
        pass

    def send_echo(self, target: str, seq: int) -> int:
        sent = time.monotonic_ns()
        with self._lock:
            self.counter += 1
            value = self.counter & 0xFFFF
            self._pending.setdefault(target, {})[seq] = (sent + 1000, value)
        return sent

    def drain(self, target: str, deadline_ns: int) -> dict:
        self.sleep_until_ns(deadline_ns)
        with self._lock:
            return self._pending.pop(target, {})

    def end_visit(self, target: str) -> None:
        pass


def test_run_campaign_threaded_path_with_real_clock():
    transport = RealTimeCounterTransport()
    targets = ["198.18.5.1", "198.18.5.2", "198.18.5.3", "198.18.5.4"]
    params = CampaignParams(
        probe_interval_s=0.002, dwell_s=0.02, workers=2, total_duration_s=0.08,
        max_visits_per_hour=None, probe_timeout_s=0.005, seed=2,
    )
    sink = ListSink()
    summary = run_campaign(targets, params, transport, sink)
    assert summary.visits_completed >= 4
    assert set(summary.reachable) == set(targets)


def _raw_socket_available() -> bool:
    import socket

    try:
        sock = socket.socket(socket.AF_INET, socket.SOCK_RAW, socket.IPPROTO_ICMP)
    except OSError:
        return False
    sock.close()
    return True


@pytest.mark.skipif(not _raw_socket_available(), reason="needs CAP_NET_RAW")
def test_raw_transport_probes_loopback():
    from fleetscope.transport import RawIcmpTransport

    with RawIcmpTransport() as transport:
        visit = probe_target("127.0.0.1", 0.005, 0.25, transport, timeout_s=0.5)
    assert len(visit.samples) == 50
    assert visit.reply_count > 40  # loopback answers essentially everything
    for sample in visit.samples:
        if sample.ipid is not None:
            assert 0 <= sample.ipid <= 65535
            assert sample.rtt_ns is not None and sample.rtt_ns > 0


class _NoSocket:
    """Stands in for a raw socket: sends go nowhere and nothing is received."""

    def __init__(self, *args):
        pass

    def settimeout(self, timeout):
        pass

    def sendto(self, packet, address):
        pass

    def recvfrom(self, size):
        raise OSError("no socket")

    def close(self):
        pass


def test_raw_transport_clock_is_utc(monkeypatch):
    from fleetscope import transport

    monkeypatch.setattr(transport.socket, "socket", _NoSocket)
    with transport.RawIcmpTransport() as raw:
        assert abs(raw.now_ns() - time.time_ns()) < 1_000_000_000
        assert abs(raw.send_echo("192.0.2.1", 0) - time.time_ns()) < 1_000_000_000
        deadline_ns = raw.now_ns() + 20_000_000
        raw.sleep_until_ns(deadline_ns)
        assert deadline_ns <= raw.now_ns() < deadline_ns + 1_000_000_000


def test_icmp_checksum_known_vector():
    # canonical example: checksum of this word sequence is 0x220d
    data = bytes.fromhex("0001f203f4f5f6f7")
    assert icmp_checksum(data) == 0x220D


def test_echo_request_checksum_validates():
    packet = build_echo_request(ident=0x1234, seq=7)
    assert icmp_checksum(packet) == 0
    assert packet[0] == 8 and packet[1] == 0


def test_parse_echo_reply_reads_ip_id():
    icmp = bytearray(build_echo_request(ident=0x1234, seq=7))
    icmp[0] = 0  # echo reply
    ip_header = bytearray(20)
    ip_header[0] = 0x45
    ip_header[4:6] = (0xBEEF).to_bytes(2, "big")
    parsed = parse_echo_reply(bytes(ip_header) + bytes(icmp))
    assert parsed == (0xBEEF, 0x1234, 7)


def test_parse_echo_reply_rejects_noise():
    assert parse_echo_reply(b"\x00" * 10) is None
    assert parse_echo_reply(b"\x60" + b"\x00" * 40) is None  # IPv6
    request = build_echo_request(ident=1, seq=1)
    ip_header = b"\x45" + b"\x00" * 19
    assert parse_echo_reply(ip_header + request) is None  # type 8, not a reply
