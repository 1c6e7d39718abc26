"""Probe engine: pacing, scheduling, campaign execution; ICMP packet codecs."""

import dataclasses
import json
import socket
import struct
import threading
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fleetscope import transport
from fleetscope.cli import main
from fleetscope.probe import (
    CampaignParams,
    CapacityExceeded,
    plan_campaign,
    run_campaign,
)
from fleetscope.simulation import SimulatedTransport
from fleetscope.store import LOST_RTT
from fleetscope.transport import (
    EchoTransport,
    RawIcmpTransport,
    TransportError,
    build_echo_request,
    icmp_checksum,
    parse_echo_reply,
    reply_arrays,
)

from conftest import make_fleet, make_server, public_methods, reply_dict
from responder_oracle import PerSendRuns, ScalarTransport


def test_plan_matches_thirty_minute_revisit():
    targets = [f"198.18.{i // 250}.{i % 250 + 1}" for i in range(4340)]
    params = CampaignParams(seed=7)
    schedule = plan_campaign(targets, params)
    assert len(schedule.slots[0]) == 150  # every worker is busy in the first slot
    assert len(schedule.slots) == 29  # ceil(4340 / 150)
    # 29 visits of 60 s come to 29 min; the 2-per-hour courtesy cap pads
    # the cycle to exactly 30 min.
    assert schedule.cycle_slots * params.dwell_s == 1800.0
    assigned = [t for slot in schedule.slots for t in slot]
    assert sorted(assigned) == sorted(targets)


def _addresses(count):
    return [f"198.18.{i // 250}.{i % 250 + 1}" for i in range(count)]


def test_plan_refuses_a_cycle_longer_than_the_revisit_period():
    # 32 one-minute visits per worker take 1,920 s, but reports bin by 1,800 s
    with pytest.raises(CapacityExceeded, match="156 workers or a revisit period of at least 1920 s"):
        plan_campaign(_addresses(4669), CampaignParams(seed=7))
    # the courtesy cap alone needs 1,800 s: no number of workers fits 900 s
    with pytest.raises(CapacityExceeded, match="this needs a revisit period of at least 1800 s"):
        plan_campaign(_addresses(8), CampaignParams(workers=4, revisit_period_s=900.0))


@pytest.mark.parametrize("targets, workers, dwell_s", [
    (4669, 150, 0.75),  # the shape of the fleet-sweep benchmark
    (8, 4, 60.0),  # the shape of the campaign-day benchmark
])
def test_plan_keeps_benchmark_shapes_at_thirty_minutes(targets, workers, dwell_s):
    schedule = plan_campaign(_addresses(targets), CampaignParams(workers=workers, dwell_s=dwell_s))
    assert schedule.cycle_slots * round(dwell_s * 1e9) == 1800 * 10**9


def test_plan_pads_single_target_to_cap_spacing():
    params = CampaignParams(workers=1, max_visits_per_hour=2.0)
    schedule = plan_campaign(["198.18.0.1"], params)
    # slot 0 of every 30-slot cycle is busy and slots 1-29 are idle, so the
    # target's next visit is in slot 30
    assert schedule.cycle_slots * params.dwell_s == 1800.0
    assert schedule.slots == (("198.18.0.1",),)
    assert schedule.cycle_slots == 30


def test_plan_divides_targets_across_workers():
    targets = [f"198.18.1.{i + 1}" for i in range(200)] + [f"198.18.2.{i + 1}" for i in range(100)]
    schedule = plan_campaign(targets, CampaignParams(workers=150))
    assert [len(slot) for slot in schedule.slots] == [150, 150]


def test_plan_is_deterministic_given_seed():
    targets = [f"198.18.3.{i + 1}" for i in range(40)]
    a = plan_campaign(targets, CampaignParams(workers=7, seed=5))
    b = plan_campaign(targets, CampaignParams(workers=7, seed=5))
    c = plan_campaign(targets, CampaignParams(workers=7, seed=6))
    assert a.slots == b.slots
    assert a.slots != c.slots


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


def test_params_count_the_two_probes_a_visit_needs_in_whole_nanoseconds():
    assert CampaignParams(probe_interval_s=0.03, dwell_s=0.06).probes_per_visit == 2
    # 2.0012 us is two intervals of 1.0006 us, but probes go out every 1,001 ns:
    # a visit of 2,001 ns holds one
    with pytest.raises(ValueError, match="two probe intervals"):
        CampaignParams(probe_interval_s=1.0006e-6, dwell_s=2.0012e-6)


def test_params_accept_the_longest_timeout_a_frame_can_hold():
    assert CampaignParams(probe_timeout_s=4.294967294)
    with pytest.raises(ValueError, match="timeout"):
        CampaignParams(probe_timeout_s=4.294967295)
    # the default timeout is ten intervals: 0.4294967294 s is the longest interval
    assert CampaignParams(probe_interval_s=0.4294967294, dwell_s=60.0)
    with pytest.raises(ValueError, match="timeout"):
        CampaignParams(probe_interval_s=0.4294967295, dwell_s=60.0)


@settings(max_examples=50, deadline=None)
@given(interval_ns=st.integers(1_000, 429_496_729), intervals=st.floats(2.0, 500.0),
       epoch_ns=st.integers(0, 10**15))
def test_a_visit_sends_its_probes_one_interval_apart_from_the_epoch(interval_ns, intervals,
                                                                    epoch_ns):
    # the longest interval keeps the default reply timeout, ten intervals,
    # within what a frame can hold
    params = CampaignParams(probe_interval_s=interval_ns / 1e9,
                            dwell_s=intervals * interval_ns / 1e9, workers=1,
                            total_duration_s=intervals * interval_ns / 1e9,
                            max_visits_per_hour=None)
    server = make_server(base_pps=100.0)
    transport = SimulatedTransport(make_fleet([server]))
    transport.sleep_until_ns(epoch_ns)
    visits = []
    run_campaign([server.address], params, transport, visits.append)
    (visit,) = visits
    assert params.probes_per_visit >= 2
    expected = epoch_ns + interval_ns * np.arange(params.probes_per_visit)
    assert visit.sent_ns.tolist() == expected.tolist()
    assert visit.start_ns == epoch_ns


def _single_visit(server, interval_s, dwell_s):
    """The one visit a one-target, one-worker campaign of one dwell makes to ``server``."""
    params = CampaignParams(probe_interval_s=interval_s, dwell_s=dwell_s, workers=1,
                            total_duration_s=dwell_s, max_visits_per_hour=None)
    visits = []
    run_campaign([server.address], params, SimulatedTransport(make_fleet([server])),
                 visits.append)
    (visit,) = visits
    return visit


def test_probe_target_sends_dwell_over_interval_probes():
    visit = _single_visit(make_server(base_pps=1000.0), 0.03, 60.0)
    assert len(visit.sent_ns) == len(visit.rtt_ns) == len(visit.ipid) == 2000
    assert not (visit.rtt_ns == LOST_RTT).any()
    assert len(set(visit.ipid.tolist())) > 1000


def test_probe_target_pacing_is_exact_under_virtual_clock():
    visit = _single_visit(make_server(base_pps=100.0), 0.03, 6.0)
    interval_ns = 30_000_000
    assert (abs(np.diff(visit.sent_ns) - interval_ns) <= interval_ns / 10).all()


class ScriptedTransport(PerSendRuns):
    """Virtual clock whose ``end_run`` returns the arrays of the
    ``{seq: (recv_ns, ip_id)}`` dict ``replies(send times)`` of each visit."""

    def __init__(self, replies):
        self.replies = replies
        self.clock_ns = 0

    def now_ns(self) -> int:
        return self.clock_ns

    def sleep_until_ns(self, t_ns: int) -> None:
        self.clock_ns = max(self.clock_ns, t_ns)

    def _send_echo(self, target: str, seq: int) -> int:
        return self.clock_ns

    def end_run(self, targets, sent_ns: np.ndarray):
        return reply_arrays([self.replies(sent) for sent in sent_ns], sent_ns.shape[1])


def _one_visit(replies):
    """One visit of ten probes (1 s timeout) against ``ScriptedTransport(replies)``."""
    params = CampaignParams(probe_interval_s=0.03, dwell_s=0.3, workers=1, total_duration_s=0.3,
                            max_visits_per_hour=None)
    visits = []
    summary = run_campaign(["198.18.0.1"], params, ScriptedTransport(replies), visits.append)
    (visit,) = visits
    return summary, visit


def _answer_all(sent):
    return {i: (sent_ns + 1_000, i) for i, sent_ns in enumerate(sent)}


def test_a_reply_before_its_probe_is_an_error():
    with pytest.raises(ValueError, match="before its probe"):
        _one_visit(lambda sent: _answer_all(sent) | {3: (sent[3] - 1, 3)})


def test_an_id_outside_sixteen_bits_is_an_error():
    with pytest.raises(ValueError, match="16-bit"):
        _one_visit(lambda sent: _answer_all(sent) | {4: (sent[4] + 1_000, 70_000)})


def test_replies_to_unsent_probes_and_late_replies_count_as_lost():
    # neither is checked further: seq 10 arrives before any send of that
    # number could have, and the late reply carries an impossible ID
    def replies(sent):
        return _answer_all(sent) | {10: (0, 1), -1: (0, 1), 2: (sent[2] + 1_000_000_001, 70_000)}

    summary, visit = _one_visit(replies)
    assert summary.losses == 1
    assert visit.rtt_ns.tolist() == [1_000] * 2 + [LOST_RTT] + [1_000] * 7
    assert visit.ipid.tolist() == [0, 1, 0, 3, 4, 5, 6, 7, 8, 9]


class TargetScriptedTransport(ScriptedTransport):
    """``ScriptedTransport`` whose ``replies(target, send times)`` also
    gets each visit's target."""

    def end_run(self, targets, sent_ns: np.ndarray):
        return reply_arrays([self.replies(target, sent) for target, sent in zip(targets, sent_ns)],
                            sent_ns.shape[1])


_SLOT = tuple(f"198.18.0.{i + 1}" for i in range(3))


def _one_slot(replies):
    """One slot of three visits of ten probes (1 s timeout) against
    ``TargetScriptedTransport(replies)``: the summary and each target's frame."""
    params = CampaignParams(probe_interval_s=0.03, dwell_s=0.3, workers=3, total_duration_s=0.3,
                            max_visits_per_hour=None)
    visits = []
    summary = run_campaign(_SLOT, params, TargetScriptedTransport(replies), visits.append)
    return summary, {visit.target: visit for visit in visits}


@pytest.mark.parametrize("bad, error", [
    (lambda sent: {3: (sent[3] - 1, 3)}, "a reply arrived before its probe was sent"),
    (lambda sent: {4: (sent[4] + 1_000, 70_000)}, "an IP ID is not a 16-bit value"),
    (lambda sent: {4: (sent[4] + 1_000, -1)}, "an IP ID is not a 16-bit value"),
], ids=["reply_before_send", "id_above_16_bits", "negative_id"])
def test_a_bad_reply_in_a_slot_is_refused_naming_its_target(bad, error):
    # every visit answers every probe; one target also sends the bad reply
    for target in _SLOT:
        def replies(visit_target, sent):
            return _answer_all(sent) | (bad(sent) if visit_target == target else {})

        with pytest.raises(ValueError) as raised:
            _one_slot(replies)
        assert str(raised.value) == f"{target}: {error}"
    # with every target's reply bad, the first visit of the slot is named
    first = plan_campaign(_SLOT, CampaignParams(workers=3)).slots[0][0]
    with pytest.raises(ValueError, match=f"^{first}: "):
        _one_slot(lambda visit_target, sent: _answer_all(sent) | bad(sent))


def test_late_replies_and_replies_to_unsent_probes_in_a_slot_count_as_lost():
    # the first target's probe 2 is answered one ns after the 1 s timeout,
    # with an impossible ID, and its probe 3 right at it; the second hears
    # replies only to sequence numbers it did not send
    def replies(target, sent):
        if target == _SLOT[0]:
            return _answer_all(sent) | {2: (sent[2] + 1_000_000_001, 70_000),
                                        3: (sent[3] + 1_000_000_000, 3)}
        if target == _SLOT[1]:
            return {-1: (sent[0] + 1_000, 1), 10: (sent[9] + 1_000, 1), 65_535: (0, 70_000)}
        return _answer_all(sent)

    summary, visits = _one_slot(replies)
    assert summary.losses == 11
    assert visits[_SLOT[0]].rtt_ns.tolist() == [1_000] * 2 + [LOST_RTT, 1_000_000_000] + [1_000] * 6
    assert visits[_SLOT[0]].ipid.tolist() == [0, 1, 0, 3, 4, 5, 6, 7, 8, 9]
    assert (visits[_SLOT[1]].rtt_ns == LOST_RTT).all() and not visits[_SLOT[1]].ipid.any()
    assert visits[_SLOT[2]].rtt_ns.tolist() == [1_000] * 10
    assert summary.unreachable == (_SLOT[1],)


class OneRowTransport(TargetScriptedTransport):
    """``TargetScriptedTransport`` whose ``end_run`` returns the first row only."""

    def end_run(self, targets, sent_ns: np.ndarray):
        recv_ns, ip_id = super().end_run(targets, sent_ns)
        return recv_ns[:1], ip_id[:1]


def test_replies_of_another_shape_than_the_sends_are_refused():
    # one row would broadcast over the slot's three visits
    params = CampaignParams(probe_interval_s=0.03, dwell_s=0.3, workers=3, total_duration_s=0.3,
                            max_visits_per_hour=None)
    transport = OneRowTransport(lambda target, sent: _answer_all(sent))
    with pytest.raises(TransportError, match=r"^the replies to visits of shape \(3, 10\) came "
                                             r"back with the shapes \(1, 10\) and \(1, 10\)$"):
        run_campaign(_SLOT, params, transport, [].append)


def test_run_campaign_reachability_partition():
    responsive = [make_server(base_pps=100.0, counter=i + 1) for i in range(10)]
    silent = [make_server(base_pps=100.0, counter=90 + i, reachable=False) for i in range(2)]
    fleet = make_fleet(responsive + silent)
    params = CampaignParams(
        probe_interval_s=0.03, dwell_s=3.0, workers=4, total_duration_s=12.0,
        max_visits_per_hour=None, seed=3,
    )
    visits = []
    summary = run_campaign(list(fleet.by_address), params, SimulatedTransport(fleet), visits.append)
    assert set(summary.reachable) == {s.address for s in responsive}
    assert set(summary.unreachable) == {s.address for s in silent}
    assert summary.visits_completed == len(visits)


def test_run_campaign_zero_duration_is_empty():
    fleet = make_fleet([make_server(base_pps=1.0)])
    params = CampaignParams(total_duration_s=0.0)
    summary = run_campaign(list(fleet.by_address), params, SimulatedTransport(fleet), [].append)
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
    visits = []
    run_campaign(list(fleet.by_address), params, SimulatedTransport(fleet), visits.append)
    per_target: dict[str, list[int]] = {}
    for visit in visits:
        per_target.setdefault(visit.target, []).extend(visit.sent_ns.tolist())
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
    visits = []
    run_campaign(list(fleet.by_address), params, SimulatedTransport(fleet), visits.append)
    starts: dict[str, list[int]] = {}
    for visit in visits:
        starts.setdefault(visit.target, []).append(visit.start_ns)
    hour_ns = 3600 * 10**9
    for times in starts.values():
        times.sort()
        for i, t0 in enumerate(times):
            in_window = sum(1 for t in times if t0 <= t < t0 + hour_ns)
            assert in_window <= 2


class RealTimeCounterTransport(PerSendRuns):
    """Wall-clock fake transport: a single shared counter, instant replies."""

    def __init__(self):
        self.counter = 0
        self._pending: dict[str, dict[int, tuple[int, int]]] = {}

    def now_ns(self) -> int:
        return time.monotonic_ns()

    def sleep_until_ns(self, t_ns: int) -> None:
        delta = t_ns - time.monotonic_ns()
        if delta > 0:
            time.sleep(delta / 1e9)

    def _send_echo(self, target: str, seq: int) -> int:
        sent = time.monotonic_ns()
        self.counter += 1
        self._pending.setdefault(target, {})[seq] = (sent + 1000, self.counter & 0xFFFF)
        return sent

    def end_run(self, targets, sent_ns: np.ndarray):
        return reply_arrays([self._pending.pop(target, {}) for target in targets],
                            sent_ns.shape[1])


def test_run_campaign_with_a_real_clock():
    transport = RealTimeCounterTransport()
    targets = ["198.18.5.1", "198.18.5.2", "198.18.5.3", "198.18.5.4"]
    params = CampaignParams(
        probe_interval_s=0.002, dwell_s=0.02, workers=2, total_duration_s=0.08,
        max_visits_per_hour=None, probe_timeout_s=0.005, seed=2,
    )
    visits = []
    summary = run_campaign(targets, params, transport, visits.append)
    assert summary.visits_completed >= 4
    assert set(summary.reachable) == set(targets)


def test_real_clock_campaign_keeps_to_its_slots():
    # A visit's reply window overlaps the next visit's sends, so 20 visits
    # of 0.1 s end 2.0 s plus one reply timeout after the start.
    transport = RealTimeCounterTransport()
    targets = [f"198.18.6.{i + 1}" for i in range(20)]
    params = CampaignParams(
        probe_interval_s=0.01, dwell_s=0.1, workers=1, total_duration_s=2.0,
        max_visits_per_hour=None, probe_timeout_s=0.05,
    )
    visits = []
    started_ns = time.monotonic_ns()
    run_campaign(targets, params, transport, visits.append)
    wall_s = (time.monotonic_ns() - started_ns) / 1e9
    assert wall_s < 2.5
    assert len(visits) == 20
    for slot, visit in enumerate(visits):
        lag_ns = visit.sent_ns[0] - (started_ns + slot * 100_000_000)
        assert 0 <= lag_ns < 100_000_000, f"visit {slot} started {lag_ns / 1e6:.1f} ms late"


class StallingTransport(RealTimeCounterTransport):
    """Its send number ``stall_at`` blocks for ``stall_ns`` after reading the
    clock, as a send into a full socket buffer would."""

    def __init__(self, stall_at: int, stall_ns: int):
        super().__init__()
        self.stall_at = stall_at
        self.stall_ns = stall_ns
        self.sends = 0

    def _send_echo(self, target: str, seq: int) -> int:
        sent = super()._send_echo(target, seq)
        self.sends += 1
        if self.sends == self.stall_at:
            time.sleep(self.stall_ns / 1e9)
        return sent


def test_a_stalled_send_never_brings_a_targets_echoes_closer_than_the_interval():
    # the second send event stalls for three intervals after its second
    # send, so its third send and the next event are late
    interval_ns = 10_000_000
    transport = StallingTransport(stall_at=5, stall_ns=3 * interval_ns)
    targets = [f"198.18.7.{i + 1}" for i in range(3)]
    params = CampaignParams(probe_interval_s=0.01, dwell_s=0.1, workers=3, total_duration_s=0.1,
                            max_visits_per_hour=None, probe_timeout_s=0.05)
    visits = []
    run_campaign(targets, params, transport, visits.append)
    assert transport.sends == 30
    assert len(visits) == 3
    for visit in visits:
        gaps = np.diff(visit.sent_ns)
        assert (gaps >= interval_ns).all(), f"{visit.target}: a gap of {gaps.min() / 1e6:.3f} ms"


def test_a_late_last_send_never_brings_the_next_visit_closer_than_the_interval():
    # the first visit stalls for 2.5 intervals after its ninth send, so its
    # tenth send is late; the reply timeout is one interval, so the next
    # visit is due one interval after the tenth send's due time
    interval_ns = 10_000_000
    transport = StallingTransport(stall_at=9, stall_ns=25_000_000)
    params = CampaignParams(probe_interval_s=0.01, dwell_s=0.1, workers=1, total_duration_s=0.2,
                            max_visits_per_hour=None, probe_timeout_s=0.01)
    visits = []
    run_campaign(["198.18.8.1"], params, transport, visits.append)
    assert transport.sends == 20
    assert len(visits) == 2
    gaps = np.diff(np.concatenate([visit.sent_ns for visit in visits]))
    assert (gaps >= interval_ns).all(), f"a gap of {gaps.min() / 1e6:.3f} ms"


class VirtualStallingTransport(ScriptedTransport):
    """Virtual clock that no reply reaches; its send number ``i`` moves the
    clock forward by ``stalls_ns[i % len(stalls_ns)]`` after reading it.
    ``sends`` holds each target's send times in the order they were made."""

    def __init__(self, stalls_ns):
        super().__init__(lambda sent_ns: {})
        self.stalls_ns = stalls_ns
        self.sends: dict[str, list[int]] = {}
        self.count = 0

    def _send_echo(self, target: str, seq: int) -> int:
        sent = super()._send_echo(target, seq)
        self.sends.setdefault(target, []).append(sent)
        self.clock_ns += self.stalls_ns[self.count % len(self.stalls_ns)]
        self.count += 1
        return sent


@settings(max_examples=60, deadline=None)
@given(targets=st.integers(1, 6), workers=st.integers(1, 3), visits=st.integers(2, 3),
       stalls=st.lists(st.integers(0, 3 * 10_000_000), min_size=1, max_size=40))
def test_stalled_sends_never_bring_a_targets_echoes_closer_than_the_interval(targets, workers,
                                                                           visits, stalls):
    interval_ns = 10_000_000
    addresses = [f"198.18.9.{i + 1}" for i in range(targets)]
    params = CampaignParams(probe_interval_s=0.01, dwell_s=0.05, workers=workers,
                            max_visits_per_hour=None, probe_timeout_s=0.01)
    cycle_s = plan_campaign(addresses, params).cycle_slots * params.dwell_s
    params = dataclasses.replace(params, total_duration_s=visits * cycle_s)
    transport = VirtualStallingTransport(stalls)
    frames = []
    run_campaign(addresses, params, transport, frames.append)
    assert len(frames) == targets * visits
    assert all(len(frame.sent_ns) == params.probes_per_visit for frame in frames)
    assert sorted(transport.sends) == sorted(addresses)
    for target, sent in transport.sends.items():
        assert len(sent) == visits * params.probes_per_visit
        gaps = np.diff(sent)
        assert (gaps >= interval_ns).all(), f"{target}: a gap of {gaps.min() / 1e6:.3f} ms"


class ShortGapTransport(ScriptedTransport):
    """Virtual clock that no reply reaches; in its call number ``call`` it
    moves the send ``(row, column)`` to one ns under an interval after the
    send before it, or after ``not_before_ns`` in column 0. ``damaged``
    holds the target of that send."""

    def __init__(self, call: int, row: int, column: int):
        super().__init__(lambda sent_ns: {})
        self.call, self.row, self.column = call, row, column
        self.calls = 0
        self.damaged = None

    def send_run(self, targets, first_ns, interval_ns, count, not_before_ns):
        sent_ns = super().send_run(targets, first_ns, interval_ns, count, not_before_ns)
        if self.calls == self.call:
            before = sent_ns[self.row] if self.column else not_before_ns
            sent_ns[self.row, self.column] = before[self.column - 1] + interval_ns - 1
            self.damaged = targets[self.row]
        self.calls += 1
        return sent_ns


@pytest.mark.parametrize("call, column", [
    (0, 3),  # a gap inside a visit's run
    (1, 0),  # the first send of the next visit, one ns too close to the last one's last
])
def test_a_run_that_sends_within_an_interval_is_refused_naming_the_target(call, column):
    # three targets of one slot each, visited twice: one call per slot, the
    # first slot collected at the second slot's start
    params = CampaignParams(probe_interval_s=0.01, dwell_s=0.05, workers=3, probe_timeout_s=0.01,
                            max_visits_per_hour=None, total_duration_s=0.1)
    transport = ShortGapTransport(call, row=1, column=column)
    with pytest.raises(TransportError, match="under the 10000000 ns interval") as raised:
        run_campaign([f"198.18.9.{i + 1}" for i in range(3)], params, transport, [].append)
    assert transport.damaged is not None
    assert str(raised.value).startswith(f"{transport.damaged}: ")
    assert transport.calls == call + 1


def test_single_target_worker_waits_out_its_reply_window():
    # The last send at 59.97 s plus the 1 s timeout outlasts a 60 s slot.
    assert plan_campaign(["198.18.0.1"], CampaignParams(workers=1,
                                                        max_visits_per_hour=None)).cycle_slots == 2
    server = make_server(base_pps=100.0)
    fleet = make_fleet([server])
    params = CampaignParams(
        probe_interval_s=0.03, dwell_s=3.0, workers=1, total_duration_s=12.0,
        max_visits_per_hour=None,
    )
    visits = []
    summary = run_campaign(list(fleet.by_address), params, SimulatedTransport(fleet), visits.append)
    assert [v.start_ns for v in visits] == [0, 6 * 10**9]
    assert summary.probes_sent == 200
    assert summary.losses == 0


def test_visits_of_a_slot_send_in_step_and_arrive_in_slot_then_worker_order():
    servers = [make_server(base_pps=50.0, counter=i + 1) for i in range(6)]
    fleet = make_fleet(servers)
    params = CampaignParams(
        probe_interval_s=0.03, dwell_s=3.0, workers=3, total_duration_s=12.0,
        max_visits_per_hour=None, seed=4,
    )
    visits = []
    run_campaign(list(fleet.by_address), params, SimulatedTransport(fleet), visits.append)
    schedule = plan_campaign(list(fleet.by_address), params)
    assert schedule.cycle_slots == len(schedule.slots) == 2
    expected = [(slot, target) for slot in range(4) for target in schedule.slots[slot % 2]]
    assert [(v.start_ns // (3 * 10**9), v.target) for v in visits] == expected
    for slot in range(4):
        sent = {tuple(v.sent_ns.tolist()) for v in visits[3 * slot:3 * slot + 3]}
        assert len(sent) == 1


class LoggingTransport(ScriptedTransport):
    """Virtual clock that no reply reaches; ``log`` holds each send and each
    collection in the order they were made, as ``(kind, target, clock,
    detail)``: the kind ``"send"`` with the first due time of its call, or
    ``"end"`` with the visit's send times. ``runs`` holds the first due time
    of each ``send_run`` call."""

    def __init__(self):
        super().__init__(lambda sent_ns: {})
        self.log = []
        self.runs = []

    def send_run(self, targets, first_ns, interval_ns, count, not_before_ns):
        self.runs.append(first_ns)
        return super().send_run(targets, first_ns, interval_ns, count, not_before_ns)

    def _send_echo(self, target: str, seq: int) -> int:
        self.log.append(("send", target, self.clock_ns, self.runs[-1]))
        return super()._send_echo(target, seq)

    def end_run(self, targets, sent_ns: np.ndarray):
        for target, sent in zip(targets, sent_ns.tolist()):
            self.log.append(("end", target, self.clock_ns, sent))
        return super().end_run(targets, sent_ns)


def _check_collections_come_before_the_next_slot(log, frames, timeout_ns):
    """Each collection comes once its visit's last send is one timeout old:
    after every send of the slots that start before that time, and before
    the sends of the first slot that starts at or after it, or at the
    campaign's end. Visits are collected and emitted in due order."""
    ends = [(position, clock_ns, sent_ns[-1] + timeout_ns)
            for position, (kind, _, clock_ns, sent_ns) in enumerate(log) if kind == "end"]
    sends = [(position, first_ns)
             for position, (kind, _, _, first_ns) in enumerate(log) if kind == "send"]
    for position, clock_ns, due_ns in ends:
        assert clock_ns >= due_ns
        assert all((first_ns < due_ns) == (before < position) for before, first_ns in sends)
    dues = [due_ns for *_, due_ns in ends]
    assert dues == sorted(dues)
    assert [int(frame.sent_ns[-1]) + timeout_ns for frame in frames] == dues


@settings(max_examples=100, deadline=None)
@given(targets=st.integers(1, 9), workers=st.integers(1, 4), dwell=st.integers(2, 8),
       timeout=st.integers(1, 30), slots=st.integers(1, 16))
@example(targets=9, workers=3, dwell=5, timeout=12, slots=9)  # a timeout over two dwells
@example(targets=1, workers=1, dwell=4, timeout=1, slots=3)  # due at the next visit's start
def test_a_collection_comes_before_the_first_slot_that_starts_after_its_reply_timeout(
        targets, workers, dwell, timeout, slots):
    # dwell and timeout in intervals of 10 ms, the duration in dwells
    params = CampaignParams(probe_interval_s=0.01, dwell_s=dwell / 100, workers=workers,
                            probe_timeout_s=timeout / 100, max_visits_per_hour=None,
                            total_duration_s=slots * dwell / 100)
    addresses = [f"198.18.9.{i + 1}" for i in range(targets)]
    transport = LoggingTransport()
    frames = []
    summary = run_campaign(addresses, params, transport, frames.append)
    schedule = plan_campaign(addresses, params)
    busy = [slot for slot in range(slots) if slot % schedule.cycle_slots < len(schedule.slots)]
    assert transport.runs == [slot * dwell * 10_000_000 for slot in busy]
    assert summary.visits_completed == len(frames) == sum(
        len(schedule.slots[slot % schedule.cycle_slots]) for slot in busy)
    _check_collections_come_before_the_next_slot(transport.log, frames, timeout * 10_000_000)


def test_collections_interleave_with_the_sends_of_later_slots():
    # the fleet-sweep shape: a reply timeout longer than a slot, so a slot is
    # collected before the slot three after it sends, and the last three at
    # the end; each slot is one send_run call, though four collections fall
    # due while a slot sends
    addresses = [f"198.18.9.{i + 1}" for i in range(9)]
    params = CampaignParams(probe_interval_s=0.03, dwell_s=0.75, workers=3, probe_timeout_s=1.0,
                            max_visits_per_hour=None, total_duration_s=4.5)
    transport = LoggingTransport()
    frames = []
    run_campaign(addresses, params, transport, frames.append)
    assert len(frames) == 18
    assert transport.runs == [slot * 750_000_000 for slot in range(6)]
    ends = [clock_ns for kind, _, clock_ns, _ in transport.log if kind == "end"]
    assert ends == sorted(ends) and ends[0] == 2_220_000_000 < ends[-1] == 5_470_000_000
    _check_collections_come_before_the_next_slot(transport.log, frames, 1_000_000_000)


def test_a_collection_comes_before_a_send_due_at_the_same_time():
    # the last send at 2.97 s plus a 30 ms timeout is 3 s, when slot 1 revisits the target
    params = CampaignParams(probe_interval_s=0.03, dwell_s=3.0, workers=1, probe_timeout_s=0.03,
                            max_visits_per_hour=None, total_duration_s=6.0)
    transport = LoggingTransport()
    frames = []
    run_campaign(["198.18.0.1"], params, transport, frames.append)
    kinds = [kind for kind, *_ in transport.log]
    assert kinds == ["send"] * 100 + ["end"] + ["send"] * 100 + ["end"]
    assert transport.log[100][2] == transport.log[101][2] == 3_000_000_000
    _check_collections_come_before_the_next_slot(transport.log, frames, 30_000_000)


# public methods a transport may have beyond the protocol: the raw socket
# is closed by its owner, never by run_campaign
_OUTSIDE_THE_PROTOCOL = {RawIcmpTransport: {"close"}}


@pytest.mark.parametrize("cls", [RawIcmpTransport, SimulatedTransport, ScalarTransport,
                                 ScriptedTransport, TargetScriptedTransport, OneRowTransport,
                                 RealTimeCounterTransport, StallingTransport,
                                 VirtualStallingTransport, LoggingTransport, ShortGapTransport])
def test_every_transport_defines_exactly_the_protocol(cls):
    assert public_methods(EchoTransport) == {"now_ns", "sleep_until_ns", "send_run", "end_run"}
    extra = _OUTSIDE_THE_PROTOCOL.get(cls, set())
    assert public_methods(cls) - extra == public_methods(EchoTransport)


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
    params = CampaignParams(probe_interval_s=0.005, dwell_s=0.25, workers=1,
                            total_duration_s=0.25, max_visits_per_hour=None,
                            probe_timeout_s=0.5)
    visits = []
    with RawIcmpTransport() as transport:
        run_campaign(["127.0.0.1"], params, transport, visits.append)
    (visit,) = visits
    assert len(visit.sent_ns) == 50
    answered = visit.rtt_ns != LOST_RTT
    assert answered.sum() > 40  # loopback answers essentially everything
    assert (visit.rtt_ns[answered] > 0).all()


@pytest.mark.skipif(not _raw_socket_available(), reason="needs CAP_NET_RAW")
def test_raw_transport_hears_every_reply_to_a_full_slot():
    # 150 visits send in step; on loopback the socket also receives every
    # echo request, so each send event queues 300 datagrams before the loop
    # waits and reads them
    targets = [f"127.0.0.{i}" for i in range(1, 151)]
    params = CampaignParams(probe_interval_s=0.03, dwell_s=0.15, workers=150,
                            total_duration_s=0.15, max_visits_per_hour=None,
                            probe_timeout_s=0.3)
    visits = []
    with RawIcmpTransport() as raw:
        summary = run_campaign(targets, params, raw, visits.append)
    assert summary.probes_sent == 750
    assert summary.losses <= 7  # 1%: without room for a send event's replies, 15% are lost
    for visit in visits:  # a late send event does not shorten the next gap
        assert (np.diff(visit.sent_ns) >= 30_000_000).all(), visit.target


class _FakeRawSocket:
    """Stands in for a raw ICMP socket. A datagram socket pair lies under it,
    so ``select`` and non-blocking reads behave as on a raw socket: what
    is written to ``peer`` is received, from the source address in its IPv4
    header. Sends are recorded, or fail when ``fail_sends`` is set."""

    def __init__(self, fail_sends=False):
        self._inner, self.peer = socket.socketpair(socket.AF_UNIX, socket.SOCK_DGRAM)
        self.fail_sends = fail_sends
        self.sent = []
        self.closed = False

    def fileno(self):
        return self._inner.fileno()

    def setsockopt(self, *args):
        self._inner.setsockopt(*args)

    def sendto(self, packet, address):
        if self.fail_sends:
            raise OSError("network is unreachable")
        self.sent.append((packet, address))

    def recvfrom(self, size, flags=0):
        packet = self._inner.recv(size, flags)
        return packet, (socket.inet_ntoa(packet[12:16]), 0)

    def close(self):
        self.closed = True
        self._inner.close()
        self.peer.close()


def _raw_transport(monkeypatch, **fake_args):
    """A ``RawIcmpTransport`` over a new ``_FakeRawSocket``, and the fake."""
    fake = _FakeRawSocket(**fake_args)  # made before socket.socket is patched
    monkeypatch.setattr(transport.socket, "socket", lambda *args: fake)
    return transport.RawIcmpTransport(), fake


def _echo_reply(source, ident, seq, ip_id, icmp_type=0):
    """An IPv4 datagram from ``source`` carrying an ICMP echo reply."""
    icmp = bytearray(build_echo_request(ident, seq))
    icmp[0] = icmp_type
    header = struct.pack("!BBHHHBBH4s4s", 0x45, 0, 20 + len(icmp), ip_id, 0, 64, 1, 0,
                         socket.inet_aton(source), socket.inet_aton("192.0.2.254"))
    return header + bytes(icmp)


def _send(raw, count):
    """The send times of a visit of ``count`` probes sent to 192.0.2.1 from
    now on, 1 ns apart."""
    now_ns = raw.now_ns()
    return raw.send_run(["192.0.2.1"], now_ns, 1, count, np.array([now_ns - 1]))[0]


def test_raw_transport_clock_is_utc(monkeypatch):
    raw, _ = _raw_transport(monkeypatch)
    with raw:
        assert abs(raw.now_ns() - time.time_ns()) < 1_000_000_000
        assert abs(int(_send(raw, 1)[0]) - time.time_ns()) < 1_000_000_000
        deadline_ns = raw.now_ns() + 20_000_000
        raw.sleep_until_ns(deadline_ns)
        assert deadline_ns <= raw.now_ns() < deadline_ns + 1_000_000_000


def test_raw_transport_reads_replies_that_arrive_while_it_waits(monkeypatch):
    raw, fake = _raw_transport(monkeypatch)
    sent = _send(raw, 2)
    assert [address for _, address in fake.sent] == [("192.0.2.1", 0)] * 2
    written_ns = []

    def answer():
        written_ns.append(raw.now_ns())
        for seq in range(2):
            fake.peer.send(_echo_reply("192.0.2.1", raw.ident, seq, 100 + seq))

    deadline_ns = raw.now_ns() + 300_000_000
    replier = threading.Timer(0.05, answer)
    replier.start()
    raw.sleep_until_ns(deadline_ns)
    replier.join(timeout=5)
    assert not replier.is_alive()
    assert raw.now_ns() >= deadline_ns
    replies = reply_dict(raw.end_run(["192.0.2.1"], sent[None, :]))
    assert {seq: ip_id for seq, (_, ip_id) in replies.items()} == {0: 100, 1: 101}
    # stamped as they were read, during the wait, not when it ended
    assert all(written_ns[0] <= recv_ns < deadline_ns for recv_ns, _ in replies.values())
    raw.close()


def test_raw_transport_keeps_only_first_replies_to_its_open_visits(monkeypatch):
    raw, fake = _raw_transport(monkeypatch)
    # read before the visit's first send opens it
    fake.peer.send(_echo_reply("192.0.2.1", raw.ident, 0, 6))
    raw.sleep_until_ns(raw.now_ns() + 20_000_000)
    sent = _send(raw, 1)
    for packet in (
        _echo_reply("192.0.2.1", raw.ident ^ 1, 0, 1),  # another prober's identifier
        _echo_reply("192.0.2.9", raw.ident, 0, 2),  # this address was sent no echo
        _echo_reply("192.0.2.1", raw.ident, 0, 3, icmp_type=8),  # a request, not a reply
        _echo_reply("192.0.2.1", raw.ident, 0, 4),
        _echo_reply("192.0.2.1", raw.ident, 0, 5),  # a duplicate: the first wins
    ):
        fake.peer.send(packet)
    raw.sleep_until_ns(raw.now_ns() + 20_000_000)
    replies = reply_dict(raw.end_run(["192.0.2.1"], sent[None, :]))
    assert {seq: ip_id for seq, (_, ip_id) in replies.items()} == {0: 4}
    # the visit is closed: a reply read after end_run is dropped
    fake.peer.send(_echo_reply("192.0.2.1", raw.ident, 1, 7))
    raw.sleep_until_ns(raw.now_ns() + 20_000_000)
    assert reply_dict(raw.end_run(["192.0.2.1"], sent[None, :])) == {}
    raw.close()


def test_raw_transport_reads_queued_replies_when_the_wait_is_past_due(monkeypatch):
    raw, fake = _raw_transport(monkeypatch)
    sent = _send(raw, 1)
    fake.peer.send(_echo_reply("192.0.2.1", raw.ident, 0, 7))
    before_ns = raw.now_ns()
    raw.sleep_until_ns(before_ns - 1)
    after_ns = raw.now_ns()
    (recv_ns, ip_id), = reply_dict(raw.end_run(["192.0.2.1"], sent[None, :])).values()
    assert ip_id == 7
    assert before_ns <= recv_ns <= after_ns
    # reading until the queue is empty does not wait for more
    assert after_ns - before_ns < 100_000_000
    raw.close()


def test_raw_transport_starts_no_thread(monkeypatch):
    threads = threading.active_count()
    raw, fake = _raw_transport(monkeypatch)
    assert threading.active_count() == threads
    sent = _send(raw, 1)
    fake.peer.send(_echo_reply("192.0.2.1", raw.ident, 0, 7))
    raw.sleep_until_ns(raw.now_ns() + 10_000_000)
    assert len(reply_dict(raw.end_run(["192.0.2.1"], sent[None, :]))) == 1
    assert threading.active_count() == threads
    raw.close()
    assert fake.closed
    assert threading.active_count() == threads


@pytest.mark.parametrize("fail_sends, exit_code", [(False, 0), (True, 2)])
def test_probe_command_closes_the_raw_transport(tmp_path, monkeypatch, fail_sends, exit_code):
    fake = _FakeRawSocket(fail_sends=fail_sends)
    monkeypatch.setattr(transport.socket, "socket", lambda *args: fake)
    targets = tmp_path / "targets.txt"
    targets.write_text("192.0.2.1\n")
    config = tmp_path / "fast.json"  # one visit of two probes and a 20 ms reply window
    config.write_text(json.dumps({"campaign": {
        "probe_interval": "10ms", "dwell": "20ms", "total_duration": "20ms", "workers": 1,
        "probe_timeout": "20ms", "max_visits_per_hour": None}}))
    assert main(["--config", str(config), "probe", "--targets", str(targets),
                 "--transport", "raw", "--out", str(tmp_path / "samples.bin")]) == exit_code
    assert fake.closed
    assert len(fake.sent) == (0 if fail_sends else 2)


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
