"""Rate estimation from ID samples: wrap handling, behaviour detection,
per-visit estimates and series flagging."""

import math
import random
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fleetscope import ipid
from fleetscope.ipid import (
    BEHAVIORS,
    UNCLASSIFIED,
    IdBehavior,
    _id_deltas,
    ambiguity_bound,
    daily_autocorrelation,
    estimate_batch,
    estimate_series,
)
from fleetscope.probe import CampaignParams, run_campaign
from fleetscope.simulation import SimulatedTransport
from fleetscope.store import VisitFrame

import ipid_oracle
from conftest import make_fleet, make_server, one_visit
from ipid_oracle import InsufficientSamples, ProbeSample, VisitLog, to_frame


def _deltas(*ids):
    """The estimator's wrap-corrected deltas between consecutive ``ids``."""
    return _id_deltas(np.array(ids, dtype=np.int64)).tolist()


def test_wrap_corrected_delta_examples():
    assert _deltas(100, 116) == [16]
    assert _deltas(65530, 10) == [16]
    assert _deltas(42, 42) == [0]
    assert _deltas(0, 65535, 0) == [65535, 1]


@given(st.integers(0, 65535), st.integers(0, 65535))
def test_wrap_delta_pair_sums_to_zero_or_wrap(a, b):
    forward, backward = _deltas(a, b, a)
    if a == b:
        assert forward == backward == 0
    else:
        assert forward + backward == 65536


def test_ambiguity_bound_examples():
    assert ambiguity_bound(0.03) == pytest.approx(2_184_500.0)
    assert ambiguity_bound(1.0) == 65535.0
    assert ambiguity_bound(0.015) == pytest.approx(4_369_000.0)
    with pytest.raises(ValueError):
        ambiguity_bound(0.0)


def _visit(ids, interval_ns=30_000_000, target="t"):
    samples = [
        ProbeSample(target, i, i * interval_ns, i * interval_ns + 1_000_000, ipid)
        if ipid is not None
        else ProbeSample(target, i, i * interval_ns)
        for i, ipid in enumerate(ids)
    ]
    return VisitLog(target, 0, len(ids) * interval_ns, samples)


def _frame(ids, interval_ns=30_000_000, target="t"):
    """A visit with one probe per ID, sent every interval; None is a lost probe."""
    return to_frame(_visit(ids, interval_ns, target))


def _rows(frames):
    """Each frame's (class, estimate) from one ``estimate_batch`` call, in the
    oracle's terms: ``InsufficientSamples`` where the oracle raises it, and
    the estimate of the visit read as a global counter, as the oracle's
    (target, window start, window end, pps, segments, risk) tuple."""
    columns = estimate_batch(frames)
    return [(InsufficientSamples if code == UNCLASSIFIED else BEHAVIORS[code],
             (frame.target, frame.start_ns, frame.end_ns, pps, segments, risk)
             if estimable else InsufficientSamples)
            for frame, code, estimable, pps, segments, risk in zip(
                frames, columns.behavior.tolist(), columns.estimable.tolist(),
                columns.pps.tolist(), columns.segments.tolist(), columns.risk.tolist())]


def _classify(frame):
    return _rows([frame])[0][0]


def _estimate(frame):
    """The visit's (pps, segments) read as a global counter, or
    ``InsufficientSamples``."""
    estimate = _rows([frame])[0][1]
    return estimate if estimate is InsufficientSamples else estimate[3:5]


def _series_rows(frames):
    """``estimate_series``' rows as the oracle's (target, window start,
    window end, pps, segments, risk, lower bound) tuples."""
    result = estimate_series(frames)
    return list(zip([result.targets[i] for i in result.target.tolist()],
                    result.window_start_ns.tolist(), result.window_end_ns.tolist(),
                    result.pps.tolist(), result.segments.tolist(), result.risk.tolist(),
                    result.lower_bound.tolist()))


def test_detect_counter_from_simulated_server():
    server = make_server(base_pps=1000.0)
    fleet = make_fleet([server])
    transport = SimulatedTransport(fleet)
    visit = one_visit(server.address, 0.03, 6.0, transport)
    assert _classify(visit) is IdBehavior.GLOBAL_COUNTER


def test_detect_random_uniform_ids():
    rng = random.Random(123)
    ids = [rng.randrange(65536) for _ in range(2000)]
    # sanity on the oracle itself: the small-positive fraction sits near 1/4
    deltas = [ipid_oracle.wrap_corrected_delta(a, b) for a, b in zip(ids, ids[1:])]
    small = sum(1 for d in deltas if 0 < d < 16384) / len(deltas)
    assert 0.2 < small < 0.3
    assert _classify(_frame(ids)) is IdBehavior.RANDOM


def test_detect_constant_sequence():
    assert _classify(_frame([7] * 30)) is IdBehavior.CONSTANT_OR_PERFLOW


def test_detect_fast_counter_beyond_quarter_range():
    # 1.3 Mpps at 30 ms advances ~39000 per probe: still a counter.
    ids = [(i * 39000) % 65536 for i in range(100)]
    assert _classify(_frame(ids)) is IdBehavior.GLOBAL_COUNTER


def test_detect_requires_enough_samples():
    assert _classify(_frame([1, 2, 3])) is InsufficientSamples


def test_estimate_simulated_steady_server_within_two_percent():
    server = make_server(base_pps=1000.0)
    fleet = make_fleet([server])
    rows = []
    transport = SimulatedTransport(fleet, truth=rows.append)
    visit = one_visit(server.address, 0.03, 60.0, transport)
    (pps,) = estimate_series([visit]).pps.tolist()
    (truth,) = (true_pps for _, _, _, true_pps in rows)
    assert pps == pytest.approx(truth, rel=0.02)


def test_estimate_idle_server_after_self_subtraction():
    # Only our own echo replies move the counter; estimate must be ~zero.
    server = make_server(base_pps=0.0)
    fleet = make_fleet([server])
    transport = SimulatedTransport(fleet)
    visit = one_visit(server.address, 0.03, 60.0, transport)
    (pps,) = estimate_series([visit]).pps.tolist()
    probe_rate = 1 / 0.03
    assert pps <= 0.01 * probe_rate


def test_estimate_conversion_rule():
    # 30 IDs per 30 ms, one of them our own echo reply: (30 - 1) / 0.03 pps,
    # or 11.6 Mbit/s at a 1500-byte MTU.
    ids = [(i * 30) % 65536 for i in range(2001)]
    (row,) = estimate_series([_frame(ids)]).rows(1500)
    assert row["pps"] == pytest.approx((30 - 1) / 0.03)
    assert row["bps"] == row["pps"] * 1500 * 8
    assert (row["mtu_bytes"], row["flags"]["id_behavior"]) == (1500, "global_counter")
    assert list(row) == ["target", "window_start_ns", "window_end_ns", "pps", "bps",
                         "mtu_bytes", "flags"]


@pytest.mark.parametrize("interval_ns", [10_000_000, 50_000_000, 1_000_000_000])
def test_estimate_reads_the_interval_from_the_frame(interval_ns):
    # 40,000 IDs per interval with every third probe lost: each 2-interval
    # gap hides a whole wrap, which the single-interval gaps resolve only
    # when they are told apart at the frame's own interval
    ids = [None if i % 3 == 2 else i * 40_000 % 65536 for i in range(101)]
    frame = _frame(ids, interval_ns)
    assert frame.interval_ns == interval_ns
    pps, segments = _estimate(frame)
    # 100 intervals in 67 gaps between replies, less one own reply per gap
    assert pps == pytest.approx((100 * 40_000 - 67) / (100 * interval_ns / 1e9))
    assert segments == 1


def test_estimate_requires_counter_behavior():
    constant = _frame([7] * 30)
    assert _classify(constant) is IdBehavior.CONSTANT_OR_PERFLOW
    assert _estimate(constant)[0] == 0.0
    assert _series_rows([constant]) == []


def test_estimate_requires_two_replies():
    assert _estimate(_frame([5] + [None] * 20)) is InsufficientSamples


def test_estimate_survives_loss_gaps_with_wrap_completion():
    # 1.3 Mpps: a single lost probe hides one whole wrap in the 60 ms gap.
    per_gap = 39000
    ids = [(i * per_gap) % 65536 for i in range(200)]
    ids[50] = ids[100] = None
    pps, _ = _estimate(_frame(ids))
    # 199 intervals in 197 gaps between replies, less one own reply per gap
    assert pps == pytest.approx((199 * per_gap - 197) / (199 * 0.03))


def test_estimate_splits_segments_on_long_gaps():
    # two bursts separated by a 10-interval silence form two segments
    interval_ns = 30_000_000
    samples = []
    seq = 0
    offset = 0
    counter = 0
    for segment in range(2):
        offset += 10 * interval_ns * segment
        for _ in range(50):
            samples.append(ProbeSample("t", seq, offset, offset + 1_000_000, counter % 65536))
            seq += 1
            counter += 30
            offset += interval_ns
    visit = VisitLog("t", 0, offset, samples)
    pps, segments = _estimate(to_frame(visit))
    assert segments == 2
    # 30 IDs per interval, one of them our own echo reply
    assert pps == pytest.approx((30 - 1) / 0.03)


def test_no_overcount_against_simulator_truth():
    server = make_server(base_pps=50_000.0, noise=0.02)
    fleet = make_fleet([server])
    rows = []
    transport = SimulatedTransport(fleet, loss_rate=0.01, truth=rows.append)
    visit = one_visit(server.address, 0.03, 60.0, transport)
    (pps,) = estimate_series([visit]).pps.tolist()
    (truth,) = (true_pps for _, _, _, true_pps in rows)
    assert pps <= truth * 1.001 + 1.0


def test_series_estimates_empty_input():
    result = estimate_series([])
    assert result.targets == ()
    assert list(result.rows(1500)) == []


def test_series_estimates_orders_many_targets_and_skips_what_it_cannot_estimate():
    counters = [make_server(base_pps=500.0 * (i + 1), counter=i + 1) for i in range(3)]
    randoms = make_server(base_pps=500.0, counter=8, behavior=IdBehavior.RANDOM)
    silent = make_server(base_pps=500.0, counter=9, reachable=False)
    fleet = make_fleet(counters + [randoms, silent])
    params = CampaignParams(probe_interval_s=0.03, dwell_s=3.0, workers=2,
                            total_duration_s=60.0, max_visits_per_hour=None, seed=5)
    visits = []
    run_campaign(list(fleet.positions), params, SimulatedTransport(fleet), visits.append)
    estimates = _series_rows(iter(visits))
    # the visits of the random-ID and the silent server are skipped
    assert sorted({e[0] for e in estimates}) == sorted(s.address for s in counters)
    keys = [(e[0], e[1]) for e in estimates]
    assert keys == sorted(keys)
    assert len(keys) == sum(1 for v in visits if v.target in {s.address for s in counters})
    per_target = [est for target in sorted(s.address for s in counters)
                  for est in _series_rows([v for v in visits if v.target == target])]
    assert estimates == per_target


def _campaign_series(base_pps, hours=26.0, amplitude=0.0, noise=0.0, seed=2):
    """One server's visits of 30 s every 30 minutes for ``hours``, and
    their truth rows."""
    server = make_server(base_pps=base_pps, amplitude=amplitude, noise=noise)
    fleet = make_fleet([server], seed=seed)
    params = CampaignParams(probe_interval_s=0.03, dwell_s=30.0, workers=1,
                            total_duration_s=hours * 3600.0)
    visits, rows = [], []
    run_campaign([server.address], params, SimulatedTransport(fleet, truth=rows.append),
                 visits.append)
    return server, rows, visits


def test_series_recovers_diurnal_shape():
    server, rows, visits = _campaign_series(
        base_pps=20_000.0, amplitude=0.5, noise=0.02, hours=24.0
    )
    estimates = estimate_series(visits)
    truth = {start_ns: true_pps for _, start_ns, _, true_pps in rows}
    rel_errors = [
        (pps - truth[start_ns]) / truth[start_ns]
        for start_ns, pps in zip(estimates.window_start_ns.tolist(), estimates.pps.tolist())
    ]
    rms = (sum(err * err for err in rel_errors) / len(rel_errors)) ** 0.5
    assert rms < 0.05
    assert not estimates.lower_bound.any()


def test_series_flags_above_bound_server_as_lower_bound():
    # 3 Mpps with a +/-40% daily sweep: far above the 30 ms single-wrap
    # ceiling, so every estimate must be reported as a lower bound only.
    server, rows, visits = _campaign_series(
        base_pps=3_000_000.0, amplitude=0.4, noise=0.03, hours=26.0
    )
    estimates = estimate_series(visits)
    assert len(estimates.pps)
    assert estimates.lower_bound.all()
    ceiling = ambiguity_bound(0.03)
    assert all(pps <= ceiling * 1.0001 for pps in estimates.pps.tolist())


def test_daily_autocorrelation_needs_data():
    assert daily_autocorrelation(np.zeros(0, np.int64), np.zeros(0)) is None


# -- series flags against the per-object reference ------------------------------

def _daily(t_s, amplitude):
    return 1 + amplitude * math.sin(2 * math.pi * t_s / 86400)


# Each kind's rate for visit k of n at UTC second t_s. At 30 ms the
# single-wrap ceiling is ~2.18 Mpps, the risk threshold ~1.75 Mpps and half
# the ceiling ~1.09 Mpps.
_FLAG_KINDS = {
    "below": lambda rng, k, n, t_s: 2e5 * _daily(t_s, 0.3) * rng.uniform(0.95, 1.05),
    # one risky visit: flagged by the risk rule at 50 visits or fewer
    "one_risky": lambda rng, k, n, t_s: 1.9e6 if k == n // 2 else 2e5 * _daily(t_s, 0.3),
    "risky": lambda rng, k, n, t_s: rng.uniform(1.6e6, 2.1e6),
    "above": lambda rng, k, n, t_s: rng.uniform(2.5e6, 6e6),
    # high with no daily structure: only the autocorrelation rule can flag it
    "structureless": lambda rng, k, n, t_s: rng.uniform(1.2e6, 1.7e6),
    # as high only against the ceiling at 60 ms, where a slow first visit puts it
    "structureless_mid": lambda rng, k, n, t_s: rng.uniform(0.6e6, 1.0e6),
    # high with a daily sweep: its autocorrelation clears it
    "diurnal_high": lambda rng, k, n, t_s: 1.4e6 * _daily(t_s, 0.2) * rng.uniform(0.99, 1.01),
}


def _counter_frame(target, start_ns, interval_ns, pps, probes=25):
    """A visit to a global counter moving at ``pps`` plus one per reply."""
    sent_ns = start_ns + interval_ns * np.arange(probes, dtype=np.int64)
    counts = np.floor(pps * (sent_ns - start_ns) / 1e9).astype(np.int64) + np.arange(probes)
    return VisitFrame(target, start_ns, int(sent_ns[-1]) + interval_ns, sent_ns,
                      np.full(probes, 1_000_000, np.uint32), (counts + 4321).astype(np.uint16))


def _flag_stream(targets, shuffled):
    """Frames of each (kind, hours, slow first visit, seed) target, visited
    every 30 minutes, in time order or shuffled. Each target also has an
    all-lost visit at 10 ms and a random-ID visit, which are skipped, so its
    first estimated frame is not its first frame."""
    frames = []
    for number, (kind, hours, slow_first, seed) in enumerate(targets):
        rng = random.Random(seed)
        target = f"198.18.60.{number + 1}"
        frames.append(_frame([None] * 25, 10_000_000, target))
        frames.append(_frame([rng.randrange(65536) for _ in range(25)], target=target))
        visits = 2 * hours
        for k in range(visits):
            start_s = k * 1800 + number * 60
            interval_ns = 60_000_000 if slow_first and k == 0 else 30_000_000
            pps = _FLAG_KINDS[kind](rng, k, visits, start_s)
            frames.append(_counter_frame(target, start_s * 10**9, interval_ns, pps))
    frames.sort(key=lambda frame: frame.start_ns)
    if shuffled:
        random.Random(len(frames)).shuffle(frames)
    return frames


_flag_targets = st.tuples(st.sampled_from(sorted(_FLAG_KINDS)), st.integers(20, 34),
                          st.booleans(), st.integers(0, 2**32))


@settings(max_examples=60, deadline=None)
# flagged by the autocorrelation rule alone; by the risk rule alone; by the
# autocorrelation rule against the ceiling at its first estimated interval
@example([("structureless", 34, False, 2)], False)
@example([("one_risky", 25, False, 2), ("risky", 20, True, 3)], True)
@example([("structureless_mid", 34, True, 2)], False)
@given(st.lists(_flag_targets, min_size=1, max_size=4), st.booleans())
def test_series_flags_match_the_per_object_reference(targets, shuffled):
    frames = _flag_stream(targets, shuffled)
    assert _series_rows(frames) == ipid_oracle.series_estimates(frames)


# -- the batch kernel against the per-sample reference loops -------------------

@st.composite
def _random_visits(draw, counts=st.one_of(st.integers(0, 25), st.integers(25, 150))):
    """Visits of one of three targets with loss, wraps, gaps over three
    intervals, random, constant and counter IDs, and ``counts`` probes."""
    interval_ns = draw(st.sampled_from([10_000_000, 30_000_000, 1_000_000_000]))
    count = draw(counts)
    target = draw(st.sampled_from(["a", "b", "c"]))
    kind = draw(st.sampled_from(["counter", "fast_counter", "random", "constant", "noisy"]))
    rng = random.Random(draw(st.integers(0, 2**32)))
    per_probe = {"counter": rng.randrange(1, 2000), "fast_counter": rng.randrange(2000, 200_000),
                 "constant": 0}.get(kind, 0)
    loss = draw(st.sampled_from([0.0, 0.0, 0.02, 0.3, 1.0]))
    silences = draw(st.sampled_from([0.0, 0.01, 0.1]))
    jitter_ns = draw(st.sampled_from([0, interval_ns // 10]))
    start_ns = draw(st.integers(0, 2 * 10**18))
    samples = []
    sent_ns = start_ns
    counter = rng.randrange(65536)
    for i in range(count):
        if i:
            step = interval_ns
            if rng.random() < silences:  # of up to six intervals
                step *= rng.randrange(2, 7)
            step += rng.randint(-jitter_ns, jitter_ns)
            sent_ns += step
            counter += per_probe * step // interval_ns
        if kind == "random":
            ipid = rng.randrange(65536)
        elif kind == "noisy":
            ipid = (counter + rng.randrange(-3, 40)) % 65536
            counter += rng.randrange(0, 30)
        else:
            ipid = counter % 65536
        if rng.random() < loss:
            samples.append(ProbeSample(target, i, sent_ns))
        else:
            samples.append(ProbeSample(target, i, sent_ns, sent_ns + rng.randrange(10**8), ipid))
    end_ns = sent_ns + interval_ns
    return VisitLog(target, start_ns, end_ns, samples), interval_ns / 1e9


def _outcome(call, *args, **kwargs):
    try:
        return call(*args, **kwargs)
    except InsufficientSamples as exc:
        return type(exc)


# exactly nine in ten deltas small: a counter by the small-delta rule alone
_NINE_IN_TEN = (_visit([(i * 5 + 30_000 * (i // 10)) % 65536 for i in range(101)]), 0.03)
# 20,000 IDs per interval, every third probe lost: a counter only if the
# clustering rule keeps the single-interval gaps and drops the double ones
_FAST_WITH_LOSS = (_visit([None if i % 3 == 2 else i * 20_000 % 65536 for i in range(101)]), 0.03)


@settings(max_examples=300, deadline=None)
@example([_NINE_IN_TEN])
@example([_FAST_WITH_LOSS, _NINE_IN_TEN])
@given(st.lists(_random_visits(), min_size=1, max_size=6))
def test_kernel_matches_the_per_sample_loops(visits_and_intervals):
    rows = _rows([to_frame(visit) for visit, _ in visits_and_intervals])
    for (visit, interval_s), (behavior, estimate) in zip(visits_and_intervals, rows):
        assert behavior == _outcome(ipid_oracle.detect_id_behavior, visit.samples)
        assert estimate == _outcome(ipid_oracle.estimate_rate, visit, interval_s,
                                    IdBehavior.GLOBAL_COUNTER, subtract_self=True)


@st.composite
def _streams(draw):
    """Frames of 2, 25 and 150 probes, with a frame of no probes and one
    whose probes were all lost among them."""
    visits = draw(st.lists(_random_visits(st.sampled_from([2, 25, 150])), max_size=10))
    frames = [to_frame(visit) for visit, _ in visits]
    for extra in (_frame([]), _frame([None] * 25, target="b")):
        frames.insert(draw(st.integers(0, len(frames))), extra)
    return frames


@settings(max_examples=100, deadline=None)
@given(_streams(), st.data())
def test_batch_boundaries_do_not_change_the_estimates(frames, data):
    cuts = sorted(set(data.draw(st.lists(st.integers(1, len(frames) - 1), max_size=5))))
    alone = [row for frame in frames for row in _rows([frame])]
    assert _rows(frames) == alone
    assert [row for start, end in zip([0, *cuts], [*cuts, len(frames)])
            for row in _rows(frames[start:end])] == alone
    with patch.object(ipid, "BATCH_CELLS", 1):
        one_each = list(estimate_series(frames).rows(1500))
    with patch.object(ipid, "BATCH_CELLS", 10**9):
        one_batch = list(estimate_series(frames).rows(1500))
    assert list(estimate_series(iter(frames)).rows(1500)) == one_each == one_batch
