"""Rate estimation from ID samples: wrap handling, behaviour detection,
per-visit estimates and series flagging."""

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fleetscope.ipid import (
    IdBehavior,
    InsufficientSamples,
    NotACounter,
    ambiguity_bound,
    daily_autocorrelation,
    detect_id_behavior,
    estimate_rate,
    series_estimates,
    wrap_corrected_delta,
)
from fleetscope.probe import ProbeSample, VisitLog, probe_target
from fleetscope.simulation import SimulatedTransport

import ipid_oracle
from conftest import make_fleet, make_server


def test_wrap_corrected_delta_examples():
    assert wrap_corrected_delta(100, 116) == 16
    assert wrap_corrected_delta(65530, 10) == 16
    assert wrap_corrected_delta(42, 42) == 0


def test_wrap_corrected_delta_range_check():
    with pytest.raises(ValueError):
        wrap_corrected_delta(-1, 0)
    with pytest.raises(ValueError):
        wrap_corrected_delta(0, 65536)


@given(st.integers(0, 65535), st.integers(0, 65535))
def test_wrap_delta_pair_sums_to_zero_or_wrap(a, b):
    forward = wrap_corrected_delta(a, b)
    backward = wrap_corrected_delta(b, a)
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


def _samples(ids, interval_ns=30_000_000, target="t"):
    return [
        ProbeSample(target, i, i * interval_ns, i * interval_ns + 1_000_000, ipid)
        if ipid is not None
        else ProbeSample(target, i, i * interval_ns)
        for i, ipid in enumerate(ids)
    ]


def _visit(ids, interval_ns=30_000_000, target="t"):
    samples = _samples(ids, interval_ns, target)
    return VisitLog(target, 0, len(ids) * interval_ns, samples)


def test_detect_counter_from_simulated_server():
    server = make_server(base_pps=1000.0)
    fleet = make_fleet([server])
    transport = SimulatedTransport(fleet)
    visit = probe_target(server.address, 0.03, 6.0, transport)
    assert detect_id_behavior(visit.samples) is IdBehavior.GLOBAL_COUNTER


def test_detect_random_uniform_ids():
    rng = random.Random(123)
    ids = [rng.randrange(65536) for _ in range(2000)]
    # sanity on the oracle itself: the small-positive fraction sits near 1/4
    deltas = [wrap_corrected_delta(a, b) for a, b in zip(ids, ids[1:])]
    small = sum(1 for d in deltas if 0 < d < 16384) / len(deltas)
    assert 0.2 < small < 0.3
    assert detect_id_behavior(_samples(ids)) is IdBehavior.RANDOM


def test_detect_constant_sequence():
    assert detect_id_behavior(_samples([7] * 30)) is IdBehavior.CONSTANT_OR_PERFLOW


def test_detect_fast_counter_beyond_quarter_range():
    # 1.3 Mpps at 30 ms advances ~39000 per probe: still a counter.
    ids = [(i * 39000) % 65536 for i in range(100)]
    assert detect_id_behavior(_samples(ids)) is IdBehavior.GLOBAL_COUNTER


def test_detect_requires_enough_samples():
    with pytest.raises(InsufficientSamples):
        detect_id_behavior(_samples([1, 2, 3]))


def test_estimate_simulated_steady_server_within_two_percent():
    server = make_server(base_pps=1000.0)
    fleet = make_fleet([server])
    transport = SimulatedTransport(fleet)
    visit = probe_target(server.address, 0.03, 60.0, transport)
    est = estimate_rate(visit, 0.03)
    truth = fleet.truth_for(server.address)[0].true_pps
    assert est.packets_per_second == pytest.approx(truth, rel=0.02)
    assert est.bits_per_second == pytest.approx(est.packets_per_second * 1500 * 8)


def test_estimate_idle_server_after_self_subtraction():
    # Only our own echo replies move the counter; estimate must be ~zero.
    server = make_server(base_pps=0.0)
    fleet = make_fleet([server])
    transport = SimulatedTransport(fleet)
    visit = probe_target(server.address, 0.03, 60.0, transport)
    est = estimate_rate(visit, 0.03)
    probe_rate = 1 / 0.03
    assert est.packets_per_second <= 0.01 * probe_rate


def test_estimate_conversion_rule():
    # 1,000 pps at 1500-byte MTU is 12 Mbit/s.
    ids = [(i * 30) % 65536 for i in range(2001)]
    est = estimate_rate(_visit(ids), 0.03, mtu_bytes=1500, subtract_self=False)
    assert est.packets_per_second == pytest.approx(1000.0)
    assert est.bits_per_second == pytest.approx(12_000_000.0)


def test_estimate_requires_counter_behavior():
    with pytest.raises(NotACounter):
        estimate_rate(_visit([7] * 30), 0.03)


def test_estimate_requires_two_replies():
    with pytest.raises(InsufficientSamples):
        estimate_rate(_visit([5] + [None] * 20), 0.03)


def test_estimate_survives_loss_gaps_with_wrap_completion():
    # 1.3 Mpps: a single lost probe hides one whole wrap in the 60 ms gap.
    per_gap = 39000
    ids = [(i * per_gap) % 65536 for i in range(200)]
    ids[50] = ids[100] = None
    est = estimate_rate(_visit(ids), 0.03, behavior=IdBehavior.GLOBAL_COUNTER,
                        subtract_self=False)
    assert est.packets_per_second == pytest.approx(per_gap / 0.03, rel=0.001)


def test_estimate_splits_segments_on_long_gaps():
    # two bursts separated by a 10-interval silence form two segments
    interval_ns = 30_000_000
    samples = []
    seq = 0
    offset = 0
    counter = 0
    for _segment in range(2):
        for _ in range(50):
            samples.append(ProbeSample("t", seq, offset, offset + 1_000_000, counter % 65536))
            seq += 1
            counter += 30
            offset += interval_ns
        offset += 10 * interval_ns
    visit = VisitLog("t", 0, offset, samples)
    est = estimate_rate(visit, 0.03, behavior=IdBehavior.GLOBAL_COUNTER, subtract_self=False)
    assert est.segments_used == 2
    assert est.packets_per_second == pytest.approx(1000.0, rel=0.01)


def test_no_overcount_against_simulator_truth():
    server = make_server(base_pps=50_000.0, noise=0.02)
    fleet = make_fleet([server])
    transport = SimulatedTransport(fleet, loss_rate=0.01)
    visit = probe_target(server.address, 0.03, 60.0, transport)
    est = estimate_rate(visit, 0.03)
    truth = fleet.truth_for(server.address)[0].true_pps
    assert est.packets_per_second <= truth * 1.001 + 1.0


def test_series_estimates_empty_input():
    assert series_estimates([], 0.03) == []


def _campaign_series(base_pps, hours=26.0, dwell_s=30.0, amplitude=0.0, noise=0.0,
                     revisit_s=1800.0, seed=2):
    server = make_server(base_pps=base_pps, amplitude=amplitude, noise=noise)
    fleet = make_fleet([server], seed=seed)
    transport = SimulatedTransport(fleet)
    visits = []
    t = 0.0
    while t < hours * 3600.0:
        transport.jump_to_ns(round(t * 1e9))
        visits.append(probe_target(server.address, 0.03, dwell_s, transport))
        t += revisit_s
    return server, fleet, visits


def test_series_recovers_diurnal_shape():
    server, fleet, visits = _campaign_series(
        base_pps=20_000.0, amplitude=0.5, noise=0.02, hours=24.0
    )
    estimates = series_estimates(visits, 0.03)
    truth = {t.start_ns: t.true_pps for t in fleet.truth_for(server.address)}
    rel_errors = [
        (e.packets_per_second - truth[e.window_start_ns]) / truth[e.window_start_ns]
        for e in estimates
    ]
    rms = (sum(err * err for err in rel_errors) / len(rel_errors)) ** 0.5
    assert rms < 0.05
    assert not any(e.lower_bound_only for e in estimates)


def test_series_flags_above_bound_server_as_lower_bound():
    # 3 Mpps with a +/-40% daily sweep: far above the 30 ms single-wrap
    # ceiling, so every estimate must be reported as a lower bound only.
    server, fleet, visits = _campaign_series(
        base_pps=3_000_000.0, amplitude=0.4, noise=0.03, hours=26.0
    )
    estimates = series_estimates(visits, 0.03)
    assert estimates
    assert all(e.lower_bound_only for e in estimates)
    ceiling = ambiguity_bound(0.03)
    assert all(e.packets_per_second <= ceiling * 1.0001 for e in estimates)


def test_daily_autocorrelation_needs_data():
    assert daily_autocorrelation([]) is None


# -- the array kernel against the per-sample reference loops -------------------

@st.composite
def _random_visits(draw):
    """Visits with loss, wraps, gaps over three intervals, random, constant
    and counter IDs, and any number of replies from none upwards."""
    interval_ns = draw(st.sampled_from([10_000_000, 30_000_000, 1_000_000_000]))
    count = draw(st.one_of(st.integers(0, 25), st.integers(25, 150)))
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
            samples.append(ProbeSample("t", i, sent_ns))
        else:
            samples.append(ProbeSample("t", i, sent_ns, sent_ns + rng.randrange(10**8), ipid))
    end_ns = sent_ns + interval_ns
    return VisitLog("t", start_ns, end_ns, samples), interval_ns / 1e9


def _outcome(call, *args, **kwargs):
    try:
        return call(*args, **kwargs)
    except (InsufficientSamples, NotACounter) as exc:
        return type(exc)


# exactly nine in ten deltas small: a counter by the small-delta rule alone
_NINE_IN_TEN = (_visit([(i * 5 + 30_000 * (i // 10)) % 65536 for i in range(101)]), 0.03)
# 20,000 IDs per interval, every third probe lost: a counter only if the
# clustering rule keeps the single-interval gaps and drops the double ones
_FAST_WITH_LOSS = (_visit([None if i % 3 == 2 else i * 20_000 % 65536 for i in range(101)]), 0.03)


@settings(max_examples=300, deadline=None)
@example(_NINE_IN_TEN, None, True)
@example(_FAST_WITH_LOSS, None, True)
@given(_random_visits(), st.sampled_from([None, IdBehavior.GLOBAL_COUNTER]), st.booleans())
def test_kernel_matches_the_per_sample_loops(visit_and_interval, behavior, subtract_self):
    visit, interval_s = visit_and_interval
    assert _outcome(detect_id_behavior, visit.samples) == _outcome(
        ipid_oracle.detect_id_behavior, visit.samples)
    kwargs = dict(mtu_bytes=1500, behavior=behavior, subtract_self=subtract_self)
    assert _outcome(estimate_rate, visit, interval_s, **kwargs) == _outcome(
        ipid_oracle.estimate_rate, visit, interval_s, **kwargs)
