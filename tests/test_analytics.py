"""Aggregation: peaks, rollups, CDFs, deployment-vs-traffic."""

import datetime as dt
import functools
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fleetscope.analytics import (
    EstimateTable,
    UnjoinedEstimate,
    deployment_vs_traffic,
    detect_peaks,
    join_series,
    rollup,
    traffic_cdf,
    write_reports,
)
from fleetscope.discovery import ServerRecord
from fleetscope.names import parse_server_name
from fleetscope.validation import AirportDatabase, load_continent_table

import analytics_oracle
from conftest import make_hostname, make_server, record_for


HOUR_NS = 3600 * 10**9
DAY_NS = 24 * HOUR_NS


def _estimate(target, t_ns, pps):
    """An unflagged ``estimates.jsonl`` row of a 60 s window at a 1500-byte MTU."""
    return {
        "target": target,
        "window_start_ns": t_ns,
        "window_end_ns": t_ns + 60 * 10**9,
        "pps": pps,
        "bps": pps * 1500 * 8,
        "mtu_bytes": 1500,
        "flags": {"id_behavior": "global_counter", "segments_used": 1,
                  "ambiguity_risk": False, "lower_bound_only": False},
    }


def _table(estimates):
    return EstimateTable.from_rows(estimates)


def _sinusoid_series(target, peak_utc_s, days=1, step_s=1800, base=1000.0, amp=0.5):
    import math

    series = []
    for day in range(days):
        for s in range(0, 86400, step_s):
            t = day * 86400 + s
            rate = base * (1 + amp * math.cos(2 * math.pi * (s - peak_utc_s) / 86400))
            series.append(_estimate(target, t * 10**9, rate))
    return series


def test_peak_detection_timezone_shift():
    # peak at 23:30 local in UTC-5 shows up at 04:30 UTC
    peak_utc = (23.5 + 5.0) % 24 * 3600
    series = _sinusoid_series("t1", peak_utc)
    peaks = detect_peaks(_table(series), {"t1": "isp"})
    assert len(peaks) == 1
    assert peaks[0].peak_bin_start_s == int(peak_utc)
    assert peaks[0].operator_kind == "isp"


def test_peak_detection_flat_series_stable_tie_break():
    series = [_estimate("t1", s * 10**9, 500.0) for s in range(0, 86400, 1800)]
    peaks = detect_peaks(_table(series), {"t1": "ixp"})
    assert len(peaks) == 1
    assert peaks[0].peak_bin_start_s == 0  # first maximal bin
    assert peaks[0].peak_pps == 500.0


def test_peak_detection_one_observation_per_day():
    series = _sinusoid_series("t1", 3600.0 * 4, days=3)
    peaks = detect_peaks(_table(series), {"t1": "ixp"})
    assert len(peaks) == 3
    assert {p.day for p in peaks} == {
        dt.date(1970, 1, 1), dt.date(1970, 1, 2), dt.date(1970, 1, 3)
    }
    assert all(p.peak_bin_start_s == 4 * 3600 for p in peaks)


def test_peak_detection_shift_invariance():
    series = _sinusoid_series("t1", 3600.0 * 7)
    shifted = [
        _estimate("t1", e["window_start_ns"] + DAY_NS, e["pps"])
        for e in series
    ]
    original = detect_peaks(_table(series), {"t1": "ixp"})
    moved = detect_peaks(_table(shifted), {"t1": "ixp"})
    assert [p.peak_bin_start_s for p in original] == [p.peak_bin_start_s for p in moved]


def _fixture_records():
    servers = {
        "lhr_ix": make_server(1.0, airport="lhr", operator="ix", counter=1),
        "lhr_isp": make_server(1.0, airport="lhr", operator="bt.isp", counter=2),
        "ams_ix": make_server(1.0, airport="ams", operator="ix", counter=1),
        "jfk_ix": make_server(1.0, airport="jfk", operator="ix", counter=1),
    }
    return {k: record_for(s) for k, s in servers.items()}


def test_rollup_country_additivity():
    records = _fixture_records()
    estimates = []
    for hour in range(4):
        t = hour * HOUR_NS
        estimates.append(_estimate(records["lhr_ix"].addresses[0], t, 100.0))
        estimates.append(_estimate(records["lhr_isp"].addresses[0], t, 200.0))
    airports = AirportDatabase.bundled()
    rollups = rollup(join_series(_table(estimates), list(records.values())), "country", airports)
    gb = {r.group: r for r in rollups}["GB"]
    assert gb.server_count == 2
    assert gb.mean_pps == pytest.approx(300.0)
    assert gb.mean_bps == pytest.approx(300.0 * 1500 * 8)


def test_rollup_partition_sums_to_total():
    records = list(_fixture_records().values())
    estimates = []
    for i, record in enumerate(records):
        for hour in range(3):
            estimates.append(
                _estimate(record.addresses[0], hour * HOUR_NS, 100.0 * (i + 1) + hour)
            )
    airports = AirportDatabase.bundled()
    continents = load_continent_table()
    joined = join_series(_table(estimates), records)
    total = sum(r.mean_bps for r in rollup(joined, "operator_kind", airports, continents))
    for grouping in ("location", "country", "continent", "operator_kind"):
        split = rollup(joined, grouping, airports, continents)
        assert sum(r.mean_bps for r in split) == pytest.approx(total, rel=1e-12)
        assert all(r.server_count >= r.location_count for r in split)


def test_rollup_unjoined_estimate():
    records = list(_fixture_records().values())
    with pytest.raises(UnjoinedEstimate):
        join_series(_table([_estimate("203.0.113.99", 0, 1.0)]), records)


def test_traffic_cdf_examples():
    assert traffic_cdf([100.0]) == [(100.0, 1.0)]
    quartiles = traffic_cdf([1.0, 2.0, 3.0, 4.0])
    assert quartiles == [(1.0, 0.25), (2.0, 0.5), (3.0, 0.75), (4.0, 1.0)]
    assert traffic_cdf([]) == []


def test_traffic_cdf_properties():
    values = [5.0, 1.0, 3.0, 3.0, 8.0]
    cdf = traffic_cdf(values)
    assert [v for v, _ in cdf] == sorted(values)
    probs = [p for _, p in cdf]
    assert probs == sorted(probs)
    assert probs[-1] == 1.0


def test_deployment_vs_traffic_points():
    records = _fixture_records()
    three = [
        record_for(make_server(1.0, airport="fra", operator="ix", counter=c + 1))
        for c in range(3)
    ]
    estimates = [_estimate(r.addresses[0], 0, 1000.0) for r in three]
    estimates.append(_estimate(records["lhr_ix"].addresses[0], 0, 500.0))
    points = deployment_vs_traffic(join_series(_table(estimates), three + [records["lhr_ix"]]))
    by_site = {(p.site_code, p.operator_kind): p for p in points}
    fra = by_site[("fra001", "ixp")]
    assert fra.server_count == 3
    assert fra.mean_bps == pytest.approx(3 * 1000.0 * 1500 * 8)
    assert by_site[("lhr001", "ixp")].server_count == 1


def test_deployment_vs_traffic_empty():
    assert deployment_vs_traffic(join_series(_table([]), [])) == []


def test_write_reports_deterministic(tmp_path):
    records = list(_fixture_records().values())
    estimates = []
    for i, record in enumerate(records):
        for hour in range(3):
            estimates.append(
                _estimate(record.addresses[0], hour * HOUR_NS, 100.0 * (i + 1))
            )
    airports = AirportDatabase.bundled()
    continents = load_continent_table()
    first = write_reports(tmp_path / "a", records, _table(estimates), airports, continents)
    second = write_reports(tmp_path / "b", records, _table(estimates), airports, continents)
    for key in first:
        assert first[key].read_bytes() == second[key].read_bytes()
    assert (tmp_path / "a" / "peaks.csv").exists()
    assert (tmp_path / "a" / "rollup_country.csv").exists()
    assert (tmp_path / "a" / "summary.json").exists()


# -- the columnar report against the dict-of-lists oracle ---------------------

@functools.cache
def _tables():
    return AirportDatabase.bundled(), load_continent_table()


@st.composite
def _report_inputs(draw):
    """Records of one to three addresses each, and estimate rows in any order
    over four UTC days: several per bin, missing bins, tied rates, and
    lower-bound targets. Airport ``xxz`` is in no table."""
    records = []
    for counter in range(1, draw(st.integers(1, 6)) + 1):
        name = make_hostname(airport=draw(st.sampled_from(["lhr", "ams", "jfk", "nrt", "xxz"])),
                             site=draw(st.integers(1, 2)), counter=counter,
                             operator=draw(st.sampled_from(["ix", "bt.isp", "kddi.isp"])))
        addresses = tuple(f"198.18.{counter}.{i}" for i in range(draw(st.integers(1, 3))))
        records.append(ServerRecord(parse_server_name(name), addresses, 0, 0))
    addresses = [a for record in records for a in record.addresses]
    rate = st.one_of(st.sampled_from([0.0, 1.0, 7.5, 7.5, 1e6]),
                     st.floats(0, 1e9, allow_nan=False, allow_infinity=False))
    rows = []
    for _ in range(draw(st.integers(0, 40))):
        start_ns = 1_452_729_600 * 10**9 + draw(st.integers(0, 4 * 86_400 - 61)) * 10**9
        pps = draw(rate)
        rows.append({
            "target": draw(st.sampled_from(addresses)),
            "window_start_ns": start_ns,
            "window_end_ns": start_ns + 60 * 10**9,
            "pps": pps,
            "bps": draw(st.sampled_from([pps * 12_000, pps])),
            "mtu_bytes": 1500,
            "flags": {"id_behavior": "global_counter", "segments_used": 1,
                      "ambiguity_risk": False, "lower_bound_only": draw(st.booleans())},
        })
    return records, rows, draw(st.sampled_from([900.0, 1800.0, 3600.0]))


@settings(max_examples=200, deadline=None)
@given(_report_inputs())
def test_report_matches_the_dict_of_lists_oracle(inputs):
    records, rows, bin_s = inputs
    airports, continents = _tables()
    table = EstimateTable.from_rows(rows)
    estimates = [analytics_oracle.estimate_from_json(row) for row in rows]
    with tempfile.TemporaryDirectory() as tmp:
        ours = write_reports(Path(tmp) / "ours", records, table, airports, continents, bin_s)
        theirs = analytics_oracle.write_reports(Path(tmp) / "oracle", records, estimates,
                                                airports, continents, bin_s)
        assert sorted(ours) == sorted(theirs)
        for key in ours:
            assert ours[key].read_bytes() == theirs[key].read_bytes(), key
    ours = join_series(table, records, bin_s)
    theirs = analytics_oracle._join_series(estimates, records, bin_s)
    for grouping in ("location", "country", "continent", "operator_kind"):
        assert rollup(ours, grouping, airports, continents) == (
            analytics_oracle._rollup(theirs, grouping, airports, continents))
