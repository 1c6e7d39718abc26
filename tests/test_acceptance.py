"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Everything runs against the simulated fleet oracle under a virtual
clock; no network or privileges are needed.
"""

from __future__ import annotations

import itertools
import math
import random
import string
import time

import numpy as np
import pytest

from fleetscope.cli import main as cli_main
from fleetscope.discovery import run_crawl, summarize_discovery
from fleetscope.ipid import _id_deltas, ambiguity_bound, estimate_series
from fleetscope.names import ServerName, Wordlists, format_server_name, parse_server_name
from fleetscope.probe import CampaignParams, run_campaign
from fleetscope.simulation import SimulatedFleet, SimulatedTransport, ZoneResolver
from fleetscope.validation import (
    AddressSnapshot,
    AirportDatabase,
    asn_crosscheck,
    geo_crosscheck,
)
from fleetscope.analytics import EstimateTable, detect_peaks, join_series, rollup

from conftest import make_server, one_visit, record_for, write_fleet


def _ok(criterion: int, detail: str) -> None:
    print(f"ACCEPTANCE C{criterion:02d} PASS - {detail}", flush=True)


# ---------------------------------------------------------------------------
# 1. Estimator accuracy


def test_c01_estimator_accuracy():
    started = time.perf_counter()
    rng = random.Random("acceptance:c1")
    servers = []
    for i in range(50):
        base = 10_000.0 * (150.0 ** (i / 49.0))  # log-spaced 10 kpps .. 1.5 Mpps
        servers.append(
            make_server(
                base_pps=base,
                airport="lhr",
                counter=i + 1,
                amplitude=0.1,
                noise=0.02,
                address=f"198.18.10.{i + 1}",
            )
        )
    rng.shuffle(servers)
    fleet = SimulatedFleet(servers, seed=101)
    rows = []
    transport = SimulatedTransport(fleet, loss_rate=0.01, truth=rows.append)
    params = CampaignParams(
        probe_interval_s=0.03, dwell_s=60.0, workers=25, total_duration_s=480.0,
        max_visits_per_hour=None, seed=101,
    )
    frames = []
    summary = run_campaign(list(fleet.by_address), params, transport, frames.append)
    assert summary.visits_completed == 200  # 50 targets x 4 visits

    truth = {(target, start_ns): true_pps for target, start_ns, _, true_pps in rows}
    per_target: dict[str, list] = {}
    for visit in frames:
        per_target.setdefault(visit.target, []).append(visit)
    errors = []
    for target, visits in per_target.items():
        estimates = estimate_series(visits)
        for i, start_ns, pps in zip(estimates.target.tolist(),
                                    estimates.window_start_ns.tolist(), estimates.pps.tolist()):
            true_pps = truth[(estimates.targets[i], start_ns)]
            errors.append(abs(pps - true_pps) / true_pps)
    assert len(errors) == 200
    within = sum(1 for e in errors if e <= 0.02) / len(errors)
    elapsed = time.perf_counter() - started
    assert within >= 0.99, f"only {within:.1%} of visits within 2%"
    assert elapsed < 60.0, f"took {elapsed:.1f}s"
    _ok(1, f"{within:.1%} of {len(errors)} visits within +/-2% "
           f"(worst {max(errors):.3%}), {elapsed:.1f}s elapsed")


# ---------------------------------------------------------------------------
# 2. Wrap handling


def test_c02_wrap_handling_sampled_ten_million_pairs():
    # the pairs run through the estimator's delta kernel as consecutive IDs
    # a0, b0, a1, b1, ...: every other delta is one pair's
    started = time.perf_counter()
    rng = np.random.default_rng(0xC2)
    n = 10_000_000
    a = rng.integers(0, 65536, size=n, dtype=np.int64)
    b = rng.integers(0, 65536, size=n, dtype=np.int64)
    expected = (b - a) % 65536  # independent vectorized oracle
    checked = 0
    for start in range(0, n, 1_000_000):
        xs = a[start : start + 1_000_000]
        ys = b[start : start + 1_000_000]
        deltas = _id_deltas(np.stack([xs, ys], axis=1).ravel())[::2]
        wrong = np.flatnonzero(deltas != expected[start : start + 1_000_000])
        if wrong.size:
            i = wrong[0]
            pytest.fail(f"delta of ({xs[i]}, {ys[i]}) is {deltas[i]}, not {expected[start + i]}")
        checked += len(deltas)
    elapsed = time.perf_counter() - started
    assert checked == n
    assert elapsed < 30.0, f"took {elapsed:.1f}s"
    _ok(2, f"{n:,} sampled pairs through the estimator's delta kernel, exact against "
           f"(b-a) mod 65536 in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 3. Ambiguity flagging


def test_c03_above_bound_servers_flagged_every_visit():
    interval = 0.03
    ceiling = ambiguity_bound(interval)
    assert ceiling == pytest.approx(2_184_500.0)
    servers = [
        make_server(
            base_pps=3_000_000.0, airport="ams", counter=i + 1, amplitude=0.4,
            noise=0.03, address=f"198.18.20.{i + 1}",
        )
        for i in range(5)
    ]
    fleet = SimulatedFleet(servers, seed=303)
    flagged_visits = 0
    total_visits = 0
    # one day of 30-minute revisits
    params = CampaignParams(probe_interval_s=interval, dwell_s=30.0, workers=1,
                            total_duration_s=86400.0)
    for server in servers:
        visits = []
        run_campaign([server.address], params, SimulatedTransport(fleet), visits.append)
        estimates = estimate_series(visits)
        assert len(estimates.pps) == 48
        total_visits += len(estimates.pps)
        flagged_visits += int(estimates.lower_bound.sum())
        limit = ceiling * (1 + 1e-9) + 1 / interval
        assert all(pps <= limit for pps in estimates.pps.tolist())
    assert flagged_visits == total_visits, (
        f"{flagged_visits}/{total_visits} visits flagged lower_bound_only"
    )
    _ok(3, f"5 servers at 3 Mpps: {flagged_visits}/{total_visits} visits flagged, "
           f"all estimates under the {ceiling:,.0f} pps ceiling")


# ---------------------------------------------------------------------------
# 4. Periodic vs constant sampling


def _binned(estimates, bin_s=1800.0):
    bins: dict[int, list[float]] = {}
    for start_ns, end_ns, pps in zip(estimates.window_start_ns.tolist(),
                                     estimates.window_end_ns.tolist(), estimates.pps.tolist()):
        mid = (start_ns + end_ns) // 2
        bins.setdefault(int(mid // round(bin_s * 1e9)), []).append(pps)
    return {b: sum(v) / len(v) for b, v in bins.items()}


def test_c04_periodic_matches_constant_sampling_below_bound():
    interval = 0.06
    dwell = 30.0
    span_s = 4 * 3600.0
    bases = [50_000.0, 200_000.0, 600_000.0, 1_800_000.0]
    bound = ambiguity_bound(interval)
    assert bases[2] * 1.3 < 0.8 * bound  # three servers stay unambiguous
    assert bases[3] * (1 - 0.45) < bound < bases[3] * (1 + 0.45)  # the fourth folds

    def build_fleet():
        # peak at 20:30 puts the observation window on the steep part of
        # the sinusoid, so the fast server sweeps through a wrap fold
        servers = [
            make_server(
                base_pps=base, airport="fra", counter=i + 1,
                amplitude=(0.3 if i < 3 else 0.45), noise=0.02,
                peak_local_s=73_800.0,
                address=f"198.18.30.{i + 1}",
            )
            for i, base in enumerate(bases)
        ]
        return SimulatedFleet(servers, seed=404)

    periodic_fleet = build_fleet()
    periodic = {}
    params = CampaignParams(probe_interval_s=interval, dwell_s=dwell, workers=1,
                            total_duration_s=span_s)  # a visit every 30 minutes
    for server in periodic_fleet.servers:
        visits = []
        run_campaign([server.address], params, SimulatedTransport(periodic_fleet),
                     visits.append)
        periodic[server.address] = estimate_series(visits)

    constant_fleet = build_fleet()
    constant = {}
    for server in constant_fleet.servers:
        visits = []
        for k in range(int(span_s / dwell)):
            # back to back: a visit starts before the previous one's reply
            # timeout has passed, which one transport's clock cannot do
            transport = SimulatedTransport(constant_fleet)
            transport.sleep_until_ns(round(k * dwell * 1e9))
            visits.append(one_visit(server.address, interval, dwell, transport))
        constant[server.address] = estimate_series(visits)

    rms_values = []
    for i, server in enumerate(periodic_fleet.servers):
        p_bins = _binned(periodic[server.address])
        c_bins = _binned(constant[server.address])
        shared = sorted(set(p_bins) & set(c_bins))
        assert len(shared) >= 6
        rel = [(p_bins[b] - c_bins[b]) / c_bins[b] for b in shared]
        rms = math.sqrt(sum(r * r for r in rel) / len(rel))
        rms_values.append(rms)
        flagged = periodic[server.address].lower_bound.any()
        if i < 3:
            assert rms <= 0.05, f"server {i} rms {rms:.3f}"
            assert not flagged
        else:
            assert rms > 0.05, f"above-bound server rms {rms:.3f} did not diverge"
            assert flagged
    _ok(4, "sub-bound RMS " + ", ".join(f"{r:.2%}" for r in rms_values[:3]) +
           f"; above-bound diverges at {rms_values[3]:.0%} and is flagged")


# ---------------------------------------------------------------------------
# 5. Peak detection


def test_c05_peak_times_recovered_across_timezones():
    interval = 0.03
    dwell = 6.0
    days = 3
    zones = [("lhr", 0.0), ("jfk", -5.0), ("den", -7.0), ("nrt", 9.0), ("syd", 10.0)]
    servers = []
    address = itertools.count(1)
    for airport, tz in zones:
        for c in range(2):
            servers.append(
                make_server(
                    base_pps=30_000.0, airport=airport, counter=c + 1, operator="bt.isp",
                    amplitude=0.5, noise=0.03, tz_offset_h=tz,
                    address=f"198.18.40.{next(address)}",
                )
            )
    fill_servers = [
        make_server(
            base_pps=10_000.0, airport="lhr", counter=50 + c, operator="ix",
            amplitude=0.4, noise=0.03, fill_extra=20_000.0,
            address=f"198.18.41.{c + 1}",
        )
        for c in range(2)
    ]
    fleet = SimulatedFleet(servers + fill_servers, seed=505)
    estimates = []
    kinds = {}
    params = CampaignParams(probe_interval_s=interval, dwell_s=dwell, workers=1,
                            total_duration_s=days * 86400.0)  # a visit every 30 minutes
    for server in fleet.servers:
        visits = []
        run_campaign([server.address], params, SimulatedTransport(fleet), visits.append)
        estimates.extend(estimate_series(visits).rows(1500))
        kinds[server.address] = "isp" if ".isp." in server.name else "ixp"

    peaks = detect_peaks(EstimateTable.from_rows(estimates), kinds,
                         bin_s=1800.0)
    by_tz = {f"198.18.40.{i + 1}": zones[i // 2][1] for i in range(10)}

    isp_days = [p for p in peaks if p.operator_kind == "isp"]
    assert len(isp_days) == 10 * days
    hits = 0
    for peak in isp_days:
        tz = by_tz[peak.target]
        expected_bin = round(((23.5 - tz) % 24.0) * 2)  # 30-minute bins
        got_bin = peak.peak_bin_start_s // 1800
        if min((got_bin - expected_bin) % 48, (expected_bin - got_bin) % 48) <= 1:
            hits += 1
    fraction = hits / len(isp_days)
    assert fraction >= 0.95, f"only {fraction:.0%} of server-days at the expected UTC bin"

    fill_days = [p for p in peaks if p.operator_kind == "ixp"]
    assert len(fill_days) == 2 * days
    for peak in fill_days:
        local_h = (peak.peak_bin_start_s / 3600.0 + 0.0) % 24.0  # lhr is UTC+0
        assert 2.0 <= local_h < 14.0, f"fill peak at {local_h:.1f}h local"
    _ok(5, f"{fraction:.0%} of {len(isp_days)} server-days at the 23:30-local bin "
           f"(+/-1); all {len(fill_days)} fill-server days peak inside 02:00-14:00 local")


# ---------------------------------------------------------------------------
# 6. Crawler completeness


def _table_shaped_fixture():
    """4,669 names: ISP 1428 over 217 sites/39 countries, IXP 3241 over
    39 sites/17 countries, 120 ISP labels."""
    codes = ["".join(c) for c in itertools.islice(
        itertools.product(string.ascii_lowercase, repeat=3), 256)]
    ix_airports = codes[:39]
    isp_airports = codes[39:256]
    airport_countries = {}
    for i, airport in enumerate(ix_airports):
        airport_countries[airport] = f"IXC{i % 17:02d}"
    for i, airport in enumerate(isp_airports):
        airport_countries[airport] = f"ISC{i % 39:02d}"
    isp_labels = [f"isp{i:03d}" for i in range(120)]

    zone = {}
    ix_sizes = [84] * 4 + [83] * 35
    assert sum(ix_sizes) == 3241
    for airport, size in zip(ix_airports, ix_sizes):
        for counter in range(1, size + 1):
            zone[f"ipv4_1-lagg0-c{counter:03d}.1.{airport}001.ix.nflxvideo.net"] = (
                f"10.{len(zone) // 65536}.{(len(zone) // 256) % 256}.{len(zone) % 256}",
            )
    isp_sizes = [7] * 126 + [6] * 91
    assert sum(isp_sizes) == 1428
    for i, (airport, size) in enumerate(zip(isp_airports, isp_sizes)):
        label = isp_labels[i % 120]
        for counter in range(1, size + 1):
            zone[f"ipv4_1-lagg0-c{counter:03d}.1.{airport}001.{label}.isp.nflxvideo.net"] = (
                f"10.{len(zone) // 65536}.{(len(zone) // 256) % 256}.{len(zone) % 256}",
            )
    assert len(zone) == 4669
    lists = Wordlists(
        airport_codes=tuple(codes),
        isp_labels=tuple(isp_labels),
        nic_types=("lagg0",),
        protocols=("ipv4",),
        max_server_counter=84,
    )
    return zone, lists, airport_countries


def test_c06_crawler_completeness_on_table_shaped_zone():
    started = time.perf_counter()
    zone, lists, airport_countries = _table_shaped_fixture()
    resolver = ZoneResolver(zone)
    records = run_crawl(lists, resolver, None)
    found = {r.hostname for r in records}
    assert found == set(zone), "crawl must find the zone exactly"
    assert len(records) == 4669

    summary = summarize_discovery(records, airport_countries)
    assert summary.isp.servers == 1428
    assert summary.ixp.servers == 3241
    assert summary.total.servers == 4669
    assert summary.isp.locations == 217
    assert summary.ixp.locations == 39
    assert summary.total.locations == 256
    assert summary.isp.countries == 39
    assert summary.ixp.countries == 17
    assert summary.total.countries == 56
    assert summary.isps_found == 120
    elapsed = time.perf_counter() - started
    # 30,720 empty prefixes x MISS_RUN + 39 IXP prefixes walked to the cap
    # of 84 + ISP prefixes of 7 and 6 names walked MISS_RUN past them
    assert resolver.queries == 30_720 * 5 + 39 * 84 + 126 * 12 + 91 * 11 == 159_389
    _ok(6, f"4,669/4,669 names found, 0 false records, summary exact "
           f"({elapsed:.1f}s over {resolver.queries:,} queries)")


# ---------------------------------------------------------------------------
# 7. Grammar round trip


def test_c07_grammar_round_trip_hundred_thousand():
    rng = random.Random("acceptance:c7")
    letters = "abcdefghijklmnopqrstuvwxyz"
    tokens = "abcdefghijklmnopqrstuvwxyz0123456789"
    failures = 0
    n = 100_000
    for _ in range(n):
        operator = "ix" if rng.random() < 0.5 else (
            ".".join(
                "".join(rng.choice(tokens) for _ in range(rng.randint(1, 6)))
                for _ in range(rng.randint(1, 3))
            ) + ".isp"
        )
        name = ServerName(
            protocol=rng.choice(("ipv4", "ipv6")),
            protocol_index=rng.randint(0, 9),
            nic="".join(rng.choice(tokens) for _ in range(rng.randint(1, 8))),
            server_counter=rng.randint(0, 1999),
            deployment_index=rng.randint(0, 9),
            airport_code="".join(rng.choice(letters) for _ in range(3)),
            site_counter=rng.randint(1, 1999),
            operator=operator,
        )
        if parse_server_name(format_server_name(name)) != name:
            failures += 1
    assert failures == 0

    first = parse_server_name("ipv4_1-lagg0-c020.1.lhr001.ix.nflxvideo.net")
    assert (first.protocol, first.protocol_index, first.nic) == ("ipv4", 1, "lagg0")
    assert (first.server_counter, first.deployment_index) == (20, 1)
    assert (first.airport_code, first.site_counter, first.operator) == ("lhr", 1, "ix")
    second = parse_server_name("ipv6_1-lagg0-c002.1.lhr005.bt.isp.nflxvideo.net")
    assert (second.protocol, second.server_counter, second.site_counter) == ("ipv6", 2, 5)
    assert second.isp_label == "bt"
    _ok(7, f"{n:,} random names round-tripped with 0 failures; "
           f"both documented examples decompose correctly")


# ---------------------------------------------------------------------------
# 8. Validation taxonomy


def test_c08_validation_taxonomy_proportions():
    # 5000 planted verdicts in the observed-fraction shape:
    # 84.5% match, 13.3% prefix-registration, 1.9% ongoing, 0.16%
    # multinational, remainder unexplained; ASN consistency lands at 98.1%.
    counts = {"match": 4225, "ixp_prefix_registration": 665,
              "ongoing_deployment": 95, "multinational_operator": 8,
              "unexplained": 7}
    assert sum(counts.values()) == 5000

    airports = AirportDatabase({"hme": "HM"})
    cdn_asns = {64500}
    isp_asns = {"loc": [64510], "big": [64511], "odd": [64512]}
    multinationals = {"big"}

    records, rows, planted = [], [], []
    address = (f"10.{i // 65536}.{(i // 256) % 256}.{i % 256}" for i in range(1, 60000))

    def add(kind: str, operator: str, geo_country: str, reg_country: str, asn: int):
        addr = next(address)
        counter = len(records) + 1
        server = make_server(1.0, airport="hme", counter=counter % 999 + 1,
                             site=counter // 999 + 1, operator=operator, address=addr)
        records.append(record_for(server))
        rows.append((f"{addr}/32", geo_country, reg_country, asn))
        planted.append(kind)

    for _ in range(counts["match"]):
        add("match", "ix", "hm", "hm", 64500)
    for _ in range(counts["ixp_prefix_registration"]):
        add("ixp_prefix_registration", "ix", "nl", "nl", 64500)
    for _ in range(counts["ongoing_deployment"]):
        add("ongoing_deployment", "loc.isp", "us", "us", 64500)
    for _ in range(counts["multinational_operator"]):
        add("multinational_operator", "big.isp", "fr", "fr", 64511)
    for _ in range(counts["unexplained"]):
        add("unexplained", "odd.isp", "de", "de", 64512)

    snapshot = AddressSnapshot(rows)
    agree = 0
    asn_verdicts = []
    for record, expected in zip(records, planted):
        geo = geo_crosscheck(record, snapshot, cdn_asns, airports, multinationals)
        got = "match" if geo.verdict == "match" else geo.mismatch_class
        if got == expected:
            agree += 1
        asn_verdicts.append(asn_crosscheck(record, snapshot, cdn_asns, isp_asns).verdict)
    assert agree == 5000, f"classifier agreed on {agree}/5000"

    consistent = sum(v == "consistent" for v in asn_verdicts)
    ongoing = sum(v == "ongoing_deployment" for v in asn_verdicts)
    assert consistent / 5000 == pytest.approx(0.981)
    assert ongoing == 95
    _ok(8, "classifier matches all 5,000 planted labels "
           f"(84.5/13.3/1.9/0.16); ASN consistency {consistent / 50:.1f}%")


# ---------------------------------------------------------------------------
# 9. Rollup conservation


def test_c09_rollup_conservation_across_groupings():
    rng = random.Random("acceptance:c9")
    airports = AirportDatabase.bundled()
    continents = {"GB": "EU", "NL": "EU", "US": "NA", "JP": "AS", "BR": "SA"}
    choices = ["lhr", "ams", "jfk", "nrt", "gru", "sea", "man"]
    records = []
    estimates = []
    for i in range(60):
        airport = rng.choice(choices)
        operator = "ix" if rng.random() < 0.5 else rng.choice(["bt.isp", "sky.isp", "kddi.isp"])
        server = make_server(1.0, airport=airport, site=rng.randint(1, 2),
                             counter=i + 1, operator=operator,
                             address=f"198.18.50.{i + 1}")
        records.append(record_for(server))
        for b in range(rng.randint(1, 6)):  # ragged series with missing bins
            if rng.random() < 0.3:
                continue
            pps = rng.uniform(10.0, 1e6)
            estimates.append({
                "target": server.address,
                "window_start_ns": b * 1800 * 10**9,
                "window_end_ns": (b * 1800 + 60) * 10**9,
                "pps": pps,
                "bps": pps * 1500 * 8,
                "mtu_bytes": 1500,
                "flags": {"id_behavior": "global_counter", "segments_used": 1,
                          "ambiguity_risk": False, "lower_bound_only": False},
            })

    joined = join_series(EstimateTable.from_rows(estimates), records)
    total = sum(r.mean_bps for r in rollup(joined, "operator_kind", airports, continents))
    worst = 0.0
    for grouping in ("location", "country", "continent", "operator_kind"):
        split = rollup(joined, grouping, airports, continents)
        group_sum = sum(r.mean_bps for r in split)
        worst = max(worst, abs(group_sum - total) / total)
        assert group_sum == pytest.approx(total, rel=1e-9)
    _ok(9, f"group sums match the ungrouped total for all groupings "
           f"(worst relative gap {worst:.2e})")


# ---------------------------------------------------------------------------
# 10. End-to-end determinism


def test_c10_simulate_is_byte_deterministic(tmp_path):
    servers = [
        make_server(40_000.0, airport="lhr", operator="ix", counter=1,
                    amplitude=0.4, noise=0.05, address="198.18.60.1"),
        make_server(25_000.0, airport="lhr", operator="bt.isp", counter=2,
                    amplitude=0.3, noise=0.05, address="198.18.60.2"),
        make_server(15_000.0, airport="jfk", operator="ix", counter=1,
                    amplitude=0.5, noise=0.05, tz_offset_h=-5.0, address="198.18.60.3"),
        make_server(5_000.0, airport="nrt", operator="kddi.isp", counter=1,
                    noise=0.05, tz_offset_h=9.0, address="198.18.60.4"),
    ]
    fleet_path = write_fleet(tmp_path / "fleet.json", servers, seed=77)

    outputs = []
    for run in ("one", "two"):
        out = tmp_path / run
        code = cli_main([
            "--seed", "77",
            "simulate", "--fleet", str(fleet_path), "--out", str(out),
            "--interval", "30ms", "--dwell", "6s", "--workers", "2",
            "--duration", "2h", "--loss-rate", "0.01",
        ])
        assert code == 0
        outputs.append(out)

    report_files = ["peaks.csv", "cdf.csv", "location_scatter.csv",
                    "rollup_country.csv", "rollup_continent.csv",
                    "rollup_kind.csv", "summary.json", "truth.csv"]
    for filename in report_files:
        first = (outputs[0] / filename).read_bytes()
        second = (outputs[1] / filename).read_bytes()
        assert first == second, f"{filename} differs between identical runs"
        assert first, f"{filename} is empty"
    _ok(10, f"two seeded runs produced byte-identical reports "
            f"({', '.join(report_files)})")
