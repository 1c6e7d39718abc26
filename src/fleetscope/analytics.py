"""Aggregate rate estimates into report shapes.

Peak-time detection per server and UTC day, traffic rollups by location,
country, continent or operator kind, per-server traffic CDFs, and
deployment-size versus traffic per location. Series align on a common UTC
bin grid (default 30 minutes, matching the revisit period, so roughly one
estimate lands in each bin). Bins without measurements are left out of
means rather than zero-filled: absence of measurement is not absence of
traffic.
"""

from __future__ import annotations

import csv
import datetime as dt
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from .discovery import ServerRecord
from .ipid import RateEstimate
from .validation import AirportDatabase

DEFAULT_BIN_S = 1800.0
DAY_NS = 86_400 * 10**9
UTC = dt.timezone.utc


class UnjoinedEstimate(KeyError):
    """An estimate's target does not belong to any known server record."""


class EmptyInput(ValueError):
    """A computation that needs data got none."""


@dataclass(frozen=True, slots=True)
class PeakObservation:
    """Busiest bin of one target on one UTC day."""

    target: str
    day: dt.date
    peak_bin_start_s: int  # seconds since UTC midnight
    peak_pps: float
    operator_kind: str


def detect_peaks(
    estimates: Iterable[RateEstimate],
    operator_kinds: Mapping[str, str],
    bin_s: float = DEFAULT_BIN_S,
) -> list[PeakObservation]:
    """Per target and UTC day, the bin with the highest estimated rate.

    Estimates land in the bin containing their window midpoint and average
    within it. Ties break to the earliest bin. Days without samples are
    skipped. ``operator_kinds`` maps target address to its kind.
    """
    bin_ns = round(bin_s * 1e9)
    if DAY_NS % bin_ns:
        raise ValueError("bin must divide 24h")
    per_day: dict[tuple[str, int], dict[int, list[float]]] = {}
    for est in estimates:
        mid = (est.window_start_ns + est.window_end_ns) // 2
        day_index = mid // DAY_NS
        bin_of_day = (mid % DAY_NS) // bin_ns
        per_day.setdefault((est.target, day_index), {}).setdefault(bin_of_day, []).append(
            est.packets_per_second
        )

    peaks = []
    for (target, day_index), bins in sorted(per_day.items()):
        best_bin = None
        best_value = -1.0
        for bin_of_day in sorted(bins):
            value = sum(bins[bin_of_day]) / len(bins[bin_of_day])
            if value > best_value:
                best_bin = bin_of_day
                best_value = value
        day = dt.datetime.fromtimestamp(day_index * 86_400, tz=UTC).date()
        peaks.append(
            PeakObservation(
                target=target,
                day=day,
                peak_bin_start_s=int(best_bin * bin_ns // 10**9),
                peak_pps=best_value,
                operator_kind=operator_kinds.get(target, "unknown"),
            )
        )
    return peaks


@dataclass(frozen=True)
class ServerSeries:
    """Binned series and campaign means for one server record."""

    record: ServerRecord
    bins: dict[int, float]  # bin index -> mean pps within bin
    mean_pps: float
    mean_bps: float


def _join_series(
    estimates: Iterable[RateEstimate],
    records: Sequence[ServerRecord],
    bin_s: float,
) -> list[ServerSeries]:
    by_address: dict[str, ServerRecord] = {}
    for record in records:
        for address in record.addresses:
            by_address[address] = record

    bin_ns = round(bin_s * 1e9)
    grouped: dict[str, dict[int, list[tuple[float, float]]]] = {}
    for est in estimates:
        record = by_address.get(est.target)
        if record is None:
            raise UnjoinedEstimate(est.target)
        mid = (est.window_start_ns + est.window_end_ns) // 2
        grouped.setdefault(record.hostname, {}).setdefault(mid // bin_ns, []).append(
            (est.packets_per_second, est.bits_per_second)
        )

    series = []
    by_hostname = {record.hostname: record for record in records}
    for hostname in sorted(grouped):
        raw = grouped[hostname]
        bins = {b: sum(p for p, _ in vals) / len(vals) for b, vals in raw.items()}
        bps_bins = {b: sum(x for _, x in vals) / len(vals) for b, vals in raw.items()}
        mean_pps = sum(bins.values()) / len(bins)
        mean_bps = sum(bps_bins.values()) / len(bps_bins)
        series.append(ServerSeries(by_hostname[hostname], bins, mean_pps, mean_bps))
    return series


@dataclass(frozen=True)
class TrafficRollup:
    """Traffic of one group: campaign means plus the binned total series.

    ``mean_pps``/``mean_bps`` are sums of the member servers' campaign
    means, so disjoint groupings add up exactly to the ungrouped total.
    """

    group: str
    grouping: str
    server_count: int
    location_count: int
    mean_pps: float
    mean_bps: float
    series: tuple[tuple[int, float], ...]  # (bin start ns, summed pps)


GROUPINGS = ("location", "country", "continent", "operator_kind")


def rollup(
    estimates: Iterable[RateEstimate],
    records: Sequence[ServerRecord],
    grouping: str,
    airports: AirportDatabase | None = None,
    continents: Mapping[str, str] | None = None,
    bin_s: float = DEFAULT_BIN_S,
) -> list[TrafficRollup]:
    """Group per-server traffic by the requested key.

    ``country`` and ``continent`` need an airport database (and continent
    table); codes it cannot place fall into the ``"unknown"`` group.
    """
    if grouping not in GROUPINGS:
        raise ValueError(f"grouping must be one of {GROUPINGS}")
    return _rollup(_join_series(estimates, records, bin_s), grouping, airports, continents, bin_s)


def _rollup(joined: Iterable[ServerSeries], grouping: str, airports: AirportDatabase | None,
            continents: Mapping[str, str] | None, bin_s: float) -> list[TrafficRollup]:
    def key_for(record: ServerRecord) -> str:
        if grouping == "location":
            return record.site_code
        if grouping == "operator_kind":
            return record.operator_kind
        if airports is None or record.name.airport_code not in airports:
            return "unknown"
        country = airports.country(record.name.airport_code)
        if grouping == "country":
            return country
        return (continents or {}).get(country, "unknown")

    bin_ns = round(bin_s * 1e9)
    groups: dict[str, list[ServerSeries]] = {}
    for series in joined:
        groups.setdefault(key_for(series.record), []).append(series)

    rollups = []
    for group in sorted(groups):
        members = groups[group]
        totals: dict[int, float] = {}
        for member in members:
            for b, value in member.bins.items():
                totals[b] = totals.get(b, 0.0) + value
        rollups.append(
            TrafficRollup(
                group=group,
                grouping=grouping,
                server_count=len(members),
                location_count=len({m.record.site_code for m in members}),
                mean_pps=sum(m.mean_pps for m in members),
                mean_bps=sum(m.mean_bps for m in members),
                series=tuple((b * bin_ns, totals[b]) for b in sorted(totals)),
            )
        )
    return rollups


def traffic_cdf(values: Sequence[float]) -> list[tuple[float, float]]:
    """Empirical CDF points, sorted ascending, ending at probability 1."""
    if not values:
        raise EmptyInput("traffic_cdf needs at least one value")
    ordered = sorted(values)
    n = len(ordered)
    return [(value, (i + 1) / n) for i, value in enumerate(ordered)]


@dataclass(frozen=True, slots=True)
class LocationTraffic:
    """Deployment size versus total traffic for one location."""

    site_code: str
    operator_kind: str
    server_count: int
    mean_bps: float


def deployment_vs_traffic(
    records: Sequence[ServerRecord],
    estimates: Iterable[RateEstimate],
    bin_s: float = DEFAULT_BIN_S,
) -> list[LocationTraffic]:
    """One point per location: how many servers it hosts and the sum of
    their campaign-mean rates. IXP and ISP deployments at the same site
    code are distinct locations."""
    return _deployment_vs_traffic(_join_series(estimates, records, bin_s))


def _deployment_vs_traffic(joined: Iterable[ServerSeries]) -> list[LocationTraffic]:
    points: dict[tuple[str, str], list[ServerSeries]] = {}
    for series in joined:
        key = (series.record.site_code, series.record.operator_kind)
        points.setdefault(key, []).append(series)
    return [
        LocationTraffic(site, kind, len(members), sum(m.mean_bps for m in members))
        for (site, kind), members in sorted(points.items())
    ]


def _write_csv(path: Path, header: list[str], rows: Iterable[Sequence]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _seconds_to_hhmm(seconds: int) -> str:
    return f"{seconds // 3600:02d}:{(seconds % 3600) // 60:02d}"


def write_reports(
    out_dir: str | Path,
    records: Sequence[ServerRecord],
    estimates: Sequence[RateEstimate],
    airports: AirportDatabase | None = None,
    continents: Mapping[str, str] | None = None,
    bin_s: float = DEFAULT_BIN_S,
    validation: Mapping | None = None,
) -> dict[str, Path]:
    """Write the CSV report set plus a JSON summary; returns the paths.

    ``validation``, the verdict counts, becomes the summary's
    ``validation`` key when given. Output is deterministic for identical
    inputs: rows are sorted and floats rendered with ``repr``.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths: dict[str, Path] = {}

    kinds = {}
    for record in records:
        for address in record.addresses:
            kinds[address] = record.operator_kind

    peaks = detect_peaks(estimates, kinds, bin_s)
    paths["peaks"] = out / "peaks.csv"
    _write_csv(
        paths["peaks"],
        ["target", "day", "peak_time_utc", "peak_pps", "operator_kind"],
        [
            (p.target, p.day.isoformat(), _seconds_to_hhmm(p.peak_bin_start_s), repr(p.peak_pps), p.operator_kind)
            for p in peaks
        ],
    )

    series = _join_series(estimates, records, bin_s)
    paths["cdf"] = out / "cdf.csv"
    if series:
        cdf = traffic_cdf([s.mean_bps for s in series])
        _write_csv(paths["cdf"], ["mean_bps", "cumulative_fraction"],
                   [(repr(v), repr(p)) for v, p in cdf])
    else:
        _write_csv(paths["cdf"], ["mean_bps", "cumulative_fraction"], [])

    paths["location_scatter"] = out / "location_scatter.csv"
    _write_csv(
        paths["location_scatter"],
        ["site", "operator_kind", "servers", "mean_bps"],
        [
            (p.site_code, p.operator_kind, p.server_count, repr(p.mean_bps))
            for p in _deployment_vs_traffic(series)
        ],
    )

    for grouping, filename in (
        ("country", "rollup_country.csv"),
        ("continent", "rollup_continent.csv"),
        ("operator_kind", "rollup_kind.csv"),
    ):
        rows = _rollup(series, grouping, airports, continents, bin_s)
        paths[grouping] = out / filename
        _write_csv(
            paths[grouping],
            [grouping, "servers", "locations", "mean_pps", "mean_bps"],
            [
                (r.group, r.server_count, r.location_count, repr(r.mean_pps), repr(r.mean_bps))
                for r in rows
            ],
        )

    summary = {
        "servers": len(records),
        "estimates": len(estimates),
        "targets_estimated": len({e.target for e in estimates}),
        "total_mean_bps": sum(s.mean_bps for s in series),
        "lower_bound_targets": sorted(
            {e.target for e in estimates if e.lower_bound_only}
        ),
    }
    if validation is not None:
        summary["validation"] = validation
    paths["summary"] = out / "summary.json"
    paths["summary"].write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    return paths
