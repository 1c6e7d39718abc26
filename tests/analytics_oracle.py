"""Reference report: the dict-of-lists aggregation that ``fleetscope.analytics``'s
columnar group-by replaced, kept so property tests can compare the two.

It reads one ``EstimateRow`` per row (``estimate_from_json``) and groups
them with dicts of lists, as the report did before ``EstimateTable``. Two
changes from that code: every sum is an explicit left-to-right loop
(``sum()`` of floats is compensated from Python 3.12 on), and each
server's bins are summed in ascending order rather than first-seen order.
"""

from __future__ import annotations

import csv
import datetime as dt
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from fleetscope.analytics import (
    DAY_NS,
    DEFAULT_BIN_S,
    LocationTraffic,
    PeakObservation,
    TrafficRollup,
    traffic_cdf,
)
from fleetscope.discovery import ServerRecord
from fleetscope.validation import AirportDatabase

UTC = dt.timezone.utc


@dataclass(frozen=True)
class EstimateRow:
    """The fields of an estimates row that the report reads."""

    target: str
    window_start_ns: int
    window_end_ns: int
    packets_per_second: float
    bits_per_second: float
    lower_bound_only: bool


def estimate_from_json(obj: dict) -> EstimateRow:
    return EstimateRow(
        target=obj["target"],
        window_start_ns=obj["window_start_ns"],
        window_end_ns=obj["window_end_ns"],
        packets_per_second=obj["pps"],
        bits_per_second=obj["bps"],
        lower_bound_only=obj["flags"]["lower_bound_only"],
    )


def _sequential_sum(values: Iterable[float]):
    """``sum()`` as Python 3.11 computes it: from int 0, left to right."""
    total = 0
    for value in values:
        total += value
    return total


def detect_peaks(
    estimates: Iterable[EstimateRow],
    operator_kinds: Mapping[str, str],
    bin_s: float = DEFAULT_BIN_S,
) -> list[PeakObservation]:
    bin_ns = round(bin_s * 1e9)
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
            value = _sequential_sum(bins[bin_of_day]) / len(bins[bin_of_day])
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
    record: ServerRecord
    mean_pps: float
    mean_bps: float


def _join_series(
    estimates: Iterable[EstimateRow],
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
        record = by_address[est.target]
        mid = (est.window_start_ns + est.window_end_ns) // 2
        grouped.setdefault(record.hostname, {}).setdefault(mid // bin_ns, []).append(
            (est.packets_per_second, est.bits_per_second)
        )

    series = []
    by_hostname = {record.hostname: record for record in records}
    for hostname in sorted(grouped):
        raw = dict(sorted(grouped[hostname].items()))
        bins = {b: _sequential_sum(p for p, _ in vals) / len(vals) for b, vals in raw.items()}
        bps_bins = {b: _sequential_sum(x for _, x in vals) / len(vals) for b, vals in raw.items()}
        mean_pps = _sequential_sum(bins.values()) / len(bins)
        mean_bps = _sequential_sum(bps_bins.values()) / len(bps_bins)
        series.append(ServerSeries(by_hostname[hostname], mean_pps, mean_bps))
    return series


def _rollup(joined: Iterable[ServerSeries], grouping: str, airports: AirportDatabase | None,
            continents: Mapping[str, str] | None) -> list[TrafficRollup]:
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

    groups: dict[str, list[ServerSeries]] = {}
    for series in joined:
        groups.setdefault(key_for(series.record), []).append(series)

    rollups = []
    for group in sorted(groups):
        members = groups[group]
        rollups.append(
            TrafficRollup(
                group=group,
                grouping=grouping,
                server_count=len(members),
                location_count=len({m.record.site_code for m in members}),
                mean_pps=_sequential_sum(m.mean_pps for m in members),
                mean_bps=_sequential_sum(m.mean_bps for m in members),
            )
        )
    return rollups


def _deployment_vs_traffic(joined: Iterable[ServerSeries]) -> list[LocationTraffic]:
    points: dict[tuple[str, str], list[ServerSeries]] = {}
    for series in joined:
        key = (series.record.site_code, series.record.operator_kind)
        points.setdefault(key, []).append(series)
    return [
        LocationTraffic(site, kind, len(members), _sequential_sum(m.mean_bps for m in members))
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
    estimates: Sequence[EstimateRow],
    airports: AirportDatabase | None = None,
    continents: Mapping[str, str] | None = None,
    bin_s: float = DEFAULT_BIN_S,
    validation: Mapping | None = None,
) -> dict[str, Path]:
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
        rows = _rollup(series, grouping, airports, continents)
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
        "total_mean_bps": _sequential_sum(s.mean_bps for s in series),
        "lower_bound_targets": sorted(
            {e.target for e in estimates if e.lower_bound_only}
        ),
    }
    if validation is not None:
        summary["validation"] = validation
    paths["summary"] = out / "summary.json"
    paths["summary"].write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    return paths
