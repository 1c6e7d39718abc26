"""Aggregate rate estimates into report shapes.

Peak-time detection per server and UTC day, traffic rollups by location,
country, continent or operator kind, per-server traffic CDFs, and
deployment-size versus traffic per location. Series align on a common UTC
bin grid (default 30 minutes, matching the revisit period, so roughly one
estimate lands in each bin). Bins without measurements are left out of
means rather than zero-filled: absence of measurement is not absence of
traffic.

``join_series`` joins estimates to their server records once; ``rollup``
and ``deployment_vs_traffic`` take its result, and ``traffic_cdf`` its
``mean_bps`` column. ``write_reports`` writes its files from these same
functions, so each report shape has one implementation.

Estimates are read once into an ``EstimateTable`` of numpy columns, 29
bytes per estimate. Every report shape groups those columns with one
kernel (``_group``), which adds each group's values in row order, so each
sum has a fixed left-to-right order: estimates in input order within a
bin, bins in ascending order within a server, servers in hostname order
within a group. Floats are written with ``repr``, and that order keeps the
report files byte-identical on every Python and numpy version.
"""

from __future__ import annotations

import csv
import datetime as dt
import json
from array import array
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .discovery import ServerRecord
from .validation import AirportDatabase

DEFAULT_BIN_S = 1800.0
DAY_NS = 86_400 * 10**9
_EPOCH_ORDINAL = dt.date(1970, 1, 1).toordinal()


class BadEstimate(ValueError):
    """An estimate row the report cannot use; ``row`` counts the rows from 1."""

    def __init__(self, row: int, reason: str):
        super().__init__(f"estimate {row}: {reason}")
        self.row = row
        self.reason = reason


class UnjoinedEstimate(BadEstimate):
    """An estimate's target does not belong to any known server record."""


@dataclass(frozen=True, eq=False)
class EstimateTable:
    """Rate estimates as columns; entry ``i`` of each column is row ``i``."""

    targets: tuple[str, ...]  # target names in order of first appearance
    target: np.ndarray  # index into ``targets``
    mid_ns: np.ndarray  # int64 window midpoint
    pps: np.ndarray  # float64
    bps: np.ndarray  # float64
    lower_bound: np.ndarray  # bool, the lower_bound_only flag

    @classmethod
    def from_rows(cls, rows: Iterable[Mapping]) -> "EstimateTable":
        """The table of estimate rows in the ``estimates.jsonl`` format, in order.

        Raises ``BadEstimate`` for a row without a field the report reads
        (target, window, pps, bps, ``flags.lower_bound_only``), with a value
        of the wrong type, or with a rate that is not a finite number.
        """
        index: dict[str, int] = {}
        target, mid_ns, pps, bps = array("i"), array("q"), array("d"), array("d")
        lower_bound = array("b")
        for number, row in enumerate(rows, 1):
            try:
                mid_ns.append((row["window_start_ns"] + row["window_end_ns"]) // 2)
                pps.append(row["pps"])
                bps.append(row["bps"])
                lower_bound.append(row["flags"]["lower_bound_only"])
                target.append(index.setdefault(row["target"], len(index)))
            except KeyError as exc:
                raise BadEstimate(number, f"no field {exc.args[0]!r}") from None
            except (TypeError, OverflowError) as exc:
                raise BadEstimate(number, f"bad value ({exc})") from None
        table = cls(
            tuple(index),
            np.frombuffer(target, np.intc),
            np.frombuffer(mid_ns, np.int64),
            np.frombuffer(pps, np.float64),
            np.frombuffer(bps, np.float64),
            np.frombuffer(lower_bound, np.int8) != 0,
        )
        infinite = np.flatnonzero(~(np.isfinite(table.pps) & np.isfinite(table.bps)))
        if len(infinite):
            raise BadEstimate(int(infinite[0]) + 1, "pps or bps is not a finite number")
        return table

    def __len__(self) -> int:
        return len(self.target)


def _group(keys: np.ndarray, *columns: np.ndarray):
    """Group rows by integer key, groups in ascending key order.

    Returns each group's first row, each row's group, each group's row
    count, and per column the sum of each group's values. ``np.add.at``
    adds them one by one in row order (``np.sum`` would add pairwise), so a
    sum's order is the rows' order. Keys already in order are not sorted.
    """
    order = None if (keys[1:] >= keys[:-1]).all() else np.argsort(keys, kind="stable")
    ordered = keys if order is None else keys[order]
    first = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]][:len(keys)])
    del ordered
    counts = np.diff(first, append=len(keys))
    inverse = np.repeat(np.arange(len(first)), counts)  # of the rows in key order
    if order is not None:
        first = order[first]
        inverse[order] = inverse.copy()  # back to row order
    sums = []
    for column in columns:
        total = np.zeros(len(first))
        np.add.at(total, inverse, column)
        sums.append(total)
    return first, inverse, counts, sums


def _pairs(major: np.ndarray, minor: np.ndarray) -> np.ndarray:
    """One int64 key per row that orders rows by ``major``, a non-negative
    index, then by ``minor``."""
    keys = minor - minor.min(initial=np.iinfo(np.int64).max)
    span = int(keys.max(initial=0)) + 1
    if span * (int(major.max(initial=0)) + 1) > np.iinfo(np.int64).max:
        raise ValueError("estimate windows span too many bins")
    keys += major.astype(np.int64, copy=False) * span
    return keys


def _label_groups(labels: Sequence) -> tuple[list, np.ndarray]:
    """The distinct labels sorted, and each label's position among them."""
    distinct = sorted(set(labels))
    position = {label: i for i, label in enumerate(distinct)}
    return distinct, np.array([position[label] for label in labels], np.int64)


@dataclass(frozen=True, slots=True)
class PeakObservation:
    """Busiest bin of one target on one UTC day."""

    target: str
    day: dt.date
    peak_bin_start_s: int  # seconds since UTC midnight
    peak_pps: float
    operator_kind: str


def detect_peaks(
    estimates: EstimateTable,
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
    bins_per_day = DAY_NS // bin_ns
    _, rank = _label_groups(estimates.targets)
    first, inverse, counts, (means,) = _group(
        _pairs(rank[estimates.target], estimates.mid_ns // bin_ns), estimates.pps)
    means /= counts  # per (target, bin), in target and then bin order
    del inverse, counts  # as long as the estimates; free them for the day grouping
    bins = estimates.mid_ns[first] // bin_ns
    day_first, day_of_bin, _, _ = _group(_pairs(rank[estimates.target[first]],
                                                bins // bins_per_day))
    best = np.full(len(day_first), -np.inf)
    np.maximum.at(best, day_of_bin, means)
    # within a day the bins ascend, so a day's first maximal bin is the earliest
    maximal = np.flatnonzero(means == best[day_of_bin])
    peak = maximal[np.unique(day_of_bin[maximal], return_index=True)[1]]

    peaks = []
    for row, peak_bin, peak_pps in zip(first[peak].tolist(), bins[peak].tolist(),
                                       means[peak].tolist()):
        target = estimates.targets[estimates.target[row]]
        peaks.append(PeakObservation(
            target=target,
            day=dt.date.fromordinal(_EPOCH_ORDINAL + peak_bin // bins_per_day),
            peak_bin_start_s=peak_bin % bins_per_day * bin_ns // 10**9,
            peak_pps=peak_pps,
            operator_kind=operator_kinds.get(target, "unknown"),
        ))
    return peaks


@dataclass(frozen=True, eq=False)
class JoinedSeries:
    """Estimates joined to their server records, as columns.

    Servers are the records with estimates, in hostname order. A server's
    campaign mean is the mean of its bin means: estimates average within
    the bin holding their window midpoint, and bins without estimates are
    left out.
    """

    records: Sequence[ServerRecord]
    record: np.ndarray  # per server: index into ``records``
    mean_pps: np.ndarray  # per server: mean of its bin means
    mean_bps: np.ndarray


def _record_of_target(estimates: EstimateTable, records: Sequence[ServerRecord]) -> np.ndarray:
    """Per target of ``estimates``, the index of the record holding its address.

    Raises ``UnjoinedEstimate`` for the first row whose target no record holds.
    """
    by_address = {address: i for i, record in enumerate(records) for address in record.addresses}
    found = np.array([by_address.get(target, -1) for target in estimates.targets], np.int64)
    if (found < 0).any():
        row = int(np.flatnonzero(found[estimates.target] < 0)[0])
        target = estimates.targets[estimates.target[row]]
        raise UnjoinedEstimate(row + 1, f"target {target} is not an address of any record")
    return found


def join_series(
    estimates: EstimateTable,
    records: Sequence[ServerRecord],
    bin_s: float = DEFAULT_BIN_S,
) -> JoinedSeries:
    """The campaign-mean rates of each server with estimates, over bins of
    ``bin_s`` seconds; the input of ``rollup`` and
    ``deployment_vs_traffic``. Records that share a hostname are one server.

    Raises ``UnjoinedEstimate`` for the first estimate no record joins.
    """
    bin_ns = round(bin_s * 1e9)
    hostnames, server_of_record = _label_groups([record.hostname for record in records])
    server_of_target = server_of_record[_record_of_target(estimates, records)]
    first, inverse, counts, (bin_pps, bin_bps) = _group(
        _pairs(server_of_target[estimates.target], estimates.mid_ns // bin_ns),
        estimates.pps, estimates.bps)
    bin_pps /= counts
    bin_bps /= counts
    del inverse, counts  # as long as the estimates; free them for the server grouping
    server = server_of_target[estimates.target[first]]
    server_first, _, bin_counts, (mean_pps, mean_bps) = _group(server, bin_pps, bin_bps)
    record_of_server = np.empty(len(hostnames), np.int64)
    record_of_server[server_of_record] = np.arange(len(records))  # any record of the name
    return JoinedSeries(
        records=records,
        record=record_of_server[server[server_first]],
        mean_pps=mean_pps / bin_counts,
        mean_bps=mean_bps / bin_counts,
    )


@dataclass(frozen=True)
class TrafficRollup:
    """Traffic of one group: the sums of its member servers' campaign means.

    Every server is in exactly one group, so disjoint groupings add up
    exactly to the ungrouped total.
    """

    group: str
    grouping: str
    server_count: int
    location_count: int
    mean_pps: float
    mean_bps: float


GROUPINGS = ("location", "country", "continent", "operator_kind")


def rollup(
    joined: JoinedSeries,
    grouping: str,
    airports: AirportDatabase | None = None,
    continents: Mapping[str, str] | None = None,
) -> list[TrafficRollup]:
    """Group per-server traffic by the requested key, groups in sorted order.

    ``country`` and ``continent`` need an airport database (and continent
    table); codes it cannot place fall into the ``"unknown"`` group.
    """
    if grouping not in GROUPINGS:
        raise ValueError(f"grouping must be one of {GROUPINGS}")

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

    members = [joined.records[i] for i in joined.record.tolist()]
    groups, group = _label_groups([key_for(record) for record in members])
    _, _, server_counts, (mean_pps, mean_bps) = _group(group, joined.mean_pps, joined.mean_bps)
    _, site = _label_groups([record.site_code for record in members])
    locations = np.bincount(group[_group(_pairs(group, site))[0]], minlength=len(groups))
    return [
        TrafficRollup(name, grouping, count, location_count, pps, bps)
        for name, count, location_count, pps, bps in zip(
            groups, server_counts.tolist(), locations.tolist(), mean_pps.tolist(),
            mean_bps.tolist())
    ]


def traffic_cdf(values: Sequence[float]) -> list[tuple[float, float]]:
    """Empirical CDF points, sorted ascending, ending at probability 1;
    none for no values."""
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


def deployment_vs_traffic(joined: JoinedSeries) -> list[LocationTraffic]:
    """One point per location: how many servers it hosts and the sum of
    their campaign-mean rates. IXP and ISP deployments at the same site
    code are distinct locations."""
    locations, location = _label_groups(
        [(joined.records[i].site_code, joined.records[i].operator_kind)
         for i in joined.record.tolist()])
    _, _, counts, (mean_bps,) = _group(location, joined.mean_bps)
    return [LocationTraffic(site, kind, count, bps)
            for (site, kind), count, bps in zip(locations, counts.tolist(), mean_bps.tolist())]


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
    estimates: EstimateTable,
    airports: AirportDatabase | None = None,
    continents: Mapping[str, str] | None = None,
    bin_s: float = DEFAULT_BIN_S,
    validation: Mapping | None = None,
) -> dict[str, Path]:
    """Write the CSV report set plus a JSON summary; returns the paths.

    ``validation``, the verdict counts, becomes the summary's
    ``validation`` key when given. Output is deterministic for identical
    inputs: rows are sorted and floats rendered with ``repr``. An estimate
    no record joins raises ``UnjoinedEstimate`` before any file is written.
    """
    _record_of_target(estimates, records)  # raises UnjoinedEstimate now, not after peaks.csv
    kinds = {address: record.operator_kind for record in records for address in record.addresses}
    peaks = detect_peaks(estimates, kinds, bin_s)

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths: dict[str, Path] = {}
    paths["peaks"] = out / "peaks.csv"
    _write_csv(
        paths["peaks"],
        ["target", "day", "peak_time_utc", "peak_pps", "operator_kind"],
        [
            (p.target, p.day.isoformat(), _seconds_to_hhmm(p.peak_bin_start_s), repr(p.peak_pps), p.operator_kind)
            for p in peaks
        ],
    )

    joined = join_series(estimates, records, bin_s)  # after detect_peaks: never both at once
    mean_bps = joined.mean_bps.tolist()
    paths["cdf"] = out / "cdf.csv"
    _write_csv(paths["cdf"], ["mean_bps", "cumulative_fraction"],
               [(repr(v), repr(p)) for v, p in traffic_cdf(mean_bps)])

    paths["location_scatter"] = out / "location_scatter.csv"
    _write_csv(
        paths["location_scatter"],
        ["site", "operator_kind", "servers", "mean_bps"],
        [
            (p.site_code, p.operator_kind, p.server_count, repr(p.mean_bps))
            for p in deployment_vs_traffic(joined)
        ],
    )

    for grouping, filename in (
        ("country", "rollup_country.csv"),
        ("continent", "rollup_continent.csv"),
        ("operator_kind", "rollup_kind.csv"),
    ):
        rows = rollup(joined, grouping, airports, continents)
        paths[grouping] = out / filename
        _write_csv(
            paths[grouping],
            [grouping, "servers", "locations", "mean_pps", "mean_bps"],
            [
                (r.group, r.server_count, r.location_count, repr(r.mean_pps), repr(r.mean_bps))
                for r in rows
            ],
        )

    (total,) = _group(np.zeros(len(mean_bps), np.int64), joined.mean_bps)[3]
    summary = {
        "servers": len(records),
        "estimates": len(estimates),
        "targets_estimated": len(estimates.targets),
        "total_mean_bps": total.tolist()[0] if mean_bps else 0,
        "lower_bound_targets": sorted(
            estimates.targets[i] for i in np.unique(estimates.target[estimates.lower_bound]).tolist()
        ),
    }
    if validation is not None:
        summary["validation"] = validation
    paths["summary"] = out / "summary.json"
    paths["summary"].write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    return paths
