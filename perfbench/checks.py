"""Output checks and accuracy figures for one benchmark repetition.

Checks read only the documented output files (records, samples and
estimates streams, ``truth.csv``, the report CSVs and ``summary.json``),
never the program's objects. Each check returns a list of failures (empty
when the output is correct) and the facts the metrics are made from.
"""

from __future__ import annotations

import csv
import datetime as dt
import json
import math
import statistics
from dataclasses import dataclass
from pathlib import Path

DAY_NS = 86_400 * 10**9
COURTESY_SPACING_S = 1800.0  # at most two visits per server per hour


@dataclass(frozen=True)
class CampaignShape:
    """What a campaign over a fleet must produce, worked out from its parameters.

    Visits follow the round-robin schedule with the courtesy cap: each
    worker cycles through its share of the targets once per
    ``max(share, 30 min / dwell)`` slots of one dwell each.
    """

    targets: int
    visits_per_target: int
    probes_per_visit: int

    @property
    def visits(self) -> int:
        return self.targets * self.visits_per_target

    @property
    def samples(self) -> int:
        return self.visits * self.probes_per_visit


def campaign_shape(targets: int, workers: int, interval_s: float, dwell_s: float,
                   duration_s: float) -> CampaignShape:
    interval_ns, dwell_ns = round(interval_s * 1e9), round(dwell_s * 1e9)
    share = math.ceil(targets / min(workers, targets))
    cycle_slots = max(share, math.ceil(COURTESY_SPACING_S / dwell_s - 1e-9))
    slots = math.ceil(round(duration_s * 1e9) / dwell_ns)
    if slots % cycle_slots:
        raise ValueError("campaign duration must be a whole number of revisit cycles")
    return CampaignShape(targets, slots // cycle_slots, dwell_ns // interval_ns)


def count_lines(path: Path) -> int:
    with open(path, "rb") as fh:
        return sum(block.count(b"\n") for block in iter(lambda: fh.read(1 << 20), b""))


def read_jsonl(path: Path) -> list[dict]:
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def directory_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def stream_bytes(store: Path) -> dict[str, int]:
    """Bytes per store stream, keyed by the file name's stem."""
    sizes: dict[str, int] = {}
    for path in store.iterdir():
        if path.is_file():
            stem = path.name.split(".", 1)[0]
            sizes[stem] = sizes.get(stem, 0) + path.stat().st_size
    return sizes


def check_campaign(fleet: dict, shape: CampaignShape, out: Path) -> tuple[list[str], dict]:
    """Row counts, visit accounting and the estimate-to-truth join."""
    errors: list[str] = []
    servers = fleet["servers"]
    store = out / "store"
    if len(servers) != shape.targets:
        errors.append(f"fleet has {len(servers)} servers, shape expects {shape.targets}")

    records_path = store / "records.jsonl"
    records = count_lines(records_path) if records_path.exists() else None
    if records is None:
        records = json.loads((out / "summary.json").read_text())["servers"]
    if records != len(servers):
        errors.append(f"records {records} != fleet size {len(servers)}")

    samples_path = store / "samples.jsonl"
    if samples_path.exists():
        rows = count_lines(samples_path)
        if rows != shape.samples:
            errors.append(f"sample rows {rows} != visits {shape.visits} x probes "
                          f"{shape.probes_per_visit}")

    truth: dict[tuple[str, int], float] = {}
    with open(out / "truth.csv", newline="") as fh:
        for row in csv.DictReader(fh):
            truth[(row["server"], int(row["window_start_ns"]))] = float(row["true_pps"])
    reachable = {s["address"] for s in servers if s["reachable"]}
    expected_truth = len(reachable) * shape.visits_per_target
    if len(truth) != expected_truth:
        errors.append(f"truth rows {len(truth)} != reachable visits {expected_truth}")

    counters = {s["address"] for s in servers
                if s["reachable"] and s["id_behavior"] == "global_counter"}
    estimates = read_jsonl(store / "estimates.jsonl")
    seen: set[tuple[str, int]] = set()
    errs: list[float] = []
    signed: list[float] = []
    for est in estimates:
        key = (est["target"], est["window_start_ns"])
        if key in seen:
            errors.append(f"duplicate estimate for {key}")
        seen.add(key)
        if key not in truth:
            errors.append(f"estimate {key} joins no truth row")
            continue
        if est["target"] not in counters:
            errors.append(f"estimate for non-counter target {est['target']}")
        if not est["flags"]["lower_bound_only"]:
            true_pps = truth[key]
            signed.append((est["pps"] - true_pps) / true_pps * 100.0)
            errs.append(abs(signed[-1]))
    # Every estimate names a distinct visit that took place, so estimates +
    # skipped = visits holds exactly when there are no more estimates than visits.
    skipped = shape.visits - len(seen)
    if skipped < 0:
        errors.append(f"{len(seen)} estimates for {shape.visits} visits")
    summary = json.loads((out / "summary.json").read_text())
    if summary["estimates"] != len(estimates):
        errors.append(f"summary counts {summary['estimates']} estimates, store has {len(estimates)}")

    facts = {
        "samples": shape.samples,
        "visits": shape.visits,
        "estimates": len(estimates),
        "skipped": skipped,
        "truth_rows": len(truth),
        "store_bytes": directory_bytes(store),
        "stream_bytes": stream_bytes(store),
        "rate_err_n": len(errs),
        "rate_err_p50_pct": statistics.median(errs) if errs else None,
        "rate_err_p90_pct": statistics.quantiles(errs, n=10)[8] if len(errs) > 1 else None,
        "rate_err_mean_signed_pct": statistics.fmean(signed) if signed else None,
    }
    return errors, facts


def _column_sums(path: Path) -> tuple[int, float]:
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    return sum(int(r["servers"]) for r in rows), math.fsum(float(r["mean_bps"]) for r in rows)


def check_report(estimates: list[dict], out: Path) -> tuple[list[str], dict]:
    """Rollup conservation across groupings and one peak per (target, UTC day)."""
    errors: list[str] = []
    sums = {name: _column_sums(out / f"rollup_{name}.csv")
            for name in ("country", "continent", "kind")}
    targets = {e["target"] for e in estimates}
    for name, (servers, total_bps) in sums.items():
        ref_bps = sums["kind"][1]
        if servers != len(targets):
            errors.append(f"rollup_{name} counts {servers} servers, {len(targets)} have estimates")
        if not math.isclose(total_bps, ref_bps, rel_tol=1e-9):
            errors.append(f"rollup_{name} sums to {total_bps!r} bps, rollup_kind to {ref_bps!r}")

    expected_days = set()
    for e in estimates:
        mid = (e["window_start_ns"] + e["window_end_ns"]) // 2
        day = dt.datetime.fromtimestamp(mid // DAY_NS * 86_400, tz=dt.timezone.utc).date()
        expected_days.add((e["target"], day.isoformat()))
    with open(out / "peaks.csv", newline="") as fh:
        peaks = [(row["target"], row["day"]) for row in csv.DictReader(fh)]
    if len(peaks) != len(set(peaks)) or set(peaks) != expected_days:
        errors.append(f"peaks.csv has {len(peaks)} rows, expected one per (target, UTC day): "
                      f"{len(expected_days)}")
    summary = json.loads((out / "summary.json").read_text())
    if summary["estimates"] != len(estimates):
        errors.append(f"summary counts {summary['estimates']} estimates, input has {len(estimates)}")
    return errors, {"estimates": len(estimates), "peak_rows": len(peaks),
                    "rollup_servers": sums["kind"][0]}
