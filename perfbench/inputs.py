"""Seeded input files for the benchmark workloads.

Everything here is written in the documented file formats (fleet config,
records, estimates) without importing the program, so the inputs stay the
same whatever the program's internals become. The same seed gives
byte-identical files; the shape of every fleet (server, site and label
counts, behaviour mix) is fixed, and only which server gets which role,
address, RTT and traffic profile depends on the seed.
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path

DATA = Path(__file__).resolve().parent / "data"
SUFFIX = "nflxvideo.net"

# The shape of the paper's discovery table (C06): IXP servers over IXP
# sites, ISP servers over ISP sites, ISP labels.
IXP_SIZES = [84] * 4 + [83] * 35  # 3,241 servers at 39 sites
ISP_SIZES = [7] * 126 + [6] * 91  # 1,428 servers at 217 sites
ISP_LABELS = 120
FLEET_SIZE = sum(IXP_SIZES) + sum(ISP_SIZES)  # 4,669

# Behaviour mix of the sweep fleet, as server counts.
RANDOM_IDS = round(0.03 * FLEET_SIZE)
CONSTANT_IDS = round(0.02 * FLEET_SIZE)
UNREACHABLE = round(0.05 * FLEET_SIZE)
ABOVE_BOUND = 5
SINGLE_WRAP_PPS = 65535 / 0.03  # the highest rate a 30 ms interval measures
ABOVE_BOUND_PPS = (2.8e6, 3.4e6)  # base rates of the above-bound servers

# report-day: 48 half-hourly estimates per counter server, 12:00 to 12:00
# UTC, so every series spans one UTC midnight.
REPORT_DAY0_S = 1_452_772_800  # 2016-01-14 12:00 UTC
REPORT_VISITS = 48
REPORT_PERIOD_S = 1800
REPORT_DWELL_S = 60
MTU = 1500


def bundled_airports() -> list[tuple[str, float]]:
    rows = []
    for line in (DATA / "airports.csv").read_text().splitlines():
        if line and not line.startswith("#"):
            code, offset = line.split(",")
            rows.append((code, float(offset)))
    return rows


def _dump(obj) -> str:
    return json.dumps(obj, separators=(",", ":"), sort_keys=True)


def campaign_day_fleet(seed: int) -> dict:
    """The example fleet (8 servers) with its noise streams seeded by ``seed``."""
    fleet = json.loads((DATA / "campaign_day_fleet.json").read_text())
    fleet["seed"] = seed
    return fleet


def sweep_fleet(seed: int) -> dict:
    """A 4,669-server fleet of the paper's table shape on bundled airports.

    Every bundled airport carries an ISP site ``001``; the remaining ISP
    sites take ``002``/``003`` at seeded airports, so the derived word lists,
    and with them the crawl's candidate count, are the same for every seed.
    """
    rng = random.Random(f"perfbench:sweep:{seed}")
    airports = bundled_airports()
    codes = [code for code, _ in airports]
    offsets = dict(airports)

    ixp_sizes = list(IXP_SIZES)
    rng.shuffle(ixp_sizes)
    ixp_sites = [f"{code}001" for code in rng.sample(codes, len(ixp_sizes))]

    extra = len(ISP_SIZES) - len(codes)
    second = rng.sample(codes, len(codes))
    isp_sites = [f"{code}001" for code in codes]
    isp_sites += [f"{code}002" for code in second[:min(extra, len(codes))]]
    isp_sites += [f"{code}003" for code in second[:max(0, extra - len(codes))]]
    rng.shuffle(isp_sites)
    isp_sizes = list(ISP_SIZES)
    rng.shuffle(isp_sizes)

    slots = []  # (site, operator, counter)
    for site, size in zip(ixp_sites, ixp_sizes):
        slots.extend((site, "ix", c) for c in range(1, size + 1))
    for i, (site, size) in enumerate(zip(isp_sites, isp_sizes)):
        operator = f"isp{i % ISP_LABELS:03d}.isp"
        slots.extend((site, operator, c) for c in range(1, size + 1))

    addresses = [f"10.{n // 62500}.{n // 250 % 250}.{n % 250 + 1}" for n in range(len(slots))]
    rng.shuffle(addresses)

    roles = ["counter"] * len(slots)
    picks = rng.sample(range(len(slots)), RANDOM_IDS + CONSTANT_IDS + UNREACHABLE + ABOVE_BOUND)
    for role, count in (("random", RANDOM_IDS), ("constant", CONSTANT_IDS),
                        ("unreachable", UNREACHABLE), ("above_bound", ABOVE_BOUND)):
        for index in picks[:count]:
            roles[index] = role
        picks = picks[count:]

    servers = []
    for (site, operator, counter), address, role in zip(slots, addresses, roles):
        if role == "above_bound":
            base_pps = round(rng.uniform(*ABOVE_BOUND_PPS), 1)
            amplitude = 0.15
        else:
            base_pps = round(10 ** rng.uniform(2.7, 5.2), 1)  # 500 to 160k pps
            amplitude = round(rng.uniform(0.3, 0.6), 3)
        servers.append({
            "name": f"ipv4_1-lagg0-c{counter:03d}.1.{site}.{operator}.{SUFFIX}",
            "address": address,
            "reachable": role != "unreachable",
            "rtt_ms": round(rng.uniform(2.0, 150.0), 1),
            "id_behavior": {"random": "random", "constant": "constant_or_perflow"}.get(
                role, "global_counter"),
            "constant_id": rng.randrange(1 << 16),
            "profile": {
                "base_pps": base_pps,
                "diurnal_amplitude": amplitude,
                "peak_local": f"{rng.randrange(20, 24):02d}:{rng.choice((0, 30)):02d}",
                "tz_offset_hours": offsets[site[:3]],
                "noise_rel": 0.05,
                "fill": None,
            },
        })
    return {"seed": seed, "domain_suffix": SUFFIX, "servers": servers}


def record_json(server: dict, seen_ns: int) -> dict:
    """A server as one line of the documented records format."""
    name = server["name"]
    labels = name[: -len(SUFFIX) - 1].split(".")
    operator = ".".join(labels[3:])
    return {
        "v": 1,
        "name": name,
        "suffix": SUFFIX,
        "addresses": [server["address"]],
        "first_seen_ns": seen_ns,
        "last_seen_ns": seen_ns,
        "operator_kind": "ixp" if operator == "ix" else "isp",
        "isp": None if operator == "ix" else operator[: -len(".isp")],
        "airport": labels[2][:3],
        "site": labels[2],
    }


def report_day_inputs(seed: int) -> tuple[list[dict], list[dict]]:
    """Records of the sweep fleet plus a day of estimates for its counters.

    Each reachable counter server gets ``REPORT_VISITS`` estimates at its own
    phase within the revisit period; rates follow the server's diurnal
    profile with 5% noise. Above-bound servers carry the lower-bound flag.
    """
    fleet = sweep_fleet(seed)
    rng = random.Random(f"perfbench:report:{seed}")
    seen_ns = REPORT_DAY0_S * 10**9
    records = [record_json(s, seen_ns) for s in fleet["servers"]]
    estimates = []
    for server in fleet["servers"]:
        if not server["reachable"] or server["id_behavior"] != "global_counter":
            continue
        profile = server["profile"]
        hours, minutes = profile["peak_local"].split(":")
        peak_s = int(hours) * 3600 + int(minutes) * 60
        lower_bound = profile["base_pps"] >= ABOVE_BOUND_PPS[0]
        phase_s = rng.randrange(REPORT_PERIOD_S // REPORT_DWELL_S) * REPORT_DWELL_S
        for k in range(REPORT_VISITS):
            start_s = REPORT_DAY0_S + phase_s + k * REPORT_PERIOD_S
            local_s = start_s + REPORT_DWELL_S / 2 + profile["tz_offset_hours"] * 3600
            cycle = math.cos(2 * math.pi * (local_s - peak_s) / 86400)
            pps = profile["base_pps"] * (1 + profile["diurnal_amplitude"] * cycle)
            pps = round(pps * (1 + 0.05 * rng.gauss(0.0, 1.0)), 3)
            if lower_bound:
                pps = round(pps % SINGLE_WRAP_PPS, 3)  # what aliasing leaves
            estimates.append({
                "target": server["address"],
                "window_start_ns": start_s * 10**9,
                "window_end_ns": (start_s + REPORT_DWELL_S) * 10**9,
                "pps": pps,
                "bps": pps * MTU * 8,
                "mtu_bytes": MTU,
                "flags": {"id_behavior": "global_counter", "segments_used": 1,
                          "ambiguity_risk": lower_bound, "lower_bound_only": lower_bound},
            })
    return records, estimates


def write_jsonl(path: Path, rows: list[dict]) -> None:
    path.write_text("".join(_dump(row) + "\n" for row in rows))


def write_inputs(workload: str, seed: int, directory: Path) -> dict[str, Path]:
    """Write the workload's input files into ``directory``; returns them by role."""
    directory.mkdir(parents=True, exist_ok=True)
    if workload == "report-day":
        records, estimates = report_day_inputs(seed)
        paths = {"records": directory / "records.jsonl",
                 "estimates": directory / "estimates.jsonl"}
        write_jsonl(paths["records"], records)
        write_jsonl(paths["estimates"], estimates)
        return paths
    fleet = campaign_day_fleet(seed) if workload == "campaign-day" else sweep_fleet(seed)
    path = directory / "fleet.json"
    path.write_text(_dump(fleet) + "\n")
    return {"fleet": path}
