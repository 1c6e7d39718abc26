"""Pipeline benchmark for fleetscope.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of ``campaign-day``, ``fleet-sweep``, ``report-day`` or ``all``.
Run it from the root of a source checkout: it runs ``src/fleetscope``
through its CLI, one child process at a time, on inputs generated from the
seed, and checks every repetition's outputs.

``--trace 0`` repeats the untraced CLI command until S seconds have been
measured and reports the end-to-end metrics (medians over repetitions).
``--trace 1`` runs the command once untraced and then traced, with the
program's entry points wrapped from this directory, and reports the
per-layer metrics. The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. The exit code is 0 only
when every repetition ran and passed its output checks.

Each workload is a batch job over fixed input on one thread (virtual-clock
transport, single-worker crawl), so throughput is work completed per
second at the stated input size; there is no request loop to configure.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import checks
import inputs

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".perfbench_work"
RUN_BUDGET_S = 170.0  # a run must end within 180 s
SETUP_REPS = 5
MIN_REPS = 2  # untraced: a median of at least two; traced: one untraced, one traced


@dataclass(frozen=True)
class Workload:
    """One workload: its CLI command and why the benchmark has it."""

    name: str
    why: str
    command: str  # "simulate" or "report"
    interval_s: float = 0.03
    dwell_s: float = 60.0
    workers: int = 4
    duration_s: float = 86400.0
    loss_rate: float = 0.0

    def cli_args(self, seed: int, files: dict[str, Path], out: Path) -> list[str]:
        if self.command == "report":
            return ["report", "--records", str(files["records"]),
                    "--estimates", str(files["estimates"]), "--out", str(out)]
        return ["--seed", str(seed), "simulate", "--fleet", str(files["fleet"]),
                "--out", str(out), "--interval", f"{self.interval_s * 1000:g}ms",
                "--dwell", f"{self.dwell_s:g}s", "--workers", str(self.workers),
                "--duration", f"{self.duration_s:g}s", "--loss-rate", f"{self.loss_rate:g}"]


WORKLOADS = {w.name: w for w in (
    Workload(
        "campaign-day",
        why="The example fleet (8 servers) for one day: 384 visits of 2,000 probes, "
            "768,000 samples, no loss. The per-sample path (simulated echo, probe, "
            "store append, store scan, visit rebuild, estimate) is ~95% of the run; "
            "crawl and report do almost nothing. A columnar store and a vectorised "
            "estimator show here.",
        command="simulate", interval_s=0.03, dwell_s=60.0, workers=4, duration_s=86400.0),
    Workload(
        "fleet-sweep",
        why="A 4,669-server fleet of the paper's table shape on bundled airports, with "
            "random, constant, unreachable and above-bound servers, realistic RTTs and "
            "1% loss: a ~3.1M-candidate crawl, 4,669 validations, 9,338 visits of 25 "
            "probes over 150 workers, 4,669 series and a paper-scale report. Per-visit "
            "and per-server cost dominates, per-sample cost does not.",
        command="simulate", interval_s=0.03, dwell_s=0.75, workers=150,
        duration_s=3600.0, loss_rate=0.01),
    Workload(
        "report-day",
        why="The read-only analysis path at paper scale: records of the sweep fleet "
            "plus 24 h of estimates (48 per counter server, 201,744 rows) across one "
            "UTC midnight, parsed and reported. No probing, no store, no crawl; report "
            "cost is under 5% of the other two workloads.",
        command="report"),
)}

END_TO_END = [("setup_s", "s"), ("wall_s", "s"), ("items_per_s", "1/s"), ("peak_rss_mb", "MB")]
# Printed with the end-to-end metrics but not in the JSON result: they do
# not exist on every workload, or they are fixed by the inputs.
REPORTED = [("cpu_s", "s"), ("store_bytes_per_sample", "B"), ("rate_err_p50_pct", "%"),
            ("rate_err_p90_pct", "%"), ("rate_err_mean_signed_pct", "%"),
            ("estimate_yield", "ratio"), ("error_rate", "ratio")]

PER_LAYER = [
    ("names.candidates", "count"), ("names.enumerate_s", "s"),
    ("names.parse_calls", "count"), ("names.parse_s", "s"), ("names.self_s", "s"),
    ("discovery.crawl_s", "s"), ("discovery.queries", "count"),
    ("discovery.hit_ratio", "ratio"), ("discovery.self_s", "s"),
    ("validation.checks", "count"), ("validation.check_us", "us"),
    ("validation.mismatches", "count"), ("validation.self_s", "s"),
    ("simulation.echo_calls", "count"), ("simulation.echo_us", "us"),
    ("simulation.truth_rows", "count"), ("simulation.self_s", "s"),
    ("probe.visits", "count"), ("probe.samples", "count"), ("probe.losses", "count"),
    ("probe.all_lost_visits", "count"), ("probe.self_s", "s"), ("probe.us_per_visit", "us"),
    ("store.append_calls", "count"), ("store.append_us", "us"), ("store.scan_rows", "count"),
    ("store.scan_us", "us"), ("store.bytes", "B"), ("store.samples_bytes", "B"),
    ("store.records_bytes", "B"), ("store.estimates_bytes", "B"),
    ("store.verdicts_bytes", "B"), ("store.bytes_per_sample", "B"), ("store.self_s", "s"),
    ("cli.rebuild_s", "s"), ("cli.load_s", "s"), ("cli.self_s", "s"),
    ("ipid.targets", "count"), ("ipid.visits", "count"), ("ipid.estimate_us", "us"),
    ("ipid.classify_us", "us"), ("ipid.skipped_insufficient", "count"),
    ("ipid.skipped_not_counter", "count"), ("ipid.lower_bound_targets", "count"),
    ("ipid.self_s", "s"),
    ("analytics.report_s", "s"), ("analytics.join_calls", "count"),
    ("analytics.join_s", "s"), ("analytics.peaks_s", "s"), ("analytics.rollup_s", "s"),
    ("analytics.self_s", "s"),
    ("setup.import_s", "s"), ("setup.fleet_load_s", "s"), ("setup.airports_s", "s"),
    ("trace.wall_s", "s"), ("trace.untraced_wall_s", "s"), ("trace.overhead_s", "s"),
    ("trace.outside_main_s", "s"), ("trace.bookkeeping_s", "s"),
    ("trace.unaccounted_share", "ratio"),
]
# The entry points each per-layer metric is made from; when one is gone the
# metric reads 0 and the run lists it as absent.
SOURCES = {
    "names.candidates": ("names:enumerate_candidates",),
    "names.enumerate_s": ("names:enumerate_candidates",),
    "names.parse_calls": ("names:parse_server_name",),
    "names.parse_s": ("names:parse_server_name",),
    "discovery.crawl_s": ("discovery:run_crawl",),
    "discovery.queries": ("discovery:run_crawl",),
    "discovery.hit_ratio": ("discovery:run_crawl", "names:enumerate_candidates"),
    "validation.checks": ("validation:geo_crosscheck", "validation:asn_crosscheck"),
    "validation.check_us": ("validation:geo_crosscheck", "validation:asn_crosscheck"),
    "validation.mismatches": ("validation:geo_crosscheck", "validation:asn_crosscheck"),
    "simulation.echo_calls": ("simulation:SimulatedTransport.send_echo",),
    "simulation.echo_us": ("simulation:SimulatedTransport.send_echo",),
    "probe.visits": ("probe:run_campaign",),
    "probe.samples": ("probe:run_campaign",),
    "probe.losses": ("probe:run_campaign",),
    "probe.all_lost_visits": ("probe:probe_target",),
    "probe.us_per_visit": ("probe:run_campaign", "probe:probe_target"),
    "store.append_calls": ("store:CampaignStore.append",),
    "store.append_us": ("store:CampaignStore.append",),
    "store.scan_rows": ("store:CampaignStore.scan",),
    "store.scan_us": ("store:CampaignStore.scan",),
    "cli.rebuild_s": ("cli:_visits_from_samples",),
    "cli.load_s": ("cli:_cmd_report", "analytics:write_reports"),
    "ipid.targets": ("ipid:series_estimates",),
    "ipid.visits": ("ipid:series_estimates",),
    "ipid.lower_bound_targets": ("ipid:series_estimates",),
    "ipid.estimate_us": ("ipid:estimate_rate",),
    "ipid.skipped_insufficient": ("ipid:estimate_rate",),
    "ipid.skipped_not_counter": ("ipid:estimate_rate",),
    "ipid.classify_us": ("ipid:detect_id_behavior",),
    "analytics.report_s": ("analytics:write_reports",),
    "analytics.join_calls": ("analytics:_join_series",),
    "analytics.join_s": ("analytics:_join_series",),
    "analytics.peaks_s": ("analytics:detect_peaks",),
    "analytics.rollup_s": ("analytics:rollup",),
    "setup.fleet_load_s": ("simulation:SimulatedFleet.from_file",),
    "setup.airports_s": ("validation:AirportDatabase.bundled", "validation:load_continent_table"),
}
LAYERS = ("names", "discovery", "validation", "simulation", "probe", "store", "cli",
          "ipid", "analytics")


class BenchError(Exception):
    """The benchmark cannot run here (no program, no time left)."""


@dataclass
class Child:
    code: int
    wall_s: float
    cpu_s: float
    rss_mb: float
    stdout: str
    stderr: str


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(argv: list[str], deadline: float) -> Child:
    """Run one child to completion; kill it if it outlives the run's budget."""
    limit = deadline - time.monotonic()
    if limit <= 0:
        raise BenchError("run budget exhausted")
    out_path, err_path = WORK / "child.out", WORK / "child.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        started = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=out, stderr=err,
                                stdin=subprocess.DEVNULL)
        timer = threading.Timer(limit, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - started
        proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                 usage.ru_maxrss / 1024.0, out_path.read_text(), err_path.read_text())


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


@dataclass
class Rep:
    """One repetition of a workload's CLI command and what its checks found."""

    child: Child
    errors: list[str]
    facts: dict = field(default_factory=dict)
    trace: dict | None = None


def run_rep(workload: Workload, seed: int, files: dict[str, Path], expect: dict,
            traced: bool, deadline: float) -> Rep:
    out = WORK / "out"
    shutil.rmtree(out, ignore_errors=True)
    args = workload.cli_args(seed, files, out)
    trace_path = WORK / "trace.json"
    if traced:
        argv = [sys.executable, str(BENCH / "traced_child.py"), str(trace_path), "--", *args]
    else:
        argv = [sys.executable, "-m", "fleetscope.cli", *args]
    child = spawn(argv, deadline)
    if child.code != 0:
        tail = child.stderr.strip().splitlines()[-3:]
        return Rep(child, [f"exit code {child.code}: {' | '.join(tail)}"])
    try:
        if workload.command == "report":
            errors, facts = checks.check_report(expect["estimates"], out)
        else:
            errors, facts = checks.check_campaign(expect["fleet"], expect["shape"], out)
        trace = json.loads(trace_path.read_text()) if traced else None
    except (OSError, KeyError, ValueError, TypeError) as exc:
        return Rep(child, [f"output unreadable: {exc!r}"])
    return Rep(child, errors, facts, trace)


def measure_setup(workload: Workload, files: dict[str, Path], deadline: float) -> list[dict]:
    """Time the set-up child SETUP_REPS times after one warm-up start."""
    argv = [sys.executable, str(BENCH / "setup_child.py")]
    if "fleet" in files:
        argv.append(str(files["fleet"]))
    samples = []
    for i in range(SETUP_REPS + 1):
        child = spawn(argv, deadline)
        if child.code != 0:
            raise BenchError(f"set-up failed: {child.stderr.strip()[-400:]}")
        if i:  # the first start compiles bytecode and fills the page cache
            pieces = json.loads(child.stdout.strip().splitlines()[-1])
            samples.append({"setup_s": child.wall_s, **pieces})
    return samples


def expectations(workload: Workload, files: dict[str, Path]) -> dict:
    if workload.command == "report":
        return {"estimates": checks.read_jsonl(files["estimates"])}
    fleet = json.loads(files["fleet"].read_text())
    shape = checks.campaign_shape(len(fleet["servers"]), workload.workers,
                                  workload.interval_s, workload.dwell_s, workload.duration_s)
    return {"fleet": fleet, "shape": shape}


def rep_metrics(workload: Workload, rep: Rep) -> dict[str, float]:
    facts = rep.facts
    metrics = {"wall_s": rep.child.wall_s, "cpu_s": rep.child.cpu_s,
               "peak_rss_mb": rep.child.rss_mb}
    if workload.command == "report":
        metrics["items_per_s"] = facts["estimates"] / rep.child.wall_s
        return metrics
    metrics["items_per_s"] = facts["samples"] / rep.child.wall_s
    metrics["store_bytes_per_sample"] = facts["store_bytes"] / facts["samples"]
    metrics["estimate_yield"] = facts["estimates"] / facts["visits"]
    for name in ("rate_err_p50_pct", "rate_err_p90_pct", "rate_err_mean_signed_pct"):
        if facts[name] is not None:
            metrics[name] = facts[name]
    return metrics


def div(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(rep: Rep, untraced: Rep, setup: dict[str, float],
                  setup_absent: set[str]) -> tuple[dict, list]:
    """Per-layer figures of one traced repetition; also the metrics found absent."""
    trace = rep.trace
    facts = rep.facts
    calls, self_s, incl, counts = (trace["calls"], trace["self_s"], trace["inclusive_s"],
                                   trace["counts"])

    def e(short: str) -> str:
        return "fleetscope." + short

    def per_call_us(*names: str) -> float:
        return 1e6 * div(sum(self_s.get(e(x), 0.0) for x in names),
                         sum(calls.get(e(x), 0) for x in names))

    candidates = counts.get(e("names:enumerate_candidates.items"), 0)
    spans = {name: (start, end) for name, start, end, _ in reversed(trace["spans"])}
    load_s = 0.0
    if e("cli:_cmd_report") in spans and e("analytics:write_reports") in spans:
        load_s = spans[e("analytics:write_reports")][0] - spans[e("cli:_cmd_report")][0]
    streams = facts.get("stream_bytes", {})
    layer_self = trace["layer_self_s"]
    m = {
        "names.candidates": candidates,
        "names.enumerate_s": self_s.get(e("names:enumerate_candidates"), 0.0),
        "names.parse_calls": calls.get(e("names:parse_server_name"), 0),
        "names.parse_s": self_s.get(e("names:parse_server_name"), 0.0),
        "discovery.crawl_s": self_s.get(e("discovery:run_crawl"), 0.0),
        "discovery.queries": counts.get("discovery.queries", 0),
        "discovery.hit_ratio": div(counts.get("discovery.records", 0), candidates),
        "validation.checks": calls.get(e("validation:geo_crosscheck"), 0)
        + calls.get(e("validation:asn_crosscheck"), 0),
        "validation.check_us": per_call_us("validation:geo_crosscheck", "validation:asn_crosscheck"),
        "validation.mismatches": sum(v for k, v in counts.items()
                                     if k.startswith("validation.mismatch.")),
        "simulation.echo_calls": calls.get(e("simulation:SimulatedTransport.send_echo"), 0),
        "simulation.echo_us": per_call_us("simulation:SimulatedTransport.send_echo"),
        "simulation.truth_rows": facts.get("truth_rows", 0),
        "probe.visits": counts.get("probe.visits", 0),
        "probe.samples": counts.get("probe.samples", 0),
        "probe.losses": counts.get("probe.losses", 0),
        "probe.all_lost_visits": counts.get("probe.all_lost_visits", 0),
        "probe.us_per_visit": 1e6 * div(layer_self.get("probe", 0.0), counts.get("probe.visits", 0)),
        "store.append_calls": calls.get(e("store:CampaignStore.append"), 0),
        "store.append_us": per_call_us("store:CampaignStore.append"),
        "store.scan_rows": counts.get(e("store:CampaignStore.scan.items"), 0),
        "store.scan_us": 1e6 * div(self_s.get(e("store:CampaignStore.scan"), 0.0),
                                   counts.get(e("store:CampaignStore.scan.items"), 0)),
        "store.bytes": facts.get("store_bytes", 0),
        "store.bytes_per_sample": div(facts.get("store_bytes", 0), facts.get("samples", 0)),
        "cli.rebuild_s": self_s.get(e("cli:_visits_from_samples"), 0.0),
        "cli.load_s": load_s,
        "ipid.targets": calls.get(e("ipid:series_estimates"), 0),
        "ipid.visits": counts.get("ipid.visits", 0),
        "ipid.estimate_us": per_call_us("ipid:estimate_rate"),
        "ipid.classify_us": per_call_us("ipid:detect_id_behavior"),
        "ipid.skipped_insufficient": counts.get("ipid.skipped_insufficient", 0),
        "ipid.skipped_not_counter": counts.get("ipid.skipped_not_counter", 0),
        "ipid.lower_bound_targets": counts.get("ipid.lower_bound_targets", 0),
        "analytics.report_s": incl.get(e("analytics:write_reports"), 0.0),
        "analytics.join_calls": calls.get(e("analytics:_join_series"), 0),
        "analytics.join_s": incl.get(e("analytics:_join_series"), 0.0),
        "analytics.peaks_s": incl.get(e("analytics:detect_peaks"), 0.0),
        "analytics.rollup_s": self_s.get(e("analytics:rollup"), 0.0),
    }
    for stream in ("samples", "records", "estimates", "verdicts"):
        m[f"store.{stream}_bytes"] = streams.get(stream, 0)
    for layer in LAYERS:
        m[f"{layer}.self_s"] = layer_self.get(layer, 0.0)
    m.update(setup)
    accounted = sum(layer_self.values()) + trace["overhead_s"]
    m.update({
        "trace.wall_s": rep.child.wall_s,
        "trace.untraced_wall_s": untraced.child.wall_s,
        "trace.overhead_s": rep.child.wall_s - untraced.child.wall_s,
        "trace.outside_main_s": rep.child.wall_s - trace["main_s"],
        "trace.bookkeeping_s": trace["overhead_s"],
        "trace.unaccounted_share": (rep.child.wall_s - accounted) / rep.child.wall_s,
    })
    gone = {target[len("fleetscope."):] for target in trace["absent"]} | setup_absent
    names_absent = sorted(metric for metric, sources in SOURCES.items() if gone & set(sources))
    return m, names_absent


def summarize(values: dict[str, list[float]], names: list[tuple[str, str]]) -> list[str]:
    lines = []
    for name, unit in names:
        vals = values.get(name)
        if not vals:
            lines.append(f"  {name:<28} {'n/a':>14} {unit:<6} (not measured on this workload)")
            continue
        q1, med, q3 = quartiles(vals)
        lines.append(f"  {name:<28} {med:>14.6g} {unit:<6} q1={q1:.6g} q3={q3:.6g} n={len(vals)}")
    return lines


def provenance(workload: str, seed: int, traced: bool, reps: list[Rep]) -> dict:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "workload": workload, "seed": seed, "traced": traced,
        "commit": commit, "src_sha256": digest.hexdigest(),
        "python": platform.python_version(), "numpy": numpy_version,
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "rep_wall_s": [r.child.wall_s for r in reps],
        "rep_cpu_s": [r.child.cpu_s for r in reps],
    }


def run_workload(workload: Workload, seed: int, seconds: int, traced: bool,
                 deadline: float) -> tuple[bool, int, int, dict[str, tuple[float, str]]]:
    """Run one workload; prints its report; returns (correct, attempted, failed, metrics)."""
    shutil.rmtree(WORK / "inputs", ignore_errors=True)
    files = inputs.write_inputs(workload.name, seed, WORK / "inputs")
    expect = expectations(workload, files)
    setup = measure_setup(workload, files, deadline)

    measure_start = time.monotonic()
    untraced = run_rep(workload, seed, files, expect, False, deadline)
    reps = [untraced]
    while not reps[-1].errors:
        if len(reps) >= MIN_REPS and time.monotonic() - measure_start >= seconds:
            break
        if time.monotonic() + 1.5 * reps[-1].child.wall_s > deadline:
            break
        reps.append(run_rep(workload, seed, files, expect, traced, deadline))
    failed = sum(1 for r in reps if r.errors)
    good = [r for r in reps if not r.errors]

    print(f"workload {workload.name}: seed {seed}, {'traced' if traced else 'untraced'}, "
          f"{len(reps)} repetition(s)")
    print(f"  why: {workload.why}")
    for i, rep in enumerate(reps):
        for error in rep.errors[:10]:
            print(f"  FAILED repetition {i + 1}: {error}")

    values: dict[str, list[float]] = {"setup_s": [s["setup_s"] for s in setup]}
    for rep in good:
        if rep.trace is None:
            for name, value in rep_metrics(workload, rep).items():
                values.setdefault(name, []).append(value)
    values["error_rate"] = [failed / len(reps)]
    print("  end-to-end (untraced):")
    print("\n".join(summarize(values, END_TO_END + REPORTED)))

    metrics: dict[str, tuple[float, str]] = {}
    if traced:
        traced_reps = [r for r in good if r.trace is not None]
        setup_pieces = {k: statistics.median(s[k] for s in setup)
                        for k in ("setup.import_s", "setup.fleet_load_s", "setup.airports_s")}
        setup_absent = {name for s in setup for name in s["absent"]}
        if traced_reps and untraced in good:
            layer_values: dict[str, list[float]] = {}
            absent: set[str] = set()
            for rep in traced_reps:
                figures, missing = layer_metrics(rep, untraced, setup_pieces, setup_absent)
                absent.update(missing)
                for name, value in figures.items():
                    layer_values.setdefault(name, []).append(value)
            print("  per layer (traced):")
            print("\n".join(summarize(layer_values, PER_LAYER)))
            mismatch = {k: v for k, v in traced_reps[0].trace["counts"].items()
                        if k.startswith("validation.mismatch.")}
            print(f"  validation mismatches by class: {json.dumps(mismatch, sort_keys=True)}")
            print(f"  absent (entry point gone, reported as 0): {sorted(absent) or 'none'}")
            not_found = sorted(set(traced_reps[0].trace["absent"])
                               | {"fleetscope." + name for name in setup_absent})
            print(f"  entry points not found: {not_found or 'none'}")
            metrics = {name: (statistics.median(layer_values[name]), unit)
                       for name, unit in PER_LAYER}
    else:
        metrics = {name: (statistics.median(values[name]), unit)
                   for name, unit in END_TO_END if values.get(name)}
    print(json.dumps({"provenance": provenance(workload.name, seed, traced, reps)}))
    wanted = PER_LAYER if traced else END_TO_END
    correct = failed == 0 and all(name in metrics for name, _ in wanted)
    return correct, len(reps), failed, metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "fleetscope" / "cli.py").is_file():
        print(f"error: no program at {ROOT / 'src' / 'fleetscope'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_BUDGET_S
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    results = {}
    try:
        for name in names:
            results[name] = run_workload(WORKLOADS[name], args.seed, args.seconds,
                                         bool(args.trace), deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(WORK, ignore_errors=True)

    correct = all(r[0] for r in results.values())
    prefix = len(names) > 1
    metrics = {(f"{name}." if prefix else "") + metric: {"value": value, "unit": unit}
               for name, r in results.items() for metric, (value, unit) in r[3].items()}
    print(json.dumps({"correct": correct,
                      "attempted": sum(r[1] for r in results.values()),
                      "failed": sum(r[2] for r in results.values()),
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
