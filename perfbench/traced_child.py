"""Run one ``fleetscope`` CLI command with the tracer installed.

Usage: python3 traced_child.py TRACE.json -- <fleetscope arguments>

Imports the package, wraps the entry points listed in ``ENTRIES``, runs
``fleetscope.cli.main`` with the given arguments and writes the tracer's
counts, self times and spans to TRACE.json. Exits with the CLI's code.
"""

from __future__ import annotations

import json
import sys

from tracing import Entry, Tracer


def _on_crawl(tracer, args, records):
    tracer.counts["discovery.records"] += len(records)
    resolver = args[1] if len(args) > 1 else None
    if hasattr(resolver, "queries"):
        tracer.counts["discovery.queries"] += resolver.queries


def _on_geo(tracer, args, verdict):
    if getattr(verdict, "verdict", "match") != "match":
        tracer.counts[f"validation.mismatch.geo_{verdict.mismatch_class}"] += 1


def _on_asn(tracer, args, verdict):
    if getattr(verdict, "verdict", "consistent") != "consistent":
        tracer.counts[f"validation.mismatch.asn_{verdict.verdict}"] += 1


def _on_campaign(tracer, args, summary):
    for counter, attr in (("probe.visits", "visits_completed"),
                          ("probe.samples", "probes_sent"),
                          ("probe.losses", "losses")):
        if hasattr(summary, attr):
            tracer.counts[counter] += getattr(summary, attr)


def _on_probe_raise(tracer, args, exc):
    if type(exc).__name__ == "AllProbesLost":
        tracer.counts["probe.all_lost_visits"] += 1


def _on_estimate_raise(tracer, args, exc):
    reason = {"InsufficientSamples": "ipid.skipped_insufficient",
              "NotACounter": "ipid.skipped_not_counter"}.get(type(exc).__name__)
    if reason:
        tracer.counts[reason] += 1


def _on_series(tracer, args, estimates):
    if args and hasattr(args[0], "__len__"):
        tracer.counts["ipid.visits"] += len(args[0])
    if any(getattr(e, "lower_bound_only", False) for e in estimates):
        tracer.counts["ipid.lower_bound_targets"] += 1


# Entry points per layer (the layer is the module). A name that later
# disappears is reported absent; its metrics read 0 and are listed as such.
ENTRIES = [
    Entry("fleetscope.cli:main", "cli"),
    Entry("fleetscope.cli:_cmd_simulate", "cli"),
    Entry("fleetscope.cli:_cmd_report", "cli"),
    Entry("fleetscope.cli:derive_wordlists", "cli"),
    Entry("fleetscope.cli:synthesize_snapshot", "cli"),
    Entry("fleetscope.cli:_visits_from_samples", "cli"),
    Entry("fleetscope.cli:_JsonlSink.add_visit", "store", hot=True),
    Entry("fleetscope.names:parse_server_name", "names", hot=True),
    Entry("fleetscope.names:enumerate_candidates", "names", hot=True),
    Entry("fleetscope.discovery:run_crawl", "discovery", on_return=_on_crawl),
    Entry("fleetscope.discovery:ServerRecord.from_json", "discovery", hot=True),
    Entry("fleetscope.validation:geo_crosscheck", "validation", hot=True, on_return=_on_geo),
    Entry("fleetscope.validation:asn_crosscheck", "validation", hot=True, on_return=_on_asn),
    Entry("fleetscope.validation:AirportDatabase.bundled", "validation"),
    Entry("fleetscope.validation:load_continent_table", "validation"),
    Entry("fleetscope.simulation:SimulatedFleet.from_file", "simulation"),
    Entry("fleetscope.simulation:SimulatedFleet.export_truth_csv", "simulation"),
    Entry("fleetscope.simulation:SimulatedTransport.send_echo", "simulation", hot=True),
    Entry("fleetscope.simulation:SimulatedTransport.sleep_until_ns", "simulation", hot=True),
    Entry("fleetscope.simulation:SimulatedTransport.now_ns", "simulation", hot=True),
    Entry("fleetscope.simulation:SimulatedTransport.jump_to_ns", "simulation", hot=True),
    Entry("fleetscope.simulation:SimulatedTransport.begin_visit", "simulation", hot=True),
    Entry("fleetscope.simulation:SimulatedTransport.drain", "simulation", hot=True),
    Entry("fleetscope.simulation:SimulatedTransport.end_visit", "simulation", hot=True),
    Entry("fleetscope.probe:run_campaign", "probe", on_return=_on_campaign),
    Entry("fleetscope.probe:probe_target", "probe", hot=True, on_raise=_on_probe_raise),
    Entry("fleetscope.store:CampaignStore.append", "store", hot=True),
    Entry("fleetscope.store:CampaignStore.scan", "store"),
    Entry("fleetscope.ipid:series_estimates", "ipid", hot=True, on_return=_on_series),
    Entry("fleetscope.ipid:estimate_rate", "ipid", hot=True, on_raise=_on_estimate_raise),
    Entry("fleetscope.ipid:detect_id_behavior", "ipid", hot=True),
    Entry("fleetscope.ipid:RateEstimate.from_json", "ipid", hot=True),
    Entry("fleetscope.analytics:write_reports", "analytics"),
    Entry("fleetscope.analytics:_join_series", "analytics"),
    Entry("fleetscope.analytics:detect_peaks", "analytics"),
    Entry("fleetscope.analytics:rollup", "analytics"),
    Entry("fleetscope.analytics:deployment_vs_traffic", "analytics"),
    Entry("fleetscope.analytics:traffic_cdf", "analytics"),
]


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: traced_child.py TRACE.json -- <fleetscope arguments>", file=sys.stderr)
        return 1
    import fleetscope.cli

    tracer = Tracer()
    tracer.install(ENTRIES)
    started = tracer.clock()
    code = fleetscope.cli.main(argv[2:])
    traced_s = tracer.clock() - started
    with open(argv[0], "w") as fh:
        json.dump({
            "exit_code": code,
            "main_s": traced_s,
            "calls": tracer.calls,
            "self_s": tracer.self_s,
            "inclusive_s": tracer.inclusive_s,
            "counts": tracer.counts,
            "layers": tracer.layers,
            "layer_self_s": tracer.layer_self_s(),
            "absent": tracer.absent,
            "overhead_s": tracer.overhead_s,
            "spans": tracer.spans,
        }, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
