"""Tests of the benchmark's own parts: seeded inputs, expected shapes, tracer."""

from __future__ import annotations

import json
import sys

import pytest

import checks
import inputs
import setup_child
from tracing import Entry, Tracer


@pytest.mark.parametrize("workload", ["campaign-day", "fleet-sweep", "report-day"])
def test_same_seed_gives_byte_identical_inputs(tmp_path, workload):
    first = inputs.write_inputs(workload, 5, tmp_path / "a")
    second = inputs.write_inputs(workload, 5, tmp_path / "b")
    assert first.keys() == second.keys()
    for role in first:
        assert first[role].read_bytes() == second[role].read_bytes()


def test_other_seed_gives_other_fleets():
    assert inputs.sweep_fleet(5) != inputs.sweep_fleet(6)
    assert inputs.campaign_day_fleet(5) != inputs.campaign_day_fleet(6)


def test_sweep_fleet_has_the_table_shape_on_bundled_airports():
    from fleetscope.validation import AirportDatabase

    fleet = inputs.sweep_fleet(3)
    servers = fleet["servers"]
    records = [inputs.record_json(s, 0) for s in servers]
    ixp = [r for r in records if r["operator_kind"] == "ixp"]
    isp = [r for r in records if r["operator_kind"] == "isp"]
    assert (len(servers), len(ixp), len(isp)) == (4669, 3241, 1428)
    assert len({r["site"] for r in ixp}) == 39
    assert len({r["site"] for r in isp}) == 217
    assert len({r["isp"] for r in isp}) == 120
    assert len({s["address"] for s in servers}) == 4669
    airports = AirportDatabase.bundled()
    assert all(r["airport"] in airports for r in records)
    behaviours = [s["id_behavior"] for s in servers]
    assert behaviours.count("random") == inputs.RANDOM_IDS
    assert behaviours.count("constant_or_perflow") == inputs.CONSTANT_IDS
    assert sum(not s["reachable"] for s in servers) == inputs.UNREACHABLE
    assert sum(s["profile"]["base_pps"] > inputs.SINGLE_WRAP_PPS for s in servers) == inputs.ABOVE_BOUND


def test_generated_records_parse_as_the_program_writes_them():
    from fleetscope.discovery import ServerRecord

    server = inputs.sweep_fleet(1)["servers"][0]
    obj = inputs.record_json(server, 7)
    assert ServerRecord.from_json(obj).to_json() == obj


def test_campaign_shapes_of_the_workloads():
    day = checks.campaign_shape(8, 4, 0.03, 60.0, 86400.0)
    assert (day.visits, day.samples) == (384, 768_000)
    sweep = checks.campaign_shape(4669, 150, 0.03, 0.75, 3600.0)
    assert (sweep.visits, sweep.probes_per_visit) == (9338, 25)
    with pytest.raises(ValueError):
        checks.campaign_shape(8, 4, 0.03, 60.0, 3000.0)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_excludes_children_and_generator_time_goes_to_the_generator():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    hot = Entry("m:f", "layer", hot=True)

    def produce():
        for _ in range(3):
            clock.now += 2.0  # producing an item
            yield 1

    def leaf():
        clock.now += 1.0

    gen = tracer.wrap("produce", Entry("m:produce", "store"), produce)
    child = tracer.wrap("leaf", hot, leaf)

    def consume():
        for _ in gen():
            clock.now += 0.5  # consuming an item
            child()

    tracer.wrap("consume", Entry("m:consume", "cli"), consume)()
    assert tracer.self_s["produce"] == pytest.approx(6.0)
    assert tracer.self_s["leaf"] == pytest.approx(3.0)
    assert tracer.self_s["consume"] == pytest.approx(1.5)
    assert tracer.inclusive_s["consume"] == pytest.approx(10.5)
    assert tracer.counts["produce.items"] == 3
    assert tracer.calls["leaf"] == 3
    spans = {name: (start, end, parent) for name, start, end, parent in tracer.spans}
    assert spans["consume"] == (0.0, 10.5, None)
    assert spans["produce"][2] == "consume"
    assert "leaf" not in spans  # hot entries are aggregated, not kept one by one


def test_missing_entry_points_are_reported_absent_and_present_ones_wrapped():
    import fleetscope.cli
    import fleetscope.names

    original = fleetscope.names.parse_server_name
    tracer = Tracer()
    try:
        tracer.install([Entry("fleetscope.cli:no_such_function", "cli"),
                        Entry("fleetscope.nosuchmodule:f", "x"),
                        Entry("fleetscope.names:parse_server_name", "names", hot=True)])
        assert tracer.absent == ["fleetscope.cli:no_such_function", "fleetscope.nosuchmodule:f"]
        assert fleetscope.names.parse_server_name is not original
        assert fleetscope.cli.names.parse_server_name("ipv4_1-lagg0-c001.1.lhr001.ix.nflxvideo.net")
        assert tracer.calls["fleetscope.names:parse_server_name"] == 1
    finally:
        for module in list(sys.modules.values()):
            if getattr(module, "__name__", "").startswith("fleetscope"):
                for key, value in list(vars(module).items()):
                    if getattr(value, "__wrapped__", None) is original:
                        setattr(module, key, original)
    assert fleetscope.names.parse_server_name is original


def test_report_checks_catch_a_broken_rollup(tmp_path):
    estimates = [{"target": "10.0.0.1", "window_start_ns": 0, "window_end_ns": 60 * 10**9}]
    header = "{0},servers,locations,mean_pps,mean_bps\n"
    (tmp_path / "rollup_kind.csv").write_text(header.format("operator_kind") + "ixp,1,1,1.0,8.0\n")
    (tmp_path / "rollup_country.csv").write_text(header.format("country") + "GB,1,1,1.0,8.0\n")
    (tmp_path / "rollup_continent.csv").write_text(header.format("continent") + "EU,1,1,1.0,9.0\n")
    (tmp_path / "peaks.csv").write_text("target,day,peak_time_utc,peak_pps,operator_kind\n"
                                        "10.0.0.1,1970-01-01,00:00,1.0,ixp\n")
    (tmp_path / "summary.json").write_text(json.dumps({"estimates": 1}))
    errors, _ = checks.check_report(estimates, tmp_path)
    assert len(errors) == 1 and "rollup_continent" in errors[0]


def test_setup_skips_a_loader_that_is_gone():
    import types

    loaded = []
    module = types.SimpleNamespace(Fleet=types.SimpleNamespace(load=loaded.append))
    assert setup_child._call(module, "Fleet.load", "fleet.json")
    assert loaded == ["fleet.json"]
    assert not setup_child._call(module, "Fleet.load_all", "fleet.json")
    assert not setup_child._call(module, "Gone.load")


def test_benchmark_json_matches_what_the_runner_reports():
    from pathlib import Path

    import run

    bench = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == run.PER_LAYER
    assert set(run.SOURCES) <= {name for name, _ in run.PER_LAYER}
