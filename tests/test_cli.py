"""Command-line behaviour: exit codes and the simulate pipeline."""

import json

import pytest

from fleetscope import analytics, store
from fleetscope.cli import EXIT_OK, EXIT_STAGE, EXIT_USAGE, main
from fleetscope.simulation import SimulatedFleet

from conftest import make_server


@pytest.fixture
def small_fleet_file(tmp_path):
    servers = [
        make_server(2000.0, airport="lhr", operator="ix", counter=1),
        make_server(1000.0, airport="lhr", operator="bt.isp", counter=2),
        make_server(500.0, airport="jfk", operator="ix", counter=1),
    ]
    fleet = SimulatedFleet(servers, seed=5)
    path = tmp_path / "fleet.json"
    fleet.save(path)
    return path


def test_usage_error_exit_code(capsys):
    assert main(["no-such-command"]) == EXIT_USAGE
    assert main(["crawl"]) == EXIT_USAGE  # missing required flags


def test_stage_failure_exit_code(tmp_path):
    code = main(["simulate", "--fleet", str(tmp_path / "missing.json"),
                 "--out", str(tmp_path / "out")])
    assert code == EXIT_STAGE


def test_enumerate_outputs_candidates(tmp_path, capsys):
    wordlists = tmp_path / "wl"
    wordlists.mkdir()
    (wordlists / "airports.txt").write_text("lhr\n")
    (wordlists / "isps.txt").write_text("bt\n")
    code = main(["enumerate", "--wordlists", str(wordlists), "--max-counter", "2"])
    assert code == EXIT_OK
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 8  # 2 protocols x 2 counters x 1 site x 2 operators
    assert "ipv4_1-lagg0-c001.1.lhr001.ix.nflxvideo.net" in lines


def test_enumerate_count_only(tmp_path, capsys):
    wordlists = tmp_path / "wl"
    wordlists.mkdir()
    (wordlists / "airports.txt").write_text("lhr\nams\n")
    code = main(["enumerate", "--wordlists", str(wordlists), "--max-counter", "3",
                 "--count-only"])
    assert code == EXIT_OK
    assert capsys.readouterr().out.strip() == "12"


def test_crawl_against_zone(tmp_path, small_fleet_file, capsys):
    wordlists = tmp_path / "wl"
    wordlists.mkdir()
    (wordlists / "airports.txt").write_text("lhr\njfk\n")
    (wordlists / "isps.txt").write_text("bt\n")
    out = tmp_path / "records.jsonl"
    code = main([
        "crawl", "--wordlists", str(wordlists), "--resolver", f"zone:{small_fleet_file}",
        "--rate", "0", "--max-counter", "3", "--out", str(out),
    ])
    assert code == EXIT_OK
    rows = [json.loads(line) for line in out.read_text().splitlines()]
    assert len(rows) == 3
    assert "total=3" in capsys.readouterr().out


def test_simulate_end_to_end(tmp_path, small_fleet_file, capsys):
    out = tmp_path / "out"
    code = main([
        "--seed", "9",
        "simulate", "--fleet", str(small_fleet_file), "--out", str(out),
        "--interval", "30ms", "--dwell", "6s", "--workers", "3",
        "--duration", "120s",
    ])
    assert code == EXIT_OK
    for expected in (
        "store/records.jsonl", "store/samples.bin", "store/estimates.jsonl",
        "store/verdicts.jsonl", "truth.csv", "reachability.json",
        "peaks.csv", "cdf.csv", "rollup_country.csv", "summary.json",
    ):
        assert (out / expected).exists(), expected
    verdicts = [json.loads(line) for line in (out / "store" / "verdicts.jsonl").read_text().splitlines()]
    assert all(v["geo"]["verdict"] == "match" for v in verdicts)
    assert all(v["asn"]["verdict"] == "consistent" for v in verdicts)
    estimates = [json.loads(line) for line in (out / "store" / "estimates.jsonl").read_text().splitlines()]
    assert estimates
    reach = json.loads((out / "reachability.json").read_text())
    assert len(reach["reachable"]) == 3


def test_store_backed_pipeline_across_commands(tmp_path, small_fleet_file):
    store_dir = tmp_path / "campaign"
    wordlists = tmp_path / "wl"
    wordlists.mkdir()
    (wordlists / "airports.txt").write_text("lhr\njfk\n")
    (wordlists / "isps.txt").write_text("bt\n")

    code = main(["--store", str(store_dir), "crawl", "--wordlists", str(wordlists),
                 "--resolver", f"zone:{small_fleet_file}", "--rate", "0",
                 "--max-counter", "3"])
    assert code == EXIT_OK

    fleet = SimulatedFleet.from_file(small_fleet_file)
    snapshot = tmp_path / "snapshot.csv"
    rows = []
    for server in fleet.servers:
        country = "gb" if "lhr" in server.name else "us"
        asn = 64500 if ".ix." in server.name else 64510
        rows.append(f"{server.address}/32,{country},{country},{asn},x")
    snapshot.write_text("\n".join(rows) + "\n")
    isp_asns = tmp_path / "isp_asns.json"
    isp_asns.write_text(json.dumps({"bt": [64510]}))
    code = main(["--store", str(store_dir), "validate", "--snapshot", str(snapshot),
                 "--cdn-asns", "64500", "--isp-asns", str(isp_asns)])
    assert code == EXIT_OK

    targets = tmp_path / "targets.txt"
    targets.write_text("\n".join(s.address for s in fleet.servers) + "\n")
    code = main(["--store", str(store_dir), "probe", "--targets", str(targets),
                 "--transport", f"sim:{small_fleet_file}", "--interval", "30ms",
                 "--dwell", "6s", "--workers", "2", "--duration", "60s"])
    assert code == EXIT_OK

    code = main(["--store", str(store_dir), "estimate", "--interval", "30ms"])
    assert code == EXIT_OK

    out = tmp_path / "reports"
    code = main(["--store", str(store_dir), "report", "--out", str(out)])
    assert code == EXIT_OK
    assert (out / "rollup_kind.csv").exists()
    manifest = json.loads((store_dir / "manifest.json").read_text())
    for stage in ("crawl", "validate", "probe", "estimate"):
        assert manifest["stages"][stage]["done"]


def test_simulate_stages_are_idempotent(tmp_path, small_fleet_file):
    out = tmp_path / "out"
    args = ["--seed", "3", "simulate", "--fleet", str(small_fleet_file),
            "--out", str(out), "--dwell", "6s", "--workers", "3", "--duration", "30s"]
    assert main(args) == EXIT_OK
    samples_before = (out / "store" / "samples.bin").read_bytes()
    # a second run skips completed stages instead of appending twice
    assert main(args) == EXIT_OK
    assert (out / "store" / "samples.bin").read_bytes() == samples_before


def test_simulate_stores_every_probe_of_every_visit(tmp_path, small_fleet_file):
    out = tmp_path / "out"
    assert main(["--seed", "3", "simulate", "--fleet", str(small_fleet_file), "--out", str(out),
                 "--interval", "30ms", "--dwell", "6s", "--workers", "3",
                 "--duration", "1h", "--loss-rate", "0.01"]) == EXIT_OK
    frames = list(store.read_frames(out / "store" / "samples.bin"))
    # 3 targets, each visited every 30 minutes: 2 visits of 6 s / 30 ms probes
    assert len(frames) == 3 * 2
    assert sum(len(f.sent_ns) for f in frames) == 3 * 2 * 200
    for frame in frames:
        assert frame.sent_ns.tolist() == [frame.start_ns + i * 30_000_000 for i in range(200)]
        assert frame.end_ns == frame.start_ns + 200 * 30_000_000


def _store_with_estimate_to_redo(tmp_path, fleet_file):
    out = tmp_path / "out"
    assert _simulate(out, fleet_file) == EXIT_OK
    manifest_path = out / "store" / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    del manifest["stages"]["estimate"]
    manifest_path.write_text(json.dumps(manifest))
    return out / "store"


def test_estimate_refuses_samples_of_the_v1_format(tmp_path, small_fleet_file, capsys):
    store_dir = _store_with_estimate_to_redo(tmp_path, small_fleet_file)
    manifest_path = store_dir / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["streams"]["samples"] = 1
    manifest_path.write_text(json.dumps(manifest))
    assert main(["--store", str(store_dir), "estimate"]) == EXIT_STAGE
    assert "samples stream is v1 (JSON lines); re-run the probe stage" in capsys.readouterr().err


def test_estimate_refuses_a_store_that_keeps_samples_jsonl(tmp_path, small_fleet_file, capsys):
    store_dir = _store_with_estimate_to_redo(tmp_path, small_fleet_file)
    (store_dir / "samples.jsonl").write_text(
        '{"target":"198.18.0.1","seq":0,"sent_ns":0,"recv_ns":null,"ipid":null}\n')
    assert main(["--store", str(store_dir), "estimate"]) == EXIT_STAGE
    assert "samples stream is v1 (JSON lines); re-run the probe stage" in capsys.readouterr().err
    samples_file = tmp_path / "old_samples.jsonl"
    samples_file.write_text((store_dir / "samples.jsonl").read_text())
    assert main(["estimate", "--samples", str(samples_file), "--out", str(tmp_path / "e.jsonl")]) \
        == EXIT_STAGE
    assert "samples stream is v1" in capsys.readouterr().err

    # re-running the probe stage replaces the old stream, as the error advises
    manifest_path = store_dir / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    del manifest["stages"]["probe"]
    manifest_path.write_text(json.dumps(manifest))
    clean = tmp_path / "clean"
    assert _simulate(clean, small_fleet_file) == EXIT_OK
    assert _simulate(store_dir.parent, small_fleet_file) == EXIT_OK
    assert not (store_dir / "samples.jsonl").exists()
    assert _tree(store_dir.parent) == _tree(clean)


def test_estimate_refuses_a_truncated_samples_frame(tmp_path, small_fleet_file, capsys):
    store_dir = _store_with_estimate_to_redo(tmp_path, small_fleet_file)
    samples = store_dir / "samples.bin"
    samples.write_bytes(samples.read_bytes()[:-3])
    assert main(["--store", str(store_dir), "estimate"]) == EXIT_STAGE
    assert "truncated frame" in capsys.readouterr().err


# -- crash-safe reruns ---------------------------------------------------------

class _Crash(Exception):
    """Stands in for a process killed mid-stage."""


def _simulate(out, fleet_file) -> int:
    return main(["--seed", "3", "simulate", "--fleet", str(fleet_file), "--out", str(out),
                 "--dwell", "6s", "--workers", "3", "--duration", "60s"])


def _tree(root):
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("stream", ["records", "verdicts", "samples", "estimates"])
def test_stage_interrupted_mid_write_reruns_to_identical_output(
    tmp_path, small_fleet_file, monkeypatch, stream
):
    clean = tmp_path / "clean"
    assert _simulate(clean, small_fleet_file) == EXIT_OK

    append = store.CampaignStore.append
    written = []

    def append_then_crash(self, name, obj):
        if name == stream:
            if len(written) == 2:
                raise _Crash(name)
            written.append(obj)
        append(self, name, obj)

    crashed = tmp_path / "crashed"
    monkeypatch.setattr(store.CampaignStore, "append", append_then_crash)
    with pytest.raises(_Crash):
        _simulate(crashed, small_fleet_file)
    monkeypatch.undo()
    path = store.CampaignStore(crashed / "store").stream_path(stream)
    partial = path.with_name(path.name + ".partial")
    assert len(list(store.read_stream(stream, partial))) == 2
    assert not path.exists()
    with open(partial, "ab") as fh:
        fh.write(b"not json\n")  # the rerun must discard the partial file, not read it

    assert _simulate(crashed, small_fleet_file) == EXIT_OK
    assert _tree(crashed) == _tree(clean)  # no duplicate rows, no .partial left


def test_report_interrupted_mid_write_reruns_to_identical_output(
    tmp_path, small_fleet_file, monkeypatch
):
    clean = tmp_path / "clean"
    assert _simulate(clean, small_fleet_file) == EXIT_OK

    write_csv = analytics._write_csv
    calls = []

    def write_then_crash(path, header, rows):
        if len(calls) == 2:
            raise _Crash(path)
        calls.append(path)
        write_csv(path, header, rows)

    crashed = tmp_path / "crashed"
    monkeypatch.setattr(analytics, "_write_csv", write_then_crash)
    with pytest.raises(_Crash):
        _simulate(crashed, small_fleet_file)
    monkeypatch.undo()
    assert not (crashed / "summary.json").exists()
    assert _simulate(crashed, small_fleet_file) == EXIT_OK
    assert _tree(crashed) == _tree(clean)


@pytest.mark.parametrize("stage", ["crawl", "validate", "probe", "estimate"])
def test_rerun_after_lost_done_marker_replaces_rows(tmp_path, small_fleet_file, stage):
    # a crash between writing a stage's rows and marking it done
    out = tmp_path / "out"
    assert _simulate(out, small_fleet_file) == EXIT_OK
    before = _tree(out)
    manifest_path = out / "store" / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    del manifest["stages"][stage]
    manifest_path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    assert _simulate(out, small_fleet_file) == EXIT_OK
    assert _tree(out) == before


def test_interrupted_out_file_keeps_previous_contents(tmp_path, small_fleet_file, monkeypatch):
    wordlists = tmp_path / "wl"
    wordlists.mkdir()
    (wordlists / "airports.txt").write_text("lhr\njfk\n")
    (wordlists / "isps.txt").write_text("bt\n")
    out = tmp_path / "records.jsonl"
    args = ["crawl", "--wordlists", str(wordlists), "--resolver", f"zone:{small_fleet_file}",
            "--rate", "0", "--max-counter", "3", "--out", str(out)]
    assert main(args) == EXIT_OK
    complete = out.read_bytes()

    def crash(self, obj):
        raise _Crash(obj)

    monkeypatch.setattr(store.JsonlWriter, "append", crash)
    with pytest.raises(_Crash):
        main(args)
    monkeypatch.undo()
    assert out.read_bytes() == complete
    assert main(args) == EXIT_OK
    assert out.read_bytes() == complete
    assert not (tmp_path / "records.jsonl.partial").exists()


# -- --config and --seed reach every stage ------------------------------------

def _targets_file(tmp_path, fleet_file):
    targets = tmp_path / "targets.txt"
    targets.write_text("\n".join(s.address for s in SimulatedFleet.from_file(fleet_file).servers))
    return targets


def test_seed_flag_reaches_probe(tmp_path, small_fleet_file):
    targets = _targets_file(tmp_path, small_fleet_file)
    config = tmp_path / "seed.json"
    config.write_text(json.dumps({"seed": 3}))

    def probe_with(global_args, name):
        out = tmp_path / name
        assert main([*global_args, "probe", "--targets", str(targets),
                     "--transport", f"sim:{small_fleet_file}", "--dwell", "6s",
                     "--workers", "2", "--duration", "30s", "--out", str(out)]) == EXIT_OK
        return out.read_bytes()

    by_flag = probe_with(["--seed", "3"], "flag.bin")
    assert by_flag == probe_with(["--config", str(config)], "config.bin")
    assert by_flag != probe_with([], "default.bin")  # the seed orders the schedule


def test_config_interval_reaches_estimate(tmp_path, small_fleet_file):
    targets = _targets_file(tmp_path, small_fleet_file)
    config = tmp_path / "interval.json"
    config.write_text(json.dumps({"campaign": {"probe_interval": "60ms"}}))
    samples = tmp_path / "samples.bin"
    assert main(["--config", str(config), "probe", "--targets", str(targets),
                 "--transport", f"sim:{small_fleet_file}", "--dwell", "6s",
                 "--workers", "3", "--duration", "30s", "--out", str(samples)]) == EXIT_OK
    by_config = tmp_path / "by_config.jsonl"
    by_flag = tmp_path / "by_flag.jsonl"
    assert main(["--config", str(config), "estimate", "--samples", str(samples),
                 "--out", str(by_config)]) == EXIT_OK
    assert main(["estimate", "--samples", str(samples), "--interval", "60ms",
                 "--out", str(by_flag)]) == EXIT_OK
    assert by_config.read_text()
    assert by_config.read_bytes() == by_flag.read_bytes()


def test_config_with_a_removed_key_fails(tmp_path, small_fleet_file, capsys):
    config = tmp_path / "old.json"
    config.write_text(json.dumps({"estimate": {"subtract_self_traffic": False}}))
    code = main(["--config", str(config), "simulate", "--fleet", str(small_fleet_file),
                 "--out", str(tmp_path / "out")])
    assert code == EXIT_STAGE
    assert "estimate: unknown field" in capsys.readouterr().err
