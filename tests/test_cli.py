"""Command-line behaviour: exit codes and the simulate pipeline."""

import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from fleetscope import analytics, cli, jsonrows, store
from fleetscope.cli import EXIT_OK, EXIT_STAGE, EXIT_USAGE, main
from fleetscope.ipid import IdBehavior
from fleetscope.simulation import SimulatedFleet, SimulatedTransport

from conftest import InterruptingResolver, make_hostname, make_server, record_for, write_fleet


@pytest.fixture
def small_fleet_file(tmp_path):
    servers = [
        make_server(2000.0, airport="lhr", operator="ix", counter=1),
        make_server(1000.0, airport="lhr", operator="bt.isp", counter=2),
        make_server(500.0, airport="jfk", operator="ix", counter=1),
    ]
    return write_fleet(tmp_path / "fleet.json", servers, seed=5)


def test_usage_error_exit_code(capsys):
    assert main(["no-such-command"]) == EXIT_USAGE
    assert main(["crawl"]) == EXIT_USAGE  # missing required flags


def test_stage_failure_exit_code(tmp_path):
    code = main(["simulate", "--fleet", str(tmp_path / "missing.json"),
                 "--out", str(tmp_path / "out")])
    assert code == EXIT_STAGE


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


def test_crawl_with_default_flags_finds_a_prefix_numbered_past_c005(tmp_path):
    servers = [make_server(1.0, counter=counter) for counter in range(1, 13)]
    fleet_file = write_fleet(tmp_path / "fleet.json", servers)
    wordlists = tmp_path / "wl"
    wordlists.mkdir()
    (wordlists / "airports.txt").write_text("lhr\n")
    out = tmp_path / "records.jsonl"
    assert main(["crawl", "--wordlists", str(wordlists), "--resolver", f"zone:{fleet_file}",
                 "--out", str(out)]) == EXIT_OK
    found = [json.loads(line)["name"] for line in out.read_text().splitlines()]
    assert sorted(found) == sorted(server.name for server in servers)


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


REPORT_FILES = ("peaks.csv", "cdf.csv", "location_scatter.csv", "rollup_country.csv",
                "rollup_continent.csv", "rollup_kind.csv", "summary.json")
# the SHA-256 of each of REPORT_FILES, by loss rate
REPORT_SHA256 = {
    "0": ["31e846318071d3da10d6f8c8956bf3a0625f988215590cb64aea11d5cecd7f85",
          "a11b8d02170692e6321875d59ced62fcad720ba22ba552a5845df0108f349f87",
          "f8ea5849d3e779baf9537f9748155e62f3fd40cb329b34e92cc87f52335966d6",
          "853ea2bfeeef9ede3de3c898be749199facf15a3540886b6bc23e5327899a5a0",
          "24a12928dc0cca1be95021e22b629dcf4c8996463706e7b1720d72113e8e2c29",
          "cacbe251d9c5026cef77d4f9e165b2198fe5f050fbe7d2fb766e57a408dce5eb",
          "cbfc3d78e603b552d050b195c38ff3e4f39f3603bf37ba4fe6ad3b40d2b1f1f2"],
    "0.01": ["97455e787fb97ae631b180e3a0fb991a2293629701a9eedf0e2fcb919679ddcb",
             "54d7e9b941d8f8f6308602a3e023aec1f72d409d02283867efbc38c264c882bc",
             "49de5f19dde52497fb5c13fad8ad9dfb8d50d90d974c8e7408e3062da53f320b",
             "baaf151e1726e88e6f7b62836a2c4bdb45f26612f5e99e498533c71ce7f8ead0",
             "ffe6f11b586f55aa4eedbcb05995d1cf06d4bf6270bd268ad1a237d72f6da29b",
             "e1d957beb08b0f2cf0e121d535461c5045e6279f7a38b2bbd451cc20d6ec874d",
             "faf492e62f23dc79c1852009a517d7046e0c6c4766eac8be0bffdc75b34a3cda"],
}


# the SHA-256 of the simulator's truth.csv, by loss rate: the counter moves
# with time alone, so a loss that leaves an echo in each visited bin does
# not change it
TRUTH_SHA256 = {"0": "d81a328f1736ae294c0c2e2b01cec53dd0b487c7cbc786c0176d61e2e260bd6a",
                "0.01": "d81a328f1736ae294c0c2e2b01cec53dd0b487c7cbc786c0176d61e2e260bd6a"}


@pytest.mark.parametrize("loss_rate, samples_sha256, estimates_sha256", [
    pytest.param("0", "88806677fe9728f4505d8e01ac1452a035404184e055fad975e0819ebbadcc3b",
                 "5c214832b53c08c566c69b95dd647de585889b0891191f80d81bdde553da6687", id="0"),
    pytest.param("0.01", "96702606396c9c534ebc0fc8189c151d45b95c7301518d1d714ae31cdf9c87b3",
                 "8310e7a98f155261307f8627b8bb568b58b91a16de0b29d52f337ef640de285a", id="0.01"),
])
def test_simulate_outputs_are_pinned(tmp_path, loss_rate, samples_sha256, estimates_sha256):
    """A change that alters a stored sample or estimate, the simulator's
    ground truth, or a report file, of the example fleet shows here;
    refactors must keep these digests. The report sums its floats in a
    fixed order, so its digests (recorded on Python 3.11) hold on every
    Python version."""
    fleet = Path(__file__).resolve().parent.parent / "fleet.example.json"
    out = tmp_path / "out"
    assert main(["--seed", "7", "simulate", "--fleet", str(fleet), "--out", str(out),
                 "--dwell", "6s", "--workers", "4", "--duration", "2h",
                 "--loss-rate", loss_rate]) == EXIT_OK
    digests = [hashlib.sha256((out / "store" / name).read_bytes()).hexdigest()
               for name in ("samples.bin", "estimates.jsonl")]
    assert digests == [samples_sha256, estimates_sha256]
    assert hashlib.sha256((out / "truth.csv").read_bytes()).hexdigest() == TRUTH_SHA256[loss_rate]
    assert [hashlib.sha256((out / name).read_bytes()).hexdigest()
            for name in REPORT_FILES] == REPORT_SHA256[loss_rate]


def test_simulate_is_byte_identical_across_hash_seeds(tmp_path):
    # one process per hash seed: a stream seeded from hash() of a string
    # would agree with itself within a process, and differ here
    servers = [
        make_server(2000.0, amplitude=0.3, noise=0.05, counter=1),
        make_server(800.0, noise=0.1, airport="jfk", counter=1),
        make_server(300.0, noise=0.1, counter=2, behavior=IdBehavior.RANDOM),
    ]
    fleet_file = write_fleet(tmp_path / "fleet.json", servers)
    package_root = Path(cli.__file__).resolve().parents[1]
    outs = [tmp_path / "hash1", tmp_path / "hash2"]
    for hash_seed, out in zip(("1", "2"), outs):
        env = {**os.environ, "PYTHONHASHSEED": hash_seed,
               "PYTHONPATH": os.pathsep.join(
                   filter(None, [str(package_root), os.environ.get("PYTHONPATH")]))}
        subprocess.run([sys.executable, "-m", "fleetscope.cli", "--seed", "3", "simulate",
                        "--fleet", str(fleet_file), "--out", str(out), "--dwell", "6s",
                        "--workers", "2", "--duration", "600s", "--loss-rate", "0.01"],
                       env=env, check=True, capture_output=True, timeout=120)
    files = [sorted(path.relative_to(out) for path in out.rglob("*") if path.is_file())
             for out in outs]
    assert files[0] == files[1]
    assert Path("store", "samples.bin") in files[0]
    for name in files[0]:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name


def test_simulate_flags_every_row_of_an_above_bound_server(tmp_path):
    # far above the 30 ms single-wrap ceiling for a day: its series is a
    # lower bound only, row by row and in the summary; the other is not
    fast = make_server(3_000_000.0, counter=1, amplitude=0.4, noise=0.03)
    ordinary = make_server(20_000.0, counter=2, amplitude=0.3, noise=0.02)
    fleet = write_fleet(tmp_path / "fleet.json", [fast, ordinary])
    out = tmp_path / "out"
    assert main(["simulate", "--fleet", str(fleet), "--out", str(out), "--dwell", "6s",
                 "--workers", "2", "--duration", "1d"]) == EXIT_OK
    stored = out / "store" / "estimates.jsonl"
    rows = [json.loads(line) for line in stored.read_text().splitlines()]
    flags = {address: {row["flags"]["lower_bound_only"] for row in rows
                       if row["target"] == address}
             for address in (fast.address, ordinary.address)}
    assert flags == {fast.address: {True}, ordinary.address: {False}}
    summary = json.loads((out / "summary.json").read_text())
    assert summary["lower_bound_targets"] == [fast.address]
    again = tmp_path / "estimates.jsonl"
    assert main(["estimate", "--samples", str(out / "store" / "samples.bin"),
                 "--out", str(again)]) == EXIT_OK
    assert again.read_bytes() == stored.read_bytes()


def test_store_backed_pipeline_across_commands(tmp_path, small_fleet_file):
    store_dir = tmp_path / "campaign"
    copies = tmp_path / "copies"  # every stage's --out, next to its store stream
    copies.mkdir()
    wordlists = tmp_path / "wl"
    wordlists.mkdir()
    (wordlists / "airports.txt").write_text("lhr\njfk\n")
    (wordlists / "isps.txt").write_text("bt\n")

    code = main(["--store", str(store_dir), "crawl", "--wordlists", str(wordlists),
                 "--resolver", f"zone:{small_fleet_file}", "--rate", "0",
                 "--max-counter", "3", "--out", str(copies / "records.jsonl")])
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
                 "--cdn-asns", "64500", "--isp-asns", str(isp_asns),
                 "--out", str(copies / "verdicts.jsonl")])
    assert code == EXIT_OK

    targets = tmp_path / "targets.txt"
    targets.write_text("\n".join(s.address for s in fleet.servers) + "\n")
    code = main(["--store", str(store_dir), "probe", "--targets", str(targets),
                 "--transport", f"sim:{small_fleet_file}", "--interval", "30ms",
                 "--dwell", "6s", "--workers", "2", "--duration", "60s",
                 "--out", str(copies / "samples.bin")])
    assert code == EXIT_OK

    code = main(["--store", str(store_dir), "estimate",
                 "--out", str(copies / "estimates.jsonl")])
    assert code == EXIT_OK
    for name in ("records.jsonl", "verdicts.jsonl", "samples.bin", "estimates.jsonl"):
        assert (store_dir / name).stat().st_size > 0, name
        assert (copies / name).read_bytes() == (store_dir / name).read_bytes(), name
    assert sorted(p.name for p in copies.iterdir()) == [
        "estimates.jsonl", "records.jsonl", "samples.bin", "verdicts.jsonl"]

    out = tmp_path / "reports"
    code = main(["--store", str(store_dir), "report", "--out", str(out)])
    assert code == EXIT_OK
    assert (out / "rollup_kind.csv").exists()
    manifest = json.loads((store_dir / "manifest.json").read_text())
    for stage in ("crawl", "validate", "probe", "estimate"):
        assert manifest["stages"][stage]["done"]


def test_a_stage_whose_earlier_stages_are_not_done_is_refused_before_it_runs(
    tmp_path, small_fleet_file, capsys
):
    store_dir = tmp_path / "campaign"
    store.CampaignStore(store_dir)
    servers = SimulatedFleet.from_file(small_fleet_file).servers
    targets = _targets_file(tmp_path, small_fleet_file)
    records = _write_lines(tmp_path / "records.jsonl",
                           [json.dumps(record_for(s).to_json()) for s in servers])
    snapshot = _write_lines(tmp_path / "snapshot.csv", ["198.18.0.0/16,gb,gb,64500,cdn"])
    outs = tmp_path / "outs"
    outs.mkdir()
    commands = {
        "probe": ["probe", "--targets", str(targets), "--transport", f"sim:{small_fleet_file}",
                  "--dwell", "6s", "--workers", "2", "--duration", "60s",
                  "--out", str(outs / "samples.bin")],
        "validate": ["validate", "--records", str(records), "--snapshot", str(snapshot),
                     "--cdn-asns", "64500", "--out", str(outs / "verdicts.jsonl")],
    }
    for stage, args in commands.items():
        assert main(["--store", str(store_dir), *args]) == EXIT_STAGE
        assert f"stage {stage!r} before 'crawl' completed" in capsys.readouterr().err
    # no stream, no .partial file, no --out file and no manifest stream entry
    assert [p.name for p in store_dir.iterdir()] == ["manifest.json"]
    assert json.loads((store_dir / "manifest.json").read_text())["streams"] == {}
    assert list(outs.iterdir()) == []

    # only crawl and simulate create a store
    missing = tmp_path / "missing"
    assert main(["--store", str(missing), *commands["probe"]]) == EXIT_STAGE
    assert f"no store at {missing}" in capsys.readouterr().err
    assert not missing.exists()


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

    writer = store.FrameWriter if stream == "samples" else store.JsonlWriter
    filename = "samples.bin" if stream == "samples" else f"{stream}.jsonl"
    append = writer.append
    written = []

    def append_then_crash(self, obj):
        if self.path.name == filename:
            if len(written) == 2:
                raise _Crash(stream)
            written.append(obj)
        append(self, obj)

    crashed = tmp_path / "crashed"
    monkeypatch.setattr(writer, "append", append_then_crash)
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


def test_simulate_writes_truth_before_the_probe_stage_is_done(
        tmp_path, small_fleet_file, monkeypatch):
    # a rerun skips a done stage, so files written after it is marked done
    # would be missing for good after a crash in between
    out = tmp_path / "out"
    written = {}
    mark_stage_done = store.CampaignStore.mark_stage_done

    def mark_and_look(self, stage):
        if stage == "probe":
            written.update({name: (out / name).exists()
                            for name in ("truth.csv", "reachability.json")})
        mark_stage_done(self, stage)

    monkeypatch.setattr(store.CampaignStore, "mark_stage_done", mark_and_look)
    assert _simulate(out, small_fleet_file) == EXIT_OK
    assert written == {"truth.csv": True, "reachability.json": True}


def test_simulate_parses_each_fleet_name_four_times(tmp_path, small_fleet_file, monkeypatch):
    # once each to load the fleet, to derive the word lists and the snapshot
    # together, to record a crawl hit, and to read the record back
    from fleetscope import discovery, names, simulation

    fleet_names = [server.name for server in SimulatedFleet.from_file(small_fleet_file).servers]
    parsed = []
    parse = names.parse_server_name

    def counting_parse(name, *args, **kwargs):
        parsed.append(name)
        return parse(name, *args, **kwargs)

    for module in (names, simulation, discovery):
        monkeypatch.setattr(module, "parse_server_name", counting_parse)
    assert _simulate(tmp_path / "out", small_fleet_file) == EXIT_OK
    assert sorted(parsed) == sorted(fleet_names * 4)


def test_interrupted_campaign_commits_nothing(tmp_path, small_fleet_file, monkeypatch, capsys):
    send_run = SimulatedTransport.send_run
    sent = []

    def send_then_interrupt(self, *args):
        # a run that takes the campaign past 500 sends is interrupted in it
        run = send_run(self, *args)
        if len(sent) + run.size > 500:
            raise KeyboardInterrupt
        sent.extend(run.ravel().tolist())
        return run

    monkeypatch.setattr(SimulatedTransport, "send_run", send_then_interrupt)
    out = tmp_path / "out"
    assert _simulate(out, small_fleet_file) == EXIT_STAGE
    assert "nothing was committed" in capsys.readouterr().err
    campaign_store = store.CampaignStore(out / "store", create=False)
    assert campaign_store.stage_done("validate")
    assert not campaign_store.stage_done("probe")
    assert not campaign_store.stream_path("samples").exists()


def _crawl_args(tmp_path, fleet_file, store_dir, airports=("lhr", "jfk")):
    wordlists = tmp_path / "wl"
    wordlists.mkdir(exist_ok=True)
    (wordlists / "airports.txt").write_text("".join(a + "\n" for a in airports))
    (wordlists / "isps.txt").write_text("bt\n")
    return ["--store", str(store_dir), "crawl", "--wordlists", str(wordlists),
            "--resolver", f"zone:{fleet_file}", "--rate", "0", "--max-counter", "3"]


def test_crawl_summary_places_aliased_airport_codes(tmp_path, capsys):
    # mdv is a code seen in the wild for Montevideo (MVD) in the bundled aliases
    fleet_file = tmp_path / "fleet.json"
    write_fleet(fleet_file, [make_server(1.0, airport="mdv", operator="ix")])
    assert main(_crawl_args(tmp_path, fleet_file, tmp_path / "campaign", ("mdv",))) == EXIT_OK
    assert "total=1; locations=1; countries=1;" in capsys.readouterr().out


def test_interrupted_crawl_commits_nothing_and_reruns_from_the_start(
    tmp_path, small_fleet_file, monkeypatch, capsys
):
    clean = tmp_path / "clean"
    assert main(_crawl_args(tmp_path, small_fleet_file, clean)) == EXIT_OK

    make_resolver = cli._make_resolver
    monkeypatch.setattr(cli, "_make_resolver",
                        lambda spec: InterruptingResolver(make_resolver(spec), after=5))
    crashed = tmp_path / "crashed"
    assert main(_crawl_args(tmp_path, small_fleet_file, crashed)) == EXIT_STAGE
    assert ("error: interrupted; nothing was committed, rerun the crawl stage"
            in capsys.readouterr().err)
    campaign_store = store.CampaignStore(crashed, create=False)
    assert not campaign_store.stage_done("crawl")
    assert not campaign_store.stream_path("records").exists()

    monkeypatch.undo()
    assert main(_crawl_args(tmp_path, small_fleet_file, crashed)) == EXIT_OK
    assert (crashed / "records.jsonl").read_bytes() == (clean / "records.jsonl").read_bytes()


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


def test_config_interval_reaches_estimate(tmp_path, small_fleet_file, capsys):
    # the probe interval reaches estimate through the frames alone: estimate
    # gets neither a flag nor the campaign's config, and the default
    # interval (30 ms) is neither of these
    for interval in ("10ms", "50ms"):
        config = tmp_path / f"{interval}.json"
        config.write_text(json.dumps({"campaign": {"probe_interval": interval}}))
        out = tmp_path / interval
        assert main(["--config", str(config), "simulate", "--fleet", str(small_fleet_file),
                     "--out", str(out), "--dwell", "6s", "--workers", "3",
                     "--duration", "30m", "--loss-rate", "0.02"]) == EXIT_OK
        estimates = tmp_path / f"{interval}.jsonl"
        assert main(["estimate", "--samples", str(out / "store" / "samples.bin"),
                     "--out", str(estimates)]) == EXIT_OK
        assert (out / "store" / "estimates.jsonl").read_text()
        assert estimates.read_bytes() == (out / "store" / "estimates.jsonl").read_bytes()
    assert main(["estimate", "--samples", str(out / "store" / "samples.bin"),
                 "--interval", "50ms", "--out", str(estimates)]) == EXIT_USAGE
    assert "unrecognized arguments: --interval" in capsys.readouterr().err


@pytest.mark.parametrize("campaign", [{"probe_timeout": "0ms"}, {"probe_timeout": -0.5}])
def test_a_reply_timeout_that_is_not_positive_fails_before_any_stage(
        tmp_path, small_fleet_file, capsys, campaign):
    config = tmp_path / "timeout.json"
    config.write_text(json.dumps({"campaign": campaign}))
    out = tmp_path / "out"
    assert main(["--config", str(config), "simulate", "--fleet", str(small_fleet_file),
                 "--out", str(out)]) == EXIT_STAGE
    assert "error: campaign: the reply timeout must be > 0" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("field, value", [
    ("campaign.workers", 2.7),
    ("campaign.workers", True),
    ("seed", "12"),
    ("campaign.mtu_bytes", 1500.9),
    ("campaign.max_visits_per_hour", True),
    ("campaign.max_visits_per_hour", "2"),
    ("campaign.probe_interval", True),
])
def test_a_config_number_of_the_wrong_json_type_is_named(
        tmp_path, small_fleet_file, capsys, field, value):
    section, _, key = field.rpartition(".")
    config = tmp_path / "types.json"
    config.write_text(json.dumps({section: {key: value}} if section else {key: value}))
    out = tmp_path / "out"
    assert main(["--config", str(config), "simulate", "--fleet", str(small_fleet_file),
                 "--out", str(out)]) == EXIT_STAGE
    assert f"error: {field}: " in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("cap", [-1, 0, math.nan])
def test_a_courtesy_cap_that_allows_no_visit_fails_before_any_stage(
        tmp_path, small_fleet_file, capsys, cap):
    config = tmp_path / "cap.json"
    config.write_text(json.dumps({"campaign": {"max_visits_per_hour": cap}}))
    out = tmp_path / "out"
    assert main(["--config", str(config), "simulate", "--fleet", str(small_fleet_file),
                 "--out", str(out)]) == EXIT_STAGE
    assert "error: campaign: the courtesy cap must be a finite number > 0" in (
        capsys.readouterr().err)
    assert not out.exists()  # no store, so no stage is marked done


@pytest.mark.parametrize("value", ["Infinity", "NaN"])
@pytest.mark.parametrize("key", ["probe_interval", "dwell", "revisit_period", "total_duration",
                                 "probe_timeout"])
def test_a_duration_that_is_not_finite_is_named(tmp_path, small_fleet_file, capsys, key, value):
    config = tmp_path / "duration.json"
    config.write_text(f'{{"campaign": {{"{key}": {value}}}}}')
    out = tmp_path / "out"
    # the file's value is refused even where a flag would replace it
    assert main(["--config", str(config), "simulate", "--fleet", str(small_fleet_file),
                 "--out", str(out), "--dwell", "6s"]) == EXIT_STAGE
    assert f"error: campaign.{key}: {float(value)!r} is not a finite duration" in (
        capsys.readouterr().err)
    assert not out.exists()


@pytest.mark.parametrize("key", ["probe_interval", "dwell", "revisit_period", "total_duration",
                                 "probe_timeout"])
def test_a_duration_too_long_for_int64_nanoseconds_is_named(tmp_path, small_fleet_file, capsys,
                                                            key):
    config = tmp_path / "duration.json"
    config.write_text(f'{{"campaign": {{"{key}": 1e300}}}}')
    out = tmp_path / "out"
    assert main(["--config", str(config), "simulate", "--fleet", str(small_fleet_file),
                 "--out", str(out)]) == EXIT_STAGE
    assert f"error: campaign.{key}: 1e+300 does not fit in int64 nanoseconds" in (
        capsys.readouterr().err)
    # refused before any stage: none is marked done and no .partial file is left
    assert not out.exists()


def test_config_with_a_removed_key_fails(tmp_path, small_fleet_file, capsys):
    config = tmp_path / "old.json"
    config.write_text(json.dumps({"estimate": {"subtract_self_traffic": False}}))
    code = main(["--config", str(config), "simulate", "--fleet", str(small_fleet_file),
                 "--out", str(tmp_path / "out")])
    assert code == EXIT_STAGE
    assert "estimate: unknown field" in capsys.readouterr().err


def test_revisit_period_that_does_not_divide_a_day_fails_before_any_stage(tmp_path, capsys):
    config = tmp_path / "revisit.json"
    config.write_text(json.dumps({"campaign": {"revisit_period": "50m"}}))
    fleet = Path(__file__).resolve().parent.parent / "fleet.example.json"
    out = tmp_path / "out"
    code = main(["--config", str(config), "simulate", "--fleet", str(fleet), "--out", str(out),
                 "--dwell", "6s", "--workers", "4", "--duration", "2h"])
    assert code == EXIT_STAGE
    assert "campaign.revisit_period: '50m' does not divide 24h" in capsys.readouterr().err
    assert not (out / "store").exists()


def test_probe_refuses_a_target_line_that_is_no_ipv4_address(tmp_path, small_fleet_file, capsys):
    address = SimulatedFleet.from_file(small_fleet_file).servers[0].address
    targets = tmp_path / "targets.txt"
    out = tmp_path / "samples.bin"
    args = ["probe", "--targets", str(targets), "--transport", f"sim:{small_fleet_file}",
            "--dwell", "6s", "--workers", "1", "--duration", "30s", "--out", str(out)]
    for lines, number, text in ((f"{address}\n\nlocalhost\n", 3, "localhost"),
                                (f"2001:db8::1\n{address}\n198.018.0.2\n", 3, "198.018.0.2")):
        targets.write_text(lines)
        assert main(args) == EXIT_STAGE
        assert f"{targets}: line {number}: '{text}' is not an IPv4 address" in capsys.readouterr().err
        assert not out.exists()
    targets.write_text(f"{address}\n2001:db8::1\n")  # ID sampling is IPv4-only
    assert main(args) == EXIT_OK
    assert "reachable=1 non_reachable=0" in capsys.readouterr().out


# -- validation verdicts and the report's validation block ----------------------

def _write_lines(path, rows):
    path.write_text("".join(row + "\n" for row in rows))
    return path


def _validate_records(tmp_path, servers, snapshot_rows, isp_asns, *flags):
    """Run ``validate`` on files; return its exit code and verdict rows by name."""
    records = _write_lines(tmp_path / "records.jsonl",
                           [json.dumps(record_for(s).to_json()) for s in servers])
    snapshot = _write_lines(tmp_path / "snapshot.csv", snapshot_rows)
    isp_asn_file = tmp_path / "isp_asns.json"
    isp_asn_file.write_text(json.dumps(isp_asns))
    out = tmp_path / "verdicts.jsonl"
    code = main(["validate", "--records", str(records), "--snapshot", str(snapshot),
                 "--cdn-asns", "64500", "--isp-asns", str(isp_asn_file), "--out", str(out),
                 *flags])
    rows = [json.loads(line) for line in out.read_text().splitlines()] if out.exists() else []
    return code, {row["name"]: row for row in rows}


def test_validate_names_an_isp_in_two_countries_a_multinational_operator(tmp_path):
    # big claims London (GB) and Paris (FR); its London server geolocates
    # to DE on big's own ASN
    london = make_server(1.0, airport="lhr", operator="big.isp", address="198.51.100.1")
    paris = make_server(1.0, airport="cdg", operator="big.isp", address="198.51.100.2")
    code, verdicts = _validate_records(
        tmp_path, [london, paris],
        ["198.51.100.1/32,de,de,64520,big", "198.51.100.2/32,fr,fr,64520,big"],
        {"big": [64520]})
    assert code == EXIT_OK
    assert verdicts[london.name]["geo"]["mismatch_class"] == "multinational_operator"
    assert verdicts[london.name]["asn"]["verdict"] == "consistent"
    assert verdicts[paris.name]["geo"]["verdict"] == "match"


def test_validate_marks_what_its_tables_do_not_cover_unverified(tmp_path):
    unknown_airport = make_server(1.0, airport="xxz", operator="ix", address="203.0.113.1")
    unknown_address = make_server(1.0, airport="lhr", operator="ix", address="192.0.2.1")
    code, verdicts = _validate_records(
        tmp_path, [unknown_airport, unknown_address], ["203.0.113.0/24,gb,gb,64500,cdn"], {})
    assert code == EXIT_OK
    assert verdicts[unknown_airport.name]["geo"] == {"verdict": "unverified",
                                                     "reason": "unknown_airport"}
    assert verdicts[unknown_airport.name]["asn"]["verdict"] == "consistent"
    for check in ("geo", "asn"):
        assert verdicts[unknown_address.name][check] == {"verdict": "unverified",
                                                         "reason": "unknown_address"}


@pytest.mark.parametrize("airports_flag", [False, True])
def test_validate_aliases_add_to_the_airport_table_in_use(tmp_path, airports_flag):
    typo = make_server(1.0, airport="xxz", operator="ix", address="203.0.113.1")
    bundled_alias = make_server(1.0, airport="mdv", operator="ix", address="203.0.113.2")
    aliases = _write_lines(tmp_path / "aliases.csv", ["xxz,lhr"])
    flags = ["--aliases", str(aliases)]
    if airports_flag:
        airports = Path(cli.__file__).parent / "data" / "airports.csv"
        flags += ["--airports", str(airports)]
    code, verdicts = _validate_records(
        tmp_path, [typo, bundled_alias],
        ["203.0.113.1/32,gb,gb,64500,cdn", "203.0.113.2/32,uy,uy,64500,cdn"], {}, *flags)
    assert code == EXIT_OK
    assert verdicts[typo.name]["geo"]["verdict"] == "match"
    # the bundled aliases come with the bundled table only
    assert verdicts[bundled_alias.name]["geo"]["verdict"] == (
        "unverified" if airports_flag else "match")


@pytest.mark.parametrize("flag, rows, line, reason", [
    ("--aliases", ["xxz,lhr", "# typo'd codes", "lhr"], 3, "expected 2 columns, got 1"),
    ("--airports", ["lhr,51.47,-0.45,gb,0", "", "jfk,forty,-73.78,us,-5"], 3,
     "could not convert string to float: 'forty'"),
    ("--snapshot", ["203.0.113.0/24,gb,gb,64500,cdn", "198.51.100.0/24,us,us"], 2,
     "expected 4 columns, got 3"),
    ("--snapshot", ["203.0.113.0/24,gb,gb,AS64500"], 1,
     "invalid literal for int() with base 10: 'AS64500'"),
    ("--snapshot", ["# prefix,country,registered_country,asn", "203.0.113.1/24,gb,gb,64500"], 2,
     "203.0.113.1/24 has host bits set"),
], ids=["short_alias", "bad_latitude", "short_prefix", "bad_asn", "host_bits"])
def test_validate_names_the_bad_row_of_a_table(tmp_path, capsys, flag, rows, line, reason):
    server = make_server(1.0, airport="lhr", operator="ix", address="203.0.113.1")
    snapshot, flags = ["203.0.113.0/24,gb,gb,64500,cdn"], []
    if flag == "--snapshot":
        snapshot, table = rows, tmp_path / "snapshot.csv"
    else:
        table = _write_lines(tmp_path / "table.csv", rows)
        flags = [flag, str(table)]
    code, verdicts = _validate_records(tmp_path, [server], snapshot, {}, *flags)
    assert code == EXIT_STAGE
    assert capsys.readouterr().err == f"error: {table}: line {line}: {reason}\n"
    assert verdicts == {}


@pytest.mark.parametrize("isp_asns, reason", [
    ({"bt": 5}, "'bt': not a list of integer ASNs"),
    ({"bt": [64510], "kpn": [64511, "64512"]}, "'kpn': not a list of integer ASNs"),
    ([64510], "not a JSON object of ISP label -> [ASN, ...]"),
], ids=["number", "string_asn", "list"])
def test_validate_refuses_a_bad_isp_asn_file(tmp_path, capsys, isp_asns, reason):
    server = make_server(1.0, airport="lhr", operator="bt.isp", address="203.0.113.1")
    code, verdicts = _validate_records(tmp_path, [server], ["203.0.113.0/24,gb,gb,64510,bt"],
                                       isp_asns)
    assert code == EXIT_STAGE
    assert capsys.readouterr().err == f"error: {tmp_path / 'isp_asns.json'}: {reason}\n"
    assert verdicts == {}


@pytest.mark.parametrize("command", ["simulate", "probe", "crawl"])
def test_a_fleet_server_without_an_address_is_named(tmp_path, capsys, command):
    fleet = tmp_path / "fleet.json"
    fleet.write_text(json.dumps({"servers": [{"name": make_hostname()}]}))
    targets = _write_lines(tmp_path / "targets.txt", ["198.18.0.1"])
    args = {
        "simulate": ["simulate", "--fleet", str(fleet), "--out", str(tmp_path / "out")],
        "probe": ["probe", "--targets", str(targets), "--transport", f"sim:{fleet}",
                  "--out", str(tmp_path / "samples.bin")],
        "crawl": _crawl_args(tmp_path, fleet, tmp_path / "campaign"),
    }[command]
    assert main(args) == EXIT_STAGE
    assert capsys.readouterr().err == f"error: {fleet}: servers[0] has no 'address'\n"
    for output in ("out", "samples.bin", "campaign"):
        assert not (tmp_path / output).exists()


@pytest.mark.parametrize("key, value, shown", [
    ("seed", 7.0, "7.0"), ("seed", True, "True"), ("seed", "7", "'7'"),
    ("domain_suffix", 5, "5"),
], ids=["seed_float", "seed_bool", "seed_string", "domain_suffix"])
def test_a_fleet_seed_or_suffix_of_the_wrong_json_type_is_named(tmp_path, capsys, key, value,
                                                                  shown):
    # a float or boolean seed would seed other streams than the integer it
    # equals, and a suffix that is no string would fail deep in the crawl
    fleet = write_fleet(tmp_path / "fleet.json", [make_server(1000.0)])
    config = json.loads(fleet.read_text())
    config[key] = value
    fleet.write_text(json.dumps(config))
    assert main(["simulate", "--fleet", str(fleet), "--out", str(tmp_path / "out")]) == EXIT_STAGE
    kind = "integer" if key == "seed" else "string"
    assert capsys.readouterr().err == f"error: {fleet}: {key!r} is not a JSON {kind}: {shown}\n"
    assert not (tmp_path / "out").exists()


def test_report_counts_the_stored_verdicts(tmp_path):
    servers = [
        make_server(1.0, airport="lhr", operator="ix", counter=1),      # match
        make_server(1.0, airport="lhr", operator="ix", counter=2),      # ixp prefix
        make_server(1.0, airport="lhr", operator="bt.isp", counter=3),  # ongoing
        make_server(1.0, airport="jfk", operator="ix", counter=1),      # unexplained
        make_server(1.0, airport="jfk", operator="bt.isp", counter=2),  # no snapshot row
        make_server(1.0, airport="xxz", operator="ix", counter=1),      # no airport row
    ]
    fleet_file = tmp_path / "fleet.json"
    write_fleet(fleet_file, servers)
    store_dir = tmp_path / "campaign"
    assert main(_crawl_args(tmp_path, fleet_file, store_dir, ("lhr", "jfk", "xxz"))) == EXIT_OK
    snapshot = _write_lines(tmp_path / "snapshot.csv", [
        f"{servers[0].address}/32,gb,gb,64500,cdn",
        f"{servers[1].address}/32,nl,nl,64500,cdn",
        f"{servers[2].address}/32,us,us,64500,cdn",
        f"{servers[3].address}/32,fr,us,64999,other",
        f"{servers[5].address}/32,gb,gb,64500,cdn",
    ])
    assert main(["--store", str(store_dir), "validate", "--snapshot", str(snapshot),
                 "--cdn-asns", "64500"]) == EXIT_OK
    _probe_and_estimate(tmp_path, fleet_file, store_dir)
    assert main(["--store", str(store_dir), "report", "--out", str(tmp_path / "r")]) == EXIT_OK

    rows = list(store.read_jsonl(store_dir / "verdicts.jsonl"))
    assert len(rows) == len(servers)
    geo, asn = {}, {}
    for row in rows:
        key = row["geo"].get("mismatch_class") or row["geo"]["verdict"]
        geo[key] = geo.get(key, 0) + 1
        asn[row["asn"]["verdict"]] = asn.get(row["asn"]["verdict"], 0) + 1
    block = json.loads((tmp_path / "r" / "summary.json").read_text())["validation"]
    assert block == {"geo": geo, "asn": asn, "unexplained": [servers[3].name]}
    assert geo == {"match": 1, "ixp_prefix_registration": 1, "ongoing_deployment": 1,
                   "unexplained": 1, "unverified": 2}
    assert asn == {"consistent": 3, "ongoing_deployment": 1, "inconsistent": 1,
                   "unverified": 1}


def test_report_on_files_has_no_validation_block(tmp_path, small_fleet_file):
    out = tmp_path / "out"
    assert _simulate(out, small_fleet_file) == EXIT_OK
    assert main(["report", "--records", str(out / "store" / "records.jsonl"),
                 "--estimates", str(out / "store" / "estimates.jsonl"),
                 "--out", str(tmp_path / "r")]) == EXIT_OK
    summary = json.loads((tmp_path / "r" / "summary.json").read_text())
    simulated = json.loads((out / "summary.json").read_text())
    assert "validation" not in summary
    assert simulated.pop("validation") == {"geo": {"match": 3}, "asn": {"consistent": 3},
                                           "unexplained": []}
    assert summary == simulated


def _probe_and_estimate(tmp_path, fleet_file, store_dir):
    targets = _targets_file(tmp_path, fleet_file)
    assert main(["--store", str(store_dir), "probe", "--targets", str(targets),
                 "--transport", f"sim:{fleet_file}", "--dwell", "6s", "--workers", "2",
                 "--duration", "60s"]) == EXIT_OK
    assert main(["--store", str(store_dir), "estimate"]) == EXIT_OK


def test_report_refuses_a_directory_that_is_no_store(tmp_path, capsys):
    empty = tmp_path / "empty"
    empty.mkdir()
    out = tmp_path / "r"
    assert main(["--store", str(empty), "report", "--out", str(out)]) == EXIT_STAGE
    assert f"no store at {empty}" in capsys.readouterr().err
    assert list(empty.iterdir()) == []
    assert not out.exists()


def test_report_refuses_a_store_whose_estimate_stage_is_not_done(
    tmp_path, small_fleet_file, capsys
):
    store_dir = tmp_path / "campaign"
    assert main(_crawl_args(tmp_path, small_fleet_file, store_dir)) == EXIT_OK
    out = tmp_path / "r"
    assert main(["--store", str(store_dir), "report", "--out", str(out)]) == EXIT_STAGE
    assert "report before stage 'estimate' completed" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("bad_row, reason", [
    (lambda good: json.dumps({**json.loads(good), "target": "203.0.113.99"}),
     "target 203.0.113.99 is not an address of any record"),
    (lambda good: '{"target": "10.0.14.132"}', "no field 'window_start_ns'"),
    (lambda good: good.replace('"pps":', '"pps":NaN,"was":'),
     "pps or bps is not a finite number"),
], ids=["unjoined", "missing_fields", "nan_rate"])
def test_report_on_a_bad_estimate_names_its_line_and_writes_nothing(
    tmp_path, small_fleet_file, capsys, bad_row, reason
):
    run = tmp_path / "run"
    assert _simulate(run, small_fleet_file) == EXIT_OK
    good = (run / "store" / "estimates.jsonl").read_text().splitlines()
    # the bad row is the third row and, after a blank line, the fourth line
    estimates = _write_lines(tmp_path / "estimates.jsonl",
                             [good[0], "", good[1], bad_row(good[0]), *good[2:]])
    out = tmp_path / "r"
    out.mkdir()
    assert main(["report", "--records", str(run / "store" / "records.jsonl"),
                 "--estimates", str(estimates), "--out", str(out)]) == EXIT_STAGE
    assert capsys.readouterr().err == f"error: {estimates}: line 4: {reason}\n"
    assert list(out.iterdir()) == []


def test_report_reads_estimates_in_parts_to_the_same_files_and_lines(
    tmp_path, small_fleet_file, capsys, monkeypatch
):
    run = tmp_path / "run"
    assert _simulate(run, small_fleet_file) == EXIT_OK
    records = str(run / "store" / "records.jsonl")
    good = (run / "store" / "estimates.jsonl").read_text().splitlines()
    estimates = _write_lines(tmp_path / "estimates.jsonl", [*good, *good])

    def report(out):
        return main(["report", "--records", records, "--estimates", str(estimates),
                     "--out", str(tmp_path / out)])

    assert report("one_part") == EXIT_OK
    monkeypatch.setattr(jsonrows, "PART_BYTES", estimates.stat().st_size // 2)
    monkeypatch.setattr(jsonrows, "_usable_cpus", lambda: 2)
    assert len(jsonrows._part_bounds(estimates)) == 2
    assert report("two_parts") == EXIT_OK
    names = sorted(os.listdir(tmp_path / "one_part"))
    assert names == sorted(os.listdir(tmp_path / "two_parts")) and len(names) == 7
    for name in names:
        assert (tmp_path / "two_parts" / name).read_bytes() == (
            tmp_path / "one_part" / name).read_bytes(), name
    # the last row, in the second part, after a blank line in the first
    _write_lines(estimates, [good[0], "", *good[1:], *good, '{"target": "x"}'])
    assert len(jsonrows._part_bounds(estimates)) == 2
    capsys.readouterr()
    assert report("bad") == EXIT_STAGE
    assert capsys.readouterr().err == (
        f"error: {estimates}: line {2 * len(good) + 2}: no field 'window_start_ns'\n")
    assert not (tmp_path / "bad").exists()


def test_report_on_a_store_reads_the_estimates_its_schema_supports(
    tmp_path, small_fleet_file, capsys
):
    run = tmp_path / "run"
    assert _simulate(run, small_fleet_file) == EXIT_OK
    manifest_path = run / "store" / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["streams"]["estimates"] = 2
    manifest_path.write_text(json.dumps(manifest))
    capsys.readouterr()
    assert main(["--store", str(run / "store"), "report", "--out", str(tmp_path / "r")]) == (
        EXIT_STAGE)
    assert capsys.readouterr().err == "error: estimates is v2, this build supports v1\n"
    manifest["streams"]["estimates"] = 1
    manifest_path.write_text(json.dumps(manifest))
    (run / "store" / "estimates.jsonl").unlink()
    assert main(["--store", str(run / "store"), "report", "--out", str(tmp_path / "r")]) == (
        EXIT_OK)
    assert json.loads((tmp_path / "r" / "summary.json").read_text())["estimates"] == 0


@pytest.mark.parametrize("command", ["report", "validate"])
@pytest.mark.parametrize("bad_row, reason", [
    (lambda good: {key: value for key, value in good.items() if key != "addresses"},
     "no field 'addresses'"),
    (lambda good: {**good, "name": "bad.name"},
     "'bad.name': bad domain_suffix: expected suffix 'nflxvideo.net'"),
    (lambda good: {**good, "addresses": []}, "a record needs at least one address"),
    (lambda good: {**good, "addresses": "203.0.113.3"},
     "addresses: expected a list, not '203.0.113.3'"),
], ids=["no_addresses_field", "bad_name", "empty_addresses", "addresses_not_a_list"])
def test_a_bad_record_names_its_line_and_writes_nothing(tmp_path, capsys, command, bad_row,
                                                        reason):
    good = [record_for(make_server(1.0, counter=i + 1, address=f"203.0.113.{i + 1}")).to_json()
            for i in range(3)]
    # the bad row is the third row and, after a blank line, the fourth line
    records = _write_lines(tmp_path / "records.jsonl",
                           [json.dumps(good[0]), "", json.dumps(good[1]),
                            json.dumps(bad_row(good[2]))])
    out = tmp_path / "out"
    out.mkdir()
    if command == "report":
        args = ["--estimates", str(_write_lines(tmp_path / "estimates.jsonl", [])),
                "--out", str(out)]
    else:
        snapshot = _write_lines(tmp_path / "snapshot.csv", ["203.0.113.0/24,gb,gb,64500,cdn"])
        args = ["--snapshot", str(snapshot), "--cdn-asns", "64500",
                "--out", str(out / "verdicts.jsonl")]
    assert main([command, "--records", str(records), *args]) == EXIT_STAGE
    assert capsys.readouterr().err == f"error: {records}: line 4: {reason}\n"
    assert list(out.iterdir()) == []


def test_report_on_a_torn_last_estimate_line_names_it_and_writes_nothing(
    tmp_path, small_fleet_file, capsys
):
    run = tmp_path / "run"
    assert _simulate(run, small_fleet_file) == EXIT_OK
    good = (run / "store" / "estimates.jsonl").read_text().splitlines()
    # a writer that stopped mid-line leaves a last line without its end
    estimates = tmp_path / "estimates.jsonl"
    estimates.write_text("".join(row + "\n" for row in good) + good[0][:len(good[0]) // 2])
    out = tmp_path / "r"
    out.mkdir()
    assert main(["report", "--records", str(run / "store" / "records.jsonl"),
                 "--estimates", str(estimates), "--out", str(out)]) == EXIT_STAGE
    assert capsys.readouterr().err == f"error: {estimates}: line {len(good) + 1}: not valid JSON\n"
    assert list(out.iterdir()) == []
