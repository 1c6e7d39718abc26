"""Campaign store: append/scan, sample frames, corruption tolerance, versions, stages."""

import json

import pytest

from fleetscope.config import ConfigError, load_config, parse_duration_s
from fleetscope.probe import ProbeSample, VisitLog
from fleetscope.store import (
    LOST_RTT,
    MAX_RTT_NS,
    CampaignStore,
    SchemaMismatch,
    StageOrderError,
    StoreError,
    encode_frame,
)


def test_append_scan_round_trip(tmp_path):
    with CampaignStore(tmp_path / "store") as store:
        rows = [{"v": 1, "hostname": f"h{i}", "addresses": [f"198.18.0.{i}"]} for i in range(3)]
        for row in rows:
            store.append("records", row)
        assert list(store.scan("records")) == []  # nothing is visible before commit
        store.commit("records")
        assert list(store.scan("records")) == rows


def test_scan_tolerates_truncated_final_line(tmp_path, caplog):
    store = CampaignStore(tmp_path / "store")
    store.append("records", {"seq": 1})
    store.append("records", {"seq": 2})
    store.commit("records")
    path = store.stream_path("records")
    with open(path, "a") as fh:
        fh.write('{"seq": 3, "trunc')  # crash mid-line
    import logging

    with caplog.at_level(logging.WARNING):
        rows = list(CampaignStore(tmp_path / "store").scan("records"))
    assert rows == [{"seq": 1}, {"seq": 2}]
    assert any("corrupt trailing" in r.message for r in caplog.records)


def test_scan_rejects_mid_file_corruption(tmp_path):
    store = CampaignStore(tmp_path / "store")
    store.append("records", {"seq": 1})
    store.commit("records")
    path = store.stream_path("records")
    with open(path, "a") as fh:
        fh.write("garbage\n")
        fh.write('{"seq": 2}\n')
    with pytest.raises(StoreError):
        list(CampaignStore(tmp_path / "store").scan("records"))


def test_newer_schema_version_is_rejected(tmp_path):
    store = CampaignStore(tmp_path / "store")
    store.append("records", {"seq": 1})
    store.close()
    manifest_path = tmp_path / "store" / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["streams"]["records"] = 2
    manifest_path.write_text(json.dumps(manifest))
    reopened = CampaignStore(tmp_path / "store")
    with pytest.raises(SchemaMismatch):
        list(reopened.scan("records"))
    with pytest.raises(SchemaMismatch):
        reopened.append("records", {"seq": 2})


# -- sample frames -------------------------------------------------------------

def _visit(target="198.18.0.7", start_ns=5_000_000_000, count=40, lost=(3, 4, 17)):
    samples = []
    for i in range(count):
        sent_ns = start_ns + i * 30_000_000
        if i in lost:
            samples.append(ProbeSample(target, i, sent_ns))
        else:
            samples.append(ProbeSample(target, i, sent_ns, sent_ns + 1_000 * i, (60_000 + 7 * i) % 65536))
    return VisitLog(target, start_ns, start_ns + count * 30_000_000, samples)


def _committed_samples(tmp_path, visits):
    store = CampaignStore(tmp_path / "store")
    for visit in visits:
        store.append("samples", visit)
    store.commit("samples")
    return store


def test_frames_round_trip_every_column(tmp_path):
    visits = [_visit(), _visit("198.18.0.8", count=2, lost=(0,)), _visit(count=0)]
    store = _committed_samples(tmp_path, visits)
    assert store.stream_path("samples").name == "samples.bin"
    frames = list(store.scan("samples"))
    assert len(frames) == len(visits)
    for visit, frame in zip(visits, frames):
        assert (frame.target, frame.start_ns, frame.end_ns) == (visit.target, visit.start_ns, visit.end_ns)
        assert frame.sent_ns.tolist() == [s.sent_ns for s in visit.samples]
        assert frame.rtt_ns.tolist() == [LOST_RTT if s.lost else s.rtt_ns for s in visit.samples]
        assert frame.ipid.tolist() == [s.ipid or 0 for s in visit.samples]
        sent_ns, ids = frame.replies()
        assert sent_ns.tolist() == [s.sent_ns for s in visit.samples if not s.lost]
        assert ids.tolist() == [s.ipid for s in visit.samples if not s.lost]
    # 25 header bytes and the target per frame, 8 + 4 + 2 bytes per probe
    assert store.stream_path("samples").stat().st_size == sum(
        25 + len(v.target) + 14 * len(v.samples) for v in visits)


def test_frame_round_trip_longest_rtt(tmp_path):
    visit = VisitLog("t", 0, 60, [ProbeSample("t", 0, 0, MAX_RTT_NS, 1), ProbeSample("t", 1, 30)])
    (frame,) = _committed_samples(tmp_path, [visit]).scan("samples")
    assert frame.rtt_ns.tolist() == [MAX_RTT_NS, LOST_RTT]
    with pytest.raises(ValueError):
        encode_frame(VisitLog("t", 0, 60, [ProbeSample("t", 0, 0, MAX_RTT_NS + 1, 1)]))


@pytest.mark.parametrize("damage", ["truncated", "bad magic", "do not increase"])
def test_damaged_frame_is_a_store_error(tmp_path, damage):
    store = _committed_samples(tmp_path, [_visit(), _visit()])
    path = store.stream_path("samples")
    data = path.read_bytes()
    second = len(data) // 2
    if damage == "truncated":
        path.write_bytes(data[:-1])
    elif damage == "bad magic":
        path.write_bytes(data[:second] + b"XXXX" + data[second + 4:])
    else:  # the second frame's first two send times made equal
        sent = second + 25 + len(_visit().target)
        path.write_bytes(data[:sent + 8] + data[sent:sent + 8] + data[sent + 16:])
    with pytest.raises(StoreError, match=damage):
        list(CampaignStore(tmp_path / "store").scan("samples"))


def test_samples_stream_of_v1_is_a_store_error(tmp_path):
    store = _committed_samples(tmp_path, [_visit()])
    manifest_path = tmp_path / "store" / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["streams"]["samples"] = 1
    manifest_path.write_text(json.dumps(manifest))
    with pytest.raises(StoreError, match="samples stream is v1"):
        list(store.scan("samples"))


def test_stage_markers_enforce_order(tmp_path):
    store = CampaignStore(tmp_path / "store")
    assert not store.stage_done("crawl")
    with pytest.raises(StageOrderError):
        store.mark_stage_done("probe")
    store.mark_stage_done("crawl")
    store.mark_stage_done("validate")
    store.mark_stage_done("probe")
    assert store.stage_done("probe")
    with pytest.raises(ValueError):
        store.mark_stage_done("nonsense")


def test_unknown_stream_rejected(tmp_path):
    store = CampaignStore(tmp_path / "store")
    with pytest.raises(ValueError):
        store.append("nonsense", {})


def test_scan_missing_stream_is_empty(tmp_path):
    store = CampaignStore(tmp_path / "store")
    assert list(store.scan("records")) == []


# -- config -----------------------------------------------------------------

def test_parse_duration_units():
    assert parse_duration_s("30ms") == pytest.approx(0.03)
    assert parse_duration_s("60s") == 60.0
    assert parse_duration_s("30m") == 1800.0
    assert parse_duration_s("10d") == 864000.0
    assert parse_duration_s(2.5) == 2.5
    with pytest.raises(ConfigError):
        parse_duration_s("abc")


def test_minimal_config_gets_campaign_defaults(tmp_path):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({}))
    config = load_config(config_path)
    assert config.campaign.probe_interval_s == pytest.approx(0.03)
    assert config.campaign.dwell_s == 60.0
    assert config.campaign.workers == 150
    assert config.campaign.total_duration_s == 864000.0
    assert config.campaign.max_visits_per_hour == 2.0


@pytest.mark.parametrize("fieldname, value", [
    ("wordlists", "wl"),
    ("fleet", "fleet.json"),
    ("output_dir", "out"),
    ("domain_suffix", "example.net"),
    ("crawl", {"rate_qps": 10}),
    ("providers", {"cdn_asns": [64500]}),
    ("estimate", {"subtract_self_traffic": False}),
    ("campaign.probe_intervall", "15ms"),
])
def test_config_unknown_field_is_an_error(tmp_path, fieldname, value):
    section, _, key = fieldname.rpartition(".")
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({section: {key: value}} if section else {key: value}))
    with pytest.raises(ConfigError) as exc:
        load_config(config_path)
    assert exc.value.fieldname == fieldname
    assert exc.value.reason == "unknown field"


def test_config_explicit_interval_overrides_default(tmp_path):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"campaign": {"probe_interval": "15ms"}}))
    config = load_config(config_path)
    assert config.campaign.probe_interval_s == pytest.approx(0.015)


def test_config_rejects_bad_json(tmp_path):
    config_path = tmp_path / "config.json"
    config_path.write_text("{not json")
    with pytest.raises(ConfigError):
        load_config(config_path)
