"""Campaign store: write/scan, sample frames, corruption, versions, stages."""

import json
import re

import numpy as np
import pytest

from fleetscope.config import ConfigError, load_config, parse_duration_s
from fleetscope.store import (
    LOST_RTT,
    MAX_RTT_NS,
    CampaignStore,
    SchemaMismatch,
    StageOrderError,
    StoreError,
    VisitFrame,
    encode_frame,
)


def _committed(store, stream, rows):
    writer = store.writer(stream)
    for row in rows:
        writer.append(row)
    writer.commit()
    return store


def test_append_scan_round_trip(tmp_path):
    store = CampaignStore(tmp_path / "store")
    rows = [{"v": 1, "hostname": f"h{i}", "addresses": [f"198.18.0.{i}"]} for i in range(3)]
    writer = store.writer("records")
    for row in rows:
        writer.append(row)
    assert list(store.scan("records")) == []  # nothing is visible before commit
    writer.commit()
    assert list(store.scan("records")) == rows


def test_scan_rejects_a_torn_last_line(tmp_path):
    # streams are published whole, so a torn line is damage, not a crash to recover from
    store = _committed(CampaignStore(tmp_path / "store"), "records", [{"seq": 1}, {"seq": 2}])
    path = store.stream_path("records")
    with open(path, "a") as fh:
        fh.write('{"seq": 3, "trunc')
    with pytest.raises(StoreError, match=re.escape(f"{path}: line 3: not valid JSON")):
        list(CampaignStore(tmp_path / "store").scan("records"))


def test_scan_rejects_mid_file_corruption(tmp_path):
    store = _committed(CampaignStore(tmp_path / "store"), "records", [{"seq": 1}])
    path = store.stream_path("records")
    with open(path, "a") as fh:
        fh.write("garbage\n")
        fh.write('{"seq": 2}\n')
    with pytest.raises(StoreError):
        list(CampaignStore(tmp_path / "store").scan("records"))


def test_newer_schema_version_is_rejected(tmp_path):
    writer = CampaignStore(tmp_path / "store").writer("records")
    writer.append({"seq": 1})
    writer.close()
    manifest_path = tmp_path / "store" / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["streams"]["records"] = 2
    manifest_path.write_text(json.dumps(manifest))
    reopened = CampaignStore(tmp_path / "store")
    with pytest.raises(SchemaMismatch):
        list(reopened.scan("records"))
    with pytest.raises(SchemaMismatch):
        reopened.writer("records")


# -- sample frames -------------------------------------------------------------

def _visit(target="198.18.0.7", start_ns=5_000_000_000, count=40, lost=(3, 4, 17)):
    seq = np.arange(count)
    answered = ~np.isin(seq, lost)
    return VisitFrame(
        target, start_ns, start_ns + count * 30_000_000,
        (start_ns + seq * 30_000_000).astype(np.int64),
        np.where(answered, 1_000 * seq, LOST_RTT).astype(np.uint32),
        np.where(answered, (60_000 + 7 * seq) % 65536, 0).astype(np.uint16),
    )


def _committed_samples(tmp_path, visits):
    return _committed(CampaignStore(tmp_path / "store"), "samples", visits)


def test_frames_round_trip_every_column(tmp_path):
    visits = [_visit(), _visit("198.18.0.8", count=2, lost=(0,)), _visit(count=0)]
    store = _committed_samples(tmp_path, visits)
    assert store.stream_path("samples").name == "samples.bin"
    frames = list(store.scan("samples"))
    assert len(frames) == len(visits)
    for visit, frame in zip(visits, frames):
        assert (frame.target, frame.start_ns, frame.end_ns) == (visit.target, visit.start_ns, visit.end_ns)
        for column in ("sent_ns", "rtt_ns", "ipid"):
            assert getattr(frame, column).tolist() == getattr(visit, column).tolist()
        sent_ns, ids = frame.replies()
        answered = visit.rtt_ns != LOST_RTT
        assert sent_ns.tolist() == visit.sent_ns[answered].tolist()
        assert ids.tolist() == visit.ipid[answered].tolist()
    sent_ns, ids = frames[0].replies()  # probes 3, 4 and 17 were lost
    assert sent_ns[:4].tolist() == [5_000_000_000 + i * 30_000_000 for i in (0, 1, 2, 5)]
    assert ids[:4].tolist() == [60_000, 60_007, 60_014, 60_035]
    assert len(ids) == 37
    # 25 header bytes and the target per frame, 8 + 4 + 2 bytes per probe
    assert store.stream_path("samples").stat().st_size == sum(
        25 + len(v.target) + 14 * len(v.sent_ns) for v in visits)


def test_frame_round_trip_longest_rtt(tmp_path):
    visit = VisitFrame("t", 0, 60, np.array([0, 30]), np.array([MAX_RTT_NS, LOST_RTT], np.uint32),
                       np.array([1, 0], np.uint16))
    (frame,) = _committed_samples(tmp_path, [visit]).scan("samples")
    assert frame.rtt_ns.tolist() == [MAX_RTT_NS, LOST_RTT]


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


def test_a_file_torn_inside_a_frame_magic_is_a_truncated_frame(tmp_path):
    store = _committed_samples(tmp_path, [_visit(), _visit()])
    path = store.stream_path("samples")
    second = len(encode_frame(_visit()))
    path.write_bytes(path.read_bytes()[:second + 2])
    with pytest.raises(StoreError, match=f"samples.bin: truncated frame at byte {second}"):
        list(store.scan("samples"))


def test_a_target_that_is_not_ascii_is_a_store_error_naming_its_frame(tmp_path):
    store = _committed_samples(tmp_path, [_visit(), _visit()])
    path = store.stream_path("samples")
    data = bytearray(path.read_bytes())
    second = len(encode_frame(_visit()))
    data[second + 25] = 0xE9  # the second frame's first target byte
    path.write_bytes(bytes(data))
    with pytest.raises(StoreError, match=f"samples.bin: the target of the frame at byte {second} "
                                         f"is not ASCII"):
        list(store.scan("samples"))


@pytest.mark.parametrize("end_after_last_send_ns, reason", [
    (0, "end_ns is not after the last send in the frame at byte {offset}"),
    (-1, "end_ns is not after the last send in the frame at byte {offset}"),
    (60_000_000, "the frame at byte {offset} has an interval of 60000000 ns, "
                 "the first frame 30000000 ns"),
])
def test_a_frame_whose_interval_the_estimator_cannot_use_is_a_store_error(
        tmp_path, end_after_last_send_ns, reason):
    first, second = _visit(count=0), _visit()
    second = VisitFrame(second.target, second.start_ns,
                        int(second.sent_ns[-1]) + end_after_last_send_ns,
                        second.sent_ns, second.rtt_ns, second.ipid)
    store = _committed_samples(tmp_path, [first, _visit(), second, _visit()])
    offset = len(encode_frame(first)) + len(encode_frame(_visit()))
    with pytest.raises(StoreError, match=re.escape(reason.format(offset=offset))):
        list(store.scan("samples"))


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


def test_opening_a_directory_without_a_manifest_fails_and_writes_nothing(tmp_path):
    (tmp_path / "empty").mkdir()
    for directory in (tmp_path / "empty", tmp_path / "missing"):
        with pytest.raises(StoreError, match=f"no store at {directory}"):
            CampaignStore(directory, create=False)
    assert list((tmp_path / "empty").iterdir()) == []
    assert not (tmp_path / "missing").exists()
    CampaignStore(tmp_path / "made")
    assert not CampaignStore(tmp_path / "made", create=False).stage_done("crawl")


def test_unknown_stream_rejected(tmp_path):
    store = CampaignStore(tmp_path / "store")
    with pytest.raises(ValueError):
        store.writer("nonsense")


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
    assert config.probe_interval_s == pytest.approx(0.03)
    assert config.dwell_s == 60.0
    assert config.workers == 150
    assert config.total_duration_s == 864000.0
    assert config.max_visits_per_hour == 2.0


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
    assert config.probe_interval_s == pytest.approx(0.015)


def test_config_rejects_bad_json(tmp_path):
    config_path = tmp_path / "config.json"
    config_path.write_text("{not json")
    with pytest.raises(ConfigError):
        load_config(config_path)
