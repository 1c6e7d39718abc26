"""Campaign store: append/scan, corruption tolerance, versions, stages."""

import json

import pytest

from fleetscope.config import ConfigError, load_config, parse_duration_s
from fleetscope.store import (
    CampaignStore,
    SchemaMismatch,
    StageOrderError,
    StoreError,
)


def test_append_scan_round_trip(tmp_path):
    with CampaignStore(tmp_path / "store") as store:
        rows = [{"target": "a", "seq": i, "sent_ns": i, "recv_ns": None, "ipid": i} for i in range(3)]
        for row in rows:
            store.append("samples", row)
        assert list(store.scan("samples")) == []  # nothing is visible before commit
        store.commit("samples")
        assert list(store.scan("samples")) == rows


def test_scan_tolerates_truncated_final_line(tmp_path, caplog):
    store = CampaignStore(tmp_path / "store")
    store.append("samples", {"seq": 1})
    store.append("samples", {"seq": 2})
    store.commit("samples")
    path = store.stream_path("samples")
    with open(path, "a") as fh:
        fh.write('{"seq": 3, "trunc')  # crash mid-line
    import logging

    with caplog.at_level(logging.WARNING):
        rows = list(CampaignStore(tmp_path / "store").scan("samples"))
    assert rows == [{"seq": 1}, {"seq": 2}]
    assert any("corrupt trailing" in r.message for r in caplog.records)


def test_scan_rejects_mid_file_corruption(tmp_path):
    store = CampaignStore(tmp_path / "store")
    store.append("samples", {"seq": 1})
    store.commit("samples")
    path = store.stream_path("samples")
    with open(path, "a") as fh:
        fh.write("garbage\n")
        fh.write('{"seq": 2}\n')
    with pytest.raises(StoreError):
        list(CampaignStore(tmp_path / "store").scan("samples"))


def test_newer_schema_version_is_rejected(tmp_path):
    store = CampaignStore(tmp_path / "store")
    store.append("samples", {"seq": 1})
    store.close()
    manifest_path = tmp_path / "store" / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["streams"]["samples"] = 2
    manifest_path.write_text(json.dumps(manifest))
    reopened = CampaignStore(tmp_path / "store")
    with pytest.raises(SchemaMismatch):
        list(reopened.scan("samples"))
    with pytest.raises(SchemaMismatch):
        reopened.append("samples", {"seq": 2})


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
