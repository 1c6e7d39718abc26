"""Campaign configuration: the seed and the campaign parameters.

A config file is a JSON object with two optional keys, ``seed`` and
``campaign`` (``probe_interval``, ``dwell``, ``revisit_period``,
``workers``, ``total_duration``, ``max_visits_per_hour``,
``probe_timeout``, ``mtu_bytes``). Any other key is an error. The CLI
loads it once and hands it to every stage: probe paces and schedules by
it and plans no cycle longer than the revisit period, estimate reads the
probe interval and MTU, report bins by the revisit period.

Durations accept plain seconds or strings with units ("30ms", "60s",
"30m", "10d"). Defaults pace probes every 30 ms, dwell one minute per
visit, and run 150 workers.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from pathlib import Path

from .probe import CampaignParams


class ConfigError(ValueError):
    """A config field is missing, malformed or unknown."""

    def __init__(self, fieldname: str, reason: str):
        self.fieldname = fieldname
        self.reason = reason
        super().__init__(f"{fieldname}: {reason}")


_DURATION_RE = re.compile(r"^\s*([0-9]*\.?[0-9]+)\s*(ns|us|ms|s|m|h|d)?\s*$")
_DURATION_UNITS = {
    "ns": 1e-9,
    "us": 1e-6,
    "ms": 1e-3,
    "s": 1.0,
    "m": 60.0,
    "h": 3600.0,
    "d": 86400.0,
}

_CAMPAIGN_KEYS = ("probe_interval", "dwell", "revisit_period", "workers", "total_duration",
                  "max_visits_per_hour", "probe_timeout", "mtu_bytes")


def parse_duration_s(value, fieldname: str = "duration") -> float:
    """'30ms' -> 0.03; bare numbers are seconds."""
    if isinstance(value, (int, float)):
        return float(value)
    match = _DURATION_RE.match(str(value))
    if not match:
        raise ConfigError(fieldname, f"cannot parse duration {value!r}")
    return float(match.group(1)) * _DURATION_UNITS[match.group(2) or "s"]


@dataclass
class CampaignConfig:
    """Validated pipeline configuration with defaults applied."""

    seed: int = 0
    campaign: CampaignParams = field(default_factory=CampaignParams)


def _fields(value, prefix: str, known: tuple[str, ...]) -> dict:
    """``value``, checked to be a JSON object with no key outside ``known``."""
    if not isinstance(value, dict):
        raise ConfigError(prefix.rstrip(".") or "config", "expected a JSON object")
    for key in value:
        if key not in known:
            raise ConfigError(prefix + key, "unknown field")
    return value


def load_config(path: str | Path) -> CampaignConfig:
    """Load and validate a config file."""
    path = Path(path)
    if not path.exists():
        raise ConfigError("config", f"no such file: {path}")
    try:
        raw = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError("config", f"invalid JSON: {exc}") from exc
    raw = _fields(raw, "", ("seed", "campaign"))

    config = CampaignConfig()
    config.seed = int(raw.get("seed", 0))
    campaign = _fields(raw.get("campaign", {}), "campaign.", _CAMPAIGN_KEYS)
    try:
        config.campaign = CampaignParams(
            probe_interval_s=parse_duration_s(campaign.get("probe_interval", 0.03), "campaign.probe_interval"),
            dwell_s=parse_duration_s(campaign.get("dwell", 60.0), "campaign.dwell"),
            revisit_period_s=parse_duration_s(campaign.get("revisit_period", 1800.0), "campaign.revisit_period"),
            workers=int(campaign.get("workers", 150)),
            total_duration_s=parse_duration_s(campaign.get("total_duration", 864000.0), "campaign.total_duration"),
            max_visits_per_hour=(
                None
                if campaign.get("max_visits_per_hour", 2.0) is None
                else float(campaign.get("max_visits_per_hour", 2.0))
            ),
            probe_timeout_s=(
                None
                if campaign.get("probe_timeout") is None
                else parse_duration_s(campaign["probe_timeout"], "campaign.probe_timeout")
            ),
            mtu_bytes=int(campaign.get("mtu_bytes", 1500)),
            seed=config.seed,
        )
    except ValueError as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError("campaign", str(exc)) from exc
    return config
