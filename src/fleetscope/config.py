"""Campaign configuration: the one ``CampaignParams`` every stage reads.

A config file is a JSON object with two optional keys, ``seed`` and
``campaign`` (``probe_interval``, ``dwell``, ``revisit_period``,
``workers``, ``total_duration``, ``max_visits_per_hour``,
``probe_timeout``, ``mtu_bytes``). Any other key is an error. The CLI
loads it once, with its campaign flags on top: probe paces and schedules
by it and plans no cycle longer than the revisit period, estimate reads
the MTU (the probe interval it reads from the sample frames), report bins
by the revisit period. What is unset keeps its ``CampaignParams`` default.

Durations accept plain seconds or strings with units ("30ms", "60s",
"30m", "10d"). The revisit period must divide 24 hours, because the
report's bins must tile each UTC day.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import replace
from pathlib import Path
from typing import Mapping

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


def parse_duration_s(value, fieldname: str = "duration") -> float:
    """'30ms' -> 0.03; bare numbers are seconds. NaN, infinities and
    anything too long to count in int64 nanoseconds are errors."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        seconds = float(value)
    elif match := _DURATION_RE.match(str(value)):
        seconds = float(match.group(1)) * _DURATION_UNITS[match.group(2) or "s"]
    else:
        raise ConfigError(fieldname, f"cannot parse duration {value!r}")
    if not math.isfinite(seconds):
        raise ConfigError(fieldname, f"{value!r} is not a finite duration")
    if abs(seconds) * 1e9 >= 2**63:
        raise ConfigError(fieldname, f"{value!r} does not fit in int64 nanoseconds")
    return seconds


def _day_divisor_s(value, fieldname: str) -> float:
    """A duration that divides a UTC day into whole bins: the report bins
    by the revisit period, and a day must hold a whole number of them."""
    seconds = parse_duration_s(value, fieldname)
    period_ns = round(seconds * 1e9)
    if period_ns <= 0 or 86_400 * 10**9 % period_ns:
        raise ConfigError(fieldname, f"{value!r} does not divide 24h")
    return seconds


def _int(value, fieldname: str) -> int:
    if type(value) is not int:  # a float would truncate, a bool or a string convert
        raise ConfigError(fieldname, f"expected an integer, not {value!r}")
    return value


def _number(value, fieldname: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(fieldname, f"expected a number, not {value!r}")
    return float(value)


def _optional(parse):  # null: no courtesy cap, the default reply timeout
    return lambda value, fieldname: None if value is None else parse(value, fieldname)


# Each setting by its key in a config file: the CampaignParams field it
# sets, its parser (given the value and the name to use in errors) and the
# command-line flag that overrides it.
_SETTINGS = {
    "seed": ("seed", _int, "seed"),
    "campaign.probe_interval": ("probe_interval_s", parse_duration_s, "interval"),
    "campaign.dwell": ("dwell_s", parse_duration_s, "dwell"),
    "campaign.revisit_period": ("revisit_period_s", _day_divisor_s, None),
    "campaign.workers": ("workers", _int, "workers"),
    "campaign.total_duration": ("total_duration_s", parse_duration_s, "duration"),
    "campaign.max_visits_per_hour": ("max_visits_per_hour", _optional(_number), None),
    "campaign.probe_timeout": ("probe_timeout_s", _optional(parse_duration_s), None),
    "campaign.mtu_bytes": ("mtu_bytes", _int, None),
}


def _with(params: CampaignParams, values: dict[str, tuple[object, str]]) -> CampaignParams:
    """``params`` with each setting's (value, name in errors) parsed into its field."""
    return replace(params, **{_SETTINGS[key][0]: _SETTINGS[key][1](value, name)
                              for key, (value, name) in values.items()})


def load_config(path: str | Path | None = None,
                flags: Mapping[str, object] | None = None) -> CampaignParams:
    """The campaign parameters: the config file at ``path``, if any, then
    the command-line ``flags`` that are set (parsed arguments by flag name,
    None when unset), over the ``CampaignParams`` defaults."""
    params = CampaignParams()
    if path is not None:
        path = Path(path)
        if not path.exists():
            raise ConfigError("config", f"no such file: {path}")
        try:
            raw = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise ConfigError("config", f"invalid JSON: {exc}") from exc
        if not isinstance(raw, dict):
            raise ConfigError("config", "expected a JSON object")
        campaign = raw.pop("campaign", {})
        if not isinstance(campaign, dict):
            raise ConfigError("campaign", "expected a JSON object")
        values = {**raw, **{f"campaign.{key}": value for key, value in campaign.items()}}
        for key in values:
            if key not in _SETTINGS or (key in raw and "." in key):  # a top-level key has no dot
                raise ConfigError(key, "unknown field")
        try:
            params = _with(params, {key: (value, key) for key, value in values.items()})
        except ConfigError:
            raise
        except (TypeError, ValueError) as exc:
            raise ConfigError("campaign", str(exc)) from exc
    flags = flags or {}
    return _with(params, {key: (flags[flag], flag) for key, (_, _, flag) in _SETTINGS.items()
                          if flag and flags.get(flag) is not None})
