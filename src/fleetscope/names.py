"""Grammar for structured CDN hostnames: parse, format, walk by prefix.

Fleet hostnames follow a fixed component layout::

    ipv4_1-lagg0-c020.1.lhr001.ix.nflxvideo.net
    ipv6_1-lagg0-c002.1.lhr005.bt.isp.nflxvideo.net

reading left to right: IP protocol token with a numeric index, the network
connection (NIC) type, a zero-padded per-location server counter, a
standalone deployment index, the site code (three-letter airport code plus
zero-padded site counter), the operator labels ("ix" for exchange-point
deployments, "<isp>.isp" for ISP deployments, where the ISP part may span
several DNS labels), and the shared domain suffix.

Every component but the server counter comes from a word list, and each
combination of them is one name prefix whose servers are numbered from
c001 up. ``name_prefixes`` yields those prefixes; the crawl walks each
one's counters. There is deliberately no unstructured brute-force mode:
over a ~29-symbol alphabet and 30 positions the flat candidate space is
around 29^30 names, far beyond any query budget.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path
from typing import Collection, Iterator

DEFAULT_DOMAIN_SUFFIX = "nflxvideo.net"

OPERATOR_IXP = "ixp"
OPERATOR_ISP = "isp"

PROTOCOLS = ("ipv4", "ipv6")

_TOKEN_RE = re.compile(r"[a-z0-9]+\Z")
_AIRPORT_RE = re.compile(r"[a-z]{3}\Z")
_SITE_RE = re.compile(r"([a-z]{3})([0-9]{3,})\Z")


class MalformedName(ValueError):
    """Hostname does not follow the fleet grammar.

    ``component`` names the first component that failed, which is the
    signal that the name is not part of the structured fleet.
    """

    def __init__(self, component: str, name: str, reason: str = ""):
        self.component = component
        self.name = name
        self.reason = reason
        detail = f": {reason}" if reason else ""
        super().__init__(f"{name!r}: bad {component}{detail}")


class EmptyDimension(ValueError):
    """A word list that every name prefix draws from has no entries."""

    def __init__(self, dimension: str):
        self.dimension = dimension
        super().__init__(f"word list {dimension!r} is empty")


def _canonical_int(text: str) -> int | None:
    """Parse a decimal field with no sign and no superfluous leading zeros."""
    if not text.isdigit() or (len(text) > 1 and text[0] == "0"):
        return None
    return int(text)


def _canonical_counter(text: str) -> int | None:
    """Parse a zero-padded width-3 counter ('020' -> 20, '1000' -> 1000)."""
    if not text.isdigit() or len(text) < 3:
        return None
    value = int(text)
    if f"{value:03d}" != text:
        return None
    return value


def _valid_operator(operator: str) -> bool:
    if operator == "ix":
        return True
    labels = operator.split(".")
    if len(labels) < 2 or labels[-1] != "isp":
        return False
    return all(_TOKEN_RE.match(label) for label in labels[:-1])


@dataclass(frozen=True, slots=True)
class ServerName:
    """A fully decomposed fleet hostname.

    ``operator`` holds the wire token: ``"ix"`` for IXP-operated servers or
    ``"<label>.isp"`` for ISP-operated ones (the label may contain dots).
    """

    protocol: str
    protocol_index: int
    nic: str
    server_counter: int
    deployment_index: int
    airport_code: str
    site_counter: int
    operator: str
    domain_suffix: str = DEFAULT_DOMAIN_SUFFIX

    def __post_init__(self) -> None:
        if self.protocol not in PROTOCOLS:
            raise ValueError(f"protocol must be one of {PROTOCOLS}, got {self.protocol!r}")
        if self.protocol_index < 0:
            raise ValueError("protocol_index must be >= 0")
        if not _TOKEN_RE.match(self.nic):
            raise ValueError(f"nic must match [a-z0-9]+, got {self.nic!r}")
        if self.server_counter < 0:
            raise ValueError("server_counter must be >= 0")
        if self.deployment_index < 0:
            raise ValueError("deployment_index must be >= 0")
        if not _AIRPORT_RE.match(self.airport_code):
            raise ValueError(f"airport_code must match [a-z]{{3}}, got {self.airport_code!r}")
        if self.site_counter < 1:
            raise ValueError("site_counter must be >= 1")
        if not _valid_operator(self.operator):
            raise ValueError(f"operator must be 'ix' or '<label>.isp', got {self.operator!r}")
        if not self.domain_suffix or self.domain_suffix != self.domain_suffix.lower():
            raise ValueError(f"domain_suffix must be non-empty lowercase, got {self.domain_suffix!r}")

    @property
    def is_ixp(self) -> bool:
        return self.operator == "ix"

    @property
    def operator_kind(self) -> str:
        return OPERATOR_IXP if self.is_ixp else OPERATOR_ISP

    @property
    def isp_label(self) -> str | None:
        """The ISP label ('bt' in 'bt.isp'), or None for IXP-operated names."""
        if self.is_ixp:
            return None
        return self.operator[: -len(".isp")]

    @property
    def site_code(self) -> str:
        """Site identifier as it appears on the wire, e.g. 'lhr001'."""
        return f"{self.airport_code}{self.site_counter:03d}"

    def __str__(self) -> str:
        return format_server_name(self)


def parse_server_name(name: str, domain_suffix: str = DEFAULT_DOMAIN_SUFFIX) -> ServerName:
    """Decompose a hostname into its components.

    Raises ``MalformedName`` naming the failing component for anything that
    does not match the grammar byte for byte; ``format_server_name`` of the
    result reproduces the input exactly.

    Any three-letter airport code is accepted (real fleets contain typo'd
    codes), so discovery never drops real servers; validation marks a code
    the airport database cannot place as unverified.
    """
    dot_suffix = "." + domain_suffix
    if not name.endswith(dot_suffix):
        raise MalformedName("domain_suffix", name, f"expected suffix {domain_suffix!r}")
    head = name[: -len(dot_suffix)]
    labels = head.split(".")
    if len(labels) < 4:
        raise MalformedName("label_count", name, "expected machine, deployment, site and operator labels")

    machine, deployment_text, site_text = labels[0], labels[1], labels[2]
    operator = ".".join(labels[3:])

    dash_parts = machine.split("-")
    if len(dash_parts) != 3:
        raise MalformedName("machine_label", name, "expected <protocol>_<n>-<nic>-c<counter>")
    proto_part, nic, counter_part = dash_parts

    protocol, sep, proto_index_text = proto_part.partition("_")
    if protocol not in PROTOCOLS:
        raise MalformedName("protocol", name, f"expected one of {PROTOCOLS}")
    protocol_index = _canonical_int(proto_index_text) if sep else None
    if protocol_index is None:
        raise MalformedName("protocol_index", name, "expected _<decimal> after protocol")

    if not _TOKEN_RE.match(nic):
        raise MalformedName("nic", name, "expected [a-z0-9]+")

    if not counter_part.startswith("c"):
        raise MalformedName("server_counter", name, "expected c<NNN>")
    server_counter = _canonical_counter(counter_part[1:])
    if server_counter is None:
        raise MalformedName("server_counter", name, "expected zero-padded width-3 counter")

    deployment_index = _canonical_int(deployment_text)
    if deployment_index is None:
        raise MalformedName("deployment_index", name, "expected bare decimal label")

    site_match = _SITE_RE.match(site_text)
    if not site_match:
        raise MalformedName("site_code", name, "expected <aaa><NNN>")
    airport_code = site_match.group(1)
    site_counter = _canonical_counter(site_match.group(2))
    if site_counter is None or site_counter < 1:
        raise MalformedName("site_counter", name, "expected zero-padded counter >= 1")

    if not _valid_operator(operator):
        raise MalformedName("operator", name, "expected 'ix' or '<label>.isp'")

    return ServerName(
        protocol=protocol,
        protocol_index=protocol_index,
        nic=nic,
        server_counter=server_counter,
        deployment_index=deployment_index,
        airport_code=airport_code,
        site_counter=site_counter,
        operator=operator,
        domain_suffix=domain_suffix,
    )


def format_server_name(name: ServerName) -> str:
    """Render the canonical wire form; inverse of ``parse_server_name``."""
    return (
        f"{name.protocol}_{name.protocol_index}-{name.nic}-c{name.server_counter:03d}"
        f".{name.deployment_index}.{name.airport_code}{name.site_counter:03d}"
        f".{name.operator}.{name.domain_suffix}"
    )


def _normalize(entries: Collection[str]) -> tuple[str, ...]:
    """Lowercase and deduplicate, preserving first-seen order."""
    seen: dict[str, None] = {}
    for entry in entries:
        seen.setdefault(entry.strip().lower(), None)
    seen.pop("", None)
    return tuple(seen)


@dataclass(frozen=True)
class Wordlists:
    """Crawl inputs: one list per hostname dimension plus counter caps.

    Lists are lowercase-normalized and deduplicated on construction. The
    operators are ``ix`` plus one ``<label>.isp`` per ISP label. No server
    counter above ``max_server_counter`` is queried; by default that is
    999, the largest counter a name's three digits hold.
    """

    airport_codes: tuple[str, ...]
    isp_labels: tuple[str, ...] = ()
    nic_types: tuple[str, ...] = ("lagg0",)
    protocols: tuple[str, ...] = PROTOCOLS
    protocol_indices: tuple[int, ...] = (1,)
    deployment_indices: tuple[int, ...] = (1,)
    max_server_counter: int = 999
    max_site_counter: int = 1

    def __post_init__(self) -> None:
        object.__setattr__(self, "airport_codes", _normalize(self.airport_codes))
        object.__setattr__(self, "isp_labels", _normalize(self.isp_labels))
        object.__setattr__(self, "nic_types", _normalize(self.nic_types))
        object.__setattr__(self, "protocols", tuple(dict.fromkeys(self.protocols)))
        object.__setattr__(self, "protocol_indices", tuple(dict.fromkeys(self.protocol_indices)))
        object.__setattr__(self, "deployment_indices", tuple(dict.fromkeys(self.deployment_indices)))
        for code in self.airport_codes:
            if not _AIRPORT_RE.match(code):
                raise ValueError(f"airport code must match [a-z]{{3}}, got {code!r}")
        for label in self.isp_labels:
            if not all(_TOKEN_RE.match(part) for part in label.split(".")):
                raise ValueError(f"ISP label must be dotted [a-z0-9]+ tokens, got {label!r}")
        for nic in self.nic_types:
            if not _TOKEN_RE.match(nic):
                raise ValueError(f"NIC type must match [a-z0-9]+, got {nic!r}")
        for proto in self.protocols:
            if proto not in PROTOCOLS:
                raise ValueError(f"protocol must be one of {PROTOCOLS}, got {proto!r}")
        if self.max_server_counter < 1 or self.max_site_counter < 1:
            raise ValueError("counter bounds must be strictly positive")

    @property
    def operators(self) -> tuple[str, ...]:
        return ("ix", *(f"{label}.isp" for label in self.isp_labels))

    @classmethod
    def from_dir(cls, directory: str | Path, **bounds) -> "Wordlists":
        """Load lists from a directory of plain-text files.

        Expects ``airports.txt`` (required), ``isps.txt`` and ``nics.txt``
        (optional); one entry per line, '#' comments.
        """
        directory = Path(directory)
        airports_file = directory / "airports.txt"
        if not airports_file.exists():
            raise FileNotFoundError(f"missing required wordlist {airports_file}")

        def optional(filename: str) -> list[str]:
            path = directory / filename
            return load_wordlist(path) if path.exists() else []

        kwargs: dict = {
            "airport_codes": load_wordlist(airports_file),
            "isp_labels": optional("isps.txt"),
        }
        nics = optional("nics.txt")
        if nics:
            kwargs["nic_types"] = nics
        kwargs.update(bounds)
        return cls(**kwargs)


def load_wordlist(path: str | Path) -> list[str]:
    """Read one entry per line, skipping blanks and '#' comments."""
    entries = []
    for line in Path(path).read_text().splitlines():
        text = line.split("#", 1)[0].strip().lower()
        if text:
            entries.append(text)
    return entries


def name_prefixes(
    lists: Wordlists, domain_suffix: str = DEFAULT_DOMAIN_SUFFIX
) -> Iterator[tuple[str, str]]:
    """Yield each name prefix as the text before and after its server
    counter, lazily, duplicate-free and in deterministic order: a name is
    ``f"{head}c{counter:03d}{tail}"``.

    Raises ``EmptyDimension`` when a list every prefix draws from is empty.
    """
    for dimension, entries in (
        ("protocols", lists.protocols),
        ("protocol_indices", lists.protocol_indices),
        ("nic_types", lists.nic_types),
        ("deployment_indices", lists.deployment_indices),
        ("airport_codes", lists.airport_codes),
    ):
        if not entries:
            raise EmptyDimension(dimension)

    sites = [
        f"{airport}{s:03d}"
        for airport in lists.airport_codes
        for s in range(1, lists.max_site_counter + 1)
    ]
    operators = lists.operators
    for protocol in lists.protocols:
        for proto_index in lists.protocol_indices:
            for nic in lists.nic_types:
                head = f"{protocol}_{proto_index}-{nic}-"
                for deploy_index in lists.deployment_indices:
                    for site in sites:
                        for operator in operators:
                            yield head, f".{deploy_index}.{site}.{operator}.{domain_suffix}"
