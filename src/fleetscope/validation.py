"""Cross-checks of claimed server locations and operator attribution.

Two independent methods: a geolocation snapshot (country per address) and
an address-to-ASN snapshot, both read from one ``AddressSnapshot``. The
claimed country comes from the name's airport code through an
``AirportDatabase``, which keeps only the country of each code. Providers
are offline snapshot files, never live services, so verdicts are
reproducible. RTT proximity from vantage points would be a third method;
it needs live vantage measurements, which no offline input provides, so it
is out of scope.
"""

from __future__ import annotations

import csv
import ipaddress
from collections import Counter
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Callable, Iterable, Mapping

from .discovery import ServerRecord

VERDICT_MATCH = "match"
VERDICT_MISMATCH = "mismatch"
VERDICT_UNVERIFIED = "unverified"

MISMATCH_IXP_PREFIX = "ixp_prefix_registration"
MISMATCH_ONGOING = "ongoing_deployment"
MISMATCH_MULTINATIONAL = "multinational_operator"
MISMATCH_UNEXPLAINED = "unexplained"

ASN_CONSISTENT = "consistent"
ASN_ONGOING = "ongoing_deployment"
ASN_INCONSISTENT = "inconsistent"


class UnknownAirportCode(KeyError):
    """Airport code absent from the database (and alias table, if any)."""

    reason = "unknown_airport"


class UnknownAddress(KeyError):
    """No snapshot row covers the address."""

    reason = "unknown_address"


class NoIPv4Address(UnknownAddress):
    """The record has no IPv4 address, the only kind the snapshot covers."""

    reason = "no_ipv4_address"


class AirportDatabase:
    """Airport code to ISO country, with an alias table for typo'd codes.

    Loaded from CSV rows ``code,lat,lon,country,utc_offset``. Only the code
    and the country are kept; the other columns must still parse, and the
    coordinates must lie on the globe. Alias tables (``code,canonical``,
    see ``add_aliases``) map typo'd codes onto real ones.
    """

    def __init__(self, countries: Mapping[str, str]):
        self._countries = {code.lower(): country.upper() for code, country in countries.items()}
        self._aliases: dict[str, str] = {}

    @classmethod
    def from_csv(cls, path: str | Path) -> "AirportDatabase":
        def country(row: list[str]) -> tuple[str, str]:
            latitude, longitude, _ = float(row[1]), float(row[2]), float(row[4])
            if not -90.0 <= latitude <= 90.0:
                raise ValueError(f"latitude out of range: {latitude}")
            if not -180.0 <= longitude <= 180.0:
                raise ValueError(f"longitude out of range: {longitude}")
            return row[0], row[3]

        return cls(dict(_read_table(path, 5, country)))

    @classmethod
    def bundled(cls, *_ignored) -> "AirportDatabase":
        """The bundled airports and alias table. Arguments are ignored: the
        benchmark's set-up step still passes the flag that made the aliases
        optional."""
        data = resources.files("fleetscope.data")
        with resources.as_file(data / "airports.csv") as path:
            db = cls.from_csv(path)
        with resources.as_file(data / "airport_aliases.csv") as path:
            db.add_aliases(load_alias_table(path))
        return db

    def add_aliases(self, aliases: Mapping[str, str]) -> None:
        self._aliases.update({k.lower(): v.lower() for k, v in aliases.items()})

    def __contains__(self, code: str) -> bool:
        key = code.lower()
        return self._aliases.get(key, key) in self._countries

    def country(self, code: str) -> str:
        """ISO country of a known (or aliased) code."""
        key = code.lower()
        try:
            return self._countries[self._aliases.get(key, key)]
        except KeyError:
            raise UnknownAirportCode(code) from None

    def country_map(self) -> dict[str, str]:
        """ISO country by airport code, aliased codes included."""
        countries = dict(self._countries)
        countries.update({alias: countries[code] for alias, code in self._aliases.items()
                          if code in countries})
        return countries


def _read_table(path: str | Path, columns: int, parse: Callable[[list[str]], tuple]) -> list:
    """``parse`` of each row of a CSV table, skipping blank rows and rows
    whose first field starts with ``#``. A row of fewer than ``columns``
    fields, or one that ``parse`` raises a ValueError for, raises a
    ValueError that names the file and line."""
    parsed = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        for row in reader:
            if not row or row[0].startswith("#"):
                continue
            try:
                if len(row) < columns:
                    raise ValueError(f"expected {columns} columns, got {len(row)}")
                parsed.append(parse(row))
            except ValueError as exc:
                raise ValueError(f"{path}: line {reader.line_num}: {exc}") from None
    return parsed


def load_alias_table(path: str | Path) -> dict[str, str]:
    return dict(_read_table(path, 2, lambda row: (row[0].lower(), row[1].lower())))


def load_continent_table(path: str | Path | None = None) -> dict[str, str]:
    """Country to continent mapping (``country,continent`` CSV)."""
    if path is None:
        data = resources.files("fleetscope.data")
        with resources.as_file(data / "continents.csv") as bundled:
            return load_continent_table(bundled)
    return dict(_read_table(path, 2, lambda row: (row[0].upper(), row[1].upper())))


class AddressSnapshot:
    """Longest-prefix-match snapshot of per-IPv4-prefix address metadata: the
    geolocated country, the registration country and the ASN, which
    ``lookup`` reads together from an address's one row.

    CSV rows: ``prefix,country,registered_country,asn`` and an optional
    ``holder`` column, which is not read.
    """

    def __init__(self, rows: Iterable[tuple[str | ipaddress.IPv4Network, str, str, int]]):
        self._by_prefixlen: dict[int, dict[int, tuple[str, str, int]]] = {}
        for prefix, country, reg_country, asn in rows:
            network = ipaddress.IPv4Network(prefix)
            table = self._by_prefixlen.setdefault(network.prefixlen, {})
            table[int(network.network_address)] = (country.upper(), reg_country.upper(), int(asn))
        self._prefixlens = sorted(self._by_prefixlen, reverse=True)

    @classmethod
    def from_csv(cls, path: str | Path) -> "AddressSnapshot":
        return cls(_read_table(path, 4, lambda row: (
            ipaddress.IPv4Network(row[0]), row[1], row[2], int(row[3]))))

    def lookup(self, address: str) -> tuple[str, str, int]:
        """``(country, registered_country, asn)`` of ``address``."""
        addr = int(ipaddress.IPv4Address(address))
        for prefixlen in self._prefixlens:
            mask = ((1 << prefixlen) - 1) << (32 - prefixlen) if prefixlen else 0
            hit = self._by_prefixlen[prefixlen].get(addr & mask)
            if hit is not None:
                return hit
        raise UnknownAddress(address)


@dataclass(frozen=True, slots=True)
class GeoVerdict:
    """Geolocation cross-check outcome; ``mismatch_class`` explains any
    disagreement between the claimed and observed country."""

    verdict: str
    expected_country: str
    observed_country: str
    mismatch_class: str | None = None

    def __post_init__(self) -> None:
        if (self.verdict == VERDICT_MISMATCH) != (self.mismatch_class is not None):
            raise ValueError("mismatch_class present iff verdict is mismatch")

    def to_json(self) -> dict:
        return {"verdict": self.verdict, "mismatch_class": self.mismatch_class,
                "expected_country": self.expected_country,
                "observed_country": self.observed_country}


@dataclass(frozen=True, slots=True)
class AsnVerdict:
    """ASN cross-check outcome against the operator the name claims."""

    verdict: str
    observed_asn: int
    expected_owner: str  # "cdn_operator" or "isp"
    isp_label: str | None = None

    def to_json(self) -> dict:
        return {"verdict": self.verdict, "observed_asn": self.observed_asn,
                "expected_owner": self.expected_owner, "isp": self.isp_label}


def _first_ipv4(record: ServerRecord) -> str:
    for address in record.addresses:
        if ":" not in address:
            return address
    raise NoIPv4Address(record.hostname)


def geo_crosscheck(
    record: ServerRecord,
    provider: AddressSnapshot,
    cdn_asns: frozenset[int] | set[int],
    airports: AirportDatabase,
    multinational_isps: frozenset[str] | set[str] = frozenset(),
) -> GeoVerdict:
    """Compare the geolocated country against the airport-code claim.

    Mismatches are classified: IXP servers whose prefix geolocates to its
    registration country rather than where it is used; ISP-named servers
    still on CDN-owned address space (deployment in progress); ISP labels
    known to operate in several countries; everything else is left
    unexplained rather than forced into a class.
    """
    address = _first_ipv4(record)
    expected = airports.country(record.name.airport_code)
    observed, registered, asn = provider.lookup(address)
    if observed == expected:
        return GeoVerdict(VERDICT_MATCH, expected, observed)

    if record.operator_kind == "ixp":
        if registered == observed:
            return GeoVerdict(VERDICT_MISMATCH, expected, observed, MISMATCH_IXP_PREFIX)
        return GeoVerdict(VERDICT_MISMATCH, expected, observed, MISMATCH_UNEXPLAINED)

    if asn in cdn_asns:
        return GeoVerdict(VERDICT_MISMATCH, expected, observed, MISMATCH_ONGOING)
    if record.isp_label in multinational_isps:
        return GeoVerdict(VERDICT_MISMATCH, expected, observed, MISMATCH_MULTINATIONAL)
    return GeoVerdict(VERDICT_MISMATCH, expected, observed, MISMATCH_UNEXPLAINED)


def asn_crosscheck(
    record: ServerRecord,
    provider: AddressSnapshot,
    cdn_asns: frozenset[int] | set[int],
    isp_asn_table: Mapping[str, Iterable[int]],
) -> AsnVerdict:
    """Check that the address maps to the AS the name claims.

    IXP names must map to the CDN operator's ASNs; ISP names to that ISP's.
    ISP names on CDN address space indicate deployment in progress.
    """
    address = _first_ipv4(record)
    observed = provider.lookup(address)[2]
    if record.operator_kind == "ixp":
        if observed in cdn_asns:
            return AsnVerdict(ASN_CONSISTENT, observed, "cdn_operator")
        return AsnVerdict(ASN_INCONSISTENT, observed, "cdn_operator")
    label = record.isp_label or ""
    expected_asns = set(isp_asn_table.get(label, ()))
    if observed in expected_asns:
        return AsnVerdict(ASN_CONSISTENT, observed, "isp", label)
    if observed in cdn_asns:
        return AsnVerdict(ASN_ONGOING, observed, "isp", label)
    return AsnVerdict(ASN_INCONSISTENT, observed, "isp", label)


def multinational_labels(records: Iterable[ServerRecord], airports: AirportDatabase) -> frozenset[str]:
    """ISP labels whose records claim sites in two or more countries.

    Airport codes the database cannot place are left out.
    """
    countries: dict[str, set[str]] = {}
    for record in records:
        if record.isp_label is not None and record.name.airport_code in airports:
            countries.setdefault(record.isp_label, set()).add(
                airports.country(record.name.airport_code))
    return frozenset(label for label, seen in countries.items() if len(seen) > 1)


def summarize_verdicts(rows: Iterable[dict]) -> dict:
    """Counts of verdict rows per geo class (``match``, a mismatch class or
    ``unverified``) and per ASN outcome, plus the sorted hostnames of the
    unexplained geo mismatches. Reads ``rows`` once, keeping only those."""
    geo: Counter[str] = Counter()
    asn: Counter[str] = Counter()
    unexplained = []
    for row in rows:
        geo_class = row["geo"].get("mismatch_class") or row["geo"]["verdict"]
        geo[geo_class] += 1
        asn[row["asn"]["verdict"]] += 1
        if geo_class == MISMATCH_UNEXPLAINED:
            unexplained.append(row["name"])
    return {"geo": dict(geo), "asn": dict(asn), "unexplained": sorted(unexplained)}
