"""Location and attribution cross-checks."""

from importlib import resources

import pytest

from fleetscope.validation import (
    AddressSnapshot,
    AirportDatabase,
    GeoVerdict,
    UnknownAddress,
    UnknownAirportCode,
    asn_crosscheck,
    geo_crosscheck,
    load_continent_table,
    multinational_labels,
)

from conftest import make_server, record_for


# -- airport database ------------------------------------------------------

def test_bundled_airport_lookup_lhr():
    assert AirportDatabase.bundled().country("lhr") == "GB"


def test_airport_alias_resolves_typo():
    with resources.as_file(resources.files("fleetscope.data") / "airports.csv") as path:
        plain = AirportDatabase.from_csv(path)
    with pytest.raises(UnknownAirportCode):
        plain.country("mdv")
    assert AirportDatabase.bundled().country("mdv") == "UY"


def test_unknown_airport_code():
    db = AirportDatabase.bundled()
    with pytest.raises(UnknownAirportCode):
        db.country("zzz")
    assert "zzz" not in db
    assert "lhr" in db


def test_continent_table_covers_bundled_countries():
    db = AirportDatabase.bundled()
    continents = load_continent_table()
    missing = {c for c in db.country_map().values() if c.upper() not in continents}
    assert not missing


def test_airport_csv_rejects_coordinates_off_the_globe(tmp_path):
    path = tmp_path / "airports.csv"
    for row, reason in (("lhr,91.0,0.0,gb,0", "latitude"), ("lhr,0.0,181.0,gb,0", "longitude")):
        path.write_text(f"ams,52.31,4.76,nl,1\n{row}\n")
        with pytest.raises(ValueError, match=f"{reason} out of range"):
            AirportDatabase.from_csv(path)


def test_continent_table_names_a_short_row(tmp_path):
    path = tmp_path / "continents.csv"
    path.write_text("# country,continent\ngb,eu\n\nus\n")
    with pytest.raises(ValueError, match=r"continents\.csv: line 4: expected 2 columns, got 1"):
        load_continent_table(path)


# -- geo / ASN cross-checks --------------------------------------------------

CDN_ASNS = {64500}
ISP_ASNS = {"bt": [64510]}


def _snapshot(rows):
    return AddressSnapshot(rows)


def test_geo_crosscheck_match():
    record = record_for(make_server(1.0, airport="lhr", operator="ix", address="203.0.113.1"))
    snapshot = _snapshot([("203.0.113.0/24", "gb", "gb", 64500)])
    verdict = geo_crosscheck(record, snapshot, CDN_ASNS, AirportDatabase.bundled())
    assert verdict.verdict == "match"
    assert verdict.mismatch_class is None


def test_geo_crosscheck_ongoing_deployment():
    # name claims an ISP, address still sits in CDN space geolocated elsewhere
    record = record_for(make_server(1.0, airport="lhr", operator="bt.isp", address="203.0.113.9"))
    snapshot = _snapshot([("203.0.113.0/24", "us", "us", 64500)])
    verdict = geo_crosscheck(record, snapshot, CDN_ASNS, AirportDatabase.bundled())
    assert verdict.verdict == "mismatch"
    assert verdict.mismatch_class == "ongoing_deployment"


def test_geo_crosscheck_ixp_prefix_registration():
    # IXP server at mia; the prefix geolocates to its registration country
    record = record_for(make_server(1.0, airport="mia", operator="ix", address="198.51.100.7"))
    snapshot = _snapshot([("198.51.100.0/24", "nl", "nl", 64500)])
    verdict = geo_crosscheck(record, snapshot, CDN_ASNS, AirportDatabase.bundled())
    assert verdict.verdict == "mismatch"
    assert verdict.mismatch_class == "ixp_prefix_registration"


def test_geo_crosscheck_multinational_and_unexplained():
    db = AirportDatabase.bundled()
    multi = record_for(make_server(1.0, airport="lhr", operator="big.isp", address="198.51.100.20"))
    snapshot = _snapshot([("198.51.100.0/24", "fr", "fr", 64520)])
    verdict = geo_crosscheck(multi, snapshot, CDN_ASNS, db, multinational_isps={"big"})
    assert verdict.mismatch_class == "multinational_operator"
    other = record_for(make_server(1.0, airport="lhr", operator="bt.isp", address="198.51.100.21"))
    verdict = geo_crosscheck(other, snapshot, CDN_ASNS, db)
    assert verdict.mismatch_class == "unexplained"


def test_multinational_labels_claim_two_or_more_countries():
    db = AirportDatabase.bundled()
    records = [record_for(make_server(1.0, airport=airport, operator=operator, counter=i))
               for i, (airport, operator) in enumerate([
                   ("lhr", "big.isp"), ("cdg", "big.isp"),   # GB and FR
                   ("lhr", "bt.isp"), ("man", "bt.isp"),     # GB twice
                   ("lhr", "odd.isp"), ("xxz", "odd.isp"),   # xxz is no airport
                   ("jfk", "ix"), ("cdg", "ix")], start=1)]
    assert multinational_labels(records, db) == {"big"}


def test_geo_verdict_invariant():
    with pytest.raises(ValueError):
        GeoVerdict("match", "GB", "GB", "unexplained")
    with pytest.raises(ValueError):
        GeoVerdict("mismatch", "GB", "US")


def test_asn_crosscheck_examples():
    db_rows = [
        ("203.0.113.0/24", "gb", "gb", 64500),
        ("198.51.100.0/24", "gb", "gb", 64510),
        ("192.0.2.0/24", "gb", "gb", 64999),
    ]
    snapshot = _snapshot(db_rows)
    ixp = record_for(make_server(1.0, operator="ix", address="203.0.113.50"))
    assert asn_crosscheck(ixp, snapshot, CDN_ASNS, ISP_ASNS).verdict == "consistent"
    isp = record_for(make_server(1.0, operator="bt.isp", address="198.51.100.50"))
    assert asn_crosscheck(isp, snapshot, CDN_ASNS, ISP_ASNS).verdict == "consistent"
    ongoing = record_for(make_server(1.0, operator="bt.isp", address="203.0.113.51"))
    assert asn_crosscheck(ongoing, snapshot, CDN_ASNS, ISP_ASNS).verdict == "ongoing_deployment"
    stray = record_for(make_server(1.0, operator="bt.isp", address="192.0.2.5"))
    assert asn_crosscheck(stray, snapshot, CDN_ASNS, ISP_ASNS).verdict == "inconsistent"


def test_asn_crosscheck_unknown_address():
    snapshot = _snapshot([("203.0.113.0/24", "gb", "gb", 64500)])
    record = record_for(make_server(1.0, operator="ix", address="10.0.0.1"))
    with pytest.raises(UnknownAddress):
        asn_crosscheck(record, snapshot, CDN_ASNS, ISP_ASNS)


def test_snapshot_longest_prefix_wins():
    snapshot = _snapshot([
        ("10.0.0.0/8", "us", "us", 1),
        ("10.1.0.0/16", "de", "de", 2),
        ("10.1.2.0/24", "fr", "fr", 3),
    ])
    assert snapshot.lookup("10.9.9.9")[2] == 1
    assert snapshot.lookup("10.1.9.9")[2] == 2
    assert snapshot.lookup("10.1.2.9")[2] == 3
    assert snapshot.lookup("10.1.2.9")[0] == "FR"


def test_snapshot_csv_round_trip(tmp_path):
    path = tmp_path / "snapshot.csv"
    path.write_text("# prefix,country,reg,asn,holder\n203.0.113.0/24,gb,nl,64500,cdn\n")
    snapshot = AddressSnapshot.from_csv(path)
    assert snapshot.lookup("203.0.113.1")[0] == "GB"
    assert snapshot.lookup("203.0.113.1")[1] == "NL"
    assert snapshot.lookup("203.0.113.1")[2] == 64500  # the holder column is accepted, not read


def test_every_record_gets_exactly_one_verdict_pair():
    db = AirportDatabase.bundled()
    rows = [("198.51.100.0/24", "gb", "gb", 64500)]
    snapshot = _snapshot(rows)
    records = [
        record_for(make_server(1.0, airport="lhr", operator="ix", address=f"198.51.100.{i + 1}"))
        for i in range(10)
    ]
    verdicts = [geo_crosscheck(r, snapshot, CDN_ASNS, db) for r in records]
    assert len(verdicts) == len(records)
    fractions = sum(v.verdict == "match" for v in verdicts) / len(verdicts)
    assert fractions == 1.0
