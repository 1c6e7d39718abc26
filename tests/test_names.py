"""Hostname grammar: parsing, formatting, name prefixes."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fleetscope.names import (
    EmptyDimension,
    MalformedName,
    ServerName,
    Wordlists,
    format_server_name,
    load_wordlist,
    name_prefixes,
    parse_server_name,
)


IXP_NAME = "ipv4_1-lagg0-c020.1.lhr001.ix.nflxvideo.net"
ISP_NAME = "ipv6_1-lagg0-c002.1.lhr005.bt.isp.nflxvideo.net"


def test_parse_ixp_example():
    name = parse_server_name(IXP_NAME)
    assert name.protocol == "ipv4"
    assert name.protocol_index == 1
    assert name.nic == "lagg0"
    assert name.server_counter == 20
    assert name.deployment_index == 1
    assert name.airport_code == "lhr"
    assert name.site_counter == 1
    assert name.operator == "ix"
    assert name.is_ixp
    assert name.isp_label is None
    assert name.operator_kind == "ixp"
    assert name.site_code == "lhr001"


def test_parse_isp_example():
    name = parse_server_name(ISP_NAME)
    assert name.protocol == "ipv6"
    assert name.protocol_index == 1
    assert name.nic == "lagg0"
    assert name.server_counter == 2
    assert name.deployment_index == 1
    assert name.airport_code == "lhr"
    assert name.site_counter == 5
    assert name.operator == "bt.isp"
    assert not name.is_ixp
    assert name.isp_label == "bt"
    assert name.operator_kind == "isp"


def test_parse_rejects_foreign_suffix():
    with pytest.raises(MalformedName) as exc:
        parse_server_name("www.example.com")
    assert exc.value.component == "domain_suffix"


@pytest.mark.parametrize("suffix", ["", "NFLXVIDEO.NET"], ids=["empty", "uppercase"])
def test_parse_rejects_a_suffix_that_is_empty_or_not_lowercase(suffix):
    # the name ends with the suffix, so only the suffix itself is at fault
    name = f"ipv4_1-lagg0-c020.1.lhr001.ix.{suffix}"
    with pytest.raises(MalformedName) as exc:
        parse_server_name(name, domain_suffix=suffix)
    assert exc.value.component == "domain_suffix"
    assert str(exc.value) == (f"{name!r}: bad domain_suffix: "
                              f"expected a non-empty lowercase suffix, not {suffix!r}")


def test_format_examples():
    ixp = ServerName("ipv4", 1, "lagg0", 20, 1, "lhr", 1, "ix")
    assert format_server_name(ixp) == IXP_NAME
    isp = ServerName("ipv6", 1, "lagg0", 2, 1, "lhr", 5, "bt.isp")
    assert format_server_name(isp) == ISP_NAME
    assert str(ixp) == IXP_NAME


def test_multi_label_isp_names_round_trip():
    wire = "ipv4_1-cxgbe0-c001.1.mia001.virgin.media.isp.nflxvideo.net"
    name = parse_server_name(wire)
    assert name.isp_label == "virgin.media"
    assert format_server_name(name) == wire


@pytest.mark.parametrize(
    "mutant,component",
    [
        ("ipx4_1-lagg0-c020.1.lhr001.ix.nflxvideo.net", "protocol"),
        ("ipv4-lagg0-c020.1.lhr001.ix.nflxvideo.net", "protocol_index"),
        ("ipv4_01-lagg0-c020.1.lhr001.ix.nflxvideo.net", "protocol_index"),
        ("ipv4_1-lagg0-c20.1.lhr001.ix.nflxvideo.net", "server_counter"),
        ("ipv4_1-lagg0-c0020.1.lhr001.ix.nflxvideo.net", "server_counter"),
        ("ipv4_1-lagg0-x020.1.lhr001.ix.nflxvideo.net", "server_counter"),
        ("ipv4_1-lagg0-c020.01.lhr001.ix.nflxvideo.net", "deployment_index"),
        ("ipv4_1-lagg0-c020.1.lh001.ix.nflxvideo.net", "site_code"),
        ("ipv4_1-lagg0-c020.1.lhr01.ix.nflxvideo.net", "site_code"),
        ("ipv4_1-lagg0-c020.1.lhr000.ix.nflxvideo.net", "site_counter"),
        ("ipv4_1-lagg0-c020.1.lhr001.xx.nflxvideo.net", "operator"),
        ("ipv4_1-lagg0-c020.1.lhr001.isp.nflxvideo.net", "operator"),
        ("ipv4_1-LAGG0-c020.1.lhr001.ix.nflxvideo.net", "nic"),
        ("ipv4_1-lagg0.c020.1.lhr001.ix.nflxvideo.net", "machine_label"),
        ("ipv4_1-lagg0-c020.2x.lhr001.ix.nflxvideo.net", "deployment_index"),
        ("ipv4_1-lagg0-c020.lhr001.ix.nflxvideo.net", "label_count"),
        ("ipv4_1-lagg0-c020.1.ix.nflxvideo.net", "label_count"),
    ],
)
def test_parse_rejects_structural_mutations(mutant, component):
    with pytest.raises(MalformedName) as exc:
        parse_server_name(mutant)
    assert exc.value.component == component


server_names = st.builds(
    ServerName,
    protocol=st.sampled_from(["ipv4", "ipv6"]),
    protocol_index=st.integers(0, 9),
    nic=st.from_regex(r"[a-z0-9]{1,8}", fullmatch=True),
    server_counter=st.integers(0, 2000),
    deployment_index=st.integers(0, 9),
    airport_code=st.from_regex(r"[a-z]{3}", fullmatch=True),
    site_counter=st.integers(1, 2000),
    operator=st.one_of(
        st.just("ix"),
        st.from_regex(r"[a-z0-9]{1,6}(\.[a-z0-9]{1,6}){0,2}", fullmatch=True).map(
            lambda label: f"{label}.isp"
        ),
    ),
)


@given(server_names)
@settings(max_examples=300)
def test_round_trip_parse_of_format(name):
    assert parse_server_name(format_server_name(name)) == name


@given(server_names)
@settings(max_examples=300)
def test_round_trip_format_of_parse(name):
    wire = format_server_name(name)
    assert format_server_name(parse_server_name(wire)) == wire


def _mutations(name: ServerName):
    """Single structural edits that must break the grammar."""
    wire = format_server_name(name)
    first_dash = wire.index("-")
    first_dot = wire.index(".")
    counter = f"-c{name.server_counter:03d}."
    yield wire.upper()[:1] + wire[1:]                      # uppercase protocol letter
    yield wire.replace(counter, counter.replace("c", "c0", 1), 1)  # over-padded counter
    yield wire[:first_dash] + "." + wire[first_dash + 1:]  # dash became a dot
    yield wire[:first_dot] + "-" + wire[first_dot + 1:]    # dot became a dash
    yield wire.replace("_", "", 1)                         # protocol index glued on
    yield wire + "x"                                       # suffix no longer matches
    tail = f".{name.operator}.{name.domain_suffix}"
    yield wire[: -len(tail)] + f".isp.{name.domain_suffix}"  # bare 'isp' operator


@given(server_names)
@settings(max_examples=200)
def test_structural_mutations_are_rejected(name):
    wire = format_server_name(name)
    for mutant in _mutations(name):
        if mutant == wire:
            continue
        with pytest.raises(MalformedName):
            parse_server_name(mutant)


def _names(lists, counter=1):
    return [f"{head}c{counter:03d}{tail}" for head, tail in name_prefixes(lists)]


def test_enumeration_cardinality_example():
    lists = Wordlists(
        airport_codes=("lhr", "ams"),
        isp_labels=("bt",),
        nic_types=("lagg0",),
        protocols=("ipv4", "ipv6"),
        max_server_counter=3,
    )
    prefixes = list(name_prefixes(lists))
    assert len(prefixes) == 8  # 2 protocols x 1 nic x 2 sites x 2 operators
    assert len(set(prefixes)) == 8
    for counter in (1, 3, 1000):  # the counter cap bounds the walk, not the prefixes
        for name in _names(lists, counter):
            assert parse_server_name(name).server_counter == counter


def test_enumeration_single_entry_identity():
    lists = Wordlists(
        airport_codes=("lhr",),
        isp_labels=(),
        nic_types=("lagg0",),
        protocols=("ipv4",),
        max_server_counter=1,
    )
    assert list(name_prefixes(lists)) == [("ipv4_1-lagg0-", ".1.lhr001.ix.nflxvideo.net")]
    assert list(name_prefixes(lists, domain_suffix="example.net")) == [
        ("ipv4_1-lagg0-", ".1.lhr001.ix.example.net")
    ]


def test_enumeration_order_is_deterministic():
    lists = Wordlists(
        airport_codes=("lhr", "ams"), isp_labels=("bt",), max_server_counter=2
    )
    assert list(name_prefixes(lists)) == list(name_prefixes(lists))


def test_enumeration_empty_dimension():
    for dimension in ("airport_codes", "nic_types", "protocols", "protocol_indices",
                      "deployment_indices"):
        lists = Wordlists(**{"airport_codes": ("lhr",), "max_server_counter": 1, dimension: ()})
        with pytest.raises(EmptyDimension) as raised:
            next(name_prefixes(lists))
        assert raised.value.dimension == dimension


def test_unstructured_brute_force_is_infeasible():
    # ~29 symbols over 30 positions in a year needs more than 2^36 lookups
    # per second, which is why only grammar-driven enumeration exists.
    per_second = 29**30 / (365 * 24 * 3600)
    assert per_second > 2**36


def test_wordlists_normalize_and_dedupe():
    lists = Wordlists(
        airport_codes=("LHR", "lhr", "ams"),
        isp_labels=("BT", "bt"),
        nic_types=("LAGG0",),
    )
    assert lists.airport_codes == ("lhr", "ams")
    assert lists.isp_labels == ("bt",)
    assert lists.nic_types == ("lagg0",)


def test_wordlists_reject_bad_entries_and_bounds():
    with pytest.raises(ValueError):
        Wordlists(airport_codes=("lhrx",))
    with pytest.raises(ValueError):
        Wordlists(airport_codes=("lhr",), max_server_counter=0)


def test_load_wordlist_skips_comments(tmp_path):
    path = tmp_path / "airports.txt"
    path.write_text("# header\nLHR\nams  # trailing\n\nlhr\n")
    assert load_wordlist(path) == ["lhr", "ams", "lhr"]


def test_wordlists_from_dir(tmp_path):
    (tmp_path / "airports.txt").write_text("lhr\nams\n")
    (tmp_path / "isps.txt").write_text("bt\nsky\n")
    (tmp_path / "nics.txt").write_text("lagg0\ncxgbe0\n")
    lists = Wordlists.from_dir(tmp_path, max_server_counter=2)
    assert lists.airport_codes == ("lhr", "ams")
    assert lists.isp_labels == ("bt", "sky")
    assert lists.nic_types == ("lagg0", "cxgbe0")
    assert len(list(name_prefixes(lists))) == 2 * 2 * 2 * 3  # proto x nic x site x ops


def test_wordlists_from_dir_requires_airports(tmp_path):
    with pytest.raises(FileNotFoundError):
        Wordlists.from_dir(tmp_path)
