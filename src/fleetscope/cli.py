"""Command-line interface: crawl, validate, probe, estimate, report, and
the end-to-end simulate pipeline.

Each stage is one function that its subcommand and ``simulate`` share. It
reads the one ``CampaignParams`` loaded from ``--config``, ``--seed`` and
the campaign flags, and appends its rows straight to the writers of its
``--out`` file and store stream. Only ``crawl`` and ``simulate`` create a
store.

Exit codes: 0 success, 1 usage error, 2 stage failure.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import ipaddress
import itertools
import json
import logging
import sys
from pathlib import Path
from typing import Callable, Iterable, Sequence

from . import analytics, discovery, ipid, names, probe, simulation, store, validation
from .config import ConfigError, load_config
from .transport import EchoTransport, RawIcmpTransport, TransportError

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_STAGE = 2

SIM_CDN_ASN = 64500  # private-use ASN for the fleet operator in synthesized snapshots


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # argparse exits 2 by default; we use 1 for usage
        raise _UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="fleetscope", description=__doc__)
    parser.add_argument("--log-level", default="warning",
                        choices=["debug", "info", "warning", "error"])
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    parser.add_argument("--config", default=None, help="campaign config JSON (every stage)")
    parser.add_argument("--store", default=None,
                        help="campaign store directory; stages read/write its streams")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("crawl", help="walk the name prefixes through DNS and record the hits")
    p.add_argument("--wordlists", required=True)
    p.add_argument("--resolver", default="system", help="'system' or 'zone:FLEET.json'")
    p.add_argument("--rate", type=float, default=500.0, help="queries per second (0 = unlimited)")
    p.add_argument("--max-counter", type=int, default=names.Wordlists.max_server_counter,
                   help="highest server counter queried under any name prefix")
    p.add_argument("--max-site-counter", type=int, default=1)
    p.add_argument("--out", default=None, help="records JSON-lines file (or use --store)")

    p = sub.add_parser("validate", help="geo/ASN cross-checks for discovered records")
    p.add_argument("--records", default=None, help="records file (or use --store)")
    p.add_argument("--snapshot", required=True, help="prefix,country,reg_country,asn[,holder] CSV")
    p.add_argument("--cdn-asns", required=True, help="comma-separated ASNs of the CDN operator")
    p.add_argument("--isp-asns", default=None, help="JSON file: label -> [asns]")
    p.add_argument("--airports", default=None, help="airport CSV (bundled set by default)")
    p.add_argument("--aliases", default=None, help="airport alias CSV")
    p.add_argument("--out", default=None, help="verdicts file (or use --store)")

    p = sub.add_parser("probe", help="run an ID-sampling campaign")
    p.add_argument("--targets", required=True, help="file with one IPv4 address per line")
    p.add_argument("--transport", default="raw", help="'raw' or 'sim:FLEET.json'")
    p.add_argument("--interval", default=None)
    p.add_argument("--dwell", default=None)
    p.add_argument("--workers", type=int, default=None)
    p.add_argument("--duration", default=None)
    p.add_argument("--out", default=None, help="samples frame file (or use --store)")

    p = sub.add_parser("estimate", help="turn stored samples into rate estimates")
    p.add_argument("--samples", default=None, help="samples file (or use --store)")
    p.add_argument("--out", default=None, help="estimates file (or use --store)")

    p = sub.add_parser("report", help="aggregate estimates into report CSVs")
    p.add_argument("--estimates", default=None, help="estimates file (or use --store)")
    p.add_argument("--records", default=None, help="records file (or use --store)")
    p.add_argument("--out", required=True, help="output directory")

    p = sub.add_parser("simulate", help="crawl+probe+estimate+report against a virtual fleet")
    p.add_argument("--fleet", required=True, help="fleet config JSON")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--interval", default=None)
    p.add_argument("--dwell", default=None)
    p.add_argument("--workers", type=int, default=None)
    p.add_argument("--duration", default=None)
    p.add_argument("--loss-rate", type=float, default=0.0)
    return parser


@contextlib.contextmanager
def _stage_output(campaign_store: store.CampaignStore | None, stage: str, stream: str, out):
    """Yield a function that appends a row to the store stream's writer and
    the ``out`` file's. When the block ends they commit (rename their
    ``.partial`` files into place), then the store marks the stage done; an
    interrupted stage leaves the previous output as it was. Before any work
    is done: yield None if the store holds the stage already, and raise
    ``StageOrderError`` if an earlier stage is not done."""
    if campaign_store is not None:
        if campaign_store.stage_done(stage):
            print(f"{stage} stage already complete; nothing to do")
            yield None
            return
        campaign_store.check_stage_order(stage)
    writers = []
    try:
        if campaign_store is not None:
            writers.append(campaign_store.writer(stream))
        if out:
            writers.append(store.open_writer(stream, out))

        def add(row) -> None:
            for writer in writers:
                writer.append(row)

        yield add
        for writer in writers:
            writer.commit()
        if campaign_store is not None:
            campaign_store.mark_stage_done(stage)
    finally:
        for writer in writers:
            writer.close()


def derive_wordlists(parsed: Sequence[names.ServerName]) -> names.Wordlists:
    """Word lists covering exactly the dimensions present in a fleet's parsed names."""
    return names.Wordlists(
        airport_codes=tuple(sorted({n.airport_code for n in parsed})),
        isp_labels=tuple(sorted({n.isp_label for n in parsed if n.isp_label})),
        nic_types=tuple(sorted({n.nic for n in parsed})),
        protocols=tuple(sorted({n.protocol for n in parsed})),
        protocol_indices=tuple(sorted({n.protocol_index for n in parsed})),
        deployment_indices=tuple(sorted({n.deployment_index for n in parsed})),
        max_server_counter=max(n.server_counter for n in parsed),
        max_site_counter=max(n.site_counter for n in parsed),
    )


def synthesize_snapshot(
    fleet: simulation.SimulatedFleet, parsed: Sequence[names.ServerName],
    airports: validation.AirportDatabase
) -> tuple[validation.AddressSnapshot, set[int], dict[str, list[int]]]:
    """Per-address metadata consistent with the fleet's own naming;
    ``parsed[i]`` is the parsed name of ``fleet.servers[i]``.

    IXP addresses map to a private-use CDN ASN, ISP addresses to one
    private-use ASN per label; countries come from the airport claim.
    """
    isp_labels = sorted({n.isp_label for n in parsed if n.isp_label})
    isp_asn_table = {label: [64501 + i] for i, label in enumerate(isp_labels)}
    rows = []
    for server, name in zip(fleet.servers, parsed):
        country = airports.country(name.airport_code) if name.airport_code in airports else "zz"
        asn = SIM_CDN_ASN if name.is_ixp else isp_asn_table[name.isp_label][0]
        rows.append((f"{server.address}/32", country, country, asn))
    return validation.AddressSnapshot(rows), {SIM_CDN_ASN}, isp_asn_table


# -- stages: each is called by its subcommand and by simulate. Output goes to
# ``campaign_store`` and/or ``out`` (a path, written in the stream's format);
# a stage the store already holds returns None.


def crawl_stage(campaign_store, out, lists: names.Wordlists, resolver: discovery.Resolver,
                max_queries_per_second: float | None,
                domain_suffix: str = names.DEFAULT_DOMAIN_SUFFIX
                ) -> list[discovery.ServerRecord] | None:
    """Walk the name prefixes through ``resolver`` and write the hits as records."""
    with _stage_output(campaign_store, "crawl", "records", out) as add:
        if add is None:
            return None
        records = discovery.run_crawl(lists, resolver, max_queries_per_second,
                                      domain_suffix=domain_suffix)
        for record in records:
            add(record.to_json())
    return records


def validate_stage(campaign_store, out, records: list[discovery.ServerRecord],
                   snapshot: validation.AddressSnapshot, cdn_asns: set[int],
                   isp_asns: dict[str, list[int]], airports: validation.AirportDatabase) -> None:
    """Write one geo and ASN verdict per record. ISP labels that claim sites
    in two or more countries count as multinational operators."""
    with _stage_output(campaign_store, "validate", "verdicts", out) as add:
        if add is None:
            return
        multinational = validation.multinational_labels(records, airports)
        for record in records:
            add({
                "v": 1,
                "name": record.hostname,
                "geo": _verdict(validation.geo_crosscheck, record, snapshot, cdn_asns, airports,
                                multinational),
                "asn": _verdict(validation.asn_crosscheck, record, snapshot, cdn_asns, isp_asns),
            })


def _verdict(check, *args) -> dict:
    """``check``'s verdict as a row field; ``unverified``, with the reason,
    when the airport database or the snapshot does not cover the record."""
    try:
        return check(*args).to_json()
    except (validation.UnknownAirportCode, validation.UnknownAddress) as exc:
        return {"verdict": validation.VERDICT_UNVERIFIED, "reason": exc.reason}


def probe_stage(campaign_store, out, params: probe.CampaignParams, targets: list[str],
                transport: EchoTransport,
                finish: Callable[[probe.CampaignSummary], None] = lambda summary: None
                ) -> probe.CampaignSummary | None:
    """Run the ID-sampling campaign and write each visit's frame. ``finish``
    gets the campaign's summary before the stage commits, so what it writes
    exists whenever the store holds the stage."""
    with _stage_output(campaign_store, "probe", "samples", out) as add:
        if add is None:
            return None
        summary = probe.run_campaign(targets, params, transport, add)
        finish(summary)
    return summary


def estimate_stage(campaign_store, out, mtu_bytes: int,
                   frames: Iterable[store.VisitFrame]) -> None:
    """Estimate each visit as its frame is read, at the interval the frame
    carries, then write every target's flagged series in target order
    (``ipid.estimate_series``), in bits at ``mtu_bytes``."""
    with _stage_output(campaign_store, "estimate", "estimates", out) as add:
        if add is None:
            return
        for row in ipid.estimate_series(frames).rows(mtu_bytes):
            add(row)


def report_stage(campaign_store, out_dir, params: probe.CampaignParams,
                 records: list[discovery.ServerRecord], estimates: analytics.EstimateTable,
                 airports: validation.AirportDatabase) -> dict[str, Path]:
    """Write the report files, binned by the revisit period; always rewritten.
    When the store's validate stage is done, ``summary.json`` gains the
    verdict counts (``validation.summarize_verdicts``)."""
    verdicts = None
    if campaign_store is not None and campaign_store.stage_done("validate"):
        verdicts = validation.summarize_verdicts(campaign_store.scan("verdicts"))
    return analytics.write_reports(out_dir, records, estimates, airports,
                                   validation.load_continent_table(),
                                   bin_s=params.revisit_period_s, validation=verdicts)


# -- subcommands -------------------------------------------------------------


def _make_resolver(spec: str):
    if spec == "system":
        return discovery.SystemResolver()
    if spec.startswith("zone:"):
        fleet = simulation.SimulatedFleet.from_file(spec[len("zone:"):])
        return simulation.ZoneResolver(fleet.zone())
    raise _UsageError(f"unknown resolver {spec!r}")


def _open_store(args) -> store.CampaignStore | None:
    """The global --store, which must exist; None without one."""
    return store.CampaignStore(args.store, create=False) if args.store else None


def _require_out(args, what: str) -> None:
    if args.out is None and args.store is None:
        raise _UsageError(f"{what} needs --out or a global --store")


def _rows_in(path: str | None, campaign_store: store.CampaignStore | None, stream: str):
    """A stage's input rows: the file at ``path`` if given, else the store's stream."""
    if path:
        return store.read_stream(stream, path)
    if campaign_store is not None:
        return campaign_store.scan(stream)
    raise _UsageError(f"need --{stream} or a global --store")


def _records_in(path: str | None, campaign_store) -> list[discovery.ServerRecord]:
    """The records of ``path``, else the store's; a bad row raises its ``_bad_row``."""
    records = []
    for row, obj in enumerate(_rows_in(path, campaign_store, "records"), 1):
        try:
            records.append(discovery.ServerRecord.from_json(obj))
        except (KeyError, TypeError, ValueError) as exc:
            reason = f"no field {exc}" if isinstance(exc, KeyError) else str(exc)
            raise _bad_row(path, campaign_store, "records", row, reason) from None
    return records


def _estimates_in(path: str | None, campaign_store) -> analytics.EstimateTable:
    """The estimates of the ``path`` file, else the store's (none before they exist)."""
    if not path:
        if campaign_store is None:
            raise _UsageError("need --estimates or a global --store")
        path = campaign_store.committed("estimates")
    return analytics.EstimateTable.read(path) if path else analytics.EstimateTable.from_rows(())


def _bad_row(path: str | None, campaign_store, stream: str, row: int, reason: str) -> ValueError:
    """A ValueError that names the file and line of the ``row``-th row (from
    1) of ``stream``'s input: the ``path`` file, else the store's stream."""
    source = Path(path) if path else campaign_store.stream_path(stream)
    with open(source) as fh:  # the row-th line that read_jsonl yields
        lines = (number for number, line in enumerate(fh, 1) if line.strip())
        line = next(itertools.islice(lines, row - 1, None))
    return ValueError(f"{source}: line {line}: {reason}")


@contextlib.contextmanager
def _naming_estimate_lines(path: str | None, campaign_store):
    """Re-raise an ``analytics.BadEstimate`` as the ``_bad_row`` of its row."""
    try:
        yield
    except analytics.BadEstimate as exc:
        raise _bad_row(path, campaign_store, "estimates", exc.row, exc.reason) from None


def _cmd_crawl(args) -> int:
    _require_out(args, "crawl")
    lists = names.Wordlists.from_dir(
        args.wordlists,
        max_server_counter=args.max_counter,
        max_site_counter=args.max_site_counter,
    )
    resolver = _make_resolver(args.resolver)
    if args.rate < 0:
        raise ValueError(f"--rate must be >= 0, not {args.rate:g}")
    rate = None if args.rate == 0 else args.rate
    campaign_store = store.CampaignStore(args.store) if args.store else None
    records = crawl_stage(campaign_store, args.out, lists, resolver, rate)
    if records is None:
        return EXIT_OK
    summary = discovery.summarize_discovery(
        records, validation.AirportDatabase.bundled().country_map()
    )
    print(f"servers: isp={summary.isp.servers} ixp={summary.ixp.servers} "
          f"total={summary.total.servers}; locations={summary.total.locations}; "
          f"countries={summary.total.countries}; isps={summary.isps_found}")
    return EXIT_OK


def _cmd_validate(args) -> int:
    _require_out(args, "validate")
    snapshot = validation.AddressSnapshot.from_csv(args.snapshot)
    cdn_asns = {int(a) for a in args.cdn_asns.split(",") if a}
    isp_asns = _isp_asn_table(args.isp_asns) if args.isp_asns else {}
    airports = (validation.AirportDatabase.from_csv(args.airports) if args.airports
                else validation.AirportDatabase.bundled())
    if args.aliases:
        airports.add_aliases(validation.load_alias_table(args.aliases))
    campaign_store = _open_store(args)
    records = _records_in(args.records, campaign_store)
    validate_stage(campaign_store, args.out, records, snapshot, cdn_asns, isp_asns, airports)
    return EXIT_OK


def _isp_asn_table(path: str) -> dict[str, list[int]]:
    """The ``--isp-asns`` file: a JSON object mapping each ISP label to a
    list of integer ASNs. Anything else raises a ValueError that names the
    file and, for a bad value, its label."""
    try:
        table = json.loads(Path(path).read_text())
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    if not isinstance(table, dict):
        raise ValueError(f"{path}: not a JSON object of ISP label -> [ASN, ...]")
    for label, asns in table.items():
        if not isinstance(asns, list) or not all(type(asn) is int for asn in asns):
            raise ValueError(f"{path}: {label!r}: not a list of integer ASNs")
    return table


def _ipv4_targets(path: str) -> list[str]:
    """The addresses of a targets file, one per line. Blank lines and IPv6
    addresses are skipped (ID sampling is IPv4-only); any other line that is
    not an IPv4 address raises a ValueError that names its line."""
    targets = []
    for number, line in enumerate(Path(path).read_text().splitlines(), 1):
        text = line.strip()
        if not text:
            continue
        try:
            version = ipaddress.ip_address(text).version
        except ValueError:
            raise ValueError(f"{path}: line {number}: {text!r} is not an IPv4 address") from None
        if version == 4:
            targets.append(text)
    return targets


def _cmd_probe(args, params: probe.CampaignParams) -> int:
    _require_out(args, "probe")
    targets = _ipv4_targets(args.targets)
    with contextlib.ExitStack() as resources:
        if args.transport.startswith("sim:"):
            fleet = simulation.SimulatedFleet.from_file(args.transport[len("sim:"):])
            transport = simulation.SimulatedTransport(fleet)
        elif args.transport == "raw":
            transport = resources.enter_context(RawIcmpTransport())
        else:
            raise _UsageError(f"unknown transport {args.transport!r}")
        summary = probe_stage(_open_store(args), args.out, params, targets, transport)
    if summary is not None:
        print(f"visits={summary.visits_completed} probes={summary.probes_sent} "
              f"losses={summary.losses} reachable={len(summary.reachable)} "
              f"non_reachable={len(summary.unreachable)}")
    return EXIT_OK


def _cmd_estimate(args, params: probe.CampaignParams) -> int:
    _require_out(args, "estimate")
    campaign_store = _open_store(args)
    estimate_stage(campaign_store, args.out, params.mtu_bytes,
                   _rows_in(args.samples, campaign_store, "samples"))
    return EXIT_OK


def _cmd_report(args, params: probe.CampaignParams) -> int:
    campaign_store = _open_store(args)
    if campaign_store is not None and not campaign_store.stage_done("estimate"):
        raise store.StageOrderError("report before stage 'estimate' completed")
    records = _records_in(args.records, campaign_store)
    with _naming_estimate_lines(args.estimates, campaign_store):
        estimates = _estimates_in(args.estimates, campaign_store)
        paths = report_stage(campaign_store, args.out, params, records, estimates,
                             validation.AirportDatabase.bundled())
    for name in sorted(paths):
        print(paths[name])
    return EXIT_OK


class _TruthCsv(store._PartialFile):
    """Writes ``truth.csv``, a row per simulated visit; ``repr`` keeps each rate exact."""

    def __init__(self, path: Path):
        super().__init__(path)
        self._writer = csv.writer(self._fh, lineterminator="\n")
        self._writer.writerow(["server", "window_start_ns", "window_end_ns", "true_pps"])

    def append(self, row: tuple[str, int, int, float]) -> None:
        target, start_ns, end_ns, true_pps = row
        self._writer.writerow([target, start_ns, end_ns, repr(true_pps)])


def _cmd_simulate(args, params: probe.CampaignParams) -> int:
    """Run every stage against a virtual fleet: its DNS zone, a snapshot
    synthesized from its names, and its simulated echo transport."""
    fleet = simulation.SimulatedFleet.from_file(args.fleet)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    airports = validation.AirportDatabase.bundled()
    campaign_store = store.CampaignStore(out_dir / "store")

    # one parse of the fleet's names serves the word lists and the snapshot,
    # and is dropped before the crawl
    parsed = [names.parse_server_name(server.name, domain_suffix=fleet.domain_suffix)
              for server in fleet.servers]
    lists = derive_wordlists(parsed)
    snapshot, cdn_asns, isp_asns = synthesize_snapshot(fleet, parsed, airports)
    del parsed

    crawl_stage(campaign_store, None, lists, simulation.ZoneResolver(fleet.zone()), None,
                fleet.domain_suffix)
    records = _records_in(None, campaign_store)
    validate_stage(campaign_store, None, records, snapshot, cdn_asns, isp_asns, airports)

    targets = [a for r in records for a in r.addresses if ":" not in a]
    # a probe stage the store holds already writes no truth rows
    truth = None if campaign_store.stage_done("probe") else _TruthCsv(out_dir / "truth.csv")
    transport = simulation.SimulatedTransport(fleet, args.loss_rate, truth and truth.append)

    def write_truth(summary: probe.CampaignSummary) -> None:
        truth.commit()
        (out_dir / "reachability.json").write_text(json.dumps({
            "reachable": list(summary.reachable),
            "non_reachable": list(summary.unreachable),
            "visits": summary.visits_completed,
            "losses": summary.losses,
        }, indent=2, sort_keys=True) + "\n")

    try:
        probe_stage(campaign_store, None, params, targets, transport, write_truth)
    finally:
        if truth is not None:
            truth.close()

    estimate_stage(campaign_store, None, params.mtu_bytes, campaign_store.scan("samples"))
    with _naming_estimate_lines(None, campaign_store):
        estimates = _estimates_in(None, campaign_store)
        report_stage(campaign_store, out_dir, params, records, estimates, airports)
    print(f"simulated campaign complete: {len(records)} servers, "
          f"{len(estimates)} estimates, reports in {out_dir}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    logging.basicConfig(level=getattr(logging, args.log_level.upper()))
    try:
        params = load_config(args.config, vars(args))
        if args.command == "crawl":
            return _cmd_crawl(args)
        if args.command == "validate":
            return _cmd_validate(args)
        if args.command == "probe":
            return _cmd_probe(args, params)
        if args.command == "estimate":
            return _cmd_estimate(args, params)
        if args.command == "report":
            return _cmd_report(args, params)
        if args.command == "simulate":
            return _cmd_simulate(args, params)
        raise _UsageError(f"unknown command {args.command!r}")
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ConfigError, store.StoreError, discovery.ResolverUnavailable,
            probe.CapacityExceeded, TransportError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_STAGE
    except KeyboardInterrupt:
        # every stage writes to .partial files and commits only at its end
        print(f"error: interrupted; nothing was committed, rerun the {args.command} stage",
              file=sys.stderr)
        return EXIT_STAGE


if __name__ == "__main__":
    sys.exit(main())
