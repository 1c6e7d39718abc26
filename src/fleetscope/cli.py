"""Command-line interface: enumerate, crawl, validate, probe, estimate,
report, and the end-to-end simulate pipeline.

Each stage is one function that its subcommand and ``simulate`` share.
``--config`` and ``--seed`` are loaded once and reach every stage.

Exit codes: 0 success, 1 usage error, 2 stage failure.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import logging
import sys
from dataclasses import replace
from pathlib import Path
from typing import Iterable

from . import analytics, discovery, ipid, names, probe, simulation, store, validation
from .config import CampaignConfig, ConfigError, load_config, parse_duration_s
from .transport import EchoTransport, TransportError

logger = logging.getLogger(__name__)

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

    p = sub.add_parser("enumerate", help="print candidate hostnames from wordlists")
    p.add_argument("--wordlists", required=True, help="directory with airports.txt etc.")
    p.add_argument("--max-counter", type=int, default=5)
    p.add_argument("--max-site-counter", type=int, default=1)
    p.add_argument("--limit", type=int, default=None)
    p.add_argument("--count-only", action="store_true")

    p = sub.add_parser("crawl", help="resolve candidates and record the hits")
    p.add_argument("--wordlists", required=True)
    p.add_argument("--resolver", default="system", help="'system' or 'zone:FLEET.json'")
    p.add_argument("--rate", type=float, default=500.0, help="queries per second (0 = unlimited)")
    p.add_argument("--max-counter", type=int, default=5)
    p.add_argument("--max-site-counter", type=int, default=1)
    p.add_argument("--out", default=None, help="records JSON-lines file (or use --store)")

    p = sub.add_parser("validate", help="geo/ASN cross-checks for discovered records")
    p.add_argument("--records", default=None, help="records file (or use --store)")
    p.add_argument("--snapshot", required=True, help="prefix,country,reg_country,asn,holder CSV")
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
    p.add_argument("--interval", default=None)
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


class _JsonlSink:
    """One stage's output rows, sent to a store stream and/or a file in the
    stream's format (JSON lines, or sample frames for the probe stage).

    Rows land in ``.partial`` files; ``commit`` renames them into place and
    then marks the stage done, so a stage interrupted mid-write leaves its
    previous output untouched and runs again from the start.
    """

    def __init__(self, campaign_store: store.CampaignStore | None, stream: str, out: str | None):
        self._store = campaign_store
        self._stream = stream
        self._file = store.open_writer(stream, out) if out else None

    def add(self, row) -> None:
        if self._store is not None:
            self._store.append(self._stream, row)
        if self._file is not None:
            self._file.append(row)

    def add_visit(self, visit: probe.VisitLog) -> None:
        self.add(visit)

    def commit(self, stage: str) -> None:
        if self._file is not None:
            self._file.commit()
        if self._store is not None:
            self._store.commit(self._stream)
            self._store.mark_stage_done(stage)

    def close(self) -> None:
        if self._file is not None:
            self._file.close()


@contextlib.contextmanager
def _stage_output(campaign_store: store.CampaignStore | None, stage: str, stream: str, out):
    """Yield the sink for a stage's rows and commit it when the block ends;
    yield None, before any work is done, if the store already holds them."""
    if campaign_store is not None and campaign_store.stage_done(stage):
        print(f"{stage} stage already complete; nothing to do")
        yield None
        return
    sink = _JsonlSink(campaign_store, stream, out)
    try:
        yield sink
        sink.commit(stage)
    finally:
        sink.close()


def derive_wordlists(fleet: simulation.SimulatedFleet) -> names.Wordlists:
    """Word lists covering exactly the dimensions present in a fleet."""
    parsed = [names.parse_server_name(s.name, domain_suffix=fleet.domain_suffix)
              for s in fleet.servers]
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
    fleet: simulation.SimulatedFleet, airports: validation.AirportDatabase
) -> tuple[validation.AddressSnapshot, set[int], dict[str, list[int]]]:
    """Per-address metadata consistent with the fleet's own naming.

    IXP addresses map to a private-use CDN ASN, ISP addresses to one
    private-use ASN per label; countries come from the airport claim.
    """
    isp_labels = sorted(
        {n.isp_label for n in (names.parse_server_name(s.name, domain_suffix=fleet.domain_suffix)
                               for s in fleet.servers) if n.isp_label}
    )
    isp_asn_table = {label: [64501 + i] for i, label in enumerate(isp_labels)}
    rows = []
    for server in fleet.servers:
        parsed = names.parse_server_name(server.name, domain_suffix=fleet.domain_suffix)
        country = (
            airports.country(parsed.airport_code)
            if parsed.airport_code in airports
            else "zz"
        )
        asn = SIM_CDN_ASN if parsed.is_ixp else isp_asn_table[parsed.isp_label][0]
        holder = "cdn" if parsed.is_ixp else parsed.isp_label
        rows.append((f"{server.address}/32", country, country, asn, holder))
    return validation.AddressSnapshot(rows), {SIM_CDN_ASN}, isp_asn_table


# -- stages: each is called by its subcommand and by simulate. Output goes to
# ``campaign_store`` and/or ``out`` (a path, written in the stream's format);
# a stage the store already holds returns None.


def crawl_stage(campaign_store, out, lists: names.Wordlists, resolver: discovery.Resolver,
                policy: discovery.CrawlPolicy, domain_suffix: str = names.DEFAULT_DOMAIN_SUFFIX
                ) -> list[discovery.ServerRecord] | None:
    """Resolve every candidate name and write the hits as records."""
    with _stage_output(campaign_store, "crawl", "records", out) as sink:
        if sink is None:
            return None
        records = discovery.run_crawl(lists, resolver, policy, domain_suffix=domain_suffix)
        for record in records:
            sink.add(record.to_json())
    return records


def validate_stage(campaign_store, out, records: list[discovery.ServerRecord],
                   snapshot: validation.AddressSnapshot, cdn_asns: set[int],
                   isp_asns: dict[str, list[int]], airports: validation.AirportDatabase) -> None:
    """Write one geo and ASN verdict per record."""
    with _stage_output(campaign_store, "validate", "verdicts", out) as sink:
        if sink is None:
            return
        for record in records:
            geo = validation.geo_crosscheck(record, snapshot, cdn_asns, airports)
            asn = validation.asn_crosscheck(record, snapshot, cdn_asns, isp_asns)
            sink.add({
                "v": 1,
                "name": record.hostname,
                "geo": {"verdict": geo.verdict, "mismatch_class": geo.mismatch_class,
                        "expected_country": geo.expected_country,
                        "observed_country": geo.observed_country},
                "asn": {"verdict": asn.verdict, "observed_asn": asn.observed_asn,
                        "expected_owner": asn.expected_owner, "isp": asn.isp_label},
            })


def probe_stage(campaign_store, out, config: CampaignConfig, targets: list[str],
                transport: EchoTransport) -> probe.CampaignSummary | None:
    """Run the ID-sampling campaign and write every probe as a sample."""
    with _stage_output(campaign_store, "probe", "samples", out) as sink:
        if sink is None:
            return None
        summary = probe.run_campaign(targets, config.campaign, transport, sink)
    return summary


def estimate_stage(campaign_store, out, config: CampaignConfig,
                   frames: Iterable[store.VisitFrame]) -> None:
    """Estimate each visit as its frame is read, then write every target's
    series, flagged by ``ipid.flag_series``, in target order."""
    with _stage_output(campaign_store, "estimate", "estimates", out) as sink:
        if sink is None:
            return
        interval_s = config.campaign.probe_interval_s
        per_target: dict[str, list[ipid.RateEstimate]] = {}
        for frame in frames:
            try:
                est = ipid.estimate_replies(frame.target, frame.start_ns, frame.end_ns,
                                            *frame.replies(), interval_s,
                                            config.campaign.mtu_bytes)
            except (ipid.InsufficientSamples, ipid.NotACounter) as exc:
                logger.debug("skipping visit of %s: %s", frame.target, exc)
                continue
            per_target.setdefault(frame.target, []).append(est)
        for target in sorted(per_target):
            for est in ipid.flag_series(per_target[target], interval_s):
                sink.add(est.to_json())


def report_stage(out_dir, config: CampaignConfig, records: list[discovery.ServerRecord],
                 estimates: list[ipid.RateEstimate], airports: validation.AirportDatabase
                 ) -> dict[str, Path]:
    """Write the report files, binned by the revisit period; always rewritten."""
    return analytics.write_reports(out_dir, records, estimates, airports,
                                   validation.load_continent_table(),
                                   bin_s=config.campaign.revisit_period_s)


# -- subcommands -------------------------------------------------------------


def _cmd_enumerate(args) -> int:
    lists = names.Wordlists.from_dir(
        args.wordlists,
        max_server_counter=args.max_counter,
        max_site_counter=args.max_site_counter,
    )
    if args.count_only:
        print(names.candidate_count(lists))
        return EXIT_OK
    for i, candidate in enumerate(names.enumerate_candidates(lists)):
        if args.limit is not None and i >= args.limit:
            break
        print(candidate)
    return EXIT_OK


def _make_resolver(spec: str):
    if spec == "system":
        return discovery.SystemResolver()
    if spec.startswith("zone:"):
        fleet = simulation.SimulatedFleet.from_file(spec[len("zone:"):])
        return simulation.ZoneResolver(fleet.zone())
    raise _UsageError(f"unknown resolver {spec!r}")


def _open_store(args, create: bool = True):
    """The global --store as a context manager; a null context without one."""
    if args.store is None:
        return contextlib.nullcontext()
    return store.CampaignStore(args.store, create=create)


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
    return [discovery.ServerRecord.from_json(obj)
            for obj in _rows_in(path, campaign_store, "records")]


def _estimates_in(path: str | None, campaign_store) -> list[ipid.RateEstimate]:
    return [ipid.RateEstimate.from_json(obj)
            for obj in _rows_in(path, campaign_store, "estimates")]


def _cmd_crawl(args) -> int:
    _require_out(args, "crawl")
    lists = names.Wordlists.from_dir(
        args.wordlists,
        max_server_counter=args.max_counter,
        max_site_counter=args.max_site_counter,
    )
    resolver = _make_resolver(args.resolver)
    policy = discovery.CrawlPolicy(
        max_queries_per_second=None if args.rate == 0 else args.rate
    )
    with _open_store(args) as campaign_store:
        records = crawl_stage(campaign_store, args.out, lists, resolver, policy)
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
    isp_asns = {}
    if args.isp_asns:
        isp_asns = {k: [int(a) for a in v] for k, v in json.loads(Path(args.isp_asns).read_text()).items()}
    airports = (
        validation.AirportDatabase.from_csv(args.airports, args.aliases)
        if args.airports
        else validation.AirportDatabase.bundled(with_aliases=bool(args.aliases))
    )
    with _open_store(args, create=args.records is not None) as campaign_store:
        records = _records_in(args.records, campaign_store)
        validate_stage(campaign_store, args.out, records, snapshot, cdn_asns, isp_asns, airports)
    return EXIT_OK


def _campaign_params(config: CampaignConfig, args) -> probe.CampaignParams:
    """``config.campaign`` with ``config.seed`` and the command's
    --interval, --dwell, --workers and --duration applied."""
    overrides = {"seed": config.seed}
    for flag, fieldname in (("interval", "probe_interval_s"), ("dwell", "dwell_s"),
                            ("duration", "total_duration_s")):
        if getattr(args, flag, None):
            overrides[fieldname] = parse_duration_s(getattr(args, flag), flag)
    if getattr(args, "workers", None):
        overrides["workers"] = args.workers
    return replace(config.campaign, **overrides)


def _cmd_probe(args, config: CampaignConfig) -> int:
    _require_out(args, "probe")
    targets = [line.strip() for line in Path(args.targets).read_text().splitlines()
               if line.strip() and ":" not in line]  # ID sampling is IPv4-only
    if args.transport.startswith("sim:"):
        fleet = simulation.SimulatedFleet.from_file(args.transport[len("sim:"):])
        transport = simulation.SimulatedTransport(fleet)
    elif args.transport == "raw":
        from .transport import RawIcmpTransport

        transport = RawIcmpTransport()
    else:
        raise _UsageError(f"unknown transport {args.transport!r}")
    with _open_store(args) as campaign_store:
        summary = probe_stage(campaign_store, args.out, config, targets, transport)
    if summary is not None:
        print(f"visits={summary.visits_completed} probes={summary.probes_sent} "
              f"losses={summary.losses} reachable={len(summary.reachable)} "
              f"non_reachable={len(summary.unreachable)}")
    return EXIT_OK


def _cmd_estimate(args, config: CampaignConfig) -> int:
    _require_out(args, "estimate")
    with _open_store(args, create=args.samples is not None) as campaign_store:
        estimate_stage(campaign_store, args.out, config,
                       _rows_in(args.samples, campaign_store, "samples"))
    return EXIT_OK


def _cmd_report(args, config: CampaignConfig) -> int:
    with _open_store(args, create=False) as campaign_store:
        records = _records_in(args.records, campaign_store)
        estimates = _estimates_in(args.estimates, campaign_store)
    airports = validation.AirportDatabase.bundled(with_aliases=True)
    paths = report_stage(args.out, config, records, estimates, airports)
    for name in sorted(paths):
        print(paths[name])
    return EXIT_OK


def _cmd_simulate(args, config: CampaignConfig) -> int:
    """Run every stage against a virtual fleet: its DNS zone, a snapshot
    synthesized from its names, and its simulated echo transport."""
    fleet = simulation.SimulatedFleet.from_file(args.fleet)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    airports = validation.AirportDatabase.bundled(with_aliases=True)

    with store.CampaignStore(out_dir / "store") as campaign_store:
        policy = discovery.CrawlPolicy(max_queries_per_second=None, retries=1, retry_backoff_s=0.0)
        crawl_stage(campaign_store, None, derive_wordlists(fleet),
                    simulation.ZoneResolver(fleet.zone()), policy, fleet.domain_suffix)
        records = _records_in(None, campaign_store)

        snapshot, cdn_asns, isp_asns = synthesize_snapshot(fleet, airports)
        validate_stage(campaign_store, None, records, snapshot, cdn_asns, isp_asns, airports)

        targets = [a for r in records for a in r.addresses if ":" not in a]
        transport = simulation.SimulatedTransport(fleet, loss_rate=args.loss_rate)
        summary = probe_stage(campaign_store, None, config, targets, transport)
        if summary is not None:
            fleet.export_truth_csv(out_dir / "truth.csv")
            (out_dir / "reachability.json").write_text(json.dumps({
                "reachable": list(summary.reachable),
                "non_reachable": list(summary.unreachable),
                "visits": summary.visits_completed,
                "losses": summary.losses,
            }, indent=2, sort_keys=True) + "\n")

        estimate_stage(campaign_store, None, config, campaign_store.scan("samples"))
        estimates = _estimates_in(None, campaign_store)
    report_stage(out_dir, config, records, estimates, airports)
    print(f"simulated campaign complete: {len(records)} servers, "
          f"{len(estimates)} estimates, reports in {out_dir}")
    return EXIT_OK


def _load_config(args) -> CampaignConfig:
    """The --config file (or defaults) with --seed and the command's
    campaign flags applied; every stage reads this one object."""
    config = load_config(args.config) if args.config else CampaignConfig()
    if args.seed is not None:
        config.seed = args.seed
    config.campaign = _campaign_params(config, args)
    return config


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    logging.basicConfig(level=getattr(logging, args.log_level.upper()))
    try:
        config = _load_config(args)
        if args.command == "enumerate":
            return _cmd_enumerate(args)
        if args.command == "crawl":
            return _cmd_crawl(args)
        if args.command == "validate":
            return _cmd_validate(args)
        if args.command == "probe":
            return _cmd_probe(args, config)
        if args.command == "estimate":
            return _cmd_estimate(args, config)
        if args.command == "report":
            return _cmd_report(args, config)
        if args.command == "simulate":
            return _cmd_simulate(args, config)
        raise _UsageError(f"unknown command {args.command!r}")
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ConfigError, store.StoreError, discovery.ResolverUnavailable,
            probe.CapacityExceeded, probe.Aborted, TransportError,
            OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_STAGE


if __name__ == "__main__":
    sys.exit(main())
