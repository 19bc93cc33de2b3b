"""Batch pipeline: raw sale log in, ranked network analytics out.

Subcommands mirror the analysis stages (``ingest``, ``rank``,
``concentration``, ``correlate``, ``profile``, ``report``) plus the
all-in-one ``run``. Every artifact is a plain CSV/JSON file, so stages can
be re-run independently from each other's outputs; ``run`` additionally
writes a manifest with a sha256 per artifact. Outputs are byte-identical
across runs for a fixed input and configuration.

Configuration precedence: built-in defaults, then an INI config file
(``--config``), then ``ARTRANK_<SECTION>_<KEY>`` environment variables,
then command-line flags. Example config::

    [input]
    path = sales.csv
    format = csv
    map = from=seller,to=buyer
    rates = rates.csv

    [hits]
    tolerance = 1e-10
    max_iterations = 1000

    [profiling]
    role_percentile = 0.95
    tie_rank = max

    [graph]
    unweighted_multiplicity = false

    [rankings]
    sort_by = authority

    [output]
    directory = out
"""

from __future__ import annotations

import argparse
import configparser
import csv
import hashlib
import json
import logging
import os
import sys
from dataclasses import dataclass, field
from itertools import chain
from pathlib import Path

import numpy as np

from . import centrality, econometrics, profiling, report
from .graph import CollectorArtistNetwork, Weighting, adjacency, build_network
from .ingest import (
    EventLog,
    RateTable,
    RejectReport,
    convert_currency,
    exact_sum,
    parse_events,
    write_csv_rows,
    write_events_csv,
)
from .profiling import METRIC_NAMES, MetricsTable

logger = logging.getLogger(__name__)

ENV_PREFIX = "ARTRANK"
LOCK_FILE = ".lock"

EVENTS_CSV = "events.csv"
INGEST_REPORT_JSON = "ingest_report.json"
EDGES_CSV = "edges.csv"
RANKINGS_CSV = "rankings.csv"
CORRELATION_CSV = "correlation.csv"
PROFILES_JSONL = "profiles.jsonl"
MATCHES_CSV = "matches.csv"
SUMMARY_JSON = "summary.json"
SUMMARY_TXT = "summary.txt"
HIST_SALES_CSV = "hist_sales.csv"
HIST_PURCHASES_CSV = "hist_purchases.csv"
FIGURE5_CSV = "figure5.csv"
MANIFEST_JSON = "manifest.json"

RANKINGS_HEADER = (
    "user",
    "authority",
    "w_authority",
    "hub",
    "w_hub",
    "in_degree",
    "out_degree",
    "in_strength",
    "out_strength",
    "trader_score",
)

SORT_KEYS = RANKINGS_HEADER


@dataclass
class RunConfig:
    """Resolved pipeline settings; see the module docstring for sources."""

    input_path: Path | None = None
    input_format: str = "csv"
    field_map: dict[str, str] = field(default_factory=dict)
    rates_path: Path | None = None
    out_dir: Path = Path("artrank-out")
    tolerance: float = centrality.DEFAULT_TOLERANCE
    max_iterations: int = centrality.DEFAULT_MAX_ITERATIONS
    role_percentile: float = 0.95
    tie_rank: str = profiling.TIE_RANK_MAX
    unweighted_multiplicity: bool = False
    sort_by: str = "authority"

    def hits_config(self) -> centrality.HitsConfig:
        return centrality.HitsConfig(
            tolerance=self.tolerance, max_iterations=self.max_iterations
        )

    def unweighted_scheme(self) -> Weighting:
        if self.unweighted_multiplicity:
            return Weighting.UNWEIGHTED_MULTIPLICITY
        return Weighting.UNWEIGHTED_BINARY

    def validate(self, need_input: bool = True) -> None:
        if need_input:
            if self.input_path is None:
                raise ValueError("no input path configured")
            if not self.input_path.exists():
                raise ValueError(f"input path does not exist: {self.input_path}")
        if self.rates_path is not None and not self.rates_path.exists():
            raise ValueError(f"rate table does not exist: {self.rates_path}")
        if self.input_format not in ("csv", "json"):
            raise ValueError(f"unsupported input format: {self.input_format}")
        if not 0 < self.role_percentile < 1:
            raise ValueError("role_percentile must be in (0, 1)")
        if self.tie_rank not in (profiling.TIE_RANK_MAX, profiling.TIE_RANK_MIN):
            raise ValueError(f"unknown tie_rank: {self.tie_rank}")
        if self.sort_by not in SORT_KEYS:
            raise ValueError(f"sort_by must be one of {', '.join(SORT_KEYS)}")
        self.hits_config()  # raises on bad tolerance / max_iterations


# ---------------------------------------------------------------------------
# Configuration resolution
# ---------------------------------------------------------------------------

def _parse_bool(raw: str) -> bool:
    text = raw.strip().lower()
    if text in ("1", "true", "yes", "on"):
        return True
    if text in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {raw!r}")


def _parse_map_string(raw: str) -> dict[str, str]:
    return _parse_map_items(raw.split(","))


# (section, key) -> (attribute, parser)
_CONFIG_KEYS = {
    ("input", "path"): ("input_path", Path),
    ("input", "format"): ("input_format", str),
    ("input", "map"): ("field_map", _parse_map_string),
    ("input", "rates"): ("rates_path", Path),
    ("hits", "tolerance"): ("tolerance", float),
    ("hits", "max_iterations"): ("max_iterations", int),
    ("profiling", "role_percentile"): ("role_percentile", float),
    ("profiling", "tie_rank"): ("tie_rank", str),
    ("graph", "unweighted_multiplicity"): ("unweighted_multiplicity", _parse_bool),
    ("output", "directory"): ("out_dir", Path),
    ("rankings", "sort_by"): ("sort_by", str),
}


def _parse_map_items(items) -> dict[str, str]:
    mapping: dict[str, str] = {}
    for item in items:
        item = item.strip()
        if not item:
            continue
        src, sep, dst = item.partition("=")
        if not sep or not src or not dst:
            raise ValueError(f"field map entries must look like src=dst, got {item!r}")
        mapping[src.strip()] = dst.strip()
    return mapping


def _apply_ini(cfg: RunConfig, path: Path) -> None:
    parser = configparser.ConfigParser()
    read = parser.read(path)
    if not read:
        raise ValueError(f"cannot read config file: {path}")
    for (section, key), (attr, convert) in _CONFIG_KEYS.items():
        if parser.has_option(section, key):
            raw = parser.get(section, key)
            try:
                setattr(cfg, attr, convert(raw))
            except ValueError as exc:
                raise ValueError(f"config [{section}] {key}: {exc}") from None


def _apply_env(cfg: RunConfig, environ=os.environ) -> None:
    for (section, key), (attr, convert) in _CONFIG_KEYS.items():
        name = f"{ENV_PREFIX}_{section}_{key}".upper()
        if name in environ:
            try:
                setattr(cfg, attr, convert(environ[name]))
            except ValueError as exc:
                raise ValueError(f"environment {name}: {exc}") from None


def _apply_args(cfg: RunConfig, args: argparse.Namespace) -> None:
    direct = {
        "input_path": "input_path",
        "input_format": "input_format",
        "rates_path": "rates_path",
        "out_dir": "out_dir",
        "tolerance": "tolerance",
        "max_iterations": "max_iterations",
        "role_percentile": "role_percentile",
        "tie_rank": "tie_rank",
        "sort_by": "sort_by",
    }
    for arg_name, attr in direct.items():
        value = getattr(args, arg_name, None)
        if value is not None:
            setattr(cfg, attr, value)
    if getattr(args, "field_map", None):
        cfg.field_map = _parse_map_items(args.field_map)
    if getattr(args, "unweighted_multiplicity", False):
        cfg.unweighted_multiplicity = True


def _resolve_config(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig()
    config_path = getattr(args, "config", None)
    if config_path is not None:
        _apply_ini(cfg, Path(config_path))
    _apply_env(cfg)
    _apply_args(cfg, args)
    return cfg


# ---------------------------------------------------------------------------
# Deterministic artifact writing
# ---------------------------------------------------------------------------


class ArtifactWriter:
    """Writes named files under one directory and records their hashes."""

    def __init__(self, out_dir: Path):
        self.out_dir = out_dir
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.written: list[str] = []

    def _register(self, name: str) -> Path:
        if name not in self.written:
            self.written.append(name)
        return self.out_dir / name

    def csv(self, name: str, header, rows) -> None:
        path = self._register(name)
        with path.open("w", encoding="utf-8", newline="") as handle:
            write_csv_rows(handle, chain([header], rows))

    def json(self, name: str, payload) -> None:
        path = self._register(name)
        path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")

    def text(self, name: str, content: str) -> None:
        path = self._register(name)
        path.write_text(content, encoding="utf-8")

    def jsonl(self, name: str, records) -> None:
        path = self._register(name)
        with path.open("w", encoding="utf-8", newline="") as handle:
            for record in records:
                handle.write(json.dumps(record) + "\n")

    def events(self, name: str, log: EventLog) -> None:
        path = self._register(name)
        with path.open("w", encoding="utf-8", newline="") as handle:
            write_events_csv(log, handle)

    def manifest(self) -> dict:
        entries = []
        for name in sorted(self.written):
            path = self.out_dir / name
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
            entries.append({"name": name, "sha256": digest, "size": path.stat().st_size})
        payload = {"files": entries}
        self.json(MANIFEST_JSON, payload)
        return payload


class _OutputLock:
    """Exclusive ownership of an output directory for the duration of a run."""

    def __init__(self, out_dir: Path):
        self.path = out_dir / LOCK_FILE
        out_dir.mkdir(parents=True, exist_ok=True)

    def __enter__(self):
        try:
            fd = os.open(self.path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            raise RuntimeError(
                f"output directory is locked by another run: {self.path}"
            ) from None
        os.close(fd)
        return self

    def __exit__(self, *exc_info):
        try:
            os.unlink(self.path)
        except FileNotFoundError:
            pass
        return False


# ---------------------------------------------------------------------------
# Pipeline stages
# ---------------------------------------------------------------------------


def _ingest_stage(cfg: RunConfig) -> tuple[EventLog, list[RejectReport]]:
    with open(cfg.input_path, "rb") as handle:
        log, rejects = parse_events(
            handle,
            fmt=cfg.input_format,
            field_map=cfg.field_map,
            source=cfg.input_path.name,
        )
    if cfg.rates_path is not None:
        with open(cfg.rates_path, "rb") as handle:
            rates = RateTable.from_csv(handle)
        log = convert_currency(log, rates)
    return log, rejects


def _ingest_report(log: EventLog, rejects: list[RejectReport], fmt: str) -> dict:
    return {
        "source": log.source,
        "format": fmt,
        "total_records": log.total_records,
        "accepted": log.accepted_count,
        "rejected": log.rejected_count,
        "zero_price_events": log.zero_price_count,
        "needs_conversion": log.needs_conversion_count,
        "rejects": [{"row": r.row, "reason": r.reason} for r in rejects],
    }


def _load_events_csv(path: Path) -> EventLog:
    with open(path, "rb") as handle:
        log, rejects = parse_events(handle, fmt="csv", source=path.name)
    if rejects:
        raise ValueError(
            f"{len(rejects)} invalid record(s) in {path}; regenerate it with `ingest`"
        )
    return log


def _rank_stage(
    log: EventLog, cfg: RunConfig
) -> tuple[CollectorArtistNetwork, MetricsTable, np.ndarray]:
    net = build_network(log)
    hits_cfg = cfg.hits_config()
    unweighted = centrality.hits(adjacency(net, cfg.unweighted_scheme()), hits_cfg)
    weighted = centrality.hits(adjacency(net, Weighting.WEIGHTED_USD), hits_cfg)
    for weighting, scores in (
        (cfg.unweighted_scheme(), unweighted),
        (Weighting.WEIGHTED_USD, weighted),
    ):
        if not scores.converged:
            logger.warning(
                "HITS (%s) did not converge: %d iterations, residual %.3g",
                weighting.value,
                scores.iterations_used,
                scores.residual,
            )
    degrees = centrality.degree_metrics(net)
    table = profiling.build_metrics_table(net, degrees, unweighted, weighted)
    trader = centrality.trader_score(unweighted)
    return net, table, trader


def _rankings_rows(table: MetricsTable, trader: np.ndarray, sort_by: str) -> list[list[str]]:
    records = []
    for i, user in enumerate(table.users):
        row = {name: table.values[i, j] for j, name in enumerate(METRIC_NAMES)}
        row["user"] = user
        row["trader_score"] = float(trader[i])
        records.append(row)
    if sort_by == "user":
        records.sort(key=lambda r: r["user"])
    else:
        records.sort(key=lambda r: (-r[sort_by], r["user"]))
    out = []
    for r in records:
        out.append(
            [
                r["user"],
                str(r["authority"]),
                str(r["w_authority"]),
                str(r["hub"]),
                str(r["w_hub"]),
                str(int(r["in_degree"])),
                str(int(r["out_degree"])),
                str(r["in_strength"]),
                str(r["out_strength"]),
                str(r["trader_score"]),
            ]
        )
    return out


def _edge_rows(net: CollectorArtistNetwork):
    """``collector,artist,total_usd,sale_count`` rows sorted by (collector, artist) id."""
    by_id = np.array(sorted(range(net.node_count), key=net.users.__getitem__), dtype=np.int64)
    id_rank = np.empty_like(by_id)
    id_rank[by_id] = np.arange(len(by_id))
    order = np.lexsort((id_rank[net.artist], id_rank[net.collector]))
    users = np.array(net.users, dtype=object)
    return zip(
        users[net.collector[order]].tolist(),
        users[net.artist[order]].tolist(),
        map(str, net.total_usd[order].tolist()),
        map(str, net.sale_count[order].tolist()),
    )


def load_rankings_csv(path: Path) -> tuple[MetricsTable, np.ndarray]:
    """Rebuild the metrics table (and trader scores) from a rankings artifact."""
    with open(path, encoding="utf-8", newline="") as handle:
        reader = csv.DictReader(handle)
        missing = set(RANKINGS_HEADER) - set(reader.fieldnames or ())
        if missing:
            raise ValueError(f"rankings file lacks columns: {', '.join(sorted(missing))}")
        users = []
        values = []
        trader = []
        for record in reader:
            users.append(record["user"])
            values.append([float(record[name]) for name in METRIC_NAMES])
            trader.append(float(record["trader_score"]))
    table = MetricsTable(
        users=tuple(users),
        values=np.array(values, dtype=np.float64).reshape(len(users), len(METRIC_NAMES)),
    )
    return table, np.array(trader)


def _write_lorenz(writer: ArtifactWriter, stem: str, volumes: dict) -> None:
    curve = econometrics.lorenz([float(v) for v in volumes.values()])
    writer.csv(
        f"{stem}.csv",
        ("pop_share", "vol_share"),
        ([str(p), str(v)] for p, v in curve.points),
    )
    writer.json(
        f"{stem}.json",
        {
            "gini": curve.gini,
            "n": len(volumes),
            "total": float(exact_sum(volumes.values())),
        },
    )


def _correlation_rows(matrix: econometrics.CorrelationMatrix) -> list[list[str]]:
    rows = []
    for label, row in zip(matrix.labels, matrix.values):
        rows.append([label] + [str(v) for v in row])
    return rows


def _profile_records(profiles: list[profiling.UserProfile]) -> list[dict]:
    # canonical user order, independent of the metrics-table row order
    records = []
    for p in sorted(profiles, key=lambda p: p.user_id):
        records.append(
            {
                "user": p.user_id,
                "role": p.role.value,
                "artist_code": p.artist_code,
                "collector_code": p.collector_code,
                "normalized": {
                    name: value for name, value in zip(METRIC_NAMES, p.normalized)
                },
                "trader_score": p.trader_score,
            }
        )
    return records


def _histogram_rows(edges: np.ndarray, counts: np.ndarray) -> list[list[str]]:
    return [
        [str(edges[i]), str(edges[i + 1]), str(int(counts[i]))]
        for i in range(len(counts))
    ]


def _write_report_artifacts(
    writer: ArtifactWriter,
    log: EventLog,
    net: CollectorArtistNetwork,
    table: MetricsTable,
    profiles: list[profiling.UserProfile],
) -> None:
    summary = report.summarize(log, net)
    writer.json(SUMMARY_JSON, summary.to_dict())
    writer.text(SUMMARY_TXT, summary.to_text())
    for name, dimension in (
        (HIST_SALES_CSV, report.DIMENSION_SALES),
        (HIST_PURCHASES_CSV, report.DIMENSION_PURCHASES),
    ):
        edges, counts = report.histogram_data(table, dimension)
        writer.csv(name, ("bin_low", "bin_high", "count"), _histogram_rows(edges, counts))
    rows = [
        [user] + [str(v) for v in values]
        for user, values in sorted(report.figure5_data(profiles))
    ]
    writer.csv(FIGURE5_CSV, ("user",) + report.FIGURE_MEASURES, rows)


# ---------------------------------------------------------------------------
# Subcommand handlers
# ---------------------------------------------------------------------------


def _cmd_ingest(args: argparse.Namespace) -> int:
    cfg = _resolve_config(args)
    cfg.validate()
    log, rejects = _ingest_stage(cfg)
    writer = ArtifactWriter(cfg.out_dir)
    writer.events(EVENTS_CSV, log)
    writer.json(INGEST_REPORT_JSON, _ingest_report(log, rejects, cfg.input_format))
    for reject in rejects:
        logger.warning("record %d rejected: %s", reject.row, reject.reason)
    print(
        f"ingested {log.accepted_count}/{log.total_records} records"
        f" ({log.rejected_count} rejected) -> {cfg.out_dir / EVENTS_CSV}"
    )
    return 0


def _cmd_rank(args: argparse.Namespace) -> int:
    cfg = _resolve_config(args)
    cfg.validate(need_input=False)
    log = _load_events_csv(Path(args.events))
    net, table, trader = _rank_stage(log, cfg)
    writer = ArtifactWriter(cfg.out_dir)
    writer.csv(RANKINGS_CSV, RANKINGS_HEADER, _rankings_rows(table, trader, cfg.sort_by))
    writer.csv(EDGES_CSV, ("collector", "artist", "total_usd", "sale_count"), _edge_rows(net))
    print(
        f"ranked {net.node_count} users over {net.edge_count} edges"
        f" -> {cfg.out_dir / RANKINGS_CSV}"
    )
    return 0


def _cmd_concentration(args: argparse.Namespace) -> int:
    cfg = _resolve_config(args)
    cfg.validate(need_input=False)
    log = _load_events_csv(Path(args.events))
    writer = ArtifactWriter(cfg.out_dir)
    _write_lorenz(writer, "lorenz_sellers", report.volume_by_seller(log))
    _write_lorenz(writer, "lorenz_buyers", report.volume_by_buyer(log))
    print(f"wrote Lorenz/Gini files to {cfg.out_dir}")
    return 0


def _cmd_correlate(args: argparse.Namespace) -> int:
    cfg = _resolve_config(args)
    cfg.validate(need_input=False)
    table, _ = load_rankings_csv(Path(args.rankings))
    matrix = econometrics.correlation_matrix(table)
    writer = ArtifactWriter(cfg.out_dir)
    writer.csv(
        CORRELATION_CSV, ("metric",) + matrix.labels, _correlation_rows(matrix)
    )
    print(f"wrote correlation matrix -> {cfg.out_dir / CORRELATION_CSV}")
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    cfg = _resolve_config(args)
    cfg.validate(need_input=False)
    table, _ = load_rankings_csv(Path(args.rankings))
    profiles = profiling.build_profiles(table, cfg.role_percentile, cfg.tie_rank)
    writer = ArtifactWriter(cfg.out_dir)
    writer.jsonl(PROFILES_JSONL, _profile_records(profiles))
    if args.match is not None:
        matched = set(profiling.match_code(profiles, args.match, which=args.match_which))
        rows = [
            [p.user_id, p.role.value, p.artist_code, p.collector_code]
            for p in sorted(profiles, key=lambda p: p.user_id)
            if p.user_id in matched
        ]
        writer.csv(MATCHES_CSV, ("user", "role", "artist_code", "collector_code"), rows)
        print(f"{len(rows)} user(s) match {args.match!r} -> {cfg.out_dir / MATCHES_CSV}")
    print(f"profiled {len(profiles)} users -> {cfg.out_dir / PROFILES_JSONL}")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    cfg = _resolve_config(args)
    cfg.validate(need_input=False)
    log = _load_events_csv(Path(args.events))
    table, _ = load_rankings_csv(Path(args.rankings))
    net = build_network(log)
    profiles = profiling.build_profiles(table, cfg.role_percentile, cfg.tie_rank)
    writer = ArtifactWriter(cfg.out_dir)
    _write_report_artifacts(writer, log, net, table, profiles)
    print((cfg.out_dir / SUMMARY_TXT).read_text(), end="")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    cfg = _resolve_config(args)
    cfg.validate()
    with _OutputLock(cfg.out_dir):
        writer = ArtifactWriter(cfg.out_dir)
        # a manifest exists only once it matches every artifact beside it
        (cfg.out_dir / MANIFEST_JSON).unlink(missing_ok=True)

        log, rejects = _ingest_stage(cfg)
        writer.events(EVENTS_CSV, log)
        writer.json(INGEST_REPORT_JSON, _ingest_report(log, rejects, cfg.input_format))

        net, table, trader = _rank_stage(log, cfg)
        writer.csv(RANKINGS_CSV, RANKINGS_HEADER, _rankings_rows(table, trader, cfg.sort_by))
        writer.csv(
            EDGES_CSV, ("collector", "artist", "total_usd", "sale_count"), _edge_rows(net)
        )

        _write_lorenz(writer, "lorenz_sellers", report.volume_by_seller(log))
        _write_lorenz(writer, "lorenz_buyers", report.volume_by_buyer(log))

        matrix = econometrics.correlation_matrix(table)
        writer.csv(CORRELATION_CSV, ("metric",) + matrix.labels, _correlation_rows(matrix))

        profiles = profiling.build_profiles(table, cfg.role_percentile, cfg.tie_rank)
        writer.jsonl(PROFILES_JSONL, _profile_records(profiles))

        _write_report_artifacts(writer, log, net, table, profiles)

        manifest = writer.manifest()
    print(
        f"run complete: {len(manifest['files'])} artifacts in {cfg.out_dir}"
        f" ({log.rejected_count} rejected records)"
    )
    return 0


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="artrank",
        description="Rank artists and collectors from an art-market sale log.",
        epilog=(
            "Config keys (INI sections) and their environment overrides: "
            "[input] path/format/map/rates (ARTRANK_INPUT_*), "
            "[hits] tolerance/max_iterations (ARTRANK_HITS_*), "
            "[profiling] role_percentile/tie_rank (ARTRANK_PROFILING_*), "
            "[graph] unweighted_multiplicity (ARTRANK_GRAPH_*), "
            "[rankings] sort_by (ARTRANK_RANKINGS_*), "
            "[output] directory (ARTRANK_OUTPUT_DIRECTORY). "
            "Flags take precedence over environment variables and config."
        ),
    )
    parser.add_argument("--verbose", action="store_true", help="log at INFO level")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="FILE", help="INI config file")
    common.add_argument(
        "--out", dest="out_dir", type=Path, metavar="DIR", help="output directory"
    )

    raw_input = argparse.ArgumentParser(add_help=False)
    raw_input.add_argument(
        "input_path",
        type=Path,
        nargs="?",
        metavar="INPUT",
        help="raw sale log (may instead come from config or environment)",
    )
    raw_input.add_argument(
        "--format",
        dest="input_format",
        choices=("csv", "json"),
        help="input format (default csv)",
    )
    raw_input.add_argument(
        "--map",
        dest="field_map",
        action="append",
        metavar="SRC=DST",
        help="rename a source column to a canonical field (repeatable)",
    )
    raw_input.add_argument(
        "--rates",
        dest="rates_path",
        type=Path,
        metavar="FILE",
        help="date,usd_per_eth CSV for ETH-to-USD conversion",
    )

    rank_opts = argparse.ArgumentParser(add_help=False)
    rank_opts.add_argument(
        "--tolerance", type=float, help="L1 convergence threshold (default 1e-10)"
    )
    rank_opts.add_argument(
        "--max-iterations",
        dest="max_iterations",
        type=int,
        help="power-iteration cap (default 1000)",
    )
    rank_opts.add_argument(
        "--unweighted-multiplicity",
        dest="unweighted_multiplicity",
        action="store_true",
        default=None,
        help="use sale counts instead of 0/1 for the unweighted view",
    )
    rank_opts.add_argument(
        "--sort-by",
        dest="sort_by",
        choices=SORT_KEYS,
        help="rankings sort key (default authority)",
    )

    profile_opts = argparse.ArgumentParser(add_help=False)
    profile_opts.add_argument(
        "--role-percentile",
        dest="role_percentile",
        type=float,
        help="quadrant threshold for role labels (default 0.95)",
    )
    profile_opts.add_argument(
        "--tie-rank",
        dest="tie_rank",
        choices=(profiling.TIE_RANK_MAX, profiling.TIE_RANK_MIN),
        help="percentile convention for tied scores (default max)",
    )

    p = sub.add_parser(
        "ingest",
        parents=[common, raw_input],
        help="validate a raw log into the canonical event CSV",
    )
    p.set_defaults(handler=_cmd_ingest)

    p = sub.add_parser(
        "rank",
        parents=[common, rank_opts],
        help="build the network and write rankings and edge list",
    )
    p.add_argument("events", metavar="EVENTS_CSV", help="canonical event CSV")
    p.set_defaults(handler=_cmd_rank)

    p = sub.add_parser(
        "concentration",
        parents=[common],
        help="Lorenz curves and Gini indexes for seller and buyer volumes",
    )
    p.add_argument("events", metavar="EVENTS_CSV", help="canonical event CSV")
    p.set_defaults(handler=_cmd_concentration)

    p = sub.add_parser(
        "correlate",
        parents=[common],
        help="Kendall correlation matrix over the 8 metrics",
    )
    p.add_argument("rankings", metavar="RANKINGS_CSV", help="rankings artifact")
    p.set_defaults(handler=_cmd_correlate)

    p = sub.add_parser(
        "profile",
        parents=[common, profile_opts],
        help="role labels, level codes, and normalized vectors per user",
    )
    p.add_argument("rankings", metavar="RANKINGS_CSV", help="rankings artifact")
    p.add_argument(
        "--match",
        metavar="PATTERN",
        help="also write users whose code matches, '*' wildcards (e.g. 'AC**')",
    )
    p.add_argument(
        "--match-which",
        dest="match_which",
        choices=("artist", "collector", "full"),
        default="artist",
        help="which code the pattern applies to (default artist)",
    )
    p.set_defaults(handler=_cmd_profile)

    p = sub.add_parser(
        "report",
        parents=[common, profile_opts],
        help="summary statistics and figure data tables",
    )
    p.add_argument("events", metavar="EVENTS_CSV", help="canonical event CSV")
    p.add_argument("rankings", metavar="RANKINGS_CSV", help="rankings artifact")
    p.set_defaults(handler=_cmd_report)

    p = sub.add_parser(
        "run",
        parents=[common, raw_input, rank_opts, profile_opts],
        help="full pipeline with a hashed artifact manifest",
    )
    p.set_defaults(handler=_cmd_run)

    return parser


def main(argv: list[str] | None = None) -> int:
    """Console entry point; returns the process exit status."""
    args = _build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return args.handler(args)
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
