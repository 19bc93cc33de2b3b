"""Batch pipeline: raw sale log in, ranked network analytics out.

One table, ``STAGES``, defines the pipeline: ``ingest``, ``rank``,
``profile``, ``concentration``, ``correlate`` and ``report``. Each stage is
also a subcommand, and the all-in-one ``run`` executes them all in that
order. ``profile`` needs only ``rank``'s table, and it comes right after it
because ``profiles.jsonl`` is ``run``'s costliest write: its background
writer then overlaps three stages, not one.
Every artifact is a plain CSV/JSON file, so stages can be re-run
independently from each other's outputs. Every command writes through one
``artifacts.ArtifactWriter``, which owns the output directory; only ``run``
writes ``manifest.json``. In ``run``, every stage but the last (``report``)
hands its large artifacts (``events.csv``, ``rankings.csv``, ``edges.csv``,
the Lorenz CSVs and ``profiles.jsonl``, from ``columns.CSV_CHUNK_ROWS`` rows up) to
forked writers while the later stages compute, and the manifest joins them;
a stage subcommand writes every artifact in this process. ``ingest`` and
``run`` log one WARNING per rejected record. Outputs are byte-identical
across runs for a fixed input and configuration.

Configuration precedence: built-in defaults, then an INI config file
(``--config``), then ``ARTRANK_<SECTION>_<KEY>`` environment variables,
then command-line flags. One ``RunConfig`` field declares each setting: its
INI key, which names its environment variable, and its flag. Example config::

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
import csv
import json
import logging
import math
import os
import sys
from collections.abc import Callable, Iterable, Iterator, Sequence
from dataclasses import Field, dataclass, field, fields
from functools import cached_property
from pathlib import Path

import numpy as np

from . import centrality, econometrics, profiling, report
from .artifacts import ArtifactWriter
from .graph import CollectorArtistNetwork, Weighting, adjacency, build_network
from .ingest import (
    EventLog,
    IdColumn,
    RateTable,
    convert_currency,
    id_order,
    parse_events,
    read_text,
)
from .profiling import METRIC_NAMES, MetricsTable, Profiles

logger = logging.getLogger(__name__)

ENV_PREFIX = "ARTRANK"

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
COUNT_COLUMNS = ("in_degree", "out_degree")  # rankings columns written as integers

# one profiles.jsonl line as json.dumps writes the record: the user id goes in
# as json.dumps text, each float by repr, which is what json writes for a finite float
_PROFILE_LINE = (
    '{"user": %s, "role": "%s", "artist_code": "%s", "collector_code": "%s", "normalized": {'
    + ", ".join(f'"{name}": %r' for name in METRIC_NAMES)
    + '}, "trader_score": %r}\n'
)
# profiles.jsonl is formatted this many lines at a time, so its text never exists whole
_PROFILE_CHUNK_ROWS = 1 << 12
# each role's name at its index in profiling.ROLES
_ROLE_NAMES = np.array([role.value for role in profiling.ROLES])


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------

# the texts of configparser.ConfigParser.BOOLEAN_STATES, which is imported
# only to read a config file
_BOOLEANS = {
    "1": True, "yes": True, "true": True, "on": True,
    "0": False, "no": False, "false": False, "off": False,
}


def _parse_bool(raw: str) -> bool:
    try:
        return _BOOLEANS[raw.strip().lower()]
    except KeyError:
        raise ValueError(f"not a boolean: {raw!r}") from None


def _parse_map(raw: str | list[str]) -> dict[str, str]:
    """A field map from its ``src=dst`` items: the texts of a repeated flag, or
    one text that separates them by commas."""
    mapping: dict[str, str] = {}
    for item in raw.split(",") if isinstance(raw, str) else raw:
        item = item.strip()
        if not item:
            continue
        src, sep, dst = item.partition("=")
        if not sep or not src or not dst:
            raise ValueError(f"field map entries must look like src=dst, got {item!r}")
        mapping[src.strip()] = dst.strip()
    return mapping


def _setting(default, key: str, flag: str | None, stage: str | None, parse=str, **option):
    """A ``RunConfig`` field that declares one setting.

    ``key`` is its INI ``section.key``, which also names its
    ``ARTRANK_<SECTION>_<KEY>`` variable; ``parse`` reads that text, and the
    texts of a repeated flag. ``flag`` is its command-line option, or None for
    a positional argument named after the field; ``stage``'s subcommand and
    ``run`` take it, every command when ``stage`` is None. ``option`` holds the
    argparse keywords; the type is ``parse`` unless an action is given, and
    ``{default}`` in the help is the field's default.
    """
    metadata = {"key": key, "flag": flag, "stage": stage, "parse": parse, "option": option}
    if isinstance(default, dict):  # a mutable default is made anew for each config
        return field(default_factory=dict, metadata=metadata)
    return field(default=default, metadata=metadata)


@dataclass
class RunConfig:
    """Resolved pipeline settings; see the module docstring for sources."""

    input_path: Path | None = _setting(
        None, "input.path", None, "ingest", Path, nargs="?", metavar="INPUT",
        help="raw sale log (may instead come from config or environment)",
    )
    input_format: str = _setting(
        "csv", "input.format", "--format", "ingest", choices=("csv", "json"),
        help="input format (default {default})",
    )
    field_map: dict[str, str] = _setting(
        {}, "input.map", "--map", "ingest", _parse_map,
        action="append", metavar="SRC=DST",
        help="rename a source column to a canonical field (repeatable)",
    )
    rates_path: Path | None = _setting(
        None, "input.rates", "--rates", "ingest", Path, metavar="FILE",
        help="date,usd_per_eth CSV for ETH-to-USD conversion",
    )
    tolerance: float = _setting(
        centrality.DEFAULT_TOLERANCE, "hits.tolerance", "--tolerance", "rank", float,
        help="L1 convergence threshold (default {default})",
    )
    max_iterations: int = _setting(
        centrality.DEFAULT_MAX_ITERATIONS, "hits.max_iterations", "--max-iterations", "rank",
        int, help="power-iteration cap (default {default})",
    )
    role_percentile: float = _setting(
        0.95, "profiling.role_percentile", "--role-percentile", "profile", float,
        help="quadrant threshold for role labels (default {default})",
    )
    tie_rank: str = _setting(
        profiling.TIE_RANK_MAX, "profiling.tie_rank", "--tie-rank", "profile",
        choices=(profiling.TIE_RANK_MAX, profiling.TIE_RANK_MIN),
        help="percentile convention for tied scores (default {default})",
    )
    unweighted_multiplicity: bool = _setting(
        False, "graph.unweighted_multiplicity", "--unweighted-multiplicity", "rank",
        _parse_bool, action="store_true",
        help="use sale counts instead of 0/1 for the unweighted view",
    )
    out_dir: Path = _setting(
        Path("artrank-out"), "output.directory", "--out", None, Path, metavar="DIR",
        help="output directory",
    )
    sort_by: str = _setting(
        "authority", "rankings.sort_by", "--sort-by", "rank", choices=SORT_KEYS,
        help="rankings sort key (default {default})",
    )

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


# (section, key) -> the RunConfig field it sets
_CONFIG_KEYS = {tuple(f.metadata["key"].split(".")): f for f in fields(RunConfig)}


def _env_name(section: str, key: str) -> str:
    return f"{ENV_PREFIX}_{section}_{key}".upper()


def _read_ini(path: str) -> dict[tuple[str, str], str]:
    """The text of each key of a UTF-8 INI file by (section, key); a file that
    cannot be read, decoded or parsed, or a key that no setting declares, is an error."""
    import configparser  # here, not at start-up: most commands read no config file

    ini = configparser.ConfigParser()
    texts = {}
    where = f"config file {path}"
    try:
        if not ini.read(path, encoding="utf-8"):
            raise ValueError(f"cannot read config file: {Path(path)}")
        # keys of the DEFAULT section would reach every section, so they too must be known
        for section in (ini.default_section, *ini.sections()):
            for key in ini[section]:
                if (section, key) not in _CONFIG_KEYS:
                    raise ValueError(f"config file {path}: unknown key [{section}] {key}")
                where = f"config file {path} [{section}] {key}"
                texts[section, key] = ini.get(section, key)
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ValueError(f"{where}: {' '.join(str(exc).split())}") from None
    return texts


def _resolve_config(args: argparse.Namespace) -> RunConfig:
    """Each setting from its default, then its INI key, then its environment
    variable, then its flag; an error in a text names where the text came from."""
    ini = {} if args.config is None else _read_ini(args.config)
    known = {_env_name(section, key) for section, key in _CONFIG_KEYS}
    for name in sorted(os.environ):
        if name.startswith(f"{ENV_PREFIX}_") and name not in known:
            raise ValueError(f"environment {name}: no setting has this variable")
    cfg = RunConfig()
    for (section, key), setting in _CONFIG_KEYS.items():
        env = _env_name(section, key)
        for where, raw in (
            (f"config [{section}] {key}", ini.get((section, key))),
            (f"environment {env}", os.environ.get(env)),
        ):
            if raw is not None:
                try:
                    setattr(cfg, setting.name, setting.metadata["parse"](raw))
                except ValueError as exc:
                    raise ValueError(f"{where}: {exc}") from None
        # each flag's dest is the field it sets; a flag left out is None, and a
        # repeated flag gives a list of texts, which the setting's parser reads
        value = getattr(args, setting.name, None)
        if isinstance(value, list):
            value = setting.metadata["parse"](value)
        if value is not None:
            setattr(cfg, setting.name, value)
    return cfg


# ---------------------------------------------------------------------------
# Pipeline stages
# ---------------------------------------------------------------------------


class _Inputs:
    """What the stages read. An earlier stage of the same command sets a
    field; otherwise it loads on first use from the artifact paths on the
    command line."""

    def __init__(self, cfg: RunConfig, args: argparse.Namespace):
        self.cfg = cfg
        self.args = args

    @cached_property
    def log(self) -> EventLog:
        path = Path(self.args.events)
        with open(path, "rb") as handle:
            log, rejects = parse_events(handle, fmt="csv", source=path.name)
        if rejects:
            raise ValueError(
                f"{len(rejects)} invalid record(s) in {path}; regenerate it with `ingest`"
            )
        return log

    @cached_property
    def net(self) -> CollectorArtistNetwork:
        return build_network(self.log)

    @cached_property
    def table(self) -> MetricsTable:
        return load_rankings_csv(Path(self.args.rankings))


def _rankings_columns(table: MetricsTable, sort_by: str) -> list:
    """Rankings columns by descending ``sort_by`` key with ties in table order, or by ``user``
    in table order; the pipeline's tables are in user-id order."""
    columns = dict(zip(METRIC_NAMES, table.values.T), trader_score=table.trader_score())
    if sort_by == "user":
        order = np.arange(len(table.users))
    else:
        order = np.argsort(-columns[sort_by], kind="stable")
    for name in COUNT_COLUMNS:
        columns[name] = columns[name].astype(np.int64)  # sale counts, exact in a float
    return [IdColumn(table.users, order)] + [columns[name][order] for name in RANKINGS_HEADER[1:]]


def _profile_lines(profiles: Profiles) -> Iterator[str]:
    """``profiles.jsonl`` in table order, a chunk of lines at a time."""
    for start in range(0, len(profiles), _PROFILE_CHUNK_ROWS):
        part = slice(start, start + _PROFILE_CHUNK_ROWS)
        rows = zip(
            map(json.dumps, profiles.users[part]),
            _ROLE_NAMES[profiles.role[part]].tolist(),
            profiles.artist_code[part].tolist(),
            profiles.collector_code[part].tolist(),
            *profiles.normalized[part].T.tolist(),
            profiles.trader_score[part].tolist(),
        )
        yield "".join(map(_PROFILE_LINE.__mod__, rows))


def load_rankings_csv(path: Path) -> MetricsTable:
    """Rebuild the metrics table from a rankings artifact, its rows in user-id order.

    Columns are found by header name, so their order and any extra columns
    do not matter; of duplicate names the last column wins. A user listed
    twice is refused.
    """
    with open(path, "rb") as handle:
        users, values = read_text(handle, _rankings_cells)
    by_id = id_order(users)
    ordered = tuple(map(users.__getitem__, by_id.tolist()))
    for earlier, later in zip(ordered, ordered[1:]):
        if earlier == later:
            raise ValueError(f"rankings file lists user {earlier!r} more than once")
    values = np.array(values, dtype=np.float64).reshape(len(users), len(METRIC_NAMES))
    return MetricsTable(users=ordered, values=values[by_id])


def _rankings_cells(text: Iterable[str]) -> tuple[list[str], list[list[float]]]:
    """The user id and the ``METRIC_NAMES`` values of each rankings row, in file order."""
    reader = csv.reader(text)
    header = next(reader, [])
    missing = set(RANKINGS_HEADER) - set(header)
    if missing:
        raise ValueError(f"rankings file lacks columns: {', '.join(sorted(missing))}")
    position = {name: i for i, name in enumerate(header)}
    user_at = position["user"]
    metric_at = [position[name] for name in METRIC_NAMES]
    width = max(user_at, *metric_at) + 1
    users = []
    values = []
    for row in reader:
        if not row:
            continue
        if len(row) < width:
            raise ValueError(f"rankings file line {reader.line_num} is missing columns")
        users.append(row[user_at])
        try:
            values.append([float(row[i]) for i in metric_at])
        except ValueError:
            for name, i in zip(METRIC_NAMES, metric_at):
                try:
                    float(row[i])
                except ValueError:
                    raise ValueError(
                        f"rankings file line {reader.line_num} column {name}: "
                        f"not a number: {row[i]!r}"
                    ) from None
    return users, values


def _ingest(inputs: _Inputs, writer: ArtifactWriter) -> str:
    cfg = inputs.cfg
    with open(cfg.input_path, "rb") as handle:
        log, rejects = parse_events(
            handle,
            fmt=cfg.input_format,
            field_map=cfg.field_map,
            source=cfg.input_path.name,
        )
    for reject in rejects:
        logger.warning("record %d rejected: %s", reject.row, reject.reason)
    if not log.accepted_count:
        if not rejects:
            raise ValueError(f"no record accepted: {cfg.input_path} holds no records")
        first = rejects[0]
        raise ValueError(
            f"no record accepted: {len(rejects)} rejected,"
            f" the first is record {first.row} ({first.reason})"
        )
    if cfg.rates_path is not None:
        with open(cfg.rates_path, "rb") as handle:
            log = convert_currency(log, RateTable.from_csv(handle))
    inputs.log = log
    writer.events(EVENTS_CSV, log)
    writer.json(
        INGEST_REPORT_JSON,
        {
            "source": log.source,
            "format": cfg.input_format,
            "total_records": log.total_records,
            "accepted": log.accepted_count,
            "rejected": log.rejected_count,
            "zero_price_events": log.zero_price_count,
            "needs_conversion": log.needs_conversion_count,
            "rejects": [{"row": r.row, "reason": r.reason} for r in rejects],
        },
    )
    return (
        f"ingested {log.accepted_count}/{log.total_records} records"
        f" ({log.rejected_count} rejected) -> {writer.out_dir / EVENTS_CSV}"
    )


def _rank(inputs: _Inputs, writer: ArtifactWriter) -> str:
    cfg, net = inputs.cfg, inputs.net
    hits_cfg = cfg.hits_config()
    scores = []
    for weighting in (cfg.unweighted_scheme(), Weighting.WEIGHTED_USD):
        result = centrality.hits(adjacency(net, weighting), hits_cfg)
        if not result.converged:
            logger.warning(
                "HITS (%s) did not converge: %d iterations, residual %.3g",
                weighting.value,
                result.iterations_used,
                result.residual,
            )
        scores.append(result)
    unweighted, weighted = scores
    degrees = centrality.degree_metrics(net)
    inputs.table = profiling.build_metrics_table(net, degrees, unweighted, weighted)
    writer.csv(RANKINGS_CSV, RANKINGS_HEADER, _rankings_columns(inputs.table, cfg.sort_by))
    # in (collector id, artist id) order, the network's own edge order
    users = np.array(net.users, dtype=object)
    collector, artist = IdColumn(users, net.collector), IdColumn(users, net.artist)
    writer.csv(
        EDGES_CSV,
        ("collector", "artist", "total_usd", "sale_count"),
        (collector, artist, net.total_usd, net.sale_count),
    )
    return (
        f"ranked {net.node_count} users over {net.edge_count} edges"
        f" -> {writer.out_dir / RANKINGS_CSV}"
    )


def _concentration(inputs: _Inputs, writer: ArtifactWriter) -> str:
    log = inputs.log
    for stem, side, users in (
        ("lorenz_sellers", "seller", log.seller),
        ("lorenz_buyers", "buyer", log.buyer),
    ):
        floats, total = _float_volumes(log, users, side)
        curve = econometrics.lorenz(floats)
        columns = (curve.population_shares, curve.volume_shares)
        writer.csv(f"{stem}.csv", ("pop_share", "vol_share"), columns)
        writer.json(f"{stem}.json", {"gini": curve.gini, "n": len(floats), "total": total})
    return f"wrote Lorenz/Gini files to {writer.out_dir}"


def _float_volumes(log: EventLog, users: np.ndarray, side: str) -> tuple[np.ndarray, float]:
    """The USD volume of each user in the ``side`` column ``users`` and their exact total,
    as floats; refuses any beyond the float range."""
    codes, volumes = report.user_volumes(log, users)
    floats = volumes.to_float()
    bad = np.flatnonzero(~np.isfinite(floats))
    if bad.size:
        k = bad[0]
        raise ValueError(
            f"{side} {log.users[codes[k]]!r} has {volumes[k]:.6E} USD of volume,"
            " beyond the float range"
        )
    exact = volumes.total()
    total = float(exact)
    if not (math.isfinite(total) and math.isfinite(np.sum(floats))):
        raise ValueError(f"{side} volumes total {exact:.6E} USD, beyond the float range")
    return floats, total


def _correlate(inputs: _Inputs, writer: ArtifactWriter) -> str:
    matrix = econometrics.correlation_matrix(inputs.table)
    writer.csv(CORRELATION_CSV, ("metric",) + matrix.labels, (matrix.labels, *matrix.values.T))
    return f"wrote correlation matrix -> {writer.out_dir / CORRELATION_CSV}"


def _profile(inputs: _Inputs, writer: ArtifactWriter) -> str:
    cfg = inputs.cfg
    pattern = getattr(inputs.args, "match", None)
    profiles = profiling.build_profiles(inputs.table, cfg.role_percentile, cfg.tie_rank)
    if pattern is not None:
        # a malformed query fails before any write
        rows = profiling.matching_rows(profiles, pattern, inputs.args.match_which)
        matches = (
            IdColumn(profiles.users, rows),
            _ROLE_NAMES[profiles.role[rows]],
            profiles.artist_code[rows],
            profiles.collector_code[rows],
        )
    # the table is finite (MetricsTable refuses anything else), so every
    # normalized value is too, but authority x hub can overflow
    bad = np.flatnonzero(~np.isfinite(profiles.trader_score))
    if bad.size:
        raise ValueError(f"non-finite trader_score for user {profiles.users[bad[0]]!r}")
    writer.jsonl(PROFILES_JSONL, _profile_lines(profiles), len(profiles))
    lines = []
    if pattern is not None:
        writer.csv(MATCHES_CSV, ("user", "role", "artist_code", "collector_code"), matches)
        lines.append(f"{len(rows)} user(s) match {pattern!r} -> {writer.out_dir / MATCHES_CSV}")
    else:
        # a query result of an earlier profile must not outlive it
        writer.remove(MATCHES_CSV)
    lines.append(f"profiled {len(profiles)} users -> {writer.out_dir / PROFILES_JSONL}")
    return "\n".join(lines)


def _report(inputs: _Inputs, writer: ArtifactWriter) -> str:
    # load every input before the first write, so a bad one leaves no partial report
    log, net, table = inputs.log, inputs.net, inputs.table
    _require_same_users(net.users, table.users)
    summary = report.summarize(log, net)
    text = summary.to_text()
    writer.json(SUMMARY_JSON, summary.to_dict())
    writer.text(SUMMARY_TXT, text)
    for name, dimension in (
        (HIST_SALES_CSV, report.DIMENSION_SALES),
        (HIST_PURCHASES_CSV, report.DIMENSION_PURCHASES),
    ):
        edges, counts = report.histogram_data(table, dimension)
        writer.csv(name, ("bin_low", "bin_high", "count"), (edges[:-1], edges[1:], counts))
    figure5 = report.figure5_values(table).T
    writer.csv(FIGURE5_CSV, ("user",) + report.FIGURE_MEASURES, (table.users, *figure5))
    return text.rstrip("\n")


def _require_same_users(events: Sequence[str], rankings: Sequence[str]) -> None:
    """Refuse rankings computed from a log other than the events beside them."""
    events, rankings = set(events), set(rankings)
    if events != rankings:
        only = [
            f"{len(extra)} user(s) only in the {side} (e.g. {min(extra)!r})"
            for side, extra in (("events", events - rankings), ("rankings", rankings - events))
            if extra
        ]
        raise ValueError(f"events and rankings come from different logs: {', '.join(only)}")


@dataclass(frozen=True)
class Stage:
    """One pipeline step and the subcommand that runs it alone."""

    name: str
    help: str
    reads: tuple[str, ...]  # artifact arguments, keys of _ARTIFACT_ARGS
    fn: Callable[[_Inputs, ArtifactWriter], str]  # writes its artifacts, returns a message


# in pipeline order (`profile` early, see the module docstring); `run` executes
# every stage, a subcommand its own
STAGES = (
    Stage("ingest", "validate a raw log into the canonical event CSV",
          reads=(), fn=_ingest),
    Stage("rank", "build the network and write rankings and edge list",
          reads=("events",), fn=_rank),
    Stage("profile", "role labels, level codes, and normalized vectors per user",
          reads=("rankings",), fn=_profile),
    Stage("concentration", "Lorenz curves and Gini indexes for seller and buyer volumes",
          reads=("events",), fn=_concentration),
    Stage("correlate", "Kendall correlation matrix over the 8 metrics",
          reads=("rankings",), fn=_correlate),
    Stage("report", "summary statistics and figure data tables",
          reads=("events", "rankings"), fn=_report),
)

RUN = "run"


def _execute(args: argparse.Namespace) -> int:
    """Run the stages ``args.command`` selects; ``run`` also writes the manifest."""
    stages = [s for s in STAGES if args.command in (RUN, s.name)]
    cfg = _resolve_config(args)
    cfg.validate(need_input=any(s.fn is _ingest for s in stages))
    with ArtifactWriter(cfg.out_dir) as writer:
        inputs = _Inputs(cfg, args)
        messages = []
        for stage in stages:
            # large writes overlap the stages after theirs; the last stage has none
            writer.background = stage is not stages[-1]
            messages.append(stage.fn(inputs, writer))
        if args.command == RUN:
            manifest = writer.manifest()
            messages = [
                f"run complete: {len(manifest['files'])} artifacts in {cfg.out_dir}"
                f" ({inputs.log.rejected_count} rejected records)"
            ]
    print("\n".join(messages))
    return 0


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

_ARTIFACT_ARGS = {
    "events": ("EVENTS_CSV", "canonical event CSV"),
    "rankings": ("RANKINGS_CSV", "rankings artifact"),
}


def _add_setting(parser: argparse.ArgumentParser, setting: Field) -> None:
    """The flag of a ``RunConfig`` field, as its ``_setting`` declares it."""
    option = dict(setting.metadata["option"])
    if "action" not in option:
        option["type"] = setting.metadata["parse"]
    if "help" in option:
        option["help"] = option["help"].format(default=setting.default)
    flag = setting.metadata["flag"]
    if flag is not None:
        option["dest"] = setting.name
    parser.add_argument(flag or setting.name, default=None, **option)


def _build_parser() -> argparse.ArgumentParser:
    keys = ", ".join(
        f"[{section}] {key} ({_env_name(section, key)})" for section, key in _CONFIG_KEYS
    )
    parser = argparse.ArgumentParser(
        prog="artrank",
        description="Rank artists and collectors from an art-market sale log.",
        epilog=(
            f"Config keys (INI sections) and their environment overrides: {keys}. "
            "Flags take precedence over environment variables and config."
        ),
    )
    parser.add_argument("--verbose", action="store_true", help="log at INFO level")
    sub = parser.add_subparsers(dest="command", required=True)
    # flags in pipeline order, those every command takes first
    order = [None] + [stage.name for stage in STAGES]
    settings = sorted(fields(RunConfig), key=lambda f: order.index(f.metadata["stage"]))
    commands = [(s.name, s.help, s.reads) for s in STAGES]
    commands.append((RUN, "full pipeline with a hashed artifact manifest", ()))
    for name, help_text, reads in commands:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", metavar="FILE", help="INI config file")
        for setting in settings:
            if setting.metadata["stage"] in (None, name) or name == RUN:
                _add_setting(p, setting)
        if name == "profile":
            # the query writes matches.csv, which is not a pipeline artifact, so run has none
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
        for read in reads:
            metavar, read_help = _ARTIFACT_ARGS[read]
            p.add_argument(read, metavar=metavar, help=read_help)
    return parser


def main(argv: list[str] | None = None) -> int:
    """Console entry point; returns the process exit status."""
    args = _build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return _execute(args)
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
