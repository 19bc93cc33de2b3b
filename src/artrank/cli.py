"""Batch pipeline: raw sale log in, ranked network analytics out.

One table, ``STAGES``, defines the pipeline: ``ingest``, ``rank``,
``concentration``, ``correlate``, ``profile`` and ``report``. Each stage is
also a subcommand, and the all-in-one ``run`` executes them all in order.
Every artifact is a plain CSV/JSON file, so stages can be re-run
independently from each other's outputs. Every command takes the output
directory's ``.lock`` and first deletes any ``manifest.json`` there, so no
manifest outlives the files it hashes; only ``run`` writes a new one, with a
sha256 per artifact, after its last artifact. ``ingest`` and ``run`` log one
WARNING per rejected record. Outputs are byte-identical across runs for a
fixed input and configuration.

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
import io
import json
import logging
import math
import os
import platform
import sys
from collections.abc import Callable, Iterable, Iterator, Sequence
from contextlib import contextmanager
from dataclasses import dataclass, field
from datetime import datetime, timezone
from decimal import Decimal
from functools import cached_property
from itertools import chain
from pathlib import Path
from typing import TextIO

import numpy as np

from . import centrality, econometrics, profiling, report
from .graph import CollectorArtistNetwork, Weighting, adjacency, build_network
from .ingest import (
    EventLog,
    RateTable,
    _read_text,
    convert_currency,
    exact_sum,
    id_order,
    parse_events,
    write_csv_rows,
    write_events_csv,
)
from .profiling import METRIC_NAMES, MetricsTable, Profiles

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


def _env_name(section: str, key: str) -> str:
    return f"{ENV_PREFIX}_{section}_{key}".upper()


def _apply_env(cfg: RunConfig, environ=os.environ) -> None:
    for (section, key), (attr, convert) in _CONFIG_KEYS.items():
        name = _env_name(section, key)
        if name in environ:
            try:
                setattr(cfg, attr, convert(environ[name]))
            except ValueError as exc:
                raise ValueError(f"environment {name}: {exc}") from None


def _apply_args(cfg: RunConfig, args: argparse.Namespace) -> None:
    # each flag's dest is the attribute it sets; a flag left out is None
    for attr, _ in _CONFIG_KEYS.values():
        value = getattr(args, attr, None)
        if value is not None:
            setattr(cfg, attr, _parse_map_items(value) if attr == "field_map" else value)


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
    """Writes named files under one directory, hashing each one's bytes as they
    are written.

    ``digests`` maps each name written to the sha256 and size of its last
    write, so the manifest reads no artifact back.
    """

    def __init__(self, out_dir: Path):
        self.out_dir = out_dir
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.digests: dict[str, tuple[str, int]] = {}

    @contextmanager
    def _open(self, name: str) -> Iterator[TextIO]:
        """A UTF-8 text handle on ``out_dir / name`` whose bytes are hashed as written."""
        raw = _HashedFile(self.out_dir / name)
        with io.TextIOWrapper(io.BufferedWriter(raw), encoding="utf-8", newline="") as handle:
            yield handle
        self.digests[name] = (raw.sha256.hexdigest(), raw.size)

    def csv(self, name: str, header, rows) -> None:
        with self._open(name) as handle:
            write_csv_rows(handle, chain([header], rows))

    def json(self, name: str, payload) -> None:
        # NaN and infinities have no JSON form; json.dumps raises ValueError on them
        text = json.dumps(payload, indent=2, allow_nan=False) + "\n"
        with self._open(name) as handle:
            handle.write(text)

    def text(self, name: str, content: str) -> None:
        with self._open(name) as handle:
            handle.write(content)

    def jsonl(self, name: str, chunks: Iterable[str]) -> None:
        """Write JSON lines given as chunks of formatted lines, one chunk at a time.

        The caller formats the lines and must keep NaN and infinities out of them.
        """
        with self._open(name) as handle:
            handle.writelines(chunks)

    def events(self, name: str, log: EventLog) -> None:
        with self._open(name) as handle:
            write_events_csv(log, handle)

    def manifest(self) -> dict:
        entries = [
            {"name": name, "sha256": digest, "size": size}
            for name, (digest, size) in sorted(self.digests.items())
        ]
        payload = {"files": entries}
        self.json(MANIFEST_JSON, payload)
        return payload


class _HashedFile(io.FileIO):
    """A file opened for writing that hashes the bytes written to it."""

    def __init__(self, path: Path):
        super().__init__(path, "w")
        self.sha256 = hashlib.sha256()
        self.size = 0

    def write(self, data) -> int:
        written = super().write(data)
        self.sha256.update(memoryview(data)[:written])
        self.size += written
        return written


class _OutputLock:
    """Exclusive ownership of an output directory for the duration of a run.

    The lock file holds ``pid=``, ``host=`` and ``started=`` lines naming
    its owner, which the "locked" error quotes so that a lock left behind
    by a killed run can be recognised and removed.
    """

    def __init__(self, out_dir: Path):
        self.path = out_dir / LOCK_FILE
        out_dir.mkdir(parents=True, exist_ok=True)

    def __enter__(self):
        try:
            fd = os.open(self.path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            raise RuntimeError(
                f"output directory is locked by another run ({self._owner()}): {self.path};"
                " if that process is gone, remove the file and retry"
            ) from None
        started = datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(f"pid={os.getpid()}\nhost={platform.node()}\nstarted={started}\n")
        return self

    def _owner(self) -> str:
        try:
            owner = self.path.read_text(encoding="utf-8", errors="replace").split()
        except OSError:
            owner = []
        return ", ".join(owner) if owner else "owner not recorded"

    def __exit__(self, *exc_info):
        try:
            os.unlink(self.path)
        except FileNotFoundError:
            pass
        return False


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


def _texts(column: np.ndarray) -> Iterator[str]:
    """A column's cells as ``str`` writes them: ``repr``, for a float the shortest round trip."""
    return map(repr, column.tolist())


def _user_rows(users: Iterable[str], columns) -> Iterator[tuple[str, ...]]:
    """CSV rows: the user id, then the text of each column's cell.

    Columns are formatted one at a time, so only one column's floats exist as
    Python objects at once.
    """
    cells = [list(_texts(column)) for column in columns]
    return zip(users, *cells)


def _rankings_rows(table: MetricsTable, trader: np.ndarray, sort_by: str):
    """Rankings rows by descending ``sort_by`` key with ties in table order, or by ``user``
    in table order; the pipeline's tables are in user-id order."""
    columns = dict(zip(METRIC_NAMES, table.values.T), trader_score=trader)
    if sort_by == "user":
        order = np.arange(len(table.users))
    else:
        order = np.argsort(-columns[sort_by], kind="stable")
    for name in COUNT_COLUMNS:
        columns[name] = columns[name].astype(np.int64)  # sale counts, exact in a float
    users = map(table.users.__getitem__, order.tolist())
    return _user_rows(users, [columns[name][order] for name in RANKINGS_HEADER[1:]])


def _edge_rows(net: CollectorArtistNetwork):
    """``collector,artist,total_usd,sale_count`` rows in (collector id, artist id) order,
    the network's own edge order."""
    users = np.array(net.users, dtype=object)
    return zip(
        users[net.collector].tolist(),
        users[net.artist].tolist(),
        net.total_usd.text(),
        map(str, net.sale_count.tolist()),
    )


def _figure5_rows(table: MetricsTable):
    """``figure5.csv`` rows in table order."""
    return _user_rows(table.users, report.figure5_values(table).T)


def _profile_lines(profiles: Profiles) -> Iterator[str]:
    """``profiles.jsonl`` in table order, a chunk of lines at a time."""
    roles = np.array([role.value for role in profiling.ROLES])
    for start in range(0, len(profiles), _PROFILE_CHUNK_ROWS):
        part = slice(start, start + _PROFILE_CHUNK_ROWS)
        rows = zip(
            map(json.dumps, profiles.users[part]),
            roles[profiles.role[part]].tolist(),
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
        users, values = _read_text(handle, _rankings_cells)
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
        values.append([float(row[i]) for i in metric_at])
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
    for reject in rejects:
        logger.warning("record %d rejected: %s", reject.row, reject.reason)
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
    trader = centrality.trader_score(unweighted)
    writer.csv(RANKINGS_CSV, RANKINGS_HEADER, _rankings_rows(inputs.table, trader, cfg.sort_by))
    writer.csv(EDGES_CSV, ("collector", "artist", "total_usd", "sale_count"), _edge_rows(net))
    return (
        f"ranked {net.node_count} users over {net.edge_count} edges"
        f" -> {writer.out_dir / RANKINGS_CSV}"
    )


def _concentration(inputs: _Inputs, writer: ArtifactWriter) -> str:
    for stem, side, volume_by in (
        ("lorenz_sellers", "seller", report.volume_by_seller),
        ("lorenz_buyers", "buyer", report.volume_by_buyer),
    ):
        volumes = volume_by(inputs.log)
        floats, total = _float_volumes(volumes, side)
        curve = econometrics.lorenz(floats)
        writer.csv(
            f"{stem}.csv",
            ("pop_share", "vol_share"),
            zip(_texts(curve.population_shares), _texts(curve.volume_shares)),
        )
        writer.json(f"{stem}.json", {"gini": curve.gini, "n": len(volumes), "total": total})
    return f"wrote Lorenz/Gini files to {writer.out_dir}"


def _float_volumes(volumes: dict[str, Decimal], side: str) -> tuple[np.ndarray, float]:
    """Each user's volume and the exact total as floats; refuses any beyond the float range."""
    floats = np.array([float(v) for v in volumes.values()])
    bad = np.flatnonzero(~np.isfinite(floats))
    if bad.size:
        user = list(volumes)[bad[0]]
        raise ValueError(
            f"{side} {user!r} has {volumes[user]:.6E} USD of volume, beyond the float range"
        )
    exact = exact_sum(volumes.values())
    total = float(exact)
    if not (math.isfinite(total) and math.isfinite(np.sum(floats))):
        raise ValueError(f"{side} volumes total {exact:.6E} USD, beyond the float range")
    return floats, total


def _correlate(inputs: _Inputs, writer: ArtifactWriter) -> str:
    matrix = econometrics.correlation_matrix(inputs.table)
    rows = ([label] + [str(v) for v in row] for label, row in zip(matrix.labels, matrix.values))
    writer.csv(CORRELATION_CSV, ("metric",) + matrix.labels, rows)
    return f"wrote correlation matrix -> {writer.out_dir / CORRELATION_CSV}"


def _profile(inputs: _Inputs, writer: ArtifactWriter) -> str:
    cfg = inputs.cfg
    pattern = getattr(inputs.args, "match", None)
    if pattern is not None:
        # a malformed query fails before any write
        profiling._check_pattern(pattern, inputs.args.match_which)
    profiles = profiling.build_profiles(inputs.table, cfg.role_percentile, cfg.tie_rank)
    # the table is finite (MetricsTable refuses anything else), so every
    # normalized value is too, but authority x hub can overflow
    bad = np.flatnonzero(~np.isfinite(profiles.trader_score))
    if bad.size:
        raise ValueError(f"non-finite trader_score for user {profiles.users[bad[0]]!r}")
    writer.jsonl(PROFILES_JSONL, _profile_lines(profiles))
    lines = []
    if pattern is not None:
        rows = [
            [
                profiles.users[i],
                profiling.ROLES[profiles.role[i]].value,
                profiles.artist_code[i],
                profiles.collector_code[i],
            ]
            for i in profiling._matching_rows(profiles, pattern, inputs.args.match_which)
        ]
        writer.csv(MATCHES_CSV, ("user", "role", "artist_code", "collector_code"), rows)
        lines.append(f"{len(rows)} user(s) match {pattern!r} -> {writer.out_dir / MATCHES_CSV}")
    else:
        # a query result of an earlier profile must not outlive it
        (writer.out_dir / MATCHES_CSV).unlink(missing_ok=True)
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
        rows = ([str(lo), str(hi), str(int(n))] for lo, hi, n in zip(edges, edges[1:], counts))
        writer.csv(name, ("bin_low", "bin_high", "count"), rows)
    writer.csv(FIGURE5_CSV, ("user",) + report.FIGURE_MEASURES, _figure5_rows(table))
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
    options: tuple[str, ...]  # option groups, keys of _option_groups()
    fn: Callable[[_Inputs, ArtifactWriter], str]  # writes its artifacts, returns a message


# in pipeline order; `run` executes every stage, a subcommand its own
STAGES = (
    Stage("ingest", "validate a raw log into the canonical event CSV",
          reads=(), options=("input",), fn=_ingest),
    Stage("rank", "build the network and write rankings and edge list",
          reads=("events",), options=("ranking",), fn=_rank),
    Stage("concentration", "Lorenz curves and Gini indexes for seller and buyer volumes",
          reads=("events",), options=(), fn=_concentration),
    Stage("correlate", "Kendall correlation matrix over the 8 metrics",
          reads=("rankings",), options=(), fn=_correlate),
    Stage("profile", "role labels, level codes, and normalized vectors per user",
          reads=("rankings",), options=("roles", "query"), fn=_profile),
    Stage("report", "summary statistics and figure data tables",
          reads=("events", "rankings"), options=(), fn=_report),
)

RUN = "run"


def _execute(args: argparse.Namespace) -> int:
    """Run the stages ``args.command`` selects; ``run`` also writes the manifest."""
    stages = [s for s in STAGES if args.command in (RUN, s.name)]
    cfg = _resolve_config(args)
    cfg.validate(need_input=any("input" in s.options for s in stages))
    with _OutputLock(cfg.out_dir):
        writer = ArtifactWriter(cfg.out_dir)
        # a manifest exists only once it matches every artifact beside it
        (cfg.out_dir / MANIFEST_JSON).unlink(missing_ok=True)
        inputs = _Inputs(cfg, args)
        messages = [stage.fn(inputs, writer) for stage in stages]
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


def _option_groups() -> dict[str, argparse.ArgumentParser]:
    groups = {
        name: argparse.ArgumentParser(add_help=False)
        for name in ("common", "input", "ranking", "roles", "query")
    }
    common = groups["common"]
    common.add_argument("--config", metavar="FILE", help="INI config file")
    common.add_argument(
        "--out", dest="out_dir", type=Path, metavar="DIR", help="output directory"
    )

    raw_input = groups["input"]
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

    ranking = groups["ranking"]
    ranking.add_argument(
        "--tolerance", type=float, help="L1 convergence threshold (default 1e-10)"
    )
    ranking.add_argument(
        "--max-iterations",
        dest="max_iterations",
        type=int,
        help="power-iteration cap (default 1000)",
    )
    ranking.add_argument(
        "--unweighted-multiplicity",
        dest="unweighted_multiplicity",
        action="store_true",
        default=None,
        help="use sale counts instead of 0/1 for the unweighted view",
    )
    ranking.add_argument(
        "--sort-by",
        dest="sort_by",
        choices=SORT_KEYS,
        help="rankings sort key (default authority)",
    )

    roles = groups["roles"]
    roles.add_argument(
        "--role-percentile",
        dest="role_percentile",
        type=float,
        help="quadrant threshold for role labels (default 0.95)",
    )
    roles.add_argument(
        "--tie-rank",
        dest="tie_rank",
        choices=(profiling.TIE_RANK_MAX, profiling.TIE_RANK_MIN),
        help="percentile convention for tied scores (default max)",
    )

    query = groups["query"]
    query.add_argument(
        "--match",
        metavar="PATTERN",
        help="also write users whose code matches, '*' wildcards (e.g. 'AC**')",
    )
    query.add_argument(
        "--match-which",
        dest="match_which",
        choices=("artist", "collector", "full"),
        default="artist",
        help="which code the pattern applies to (default artist)",
    )
    return groups


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
    groups = _option_groups()
    for stage in STAGES:
        p = sub.add_parser(
            stage.name,
            parents=[groups[name] for name in ("common",) + stage.options],
            help=stage.help,
        )
        for name in stage.reads:
            metavar, help_text = _ARTIFACT_ARGS[name]
            p.add_argument(name, metavar=metavar, help=help_text)
    # the match query writes matches.csv, which is not a pipeline artifact
    run_groups = dict.fromkeys(g for s in STAGES for g in s.options if g != "query")
    sub.add_parser(
        RUN,
        parents=[groups[name] for name in ("common", *run_groups)],
        help="full pipeline with a hashed artifact manifest",
    )
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
