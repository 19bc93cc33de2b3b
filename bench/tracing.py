"""Spans around artrank's public entry points, installed from outside.

Each wrapped function records one span per call: name, start, end, the
index of the enclosing span (-1 at top level) and, for a few functions, a
note taken from the result (records parsed, network size, HITS
convergence). The wrapper replaces every module-level binding of the
original function inside the ``artrank`` package, so calls are traced
under whatever name their caller looks up (``artrank.cli.parse_events``,
``artrank.centrality.hits``, ``artrank.econometrics.kendall_tau``, ...).
Nothing under ``src/`` is edited.
"""

from __future__ import annotations

import functools
import sys
import time

# (module, attribute) -> span name; a dotted attribute names a class member
ENTRY_POINTS = {
    ("ingest", "parse_events"): "ingest.parse_events",
    ("ingest", "convert_currency"): "ingest.convert_currency",
    ("ingest", "RateTable.from_csv"): "ingest.rate_table",
    ("ingest", "write_events_csv"): "ingest.write_events_csv",
    ("graph", "build_network"): "graph.build_network",
    ("graph", "active_users"): "graph.active_users",
    ("graph", "adjacency"): "graph.adjacency",
    ("centrality", "hits"): "centrality.hits",
    ("centrality", "degree_metrics"): "centrality.degree_metrics",
    ("centrality", "trader_score"): "centrality.trader_score",
    ("econometrics", "correlation_matrix"): "econometrics.correlation_matrix",
    ("econometrics", "kendall_tau"): "econometrics.kendall_tau",
    ("econometrics", "lorenz"): "econometrics.lorenz",
    ("econometrics", "gini"): "econometrics.gini",
    ("profiling", "build_metrics_table"): "profiling.build_metrics_table",
    ("profiling", "build_profiles"): "profiling.build_profiles",
    ("profiling", "role_codes"): "profiling.role_codes",
    ("profiling", "classify_role"): "profiling.classify_role",
    ("profiling", "normalize_metrics"): "profiling.normalize_metrics",
    ("report", "summarize"): "report.summarize",
    ("report", "volume_by_seller"): "report.volume_by_seller",
    ("report", "volume_by_buyer"): "report.volume_by_buyer",
    ("report", "histogram_data"): "report.histogram_data",
    ("report", "figure5_data"): "report.figure5_data",
    ("cli", "load_rankings_csv"): "cli.load_rankings_csv",
    ("cli", "ArtifactWriter.csv"): "cli.writer",
    ("cli", "ArtifactWriter.json"): "cli.writer",
    ("cli", "ArtifactWriter.text"): "cli.writer",
    ("cli", "ArtifactWriter.jsonl"): "cli.writer",
    ("cli", "ArtifactWriter.events"): "cli.writer",
    ("cli", "ArtifactWriter.manifest"): "cli.writer",
}

MAIN_SPAN = "cli.main"


def _note_parse(result):
    return {"records": result[0].total_records}


def _note_network(result):
    return {"nodes": result.node_count, "edges": result.edge_count}


def _note_hits(result):
    return {"iterations": result.iterations_used, "converged": bool(result.converged)}


NOTES = {
    "ingest.parse_events": _note_parse,
    "graph.build_network": _note_network,
    "centrality.hits": _note_hits,
}


class Tracer:
    """In-memory span recorder; spans are ``[name, start, end, parent, note]``."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def call(self, name, fn, *args, **kwargs):
        index = len(self.spans)
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, None]
        self.spans.append(span)
        self._stack.append(index)
        span[1] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()
        note = NOTES.get(name)
        if note is not None:
            span[4] = note(result)
        return result

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        return traced

    def install(self) -> None:
        """Wrap every entry point; raises if one no longer exists."""
        modules = {
            key: mod
            for key, mod in sys.modules.items()
            if key == "artrank" or key.startswith("artrank.")
        }
        missing = []
        for (module_name, attr), span_name in ENTRY_POINTS.items():
            module = modules.get(f"artrank.{module_name}")
            owner_name, _, member = attr.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            raw = None if owner is None else vars(owner).get(member)
            if raw is None:
                missing.append(f"artrank.{module_name}.{attr}")
                continue
            if isinstance(raw, classmethod):
                setattr(owner, member, classmethod(self.wrap(span_name, raw.__func__)))
                continue
            wrapped = self.wrap(span_name, raw)
            if owner_name:
                setattr(owner, member, wrapped)
                continue
            for mod in modules.values():
                for key, value in list(vars(mod).items()):
                    if value is raw:
                        setattr(mod, key, wrapped)
        if missing:
            raise RuntimeError("entry points not found: " + ", ".join(missing))
