#!/usr/bin/env python3
"""artrank pipeline benchmark.

Usage (from the repository root):

    python3 bench/run.py --workload events_heavy --seed 1 --seconds 20 --trace 0

Generates a seeded synthetic market, runs the artrank CLI on it in fresh
child interpreters (``src`` on the path, nothing installed), checks every
artifact against computations made apart from the program, and prints one
JSON object as the last line of standard output. With ``--trace 0`` it holds
the end-to-end metrics; with ``--trace 1`` each pass also repeats under
spans and the line holds the per-layer metrics. See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import NamedTuple

import checks
import markets

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / "work"
DEADLINE_S = 170  # the whole command must end within 180 s
SETUP_SAMPLES = 3  # import-only interpreters timed per run, besides the passes

RUN_CHECKS = (
    "events",
    "rejects",
    "edges",
    "degrees",
    "hits",
    "gini",
    "kendall",
    "profiles",
    "summary",
    "manifest",
)

# staged chain: (command, artifacts it writes, checks that judge them)
STAGES = (
    ("ingest", ("events.csv", "ingest_report.json"), ("events", "rejects")),
    ("rank", ("rankings.csv", "edges.csv"), ("edges", "degrees", "hits")),
    (
        "concentration",
        ("lorenz_sellers.csv", "lorenz_sellers.json", "lorenz_buyers.csv", "lorenz_buyers.json"),
        ("gini",),
    ),
    ("correlate", ("correlation.csv",), ("kendall",)),
    ("profile", ("profiles.jsonl",), ("profiles",)),
    (
        "report",
        ("summary.json", "summary.txt", "hist_sales.csv", "hist_purchases.csv", "figure5.csv"),
        ("summary",),
    ),
)


class Op(NamedTuple):
    """One CLI invocation: its argv, the artifacts it owns (None: every file
    in the output directory) and the checks that judge them."""

    argv: list[str]
    artifacts: tuple[str, ...] | None
    checks: tuple[str, ...]


def workload_ops(name: str, inputs: Path, out: Path) -> list[Op]:
    if name != "staged_eth":
        return [Op(["run", str(inputs / "input.csv"), "--out", str(out)], None, RUN_CHECKS)]
    events = str(out / "events.csv")
    rankings = str(out / "rankings.csv")
    args = {
        "ingest": [
            str(inputs / "input.ndjson"),
            "--format", "json",
            "--map", "from=seller",
            "--map", "to=buyer",
            "--rates", str(inputs / "rates.csv"),
        ],
        "rank": [events],
        "concentration": [events],
        "correlate": [rankings],
        "profile": [rankings],
        "report": [events, rankings],
    }
    return [
        Op([command] + args[command] + ["--out", str(out)], artifacts, checks)
        for command, artifacts, checks in STAGES
    ]


class BenchError(RuntimeError):
    pass


def run_child(ops: list[Op], trace: bool, scratch: Path, deadline: float) -> dict:
    """One fresh interpreter running ``ops``; adds its set-up time."""
    plan = scratch / "plan.json"
    result = scratch / "result.json"
    plan.write_text(json.dumps({"ops": [op.argv for op in ops], "trace": trace}), encoding="utf-8")
    result.unlink(missing_ok=True)
    spawned = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "child.py"), str(SRC), str(plan), str(result)],
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            timeout=max(1.0, deadline - time.perf_counter()),
            cwd=scratch,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"child interpreter still running after the {DEADLINE_S} s budget")
    tail = proc.stderr.decode("utf-8", "replace")[-2000:]
    if proc.returncode != 0 or not result.exists():
        raise BenchError(f"child interpreter exited with {proc.returncode}:\n{tail}")
    out = json.loads(result.read_text(encoding="utf-8"))
    if any(op["status"] != 0 for op in out["ops"]):
        print(tail, file=sys.stderr)
    out["setup_s"] = out["imported"] - spawned
    return out


def hash_dir(out: Path) -> dict[str, str]:
    if not out.is_dir():
        return {}
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.iterdir())
        if p.is_file()
    }


# ---------------------------------------------------------------------------
# per-layer metrics from one traced pass
# ---------------------------------------------------------------------------

LAYER_UNITS = {
    "ingest.parse_s": "s",
    "ingest.parse_calls": "count",
    "ingest.records_per_s": "records/s",
    "ingest.convert_s": "s",
    "ingest.write_events_s": "s",
    "graph.build_network_s": "s",
    "graph.build_network_calls": "count",
    "graph.adjacency_s": "s",
    "graph.nodes": "count",
    "graph.edges": "count",
    "centrality.hits_s": "s",
    "centrality.hits_iterations": "count",
    "centrality.hits_ms_per_iteration": "ms",
    "centrality.degree_s": "s",
    "econometrics.correlation_s": "s",
    "econometrics.kendall_calls": "count",
    "econometrics.lorenz_s": "s",
    "profiling.metrics_table_s": "s",
    "profiling.build_profiles_s": "s",
    "profiling.build_profiles_calls": "count",
    "report.summarize_s": "s",
    "report.volume_by_s": "s",
    "cli.write_s": "s",
    "cli.load_rankings_s": "s",
    "cli.artifact_bytes": "bytes",
    "cli.self_s": "s",
    "trace.overhead_s": "s",
}


def self_seconds(spans: list, name: str) -> float:
    """Time inside spans called ``name`` not covered by their child spans."""
    covered = defaultdict(float)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    return sum(
        end - start - covered[i]
        for i, (span, start, end, _, _) in enumerate(spans)
        if span == name
    )


def layer_metrics(spans: list, artifact_bytes: int) -> dict[str, float]:
    seconds = defaultdict(float)
    calls = defaultdict(int)
    notes = defaultdict(list)
    for name, start, end, _, note in spans:
        seconds[name] += end - start
        calls[name] += 1
        if note is not None:
            notes[name].append(note)
    parse_s = seconds["ingest.parse_events"]
    hits_s = seconds["centrality.hits"]
    iterations = sum(n["iterations"] for n in notes["centrality.hits"])
    network = notes["graph.build_network"][0] if notes["graph.build_network"] else {}
    records = sum(n["records"] for n in notes["ingest.parse_events"])
    return {
        "ingest.parse_s": parse_s,
        "ingest.parse_calls": calls["ingest.parse_events"],
        "ingest.records_per_s": records / parse_s if parse_s else 0.0,
        "ingest.convert_s": seconds["ingest.convert_currency"],
        "ingest.write_events_s": seconds["ingest.write_events_csv"],
        "graph.build_network_s": seconds["graph.build_network"],
        "graph.build_network_calls": calls["graph.build_network"],
        "graph.adjacency_s": seconds["graph.adjacency"],
        "graph.nodes": network.get("nodes", 0),
        "graph.edges": network.get("edges", 0),
        "centrality.hits_s": hits_s,
        "centrality.hits_iterations": iterations,
        "centrality.hits_ms_per_iteration": 1000.0 * hits_s / iterations if iterations else 0.0,
        "centrality.degree_s": seconds["centrality.degree_metrics"],
        "econometrics.correlation_s": seconds["econometrics.correlation_matrix"],
        "econometrics.kendall_calls": calls["econometrics.kendall_tau"],
        "econometrics.lorenz_s": seconds["econometrics.lorenz"],
        "profiling.metrics_table_s": seconds["profiling.build_metrics_table"],
        "profiling.build_profiles_s": seconds["profiling.build_profiles"],
        "profiling.build_profiles_calls": calls["profiling.build_profiles"],
        "report.summarize_s": seconds["report.summarize"],
        "report.volume_by_s": seconds["report.volume_by_seller"] + seconds["report.volume_by_buyer"],
        "cli.write_s": self_seconds(spans, "cli.writer"),
        "cli.load_rankings_s": seconds["cli.load_rankings_csv"],
        "cli.artifact_bytes": artifact_bytes,
        "cli.self_s": self_seconds(spans, "cli.main"),
    }


def op_of_span(spans: list) -> list[int]:
    """Index of the CLI invocation (top-level span) each span belongs to."""
    owner = []
    ops = -1
    for _, _, _, parent, _ in spans:
        if parent < 0:
            ops += 1
            owner.append(ops)
        else:
            owner.append(owner[parent])
    return owner


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(markets.SPECS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    deadline = time.perf_counter() + DEADLINE_S
    if not (SRC / "artrank" / "cli.py").is_file():
        print(f"error: artrank sources not found under {SRC}", file=sys.stderr)
        return 2

    work = WORK / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    inputs = work / "inputs"
    inputs.mkdir(parents=True)
    try:
        return bench(args, work, inputs, deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def bench(args, work: Path, inputs: Path, deadline: float) -> int:
    market = markets.write_inputs(args.workload, args.seed, inputs)
    ref_out = work / "out-ref"
    pass_out = work / "out-pass"

    setup = [run_child([], False, work, deadline)["setup_s"] for _ in range(SETUP_SAMPLES)]

    passes = []  # (traced, child result, artifact hashes, artifact bytes)

    def run_pass(traced: bool) -> None:
        out = ref_out if not passes else pass_out
        shutil.rmtree(out, ignore_errors=True)
        result = run_child(workload_ops(args.workload, inputs, out), traced, work, deadline)
        size = sum(p.stat().st_size for p in out.iterdir()) if out.is_dir() else 0
        passes.append((traced, result, hash_dir(out), size))
        if out is pass_out:
            shutil.rmtree(out, ignore_errors=True)

    # A timed run reports the median of at least two passes. A traced run
    # follows each timed pass with a traced one and ends with one more timed
    # pass, so that the timed passes bracket the traced ones in time.
    min_passes = 2 if not args.trace else 1
    started = time.perf_counter()
    while len(passes) < min_passes or time.perf_counter() - started < args.seconds:
        for traced in (False, True) if args.trace else (False,):
            run_pass(traced)
    if args.trace:
        run_pass(False)
    setup += [result["setup_s"] for _, result, _, _ in passes]

    ops = workload_ops(args.workload, inputs, ref_out)
    expected = checks.expected_from(market)
    ref_hashes = passes[0][2]
    op_problems = [checks.run_checks(op.checks, market, expected, ref_out) for op in ops]
    attempted = failed = 0
    for traced, result, hashes, _ in passes:
        unconverged = set()
        if traced:
            owners = op_of_span(result["spans"])
            for k, (name, _, _, _, note) in enumerate(result["spans"]):
                if name == "centrality.hits" and not note["converged"]:
                    unconverged.add(owners[k])
        for k, (op, outcome) in enumerate(zip(ops, result["ops"])):
            names = op.artifacts or set(hashes) | set(ref_hashes)
            problems = list(op_problems[k])
            if outcome["status"] != 0:
                problems.append(f"exit status {outcome['status']}")
            if any(n not in hashes or hashes[n] != ref_hashes.get(n) for n in names):
                problems.append("artifacts differ from the first pass")
            if k in unconverged:
                problems.append("HITS did not converge")
            attempted += 1
            if problems:
                failed += 1
                print(f"FAILED {op.argv[0]} ({'traced' if traced else 'timed'} pass): "
                      + "; ".join(problems[:10]), file=sys.stderr)

    for name, digest in sorted(ref_hashes.items()):
        print(f"sha256 {args.workload} {name} {digest}")
    timed = [r for t, r, _, _ in passes if not t]
    run_s = [sum(o["seconds"] for o in r["ops"]) for r in timed]
    print(f"passes: {len(timed)} timed, {len(passes) - len(timed)} traced; "
          f"run_s {[round(v, 3) for v in run_s]}; setup_s {[round(v, 3) for v in setup]}")
    if args.trace:
        per_pass = [layer_metrics(r["spans"], size) for t, r, _, size in passes if t]
        traced_run_s = [sum(o["seconds"] for o in r["ops"]) for t, r, _, _ in passes if t]
        metrics = {key: statistics.median(m[key] for m in per_pass) for key in per_pass[0]}
        metrics["trace.overhead_s"] = statistics.median(traced_run_s) - statistics.median(run_s)
        trace_file = WORK / f"trace-{args.workload}-seed{args.seed}.json"
        trace_file.write_text(json.dumps([r["spans"] for t, r, _, _ in passes if t]), encoding="utf-8")
        print(f"spans: {trace_file}")
        units = LAYER_UNITS
    else:
        median_run = statistics.median(run_s)
        metrics = {
            "setup_s": statistics.median(setup),
            "run_s": median_run,
            "events_per_s": market.n_rows / median_run,
            "peak_rss_mb": statistics.median(r["peak_rss_kib"] for r in timed) * 1024 / 1e6,
        }
        units = {"setup_s": "s", "run_s": "s", "events_per_s": "records/s", "peak_rss_mb": "MB"}
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(1)
