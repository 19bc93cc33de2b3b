"""End-to-end pipeline behavior: artifacts, determinism, error paths."""

import argparse
import csv
import dataclasses
import hashlib
import json
import os
import platform
import re
import subprocess
import sys
from datetime import datetime, timedelta, timezone
from decimal import Decimal, localcontext
from pathlib import Path

import numpy as np
import pytest

from artrank import (
    artifacts,
    cli,
    econometrics,
    ingest,
    parse_events,
    volume_by_buyer,
    volume_by_seller,
)
from helpers import count_forks, count_range_forks, market_csv

FIXTURE_CSV = """seller,buyer,creator,price_eth,price_usd,timestamp,artwork_id
ann,bob,ann,1.0,2300,2021-04-20T10:00:00Z,a1
ann,carl,ann,0.5,1150,2021-04-20T11:00:00Z,a2
mia,bob,mia,2.0,,2021-04-21T09:30:00Z,m1
mia,carl,mia,,700,2021-04-21T10:00:00Z,m2
bob,carl,ann,1.5,3450,2021-04-21T12:00:00Z,a1
ann,dora,ann,0,0,2021-04-21T13:00:00Z,a3
carl,ann,ann,1.0,2400,2021-04-21T14:00:00Z,a2
mia,dora,mia,0.2,480,2021-04-22T09:00:00Z,m3
dora,bob,mia,0.4,960,2021-04-22T10:00:00Z,m3
ann,eve,ann,0.1,240,2021-04-22T11:00:00Z,a4
eve,eve,ann,1.0,2400,2021-04-22T12:00:00Z,a4
"""
# 11 rows: 10 valid events (one needs ETH conversion, one zero price, one
# buy-back dropped later in the graph) plus 1 self-sale reject

RATES_CSV = """date,usd_per_eth
2021-04-20,2300
2021-04-21,2300
2021-04-22,2400
"""

RUN_ARTIFACTS = {
    "events.csv",
    "ingest_report.json",
    "edges.csv",
    "rankings.csv",
    "lorenz_sellers.csv",
    "lorenz_sellers.json",
    "lorenz_buyers.csv",
    "lorenz_buyers.json",
    "correlation.csv",
    "profiles.jsonl",
    "summary.json",
    "summary.txt",
    "hist_sales.csv",
    "hist_purchases.csv",
    "figure5.csv",
}


@pytest.fixture
def fixture_dir(tmp_path):
    (tmp_path / "sales.csv").write_text(FIXTURE_CSV, encoding="utf-8")
    (tmp_path / "rates.csv").write_text(RATES_CSV, encoding="utf-8")
    return tmp_path


def run_cli(*argv) -> int:
    return cli.main([str(a) for a in argv])


def read_tree(out_dir: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(out_dir.iterdir()) if p.is_file()}


def test_run_produces_full_manifest(fixture_dir):
    out = fixture_dir / "out"
    status = run_cli("run", fixture_dir / "sales.csv", "--rates", fixture_dir / "rates.csv", "--out", out)
    assert status == 0
    manifest = json.loads((out / "manifest.json").read_text())
    names = {entry["name"] for entry in manifest["files"]}
    assert names == RUN_ARTIFACTS
    for entry in manifest["files"]:
        digest = hashlib.sha256((out / entry["name"]).read_bytes()).hexdigest()
        assert digest == entry["sha256"]
    report = json.loads((out / "ingest_report.json").read_text())
    assert report["total_records"] == 11
    assert report["accepted"] == 10
    assert report["rejects"] == [{"row": 11, "reason": "self-sale"}]
    assert report["zero_price_events"] == 1
    assert not (out / ".lock").exists()


def test_run_twice_is_byte_identical(fixture_dir):
    out1 = fixture_dir / "out1"
    out2 = fixture_dir / "out2"
    for out in (out1, out2):
        assert run_cli(
            "run", fixture_dir / "sales.csv", "--rates", fixture_dir / "rates.csv", "--out", out
        ) == 0
    assert read_tree(out1) == read_tree(out2)


def test_missing_rate_is_fatal_and_names_date(fixture_dir, capsys):
    (fixture_dir / "rates.csv").write_text(
        "date,usd_per_eth\n2021-04-20,2300\n2021-04-22,2400\n", encoding="utf-8"
    )
    status = run_cli(
        "run",
        fixture_dir / "sales.csv",
        "--rates",
        fixture_dir / "rates.csv",
        "--out",
        fixture_dir / "out",
    )
    assert status == 1
    err = capsys.readouterr().err
    assert "2021-04-21" in err
    assert "missing exchange rate" in err


@pytest.mark.parametrize("rate", ["Infinity", "NaN", "sNaN"])
def test_non_finite_rate_is_fatal_and_names_line(fixture_dir, capsys, rate):
    (fixture_dir / "rates.csv").write_text(
        RATES_CSV.replace("2021-04-21,2300", f"2021-04-21,{rate}"), encoding="utf-8"
    )
    status = run_cli(
        "run", fixture_dir / "sales.csv", "--rates", fixture_dir / "rates.csv",
        "--out", fixture_dir / "out",
    )
    assert status == 1
    assert "error: rate table line 3: non-finite rate" in capsys.readouterr().err


# the sha256 of every artifact that test_staged_subcommands_match_run writes, one
# ``input name sha256`` line each, under ``# python`` and ``# numpy`` lines that
# record the versions that wrote them
GOLDEN = Path(__file__).resolve().parent / "golden" / "staged_vs_run.sha256"
# the fixture's JSON field names: the canonical name each one maps to
JSON_FIELDS = {
    "from": "seller",
    "to": "buyer",
    "artist": "creator",
    "eth": "price_eth",
    "usd": "price_usd",
    "time": "timestamp",
    "token": "artwork_id",
}


def assert_golden(trees: dict[str, dict[str, bytes]]) -> None:
    """Each file of ``trees`` (input name -> artifact name -> bytes) has the sha256
    that ``GOLDEN`` records, and ``GOLDEN`` records no other file."""
    lines = GOLDEN.read_text(encoding="utf-8").splitlines()
    recorded = dict(line[2:].split(" ", 1) for line in lines if line.startswith("# "))
    rows = (line.split() for line in lines if not line.startswith("#"))
    expected = {(source, name): digest for source, name, digest in rows}
    got = {
        (source, name): hashlib.sha256(data).hexdigest()
        for source, files in trees.items()
        for name, data in files.items()
    }
    moved = sorted(" ".join(key) for key in expected.keys() | got.keys() if expected.get(key) != got.get(key))
    assert not moved, (
        f"{moved} differ from {GOLDEN.name}, recorded with Python {recorded['python']} and"
        f" numpy {recorded['numpy']}; this is Python {platform.python_version()} and numpy"
        f" {np.__version__}"
    )


def test_staged_subcommands_match_run(fixture_dir, monkeypatch):
    inputs = {"fixture": [fixture_dir / "sales.csv", "--rates", fixture_dir / "rates.csv"]}
    for seed in (1, 2, 3):
        market = fixture_dir / f"market{seed}.csv"
        market.write_text(market_csv(seed, 600), encoding="utf-8")
        inputs[market.stem] = [market]
    # the fixture as one JSON object per line, its fields renamed and its empty cells left out
    renamed = {canonical: name for name, canonical in JSON_FIELDS.items()}
    ndjson = fixture_dir / "sales.ndjson"
    ndjson.write_text(
        "".join(
            json.dumps({renamed[field]: cell for field, cell in row.items() if cell}) + "\n"
            for row in csv.DictReader(FIXTURE_CSV.splitlines())
        ),
        encoding="utf-8",
    )
    maps = [arg for name, canonical in JSON_FIELDS.items() for arg in ("--map", f"{name}={canonical}")]
    inputs["fixture-ndjson"] = [ndjson, "--format", "json", *maps, "--rates", fixture_dir / "rates.csv"]

    def run_and_staged(mode):
        trees = {}
        for name, argv in inputs.items():
            run_out, staged = fixture_dir / mode / name, fixture_dir / mode / f"{name}-staged"
            assert run_cli("run", *argv, "--out", run_out) == 0
            assert run_cli("ingest", *argv, "--out", staged) == 0
            assert run_cli("rank", staged / "events.csv", "--out", staged) == 0
            assert run_cli("concentration", staged / "events.csv", "--out", staged) == 0
            assert run_cli("correlate", staged / "rankings.csv", "--out", staged) == 0
            assert run_cli("profile", staged / "rankings.csv", "--out", staged) == 0
            assert run_cli(
                "report", staged / "events.csv", staged / "rankings.csv", "--out", staged
            ) == 0
            run_files = read_tree(run_out)
            del run_files["manifest.json"]  # stage commands do not emit a manifest
            assert read_tree(staged) == run_files, (mode, name)
            trees[name] = run_files
        return trees

    here = run_and_staged("here")
    assert_golden(here)
    # run's writes in forked children, and each input and events.csv parsed in two byte ranges
    monkeypatch.setattr(artifacts, "_BACKGROUND_ROWS", 1)
    monkeypatch.setattr(ingest, "_MIN_RANGE_BYTES", 1)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    forks, range_forks = count_forks(monkeypatch), count_range_forks(monkeypatch)
    assert run_and_staged("forked") == here
    assert_no_child_left()
    assert range_forks and len(forks) > len(range_forks)


def test_inputs_parsed_in_byte_ranges_give_the_same_artifacts(tmp_path, monkeypatch):
    (tmp_path / "sales.csv").write_text(market_csv(7, 3000), encoding="utf-8")

    def artifacts(out, min_range_bytes):
        monkeypatch.setattr(ingest, "_MIN_RANGE_BYTES", min_range_bytes)
        assert run_cli("run", tmp_path / "sales.csv", "--out", out / "run") == 0
        assert run_cli("ingest", tmp_path / "sales.csv", "--out", out / "staged") == 0
        assert run_cli("rank", out / "staged" / "events.csv", "--out", out / "staged") == 0
        return read_tree(out / "run"), read_tree(out / "staged")

    one = artifacts(tmp_path / "one", 1 << 60)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
    forks = count_range_forks(monkeypatch)
    assert artifacts(tmp_path / "ranges", 1) == one
    assert len(forks) == 3 * 3  # input.csv twice and events.csv once, in four ranges each


def background_writes(patch) -> list[int]:
    """Let writes of any size run in forked children, as on a machine with two
    CPUs, with every input parsed in one range; returns the list of forked
    pids that ``count_forks`` fills."""
    patch.setattr(artifacts, "_BACKGROUND_ROWS", 1)
    patch.setattr(ingest, "_MIN_RANGE_BYTES", 1 << 60)
    patch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    return count_forks(patch)


def assert_no_child_left() -> None:
    with pytest.raises(ChildProcessError):  # no child left, running or unreaped
        os.waitpid(-1, os.WNOHANG)


def test_background_writes_give_the_same_bytes_and_manifest(fixture_dir, monkeypatch):
    (fixture_dir / "market.csv").write_text(market_csv(3, 400), encoding="utf-8")
    runs = [
        ("fixture", [fixture_dir / "sales.csv", "--rates", fixture_dir / "rates.csv"]),
        ("market", [fixture_dir / "market.csv"]),
    ]
    for name, argv in runs:
        assert run_cli("run", *argv, "--out", fixture_dir / name / "here") == 0
    forks = background_writes(monkeypatch)
    for name, argv in runs:
        before = len(forks)
        assert run_cli("run", *argv, "--out", fixture_dir / name / "forked") == 0
        assert_no_child_left()
        # events, rankings, edges, both Lorenz CSVs, correlation and profiles;
        # JSON, text and the last stage's artifacts are written here
        assert len(forks) - before == 7
        here = read_tree(fixture_dir / name / "here")
        assert read_tree(fixture_dir / name / "forked") == here
        assert set(here) == RUN_ARTIFACTS | {"manifest.json"}


def test_a_failed_background_write_fails_the_run(fixture_dir, monkeypatch, capsys):
    argv = (fixture_dir / "sales.csv", "--rates", fixture_dir / "rates.csv")
    errors = []
    for name in ("here", "forked"):
        out = fixture_dir / name
        (out / cli.RANKINGS_CSV).mkdir(parents=True)
        if name == "forked":
            forks = background_writes(monkeypatch)
        assert run_cli("run", *argv, "--out", out) == 1
        errors.append(capsys.readouterr().err)
        assert not (out / "manifest.json").exists()
        assert not (out / ".lock").exists()
        assert_no_child_left()
    assert forks
    here, forked = errors
    assert here.startswith("error: [Errno 21] Is a directory: ") and "here/rankings.csv" in here
    # the error the write gives in this process, raised where it is joined
    assert forked == here.replace("here/rankings.csv", "forked/rankings.csv")


def test_stage_subcommands_write_in_this_process(fixture_dir, monkeypatch):
    out = fixture_dir / "out"
    forks = background_writes(monkeypatch)
    argv = (fixture_dir / "sales.csv", "--rates", fixture_dir / "rates.csv", "--out", out)
    assert run_cli("ingest", *argv) == 0
    for stage in ("rank", "concentration"):
        assert run_cli(stage, out / "events.csv", "--out", out) == 0
    for stage in ("correlate", "profile"):
        assert run_cli(stage, out / "rankings.csv", "--out", out) == 0
    assert run_cli("report", out / "events.csv", out / "rankings.csv", "--out", out) == 0
    assert forks == []


def test_a_later_write_or_remove_of_a_name_joins_its_background_write(tmp_path, monkeypatch):
    forks = background_writes(monkeypatch)
    with cli.ArtifactWriter(tmp_path) as writer:
        writer.background = True
        writer.csv("a.csv", ("x",), [list("123")])
        writer.csv("b.csv", ("x",), [list("45")])
        writer.text("a.csv", "last\n")
        writer.remove("b.csv")
        files = writer.manifest()["files"]
    assert len(forks) == 2
    assert_no_child_left()
    assert (tmp_path / "a.csv").read_text(encoding="utf-8") == "last\n"
    assert not (tmp_path / "b.csv").exists()
    digest = hashlib.sha256(b"last\n").hexdigest()
    assert files == [{"name": "a.csv", "sha256": digest, "size": 5}]


NO_RECORD_ACCEPTED = {
    "header only": (
        "sales.csv",
        "seller,buyer,creator,price_usd,timestamp\n",
        "error: no record accepted: {path} holds no records\n",
    ),
    "all rejected": (
        "sales.csv",
        "seller,buyer,creator,price_usd,timestamp\nann,ann,ann,10,100\nbob,,ann,10,100\n",
        "error: no record accepted: 2 rejected, the first is record 1 (self-sale)\n",
    ),
    "NDJSON read as CSV": (
        "sales.ndjson",
        '{"seller": "a", "buyer": "b", "creator": "a", "price_usd": 1, "timestamp": 1}\n' * 3,
        "error: no record accepted: 2 rejected, the first is record 1 (missing field: seller)\n",
    ),
}


@pytest.mark.parametrize("command", ["ingest", "run"])
@pytest.mark.parametrize("case", list(NO_RECORD_ACCEPTED))
def test_a_log_without_an_accepted_record_is_refused(tmp_path, capsys, caplog, command, case):
    name, text, error = NO_RECORD_ACCEPTED[case]
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    out = tmp_path / "out"
    with caplog.at_level("WARNING", logger="artrank.cli"):
        assert run_cli(command, path, "--out", out) == 1
    assert capsys.readouterr().err == error.format(path=path)
    assert list(out.iterdir()) == []
    rejects = 0 if case == "header only" else 2
    assert len([r for r in caplog.records if "rejected:" in r.getMessage()]) == rejects


def test_ndjson_id_with_a_lone_surrogate_is_one_reject(tmp_path):
    # the JSON escape \ud800 names a code point that UTF-8 cannot encode
    lines = [
        '{"seller": "a\\ud800", "buyer": "b", "creator": "a\\ud800", "price_usd": 1, "timestamp": 1}',
        '{"seller": "c", "buyer": "b", "creator": "c", "price_usd": 2, "timestamp": 2}',
    ]
    (tmp_path / "sales.ndjson").write_text("\n".join(lines) + "\n", encoding="utf-8")
    out = tmp_path / "out"
    assert run_cli("ingest", tmp_path / "sales.ndjson", "--format", "json", "--out", out) == 0
    report = json.loads((out / "ingest_report.json").read_text(encoding="utf-8"))
    assert report["rejects"] == [{"row": 1, "reason": "lone surrogate in field: seller"}]
    assert (out / "events.csv").read_text(encoding="utf-8").splitlines()[1:] == [
        "c,b,c,,2,1970-01-01T00:00:02+00:00,"
    ]


def test_json_array_id_with_a_lone_surrogate_is_the_ndjson_reject(tmp_path):
    records = [
        '{"seller": "a\\ud800", "buyer": "b", "creator": "a\\ud800", "price_usd": 1, "timestamp": 1}',
        '{"seller": "c", "buyer": "b", "creator": "c", "price_usd": 2, "timestamp": 2}',
    ]
    events = []
    layouts = {"lines.json": "\n".join(records), "array.json": f"[{','.join(records)}]"}
    for name, text in layouts.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
        out = tmp_path / f"out-{name}"
        assert run_cli("ingest", tmp_path / name, "--format", "json", "--out", out) == 0
        report = json.loads((out / "ingest_report.json").read_text(encoding="utf-8"))
        assert report["rejects"] == [{"row": 1, "reason": "lone surrogate in field: seller"}]
        events.append((out / "events.csv").read_bytes())
    assert events[0] == events[1]


@pytest.mark.parametrize("package", ["scipy", "multiprocessing", "concurrent", "configparser"])
def test_cli_import_loads_no_scipy(package):
    # numpy is the only runtime dependency; scipy would add about 0.25 s per
    # start-up, and ranged parsing forks with os.fork and pickle, both loaded
    src = Path(cli.__file__).resolve().parents[1]
    code = f"import sys, artrank.cli; print(sorted(m for m in sys.modules if {package!r} in m))"
    result = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        check=True,
    )
    assert result.stdout.strip() == "[]"


def test_lock_file_blocks_concurrent_run(fixture_dir, capsys):
    out = fixture_dir / "out"
    out.mkdir()
    (out / ".lock").touch()
    status = run_cli(
        "run", fixture_dir / "sales.csv", "--rates", fixture_dir / "rates.csv", "--out", out
    )
    assert status == 1
    assert "locked" in capsys.readouterr().err


def test_lock_error_quotes_owner_of_existing_lock(fixture_dir, capsys):
    out = fixture_dir / "out"
    out.mkdir()
    owner = "pid=4242\nhost=otherbox\nstarted=2026-01-02T03:04:05Z\n"
    (out / ".lock").write_text(owner, encoding="utf-8")
    status = run_cli(
        "run", fixture_dir / "sales.csv", "--rates", fixture_dir / "rates.csv", "--out", out
    )
    assert status == 1
    err = capsys.readouterr().err
    assert "locked by another run (pid=4242, host=otherbox, started=2026-01-02T03:04:05Z)" in err
    assert "if that process is gone, remove the file" in err
    assert (out / ".lock").read_text(encoding="utf-8") == owner  # left to its owner
    assert not (out / "events.csv").exists()


def test_a_lock_that_cannot_be_read_names_no_owner(fixture_dir, capsys):
    out = fixture_dir / "out"
    (out / ".lock").mkdir(parents=True)
    assert run_cli("run", fixture_dir / "sales.csv", "--out", out) == 1
    err = capsys.readouterr().err
    assert f"locked by another run (owner not recorded): {out / '.lock'}" in err
    assert (out / ".lock").is_dir()
    assert not (out / "events.csv").exists()


def _reaped_pid() -> int:
    """The pid of a child that has exited and been reaped: no process has it until
    the system gives it out again."""
    child = subprocess.Popen([sys.executable, "-c", ""])
    child.wait()
    return child.pid


def test_a_stale_lock_of_this_host_is_taken_over(fixture_dir, caplog):
    out = fixture_dir / "out"
    out.mkdir()
    holder = f"pid={_reaped_pid()}\nhost={os.uname().nodename}\nstarted=2026-01-02T03:04:05Z\n"
    (out / ".lock").write_text(holder, encoding="utf-8")
    with caplog.at_level("WARNING", logger="artrank.artifacts"):
        status = run_cli(
            "run", fixture_dir / "sales.csv", "--rates", fixture_dir / "rates.csv", "--out", out
        )
    assert status == 0
    warnings = [r.getMessage() for r in caplog.records if r.name == "artrank.artifacts"]
    quoted = ", ".join(holder.split())
    assert warnings == [f"took over the lock of a run that is gone ({quoted}): {out / '.lock'}"]
    assert json.loads((out / "manifest.json").read_text(encoding="utf-8"))["files"]
    assert not (out / ".lock").exists()


@pytest.mark.parametrize(
    "pid", [os.getpid(), 1, 0, "", "x1"], ids=["this process", "init", "zero", "empty", "not a number"]
)
def test_a_lock_of_this_host_is_kept_unless_its_process_is_gone(fixture_dir, capsys, pid):
    out = fixture_dir / "out"
    out.mkdir()
    holder = f"pid={pid}\nhost={os.uname().nodename}\n"
    (out / ".lock").write_text(holder, encoding="utf-8")
    assert run_cli("run", fixture_dir / "sales.csv", "--out", out) == 1
    assert "locked by another run" in capsys.readouterr().err
    assert (out / ".lock").read_text(encoding="utf-8") == holder
    assert not (out / "events.csv").exists()


def test_lock_records_this_run_while_held(fixture_dir, monkeypatch):
    out = fixture_dir / "out"
    seen = []
    original = cli.ArtifactWriter.json

    def json_noting_lock(self, name, payload):
        seen.append((out / ".lock").read_text(encoding="utf-8"))
        return original(self, name, payload)

    monkeypatch.setattr(cli.ArtifactWriter, "json", json_noting_lock)
    status = run_cli(
        "run", fixture_dir / "sales.csv", "--rates", fixture_dir / "rates.csv", "--out", out
    )
    assert status == 0
    assert seen
    fields = dict(line.split("=", 1) for line in seen[0].splitlines())
    assert list(fields) == ["pid", "host", "started"]
    assert fields["pid"] == str(os.getpid())
    assert fields["host"] == platform.node()
    started = datetime.strptime(fields["started"], "%Y-%m-%dT%H:%M:%SZ")
    assert abs(datetime.now(timezone.utc) - started.replace(tzinfo=timezone.utc)) < timedelta(
        minutes=5
    )
    assert not (out / ".lock").exists()  # a finished run leaves no lock


def test_rankings_artifact_layout(fixture_dir):
    out = fixture_dir / "out"
    run_cli("run", fixture_dir / "sales.csv", "--rates", fixture_dir / "rates.csv", "--out", out)
    with (out / "rankings.csv").open(newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert set(rows[0]) == set(cli.RANKINGS_HEADER)
    authorities = [float(r["authority"]) for r in rows]
    assert authorities == sorted(authorities, reverse=True)  # default sort key
    users = {r["user"] for r in rows}
    assert users == {"ann", "bob", "carl", "dora", "eve", "mia"}
    ann = next(r for r in rows if r["user"] == "ann")
    # ann sold a1/a2/a3/a4 originals: 5 endorsements total, one (eve buy-back) dropped
    assert ann["in_degree"] == "5"

    with (out / "edges.csv").open(newline="") as handle:
        edges = list(csv.DictReader(handle))
    assert all(e["collector"] != e["artist"] for e in edges)
    mia_conversion = next(
        r for r in rows if r["user"] == "mia"
    )  # 2 ETH * 2300 converted into strengths
    assert float(mia_conversion["in_strength"]) == pytest.approx(4600 + 700 + 480 + 960)


def test_correlation_artifact_shape(fixture_dir):
    out = fixture_dir / "out"
    run_cli("run", fixture_dir / "sales.csv", "--rates", fixture_dir / "rates.csv", "--out", out)
    with (out / "correlation.csv").open(newline="") as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == ["metric", "auth", "w-auth", "in-str", "in-deg", "hub", "w-hub", "out-str", "out-deg"]
    assert len(rows) == 9
    assert all(len(r) == 9 for r in rows)


def test_profiles_artifact_contents(fixture_dir):
    out = fixture_dir / "out"
    run_cli("run", fixture_dir / "sales.csv", "--rates", fixture_dir / "rates.csv", "--out", out)
    lines = (out / "profiles.jsonl").read_text().splitlines()
    assert len(lines) == 6
    record = json.loads(lines[0])
    assert set(record) == {"user", "role", "artist_code", "collector_code", "normalized", "trader_score"}
    assert set(record["normalized"]) == set(cli.METRIC_NAMES)
    assert record["role"] in {"by_stander", "pure_seller", "pure_buyer", "trader"}
    assert len(record["artist_code"]) == 4


def test_profile_match_query_csv(fixture_dir):
    staged = fixture_dir / "staged"
    run_cli("ingest", fixture_dir / "sales.csv", "--rates", fixture_dir / "rates.csv", "--out", staged)
    run_cli("rank", staged / "events.csv", "--out", staged)
    status = run_cli(
        "profile", staged / "rankings.csv", "--out", staged, "--match", "A***"
    )
    assert status == 0
    with (staged / "matches.csv").open(newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert rows, "expected at least one top in-degree artist"
    assert set(rows[0]) == {"user", "role", "artist_code", "collector_code"}
    assert all(r["artist_code"].startswith("A") for r in rows)


def test_config_env_flag_precedence(fixture_dir, monkeypatch):
    config = fixture_dir / "artrank.ini"
    config.write_text(
        "[hits]\nmax_iterations = 7\n[output]\ndirectory = from_config\n", encoding="utf-8"
    )
    monkeypatch.setenv("ARTRANK_HITS_MAX_ITERATIONS", "9")
    parser_args = ["run", str(fixture_dir / "sales.csv"), "--rates", str(fixture_dir / "rates.csv"), "--config", str(config)]
    args = cli._build_parser().parse_args(parser_args)
    cfg = cli._resolve_config(args)
    assert cfg.max_iterations == 9  # env wins over config
    assert cfg.out_dir == Path("from_config")
    args = cli._build_parser().parse_args(parser_args + ["--max-iterations", "11"])
    cfg = cli._resolve_config(args)
    assert cfg.max_iterations == 11  # flag wins over env
    monkeypatch.delenv("ARTRANK_HITS_MAX_ITERATIONS")
    cfg = cli._resolve_config(cli._build_parser().parse_args(parser_args))
    assert cfg.max_iterations == 7  # config wins over defaults


def resolved(argv, config_text=None, tmp_path=None) -> cli.RunConfig:
    """The config that ``argv`` resolves to, with ``config_text`` as its INI file."""
    if config_text is not None:
        config = tmp_path / "artrank.ini"
        config.write_text(config_text, encoding="utf-8")
        argv = [*argv, "--config", str(config)]
    return cli._resolve_config(cli._build_parser().parse_args(argv))


# each subcommand's artifact arguments
COMMAND_ARGS = {
    "ingest": [], "rank": ["e.csv"], "concentration": ["e.csv"], "correlate": ["r.csv"],
    "profile": ["r.csv"], "report": ["e.csv", "r.csv"], "run": [],
}
# per RunConfig field: its INI section and key, its flag (None: the positional INPUT),
# the commands that take the flag, and three texts for the INI file, the environment
# and the flag, each with the value it resolves to; the flag's is not the default
SETTINGS = {
    "input_path": ("input", "path", None, ("ingest", "run"),
                   [("i.csv", Path("i.csv")), ("e.csv", Path("e.csv")), ("f.csv", Path("f.csv"))]),
    "input_format": ("input", "format", "--format", ("ingest", "run"),
                     [("xml", "xml"), ("yaml", "yaml"), ("json", "json")]),
    "field_map": ("input", "map", "--map", ("ingest", "run"),
                  [("a=seller", {"a": "seller"}), ("b=buyer", {"b": "buyer"}),
                   ("c=creator", {"c": "creator"})]),
    "rates_path": ("input", "rates", "--rates", ("ingest", "run"),
                   [("i.csv", Path("i.csv")), ("e.csv", Path("e.csv")), ("f.csv", Path("f.csv"))]),
    "tolerance": ("hits", "tolerance", "--tolerance", ("rank", "run"),
                  [("1e-3", 1e-3), ("1e-4", 1e-4), ("1e-5", 1e-5)]),
    "max_iterations": ("hits", "max_iterations", "--max-iterations", ("rank", "run"),
                       [("7", 7), ("9", 9), ("11", 11)]),
    "role_percentile": ("profiling", "role_percentile", "--role-percentile", ("profile", "run"),
                        [("0.5", 0.5), ("0.6", 0.6), ("0.7", 0.7)]),
    "tie_rank": ("profiling", "tie_rank", "--tie-rank", ("profile", "run"),
                 [("mean", "mean"), ("dense", "dense"), ("min", "min")]),
    # a store_true flag: its text is not passed, and the environment's value must
    # differ from the other two for the precedence to show
    "unweighted_multiplicity": ("graph", "unweighted_multiplicity", "--unweighted-multiplicity",
                                ("rank", "run"), [("on", True), ("off", False), ("true", True)]),
    "out_dir": ("output", "directory", "--out", tuple(COMMAND_ARGS),
                [("i", Path("i")), ("e", Path("e")), ("f", Path("f"))]),
    "sort_by": ("rankings", "sort_by", "--sort-by", ("rank", "run"),
                [("hub", "hub"), ("w_hub", "w_hub"), ("user", "user")]),
}


def setting_sources(monkeypatch, tmp_path, setting, command, ini=None, env=None, flag=None):
    """The config ``command`` resolves to with the setting's INI key, environment
    variable and flag each set to its text, where one is given."""
    section, key, option, _, values = SETTINGS[setting.name]
    argv = [command, *COMMAND_ARGS[command]]
    if flag is not None:
        if option is None:
            argv.append(flag)
        elif isinstance(values[2][1], bool):  # a switch
            argv.append(option)
        else:
            argv += [option, flag]
    if env is not None:
        monkeypatch.setenv(f"ARTRANK_{section}_{key}".upper(), env)
    text = None if ini is None else f"[{section}]\n{key} = {ini}\n"
    return resolved(argv, text, tmp_path)


@pytest.mark.parametrize("setting", dataclasses.fields(cli.RunConfig), ids=lambda f: f.name)
def test_every_setting_resolves_from_each_source(monkeypatch, tmp_path, setting):
    *_, commands, values = SETTINGS[setting.name]
    text, value = values[2]
    expected = dataclasses.replace(cli.RunConfig(), **{setting.name: value})
    assert expected != cli.RunConfig()
    for source in ("ini", "env"):
        with monkeypatch.context() as patch:
            got = setting_sources(patch, tmp_path, setting, "run", **{source: text})
        assert got == expected, source
    for command in commands:
        assert setting_sources(monkeypatch, tmp_path, setting, command, flag=text) == expected


@pytest.mark.parametrize("setting", dataclasses.fields(cli.RunConfig), ids=lambda f: f.name)
def test_every_setting_takes_the_flag_then_the_environment(monkeypatch, tmp_path, setting):
    *_, commands, [(ini, _), (env, env_value), (flag, flag_value)] = SETTINGS[setting.name]
    for command in commands:
        both = setting_sources(monkeypatch, tmp_path, setting, command, ini=ini, env=env)
        assert getattr(both, setting.name) == env_value
        every = setting_sources(monkeypatch, tmp_path, setting, command, ini, env, flag)
        assert getattr(every, setting.name) == flag_value


@pytest.mark.parametrize(
    "word,value", [("yes", True), ("On", True), ("0", False), ("false", False)]
)
def test_unweighted_multiplicity_from_config_and_environment(tmp_path, monkeypatch, word, value):
    text = f"[graph]\nunweighted_multiplicity = {word}\n"
    assert resolved(["rank", "events.csv"], text, tmp_path).unweighted_multiplicity is value
    monkeypatch.setenv("ARTRANK_GRAPH_UNWEIGHTED_MULTIPLICITY", word)
    assert resolved(["rank", "events.csv"]).unweighted_multiplicity is value
    # the flag can only switch it on
    assert resolved(["rank", "events.csv", "--unweighted-multiplicity"]).unweighted_multiplicity


def test_booleans_are_the_words_configparser_reads():
    # cli imports configparser only to read a config file, so it keeps its own table
    import configparser

    assert cli._BOOLEANS == configparser.ConfigParser.BOOLEAN_STATES


def test_a_word_that_is_not_a_boolean_is_an_error(fixture_dir, monkeypatch, capsys):
    sales, out = fixture_dir / "sales.csv", fixture_dir / "out"
    monkeypatch.setenv("ARTRANK_GRAPH_UNWEIGHTED_MULTIPLICITY", "maybe")
    assert run_cli("run", sales, "--out", out) == 1
    err = capsys.readouterr().err
    assert "error: environment ARTRANK_GRAPH_UNWEIGHTED_MULTIPLICITY: not a boolean: 'maybe'" in err
    monkeypatch.delenv("ARTRANK_GRAPH_UNWEIGHTED_MULTIPLICITY")
    config = fixture_dir / "artrank.ini"
    config.write_text("[graph]\nunweighted_multiplicity = maybe\n", encoding="utf-8")
    assert run_cli("run", sales, "--out", out, "--config", config) == 1
    err = capsys.readouterr().err
    assert "error: config [graph] unweighted_multiplicity: not a boolean: 'maybe'" in err
    assert not out.exists()


def test_field_map_from_config_and_environment(tmp_path, monkeypatch):
    text = "[input]\nmap = vendor=seller, client = buyer ,\n"
    expected = {"vendor": "seller", "client": "buyer"}
    assert resolved(["ingest"], text, tmp_path).field_map == expected
    monkeypatch.setenv("ARTRANK_INPUT_MAP", "vendor=seller,client=buyer")
    assert resolved(["ingest"]).field_map == expected
    # a --map flag replaces the whole map
    assert resolved(["ingest", "--map", "from=seller"]).field_map == {"from": "seller"}


def test_malformed_field_map_names_its_source(fixture_dir, monkeypatch, capsys):
    sales = fixture_dir / "sales.csv"
    config = fixture_dir / "artrank.ini"
    config.write_text("[input]\nmap = vendor\n", encoding="utf-8")
    message = "field map entries must look like src=dst, got"
    assert run_cli("ingest", sales, "--config", config, "--out", fixture_dir / "o") == 1
    err = capsys.readouterr().err
    assert f"error: config [input] map: {message} 'vendor'" in err
    monkeypatch.setenv("ARTRANK_INPUT_MAP", "=buyer")
    assert run_cli("ingest", sales, "--out", fixture_dir / "o") == 1
    err = capsys.readouterr().err
    assert f"error: environment ARTRANK_INPUT_MAP: {message} '=buyer'" in err


def test_unreadable_config_file_is_an_error(fixture_dir, capsys):
    missing = fixture_dir / "missing.ini"
    assert run_cli("run", fixture_dir / "sales.csv", "--config", missing) == 1
    assert f"error: cannot read config file: {missing}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text,message",
    [
        (b"tolerance = 1e-3\n", ": File contains no section headers."),
        (b"[hits]\ntolerance = 5%\n", " [hits] tolerance: '%' must be followed by '%' or '('"),
        (b"[hits]\ntolerance = \xff\n", ": 'utf-8' codec can't decode byte 0xff in position 19"),
        (b"[hits]\nmax_iteration = 1\n", ": unknown key [hits] max_iteration"),
        (b"[hit]\ntolerance = 1e-3\n", ": unknown key [hit] tolerance"),
        (b"[DEFAULT]\nbase = data\n", ": unknown key [DEFAULT] base"),
    ],
)
def test_malformed_config_or_unknown_key_is_an_error(fixture_dir, capsys, text, message):
    config, out = fixture_dir / "bad.ini", fixture_dir / "out"
    config.write_bytes(text)
    assert run_cli("run", fixture_dir / "sales.csv", "--config", config, "--out", out) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: config file {config}{message}")
    assert err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("name", ["ARTRANK_HITS_MAX_ITERATION", "ARTRANK_HIT_TOLERANCE"])
def test_unknown_artrank_variable_is_an_error(fixture_dir, monkeypatch, capsys, name):
    monkeypatch.setenv(name, "1")
    out = fixture_dir / "out"
    assert run_cli("run", fixture_dir / "sales.csv", "--out", out) == 1
    assert capsys.readouterr().err == f"error: environment {name}: no setting has this variable\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "argv,environ,message",
    [
        (["ingest"], {}, "no input path configured"),
        (["ingest", "{dir}/nope.csv"], {}, "input path does not exist: {dir}/nope.csv"),
        (["ingest", "{dir}/sales.csv", "--rates", "{dir}/nope.csv"], {},
         "rate table does not exist: {dir}/nope.csv"),
        (["ingest", "{dir}/sales.csv"], {"ARTRANK_INPUT_FORMAT": "xml"},
         "unsupported input format: xml"),
        (["profile", "r.csv", "--role-percentile", "1"], {}, "role_percentile must be in (0, 1)"),
        (["profile", "r.csv", "--role-percentile", "0"], {}, "role_percentile must be in (0, 1)"),
        (["profile", "r.csv"], {"ARTRANK_PROFILING_TIE_RANK": "mean"}, "unknown tie_rank: mean"),
        (["rank", "e.csv"], {"ARTRANK_RANKINGS_SORT_BY": "score"},
         "sort_by must be one of " + ", ".join(cli.SORT_KEYS)),
        (["rank", "e.csv", "--tolerance", "0"], {}, "tolerance must be positive"),
        (["rank", "e.csv", "--max-iterations", "0"], {}, "max_iterations must be at least 1"),
        (["rank", "e.csv"], {"ARTRANK_HITS_TOLERANCE": "-1e-9"}, "tolerance must be positive"),
    ],
)
def test_config_refusals(fixture_dir, monkeypatch, capsys, argv, environ, message):
    for name, value in environ.items():
        monkeypatch.setenv(name, value)
    out = fixture_dir / "out"
    argv = [arg.format(dir=fixture_dir) for arg in argv]
    assert run_cli(*argv, "--out", out) == 1
    assert capsys.readouterr().err == f"error: {message.format(dir=fixture_dir)}\n"
    assert not out.exists()


def test_field_map_flag(fixture_dir):
    renamed = fixture_dir / "renamed.csv"
    renamed.write_text(
        "vendor,client,creator,price_usd,timestamp\nann,bob,ann,100,100\n", encoding="utf-8"
    )
    out = fixture_dir / "out"
    status = run_cli(
        "ingest", renamed, "--map", "vendor=seller", "--map", "client=buyer", "--out", out
    )
    assert status == 0
    report = json.loads((out / "ingest_report.json").read_text())
    assert report["accepted"] == 1
    events = (out / "events.csv").read_text()
    assert "ann,bob,ann" in events


def test_unweighted_multiplicity_flag_changes_scores(fixture_dir):
    base = fixture_dir / "base"
    multi = fixture_dir / "multi"
    run_cli("run", fixture_dir / "sales.csv", "--rates", fixture_dir / "rates.csv", "--out", base)
    run_cli(
        "run",
        fixture_dir / "sales.csv",
        "--rates",
        fixture_dir / "rates.csv",
        "--out",
        multi,
        "--unweighted-multiplicity",
    )
    assert (base / "rankings.csv").read_bytes() != (multi / "rankings.csv").read_bytes()
    assert (base / "edges.csv").read_bytes() == (multi / "edges.csv").read_bytes()


def test_missing_input_is_fatal(tmp_path, capsys):
    status = run_cli("run", tmp_path / "nope.csv", "--out", tmp_path / "out")
    assert status == 1
    assert "does not exist" in capsys.readouterr().err


def test_help_lists_subcommands(capsys):
    with pytest.raises(SystemExit) as excinfo:
        run_cli("--help")
    assert excinfo.value.code == 0
    out = capsys.readouterr().out
    for name in ("ingest", "rank", "concentration", "correlate", "profile", "report", "run"):
        assert name in out


def test_manifest_hashes_a_file_larger_than_one_block(tmp_path):
    block = 1 << 20  # one MiB
    writer = cli.ArtifactWriter(tmp_path)
    content = "".join(f"{i:07d}\n" for i in range(block // 4 + 3))
    writer.text("big.txt", content)
    writer.text("small.txt", "x\n")
    manifest = writer.manifest()
    path = tmp_path / "big.txt"
    assert path.stat().st_size > 2 * block
    assert manifest["files"][0] == {
        "name": "big.txt",
        "sha256": hashlib.sha256(path.read_bytes()).hexdigest(),
        "size": path.stat().st_size,
    }
    assert manifest["files"][1]["sha256"] == hashlib.sha256(b"x\n").hexdigest()


def test_manifest_hashes_the_last_write_as_written(tmp_path):
    writer = cli.ArtifactWriter(tmp_path)
    writer.text("a.txt", "first\n")
    writer.csv("a.txt", ("x", "y"), [("1",), ("é",)])
    writer.jsonl("b.jsonl", ['{"k": 1}\n', '{"k": 2}\n'])
    # the manifest hashes the bytes as they were written; it reads nothing back
    (tmp_path / "a.txt").write_text("changed afterwards\n", encoding="utf-8")
    files = writer.manifest()["files"]
    written = "x,y\n1,é\n".encode()
    assert files == [
        {"name": "a.txt", "sha256": hashlib.sha256(written).hexdigest(), "size": len(written)},
        {
            "name": "b.jsonl",
            "sha256": hashlib.sha256(b'{"k": 1}\n{"k": 2}\n').hexdigest(),
            "size": 18,
        },
    ]


def test_failed_run_leaves_no_stale_manifest(fixture_dir, capsys):
    out = fixture_dir / "out"
    assert run_cli(
        "run", fixture_dir / "sales.csv", "--rates", fixture_dir / "rates.csv", "--out", out
    ) == 0
    bad = fixture_dir / "bad.csv"
    bad.write_text(
        "seller,buyer,creator,price_usd,timestamp\nann,ann,ann,10,100\n", encoding="utf-8"
    )
    assert run_cli("run", bad, "--out", out) == 1
    assert "no record accepted" in capsys.readouterr().err
    manifest_path = out / "manifest.json"
    if manifest_path.exists():
        for entry in json.loads(manifest_path.read_text())["files"]:
            digest = hashlib.sha256((out / entry["name"]).read_bytes()).hexdigest()
            assert digest == entry["sha256"], entry["name"]


def test_non_converged_hits_logs_warning(fixture_dir, caplog):
    out = fixture_dir / "out"
    with caplog.at_level("WARNING", logger="artrank.cli"):
        status = run_cli(
            "run",
            fixture_dir / "sales.csv",
            "--rates",
            fixture_dir / "rates.csv",
            "--out",
            out,
            "--max-iterations",
            "1",
        )
    assert status == 0
    warnings = [r.getMessage() for r in caplog.records if r.name == "artrank.cli"]
    for weighting in ("unweighted_binary", "weighted_usd"):
        line = next(m for m in warnings if weighting in m)
        assert "did not converge" in line
        assert "1 iterations" in line
        assert "residual" in line


def test_converged_run_logs_no_hits_warning(fixture_dir, caplog):
    with caplog.at_level("WARNING", logger="artrank.cli"):
        run_cli(
            "run", fixture_dir / "sales.csv", "--rates", fixture_dir / "rates.csv",
            "--out", fixture_dir / "out",
        )
    assert not [r for r in caplog.records if "did not converge" in r.getMessage()]


def test_lock_file_blocks_stage_command(fixture_dir, capsys):
    staged = fixture_dir / "staged"
    assert run_cli(
        "ingest", fixture_dir / "sales.csv", "--rates", fixture_dir / "rates.csv", "--out", staged
    ) == 0
    (staged / ".lock").touch()
    assert run_cli("rank", staged / "events.csv", "--out", staged) == 1
    assert "locked" in capsys.readouterr().err
    assert not (staged / "rankings.csv").exists()
    assert (staged / ".lock").exists()  # the lock belongs to the other run


def test_failed_commands_release_the_lock(fixture_dir, capsys):
    self_sale = write_log(fixture_dir / "self.csv", "ann,ann,ann,10,100")
    assert run_cli("run", self_sale, "--out", fixture_dir / "o1") == 1
    assert "no record accepted" in capsys.readouterr().err
    staged = fixture_dir / "o2"
    assert run_cli(
        "ingest", fixture_dir / "sales.csv", "--rates", fixture_dir / "rates.csv", "--out", staged
    ) == 0
    with open(staged / "events.csv", "a", encoding="utf-8") as handle:
        handle.write("ann,bob,ann,,not a price,2021-04-23T10:00:00+00:00,a9\n")
    assert run_cli("rank", staged / "events.csv", "--out", staged) == 1
    assert "invalid record" in capsys.readouterr().err
    assert not (fixture_dir / "o1" / ".lock").exists()
    assert not (staged / ".lock").exists()


def test_a_manifest_that_cannot_be_deleted_releases_the_lock(fixture_dir, capsys):
    out = fixture_dir / "out"
    (out / "manifest.json").mkdir(parents=True)
    status = run_cli(
        "run", fixture_dir / "sales.csv", "--rates", fixture_dir / "rates.csv", "--out", out
    )
    assert status == 1
    assert "manifest.json" in capsys.readouterr().err
    assert not (out / ".lock").exists()
    assert not (out / "events.csv").exists()


@pytest.mark.parametrize("command", ["run", "rank"])
def test_a_refused_command_leaves_the_manifest_whole(fixture_dir, capsys, command):
    out = fixture_dir / "out"
    assert run_cli(
        "run", fixture_dir / "sales.csv", "--rates", fixture_dir / "rates.csv", "--out", out
    ) == 0
    before = read_tree(out)
    (out / ".lock").write_text("pid=4242\nhost=otherbox\n", encoding="utf-8")
    if command == "run":
        argv = ("run", fixture_dir / "sales.csv", "--rates", fixture_dir / "rates.csv")
    else:
        argv = ("rank", out / "events.csv")
    assert run_cli(*argv, "--out", out) == 1
    assert "locked by another run (pid=4242, host=otherbox)" in capsys.readouterr().err
    # the lock is taken before the stale manifest is deleted
    assert read_tree(out) == {**before, ".lock": b"pid=4242\nhost=otherbox\n"}


def test_stage_command_after_run_leaves_no_stale_manifest(fixture_dir):
    out = fixture_dir / "out"
    assert run_cli(
        "run", fixture_dir / "sales.csv", "--rates", fixture_dir / "rates.csv", "--out", out
    ) == 0
    assert run_cli("rank", out / "events.csv", "--out", out, "--sort-by", "user") == 0
    manifest_path = out / "manifest.json"
    if manifest_path.exists():
        for entry in json.loads(manifest_path.read_text())["files"]:
            digest = hashlib.sha256((out / entry["name"]).read_bytes()).hexdigest()
            assert digest == entry["sha256"], entry["name"]


def test_run_logs_each_reject_like_ingest(fixture_dir, caplog):
    with caplog.at_level("WARNING", logger="artrank.cli"):
        assert run_cli(
            "run", fixture_dir / "sales.csv", "--rates", fixture_dir / "rates.csv",
            "--out", fixture_dir / "out",
        ) == 0
    assert "record 11 rejected: self-sale" in [r.getMessage() for r in caplog.records]


def test_help_lists_every_config_key(capsys):
    with pytest.raises(SystemExit):
        run_cli("--help")
    out = " ".join(capsys.readouterr().out.split())
    for section, key in cli._CONFIG_KEYS:
        assert f"[{section}] {key}" in out
        assert f"ARTRANK_{section}_{key}".upper() in out


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_rankings_value_rejected(fixture_dir, capsys, value):
    out = fixture_dir / "out"
    assert run_cli(
        "run", fixture_dir / "sales.csv", "--rates", fixture_dir / "rates.csv", "--out", out
    ) == 0
    rankings = out / "rankings.csv"
    lines = rankings.read_text(encoding="utf-8").splitlines()
    cells = lines[1].split(",")
    cells[cli.RANKINGS_HEADER.index("hub")] = value
    lines[1] = ",".join(cells)
    rankings.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(ValueError, match=f"non-finite hub for user {cells[0]!r}"):
        cli.load_rankings_csv(rankings)
    capsys.readouterr()
    assert run_cli("profile", rankings, "--out", fixture_dir / "profiled") == 1
    assert "error: non-finite hub" in capsys.readouterr().err
    assert not (fixture_dir / "profiled" / "profiles.jsonl").exists()


def test_rankings_read_by_header_name(fixture_dir):
    out = fixture_dir / "out"
    assert run_cli(
        "run", fixture_dir / "sales.csv", "--rates", fixture_dir / "rates.csv", "--out", out
    ) == 0
    with open(out / "rankings.csv", encoding="utf-8", newline="") as handle:
        rows = list(csv.reader(handle))
    expected = cli.load_rankings_csv(out / "rankings.csv")

    def load(rows) -> cli.MetricsTable:
        path = fixture_dir / "edited.csv"
        with open(path, "w", encoding="utf-8", newline="") as handle:
            csv.writer(handle).writerows(rows)
        return cli.load_rankings_csv(path)

    # reversed columns, with an extra column before and after the others
    moved = load([["note", *row[::-1], "x,y"] for row in rows])
    assert moved.users == expected.users
    assert moved.values.tobytes() == expected.values.tobytes()
    hub = rows[0].index("hub")
    with pytest.raises(ValueError, match="rankings file lacks columns: hub$"):
        load([row[:hub] + row[hub + 1 :] for row in rows])
    with pytest.raises(ValueError, match="rankings file line 3 is missing columns"):
        load([rows[0], rows[1], rows[2][:hub]])
    # a blank row is skipped, and the line numbers count it
    spaced = load([rows[0], [], *rows[1:], []])
    assert spaced.users == expected.users
    assert spaced.values.tobytes() == expected.values.tobytes()
    with pytest.raises(ValueError, match="rankings file line 3 is missing columns"):
        load([rows[0], [], rows[1][:hub]])


def write_log(path: Path, *rows: str) -> Path:
    """A USD-priced sale log, one CSV line per row."""
    path.write_text(
        "seller,buyer,creator,price_usd,timestamp\n" + "".join(f"{row}\n" for row in rows),
        encoding="utf-8",
    )
    return path


def test_price_beyond_float_range_rejected_at_ingest(tmp_path):
    sales = write_log(tmp_path / "huge.csv", "a,b,a,1E+400,100", "a,c,a,10,200", "b,c,a,5,300")
    out = tmp_path / "out"
    assert run_cli("run", sales, "--out", out) == 0
    report = json.loads((out / "ingest_report.json").read_text())
    assert report["rejects"] == [{"row": 1, "reason": "bad price: price_usd is out of range"}]
    rankings = (out / "rankings.csv").read_text(encoding="utf-8").lower()
    assert "nan" not in rankings and "inf" not in rankings


@pytest.mark.parametrize("command", ["ingest", "run"])
def test_rates_refuse_usd_price_beyond_float_range_before_writing(tmp_path, capsys, command):
    sales = tmp_path / "eth.csv"
    sales.write_text(
        "seller,buyer,creator,price_eth,timestamp\n"
        "a,b,a,2,2021-04-20T10:00:00Z\n"
        "a,c,a,1E+305,2021-04-21T10:00:00Z\n",
        encoding="utf-8",
    )
    rates = tmp_path / "rates.csv"
    rates.write_text("date,usd_per_eth\n2021-04-20,2300\n2021-04-21,10000\n", encoding="utf-8")
    out = tmp_path / "out"
    assert run_cli(command, sales, "--rates", rates, "--out", out) == 1
    assert capsys.readouterr().err == (
        "error: the sale of 2021-04-21 converts to 1.000000E+309 USD, beyond the float range\n"
    )
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("command", ["ingest", "run"])
@pytest.mark.parametrize(
    "eth, rate, usd",
    [
        ("1E-300", "1E-200", "1.000000E-500"),
        ("1" * 150 + "." + "1" * 150, "1" * 100 + "." + "1" * 50, "1.234568E+248"),
    ],
    ids=["exponent-below-bounds", "449-digits"],
)
def test_rates_refuse_usd_price_beyond_the_digit_and_exponent_bounds(
    tmp_path, capsys, command, eth, rate, usd
):
    # each factor is admitted, but events.csv could not be read back with the product
    sales = tmp_path / "eth.csv"
    sales.write_text(
        "seller,buyer,creator,price_eth,timestamp\n"
        "a,b,a,2,2021-04-20T10:00:00Z\n"
        f"a,c,a,{eth},2021-04-21T10:00:00Z\n",
        encoding="utf-8",
    )
    rates = tmp_path / "rates.csv"
    rates.write_text(f"date,usd_per_eth\n2021-04-20,2300\n2021-04-21,{rate}\n", encoding="utf-8")
    out = tmp_path / "out"
    assert run_cli(command, sales, "--rates", rates, "--out", out) == 1
    assert capsys.readouterr().err == (
        f"error: the sale of 2021-04-21 converts to {usd} USD,"
        " beyond 400 significant digits or an exponent of ±400\n"
    )
    assert list(out.iterdir()) == []


def test_report_refuses_rankings_of_another_log(tmp_path, capsys):
    one = write_log(tmp_path / "one.csv", "a,b,a,10,100", "c,d,c,5,200")
    two = write_log(tmp_path / "two.csv", "x,y,x,10,100", "y,z,x,5,200", "b,z,x,1,300")
    assert run_cli("run", one, "--out", tmp_path / "o1") == 0
    assert run_cli("run", two, "--out", tmp_path / "o2") == 0
    capsys.readouterr()
    out = tmp_path / "o3"
    status = run_cli(
        "report", tmp_path / "o1" / "events.csv", tmp_path / "o2" / "rankings.csv", "--out", out
    )
    assert status == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    # events: a b c d; rankings: x y z b
    assert "3 user(s) only in the events (e.g. 'a')" in err
    assert "3 user(s) only in the rankings (e.g. 'x')" in err
    assert not (out / "summary.txt").exists()
    assert not (out / "figure5.csv").exists()


@pytest.mark.parametrize("last", ["run", "profile"])
def test_stale_matches_csv_removed(fixture_dir, last):
    out = fixture_dir / "out"
    run_cli("ingest", fixture_dir / "sales.csv", "--rates", fixture_dir / "rates.csv", "--out", out)
    run_cli("rank", out / "events.csv", "--out", out)
    assert run_cli("profile", out / "rankings.csv", "--out", out, "--match", "A***") == 0
    assert "ann" in (out / "matches.csv").read_text(encoding="utf-8")
    other = write_log(fixture_dir / "other.csv", "x,y,x,10,100", "y,z,x,5,200")
    if last == "run":
        assert run_cli("run", other, "--out", out) == 0
    else:
        assert run_cli("run", other, "--out", fixture_dir / "o2") == 0
        rankings = fixture_dir / "o2" / "rankings.csv"
        assert run_cli("profile", rankings, "--out", out) == 0
    assert not (out / "matches.csv").exists()


# every subcommand's option strings; adding or dropping a flag must edit this
SUBCOMMAND_OPTIONS = {
    "ingest": {
        "-h", "--help", "--config", "--out", "--format", "--map", "--rates",
    },
    "rank": {
        "-h", "--help", "--config", "--out", "--tolerance", "--max-iterations",
        "--unweighted-multiplicity", "--sort-by",
    },
    "concentration": {"-h", "--help", "--config", "--out"},
    "correlate": {"-h", "--help", "--config", "--out"},
    "profile": {
        "-h", "--help", "--config", "--out", "--role-percentile", "--tie-rank",
        "--match", "--match-which",
    },
    "report": {"-h", "--help", "--config", "--out"},
    "run": {
        "-h", "--help", "--config", "--out", "--format", "--map", "--rates",
        "--tolerance", "--max-iterations", "--unweighted-multiplicity", "--sort-by",
        "--role-percentile", "--tie-rank",
    },
}


def test_subcommand_option_strings_are_pinned():
    parser = cli._build_parser()
    (subparsers,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    found = {
        name: {s for action in sub._actions for s in action.option_strings}
        for name, sub in subparsers.choices.items()
    }
    assert found == SUBCOMMAND_OPTIONS


def test_help_defaults_are_the_run_config_defaults():
    # a flag's parser default is None, so that config and environment can set it,
    # and its help names the built-in default by hand; a flag that is no config
    # key (--match-which) keeps its default in the parser
    parser = cli._build_parser()
    (subparsers,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    defaults = cli.RunConfig()
    found = {}
    for name, sub in subparsers.choices.items():
        for action in sub._actions:
            match = re.search(r"\(default ([^)]*)\)", action.help or "")
            if match:
                expected = getattr(defaults, action.dest, action.default)
                found[action.dest] = (match.group(1), str(expected))
    assert set(found) == {
        "input_format", "tolerance", "max_iterations", "sort_by", "role_percentile", "tie_rank",
        "match_which",
    }
    assert all(shown == expected for shown, expected in found.values()), found


def _refuse_constant(token: str):
    raise AssertionError(f"non-standard JSON token {token}")


def assert_no_non_finite_json(out: Path) -> None:
    """Every JSON artifact parses as standard JSON: no NaN, Infinity, nan or inf."""
    for path in out.iterdir():
        text = path.read_text(encoding="utf-8")
        if path.suffix == ".json":
            json.loads(text, parse_constant=_refuse_constant)
        elif path.suffix == ".jsonl":
            for line in text.splitlines():
                json.loads(line, parse_constant=_refuse_constant)


def test_concentration_refuses_user_volume_beyond_float_range(tmp_path, capsys):
    # seller a sells twice at 1E+308 USD: each price is a finite float, the sum is not
    sales = write_log(tmp_path / "huge.csv", "a,b,a,1E+308,100", "a,c,a,1E+308,200", "b,c,a,5,300")
    out = tmp_path / "out"
    assert run_cli("ingest", sales, "--out", out) == 0
    capsys.readouterr()
    assert run_cli("concentration", out / "events.csv", "--out", out) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "seller 'a'" in err
    assert not (out / "lorenz_sellers.json").exists()
    assert not (out / "lorenz_sellers.csv").exists()
    assert_no_non_finite_json(out)


def test_concentration_refuses_volume_total_beyond_float_range(tmp_path, capsys):
    # two sellers at 1E+308 USD each: every volume is finite, their float total is not
    sales = write_log(tmp_path / "two.csv", "a,c,a,1E+308,100", "b,d,b,1E+308,200")
    out = tmp_path / "out"
    assert run_cli("ingest", sales, "--out", out) == 0
    capsys.readouterr()
    assert run_cli("concentration", out / "events.csv", "--out", out) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "seller volumes" in err
    assert not (out / "lorenz_sellers.json").exists()
    assert_no_non_finite_json(out)


def test_non_finite_json_payload_is_an_error(fixture_dir, capsys, monkeypatch):
    monkeypatch.setattr(cli.econometrics, "gini", lambda values: float("nan"))
    out = fixture_dir / "out"
    status = run_cli(
        "run", fixture_dir / "sales.csv", "--rates", fixture_dir / "rates.csv", "--out", out
    )
    assert status == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not (out / "manifest.json").exists()
    assert_no_non_finite_json(out)


def test_profile_refuses_trader_score_beyond_float_range(fixture_dir, capsys):
    out = fixture_dir / "out"
    assert run_cli(
        "run", fixture_dir / "sales.csv", "--rates", fixture_dir / "rates.csv", "--out", out
    ) == 0
    rankings = out / "rankings.csv"
    lines = rankings.read_text(encoding="utf-8").splitlines()
    cells = lines[1].split(",")
    # each value is finite; authority x hub is not
    for name in ("authority", "hub"):
        cells[cli.RANKINGS_HEADER.index(name)] = "1e200"
    lines[1] = ",".join(cells)
    rankings.write_text("\n".join(lines) + "\n", encoding="utf-8")
    capsys.readouterr()
    profiled = fixture_dir / "profiled"
    assert run_cli("profile", rankings, "--out", profiled) == 1
    assert f"error: non-finite trader_score for user {cells[0]!r}" in capsys.readouterr().err
    assert not (profiled / "profiles.jsonl").exists()


@pytest.mark.parametrize("command", ["profile", "correlate"])
@pytest.mark.parametrize("cell", ["inf", "-inf", "nan"])
def test_rankings_with_non_finite_cell_is_an_error(fixture_dir, capsys, command, cell):
    out = fixture_dir / "out"
    assert run_cli(
        "run", fixture_dir / "sales.csv", "--rates", fixture_dir / "rates.csv", "--out", out
    ) == 0
    assert_no_non_finite_json(out)
    rankings = out / "rankings.csv"
    lines = rankings.read_text(encoding="utf-8").splitlines()
    cells = lines[1].split(",")
    cells[cli.RANKINGS_HEADER.index("in_strength")] = cell
    lines[1] = ",".join(cells)
    rankings.write_text("\n".join(lines) + "\n", encoding="utf-8")
    capsys.readouterr()
    target = fixture_dir / "target"
    assert run_cli(command, rankings, "--out", target) == 1
    assert f"error: non-finite in_strength for user {cells[0]!r}" in capsys.readouterr().err
    assert not target.exists() or not any(target.glob("*.json*"))


@pytest.mark.parametrize(
    "rows, total, unit",
    [
        (("a,b,a,,1E+308,100", "c,d,c,,1E+308,200"), "2.000000E+308", "USD"),
        (("a,b,a,1E+308,1,100", "c,d,c,1E+308,2,200"), "2.000000E+308", "ETH"),
    ],
)
def test_report_refuses_sale_volume_beyond_float_range(tmp_path, capsys, rows, total, unit):
    # every price is a finite float; the total of two is not
    sales = tmp_path / "huge.csv"
    sales.write_text(
        "seller,buyer,creator,price_eth,price_usd,timestamp\n" + "".join(f"{r}\n" for r in rows),
        encoding="utf-8",
    )
    out = tmp_path / "out"
    assert run_cli("ingest", sales, "--out", out) == 0
    assert run_cli("rank", out / "events.csv", "--out", out) == 0
    capsys.readouterr()
    assert run_cli("report", out / "events.csv", out / "rankings.csv", "--out", out) == 1
    err = capsys.readouterr().err
    assert err == f"error: sale volume totals {total} {unit}, beyond the float range\n"
    assert not (out / "summary.json").exists()
    assert not (out / "summary.txt").exists()


def test_profile_checks_match_pattern_before_writing(fixture_dir, capsys):
    out = fixture_dir / "out"
    assert run_cli(
        "run", fixture_dir / "sales.csv", "--rates", fixture_dir / "rates.csv", "--out", out
    ) == 0
    assert run_cli("profile", out / "rankings.csv", "--out", out, "--match", "C***") == 0
    before = {name: (out / name).read_bytes() for name in ("profiles.jsonl", "matches.csv")}
    other = write_log(fixture_dir / "other.csv", "x,y,x,10,100", "y,z,x,5,200")
    assert run_cli("run", other, "--out", fixture_dir / "o2") == 0
    capsys.readouterr()
    for pattern, which in (("Z***", "artist"), ("C***", "full")):
        status = run_cli(
            "profile", fixture_dir / "o2" / "rankings.csv", "--out", out,
            "--match", pattern, "--match-which", which,
        )
        assert status == 1
        assert capsys.readouterr().err == f"error: malformed pattern: {pattern!r}\n"
        assert {name: (out / name).read_bytes() for name in before} == before


@pytest.mark.parametrize("command", ["profile", "correlate", "report"])
def test_rankings_with_a_repeated_user_refused_before_writing(fixture_dir, capsys, command):
    inputs = ["events.csv", "rankings.csv"] if command == "report" else ["rankings.csv"]
    out = fixture_dir / "out"
    assert run_cli(
        "run", fixture_dir / "sales.csv", "--rates", fixture_dir / "rates.csv", "--out", out
    ) == 0
    rankings = out / "rankings.csv"
    lines = rankings.read_text(encoding="utf-8").splitlines(keepends=True)
    rankings.write_text("".join(lines + lines[2:3]), encoding="utf-8")
    user = lines[2].split(",")[0]
    capsys.readouterr()
    target = fixture_dir / "target"
    assert run_cli(command, *(out / name for name in inputs), "--out", target) == 1
    assert capsys.readouterr().err == (
        f"error: rankings file lists user {user!r} more than once\n"
    )
    assert read_tree(target) == {}
    with pytest.raises(ValueError, match="more than once"):
        cli.load_rankings_csv(rankings)


@pytest.mark.parametrize("command", ["profile", "correlate", "report"])
def test_rankings_with_a_non_numeric_cell_refused_before_writing(fixture_dir, capsys, command):
    inputs = ["events.csv", "rankings.csv"] if command == "report" else ["rankings.csv"]
    out = fixture_dir / "out"
    assert run_cli(
        "run", fixture_dir / "sales.csv", "--rates", fixture_dir / "rates.csv", "--out", out
    ) == 0
    rankings = out / "rankings.csv"
    with open(rankings, encoding="utf-8", newline="") as handle:
        rows = list(csv.reader(handle))
    column = rows[0].index("authority")
    rows[3][column] = "abc"
    with open(rankings, "w", encoding="utf-8", newline="") as handle:
        csv.writer(handle, lineterminator="\n").writerows(rows)
    capsys.readouterr()
    target = fixture_dir / "target"
    assert run_cli(command, *(out / name for name in inputs), "--out", target) == 1
    assert capsys.readouterr().err == (
        "error: rankings file line 4 column authority: not a number: 'abc'\n"
    )
    assert read_tree(target) == {}


def test_rankings_csv_with_byte_order_mark(fixture_dir):
    out = fixture_dir / "out"
    assert run_cli(
        "run", fixture_dir / "sales.csv", "--rates", fixture_dir / "rates.csv", "--out", out
    ) == 0
    marked = fixture_dir / "marked.csv"
    marked.write_bytes(b"\xef\xbb\xbf" + (out / "rankings.csv").read_bytes())
    assert run_cli("profile", marked, "--out", fixture_dir / "p") == 0
    assert (fixture_dir / "p" / "profiles.jsonl").read_bytes() == (
        out / "profiles.jsonl"
    ).read_bytes()


def test_rankings_load_in_user_id_order(fixture_dir):
    out = fixture_dir / "out"
    assert run_cli(
        "run", fixture_dir / "sales.csv", "--rates", fixture_dir / "rates.csv", "--out", out
    ) == 0
    with open(out / "rankings.csv", encoding="utf-8", newline="") as handle:
        rows = list(csv.reader(handle))
    header, body = rows[0], rows[1:]
    assert [row[0] for row in body] != sorted(row[0] for row in body)  # authority order
    table = cli.load_rankings_csv(out / "rankings.csv")
    assert table.users == tuple(sorted(row[0] for row in body))
    columns = [header.index(name) for name in cli.METRIC_NAMES]
    for user, values in zip(table.users, table.values.tolist()):
        (row,) = [row for row in body if row[0] == user]
        assert values == [float(row[i]) for i in columns]


@pytest.mark.parametrize(
    "price",
    ["0E+300000000", "1E-999999999999999999", "1E-100000", "1." + "0" * 5000],
    ids=["zero-with-huge-exponent", "huge-negative-exponent", "1E-100000", "5001-digits"],
)
def test_price_with_too_many_digits_or_too_wide_an_exponent_is_one_reject(tmp_path, price):
    # each used to hang `run` in the exact sums or end it on Python's int-to-text limit
    sales = write_log(tmp_path / "sales.csv", "a,b,a,10,100", f"b,c,a,{price},200", "a,c,a,5,300")
    out = tmp_path / "out"
    assert run_cli("run", sales, "--out", out) == 0
    report = json.loads((out / "ingest_report.json").read_text())
    assert report["rejects"] == [{"row": 2, "reason": "bad price: price_usd is out of range"}]
    assert {entry["name"] for entry in json.loads((out / "manifest.json").read_text())["files"]} == (
        RUN_ARTIFACTS
    )


def test_json_timestamp_with_a_huge_exponent_is_one_reject(tmp_path):
    # int() of the Decimal 1E+300000000 used to run for minutes before the range test
    sale = '{"seller": "%s", "buyer": "%s", "creator": "a", "price_usd": 10, "timestamp": %s}\n'
    sales = tmp_path / "sales.ndjson"
    sales.write_text(
        sale % ("a", "b", "1600000000") + sale % ("b", "c", "1e300000000") + sale % ("a", "c", "0"),
        encoding="utf-8",
    )
    out = tmp_path / "out"
    assert run_cli("run", sales, "--format", "json", "--out", out) == 0
    report = json.loads((out / "ingest_report.json").read_text())
    assert report["rejects"] == [{"row": 2, "reason": "bad timestamp: Decimal('1E+300000000')"}]


def _long_cell_error() -> str:
    return f"error: input is not valid CSV: field larger than field limit ({csv.field_size_limit()})\n"


def test_over_long_csv_cell_in_the_input_is_an_error(tmp_path, capsys):
    sales = write_log(tmp_path / "sales.csv", "a,b,a,10,100", "b,c," + "x" * 200_000 + ",5,200")
    out = tmp_path / "out"
    assert run_cli("ingest", sales, "--out", out) == 1
    assert capsys.readouterr().err == _long_cell_error()
    assert not (out / "events.csv").exists()


def test_over_long_csv_cell_in_the_rate_table_is_an_error(fixture_dir, capsys):
    rates = fixture_dir / "long_rates.csv"
    rates.write_text(RATES_CSV + "2021-04-23," + "9" * 200_000 + "\n", encoding="utf-8")
    out = fixture_dir / "out"
    assert run_cli("ingest", fixture_dir / "sales.csv", "--rates", rates, "--out", out) == 1
    assert capsys.readouterr().err == _long_cell_error()
    assert not (out / "events.csv").exists()


def test_over_long_csv_cell_in_rankings_is_an_error(fixture_dir, capsys):
    out = fixture_dir / "out"
    assert run_cli(
        "run", fixture_dir / "sales.csv", "--rates", fixture_dir / "rates.csv", "--out", out
    ) == 0
    rankings = out / "rankings.csv"
    with open(rankings, "a", encoding="utf-8") as handle:
        handle.write("x" * 200_000 + "\n")
    capsys.readouterr()
    target = fixture_dir / "target"
    assert run_cli("profile", rankings, "--out", target) == 1
    assert capsys.readouterr().err == _long_cell_error()
    assert read_tree(target) == {}


def test_lorenz_artifacts_equal_the_volume_dicts_byte_for_byte(tmp_path):
    sales = tmp_path / "sales.csv"
    sales.write_text(market_csv(3, 5000, n_artists=300, n_collectors=400), encoding="utf-8")
    out = tmp_path / "out"
    assert run_cli("ingest", sales, "--out", out) == 0
    assert run_cli("concentration", out / "events.csv", "--out", out) == 0
    with open(out / "events.csv", "rb") as handle:
        log, _ = parse_events(handle)
    for stem, volume_by in (("lorenz_sellers", volume_by_seller), ("lorenz_buyers", volume_by_buyer)):
        volumes = volume_by(log)
        curve = econometrics.lorenz(np.array([float(v) for v in volumes.values()]))
        with localcontext() as exact:
            exact.prec = 1000
            total = float(sum(volumes.values(), Decimal(0)))
        rows = zip(curve.population_shares.tolist(), curve.volume_shares.tolist())
        expected_csv = "pop_share,vol_share\n" + "".join(f"{p!r},{v!r}\n" for p, v in rows)
        expected_json = json.dumps(
            {"gini": curve.gini, "n": len(volumes), "total": total}, indent=2
        ) + "\n"
        assert (out / f"{stem}.csv").read_text(encoding="utf-8") == expected_csv
        assert (out / f"{stem}.json").read_text(encoding="utf-8") == expected_json
