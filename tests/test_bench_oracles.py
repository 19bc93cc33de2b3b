"""Whole runs judged by the benchmark's oracles, on small markets.

``bench/checks.py`` rebuilds every artifact from the generated rows with
exact ``Decimal`` arithmetic, scipy ``svds`` HITS, scipy Kendall, the exact
Lorenz-area Gini and ``rankdata`` codes, without importing artrank. This
test writes one small market of each benchmark shape with
``bench/markets.py``, runs every operation ``bench/run.py`` runs for that
shape through ``artrank.cli.main`` in this process, and asserts that every
check the benchmark applies finds nothing. Each shape runs once with each
sale log parsed in one range and once in forced byte ranges, forked as on a
machine with three CPUs.
"""

import importlib.util
import os
import sys
from pathlib import Path

import pytest

from artrank import cli, ingest
from helpers import count_range_forks

BENCH = Path(__file__).resolve().parents[1] / "bench"

# (workload whose operations run, market): one CSV market with many sales
# per user, one with many users, and one ETH-only NDJSON market with rates
SHAPES = {
    "events": ("events_heavy", dict(n_events=6000, n_artists=40, n_collectors=60)),
    "users": ("users_heavy", dict(n_events=4000, n_artists=800, n_collectors=1600)),
    "eth": ("staged_eth", dict(n_events=4000, n_artists=100, n_collectors=200, eth=True)),
}
SEED = 1


@pytest.fixture(scope="module")
def bench():
    """``bench/markets.py``, ``checks.py`` and ``run.py``, registered under their
    bare names while the tests run, as ``checks`` and ``run`` import them."""
    with pytest.MonkeyPatch.context() as patch:
        modules = {}
        for name in ("markets", "checks", "run"):
            spec = importlib.util.spec_from_file_location(name, BENCH / f"{name}.py")
            modules[name] = importlib.util.module_from_spec(spec)
            patch.setitem(sys.modules, name, modules[name])
            spec.loader.exec_module(modules[name])
        yield modules


@pytest.mark.parametrize("ranges", ["one range", "forced ranges"])
@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_run_passes_every_benchmark_check(bench, tmp_path, shape, ranges):
    markets, checks, run = bench["markets"], bench["checks"], bench["run"]
    workload, sizes = SHAPES[shape]
    market = markets.generate(markets.MarketSpec(**sizes), SEED)
    inputs, out = tmp_path / "inputs", tmp_path / "out"
    inputs.mkdir()
    if market.rates:
        markets.write_ndjson(market, inputs / "input.ndjson")
        markets.write_rates(market, inputs / "rates.csv")
    else:
        markets.write_csv(market, inputs / "input.csv")
    ops = run.workload_ops(workload, inputs, out)
    with pytest.MonkeyPatch.context() as patch:
        if ranges == "one range":
            largest = max(path.stat().st_size for path in inputs.iterdir())
            patch.setattr(ingest, "_MIN_RANGE_BYTES", 2 * largest)
        else:
            patch.setattr(ingest, "_MIN_RANGE_BYTES", 1)
            patch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
        forks = count_range_forks(patch)
        statuses = [cli.main(op.argv) for op in ops]
    with pytest.raises(ChildProcessError):  # no child left, running or unreaped
        os.waitpid(-1, os.WNOHANG)
    assert statuses == [0] * len(ops)
    assert bool(forks) == (ranges == "forced ranges")
    expected = checks.expected_from(market)
    problems = [p for op in ops for p in checks.run_checks(op.checks, market, expected, out)]
    assert problems == []
