"""The benchmark's tracer wraps artrank functions by name; each must exist.

``bench/tracing.py`` raises when a name it wraps has gone, but only in
traced passes. The untraced benchmark would not notice, so this test
resolves every entry point the same way ``Tracer.install`` does, without
installing anything.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def test_every_traced_entry_point_resolves():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = []
    for module_name, attr in tracing.ENTRY_POINTS:
        module = importlib.import_module(f"artrank.{module_name}")
        owner_name, _, member = attr.rpartition(".")
        owner = getattr(module, owner_name, None) if owner_name else module
        if owner is None or member not in vars(owner):
            missing.append(f"artrank.{module_name}.{attr}")
    assert not missing, missing
