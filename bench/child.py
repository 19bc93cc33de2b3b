"""One pipeline pass in a fresh interpreter: import artrank, run CLI commands.

Usage: python3 child.py SRC_DIR PLAN_JSON RESULT_JSON

PLAN_JSON holds ``{"ops": [[arg, ...], ...], "trace": bool}``. Each op is
one ``artrank.cli.main(argv)`` call, timed around the call. The result file
records when the import finished (``time.perf_counter``, a system-wide
monotonic clock, so the parent can subtract its spawn time), each op's exit
status and wall time, the process's peak RSS, and the spans when traced.
"""

from __future__ import annotations

import json
import resource
import sys
import time
import traceback
from pathlib import Path


def peak_rss_kib() -> int:
    # VmHWM belongs to this process image alone; ru_maxrss can inherit the
    # parent's high-water mark across fork and exec
    try:
        with open("/proc/self/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main() -> int:
    src, plan_path, result_path = sys.argv[1:4]
    sys.path.insert(0, src)
    import artrank.cli as cli

    imported = time.perf_counter()
    plan = json.loads(Path(plan_path).read_text(encoding="utf-8"))
    tracer = None
    if plan["trace"]:
        from tracing import MAIN_SPAN, Tracer

        tracer = Tracer()
        tracer.install()
    ops = []
    for argv in plan["ops"]:
        start = time.perf_counter()
        try:
            if tracer is None:
                status = cli.main(argv)
            else:
                status = tracer.call(MAIN_SPAN, cli.main, argv)
        except SystemExit as exc:  # argparse rejects a command line this way
            status = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a crash fails this op; the pass goes on
            traceback.print_exc()
            status = 1
        end = time.perf_counter()
        ops.append({"status": status, "seconds": end - start})
    result = {
        "imported": imported,
        "ops": ops,
        "peak_rss_kib": peak_rss_kib(),
        "spans": tracer.spans if tracer is not None else [],
    }
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
