"""One csfchan CLI call in a fresh interpreter, with its cost as JSON.

    python3 child.py [--trace] -- <csfchan arguments>
    python3 child.py --import-only

The last line of standard output is one JSON record.  ``imported_at`` is
the monotonic clock once ``csfchan.cli`` is imported; the parent reads the
same clock just before it starts this interpreter, so the difference is
the set-up time a user pays on every CLI call.  The record also holds the
wall time of ``csfchan.cli.main``, the CPU time this process and its
reaped children (pool workers) spent during it, and the high-water RSS of
this process and of its largest child.  The CLI's own output goes to
standard error, and the process exits with the CLI's exit status.
"""

import json
import resource
import sys
import time
from contextlib import redirect_stdout


def _cpu_s(who) -> float:
    usage = resource.getrusage(who)
    return usage.ru_utime + usage.ru_stime


def main(argv: list[str]) -> int:
    import csfchan.cli

    imported_at = time.monotonic()
    if argv == ["--import-only"]:
        print(json.dumps({"imported_at": imported_at}))
        return 0
    split = argv.index("--")
    tracer = None
    if "--trace" in argv[:split]:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()

    self_cpu, kids_cpu = _cpu_s(resource.RUSAGE_SELF), _cpu_s(resource.RUSAGE_CHILDREN)
    start = time.perf_counter()
    with redirect_stdout(sys.stderr):
        status = csfchan.cli.main(argv[split + 1 :])
    wall = time.perf_counter() - start
    parent_cpu = _cpu_s(resource.RUSAGE_SELF) - self_cpu
    workers_cpu = _cpu_s(resource.RUSAGE_CHILDREN) - kids_cpu
    peak_kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    record = {
        "imported_at": imported_at,
        "wall_s": wall,
        "parent_cpu_s": parent_cpu,
        "workers_cpu_s": workers_cpu,
        "peak_rss_mb": peak_kb / 1024.0,
    }
    if tracer is not None:
        record["layers"] = tracer.metrics()
        record["counts"] = tracer.counts  # must repeat exactly for one input
    print(json.dumps(record))
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
