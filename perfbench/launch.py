"""Run ``repro`` with the benchmark's span wrappers installed.

Usage::

    python perfbench/launch.py SPANS.json -- mine retail.csv --json
    python perfbench/launch.py SPANS.json -- serve a=a.csv --port 0

The import of :mod:`repro.cli` is itself a span (``cli.import``); the
call to :func:`repro.cli.main` is ``cli.main``.  When ``main`` returns,
every span recorded in this process is written to ``SPANS.json``.
"""

from __future__ import annotations

import sys
import time

from tracing import Tracer, install_wrappers


def main(argv: list[str]) -> int:
    spans_path, separator, *program_argv = argv
    if separator != "--":
        raise SystemExit("usage: launch.py SPANS.json -- <repro arguments>")
    tracer = Tracer()
    started = time.perf_counter_ns()
    import repro.cli

    tracer.add("cli.import", started, time.perf_counter_ns())
    install_wrappers(tracer, serve=program_argv[:1] == ["serve"])
    try:
        return tracer.call("cli.main", repro.cli.main, (program_argv,), {})
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
