"""Helpers shared by the workloads: paths, child processes, statistics."""

from __future__ import annotations

import importlib.util
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
#: The checkout the benchmark runs in: everything it reads and writes
#: lives under it.
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
#: Generated inputs, cached references and per-run working files.
WORK = ROOT / ".perfbench"

#: Upper bound on any single child process of the benchmark.
CHILD_TIMEOUT_S = 150.0


class BenchError(RuntimeError):
    """The benchmark cannot produce a result (setup or harness failure)."""


def program_env() -> dict[str, str]:
    """Environment for a child running the program from ``src/``.

    ``TMPDIR`` points inside the checkout, so temporary files the
    program creates (spill roots, incremental state) stay there too.
    """
    tmp = WORK / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    env["TMPDIR"] = str(tmp)
    return env


def use_program_in_process() -> None:
    """Import the program from this checkout's ``src/`` in-process."""
    import tempfile

    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(f"no program found: {SRC / 'repro'} is missing")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    tmp = WORK / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    tempfile.tempdir = str(tmp)


def run_child(argv: list[str], stdout_path: Path, *, cwd: Path = ROOT,
              timeout: float = CHILD_TIMEOUT_S) -> tuple[float, float]:
    """Run ``argv`` to completion with stdout in ``stdout_path``.

    Returns ``(wall seconds, peak RSS in MB)``; the peak RSS is read
    with ``wait4``, which reports at least the calling process's own
    peak, so measure from a process that stays small.  A child still
    running after ``timeout`` seconds is killed; one that fails raises
    :class:`BenchError`.
    """
    stderr_path = stdout_path.with_suffix(".err")
    with stdout_path.open("wb") as out, stderr_path.open("wb") as err:
        started = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=cwd,
                                env=program_env())
        watchdog = threading.Timer(timeout, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        tail = stderr_path.read_text(errors="replace")[-2000:]
        raise BenchError(f"{' '.join(argv[:4])}... exited "
                         f"{proc.returncode}:\n{tail}")
    return wall, usage.ru_maxrss / 1024.0


def peak_rss_mb(pid: int | str = "self") -> float:
    """Peak RSS (``VmHWM``) of a running process, in MB."""
    status = Path(f"/proc/{pid}/status").read_text()
    line = next(line for line in status.splitlines()
                if line.startswith("VmHWM:"))
    return int(line.split()[1]) / 1024


def median(values: list[float]) -> float:
    return statistics.median(values)


def percentile(values: list[float], pct: int) -> float:
    """The ``pct``-th percentile (``statistics.quantiles``' cut point)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100)[pct - 1]


def quartile_spread(values: list[float]) -> float:
    """(Q3 - Q1) / median, as the benchmark's steadiness rule defines it."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else float("inf")


def environment(seed: int) -> dict:
    """The host and software facts every result is recorded with."""
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "pyarrow": importlib.util.find_spec("pyarrow") is not None,
        "seed": seed,
    }


def metric(value: float, unit: str, samples: int) -> dict:
    return {"value": value, "unit": unit, "samples": samples}
