"""The ``cli-retail`` workload: ``repro mine`` as a user runs it.

One caller runs the CLI back to back on the Table 6.2 retail CSV, each
invocation a fresh interpreter, with no warm-up: every user pays
start-up.  Every ``--json`` document must equal, in all its result fields, a
reference mined once in-process through the library by another engine
(``setm``).  In a traced run, plain and traced invocations alternate.

Set-up time is the wall time of a fresh interpreter importing
``repro.cli``.  In an untraced run it is sampled before the window and
again before every second invocation, so its median spans the whole
run; the samples taken inside the window are left out of its length.
"""

from __future__ import annotations

import hashlib
import json
import sys
import time
from pathlib import Path

from common import (
    BENCH_DIR, SRC, BenchError, median, metric, run_child,
    use_program_in_process,
)

ARGS = ["--engine", "setm-columnar", "--minsup", "0.005", "--minconf", "0.5",
        "--json"]
SUPPORT, CONFIDENCE = 0.005, 0.5
#: Fields of the ``--json`` document that describe the mining result; the
#: others measure the run (timings, memory) or name the engine.
CHECKED = ("num_transactions", "minimum_support", "support_threshold",
           "num_patterns", "max_pattern_length", "patterns", "rules",
           "iterations")
#: Set-up samples before the window.
SETUP_REPEATS = 2
#: Inside the window, one set-up sample per this many invocations.
SETUP_EVERY = 2


def comparable(document: dict) -> str:
    return json.dumps({k: document[k] for k in CHECKED}, sort_keys=True)


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def reference(csv_path: Path) -> Path:
    """A file with what ``--json`` must say, built in-process through the
    library with another engine (``setm``), cached per program source."""
    path = csv_path.parent / f"cli-reference-{_source_digest()}.json"
    if not path.is_file():
        use_program_in_process()
        from repro import Miner, MiningConfig
        from repro.data.io import read_sales_csv

        config = MiningConfig(support=SUPPORT, confidence=CONFIDENCE,
                              algorithm="setm")
        miner = Miner(read_sales_csv(csv_path))
        result = miner.frequent_itemsets(config)
        document = {
            "num_transactions": result.num_transactions,
            "minimum_support": result.minimum_support,
            "support_threshold": result.support_threshold,
            "num_patterns": sum(len(relation) for relation
                                in result.count_relations.values()),
            "max_pattern_length": result.max_pattern_length,
            "patterns": [{"items": [str(item) for item in pattern],
                          "count": count}
                         for pattern, count in result.iter_patterns()],
            "rules": [str(rule) for rule in miner.rules(config)],
            "iterations": [
                {"k": it.k, "candidate_instances": it.candidate_instances,
                 "supported_instances": it.supported_instances,
                 "candidate_patterns": it.candidate_patterns,
                 "supported_patterns": it.supported_patterns,
                 "r_kbytes": it.r_kbytes}
                for it in result.iterations
            ],
        }
        path.write_text(comparable(document), encoding="utf-8")
    return path


def measure(csv_path: Path, expected: str, seconds: float, trace: bool,
            work: Path) -> dict:
    """The measuring loop, run in a process of its own (see ``main``)."""
    program = [sys.executable, "-m", "repro", "mine", str(csv_path)] + ARGS
    launcher = [sys.executable, str(BENCH_DIR / "launch.py")]

    setup = []
    probe = [sys.executable, "-c", "import repro.cli"]

    def sample_setup() -> float:
        """Take one set-up sample; returns the time it took."""
        started = time.perf_counter()
        wall, _ = run_child(probe, work / "probe.out")
        setup.append(wall)
        return time.perf_counter() - started

    if not trace:
        for _ in range(SETUP_REPEATS):
            sample_setup()

    ops = []
    failed = 0
    failures: list[str] = []
    window_start = time.perf_counter()
    in_window_setup = 0.0
    while time.perf_counter() - window_start < seconds or (
        trace and len(ops) < 4
    ):
        if not trace and (len(ops) + len(failures)) % SETUP_EVERY == 0:
            in_window_setup += sample_setup()
        traced = trace and len(ops) % 2 == 1
        out = work / f"cli-{len(ops)}.out"
        spans_path = work / f"cli-{len(ops)}.spans.json"
        argv = (launcher + [str(spans_path), "--"] + program[3:]
                if traced else program)
        started_ns = time.perf_counter_ns()
        try:
            wall, rss = run_child(argv, out)
        except BenchError as error:
            # A crashed invocation is a failed op, not a broken run.
            failed += 1
            failures.append(str(error))
            continue
        document = json.loads(out.read_text(encoding="utf-8"))
        ok = comparable(document) == expected
        failed += not ok
        ops.append({
            "op": "cli", "start": started_ns,
            "end": started_ns + int(wall * 1e9), "wall_s": wall,
            "rss_mb": rss, "traced": traced, "ok": ok,
            "candidate_rows": sum(it["candidate_instances"]
                                  for it in document["iterations"]),
            "rules": len(document["rules"]),
            "spans": (json.loads(spans_path.read_text(encoding="utf-8"))
                      if traced else []),
        })
    window = time.perf_counter() - window_start - in_window_setup

    plain = [op["wall_s"] for op in ops if not op["traced"]]
    if not ops:
        raise BenchError("every invocation failed:\n" + "\n".join(failures))
    result = {
        "ops": ops, "failed": failed, "failures": failures[:10],
        "attempted": len(ops) + len(failures), "window_s": window,
        "named": {
            "cli_p50_s": metric(median(plain), "s", len(plain)),
            "peak_rss_mb": metric(max(op["rss_mb"] for op in ops), "MB",
                                  len(ops)),
        },
        "exact": {
            "core.candidate_rows": ops[0]["candidate_rows"],
            "rules.count": ops[0]["rules"],
        },
    }
    if setup:
        result["named"]["setup_s"] = metric(median(setup), "s", len(setup))
    return result


def main(argv: list[str]) -> None:
    """``cli_retail.py CSV REFERENCE SECONDS TRACE WORK OUT.json``

    The loop runs in a small process of its own because a child's peak
    RSS as ``wait4`` reports it is at least its parent's peak when it was
    spawned: the benchmark's main process, which generated the inputs
    and the reference, would inflate every CLI child's figure.
    """
    csv_path, reference_path, seconds, trace, work, out = argv
    result = measure(Path(csv_path), Path(reference_path).read_text(),
                     float(seconds), trace == "1", Path(work))
    Path(out).write_text(json.dumps(result), encoding="utf-8")


if __name__ == "__main__":
    main(sys.argv[1:])
