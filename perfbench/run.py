"""The repository's benchmark: what callers of ``repro`` wait on.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload cli-retail --seed 1 --seconds 20 --trace 0

Workloads (see ``perfbench/README.md`` for why each was chosen and
which metrics it should and should not move):

* ``cli-retail`` -- ``repro mine`` on the Table 6.2 retail CSV;
* ``lib-quest-wide`` -- in-process ``Miner`` calls on wide QUEST data,
  serial and 2-worker parallel;
* ``serve-mixed`` -- reads and writes against ``repro serve``.

The program runs from ``src/`` with its shipped defaults.  Inputs are
generated from ``--seed`` outside every timed region and cached under
``.perfbench/``.  Every output is checked; a wrong one counts as failed.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the
metrics are the end-to-end ones, measured with no tracing; with
``--trace 1`` they are the per-layer ones of a separate traced run
(:mod:`layers`), which also writes a Chrome trace-event file under
``.perfbench/traces/``.  The lines before it print every measured
metric by name and unit with its sample count, the exact counts, and
the host facts.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import time

from common import (
    BENCH_DIR, WORK, BenchError, environment, median, metric,
    run_child, use_program_in_process,
)

WORKLOADS = ("cli-retail", "lib-quest-wide", "serve-mixed")

#: name -> unit of the end-to-end metrics every workload reports.  Each
#: workload maps them onto its own measurements; see :func:`end_to_end`.
END_TO_END = {
    "setup_s": "s",
    "p50_s": "s",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def _lib_quest(seed: int, seconds: float, trace: bool, run_dir) -> dict:
    import inputs

    csv_path = inputs.quest_wide_csv(WORK / "inputs", seed)
    out = run_dir / "lib.json"
    run_child(
        [sys.executable, str(BENCH_DIR / "lib_quest.py"), str(csv_path),
         str(seconds), "1" if trace else "0", str(out)],
        run_dir / "lib.out",
    )
    document = json.loads(out.read_text(encoding="utf-8"))
    ops = document["ops"]
    named = {"setup_s": metric(document["setup_s"], "s",
                               document["setup_samples"])}
    for op in ("mine", "mine_parallel"):
        walls = [(o["end"] - o["start"]) / 1e9 for o in ops
                 if o["op"] == op and not o["traced"]]
        named[f"{op}_p50_s"] = metric(median(walls), "s", len(walls))
    named["peak_rss_mb"] = metric(document["peak_rss_mb"], "MB", 1)
    first = ops[0]
    result = {
        "ops": [dict(o, wall_s=(o["end"] - o["start"]) / 1e9) for o in ops],
        "failed": document["failed"], "window_s": document["window_s"],
        "named": named, "spans": document["spans"],
        "exact": {
            "core.candidate_rows": first["candidate_rows"],
            "rules.count": first["rules"],
            "miner.cache_hit_ratio": first["cache_hit_ratio"],
        },
    }
    if trace:
        traced = [(o["end"] - o["start"]) / 1e9 for o in ops
                  if o["op"] == "mine" and o["traced"]]
        result["overhead_ratio"] = (median(traced)
                                    / named["mine_p50_s"]["value"] - 1)
    return result


def _cli_retail(seed: int, seconds: float, trace: bool, run_dir) -> dict:
    import cli_retail
    import inputs

    csv_path = inputs.retail_csv(WORK / "inputs", seed)
    out = run_dir / "cli.json"
    run_child(
        [sys.executable, str(BENCH_DIR / "cli_retail.py"), str(csv_path),
         str(cli_retail.reference(csv_path)), str(seconds),
         "1" if trace else "0", str(run_dir), str(out)],
        run_dir / "cli.out",
    )
    result = json.loads(out.read_text(encoding="utf-8"))
    if trace:
        walls = {flag: [op["wall_s"] for op in result["ops"]
                        if op["traced"] is flag] for flag in (False, True)}
        result["overhead_ratio"] = median(walls[True]) / median(walls[False]) - 1
    return result


def _serve_mixed(seed: int, seconds: float, trace: bool, run_dir) -> dict:
    import inputs
    import serve_mixed

    base, batches = inputs.serve_quest(WORK / "inputs", seed)
    files = {"retail": inputs.retail_csv(WORK / "inputs", seed),
             "base": base, "batches_csv": batches}
    return serve_mixed.run(files, seed, seconds, trace, run_dir)


def end_to_end(workload: str, result: dict) -> dict:
    """The end-to-end metrics, each from the workload's own measurement.

    ``p50_s`` is the median wait of the workload's headline op: one CLI
    invocation, the library ``mine`` op, or the serve writer's query
    after a refresh (the wait until fresh rules can be read).  Reader
    latencies of a few milliseconds swing with thread scheduling on a
    shared host far beyond any useful bound, so they are reported but
    not gated.  ``ops_per_s`` counts every completed op of every caller.
    """
    named = result["named"]
    headline = {"cli-retail": "cli_p50_s", "lib-quest-wide": "mine_p50_s",
                "serve-mixed": "read_after_write_p50_s"}[workload]
    completed = sum(op["ok"] for op in result["ops"])
    return {
        "setup_s": named["setup_s"]["value"],
        "p50_s": named[headline]["value"],
        "ops_per_s": completed / result["window_s"],
        "peak_rss_mb": named["peak_rss_mb"]["value"],
    }


def _traced_ops(workload: str, result: dict) -> list[dict]:
    """Traced ops, each with the spans recorded inside it."""
    from tracing import resolve_request_ids

    ops = [op for op in result["ops"] if op["traced"]]
    if workload == "cli-retail":
        return ops
    spans = result["spans"]
    if workload == "serve-mixed":
        resolve_request_ids(spans)
        by_rid: dict = {}
        for span in spans:
            by_rid.setdefault(span["rid"], []).append(span)
        return [dict(op, spans=by_rid.get(op["rid"], [])) for op in ops]
    return [dict(op, spans=[s for s in spans
                            if op["start"] <= s["start"] < op["end"]])
            for op in ops]


def per_layer(workload: str, result: dict, trace_path) -> dict:
    from layers import summarize
    from tracing import write_chrome_trace

    ops = _traced_ops(workload, result)
    spans = list(result.get("spans", []))
    if workload == "cli-retail":
        spans = [span for op in ops for span in op["spans"]]
    write_chrome_trace(spans, trace_path)
    return summarize(ops, spans, result["exact"], result["overhead_ratio"],
                     result.get("queue"))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    trace = bool(args.trace)

    try:
        use_program_in_process()
    except BenchError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    run_dir = WORK / "runs" / f"{args.workload}-{args.seed}-{time.time_ns()}"
    run_dir.mkdir(parents=True)
    try:
        runner = {"cli-retail": _cli_retail, "lib-quest-wide": _lib_quest,
                  "serve-mixed": _serve_mixed}[args.workload]
        result = runner(args.seed, args.seconds, trace, run_dir)
        if trace:
            trace_path = (WORK / "traces"
                          / f"{args.workload}-{args.seed}.trace.json")
            trace_path.parent.mkdir(parents=True, exist_ok=True)
            values = per_layer(args.workload, result, trace_path)
            from layers import PER_LAYER

            metrics = {name: {"value": values[name], "unit": unit}
                       for name, unit in PER_LAYER}
            # An op whose span tree does not fit its wall time has no
            # trustworthy breakdown: it counts as a failed op.
            if values["trace.inconsistent_ops"]:
                result["failed"] += values["trace.inconsistent_ops"]
                result.setdefault("failures", []).append(
                    f"{values['trace.inconsistent_ops']} traced ops have "
                    "spans that overlap or exceed the op's wall time")
        else:
            trace_path = None
            values = end_to_end(args.workload, result)
            metrics = {name: {"value": values[name], "unit": unit}
                       for name, unit in END_TO_END.items()}
    except BenchError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    attempted = result.get("attempted", len(result["ops"]))
    failed = result["failed"]
    detail = {
        "workload": args.workload, "trace": trace,
        "environment": environment(args.seed),
        "named": result["named"], "exact": result["exact"],
        "failed_ratio": failed / attempted if attempted else None,
        "failures": result.get("failures", []),
        "trace_file": str(trace_path) if trace_path else None,
    }
    for name, entry in result["named"].items():
        print(f"{name} = {entry['value']:.6g} {entry['unit']} "
              f"(n={entry['samples']})")
    print(f"failed_ratio = {detail['failed_ratio']:.6g} ratio "
          f"(n={attempted})")
    print("detail " + json.dumps(detail, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
