"""Steadiness check: is every end-to-end metric steady enough to gate on?

Usage (from the root of a checkout)::

    python3 perfbench/steady.py                       # every workload, 10 seeds, 2 sets
    python3 perfbench/steady.py --workload serve-mixed --runs 5 --sets 1

Runs each workload once per seed (seeds ``1..runs``), ``sets`` times
over, with the ``run_seconds`` of ``BENCHMARK.json``.  For each
end-to-end metric it prints the median, the quartiles and the spread
``(Q3 - Q1) / median`` of each set (``statistics.quantiles(n=4)``)
against the metric's bound.  It fails when

* a run fails or reports wrong outputs;
* a spread exceeds its bound;
* a later set's median is worse than the first set's by more than the
  bound;
* an exact count (``core.candidate_rows``, ``rules.count``,
  ``miner.cache_hit_ratio``, ``incremental.recount_fraction``) differs
  between two runs of one seed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

from common import BENCH_DIR, ROOT, quartile_spread


def run_once(workload: str, seed: int, seconds: int) -> tuple[dict, dict]:
    """One untraced run: ``(result line, detail)``."""
    completed = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    if completed.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited "
                         f"{completed.returncode}:\n{completed.stderr[-2000:]}")
    lines = completed.stdout.splitlines()
    detail = next(json.loads(line[len("detail "):]) for line in lines
                  if line.startswith("detail "))
    return json.loads(lines[-1]), detail


def _worse(metric: dict, first: float, later: float) -> float:
    """How much worse ``later`` is than ``first``, as a share of it."""
    change = (later - first) / first
    return change if metric["better"] == "lower" else -change


def check_workload(benchmark: dict, workload: str, runs: int,
                   sets: int) -> list[str]:
    problems: list[str] = []
    values: list[dict[str, list[float]]] = []
    exact: dict[int, dict] = {}
    for index in range(sets):
        values.append({m["name"]: [] for m in benchmark["end_to_end"]})
        for seed in range(1, runs + 1):
            result, detail = run_once(workload, seed,
                                      benchmark["run_seconds"])
            if not result["correct"] or result["failed"]:
                problems.append(f"{workload} seed {seed}: {result['failed']}"
                                f" of {result['attempted']} ops failed")
            for name, entry in result["metrics"].items():
                values[index][name].append(entry["value"])
            if seed in exact and exact[seed] != detail["exact"]:
                problems.append(f"{workload} seed {seed}: exact counts "
                                f"{detail['exact']} != {exact[seed]}")
            exact.setdefault(seed, detail["exact"])
            print(f"  {workload} set {index + 1} seed {seed}: "
                  + ", ".join(f"{k}={v['value']:.4g}"
                              for k, v in result["metrics"].items()),
                  flush=True)
    for metric in benchmark["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        medians = []
        for index, by_name in enumerate(values):
            series = by_name[name]
            q1, med, q3 = statistics.quantiles(series, n=4)
            spread = quartile_spread(series)
            medians.append(med)
            verdict = "ok"
            if spread > bound:
                verdict = "TOO WIDE"
                problems.append(f"{workload} {name}: spread {spread:.3f} "
                                f"> bound {bound}")
            print(f"{workload:15s} {name:12s} set {index + 1}: median "
                  f"{med:.5g} {metric['unit']}, Q1 {q1:.5g}, Q3 {q3:.5g}, "
                  f"spread {spread:.3f} (bound {bound}, a third "
                  f"{bound / 3:.3f}) {verdict}")
        for index, med in enumerate(medians[1:], start=2):
            worse = _worse(metric, medians[0], med)
            if worse > bound:
                problems.append(f"{workload} {name}: set {index} median "
                                f"{worse:.3f} worse than set 1")
    return problems


def main(argv: list[str] | None = None) -> int:
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in benchmark["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append", choices=names,
                        help="workload to check (repeatable; default all)")
    parser.add_argument("--runs", type=int, default=10,
                        help="seeds per set (default 10)")
    parser.add_argument("--sets", type=int, default=2,
                        help="sets of runs (default 2)")
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2 to give quartiles")
    problems: list[str] = []
    for workload in args.workload or names:
        problems += check_workload(benchmark, workload, args.runs, args.sets)
    for problem in problems:
        print(f"FAIL: {problem}")
    print("steady" if not problems else f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
