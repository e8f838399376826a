"""The ``lib-quest-wide`` workload: library calls in one process.

Run by :mod:`run` as a child process, which reports its own peak RSS
(``VmHWM``)::

    python perfbench/lib_quest.py QUEST.csv SECONDS TRACE OUT.json

One caller alternates two ops until ``SECONDS`` have passed, each on a
fresh ``Miner(db)`` calling ``frequent_itemsets`` then ``rules``:
``mine`` (``setm-columnar``) and ``mine_parallel`` (``setm-parallel``,
two workers).  Both must give identical patterns and rules.  With
``TRACE`` set, pairs alternate between untraced and traced, so the
tracing overhead is measured inside the run.

Set-up time is the time ``read_sales_csv`` takes to decode the input.
It is sampled before the window and again before every op, so its
median spans the whole run, as the ops' medians do; the samples taken
inside the window are left out of the window's length.
"""

from __future__ import annotations

import gc
import hashlib
import json
import sys
import time

from common import median, peak_rss_mb, use_program_in_process

SUPPORT = 0.005
CONFIDENCE = 0.5
OPS = {
    "mine": ("setm-columnar", {}),
    "mine_parallel": ("setm-parallel", {"workers": 2}),
}
#: Set-up samples before the window; the first decode of a process
#: (lazy imports, cold page cache) is run once more and not kept.
SETUP_REPEATS = 3


def fingerprint(result, rules) -> str:
    """Hash of everything two engines must agree on."""
    from repro.serve.protocol import result_payload, rules_payload

    payload = result_payload(result)
    payload.pop("algorithm")
    text = json.dumps([payload, rules_payload(rules)], sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def main(csv_path: str, seconds: float, trace: bool, out_path: str) -> None:
    use_program_in_process()
    tracer = None
    if trace:
        from tracing import Tracer, install_wrappers

        tracer = Tracer()
        install_wrappers(tracer)
        tracer.enabled = False
    from repro import Miner, MiningConfig
    from repro.data.io import read_sales_csv

    def timed_setup() -> float:
        gc.collect()
        started = time.perf_counter()
        read_sales_csv(csv_path)
        return time.perf_counter() - started

    database = read_sales_csv(csv_path)
    setup = [timed_setup() for _ in range(SETUP_REPEATS)]
    if tracer is not None:
        # One traced decode for the data layer's numbers.
        tracer.enabled = True
        read_sales_csv(csv_path)
        tracer.enabled = False

    configs = {
        op: MiningConfig(support=SUPPORT, confidence=CONFIDENCE,
                         algorithm=engine, options=options)
        for op, (engine, options) in OPS.items()
    }
    # Untimed warm-up per op type (imports, worker pool start-up) at a
    # support high enough to cost little.
    for config in configs.values():
        Miner(database).rules(config.replace(support=0.05))

    ops = []
    expected = None
    failed = 0
    window_start = time.perf_counter()
    in_window_setup = 0.0
    pair = 0
    # A traced run needs at least one untraced and one traced pair.
    while time.perf_counter() - window_start < seconds or (
        tracer is not None and pair < 2
    ):
        traced = tracer is not None and pair % 2 == 1
        for op, config in configs.items():
            paused = time.perf_counter()
            setup.append(timed_setup())
            in_window_setup += time.perf_counter() - paused
            if tracer is not None:
                tracer.enabled = traced
            started_ns = time.perf_counter_ns()
            miner = Miner(database)
            result = miner.frequent_itemsets(config)
            rules = miner.rules(config)
            ended_ns = time.perf_counter_ns()
            if tracer is not None:
                tracer.enabled = False
            digest = fingerprint(result, rules)
            expected = expected or digest
            ok = digest == expected
            failed += not ok
            ops.append({
                "op": op, "start": started_ns, "end": ended_ns,
                "traced": traced, "ok": ok,
                "candidate_rows": sum(s.candidate_instances
                                      for s in result.iterations),
                "rules": len(rules),
                "cache_hit_ratio": miner.cache_info()["hit_rate"],
            })
        pair += 1
    window = time.perf_counter() - window_start - in_window_setup

    document = {
        "setup_s": median(setup), "setup_samples": len(setup),
        "peak_rss_mb": peak_rss_mb(),
        "window_s": window, "ops": ops, "failed": failed,
        "spans": tracer.spans if tracer is not None else [],
    }
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(document, handle)


if __name__ == "__main__":
    main(sys.argv[1], float(sys.argv[2]), sys.argv[3] == "1", sys.argv[4])
