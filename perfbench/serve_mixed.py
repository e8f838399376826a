"""The ``serve-mixed`` workload: reads and writes against ``repro serve``.

``repro serve retail=... quest=... --input-format csv --port 0`` runs in
a child process.  Two closed-loop ``ServeClient`` threads drive it:

* the reader runs a sequence of ``mine``, ``query``, ``rules_about``
  and ``support_of`` on ``retail``.  Supports are drawn Zipf-like from
  :data:`SUPPORTS`, more values than the 32-entry result cache holds,
  so reads both hit and miss;
* the writer repeats ``append`` (a 100-transaction batch) ->
  ``refresh`` -> ``query`` on ``quest``.

Each dataset has exactly one client, so cache hits and recounts repeat
exactly however the threads interleave.  Every response is checked
after the server has stopped: reads byte for byte against a direct
``Miner`` run on the same data, refreshes against a from-scratch mine
of the grown dataset (and each must have counted only the delta).
"""

from __future__ import annotations

import json
import queue
import random
import re
import subprocess
import sys
import threading
import time
from pathlib import Path

from common import (
    BENCH_DIR, CHILD_TIMEOUT_S, BenchError, median, metric, peak_rss_mb,
    percentile, program_env, use_program_in_process,
)
from inputs import read_rows, write_batch

CONFIDENCE = 0.5
#: 48 supports from 0.2% to 5%: more keys than the 32-entry cache.
#: Requests pick them Zipf-like in a fixed shuffled order, so popular
#: and rare supports are spread over the whole range.
SUPPORTS = tuple(random.Random(0).sample(
    [round(0.002 * 25 ** (i / 47), 6) for i in range(48)], 48
))
WRITE_SUPPORT = 0.01
WRITE_QUERY = ("MINE RULES FROM quest WHERE support >= 0.01 "
               "AND confidence >= 0.5")
#: Exact counts are taken over fixed prefixes, so they repeat exactly
#: between runs of one seed whatever the machine's speed.
EXACT_READS = 40
EXACT_REFRESHES = 3
SETUP_REPEATS = 5
#: A traced run starts one server per entry, untraced or traced, in
#: this order, so drift of the host over the run weighs on the traced
#: and the untraced reads alike.
TRACE_SLICES = (False, True, True, False)
#: The server's default per-dataset result-cache bound.
CACHE_ENTRIES = 32
READ_OPS = ("mine", "query", "rules_about", "support_of")


class Server:
    """One ``repro serve`` child, optionally under the span launcher."""

    def __init__(self, datasets: list[str], spans_path: Path | None,
                 log_path: Path) -> None:
        command = ["serve", *datasets, "--input-format", "csv",
                   "--port", "0"]
        if spans_path is None:
            argv = [sys.executable, "-m", "repro", *command]
        else:
            argv = [sys.executable, str(BENCH_DIR / "launch.py"),
                    str(spans_path), "--", *command]
        self.spans_path = spans_path
        self._log = log_path.open("wb")
        started = time.perf_counter()
        self.proc = subprocess.Popen(argv, stdout=subprocess.PIPE,
                                     stderr=self._log, env=program_env())
        lines: queue.Queue = queue.Queue()
        self._reader = threading.Thread(target=self._pump, args=(lines,))
        self._reader.start()
        deadline = started + CHILD_TIMEOUT_S
        while True:
            try:
                line = lines.get(timeout=max(0.0, deadline - time.perf_counter()))
            except queue.Empty:
                self.kill()
                raise BenchError("server did not start listening") from None
            if line is None:
                self.kill()
                raise BenchError("server exited before listening; see "
                                 f"{log_path}")
            found = re.match(r"listening on ([\d.]+):(\d+)", line)
            if found:
                self.setup_s = time.perf_counter() - started
                self.host, self.port = found.group(1), int(found.group(2))
                return

    def _pump(self, lines: queue.Queue) -> None:
        for raw in self.proc.stdout:
            lines.put(raw.decode(errors="replace"))
        lines.put(None)

    def client(self):
        from repro.serve.client import ServeClient

        return ServeClient(self.host, self.port, timeout=CHILD_TIMEOUT_S)

    def stop(self) -> list[dict]:
        """Drain the server, wait for it, and return its spans."""
        try:
            self.client().drain()
            self.proc.wait(timeout=CHILD_TIMEOUT_S)
        finally:
            self.kill()
        if self.spans_path is None:
            return []
        return json.loads(self.spans_path.read_text(encoding="utf-8"))

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()
        self._reader.join()
        self._log.close()


class Caller:
    """A closed-loop client that records every request it makes.

    Request ids follow the server-side wrapper's scheme: the n-th
    answered request for a dataset is ``<dataset>#<n>``.
    """

    def __init__(self, server: Server, dataset: str) -> None:
        self.server = server
        self.client = server.client()
        self.dataset = dataset
        self.answered = 0
        self.records: list[dict] = []

    def call(self, kind: str, payload: dict, key, measured: bool = True):
        started = time.perf_counter_ns()
        try:
            document = self.client.request(payload)
            error = None
        except Exception as failure:
            # Refusals (429), timeouts and transport errors all count
            # as failed operations.
            document, error = None, f"{type(failure).__name__}: {failure}"
            code = self.server.proc.poll()
            if code is not None:
                error = f"server exited with code {code}; {error}"
        ended = time.perf_counter_ns()
        rid = None
        if error is None:
            self.answered += 1
            rid = f"{self.dataset}#{self.answered}"
        if measured:
            self.records.append({
                "op": kind, "start": started, "end": ended, "rid": rid,
                "key": key, "document": document, "error": error,
            })
        elif error is not None:
            raise BenchError(f"warm-up {payload['op']} failed: {error}")
        return document


def read_sequence(seed: int, items: list[int]):
    """The reader's endless request sequence.

    Which op comes next and at which support is one fixed sequence for
    every seed, so the cache's hits and misses are the same at every
    seed; the seed picks the items asked about (and the inputs' item
    labels), like it does for the other workloads.
    """
    shape = random.Random(0)
    picks = random.Random(seed)
    weights = [1.0 / (rank + 1) for rank in range(len(SUPPORTS))]
    while True:
        op = shape.choice(READ_OPS)
        support = shape.choices(SUPPORTS, weights=weights)[0]
        item = picks.choice(items)
        config = {"support": support, "confidence": CONFIDENCE,
                  "algorithm": "setm-columnar"}
        if op == "mine":
            payload = {"op": "mine", "dataset": "retail", "config": config}
            key = ("mine", support)
        elif op == "query":
            text = (f"MINE RULES FROM retail WHERE support >= {support} "
                    f"AND confidence >= {CONFIDENCE} AND rhs HAS '{item}'")
            payload = {"op": "query", "query": text}
            key = ("query", text)
        elif op == "rules_about":
            payload = {"op": "rules_about", "dataset": "retail",
                       "config": config, "item": item}
            key = ("rules_about", support, item)
        else:
            pair = sorted([item, picks.choice(
                [other for other in items if other != item])])
            payload = {"op": "support_of", "dataset": "retail",
                       "config": config, "items": pair}
            key = ("support_of", support, tuple(pair))
        yield op, payload, key


def _phase(inputs: dict, seed: int, seconds: float, work: Path,
           spans_path: Path | None, setup_repeats: int) -> dict:
    """One server lifetime: set-up, warm-up, measuring window, stop.

    ``setup_repeats - 1`` more servers are started only to time their
    set-up, half before the measured one and half after it, so the
    median set-up time spans the phase.
    """
    datasets = [f"retail={inputs['retail']}", f"quest={inputs['base']}"]
    setup = []

    def spare() -> None:
        server = Server(datasets, None, work / "serve-setup.log")
        setup.append(server.setup_s)
        server.stop()

    before = setup_repeats // 2
    for _ in range(before):
        spare()
    server = Server(datasets, spans_path, work / "serve.log")
    setup.append(server.setup_s)
    try:
        phase = _drive(server, inputs, seed, seconds, work)
    finally:
        server.kill()
    for _ in range(setup_repeats - 1 - before):
        spare()
    phase["setup"] = setup
    return phase


def _drive(server, inputs, seed, seconds, work) -> dict:
    reader = Caller(server, "retail")
    writer = Caller(server, "quest")
    batches = inputs["batches"]
    written: list[Path] = []

    def next_batch() -> str:
        path = write_batch(batches, len(written),
                           work / f"batch-{len(written):04d}.csv")
        written.append(path)
        return str(path)

    refresh = {"op": "refresh", "dataset": "quest",
               "config": {"support": WRITE_SUPPORT,
                          "confidence": CONFIDENCE}}
    # Untimed warm-up, one per op type: the first refresh mines fully
    # and materializes the incremental state the measured ones extend.
    warm = {"support": 0.2, "confidence": CONFIDENCE,
            "algorithm": "setm-columnar"}
    for payload in (
        {"op": "mine", "dataset": "retail", "config": warm},
        {"op": "query", "query": "MINE RULES FROM retail WHERE "
         "support >= 0.2 AND confidence >= 0.5 AND rhs HAS '1'"},
        {"op": "rules_about", "dataset": "retail", "config": warm,
         "item": 1},
        {"op": "support_of", "dataset": "retail", "config": warm,
         "items": [1, 2]},
    ):
        reader.call("warm-up", payload, None, measured=False)
    # Fill the result cache with the most popular supports, so the
    # window measures the cache's steady state rather than its cold
    # start: every op after it then hits or misses as the LRU decides.
    for support in reversed(SUPPORTS[:CACHE_ENTRIES]):
        reader.call("warm-up", {"op": "mine", "dataset": "retail",
                                "config": dict(warm, support=support)},
                    None, measured=False)
    for payload in (refresh,
                    {"op": "append", "dataset": "quest",
                     "path": next_batch()},
                    refresh,
                    {"op": "query", "query": WRITE_QUERY}):
        writer.call("warm-up", payload, None, measured=False)
    rss = peak_rss_mb(server.proc.pid)

    sequence = read_sequence(seed, inputs["items"])
    deadline = time.perf_counter() + seconds

    def running() -> bool:
        # A server that died (it has crashed under this load) fails the
        # request in flight; the loops stop rather than count refusals.
        return (time.perf_counter() < deadline
                and server.proc.poll() is None)

    def read_loop():
        while running():
            op, payload, key = next(sequence)
            reader.call(op, payload, key)

    def write_loop():
        while running():
            path = next_batch()
            generation = len(written)
            writer.call("append", {"op": "append", "dataset": "quest",
                                   "path": path}, generation)
            writer.call("refresh", refresh, generation)
            writer.call("read_after_write",
                        {"op": "query", "query": WRITE_QUERY}, generation)

    window_start = time.perf_counter()
    threads = [threading.Thread(target=read_loop),
               threading.Thread(target=write_loop)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    window = time.perf_counter() - window_start
    queue_stats, spans = {"rejected": 0, "timed_out": 0}, []
    if server.proc.poll() is None:
        rss = peak_rss_mb(server.proc.pid)
        queue_stats = server.client().stats()["queue"]
        spans = server.stop()
    return {
        "window_s": window, "rss_mb": rss,
        "queue": queue_stats, "reads": reader.records,
        "writes": writer.records, "batches": written, "spans": spans,
    }


# -- verification ---------------------------------------------------------------------

def _query_reference(plan, result) -> dict:
    """The document a query must return, from a ``setm-columnar`` result.

    Patterns do not depend on the engine, so the planned engine is
    mined as ``setm-columnar`` and only its name is carried over.
    """
    from repro.core.rules import generate_rules
    from repro.query import build_document

    rules = generate_rules(result, plan.config.confidence)
    document = build_document(plan, result, rules)
    document["result"]["algorithm"] = plan.engine
    return document


def _read_reference(database, miner, key) -> dict:
    from repro import MiningConfig
    from repro.core.rules import generate_rules
    from repro.query import dataset_stats, parse_query, plan_query
    from repro.serve.protocol import result_payload, rules_payload

    def mined(support):
        return miner.frequent_itemsets(MiningConfig(
            support=support, algorithm="setm-columnar",
            options={"measure_memory": False},
        ))

    kind = key[0]
    if kind == "mine":
        result = mined(key[1])
        return {"result": result_payload(result),
                "rules": rules_payload(generate_rules(result, CONFIDENCE))}
    if kind == "query":
        plan = plan_query(parse_query(key[1]),
                          dataset_stats(database, name="retail"))
        return _query_reference(plan, mined(plan.config.support))
    if kind == "rules_about":
        result = mined(key[1])
        rules = [rule for rule in generate_rules(result, CONFIDENCE)
                 if key[2] in rule.pattern]
        return {"item": key[2], "rules": rules_payload(rules)}
    result = mined(key[1])
    count = result.support_count(key[2])
    return {"items": list(key[2]), "count": count,
            "support": (None if count is None
                        else count / result.num_transactions)}


def _same(document: dict, reference: dict) -> bool:
    """Byte-compare the response fields the reference defines."""
    response = {field: document.get(field) for field in reference}
    return (json.dumps(response, sort_keys=True)
            == json.dumps(reference, sort_keys=True))


def verify(phase: dict, inputs: dict) -> list[str]:
    """Check every recorded response; returns one line per failure."""
    use_program_in_process()
    from repro import Miner, MiningConfig
    from repro.core.rules import generate_rules
    from repro.data.formats import open_chunk_source
    from repro.data.ingest import load_dataset
    from repro.query import dataset_stats, parse_query, plan_query
    from repro.serve.protocol import result_payload, rules_payload

    failures: list[str] = []
    retail = load_dataset(inputs["retail"], input_format="csv")
    miner = Miner(retail, cache_entries=len(SUPPORTS))
    expected: dict = {}
    for record in phase["reads"]:
        if record["error"] is not None:
            failures.append(f"{record['op']}: {record['error']}")
            continue
        key = record["key"]
        if key not in expected:
            expected[key] = _read_reference(retail, miner, key)
        if not _same(record["document"], expected[key]):
            failures.append(f"{record['op']} {key}: differs from Miner")

    quest = load_dataset(inputs["base"], input_format="csv")
    # Keyed on the dataset generation, so a refresh and the query after
    # it share one from-scratch mine.
    quest_miner = Miner(quest)
    grown = 0
    pattern_fields = ("num_transactions", "support_threshold",
                      "num_patterns", "max_pattern_length", "patterns")
    for record in phase["writes"]:
        if record["error"] is not None:
            failures.append(f"{record['op']}: {record['error']}")
            continue
        while grown < record["key"]:
            quest.append_chunks(open_chunk_source(phase["batches"][grown],
                                                  input_format="csv"))
            grown += 1
        if record["op"] == "append":
            continue
        result = quest_miner.frequent_itemsets(MiningConfig(
            support=WRITE_SUPPORT, algorithm="setm-columnar",
            options={"measure_memory": False},
        ))
        rules = generate_rules(result, CONFIDENCE)
        document = record["document"]
        if record["op"] == "refresh":
            payload = result_payload(result)
            mode = (document.get("incremental") or {}).get("mode")
            if mode != "delta":
                failures.append(f"refresh {record['key']}: mode {mode!r}")
            elif not (_same(document["result"],
                            {f: payload[f] for f in pattern_fields})
                      and _same(document, {"rules": rules_payload(rules)})):
                failures.append(f"refresh {record['key']}: differs from "
                                "a from-scratch mine")
        else:
            plan = plan_query(parse_query(WRITE_QUERY),
                              dataset_stats(quest, name="quest"))
            if not _same(document, _query_reference(plan, result)):
                failures.append(f"query {record['key']}: differs from "
                                "a from-scratch mine")
    return failures


# -- the workload ---------------------------------------------------------------------

def _seconds(records, kind) -> list[float]:
    return [(r["end"] - r["start"]) / 1e9 for r in records
            if r["op"] == kind and r["error"] is None]


def _exact(phase: dict) -> dict:
    reads = phase["reads"][:EXACT_READS]
    refreshes = [r for r in phase["writes"] if r["op"] == "refresh"]
    refreshes = refreshes[:EXACT_REFRESHES]
    if any(r["error"] is not None for r in phase["reads"] + phase["writes"]):
        return {}
    if len(reads) < EXACT_READS or len(refreshes) < EXACT_REFRESHES:
        raise BenchError(
            f"the window gave {len(reads)} reads and {len(refreshes)} "
            f"refreshes; exact counts need {EXACT_READS} and "
            f"{EXACT_REFRESHES}: lengthen --seconds"
        )
    candidate_rows = rules = hits = 0
    for record in reads:
        document = record["document"]
        hits += document["server"]["cache_hit"]
        result = document.get("result")
        if result is not None:
            candidate_rows += sum(it["candidate_instances"]
                                  for it in result["iterations"])
        rules += len(document.get("rules") or ())
    fractions = [r["document"]["incremental"]["recount_fraction"]
                 for r in refreshes]
    return {
        "core.candidate_rows": candidate_rows,
        "rules.count": rules,
        "miner.cache_hit_ratio": hits / len(reads),
        "incremental.recount_fraction": sum(fractions) / len(fractions),
    }


def _merged(phases: list[dict]) -> dict:
    """Several traced server lifetimes as one, request ids made unique."""
    from tracing import resolve_request_ids

    merged = {"reads": [], "writes": [], "spans": [], "window_s": 0.0,
              "rss_mb": 0.0, "queue": {"rejected": 0, "timed_out": 0}}
    for index, phase in enumerate(phases):
        resolve_request_ids(phase["spans"])
        for item in phase["spans"] + phase["reads"] + phase["writes"]:
            if item["rid"] is not None:
                item["rid"] = f"{index}/{item['rid']}"
        for key in ("reads", "writes", "spans"):
            merged[key] += phase[key]
        merged["window_s"] += phase["window_s"]
        merged["rss_mb"] = max(merged["rss_mb"], phase["rss_mb"])
        for key in merged["queue"]:
            merged["queue"][key] += phase["queue"][key]
    return merged


def run(inputs: dict, seed: int, seconds: float, trace: bool,
        work: Path) -> dict:
    inputs = dict(inputs)
    inputs["batches"] = read_rows(inputs["batches_csv"])
    inputs["items"] = sorted({item for _, item in read_rows(inputs["retail"])})
    if trace:
        slices = [
            _phase(inputs, seed, seconds / len(TRACE_SLICES), work,
                   work / f"serve-{index}.spans.json" if traced else None, 1)
            for index, traced in enumerate(TRACE_SLICES)
        ]
        plain = [p for p, traced in zip(slices, TRACE_SLICES) if not traced]
        traced_phases = [p for p, traced in zip(slices, TRACE_SLICES)
                         if traced]
        exact = _exact(traced_phases[0])
        phase = _merged(traced_phases)
    else:
        phase = _phase(inputs, seed, seconds, work, None, SETUP_REPEATS)
        slices, plain, exact = [phase], [], _exact(phase)
    failures = [failure for p in slices for failure in verify(p, inputs)]
    records = phase["reads"] + phase["writes"]
    reads = [(r["end"] - r["start"]) / 1e9 for r in phase["reads"]
             if r["error"] is None]
    attempted = sum(len(p["reads"]) + len(p["writes"]) for p in slices)
    # A series can only be empty when the server died; the run then
    # reports failures, and 0 stands in for the missing figure.
    named = {
        "read_p50_s": metric(median(reads) if reads else 0.0, "s",
                             len(reads)),
        "read_p90_s": metric(percentile(reads, 90) if reads else 0.0, "s",
                             len(reads)),
    }
    for name, kind in (("read_after_write_p50_s", "read_after_write"),
                       ("append_p50_s", "append"),
                       ("refresh_p50_s", "refresh")):
        values = _seconds(phase["writes"], kind)
        named[name] = metric(median(values) if values else 0.0, "s",
                             len(values))
    completed = sum(r["error"] is None for r in records)
    named["serve_rps"] = metric(completed / phase["window_s"], "1/s",
                                completed)
    named["peak_rss_mb"] = metric(phase["rss_mb"], "MB", 1)
    if not trace:
        named["setup_s"] = metric(median(phase["setup"]), "s",
                                  len(phase["setup"]))
    ops = [
        {"op": r["op"], "start": r["start"], "end": r["end"],
         "wall_s": (r["end"] - r["start"]) / 1e9, "rid": r["rid"],
         "traced": trace, "ok": r["error"] is None}
        for r in records
    ]
    result = {
        "ops": ops, "failed": len(failures), "failures": failures[:10],
        "attempted": attempted,
        "window_s": phase["window_s"], "named": named,
        "exact": exact,
        "spans": phase["spans"], "queue": phase["queue"],
    }
    if trace:
        plain_reads = [(r["end"] - r["start"]) / 1e9 for p in plain
                       for r in p["reads"] if r["error"] is None]
        named["untraced_read_p50_s"] = metric(median(plain_reads), "s",
                                              len(plain_reads))
        result["overhead_ratio"] = median(reads) / median(plain_reads) - 1
    return result
