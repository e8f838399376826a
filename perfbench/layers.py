"""Per-layer metrics of a traced run, computed from its spans.

Every traced run reports every metric below; a layer the workload never
reaches reports 0.  Times are self times unless the description says
otherwise.  ``<layer>.op_self_s`` is the mean, per traced op, of the
layer's self time inside that op; together with
``trace.unattributed_s`` (the part of the op no span covers) they add up
to ``trace.op_wall_s``; spans are cut to the op's start and end first.
That sum holds by definition; what can go
wrong is the span tree, so ``trace.inconsistent_ops`` counts the ops
where a span's children cover more than the span (a negative self
time: overlapping or mis-parented spans) or the op's top-level spans
cover more than its wall time.  The other ``_s`` metrics are means per call of
the named span.  The four counts in :data:`EXACT` are taken over fixed
prefixes of the workload and must repeat exactly between runs of one
seed.
"""

from __future__ import annotations

from tracing import LAYERS, layer_of, roots, self_times

EXACT = ("core.candidate_rows", "rules.count", "miner.cache_hit_ratio",
         "incremental.recount_fraction")

#: (name, unit) of every per-layer metric, in report order.
PER_LAYER = (
    [
        ("trace.op_wall_s", "s"),
        ("trace.unattributed_s", "s"),
        ("trace.inconsistent_ops", "count"),
        ("trace.overhead_ratio", "ratio"),
    ]
    + [(f"{layer}.op_self_s", "s") for layer in LAYERS]
    + [
        ("cli.import_s", "s"),
        ("data.decode_s", "s"),
        ("data.decode_rows_per_s", "1/s"),
        ("data.stream_encode_s", "s"),
        ("data.append_s", "s"),
        ("miner.mine_s", "s"),
        ("miner.cache_hit_ratio", "ratio"),
        ("miner.subsumable_miss_ratio", "ratio"),
        ("core.mine_s", "s"),
        ("core.iter_s.k1", "s"),
        ("core.iter_s.k2", "s"),
        ("core.iter_s.k3", "s"),
        ("core.iter_s.k4", "s"),
        ("core.iter_s.k5plus", "s"),
        ("core.candidate_rows", "count"),
        ("core.supported_rows", "count"),
        ("core.useful_ratio", "ratio"),
        ("core.candidate_rows_per_s", "1/s"),
        ("core.bigkey_s", "s"),
        ("core.bigkey_rows", "count"),
        ("parallel.mine_s", "s"),
        ("parallel.overhead_s", "s"),
        ("parallel.iterations", "count"),
        ("parallel.partitions", "count"),
        ("parallel.bytes_moved", "bytes"),
        ("rules.generate_s", "s"),
        ("rules.count", "count"),
        ("serialize.bytes", "bytes"),
        ("query.parse_s", "s"),
        ("query.plan_s", "s"),
        ("query.run_s", "s"),
        ("serve.handle_s", "s"),
        ("serve.queue_wait_s", "s"),
        ("serve.http_s", "s"),
        ("serve.rejected", "count"),
        ("serve.timed_out", "count"),
        ("incremental.refresh_s", "s"),
        ("incremental.recount_fraction", "ratio"),
        ("incremental.delta_rows", "count"),
        ("incremental.base_rows_rescanned", "count"),
    ]
)


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def _duration(span) -> float:
    return (span["end"] - span["start"]) / 1e9


def _clipped(spans: list[dict], op: dict) -> list[dict]:
    """``spans`` cut to the op's own start and end.

    A server thread can still be inside its HTTP handler when the
    client has read the whole reply; that tail is not part of the
    caller's wait, so an op's breakdown leaves it out.
    """
    clipped = []
    for span in spans:
        start = min(max(span["start"], op["start"]), op["end"])
        end = max(min(span["end"], op["end"]), start)
        clipped.append(dict(span, start=start, end=end))
    return clipped


def summarize(ops: list[dict], spans: list[dict], exact: dict,
              overhead_ratio: float, queue: dict | None = None) -> dict:
    """Every per-layer metric, as ``{name: value}``.

    ``ops`` are the traced ops, each with ``wall_s`` and the ``spans``
    recorded inside it; ``spans`` are all spans of the traced run,
    including those of set-up (server start, library decode).
    """
    own = self_times(spans)
    values: dict[str, float] = {name: 0.0 for name, _ in PER_LAYER}

    def named(name):
        return [span for span in spans if span["name"] == name]

    # Per op: self times of the op's spans plus the part no span covers
    # give the op's wall time.
    per_layer = {layer: [] for layer in LAYERS}
    unattributed = []
    inconsistent = 0
    for op in ops:
        spans_in_op = _clipped(op["spans"], op)
        op_self = self_times(spans_in_op)
        totals = {layer: 0.0 for layer in LAYERS}
        for span in spans_in_op:
            totals[layer_of(span["name"])] += op_self[span["id"]]
        covered = sum(_duration(span) for span in roots(spans_in_op))
        gap = op["wall_s"] - covered
        unattributed.append(gap)
        # Tolerance for the op's wall time, measured as a float.
        inconsistent += (gap < -1e-6
                         or any(value < 0 for value in op_self.values()))
        for layer, total in totals.items():
            per_layer[layer].append(total)
    values["trace.op_wall_s"] = _mean(op["wall_s"] for op in ops)
    values["trace.unattributed_s"] = _mean(unattributed)
    values["trace.inconsistent_ops"] = inconsistent
    values["trace.overhead_ratio"] = overhead_ratio
    for layer in LAYERS:
        values[f"{layer}.op_self_s"] = _mean(per_layer[layer])

    for metric, span_name in (
        ("cli.import_s", "cli.import"),
        ("data.decode_s", "data.decode"),
        ("data.stream_encode_s", "data.stream_encode"),
        ("data.append_s", "data.append"),
        ("core.mine_s", "core.run"),
        ("parallel.mine_s", "parallel.run"),
        ("rules.generate_s", "rules.generate"),
        ("query.parse_s", "query.parse"),
        ("query.plan_s", "query.plan"),
        ("serve.handle_s", "serve.handle"),
        ("incremental.refresh_s", "incremental.run"),
    ):
        values[metric] = _mean(own[span["id"]] for span in named(span_name))

    decodes = named("data.decode")
    decode_time = sum(_duration(span) for span in decodes)
    if decode_time:
        values["data.decode_rows_per_s"] = (
            sum(span["attrs"].get("rows", 0) for span in decodes) / decode_time
        )

    lookups = named("miner.frequent_itemsets")
    misses = [span for span in lookups if not span["attrs"].get("hit")]
    values["miner.mine_s"] = _mean(own[span["id"]] for span in misses)
    if misses:
        values["miner.subsumable_miss_ratio"] = sum(
            bool(span["attrs"].get("subsumable")) for span in misses
        ) / len(misses)

    kernel = named("core.run")
    iterations = [span["attrs"].get("iterations", []) for span in kernel]
    for k in (1, 2, 3, 4):
        values[f"core.iter_s.k{k}"] = _mean(
            sum(it["seconds"] or 0.0 for it in run if it["k"] == k)
            for run in iterations
        )
    values["core.iter_s.k5plus"] = _mean(
        sum(it["seconds"] or 0.0 for it in run if it["k"] >= 5)
        for run in iterations
    )
    candidates = sum(it["candidate"] for run in iterations for it in run)
    supported = sum(it["supported"] for run in iterations for it in run)
    seconds = sum(it["seconds"] or 0.0 for run in iterations for it in run)
    values["core.supported_rows"] = _mean(
        sum(it["supported"] for it in run) for run in iterations
    )
    if candidates:
        values["core.useful_ratio"] = supported / candidates
    if seconds:
        values["core.candidate_rows_per_s"] = candidates / seconds
    values["core.bigkey_s"] = _mean(
        sum(it["seconds"] or 0.0 for it in run if it["bigkey"])
        for run in iterations
    )
    values["core.bigkey_rows"] = _mean(
        sum(it["candidate"] for it in run if it["bigkey"])
        for run in iterations
    )

    pooled = named("parallel.run")
    if pooled and kernel:
        values["parallel.overhead_s"] = (
            _mean(_duration(span) for span in pooled)
            - _mean(_duration(span) for span in kernel)
        )
    for metric, attr in (("parallel.iterations", "parallel_iterations"),
                         ("parallel.partitions", "partitions"),
                         ("parallel.bytes_moved", "bytes_moved")):
        values[metric] = _mean(span["attrs"].get(attr, 0) for span in pooled)

    values["serialize.bytes"] = _mean(
        sum(span["attrs"].get("bytes", 0) for span in op["spans"]
            if span["name"] == "serialize.json")
        for op in ops
    )

    served = [op for op in ops if any(s["name"] == "serve.handle"
                                      for s in op["spans"])]
    values["serve.http_s"] = _mean(
        op["wall_s"] - sum(_duration(s) for s in op["spans"]
                           if s["name"] == "serve.handle")
        for op in served
    )
    values["serve.queue_wait_s"] = _mean(
        _duration(span) for span in named("serve.queue_wait")
    )
    values["query.run_s"] = _mean(
        sum(_duration(s) for s in op["spans"] if s["name"] == "serve.execute")
        for op in served if op["op"] in ("query", "read_after_write")
    )
    if queue is not None:
        values["serve.rejected"] = queue["rejected"]
        values["serve.timed_out"] = queue["timed_out"]

    deltas = [span["attrs"]["incremental"] for span in named("incremental.run")
              if (span["attrs"].get("incremental") or {}).get("mode") == "delta"]
    values["incremental.delta_rows"] = _mean(d["delta_rows"] for d in deltas)
    values["incremental.base_rows_rescanned"] = _mean(
        d["base_rows_rescanned"] for d in deltas
    )

    if lookups:
        values["miner.cache_hit_ratio"] = sum(
            bool(span["attrs"].get("hit")) for span in lookups
        ) / len(lookups)
    for name in EXACT:
        if name in exact:
            values[name] = exact[name]
    return values
