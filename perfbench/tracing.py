"""In-memory spans recorded by the benchmark's own wrappers.

A :class:`Tracer` keeps every span in a list: name, start, end, parent
span and request id.  :func:`install_wrappers` replaces public entry
points of the ``repro`` package with thin wrappers that open a span
around each call, so the program itself is never edited.  Spans are
written out as Chrome trace-event JSON (open the file in Perfetto or
``chrome://tracing``) and summarised into per-layer self times.

All timestamps come from ``time.perf_counter_ns()``, which on Linux
reads ``CLOCK_MONOTONIC``: spans recorded in the benchmark process and in its
child processes share one time base and can be merged.

The layer of a span is the part of its name before the first dot
(``data.decode`` belongs to ``data``).  A span's self time is its
duration minus the time its child spans cover.
"""

from __future__ import annotations

import contextvars
import functools
import json
import os
import threading
import time
import weakref
from collections import OrderedDict
from pathlib import Path

LAYERS = (
    "cli", "data", "miner", "core", "parallel", "rules", "serialize",
    "query", "serve", "incremental",
)

_current: contextvars.ContextVar[int | None] = contextvars.ContextVar(
    "perfbench_span", default=None
)


class Tracer:
    """Collects spans in memory; ``enabled`` switches recording off."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.enabled = True
        self._lock = threading.Lock()
        self._next_id = 1

    def _new_id(self) -> int:
        # Unique across processes too: spans of the benchmark and of its
        # children are merged into one trace.
        with self._lock:
            span_id = os.getpid() * 1_000_000 + self._next_id
            self._next_id += 1
        return span_id

    def begin(self, name: str, parent: int | None = None) -> dict:
        span = {
            "id": self._new_id(),
            "name": name,
            "parent": _current.get() if parent is None else parent,
            "pid": os.getpid(),
            "tid": threading.get_ident(),
            "start": time.perf_counter_ns(),
            "end": None,
            "rid": None,
            "attrs": {},
        }
        return span

    def end(self, span: dict) -> None:
        span["end"] = time.perf_counter_ns()
        with self._lock:
            self.spans.append(span)

    def call(self, name, fn, args, kwargs, parent=None, on_result=None):
        """Run ``fn(*args, **kwargs)`` inside a span named ``name``."""
        span = self.begin(name, parent)
        token = _current.set(span["id"])
        try:
            result = fn(*args, **kwargs)
            if on_result is not None:
                on_result(span, args, result)
            return result
        finally:
            _current.reset(token)
            self.end(span)

    def add(self, name: str, start: int, end: int, parent=None) -> None:
        """Record a span whose times were measured elsewhere."""
        span = {
            "id": self._new_id(), "name": name, "parent": parent,
            "pid": os.getpid(), "tid": threading.get_ident(),
            "start": start, "end": end, "rid": None, "attrs": {},
        }
        with self._lock:
            self.spans.append(span)

    def dump(self, path: str | os.PathLike) -> None:
        Path(path).write_text(json.dumps(self.spans), encoding="utf-8")


def wrap(tracer: Tracer, owner, attr: str, name, on_result=None) -> None:
    """Replace ``owner.attr`` by a wrapper recording a span per call.

    ``name`` is a span name, or a callable ``(args) -> name`` when the
    layer depends on the arguments (engine runs).
    """
    original = getattr(owner, attr)

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        if not tracer.enabled:
            return original(*args, **kwargs)
        span_name = name(args) if callable(name) else name
        return tracer.call(span_name, original, args, kwargs,
                           on_result=on_result)

    setattr(owner, attr, wrapper)


class _JsonProxy:
    """Stands in for the ``json`` module inside one program module, so
    the ``dump``/``dumps`` calls made there count as serialization."""

    def __init__(self, tracer: Tracer) -> None:
        self._tracer = tracer

    def __getattr__(self, attr):
        return getattr(json, attr)

    def dump(self, obj, fp, *args, **kwargs):
        if not self._tracer.enabled:
            return json.dump(obj, fp, *args, **kwargs)
        # One dumps + write in place of json.dump's chunked writes, so
        # the serialized size can be counted.
        text = self.dumps(obj, *args, **kwargs)
        fp.write(text)

    def dumps(self, obj, *args, **kwargs):
        if not self._tracer.enabled:
            return json.dumps(obj, *args, **kwargs)

        def count_bytes(span, _args, text):
            span["attrs"]["bytes"] = len(text)

        return self._tracer.call("serialize.json", json.dumps, (obj,) + args,
                                 kwargs, on_result=count_bytes)


def _engine_layer(args) -> str:
    spec = args[0]
    if spec.parallel:
        return "parallel.run"
    if spec.incremental:
        return "incremental.run"
    return "core.run"


def _record_result(span, _args, result) -> None:
    """Attach the counts and timings a ``MiningResult`` reports."""
    seconds = result.extra.get("iteration_seconds") or {}
    # The kernels pack a pattern in radix catalog + 1 and fall back to
    # Python integers when radix ** k does not fit a signed 64-bit int.
    base = len(result.unfiltered_item_counts) + 1
    iterations = [
        {
            "k": stats.k,
            "candidate": stats.candidate_instances,
            "supported": stats.supported_instances,
            "seconds": seconds.get(stats.k),
            "bigkey": base ** stats.k > 2**63 - 1,
        }
        for stats in result.iterations
    ]
    parallel = result.extra.get("parallel") or {}
    transport = result.extra.get("transport") or {}
    span["attrs"].update({
        "iterations": iterations,
        "parallel_iterations": len(parallel.get("parallel_iterations") or ()),
        "partitions": sum((parallel.get("partitions") or {}).values()),
        "bytes_moved": sum(
            value for key, value in transport.items()
            if key.endswith(("_bytes_inline", "_bytes_shared",
                             "_bytes_spooled"))
        ),
        "incremental": result.extra.get("incremental"),
    })


def _record_miner_lookup(tracer: Tracer, original):
    """``Miner.frequent_itemsets`` wrapper that marks hits and misses.

    A miss is *subsumable* when the same miner already holds a cached
    result of the same dataset generation, engine, length limit and
    options at a lower fractional support: the property a
    threshold-subsumption cache would need.  What a miner holds is
    followed from outside: the wrapper keeps its own LRU copy of each
    miner's cache, keyed from the public config and bounded by
    ``cache_info()["max_entries"]``, updated on every traced lookup.
    """
    held: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
    held_lock = threading.Lock()

    @functools.wraps(original)
    def wrapper(self, config=None, **overrides):
        if not tracer.enabled:
            return original(self, config, **overrides)
        resolved = config if config is not None else self.default_config
        if overrides:
            resolved = resolved.replace(**overrides)
        before = self.cache_info()["hits"]
        span = tracer.begin("miner.frequent_itemsets")
        token = _current.set(span["id"])
        try:
            result = original(self, config, **overrides)
        finally:
            _current.reset(token)
        info = self.cache_info()
        hit = info["hits"] > before
        span["attrs"]["hit"] = hit
        shape = (
            getattr(self.database, "generation", None),
            resolved.is_absolute_support, resolved.algorithm,
            resolved.max_length,
            tuple(sorted((k, repr(v)) for k, v in resolved.options.items())),
        )
        key = (shape, resolved.support)
        with held_lock:
            cache = held.setdefault(self, OrderedDict())
            if not hit:
                span["attrs"]["subsumable"] = (
                    not resolved.is_absolute_support
                    and any(other == shape and support < resolved.support
                            for other, support in cache)
                )
            cache[key] = None
            cache.move_to_end(key)
            while len(cache) > info["max_entries"]:
                cache.popitem(last=False)
        tracer.end(span)
        return result

    return wrapper


def install_wrappers(tracer: Tracer, *, serve: bool = False) -> None:
    """Wrap the public calls of every layer the benchmark measures.

    Only modules the traced command imports anyway are touched, so the
    wrappers add no imports of their own to a ``mine`` run; ``serve``
    adds the ingest, query and serve layers.
    """
    import repro.cli
    import repro.data.io
    import repro.miner
    import repro.registry

    def decoded_rows(span, _args, database):
        span["attrs"]["rows"] = database.num_sales_rows

    for module in (repro.cli, repro.data.io):
        wrap(tracer, module, "read_sales_csv", "data.decode", decoded_rows)

    miner = repro.miner.Miner
    miner.frequent_itemsets = _record_miner_lookup(
        tracer, miner.frequent_itemsets
    )
    wrap(tracer, miner, "rules", "miner.rules")
    wrap(tracer, miner, "mine_delta", "incremental.mine_delta")
    wrap(tracer, repro.registry.EngineSpec, "run", _engine_layer,
         _record_result)

    def rule_count(span, _args, rules):
        span["attrs"]["rules"] = len(rules)

    wrap(tracer, repro.miner, "generate_rules", "rules.generate", rule_count)
    repro.cli.json = _JsonProxy(tracer)
    if not serve:
        return

    import repro.data.ingest
    import repro.query
    import repro.query.parser
    import repro.serve.scheduler
    import repro.serve.server
    import repro.serve.service

    wrap(tracer, repro.data.ingest, "load_dataset", "data.stream_encode",
         decoded_rows)
    wrap(tracer, repro.data.ingest.EncodedDataset, "append_chunks",
         "data.append")
    wrap(tracer, repro.serve.service, "generate_rules", "rules.generate",
         rule_count)
    for attr in ("result_payload", "rules_payload"):
        wrap(tracer, repro.serve.service, attr, "serialize.payload")
    wrap(tracer, repro.query, "build_document", "serialize.payload")
    repro.serve.server.json = _JsonProxy(tracer)
    wrap(tracer, repro.query.parser, "parse_query", "query.parse")
    wrap(tracer, repro.query, "dataset_stats", "query.plan")
    wrap(tracer, repro.query, "plan_query", "query.plan")
    _wrap_serve(tracer, repro.serve.service.MiningService,
                repro.serve.scheduler.RequestScheduler,
                repro.serve.server.MiningServer)


def _wrap_serve(tracer: Tracer, service_cls, scheduler_cls, server_cls):
    """Spans for one HTTP request: transport, handle, queue wait, execute.

    The request id is ``<dataset>#<n>``: the n-th answered request for
    that dataset.  Each dataset has exactly one client thread, which
    counts its own requests the same way, so client and server spans of
    one request meet under one id without any change to the protocol.
    """
    handled: dict[str, int] = {}
    handled_lock = threading.Lock()

    original_init = server_cls.__init__

    @functools.wraps(original_init)
    def init(self, *args, **kwargs):
        # The handler class is reached through the server's public
        # ``RequestHandlerClass``; its ``do_POST`` is the transport span.
        original_init(self, *args, **kwargs)
        handler_cls = self.RequestHandlerClass
        if not getattr(handler_cls.do_POST, "perfbench_wrapped", False):
            wrap(tracer, handler_cls, "do_POST", "serve.http")
            handler_cls.do_POST.perfbench_wrapped = True

    server_cls.__init__ = init

    original_handle = service_cls.handle

    @functools.wraps(original_handle)
    def handle(self, payload):
        if not tracer.enabled:
            return original_handle(self, payload)
        span = tracer.begin("serve.handle")
        token = _current.set(span["id"])
        try:
            status, document = original_handle(self, payload)
        finally:
            _current.reset(token)
        dataset = document.get("dataset")
        if dataset is not None:
            with handled_lock:
                handled[dataset] = handled.get(dataset, 0) + 1
                span["rid"] = f"{dataset}#{handled[dataset]}"
        span["attrs"]["op"] = document.get("op")
        span["attrs"]["status"] = status
        tracer.end(span)
        return status, document

    service_cls.handle = handle

    original_submit = scheduler_cls.submit

    @functools.wraps(original_submit)
    def submit(self, fn, *args, **kwargs):
        if not tracer.enabled:
            return original_submit(self, fn, *args, **kwargs)
        parent = _current.get()
        queued = time.perf_counter_ns()

        def run():
            # Scheduler threads start with an empty context: the
            # submitting request's span is passed explicitly.
            started = time.perf_counter_ns()
            tracer.add("serve.queue_wait", queued, started, parent=parent)
            return tracer.call("serve.execute", fn, (), {}, parent=parent)

        return original_submit(self, run, *args, **kwargs)

    scheduler_cls.submit = submit


# -- summaries ----------------------------------------------------------------------

def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def self_times(spans: list[dict]) -> dict[int, float]:
    """Self time in seconds of every span, keyed by span id."""
    covered: dict[int, int] = {}
    for span in spans:
        parent = span["parent"]
        if parent is not None:
            covered[parent] = covered.get(parent, 0) + (
                span["end"] - span["start"]
            )
    return {
        span["id"]: (span["end"] - span["start"] - covered.get(span["id"], 0))
        / 1e9
        for span in spans
    }


def roots(spans: list[dict]) -> list[dict]:
    ids = {span["id"] for span in spans}
    return [span for span in spans if span["parent"] not in ids]


def resolve_request_ids(spans: list[dict]) -> None:
    """Give every span without a request id the id found among its
    descendants (an HTTP span learns it from its ``serve.handle``
    child), then the id of its nearest ancestor."""
    by_id = {span["id"]: span for span in spans}
    children: dict[int, list[dict]] = {}
    for span in spans:
        children.setdefault(span["parent"], []).append(span)
    for span in spans:
        stack = list(children.get(span["id"], ()))
        while span["rid"] is None and stack:
            child = stack.pop()
            span["rid"] = child["rid"]
            stack.extend(children.get(child["id"], ()))
    for span in spans:
        node = span
        while node is not None and node["rid"] is None:
            node = by_id.get(node["parent"])
        if node is not None:
            span["rid"] = node["rid"]


def write_chrome_trace(spans: list[dict], path: str | os.PathLike) -> None:
    """Chrome trace-event JSON: one complete ("X") event per span."""
    events = [
        {
            "name": span["name"],
            "cat": layer_of(span["name"]),
            "ph": "X",
            "ts": span["start"] / 1e3,
            "dur": (span["end"] - span["start"]) / 1e3,
            "pid": span["pid"],
            "tid": span["tid"],
            "args": {
                "id": span["id"], "parent": span["parent"],
                "rid": span["rid"], **span["attrs"],
            },
        }
        for span in spans
    ]
    Path(path).write_text(
        json.dumps({"traceEvents": events, "displayTimeUnit": "ms"}),
        encoding="utf-8",
    )
