"""The traced in-process replay behind the per-layer metrics.

Spans are recorded from this file, around calls into each layer's public
functions: the program itself carries no tracing.  The replay assembles the
same stack the server runs — engine (with its backend and result cache) →
``QueryServer`` → ``TCPQueryServer.serve_request`` → the ``protocol`` or
``http`` codecs — without opening a socket, and sends one request at a time,
so spans nest strictly and the counts repeat exactly from run to run.

A span is ``[name, start, end, parent, request]``; its name is the layer's
module path plus the call (``engine.cache.get``).  A layer's self time is its
span's duration minus the part of that interval its children cover, so the
self times of all spans of a request add up to its root span.

The same requests are first replayed through an uninstrumented stack on a
second fresh store; the harness takes the tracing overhead from the two wall
times.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import time
from collections import defaultdict
from pathlib import Path
from threading import local

from loadrun import encode_request
from workloads import K

from repro.datasets.imdb import build_imdb
from repro.db.backends import sql as sqlc
from repro.db.index import InvertedIndex
from repro.db.stats import StatisticsCatalog
from repro.engine import EngineConfig, QueryEngine, ResultCache
from repro.net import protocol
from repro.net.http import HTTPRequestParser, encode_response
from repro.net.listener import TCPQueryServer, TCPServerConfig
from repro.server import QueryServer

_NO_SPAN = contextlib.nullcontext()

#: Span name of each pipeline stage, by the layer that does the stage's work.
_STAGE_SPANS = {
    "segment": "core.keywords.segment",
    "generate": "core.generator.generate",
    "rank": "core.probability.rank",
    "execute": "core.topk.execute",
}

_BACKEND_LAYERS = {
    "memory": "db.backends.memory",
    "sqlite": "db.backends.sqlite",
    "sqlite-sharded": "db.backends.sharded",
}


class _Span:
    __slots__ = ("_tracer", "_record")

    def __init__(self, tracer: "Tracer", record: list):
        self._tracer, self._record = tracer, record

    def __enter__(self) -> list:
        self._tracer._stack().append(self._record)
        self._record[1] = time.perf_counter()
        return self._record

    def __exit__(self, *exc_info: object) -> None:
        self._record[2] = time.perf_counter()
        self._tracer._stack().pop()


class Tracer:
    """In-memory span recorder; ``enabled`` off makes every span a no-op."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.spans: list[list] = []
        #: Engine contexts of the traced requests (their stage timings and
        #: executor statistics are the layer counts).
        self.contexts: list = []
        self.request = -1
        #: The span a thread with no open span adopts as parent: the event
        #: loop parks the pool-hop span here while a worker thread runs the
        #: engine.
        self.anchor: list | None = None
        self._local = local()

    def _stack(self) -> list:
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    def span(self, name: str):
        if not self.enabled:
            return _NO_SPAN
        stack = self._stack()
        record = [name, 0.0, 0.0, stack[-1] if stack else self.anchor, self.request]
        self.spans.append(record)
        return _Span(self, record)

    def root(self, request: int):
        self.request = request
        return self.span("request")

    def wrap(self, name: str, function):
        def traced(*args, **kwargs):
            with self.span(name):
                return function(*args, **kwargs)

        return traced


# -- instrumenting one stack ------------------------------------------------------


class _TracedStage:
    def __init__(self, tracer: Tracer, stage):
        self.name = stage.name
        self._tracer, self._stage = tracer, stage
        self._span = _STAGE_SPANS[stage.name]

    def run(self, engine, context) -> None:
        with self._tracer.span(self._span):
            self._stage.run(engine, context)


class _TracedStream:
    """A ``RowStream`` whose pulls (and close) are spans of the backend."""

    def __init__(self, tracer: Tracer, name: str, stream):
        self._tracer, self._name, self._stream = tracer, name, stream

    def __iter__(self):
        return self

    def __next__(self):
        with self._tracer.span(self._name):
            return next(self._stream)

    def close(self) -> None:
        with self._tracer.span(self._name):
            self._stream.close()


def instrument_planner(tracer: Tracer) -> None:
    """Process-wide: spans around batch planning and statement compilation.

    The sharded backend compiles through per-shard compilers it keeps to
    itself, so the compiler is wrapped at the class, which covers every
    instance.
    """
    sqlc.plan_batch = tracer.wrap("db.backends.sql.plan", sqlc.plan_batch)
    for method in ("compile_path", "compile_union"):
        setattr(
            sqlc.PlanCompiler,
            method,
            tracer.wrap("db.backends.sql.compile", getattr(sqlc.PlanCompiler, method)),
        )


def instrument_engine(engine: QueryEngine, tracer: Tracer) -> None:
    backend, cache = engine.backend, engine.cache
    layer = _BACKEND_LAYERS[backend.name]
    backend.execute_paths_batched = tracer.wrap(
        f"{layer}.execute", backend.execute_paths_batched
    )
    open_stream = backend.execute_paths_streamed

    def traced_streamed(specs, limit=None):
        with tracer.span(f"{layer}.execute"):
            execution = open_stream(specs, limit=limit)
        execution.stream = _TracedStream(tracer, f"{layer}.fetch", execution.stream)
        return execution

    backend.execute_paths_streamed = traced_streamed
    if cache is not None:
        for call in ("get", "put", "flush"):
            setattr(cache, call, tracer.wrap(f"engine.cache.{call}", getattr(cache, call)))
    engine.stages = [_TracedStage(tracer, stage) for stage in engine.stages]
    run = engine.run

    def traced_run(query, k=None, explain=False):
        with tracer.span("engine.run"):
            context = run(query, k=k, explain=explain)
        if tracer.enabled:
            tracer.contexts.append(context)
        return context

    engine.run = traced_run


def instrument_pool_hop(tcp: TCPQueryServer, tracer: Tracer) -> None:
    submit = tcp.frontend.query

    async def traced_query(*args, **kwargs):
        with tracer.span("server.pool_hop") as record:
            tracer.anchor = record
            try:
                return await submit(*args, **kwargs)
            finally:
                tracer.anchor = None

    tcp.frontend.query = traced_query


# -- building and replaying one stack --------------------------------------------


@contextlib.contextmanager
def _timed_classmethod(owner: type, name: str, sink: dict, key: str):
    """Add the time spent in ``owner.name`` to ``sink[key]`` while active."""
    descriptor, bound = owner.__dict__[name], getattr(owner, name)

    def timed(*args, **kwargs):
        started = time.perf_counter()
        try:
            return bound(*args, **kwargs)
        finally:
            sink[key] += time.perf_counter() - started

    setattr(owner, name, staticmethod(timed))
    try:
        yield
    finally:
        setattr(owner, name, descriptor)


class Stack:
    """The program's serving stack over one fresh store, sockets left out."""

    def __init__(self, spec: dict, store_dir: Path, tracer: Tracer | None):
        self.spec, self.store_dir = spec, store_dir
        self.timings = defaultdict(float)
        storage = dict(
            backend=spec["backend"],
            db_path=str(store_dir / "store.sqlite") if spec["db_path"] else None,
            shards=spec["shards"],
        )
        started = time.perf_counter()
        backend = build_imdb(**storage, **spec["sizes"])
        self.timings["datasets.build_s"] = time.perf_counter() - started
        if spec["reopen"]:
            backend.close()
            started = time.perf_counter()
            with _timed_classmethod(
                InvertedIndex, "restore", self.timings, "db.index.load_s"
            ), _timed_classmethod(
                StatisticsCatalog, "restore", self.timings, "db.stats.load_s"
            ):
                backend = build_imdb(**storage, **spec["sizes"])
            self.timings["datasets.reopen_s"] = time.perf_counter() - started
        config = EngineConfig(
            cache_results=spec["cache_results"], result_cache_size=spec["cache_size"]
        )
        cache = (
            ResultCache(backend, capacity=spec["cache_size"])
            if spec["cache_results"]
            else None
        )
        self.engine = QueryEngine(backend, config=config, cache=cache)
        self.server = QueryServer(
            engine_config=config, engine_factory=lambda *_key: self.engine
        )
        self.tcp = TCPQueryServer(
            self.server, TCPServerConfig(dataset="imdb", k=K, **storage)
        )
        if tracer is not None:
            instrument_engine(self.engine, tracer)
            instrument_pool_hop(self.tcp, tracer)

    def store_bytes(self) -> int:
        return sum(f.stat().st_size for f in self.store_dir.iterdir() if f.is_file())

    def close(self) -> None:
        self.server.close()
        self.engine.backend.close()


async def _serve_bytes(stack: Stack, transport: str, decoder, data: bytes, tracer: Tracer):
    """One request's bytes to its response, through the real codecs.

    ``decoder`` is the connection's framing state: an ``HTTPRequestParser``
    or a ``LineSplitter``, as the listener keeps one per connection.
    """
    if transport == "http":
        with tracer.span("net.http.decode"):
            (request,) = decoder.feed(data)
        body = request.body
    else:
        with tracer.span("net.protocol.decode"):
            (body,) = decoder.feed(data)
    with tracer.span("net.protocol.decode"):
        parsed = protocol.parse_request(body)
    with tracer.span("net.listener.serve_request"):
        payload = await stack.tcp.serve_request(parsed)
    if transport == "http":
        with tracer.span("net.http.encode"):
            return payload, encode_response(200, payload)
    with tracer.span("net.protocol.encode"):
        return payload, protocol.encode_line(payload)


def replay(stack: Stack, transport: str, queries: list[str], tracer: Tracer):
    """Send ``queries`` one at a time; ``(payloads, response bytes, wall s)``."""
    payloads: list[dict] = []
    response_bytes = 0

    def lib_request(query: str) -> dict:
        context = stack.engine.run(query, k=K)
        return {
            "ok": True,
            "rows": [[list(uid) for uid in r.row_uids()] for r in context.results],
            "scores": [r.score for r in context.results],
        }

    async def run() -> float:
        nonlocal response_bytes
        decoder = HTTPRequestParser() if transport == "http" else protocol.LineSplitter()
        started = time.perf_counter()
        for index, query in enumerate(queries):
            with tracer.root(index):
                if transport == "lib":
                    payloads.append(lib_request(query))
                else:
                    payload, encoded = await _serve_bytes(
                        stack, transport, decoder, encode_request(transport, query), tracer
                    )
                    payloads.append(payload)
                    response_bytes += len(encoded)
        return time.perf_counter() - started

    wall = asyncio.run(run())
    return payloads, response_bytes, wall


# -- from spans to layer metrics ---------------------------------------------------


def self_times(spans: list[list]) -> dict[str, float]:
    """Total self seconds per span name."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for _name, start, end, parent, _request in spans:
        if parent is not None:
            children[id(parent)].append((start, end))
    totals: dict[str, float] = defaultdict(float)
    for span in spans:
        name, start, end = span[0], span[1], span[2]
        covered, reached = 0.0, start
        for child_start, child_end in sorted(children.get(id(span), ())):
            child_start, child_end = max(child_start, reached), min(child_end, end)
            if child_end > child_start:
                covered += child_end - child_start
                reached = child_end
        totals[name] += (end - start) - covered
    return totals


def write_spans(spans: list[list], path: Path) -> None:
    index = {id(span): position for position, span in enumerate(spans)}
    with open(path, "w", encoding="utf-8") as out:
        for position, (name, start, end, parent, request) in enumerate(spans):
            out.write(
                json.dumps(
                    {
                        "id": position,
                        "name": name,
                        "start": start,
                        "end": end,
                        "parent": None if parent is None else index[id(parent)],
                        "request": request,
                    }
                )
                + "\n"
            )


def layer_metrics(
    tracer: Tracer, stack: Stack, requests: int, response_bytes: int
) -> dict[str, float]:
    """Per-request means of layer self time and work counts."""
    selfs = self_times(tracer.spans)
    puts = sum(1 for span in tracer.spans if span[0] == "engine.cache.put")
    roots = sum(s[2] - s[1] for s in tracer.spans if s[0] == "request")

    def us(*names: str) -> float:
        return sum(selfs.get(name, 0.0) for name in names) / requests * 1e6

    statistics = [context.executor_statistics for context in tracer.contexts]

    def mean(values) -> float:
        return sum(values) / requests

    hits = sum(s.cache_hits for s in statistics)
    misses = sum(s.cache_misses for s in statistics)
    shard_rows: dict[int, int] = defaultdict(int)
    for s in statistics:
        for shard, rows in s.shard_rows.items():
            shard_rows[shard] += rows
    results = sum(len(context.results) for context in tracer.contexts)
    sharded = stack.spec["backend"] == "sqlite-sharded"
    metrics = {
        "net.http.decode_us": us("net.http.decode"),
        "net.http.encode_us": us("net.http.encode"),
        "net.protocol.decode_us": us("net.protocol.decode"),
        "net.protocol.encode_us": us("net.protocol.encode"),
        "net.protocol.response_bytes": response_bytes / requests,
        "net.listener.admission_us": us("net.listener.serve_request"),
        "server.pool_hop_us": us("server.pool_hop"),
        "engine.run_self_us": us("engine.run"),
        "core.keywords.segment_us": us("core.keywords.segment"),
        "core.generator.generate_us": us("core.generator.generate"),
        "core.generator.interpretations": mean(
            len(c.interpretations) for c in tracer.contexts
        ),
        "core.probability.rank_us": us("core.probability.rank"),
        "core.topk.execute_self_us": us("core.topk.execute"),
        "core.topk.interpretations_executed": mean(
            s.interpretations_executed for s in statistics
        ),
        "core.topk.stopped_early_share": mean(s.stopped_early for s in statistics),
        "core.topk.rows_streamed": mean(s.rows_streamed for s in statistics),
        "core.topk.rows_short_circuited": mean(
            s.rows_short_circuited for s in statistics
        ),
        "engine.cache.hit_share": hits / (hits + misses) if hits + misses else 0.0,
        "engine.cache.get_us": us("engine.cache.get"),
        "engine.cache.put_us": us("engine.cache.put"),
        "engine.cache.flush_us": us("engine.cache.flush"),
        "engine.cache.stores": puts / requests,
        "db.backends.sql.plan_us": us("db.backends.sql.plan"),
        "db.backends.sql.compile_us": us("db.backends.sql.compile"),
        "db.backends.sql.statements": mean(s.sql_statements for s in statistics),
        "db.backends.sql.fallbacks": mean(len(s.fallback_reasons) for s in statistics),
        "db.backends.sqlite.execute_us": us(
            "db.backends.sqlite.execute", "db.backends.sqlite.fetch"
        ),
        "db.backends.sqlite.read_pool_leases": mean(
            s.read_pool.get("leases", 0) for s in statistics
        ),
        "db.backends.sqlite.read_pool_waits": mean(
            s.read_pool.get("waits", 0) for s in statistics
        ),
        "db.backends.sqlite.rows_per_result": (
            sum(s.rows_streamed for s in statistics) / results if results else 0.0
        ),
        "db.backends.sharded.execute_us": us(
            "db.backends.sharded.execute", "db.backends.sharded.fetch"
        ),
        "db.backends.sharded.statements": (
            mean(s.sql_statements for s in statistics) if sharded else 0.0
        ),
        "db.backends.sharded.shard_skew": (
            max(shard_rows.values()) / sum(shard_rows.values()) if shard_rows else 0.0
        ),
        "db.backends.memory.execute_us": us(
            "db.backends.memory.execute", "db.backends.memory.fetch"
        ),
        "datasets.build_s": stack.timings["datasets.build_s"],
        "datasets.reopen_s": stack.timings["datasets.reopen_s"],
        "db.index.load_s": stack.timings["db.index.load_s"],
        "db.stats.load_s": stack.timings["db.stats.load_s"],
        "datasets.store_bytes": float(stack.store_bytes()),
        "trace.requests": float(requests),
        "trace.unattributed_share": selfs.get("request", 0.0) / roots,
    }
    # Every span is some layer's, so the layers' self times must add up to the
    # root spans; a gap means a span escaped its request.
    accounted = sum(selfs.values())
    if abs(accounted - roots) > 0.001 * roots:
        raise RuntimeError(f"self times {accounted:.6f} s != root spans {roots:.6f} s")
    return metrics


def run_traced_replay(spec: dict) -> dict:
    """The ``child.py trace`` job: untraced pass, traced pass, metrics."""
    work_dir, transport = Path(spec["work_dir"]), spec["transport"]
    queries, prewarm = spec["requests"], spec["prewarm"]
    walls: dict[str, float] = {}
    #: ``time.monotonic()`` span of each pass, set-up included: the harness
    #: divides durations by the machine's slowdown over the pass they are from.
    spans: dict[str, tuple[float, float]] = {}
    for label in ("untraced", "traced"):
        traced = label == "traced"
        pass_started = time.monotonic()
        tracer = Tracer(enabled=False)
        if traced:
            instrument_planner(tracer)
        store_dir = work_dir / label
        store_dir.mkdir()
        # Both passes must start cold: the process-level result cache is
        # keyed by store content, which the two stores share.
        ResultCache.clear_process_cache()
        stack = Stack(spec, store_dir, tracer if traced else None)
        try:
            replay(stack, transport, prewarm, tracer)
            tracer.enabled = traced
            payloads, response_bytes, walls[label] = replay(
                stack, transport, queries, tracer
            )
            if traced:
                metrics = layer_metrics(tracer, stack, len(queries), response_bytes)
        finally:
            stack.close()
        spans[label] = (pass_started, time.monotonic())
    write_spans(tracer.spans, Path(spec["out"]) / f"spans-{spec['name']}.jsonl")
    return {"metrics": metrics, "payloads": payloads, "walls": walls, "spans": spans}
