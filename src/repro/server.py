"""Concurrent query serving: an engine pool behind a thread pool.

:class:`QueryServer` is the serving layer the engine seam was built for: it
pools one :class:`~repro.engine.QueryEngine` per ``(dataset, backend,
db_path)`` triple and fans concurrent keyword queries across a worker thread
pool.  Isolation falls out of the engine design — every query gets its own
:class:`~repro.engine.EngineContext`, stages are stateless, and the shared
layers (the SQLite connection, the cross-session result cache) serialize
internally — so concurrent queries return exactly what sequential queries
would.

Typical use::

    with QueryServer(max_workers=8) as server:
        response = server.query("imdb", "hanks 2001", k=5)     # synchronous
        futures = [server.submit("imdb", text) for text in texts]
        for future in futures: future.result()                 # concurrent

``benchmark_serve`` is the synthetic workload driver behind ``repro
bench-serve``: N client threads replay store-derived keyword queries against
one server, every response is verified against sequentially computed expected
rows, and the report carries throughput plus p50/p95 latency.
"""

from __future__ import annotations

import random
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence

from repro.engine import EngineConfig, EngineContext, QueryEngine

#: One pooled engine: ``(dataset, backend name, resolved db path or None,
#: shard count or None)``.  The shard count is part of the key because two
#: sharded layouts of one dataset are two distinct physical stores (each
#: with its own partitions, scatter connections and fan-out pool).
EngineKey = tuple[str, str, str | None, int | None]

#: Builds the engine of one pool slot: ``(dataset, backend, db_path, shards,
#: engine_config) -> QueryEngine``.  The default goes through
#: ``QueryEngine.for_dataset``; tests and embedders swap in pre-built or
#: pre-warmed engines.
EngineFactory = Callable[
    [str, str, "str | Path | None", int | None, EngineConfig | None], QueryEngine
]


def _default_engine_factory(
    dataset: str,
    backend: str,
    db_path: "str | Path | None",
    shards: int | None,
    config: EngineConfig | None,
) -> QueryEngine:
    kwargs = {} if config is None else {"config": config}
    return QueryEngine.for_dataset(
        dataset, backend=backend, db_path=db_path, shards=shards, **kwargs
    )


@dataclass(frozen=True)
class QueryResponse:
    """One served query: its isolated context plus serving bookkeeping."""

    dataset: str
    query: str
    context: EngineContext
    #: Wall-clock seconds inside the engine (excludes queue wait).
    seconds: float
    #: Name of the worker thread that served the query.
    worker: str

    @property
    def results(self):
        return self.context.results

    def result_uids(self) -> list[tuple]:
        """Row identities, the comparable essence of the result list."""
        return [result.row_uids() for result in self.context.results]


class QueryServer:
    """Shared engines, per-query contexts, a bounded worker pool.

    Engines are created lazily on first use of a ``(dataset, backend,
    db_path)`` combination and reused for every later query on it; the
    result cache inside each engine is therefore shared across all
    concurrent queries of that dataset — by design (that *is* the cache) and
    safely (the cache's process layer and the SQLite connection are
    lock-guarded; contexts never are shared).
    """

    def __init__(
        self,
        max_workers: int = 8,
        *,
        engine_config: EngineConfig | None = None,
        engine_factory: EngineFactory | None = None,
    ):
        if max_workers < 1:
            raise ValueError("max_workers must be positive")
        self.max_workers = max_workers
        self.engine_config = engine_config
        self._engine_factory = engine_factory or _default_engine_factory
        self._engines: dict[EngineKey, QueryEngine] = {}
        self._engines_lock = threading.Lock()
        #: Per-key construction locks: building a dataset takes seconds and
        #: must not stall queries on already-pooled engines.
        self._building: dict[EngineKey, threading.Lock] = {}
        self._pool = ThreadPoolExecutor(
            max_workers=max_workers, thread_name_prefix="repro-serve"
        )
        self._closed = False

    # -- engine pool --------------------------------------------------------

    def engine_for(
        self,
        dataset: str,
        backend: str = "memory",
        db_path: "str | Path | None" = None,
        shards: int | None = None,
    ) -> QueryEngine:
        """The pooled engine of one (dataset, backend, db_path, shards).

        Construction happens outside the pool lock, serialized per key: two
        first queries on one key build once, while queries on other (already
        built) keys are never blocked by a slow dataset build.  The shard
        count normalizes through the backend registry, so an unspecified
        count and an explicit default-count request share one engine.
        """
        from repro.db.backends import resolve_shard_layout

        shards = resolve_shard_layout(backend, shards)
        key: EngineKey = (
            dataset,
            backend,
            str(db_path) if db_path else None,
            shards,
        )
        with self._engines_lock:
            engine = self._engines.get(key)
            if engine is not None:
                return engine
            key_lock = self._building.setdefault(key, threading.Lock())
        with key_lock:
            try:
                with self._engines_lock:
                    engine = self._engines.get(key)
                    if engine is not None:
                        return engine
                engine = self._engine_factory(
                    dataset, backend, db_path, shards, self.engine_config
                )
                with self._engines_lock:
                    self._engines[key] = engine
                return engine
            finally:
                # Also on factory failure: a key whose build raised (bad
                # path, unknown dataset) must not leave its construction
                # lock behind forever.
                with self._engines_lock:
                    self._building.pop(key, None)

    @property
    def pooled_engines(self) -> int:
        with self._engines_lock:
            return len(self._engines)

    def memo_counters(self) -> dict[str, int]:
        """Front-half memo activity summed over the pooled engines."""
        with self._engines_lock:
            memos = [e.memo for e in self._engines.values() if e.memo is not None]
        return {
            "memo_hits": sum(memo.hits for memo in memos),
            "memo_misses": sum(memo.misses for memo in memos),
            "memo_resident_interpretations": sum(memo.resident for memo in memos),
        }

    # -- serving ------------------------------------------------------------

    def submit(
        self,
        dataset: str,
        query: str,
        k: int | None = None,
        *,
        backend: str = "memory",
        db_path: "str | Path | None" = None,
        shards: int | None = None,
    ) -> "Future[QueryResponse]":
        """Enqueue one keyword query; resolves to a :class:`QueryResponse`."""
        if self._closed:
            raise RuntimeError("QueryServer is closed")
        engine = self.engine_for(
            dataset, backend=backend, db_path=db_path, shards=shards
        )
        return self._pool.submit(self._serve, engine, dataset, query, k)

    def query(
        self,
        dataset: str,
        query: str,
        k: int | None = None,
        *,
        backend: str = "memory",
        db_path: "str | Path | None" = None,
        shards: int | None = None,
    ) -> QueryResponse:
        """Synchronous convenience over :meth:`submit`."""
        return self.submit(
            dataset, query, k, backend=backend, db_path=db_path, shards=shards
        ).result()

    @staticmethod
    def _serve(
        engine: QueryEngine, dataset: str, query: str, k: int | None
    ) -> QueryResponse:
        started = time.perf_counter()
        context = engine.run(query, k=k)
        return QueryResponse(
            dataset=dataset,
            query=str(query),
            context=context,
            seconds=time.perf_counter() - started,
            worker=threading.current_thread().name,
        )

    # -- lifecycle ----------------------------------------------------------

    def close(self) -> None:
        """Drain the worker pool, then close every pooled engine's backend."""
        if self._closed:
            return
        self._closed = True
        self._pool.shutdown(wait=True)
        with self._engines_lock:
            engines, self._engines = list(self._engines.values()), {}
        for engine in engines:
            engine.backend.close()

    def __enter__(self) -> "QueryServer":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


# -- asyncio front end --------------------------------------------------------


class AsyncQueryFrontend:
    """An asyncio face over a :class:`QueryServer`'s engine pool.

    The engine pool and the worker threads underneath stay untouched —
    queries still execute on the pool's workers — but callers *await*
    responses instead of blocking on futures, so a single event loop can
    multiplex any number of slow clients (stalled sockets, drip-fed stdin)
    without pinning one worker thread per waiting client.  ``repro serve
    --async`` and the async ``bench-serve`` transport are built on this.
    """

    def __init__(self, server: QueryServer):
        self.server = server

    async def query(
        self,
        dataset: str,
        query: str,
        k: int | None = None,
        *,
        backend: str = "memory",
        db_path: "str | Path | None" = None,
        shards: int | None = None,
    ) -> QueryResponse:
        """Awaitable :meth:`QueryServer.query` (same pool, same isolation)."""
        import asyncio

        future = self.server.submit(
            dataset, query, k, backend=backend, db_path=db_path, shards=shards
        )
        return await asyncio.wrap_future(future)


# -- synthetic workload driver (repro bench-serve) ---------------------------


@dataclass
class BenchServeReport:
    """Outcome of one ``benchmark_serve`` run.

    ``seconds`` times the serve phase alone — submission through last
    response; result verification against the sequential expectation happens
    *after* the clock stops and reports its own ``verify_seconds``, so the
    throughput/latency numbers measure serving, not the bench harness.
    """

    dataset: str
    backend: str
    clients: int
    queries_per_client: int
    distinct_queries: int
    seconds: float
    #: Per-request engine latencies, sorted ascending.
    latencies: list[float] = field(default_factory=list)
    #: Requests whose rows differed from the sequential expectation.
    mismatches: int = 0
    #: How the clients drove the server: "threads" or "asyncio".
    transport: str = "threads"
    #: Wall-clock of the untimed post-run verification pass.
    verify_seconds: float = 0.0

    @property
    def total_queries(self) -> int:
        return self.clients * self.queries_per_client

    @property
    def throughput_qps(self) -> float:
        return self.total_queries / self.seconds if self.seconds else 0.0

    def latency_at(self, fraction: float) -> float:
        """Latency percentile (nearest-rank) over the run, in seconds."""
        if not self.latencies:
            return 0.0
        rank = min(len(self.latencies) - 1, int(fraction * len(self.latencies)))
        return self.latencies[rank]

    @property
    def ok(self) -> bool:
        return self.mismatches == 0

    def lines(self) -> list[str]:
        """The human-readable summary ``repro bench-serve`` prints."""
        return [
            f"dataset={self.dataset} backend={self.backend} "
            f"transport={self.transport} "
            f"clients={self.clients} queries/client={self.queries_per_client} "
            f"distinct={self.distinct_queries}",
            f"serve phase: {self.seconds:.3f} s   "
            f"throughput: {self.throughput_qps:.1f} q/s",
            f"latency: p50 {self.latency_at(0.50) * 1000:.2f} ms   "
            f"p95 {self.latency_at(0.95) * 1000:.2f} ms   "
            f"max {self.latency_at(1.0) * 1000:.2f} ms",
            "results: "
            + ("all verified against sequential execution"
               if self.ok
               else f"{self.mismatches} MISMATCH(ES) vs sequential execution")
            + f" (verification {self.verify_seconds * 1000:.1f} ms, untimed)",
        ]


def workload_texts(engine: QueryEngine, dataset: str, seed: int = 13) -> list[str]:
    """Store-derived keyword queries for one dataset (every one answerable)."""
    from repro.datasets.workload import WORKLOAD_SAMPLERS

    try:
        sampler = WORKLOAD_SAMPLERS[dataset]
    except KeyError:
        raise ValueError(
            f"no workload for dataset {dataset!r} "
            f"(use {' or '.join(sorted(WORKLOAD_SAMPLERS))})"
        ) from None
    sampled = sampler(engine.backend, n_queries=20, seed=seed)
    return [str(item.query) for item in sampled]


def benchmark_serve(
    dataset: str = "imdb",
    *,
    backend: str = "memory",
    db_path: "str | Path | None" = None,
    shards: int | None = None,
    clients: int = 8,
    queries_per_client: int = 25,
    k: int = 5,
    seed: int = 13,
    engine_config: EngineConfig | None = None,
    engine_factory: EngineFactory | None = None,
    texts: Sequence[str] | None = None,
    use_async: bool = False,
) -> BenchServeReport:
    """Drive one :class:`QueryServer` with ``clients`` concurrent clients.

    Each client replays ``queries_per_client`` queries sampled (with a
    per-client seed) from the store-derived workload — as threads by
    default, as asyncio tasks over :class:`AsyncQueryFrontend` with
    ``use_async`` (same per-client seeds, so both transports replay the
    identical workload).  Expected rows per distinct query are computed
    sequentially up front on the same engine; every response is verified
    against them *after* the timed serve phase, so ``mismatches`` stays 0 on
    a correct server and the clock measures serving alone.
    """
    from dataclasses import replace

    from repro.engine import ResultCache

    with QueryServer(
        max_workers=clients,
        engine_config=engine_config,
        engine_factory=engine_factory,
    ) as server:
        engine = server.engine_for(
            dataset, backend=backend, db_path=db_path, shards=shards
        )
        distinct = list(texts) if texts is not None else workload_texts(
            engine, dataset, seed=seed
        )
        # Expected rows come from a cache-free sibling engine and the process
        # cache starts the concurrent phase cold: the clients must *execute*
        # (concurrent SQL, cache fills under contention), not replay
        # answers the warm-up already parked in the shared cache — otherwise
        # the verification would only exercise the cache dictionary.
        reference = QueryEngine(
            engine.backend,
            generator=engine.generator,
            config=replace(engine.config, cache_results=False),
        )
        expected = {
            text: [result.row_uids() for result in reference.run(text, k=k).results]
            for text in distinct
        }
        ResultCache.clear_process_cache()

        storage = dict(backend=backend, db_path=db_path, shards=shards)

        def client(client_index: int) -> list[tuple[str, float, list[tuple]]]:
            rng = random.Random(f"{seed}/{client_index}")
            outcomes = []
            for _ in range(queries_per_client):
                text = rng.choice(distinct)
                response = server.query(dataset, text, k=k, **storage)
                outcomes.append((text, response.seconds, response.result_uids()))
            return outcomes

        async def drive_async() -> list[list[tuple[str, float, list[tuple]]]]:
            import asyncio

            frontend = AsyncQueryFrontend(server)

            async def async_client(client_index: int):
                rng = random.Random(f"{seed}/{client_index}")
                outcomes = []
                for _ in range(queries_per_client):
                    text = rng.choice(distinct)
                    response = await frontend.query(dataset, text, k=k, **storage)
                    outcomes.append(
                        (text, response.seconds, response.result_uids())
                    )
                return outcomes

            return list(
                await asyncio.gather(
                    *(async_client(index) for index in range(clients))
                )
            )

        started = time.perf_counter()
        if use_async:
            import asyncio

            per_client = asyncio.run(drive_async())
        else:
            with ThreadPoolExecutor(
                max_workers=clients, thread_name_prefix="repro-client"
            ) as clients_pool:
                per_client = list(clients_pool.map(client, range(clients)))
        elapsed = time.perf_counter() - started

    # Verification runs after the clock stopped: comparing row identities is
    # bench-harness work, not serving work, and must not skew the report.
    verify_started = time.perf_counter()
    mismatches = sum(
        uids != expected[text]
        for outcomes in per_client
        for text, _seconds, uids in outcomes
    )
    verify_seconds = time.perf_counter() - verify_started
    latencies = sorted(
        seconds for outcomes in per_client for _t, seconds, _uids in outcomes
    )
    return BenchServeReport(
        dataset=dataset,
        backend=backend,
        clients=clients,
        queries_per_client=queries_per_client,
        distinct_queries=len(distinct),
        seconds=elapsed,
        latencies=latencies,
        mismatches=mismatches,
        transport="asyncio" if use_async else "threads",
        verify_seconds=verify_seconds,
    )
