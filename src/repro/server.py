"""Concurrent query serving: an engine pool behind a thread pool.

:class:`QueryServer` is the serving layer the engine seam was built for: it
pools one :class:`~repro.engine.QueryEngine` per ``(dataset, backend,
db_path)`` triple and fans concurrent keyword queries across a worker thread
pool.  Isolation falls out of the engine design — every query gets its own
:class:`~repro.engine.EngineContext`, stages are stateless, and the shared
layers (the SQLite connection, the process-level result cache) serialize
internally — so concurrent queries return exactly what sequential queries
would.

Typical use::

    with QueryServer(max_workers=8) as server:
        response = server.query("imdb", "hanks 2001", k=5)     # synchronous
        futures = [server.submit("imdb", text) for text in texts]
        for future in futures: future.result()                 # concurrent

The network listener (:mod:`repro.net.listener`) is the one serving stack
over this pool: stdin, TCP and HTTP requests all reach it through
:class:`AsyncQueryFrontend`.
"""

from __future__ import annotations

import os
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from repro.engine import EngineConfig, EngineContext, QueryEngine

#: One pooled engine: ``(dataset, backend name, resolved db path or None,
#: shard count or None)``.  The shard count is part of the key because two
#: sharded layouts of one dataset are two distinct physical stores (each
#: with its own partitions and reader connections).
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
        count and an explicit default-count request share one engine; the
        path normalizes to its absolute form (the file lock's rule), so two
        spellings of one file share one too.
        """
        from repro.db.backends import resolve_shard_layout

        shards = resolve_shard_layout(backend, shards)
        db_path = os.path.abspath(db_path) if db_path else None
        key: EngineKey = (dataset, backend, db_path, shards)
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
        """Drain the worker pool, then close every pooled engine's backend
        (a file store makes its pending writes durable in ``close()``)."""
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
    without pinning one worker thread per waiting client.  Every transport
    of :class:`repro.net.listener.TCPQueryServer` queries through this.
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
