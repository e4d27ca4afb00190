"""The four workloads of the layered serving benchmark.

Each workload fixes a configuration of the program under test (transport,
storage backend, data scale, result cache) and a request sequence shape.
README.md records why each was chosen and how its pool was sized.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

#: Result rows asked for by every request.
K = 5

#: Seed of the query pools.  A pool is a fixed, store-derived sample; the
#: ``--seed`` of a run decides the order (or the Zipf draws) in which it is
#: sent.  Per-query cost spans three orders of magnitude on the sharded and
#: memory backends, so pools redrawn per seed made runs differ by their
#: content by tens of percent; see README.md.
POOL_SEED = 2009


@dataclass(frozen=True)
class Workload:
    name: str
    #: "http" and "tcp" drive a spawned server; "lib" calls the engine
    #: in-process in a child with no network.
    transport: str
    backend: str
    shards: int | None
    #: IMDB size multiplier: 1 is the bundled default, 10 is "IMDB x10".
    scale: int
    #: "zipf" draws from the pool, "once" sends each pool query exactly once
    #: in a seeded order (the phase ends early if a faster server exhausts
    #: the pool), "cycle" repeats the pool in a seeded order.
    sequence: str
    #: Distinct queries in the pool.
    pool_size: int
    #: The seed permutes the pool within windows of this many consecutive
    #: entries; None permutes all of it.
    shuffle_window: int | None
    #: Mix 3-keyword queries into the pool (2 short : 1 long).
    long_queries: bool
    cache_results: bool
    cache_size: int
    #: The store is built, closed and reopened before serving, and every pool
    #: query is sent once before the clock starts.
    reopen_and_prewarm: bool
    connections: int
    #: Equal stretches of time the measured phase is cut into; each end-to-end
    #: timing is the median over them, so that one disturbed stretch (a noisy
    #: neighbour, a checkpoint) does not move a run's result.  1 where a
    #: stretch would hold too few requests to have a 95th percentile.
    blocks: int
    #: Set-ups timed per run; ``setup_s`` is their median.
    setup_repeats: int
    #: Requests of the traced replay per measured second.
    trace_requests_per_second: int
    #: Distinct queries compared row-for-row with the MemoryBackend oracle.
    oracle_sample: int


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="warm_zipf_http",
            transport="http",
            backend="sqlite",
            shards=None,
            scale=10,
            sequence="zipf",
            pool_size=200,
            shuffle_window=None,
            long_queries=True,
            cache_results=True,
            cache_size=4096,
            reopen_and_prewarm=True,
            connections=2,
            blocks=5,
            setup_repeats=3,
            trace_requests_per_second=100,
            oracle_sample=15,
        ),
        Workload(
            name="cold_once_tcp",
            transport="tcp",
            backend="sqlite",
            shards=None,
            scale=10,
            sequence="once",
            pool_size=3000,
            shuffle_window=None,
            long_queries=True,
            cache_results=True,
            cache_size=4096,
            reopen_and_prewarm=False,
            connections=2,
            blocks=5,
            setup_repeats=5,
            trace_requests_per_second=60,
            oracle_sample=15,
        ),
        Workload(
            name="cold_once_sharded",
            transport="tcp",
            backend="sqlite-sharded",
            shards=3,
            scale=10,
            sequence="once",
            pool_size=160,
            shuffle_window=10,
            long_queries=False,
            cache_results=True,
            cache_size=4096,
            reopen_and_prewarm=False,
            connections=1,
            blocks=1,
            setup_repeats=5,
            trace_requests_per_second=10,
            oracle_sample=30,
        ),
        Workload(
            name="lib_memory",
            transport="lib",
            backend="memory",
            shards=None,
            scale=1,
            sequence="cycle",
            pool_size=300,
            shuffle_window=None,
            long_queries=True,
            cache_results=False,
            cache_size=4096,
            reopen_and_prewarm=False,
            connections=1,
            blocks=5,
            setup_repeats=5,
            trace_requests_per_second=60,
            oracle_sample=100,
        ),
    )
}


def smoke(workload: Workload) -> Workload:
    """The same workload at tiny counts, for the tier-1 smoke test."""
    return replace(
        workload,
        scale=1,
        pool_size=min(workload.pool_size, 12),
        setup_repeats=1,
        trace_requests_per_second=8,
        oracle_sample=5,
    )


def imdb_sizes(scale: int) -> dict[str, int]:
    """``build_imdb`` size parameters at a multiple of the bundled default."""
    return {
        "n_movies": 150 * scale,
        "n_actors": 90 * scale,
        "n_directors": 30 * scale,
        "n_companies": 20 * scale,
    }
