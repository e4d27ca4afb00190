"""QueryEngine perf guards: cold opens, warm result cache, per-interpretation execution.

Not a thesis figure — this benchmark *asserts* the storage/execution
optimizations the engine seam hosts, so a regression fails the bench-smoke CI
lane loudly instead of shipping as a slower table:

* **Cold open.** Opening a populated SQLite store with persisted index
  postings must beat the rebuild path (re-scanning + re-tokenizing every
  stored table), while producing an identical index.
* **Warm cache.** A second engine over the reopened, unchanged store in the
  same process must serve identical top-k rows from the process-level result
  cache while executing zero interpretations, and the whole warm pass must
  beat the cold pass (the asserted speedup ratio).
* **Per-interpretation execution.** Over the bundled workload the specs
  handed to the backend must equal the interpretations executed, with nothing
  produced and then short-circuited (counts that repeat exactly): the TA
  bound decides what SQLite prepares and evaluates, not only what Python
  decodes — with rows identical to the memory reference.

* **Enumeration.** Generating a query's interpretation space must construct
  exactly as many ``Interpretation`` objects as it returns (a count, not a
  timing): no candidate is built, validated and discarded.
* **Front-half memo.** Answering a query text a second time must construct
  **no** ``Interpretation`` at all: a cache-enabled engine serves the ranked
  space of a repeated keyword tuple from its memo instead of re-enumerating
  and re-ranking it (the same count, so a slow runner cannot flake it).

Run with ``-s`` to see the tables:

    PYTHONPATH=src python -m pytest benchmarks/test_bench_engine.py -s
"""

from __future__ import annotations

import gc
import os
import time
from contextlib import contextmanager

from repro.core.topk import TopKExecutor
from repro.datasets.imdb import build_imdb, imdb_schema
from repro.db.backends.sqlite import SQLiteBackend
from repro.engine import EngineConfig, QueryEngine, ResultCache
from repro.experiments.reporting import format_table

QUERIES = ["hanks 2001", "london", "stone hill", "summer"]
BUILD_KWARGS = dict(seed=7, n_movies=150, n_actors=90)
REPEATS = 3


@contextmanager
def _gc_paused():
    """Time with the cyclic collector off, as ``timeit`` does.  A collection
    takes milliseconds once the suite's objects are alive, and which timed
    pass it lands in depends on allocation counts made anywhere earlier in
    the process — warm passes are only a few milliseconds long."""
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def _timed_open(path, persist_index: bool) -> tuple[SQLiteBackend, float]:
    """Best-of-N cold open: connect + build_indexes on a populated store."""
    best = float("inf")
    db = None
    for _ in range(REPEATS):
        if db is not None:
            db.close()
        with _gc_paused():
            start = time.perf_counter()
            db = SQLiteBackend(imdb_schema(), path=path, persist_index=persist_index)
            db.build_indexes()
            best = min(best, time.perf_counter() - start)
    return db, best


def _timed_session(engine: QueryEngine) -> tuple[list, float]:
    """One pass over QUERIES: the contexts and the pass time."""
    with _gc_paused():
        start = time.perf_counter()
        contexts = [engine.run(query_text, k=5) for query_text in QUERIES]
        return contexts, time.perf_counter() - start


def test_bench_engine_cold_open_and_warm_cache(benchmark, tmp_path):
    path = tmp_path / "imdb.sqlite"
    build_imdb(**BUILD_KWARGS, backend="sqlite", db_path=path).close()

    # -- cold open: persisted postings vs full rebuild ---------------------
    rebuilt_db, rebuild_seconds = benchmark.pedantic(
        lambda: _timed_open(path, persist_index=False), rounds=1, iterations=1
    )
    rebuilt_snapshot = rebuilt_db.index.stats_snapshot()
    rebuilt_db.close()
    loaded_db, load_seconds = _timed_open(path, persist_index=True)
    assert loaded_db.index.stats_snapshot() == rebuilt_snapshot
    # Locally the margin is ~2x; shared CI runners get a little slack so a
    # scheduler hiccup cannot fail unrelated changes (best-of-N already
    # absorbs most noise).
    slack = 1.25 if os.environ.get("CI") else 1.0
    assert load_seconds < rebuild_seconds * slack, (
        f"persisted postings ({load_seconds * 1000:.1f} ms) must beat the "
        f"rebuild path ({rebuild_seconds * 1000:.1f} ms)"
    )

    # -- warm cache: a second engine over the reopened file, same process,
    # executes zero interpretations ------------------------------------------
    ResultCache.clear_process_cache()
    cold_contexts, cold_seconds = _timed_session(QueryEngine(loaded_db))
    cold_stats: list[tuple[str, int, list]] = [
        (
            query_text,
            context.executor_statistics.interpretations_executed,
            [r.row_uids() for r in context.results],
        )
        for query_text, context in zip(QUERIES, cold_contexts)
    ]
    loaded_db.close()

    warm_db, _ = _timed_open(path, persist_index=True)
    warm_contexts, warm_seconds = _timed_session(QueryEngine(warm_db))
    for context, (_query_text, _cold_executed, cold_rows) in zip(
        warm_contexts, cold_stats
    ):
        assert context.executor_statistics.interpretations_executed == 0
        assert context.cache_hits > 0
        assert [r.row_uids() for r in context.results] == cold_rows
    warm_db.close()
    # The asserted warm-cache speedup ratio: serving from the cache must beat
    # executing (same slack policy as the cold-open assertion above).
    assert warm_seconds < cold_seconds * slack, (
        f"warm result cache ({warm_seconds * 1000:.1f} ms) must beat cold "
        f"execution ({cold_seconds * 1000:.1f} ms)"
    )

    print()
    print(
        format_table(
            ["path", "ms"],
            [
                ["cold open, rebuild postings", f"{rebuild_seconds * 1000:.1f}"],
                ["cold open, persisted postings", f"{load_seconds * 1000:.1f}"],
                ["4 queries, cold result cache", f"{cold_seconds * 1000:.1f}"],
                ["4 queries, warm result cache", f"{warm_seconds * 1000:.1f}"],
            ],
        )
    )


def test_bench_engine_backend_sees_only_executed_interpretations(tmp_path):
    """Per-interpretation execution: the backend is handed what the bound ran.

    One claim, as counts that repeat exactly: over the bundled workload on
    sqlite and sqlite-sharded, the specs handed to ``execute_paths_streamed``
    equal the interpretations executed — one per stream — and no row is
    produced and then short-circuited.  Statements follow, on both stores
    alike: exactly one per executed interpretation (none for one whose
    selection is provably empty), however many partitions it reads.
    Rows and executed interpretations match the memory reference.

    And one text per shape: a sharded statement takes about a millisecond to
    prepare, so over a replay of 60 more workload queries the sharded store
    must issue few *distinct* texts (key sets bind as one parameter each;
    0.16 here, 0.84 when every key was its own ``?``).  A single-file text
    prepares in about a tenth of that, its key lists pad to a power of two
    and its joins compile in path order, so it must issue at most 0.4 texts
    per statement (0.72 when every key was its own ``?``, 0.41 while joins
    were still reordered by estimated slot size).
    """
    from repro.datasets.workload import imdb_workload
    from repro.db.backends.sharded import ShardedSQLiteBackend

    shards = 2
    reference = QueryEngine(
        build_imdb(**BUILD_KWARGS), config=EngineConfig(cache_results=False)
    )
    named = [*QUERIES, "hanks"]
    replay = [
        str(item.query)
        for item in imdb_workload(reference.backend, n_queries=60, seed=5)
    ]
    rows_of = lambda context: [r.row_uids() for r in context.results]  # noqa: E731
    per_query: list[list[str]] = []
    per_backend: list[list[str]] = []
    for backend, fan_out in (("sqlite", 1), ("sqlite-sharded", shards)):
        path = tmp_path / f"{backend}.sqlite"
        kwargs = {"shards": shards} if fan_out > 1 else {}
        build_imdb(**BUILD_KWARGS, backend=backend, db_path=path, **kwargs).close()
        if fan_out > 1:
            db = ShardedSQLiteBackend(imdb_schema(), path=path, shards=shards)
        else:
            db = SQLiteBackend(imdb_schema(), path=path)
        db.build_indexes()
        engine = QueryEngine(db, config=EngineConfig(cache_results=False))
        handed: list[int] = []
        planned: list[int] = []
        open_stream = db.execute_paths_streamed

        def spy(specs, limit=None):
            handed.append(len(specs))
            planned.append(
                sum(db.plan_path_spec(*spec, limit=limit) is not None for spec in specs)
            )
            return open_stream(specs, limit=limit)

        db.execute_paths_streamed = spy
        texts: list[str] = []
        iter_cursor = db._iter_cursor

        def record(conn, statement, execution):
            texts.append(statement.sql)
            return iter_cursor(conn, statement, execution)

        db._iter_cursor = record
        executed_total = 0
        for query_text in [*named, *replay]:
            before = len(handed)
            context = engine.run(query_text, k=5)
            reference_context = reference.run(query_text, k=5)
            assert rows_of(context) == rows_of(reference_context)
            stats = context.executor_statistics
            sequential = reference_context.executor_statistics
            assert stats.interpretations_executed == sequential.interpretations_executed
            assert handed[before:] == [1] * stats.interpretations_executed, (
                f"{backend} {query_text!r}: backend was handed {handed[before:]} "
                f"specs for {stats.interpretations_executed} executed"
            )
            assert stats.rows_short_circuited == 0
            assert stats.sql_statements == sum(planned[before:])
            assert stats.sql_statements <= stats.interpretations_executed
            assert sum(stats.shard_rows.values()) == (
                stats.rows_materialized if fan_out > 1 else 0
            )
            executed_total += stats.interpretations_executed
            if query_text not in named:
                continue
            per_query.append(
                [
                    backend,
                    query_text,
                    f"{len(context.ranked)}",
                    f"{stats.interpretations_executed}",
                    f"{sum(handed[before:])}",
                    f"{stats.sql_statements}",
                ]
            )
        db.close()
        assert sum(handed) == executed_total > 0
        distinct_share = len(set(texts)) / len(texts)
        bound = 0.25 if fan_out > 1 else 0.4
        assert distinct_share <= bound, (
            f"{len(set(texts))} distinct texts in {len(texts)} {backend} "
            f"statements: statement text follows key sets, not shape"
        )
        per_backend.append(
            [
                backend,
                f"{executed_total}",
                f"{len(texts)}",
                f"{len(set(texts))}",
                f"{distinct_share:.2f}",
            ]
        )

    print()
    print(
        format_table(
            ["backend", "query", "ranked", "executed", "specs handed", "stmts"],
            per_query,
        )
    )
    print(
        format_table(
            ["backend", "executed", "stmts", "distinct texts", "distinct ÷ stmts"],
            per_backend,
        )
    )


def test_bench_engine_streaming_row_consumption(tmp_path):
    """Streaming execution: the TA bound stops *consuming* the backend.

    On a single-answer (k=1) query the executor must pull strictly fewer
    rows out of the backend than a full drain of the top two interpretations
    (``execute_paths_batched``) materializes — the rows of interpretations
    past the stopping point are simply never fetched.
    """
    path = tmp_path / "imdb.sqlite"
    build_imdb(**BUILD_KWARGS, backend="sqlite", db_path=path).close()
    db, _ = _timed_open(path, persist_index=True)
    streaming = QueryEngine(db, config=EngineConfig(cache_results=False))

    per_query: list[list[str]] = []
    wins = 0
    for query_text in QUERIES:
        top_two = [
            interp.to_structured_query().path_spec()
            for interp, _p in streaming.rank(query_text)[:2]
        ]
        drained = db.execute_paths_batched(top_two, limit=TopKExecutor.per_query_limit)
        materialized = sum(len(rows) for rows in drained.rows)
        stream = streaming.run(query_text, k=1).executor_statistics
        assert stream.rows_streamed <= materialized
        if len(top_two) == 2 and all(drained.rows):
            # The headline claim: k=1 consumes strictly fewer backend rows.
            assert stream.rows_streamed < materialized, (
                f"{query_text!r}: streaming consumed {stream.rows_streamed} "
                f"rows, a full drain produced {materialized}"
            )
            wins += 1
        per_query.append(
            [query_text, f"{materialized}", f"{stream.rows_streamed}"]
        )
    assert wins > 0, "no query had two non-empty interpretations"
    db.close()

    print()
    print(format_table(["query (k=1)", "drained rows", "streamed rows"], per_query))


def test_bench_engine_seed_slot_is_the_smallest_post_filter_slot(tmp_path):
    """Sharded seed slots: every executed plan seeds at its smallest slot.

    The guard of the seed-slot chooser, on a deliberately skewed store (many
    movies, few actors — raw row counts mislead exactly where the selection
    keys do not), over six named queries and 20 workload queries.  Every
    plan the engine executes must seed its semi-join
    chain at the slot with the fewest post-filter rows — a filtered slot's
    key count, else its table's stored row count, the lowest slot on a tie —
    and the result rows must equal a cache-free ``MemoryBackend`` engine's.
    """
    from repro.datasets.workload import imdb_workload
    from repro.db.backends.sharded import ShardedSQLiteBackend

    sizes = dict(seed=7, n_movies=260, n_actors=40)
    path = tmp_path / "imdb.sqlite"
    build_imdb(**sizes, backend="sqlite-sharded", db_path=path, shards=2).close()
    db = ShardedSQLiteBackend(imdb_schema(), path=path, shards=2)
    db.build_indexes()
    engine = QueryEngine(db, config=EngineConfig(cache_results=False))
    reference = QueryEngine(build_imdb(**sizes), config=EngineConfig(cache_results=False))
    executed: list = []
    stream_plan = db._stream_plan

    def spy(plan, execution):
        executed.append(plan)
        return stream_plan(plan, execution)

    db._stream_plan = spy
    rows_in = {name: len(db.relation(name)) for name in db.schema.table_names}

    def smallest_slot(plan) -> int:
        keys = {p: len(k) for p, k in (*plan.inline_filters, *plan.post_filters)}
        return min(
            range(len(plan.path)),
            key=lambda slot: (keys.get(slot, rows_in[plan.path[slot]]), slot),
        )

    replay = [
        str(item.query)
        for item in imdb_workload(reference.backend, n_queries=20, seed=5)
    ]
    per_query: list[list[str]] = []
    for query_text in [*QUERIES, "hanks", "2001", *replay]:
        before = len(executed)
        context = engine.run(query_text, k=5)
        assert [r.row_uids() for r in context.results] == [
            r.row_uids() for r in reference.run(query_text, k=5).results
        ], f"{query_text!r}: rows differ from the memory reference"
        plans = executed[before:]
        for plan in plans:
            assert plan.scatter_position == smallest_slot(plan), (
                f"{query_text!r}: {plan.path} seeded at t{plan.scatter_position}"
            )
        moved = sum(plan.scatter_position != 0 for plan in plans)
        per_query.append([query_text, f"{len(plans)}", f"{moved}"])
    assert any(plan.scatter_position != 0 for plan in executed)
    db.close()

    print()
    print(format_table(["query", "executed plans", "seeded past t0"], per_query))


def _count_constructions(monkeypatch) -> list[int]:
    """A one-cell counter of every ``Interpretation`` constructed from now on."""
    from repro.core.interpretation import Interpretation

    constructed = [0]
    original_init = Interpretation.__init__

    def counting_init(self, *args, **kwargs):
        constructed[0] += 1
        original_init(self, *args, **kwargs)

    monkeypatch.setattr(Interpretation, "__init__", counting_init)
    return constructed


def test_bench_engine_enumeration_constructs_only_what_it_returns(monkeypatch):
    """Interpretation enumeration: no candidate is built to be thrown away.

    The guard of the prune-as-you-go enumeration, as a count so a slow runner
    cannot flake it: over the bundled IMDB workload, the number of
    ``Interpretation`` objects constructed while generating a query's space
    equals the size of the space.  (Generate-and-test built about ten
    candidates per interpretation kept.)
    """
    from repro.core.keywords import KeywordQuery
    from repro.datasets.workload import imdb_workload

    engine = QueryEngine(build_imdb(**BUILD_KWARGS), config=EngineConfig(cache_results=False))
    constructed = _count_constructions(monkeypatch)
    texts = QUERIES + [
        str(item.query) for item in imdb_workload(engine.backend, n_queries=40, seed=3)
    ]
    kept = 0
    per_query: list[list[str]] = []
    for text in texts:
        before = constructed[0]
        space = engine.generator.interpretations(KeywordQuery.parse(text))
        assert constructed[0] - before == len(space), (
            f"{text!r}: built {constructed[0] - before} candidates for "
            f"{len(space)} interpretations"
        )
        kept += len(space)
        per_query.append([text, f"{len(space)}", f"{constructed[0] - before}"])
    assert kept > len(texts), "the workload produced no ambiguity to enumerate"

    print()
    print(format_table(["query", "interpretations", "constructed"], per_query[:8]))
    print(f"{len(texts)} queries: {kept} interpretations, {constructed[0]} constructed")


def test_bench_engine_repeated_query_is_not_enumerated_again(monkeypatch):
    """Front-half memo: the second answer to a text constructs nothing.

    Over the bundled IMDB workload on a cache-enabled engine, pass one builds
    each query's space once (exactly its size); passes two and three build
    **zero** ``Interpretation`` objects, return the same ranked spaces and
    rows, and are all memo hits.  A count, not a timing.
    """
    from repro.datasets.workload import imdb_workload

    ResultCache.clear_process_cache()
    engine = QueryEngine(build_imdb(**BUILD_KWARGS))
    constructed = _count_constructions(monkeypatch)
    texts = list(dict.fromkeys(QUERIES + [
        str(item.query) for item in imdb_workload(engine.backend, n_queries=40, seed=3)
    ]))
    first = [engine.run(text) for text in texts]
    spaces = sum(len(context.interpretations) for context in first)
    assert constructed[0] == spaces > len(texts)
    for _pass in range(2):
        for text, cold in zip(texts, first):
            warm = engine.run(text)
            assert warm.ranked == cold.ranked
            assert [r.row_uids() for r in warm.results] == [
                r.row_uids() for r in cold.results
            ]
    assert constructed[0] == spaces, (
        f"repeated queries re-enumerated: {constructed[0] - spaces} "
        "interpretations constructed on passes 2-3"
    )
    memo = engine.memo
    assert (memo.misses, memo.hits) == (len(texts), 2 * len(texts))
    assert memo.resident == spaces

    print()
    print(
        f"{len(texts)} queries x 3 passes: {spaces} interpretations constructed "
        f"on pass 1, 0 on passes 2-3; memo {memo.hits} hits / {memo.misses} misses, "
        f"{memo.resident}/{memo.budget} interpretations resident"
    )
