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
* **Back-half memo.** Answering it a second time must build **no**
  ``StructuredQuery`` and no result-cache key: each memo'd interpretation
  keeps the query (and its key) it built the first time (counts again).
* **Bulk ingest.** A fresh store build must decode **no** stored row into a
  ``Tuple`` and read each table exactly once: the loader writes rows without
  building them, and the inverted index and the statistics catalog share
  one ``value_rows()`` scan per relation (counts again).

Run with ``-s`` to see the tables:

    PYTHONPATH=src python -m pytest benchmarks/test_bench_engine.py -s
"""

from __future__ import annotations

import gc
import os
import time
from collections import Counter
from contextlib import contextmanager

import pytest

from repro.core.topk import TopKExecutor
from repro.datasets.imdb import build_imdb, imdb_schema
from repro.db.backends.base import StreamedExecution
from repro.db.backends.sqlite import SQLiteBackend
from repro.engine import EngineConfig, QueryEngine, ResultCache
from repro.experiments.reporting import format_table
from tests.conftest import plan_specs

QUERIES = ["hanks 2001", "london", "stone hill", "summer"]
BUILD_KWARGS = dict(seed=7, n_movies=150, n_actors=90)
REPEATS = 3
#: Distinct statement texts the replay of
#: :func:`test_bench_engine_backend_sees_only_executed_interpretations`
#: runs at most, per backend: what the emptiness proof leaves of the 69
#: and 21 texts of every plan.
STATEMENT_TEXTS = {"sqlite": 53, "sqlite-sharded": 17}


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
    alike: exactly one per executed interpretation that is not proved empty
    (none for one whose selection matches no key or whose joins cannot
    connect its keys), however many partitions it reads.
    Rows and executed interpretations match the memory reference.

    And one text per shape: a sharded statement takes about a millisecond to
    prepare, so over a replay of 60 more workload queries the sharded store
    must compile few *distinct* texts (key sets bind as one parameter each;
    0.16 here, 0.84 when every key was its own ``?``).  A single-file text
    prepares in about a tenth of that, its key lists pad to a power of two
    and its joins compile in path order, so it must compile at most 0.4
    texts per plan (0.72 when every key was its own ``?``, 0.41 while joins
    were still reordered by estimated slot size).  That share is taken over
    the plan of every executed interpretation that matches a key, the
    emptiness proof's skipped paths included — the population these bounds
    were set on, when every such plan ran as a statement (69 / 178 single
    file, 21 / 178 sharded).  The texts of the statements that run are
    gated as a count: every one is among those plans' texts, and there are
    at most :data:`STATEMENT_TEXTS` of them, the number the proof leaves
    (53 of the single file's 69, 17 of the sharded 21), so a compiler that
    lets key sets into the text, or a proof that stops skipping, fails it.
    Over the statements that run the share reads 53 / 132 = 0.402 on the
    single file, above the 0.4 bound: the proof shrank the denominator, not
    the compiler its texts.
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
        planned_texts: list[str] = []
        open_stream = db.execute_paths_streamed

        def spy(specs, limit=None):
            handed.append(len(specs))
            solo, members = plan_specs(db, specs, StreamedExecution(), limit)
            planned_texts.extend(
                db.compiler.compile_path(plan).sql for _index, plan in solo
            )
            assert not members  # one spec per stream: no union
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
            assert stats.sql_statements == (
                stats.interpretations_executed - stats.proved_empty
            )
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
        assert set(texts) <= set(planned_texts)
        assert len(set(texts)) <= STATEMENT_TEXTS[backend], (
            f"{len(set(texts))} distinct texts in {len(texts)} {backend} "
            f"statements"
        )
        distinct_share = len(set(planned_texts)) / len(planned_texts)
        bound = 0.25 if fan_out > 1 else 0.4
        assert distinct_share <= bound, (
            f"{len(set(planned_texts))} distinct texts in {len(planned_texts)} "
            f"{backend} plans: statement text follows key sets, not shape"
        )
        per_backend.append(
            [
                backend,
                f"{executed_total}",
                f"{len(planned_texts)}",
                f"{len(set(planned_texts))}",
                f"{distinct_share:.2f}",
                f"{len(texts)}",
                f"{len(set(texts))}",
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
            [
                "backend", "executed", "plans", "distinct texts",
                "distinct ÷ plans", "stmts", "distinct stmt texts",
            ],
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


def _count_calls(monkeypatch, owner: type, name: str) -> list[int]:
    """A one-cell counter of calls to ``owner.name`` from now on."""
    calls = [0]
    original = getattr(owner, name)

    def counting(self, *args, **kwargs):
        calls[0] += 1
        return original(self, *args, **kwargs)

    monkeypatch.setattr(owner, name, counting)
    return calls


def _count_constructions(monkeypatch) -> list[int]:
    """A one-cell counter of every ``Interpretation`` constructed from now on."""
    from repro.core.interpretation import Interpretation

    return _count_calls(monkeypatch, Interpretation, "__init__")


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


def _memo_workload(engine: QueryEngine) -> list[str]:
    """The repeated-text workload: the fixed queries plus 40 bundled ones."""
    from repro.datasets.workload import imdb_workload

    return list(dict.fromkeys(QUERIES + [
        str(item.query) for item in imdb_workload(engine.backend, n_queries=40, seed=3)
    ]))


def test_bench_engine_repeated_query_is_not_enumerated_again(monkeypatch):
    """Front-half memo: the second answer to a text constructs nothing.

    Over the bundled IMDB workload on a cache-enabled engine, pass one builds
    each query's space once (exactly its size); passes two and three build
    **zero** ``Interpretation`` objects, return the same ranked spaces and
    rows, and are all memo hits.  A count, not a timing.
    """
    ResultCache.clear_process_cache()
    engine = QueryEngine(build_imdb(**BUILD_KWARGS))
    constructed = _count_constructions(monkeypatch)
    texts = _memo_workload(engine)
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


def test_bench_engine_repeated_query_rebuilds_no_structured_query(monkeypatch):
    """Back-half memo: the second answer to a text builds no query or key.

    Over the same workload as the front-half guard, pass one builds the
    ``StructuredQuery`` and the cache key of each interpretation it looks up;
    passes two and three reuse the memo'd interpretations and build **zero**
    of either (``Interpretation._build_structured_query`` and
    ``StructuredQuery._build_cache_key`` are never entered), with the same
    ranked spaces and rows.  A count, not a timing.
    """
    from repro.core.interpretation import Interpretation
    from repro.core.query import StructuredQuery

    ResultCache.clear_process_cache()
    engine = QueryEngine(build_imdb(**BUILD_KWARGS))
    built = _count_calls(monkeypatch, Interpretation, "_build_structured_query")
    keyed = _count_calls(monkeypatch, StructuredQuery, "_build_cache_key")
    texts = _memo_workload(engine)
    first = [engine.run(text) for text in texts]
    cold = (built[0], keyed[0])
    assert min(cold) > 0
    for _pass in range(2):
        for text, before in zip(texts, first):
            warm = engine.run(text)
            assert warm.ranked == before.ranked
            assert warm.results == before.results
    assert (built[0], keyed[0]) == cold, (
        f"passes 2-3 rebuilt {built[0] - cold[0]} structured queries and "
        f"{keyed[0] - cold[1]} cache keys"
    )

    print()
    print(
        f"{len(texts)} queries x 3 passes: {cold[0]} structured queries and "
        f"{cold[1]} cache keys built on pass 1, 0 on passes 2-3"
    )


@pytest.mark.parametrize("backend", ["sqlite", "sqlite-sharded"])
def test_bench_engine_fresh_build_decodes_no_row(backend, monkeypatch, tmp_path):
    """One-pass bulk ingest, as counts: a fresh x1 IMDB build on a file
    calls ``SQLiteRelation._to_tuple`` zero times, scans every table once
    (``value_rows``, which ``scan()`` also reads through) and leaves no
    decoded row alive — and the emptiness proof's maps come out of that
    same scan."""
    from repro.db.backends.sqlite import SQLiteRelation

    decoded = [0]
    scans: Counter[str] = Counter()
    to_tuple, value_rows = SQLiteRelation._to_tuple, SQLiteRelation.value_rows

    def counting_to_tuple(self, row, offset=0):
        decoded[0] += 1
        return to_tuple(self, row, offset)

    def counting_value_rows(self):
        scans[self.table.name] += 1
        return value_rows(self)

    monkeypatch.setattr(SQLiteRelation, "_to_tuple", counting_to_tuple)
    monkeypatch.setattr(SQLiteRelation, "value_rows", counting_value_rows)
    shards = 3 if backend == "sqlite-sharded" else None
    db = build_imdb(backend=backend, db_path=tmp_path / "imdb.sqlite", shards=shards)
    assert decoded[0] == 0
    assert scans == Counter({name: 1 for name in db.schema.table_names})
    assert db.decoded_rows_alive() == 0
    assert db._fk_maps is not None
    rows = db.total_tuples()
    db.close()

    print()
    print(f"{backend}: {rows} rows loaded, {sum(scans.values())} table scans, "
          f"{decoded[0]} rows decoded")


def _layered_query_pool(db, n: int, seed: int) -> list[str]:
    """The layered harness's seeded query pool (short and long texts, 2 : 1),
    loaded by path: ``benchmarks/layered`` is a script directory, not a
    package."""
    import importlib.util
    from pathlib import Path

    path = Path(__file__).parent / "layered" / "queries.py"
    spec = importlib.util.spec_from_file_location("layered_queries", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.query_pool(db, n, seed)


def test_bench_engine_proved_empty_paths_reach_no_sql():
    """The emptiness proof, as counts that repeat exactly.

    A fixed seeded cold pool (the layered harness's, 200 texts, k=5) on
    x1 IMDB: on ``sqlite`` and on 3-shard ``sqlite-sharded`` the rows equal
    the memory backend's, every executed interpretation is one statement
    or one proof (``sql_statements == interpretations_executed -
    proved_empty``), and the proof saves at least 40 % of the statements.
    ``has_results`` on a proved-empty path issues no statement at all, as
    ``sqlite3``'s trace callback counts them on a ``:memory:`` store (whose
    one connection runs every read).
    """
    reference = QueryEngine(
        build_imdb(**BUILD_KWARGS), config=EngineConfig(cache_results=False)
    )
    pool = _layered_query_pool(reference.backend, 200, seed=1)
    table = []
    for backend, shards in (("sqlite", None), ("sqlite-sharded", 3)):
        db = build_imdb(**BUILD_KWARGS, backend=backend, shards=shards)
        engine = QueryEngine(db, config=EngineConfig(cache_results=False))
        executed = statements = proved = 0
        empty_spec = None
        for text in pool:
            context = engine.run(text, k=5)
            expected = reference.run(text, k=5)
            assert [r.row_uids() for r in context.results] == [
                r.row_uids() for r in expected.results
            ], text
            stats = context.executor_statistics
            assert stats.sql_statements == (
                stats.interpretations_executed - stats.proved_empty
            ), text
            executed += stats.interpretations_executed
            statements += stats.sql_statements
            proved += stats.proved_empty
            if empty_spec is None:
                for interpretation, _p in context.ranked:
                    path, edges, selections = (
                        interpretation.to_structured_query().path_spec()
                    )
                    filters = db.resolve_key_filters(path, selections or {})
                    if filters is not None and db.proves_empty(path, edges, filters):
                        empty_spec = (path, edges, selections)
                        break
        assert statements <= 0.6 * executed, (backend, statements, executed)

        traced: list[str] = []
        db._conn._conn.set_trace_callback(traced.append)
        assert empty_spec is not None
        assert not db.has_results(*empty_spec)
        assert traced == []
        assert reference.backend.execute_path(*empty_spec) == []
        assert db.has_results(["movie"], [])
        assert traced  # the callback sees the statements that do run
        db._conn._conn.set_trace_callback(None)
        db.close()
        table.append(
            [
                backend,
                f"{len(pool)}",
                f"{executed}",
                f"{proved}",
                f"{statements}",
                f"{1 - statements / executed:.2f}",
            ]
        )
    print()
    print(
        format_table(
            ["backend", "texts", "executed", "proved empty", "stmts", "saved"],
            table,
        )
    )


def _deep_bytes(value, seen: set[int]) -> int:
    """``sys.getsizeof`` of ``value`` and everything it holds, each object
    counted once."""
    import sys

    if id(value) in seen:
        return 0
    seen.add(id(value))
    size = sys.getsizeof(value)
    if isinstance(value, dict):
        size += sum(
            _deep_bytes(key, seen) + _deep_bytes(item, seen)
            for key, item in value.items()
        )
    elif isinstance(value, (tuple, list, set, frozenset)):
        size += sum(_deep_bytes(item, seen) for item in value)
    return size


def test_bench_engine_foreign_key_maps_stay_small():
    """The proof's maps at IMDB x10 on ``sqlite``: built by the store build's
    own scan, at most 2 MB, counting every dict, tuple and scalar they hold
    once."""
    db = build_imdb(
        seed=7, n_movies=1500, n_actors=900, n_directors=300, n_companies=200,
        backend="sqlite",
    )
    assert db._fk_maps is not None
    _generation, maps = db._fk_maps
    seen: set[int] = set()
    size = _deep_bytes(maps.values, seen) + _deep_bytes(maps.holders, seen)
    columns = sorted(maps.values)
    entries = sum(len(column) for column in maps.values.values())
    db.close()
    assert len(columns) == 6
    assert size <= 2 * 1024 * 1024, size
    print()
    print(
        f"imdb x10: {len(columns)} foreign-key columns, {entries} mapped rows, "
        f"{size / 1e6:.2f} MB of maps"
    )
