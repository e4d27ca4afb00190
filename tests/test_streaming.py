"""Streaming execution: cursor parity, TA consumption, global-order edges.

The contract under test, layer by layer:

* ``StorageBackend.execute_paths_streamed`` (native SQLite cursors, on one
  file or over partitions, and the generic lazy per-spec fallback) streams
  **byte-identical** rows to the list-returning API that drains it, on the
  mini store and on both bundled datasets (the acceptance pin).
* Streams abandoned mid-iteration release their cursors: the backend stays
  fully usable, sharded reader connections do not leak, and close() is
  idempotent.
* A sharded statement's own ``ORDER BY … LIMIT`` is the global order: limit
  cuts fall where the single file's do, rows of different partitions
  interleave, empty partitions are transparent.
* ``TopKExecutor`` on the SQL backends returns exactly the memory
  reference's rows while *consuming* strictly less from the backend than a
  full drain on early-stopping queries, and counts only the interpretations
  the bound reached as executed/missed.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.core.topk import TopKExecutor
from repro.db.backends import sql as sqlc
from repro.db.backends.base import RowStream, StreamedExecution
from repro.db.backends.sharded import ShardedSQLiteBackend, shard_of_key
from repro.engine import EngineConfig, QueryEngine, ResultCache
from tests.conftest import build_mini_db, mini_schema

QUERIES = ["hanks 2001", "london", "hanks", "2001", "stone hill", "summer"]


@pytest.fixture(autouse=True)
def fresh_process_cache():
    ResultCache.clear_process_cache()
    yield
    ResultCache.clear_process_cache()


def _specs(db, query_text, n=None):
    engine = QueryEngine(db, config=EngineConfig(cache_results=False))
    ranked = engine.rank(query_text)
    return [interp.to_structured_query().path_spec() for interp, _p in ranked[:n]]


def _drain(execution: StreamedExecution, n_specs: int):
    grouped: list[list] = [[] for _ in range(n_specs)]
    for index, network in execution.stream:
        grouped[index].append(network)
    return grouped


def _result_rows(context):
    return [(r.score, r.interpretation_rank, r.row_uids()) for r in context.results]


class TestBackendStreamContract:
    """execute_paths_streamed parity with execute_paths_batched."""

    @pytest.mark.parametrize("backend", ["memory", "sqlite", "sqlite-sharded"])
    @pytest.mark.parametrize("limit", [None, 1, 3, 0])
    def test_drained_stream_equals_batched(self, backend, limit):
        db = build_mini_db(backend)
        for query_text in ("hanks 2001", "london", "hanks"):
            specs = _specs(db, query_text)
            expected = db.execute_paths_batched(specs, limit=limit)
            execution = db.execute_paths_streamed(specs, limit=limit)
            assert _drain(execution, len(specs)) == expected.rows, query_text
            assert execution.statements == expected.statements
            assert execution.batched_indexes == expected.batched_indexes
            assert execution.fallbacks == expected.fallbacks

    @pytest.mark.parametrize("dataset", ["imdb", "lyrics"])
    @pytest.mark.parametrize("backend", ["sqlite", "sqlite-sharded"])
    def test_acceptance_streamed_parity_on_datasets(self, dataset, backend):
        """The acceptance pin: streamed == list-based rows, byte-identical,
        on both SQL backends and both bundled datasets."""
        engine = QueryEngine.for_dataset(
            dataset, backend=backend, config=EngineConfig(cache_results=False)
        )
        db = engine.backend
        for query_text in QUERIES:
            ranked = engine.rank(query_text)
            specs = [i.to_structured_query().path_spec() for i, _p in ranked]
            if not specs:
                continue
            expected = db.execute_paths_batched(specs, limit=100)
            execution = db.execute_paths_streamed(specs, limit=100)
            assert _drain(execution, len(specs)) == expected.rows, (
                dataset,
                backend,
                query_text,
            )

    def test_statements_open_lazily(self):
        """An unconsumed stream costs zero statements (the warm-run path)."""
        db = build_mini_db("sqlite")
        specs = _specs(db, "hanks 2001")
        execution = db.execute_paths_streamed(specs, limit=10)
        execution.stream.close()
        assert execution.statements == 0
        # ...while the batched call on the same specs costs one.
        assert db.execute_paths_batched(specs, limit=10).statements == 1

    def test_fallback_executes_one_spec_per_pull(self, monkeypatch):
        """The generic fallback is lazy per spec: a spec the consumer never
        reaches is never executed, and only the rows of a *started* spec the
        consumer left behind count as short-circuited."""
        db = build_mini_db("memory")
        specs = _specs(db, "hanks 2001")
        per_spec = [len(db.execute_path(*spec, limit=10)) for spec in specs]
        first = next(i for i, n in enumerate(per_spec) if n >= 2)
        assert first < len(specs) - 1  # something lies past the stop
        calls = []
        execute_path = db.execute_path
        monkeypatch.setattr(
            db,
            "execute_path",
            lambda *a, **kw: calls.append(a) or execute_path(*a, **kw),
        )
        execution = db.execute_paths_streamed(specs, limit=10)
        assert calls == []  # nothing runs before the first pull
        assert next(execution.stream)[0] == first
        execution.stream.close()
        assert len(calls) == first + 1
        assert execution.statements == first + 1
        assert execution.stream.rows_delivered == 1
        assert execution.rows_short_circuited == per_spec[first] - 1

    def test_post_filter_fallback_streams_identically(self, monkeypatch):
        """Solo fallback plans (inline cap overflow) stream like they batch."""
        monkeypatch.setattr(sqlc, "MAX_INLINE_KEYS", 1)
        for backend in ("sqlite", "sqlite-sharded"):
            db = build_mini_db(backend)
            specs = _specs(db, "hanks 2001")
            expected = db.execute_paths_batched(specs, limit=10)
            execution = db.execute_paths_streamed(specs, limit=10)
            assert _drain(execution, len(specs)) == expected.rows
            assert execution.fallbacks == expected.fallbacks


class TestStreamAbandonment:
    """Closing a stream mid-iteration releases cursors, leaks nothing."""

    @pytest.mark.parametrize("backend", ["sqlite", "sqlite-sharded"])
    def test_abandoned_stream_leaves_backend_usable(self, backend, tmp_path):
        db = build_mini_db(backend, db_path=tmp_path / "store.sqlite")
        specs = _specs(db, "hanks 2001")
        execution = db.execute_paths_streamed(specs, limit=10)
        next(execution.stream)  # cursors are open now
        execution.stream.close()
        execution.stream.close()  # idempotent
        # The store accepts reads and writes immediately after abandonment —
        # a leaked read cursor would wedge the commit path instead.
        assert db.execute_paths_batched(specs, limit=10).rows
        db.insert("actor", {"id": 9, "name": "late arrival"})
        db.close()

    def test_sharded_readers_do_not_leak(self, tmp_path):
        db = build_mini_db("sqlite-sharded", db_path=tmp_path / "store.sqlite")
        specs = _specs(db, "hanks 2001")
        for _ in range(5):
            execution = db.execute_paths_streamed(specs, limit=10)
            next(execution.stream)
            execution.stream.close()
        # Reader connections come from the bounded pool: every abandoned
        # stream returned its leases, so the pool never opened more than its
        # capacity, and nothing is leased after the last close.
        pool = db._read_pool
        assert pool is not None
        assert pool._opened <= pool.size
        assert pool._active == 0
        db.close()
        assert db._read_pool is None

    def test_stream_is_a_context_manager(self):
        db = build_mini_db("sqlite")
        specs = _specs(db, "london", n=1)
        execution = db.execute_paths_streamed(specs, limit=10)
        with execution.stream as stream:
            first = next(stream)
        assert first[0] == 0
        assert isinstance(execution.stream, RowStream)


class TestGlobalOrder:
    """The sharded statement's ORDER BY … LIMIT is the global order — what
    the Python k-way merge over per-shard streams used to reconstruct."""

    def test_every_limit_cuts_where_the_single_file_cuts(self):
        sharded, single = build_mini_db("sqlite-sharded"), build_mini_db("sqlite")
        for query_text in QUERIES:
            specs = _specs(single, query_text)
            for limit in (1, 2, 3, 10):
                expected = single.execute_paths_batched(specs, limit=limit).rows
                execution = sharded.execute_paths_streamed(specs, limit=limit)
                assert _drain(execution, len(specs)) == expected, (query_text, limit)

    def test_rows_of_different_partitions_interleave(self):
        """Delivery order is the statement's, not partition by partition."""
        db = ShardedSQLiteBackend(mini_schema(), shards=3)
        build_mini_db("memory").copy_into(db)
        db.build_indexes()
        rows = db.execute_path(("acts",), ())
        assert [network[0].key for network in rows] == [1, 2, 3, 4]
        partitions = [shard_of_key(network[0].key, 3) for network in rows]
        assert partitions != sorted(partitions)

    def test_shard_rows_name_the_partition_each_row_is_stored_in(self):
        db = build_mini_db("sqlite-sharded")
        by_attr = {fk.source_attr: fk for fk in db.schema.foreign_keys}
        path = ("actor", "acts", "movie")
        edges = (by_attr["actor_id"], by_attr["movie_id"])
        for key_filters in ({}, {0: {1, 3}}, {2: {2}}):
            plan = db._prepare_plan(sqlc.plan_path(path, edges, key_filters, None))
            execution = StreamedExecution()
            rows = list(db._stream_plan(plan, execution))
            assert rows
            assert execution.shard_rows == Counter(
                shard_of_key(network[plan.scatter_position].key, db.shards)
                for network in rows
            )

    def test_union_members_keep_their_own_limit_and_order(self):
        """The tagged UNION ALL's member-local LIMIT is exact on partitions
        too: no per-shard overshoot is left to re-truncate in Python."""
        sharded, single = build_mini_db("sqlite-sharded"), build_mini_db("sqlite")
        specs = _specs(single, "hanks 2001")
        assert len(specs) > 1
        for limit in (1, 2):
            expected = single.execute_paths_batched(specs, limit=limit)
            actual = sharded.execute_paths_batched(specs, limit=limit)
            assert actual.rows == expected.rows
            assert actual.statements == expected.statements == 1
            assert sum(actual.shard_rows.values()) == sum(map(len, actual.rows))


class TestEmptyPartitions:
    """Stores whose partition files hold no rows of some table."""

    def test_streamed_parity_with_empty_partitions(self):
        shards = 4
        db = ShardedSQLiteBackend(mini_schema(), shards=shards)
        reference = build_mini_db("memory")
        reference.copy_into(db)
        db.build_indexes()
        # The mini store's 3 actor keys cannot cover 4 partitions: at least
        # one shard holds no actor rows, so some UNION ALL arms are empty.
        occupied = {shard_of_key(key, shards) for key in (1, 2, 3)}
        assert len(occupied) < shards
        for query_text in ("hanks 2001", "london", "hanks"):
            specs = _specs(reference, query_text)
            expected = reference.execute_paths_batched(specs, limit=10)
            execution = db.execute_paths_streamed(specs, limit=10)
            assert _drain(execution, len(specs)) == expected.rows, query_text
        db.close()


class TestStreamingExecutor:
    """TopKExecutor over SQL streams: reference rows, less consumption."""

    @pytest.mark.parametrize("backend", ["sqlite", "sqlite-sharded"])
    @pytest.mark.parametrize("k", [1, 3, 10])
    def test_streaming_equals_memory_reference(self, backend, k):
        db = build_mini_db(backend)
        reference_db = build_mini_db("memory")
        engine = QueryEngine(reference_db, config=EngineConfig(cache_results=False))
        for query_text in QUERIES:
            ranked = engine.rank(query_text)
            reference = TopKExecutor(reference_db, per_query_limit=100)
            streamed = TopKExecutor(db, per_query_limit=100)
            expected = reference.execute(ranked, k=k)
            actual = streamed.execute(ranked, k=k)
            assert [
                (r.score, r.interpretation_rank, r.row_uids()) for r in actual
            ] == [
                (r.score, r.interpretation_rank, r.row_uids()) for r in expected
            ], (backend, k, query_text)
            # The bound is checked before every interpretation on both, so
            # the backend never changes *which* interpretations run.
            assert (
                streamed.statistics.interpretations_executed
                == reference.statistics.interpretations_executed
            )

    def test_streaming_consumes_fewer_rows_on_k1(self):
        """k=1: the second interpretation's rows are never fetched, where a
        full drain of the top two interpretations materializes all of them."""
        db = build_mini_db("sqlite")
        cache = ResultCache(db)
        engine = QueryEngine(db, cache=cache)
        ranked = engine.rank("hanks 2001")
        assert len(ranked) >= 2
        streamed = TopKExecutor(db, per_query_limit=100, cache=cache)
        actual = streamed.execute(ranked, k=1)
        stats = streamed.statistics
        top_two = [
            interp.to_structured_query().path_spec() for interp, _p in ranked[:2]
        ]
        drained = db.execute_paths_batched(top_two, limit=100)
        assert [r.row_uids() for r in actual] == [
            tuple(t.uid for t in drained.rows[0][0])
        ]
        assert stats.rows_streamed < sum(len(rows) for rows in drained.rows)
        assert stats.interpretations_executed == 1  # never reached rank 2
        assert stats.cache_misses == 1  # unreached interps are not misses
        assert stats.stopped_early

    def test_warm_run_opens_no_statement(self, tmp_path):
        """Fully cache-served queries never open a stream."""
        engine = QueryEngine.for_dataset(
            "imdb", backend="sqlite", db_path=tmp_path / "imdb.sqlite"
        )
        cold = engine.run("london", k=5)
        assert cold.executor_statistics.interpretations_executed > 0
        warm = engine.run("london", k=5)
        stats = warm.executor_statistics
        assert stats.interpretations_executed == 0
        assert stats.sql_statements == 0
        assert stats.cache_misses == 0
        assert stats.cache_hits > 0
        assert [r.row_uids() for r in warm.results] == [
            r.row_uids() for r in cold.results
        ]
        engine.backend.close()

    def test_history_never_changes_what_a_query_executes(self):
        """No state carries over between queries: the same query executes the
        same interpretations and statements whatever ran before it."""
        config = EngineConfig(cache_results=False)
        fresh = QueryEngine.for_dataset("imdb", backend="sqlite", config=config)
        used = QueryEngine.for_dataset("imdb", backend="sqlite", config=config)
        for query in QUERIES:
            used.run(query, k=50)
        expected = fresh.run("london", k=1).executor_statistics
        actual = used.run("london", k=1).executor_statistics
        assert actual.interpretations_executed == 1
        assert actual.sql_statements == 1
        assert actual.attribution == expected.attribution

    @pytest.mark.parametrize("query", QUERIES)
    def test_seed_slots_never_change_what_executes(self, query):
        """The sharded seed slot — the one physical choice a plan still
        makes — never changes which interpretations run, how many
        statements, or the rows: a 3-shard store executes what the single
        file does."""
        config = EngineConfig(cache_results=False)
        single = QueryEngine.for_dataset("imdb", backend="sqlite", config=config)
        sharded = QueryEngine.for_dataset(
            "imdb", backend="sqlite-sharded", shards=3, config=config
        )
        expected = single.run(query, k=5)
        actual = sharded.run(query, k=5)
        assert (
            actual.executor_statistics.attribution
            == expected.executor_statistics.attribution
        )
        assert (
            actual.executor_statistics.sql_statements
            == expected.executor_statistics.sql_statements
        )
        assert [r.row_uids() for r in actual.results] == [
            r.row_uids() for r in expected.results
        ]
        single.backend.close()
        sharded.backend.close()

    def test_explain_surfaces_streaming_counters(self):
        engine = QueryEngine.for_dataset(
            "imdb", backend="sqlite", config=EngineConfig(cache_results=False)
        )
        context = engine.run("london", k=5, explain=True)
        stats = context.executor_statistics
        assert stats.rows_streamed == stats.rows_materialized > 0
        assert (
            f"  streaming: {stats.rows_streamed} row(s) streamed, "
            f"{stats.rows_short_circuited} short-circuited"
        ) in context.explain_lines()

    def test_streaming_fills_the_result_cache(self):
        db = build_mini_db("sqlite")
        from repro.engine import ResultCache as Cache

        cache = Cache(db)
        engine = QueryEngine(db, cache=cache)
        ranked = engine.rank("hanks 2001")
        first = TopKExecutor(db, per_query_limit=100, cache=cache)
        expected = first.execute(ranked, k=5)
        second = TopKExecutor(db, per_query_limit=100, cache=cache)
        actual = second.execute(ranked, k=5)
        assert second.statistics.interpretations_executed == 0
        assert second.statistics.sql_statements == 0
        assert second.statistics.cache_hits > 0
        assert [r.row_uids() for r in actual] == [r.row_uids() for r in expected]


class TestWALMode:
    """File-backed stores run WAL (the serving follow-on, now landed).

    WAL lets readers in *other* connections/processes proceed while the
    streaming cursor's long lock-hold is in progress — the property the
    multi-process TCP serving mode depends on.  Pinned here: the mode is
    actually set (main database and every shard), survives a reopen, and
    streamed execution on a WAL store stays byte-identical to batched.
    """

    def _journal_mode(self, backend, schema_prefix=""):
        prefix = f"{schema_prefix}." if schema_prefix else ""
        return backend._conn.execute(
            f"PRAGMA {prefix}journal_mode"
        ).fetchone()[0]

    def test_sqlite_file_store_is_wal(self, tmp_path):
        db = build_mini_db("sqlite", db_path=tmp_path / "wal.db")
        try:
            assert self._journal_mode(db) == "wal"
        finally:
            db.close()

    def test_sharded_store_is_wal_on_every_partition(self, tmp_path):
        path = tmp_path / "sharded.db"
        db = ShardedSQLiteBackend(mini_schema(), path=path, shards=3)
        try:
            assert self._journal_mode(db) == "wal"
            for shard in range(3):
                assert self._journal_mode(db, db.dialect.shard_schema(shard)) == "wal"
        finally:
            db.close()

    def test_wal_survives_reopen(self, tmp_path):
        from repro.db.backends import create_backend

        path = tmp_path / "reopen.db"
        build_mini_db("sqlite", db_path=path).close()
        db = create_backend("sqlite", mini_schema(), path=path)  # reopen only
        try:
            assert self._journal_mode(db) == "wal"
        finally:
            db.close()

    def test_memory_stores_have_no_wal(self):
        # :memory: databases cannot WAL; the pragma must not even be tried
        # (SQLite would answer "memory" anyway, but the hook skips it).
        db = build_mini_db("sqlite")
        try:
            assert self._journal_mode(db) == "memory"
        finally:
            db.close()

    @pytest.mark.parametrize("backend,shards", [("sqlite", None), ("sqlite-sharded", 2)])
    def test_streamed_equals_batched_on_wal_store(self, tmp_path, backend, shards):
        """The streaming parity pin, re-run on a WAL-mode file store."""
        from repro.db.backends import create_backend

        kwargs = {"shards": shards} if shards else {}
        db = create_backend(
            backend, mini_schema(), path=tmp_path / "parity.db", **kwargs
        )
        try:
            for row_source in (build_mini_db("memory"),):
                for table in ("actor", "movie", "acts"):
                    for tup in row_source.relation(table).scan():
                        db.insert(table, tup.as_dict())
            db.build_indexes()
            assert db._conn.execute("PRAGMA journal_mode").fetchone()[0] == "wal"
            for text in ("hanks 2001", "london", "2001"):
                specs = _specs(db, text)
                expected = db.execute_paths_batched(specs, limit=10)
                execution = db.execute_paths_streamed(specs, limit=10)
                assert _drain(execution, len(specs)) == expected.rows
        finally:
            db.close()
