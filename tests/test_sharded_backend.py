"""The sqlite-sharded backend: parity, one statement per plan, store lifecycle.

The contract under test: ``sqlite-sharded`` returns **byte-identical rows**
to ``sqlite`` for every query — relation reads, single paths, batched
execution, whole engine pipelines on both bundled datasets — while
physically splitting every table across N attached partition files,
executing one statement per plan (every slot a ``UNION ALL`` of its
partitions) and attributing returned rows to the partition that stored them.
"""

from __future__ import annotations

from itertools import islice

import pytest

from repro.datasets.imdb import build_imdb
from repro.db.backends import ShardedSQLiteBackend, create_backend
from repro.db.backends.sharded import shard_of_key
from repro.db.errors import DatabaseError, IntegrityError
from repro.engine import EngineConfig, QueryEngine, ResultCache
from repro.db.backends.base import StreamedExecution
from tests.conftest import build_mini_db, drain_plan, mini_schema, plan_specs

QUERIES = ["hanks 2001", "london", "hanks", "2001", "stone hill", "summer"]


@pytest.fixture(autouse=True)
def fresh_process_cache():
    ResultCache.clear_process_cache()
    yield
    ResultCache.clear_process_cache()


def _result_rows(context):
    return [(r.score, r.interpretation_rank, r.row_uids()) for r in context.results]


def _mini_specs(db, query_text):
    engine = QueryEngine(db, config=EngineConfig(cache_results=False))
    ranked = engine.rank(query_text)
    return [interp.to_structured_query().path_spec() for interp, _p in ranked]


def _streamed(db, specs, pulls):
    """``(pairs, bookkeeping)`` of one streamed execution closed after
    ``pulls`` pairs (``None``: drained)."""
    execution = db.execute_paths_streamed(specs, limit=10)
    with execution.stream as stream:
        pairs = list(stream if pulls is None else islice(stream, pulls))
    return pairs, execution


def _prepared_plans(db, specs, limit):
    """``(solo plans, union members)`` as execution would plan them, with
    the specs the emptiness proof skips planned too."""
    return plan_specs(db, specs, StreamedExecution(), limit)


class TestShardedRelations:
    """Relation-level reads over partitions match the unsharded backend."""

    def test_scan_lookup_get_len_parity(self):
        db = build_mini_db("sqlite-sharded")
        ref = build_mini_db("sqlite")
        for table in ("actor", "movie", "acts"):
            relation, reference = db.relation(table), ref.relation(table)
            assert len(relation) == len(reference)
            assert [t.uid for t in relation] == [t.uid for t in reference]
            assert list(relation.keys()) == list(reference.keys())
        assert [t.key for t in db.relation("acts").lookup("actor_id", 1)] == [
            t.key for t in ref.relation("acts").lookup("actor_id", 1)
        ]
        assert db.relation("actor").get(2).get("name") == "colin hanks"
        assert db.relation("actor").get(99) is None

    def test_rows_actually_partition(self):
        """Rows land in the partition their key hashes to — and only there."""
        db = build_mini_db("sqlite-sharded")
        dialect = db.dialect
        for key in (1, 2, 3):
            shard = shard_of_key(key, db.shards)
            for candidate in range(db.shards):
                source = dialect.partition_source("actor", candidate)
                stored = db._conn.execute(
                    f"SELECT COUNT(*) FROM {source} WHERE id = ?", (key,)
                ).fetchone()[0]
                assert stored == (1 if candidate == shard else 0)

    def test_shard_routing_is_deterministic(self):
        assert shard_of_key("actor-key", 4) == shard_of_key("actor-key", 4)
        assert shard_of_key(True, 4) == shard_of_key(1, 4)  # normalized bools
        # SQLite compares numerics across int/real (3.0 IS 3), so routing
        # must collapse them too or get(3.0) would probe the wrong shard.
        assert shard_of_key(3.0, 4) == shard_of_key(3, 4)

    def test_get_with_numeric_key_aliases(self):
        """get() agrees with the other backends for ==-equal key spellings."""
        db = build_mini_db("sqlite-sharded")
        ref = build_mini_db("sqlite")
        for key in (3.0, True):
            assert (db.relation("actor").get(key) is None) == (
                ref.relation("actor").get(key) is None
            )
        assert db.relation("actor").get(3.0) == ref.relation("actor").get(3.0)

    def test_duplicate_key_raises(self):
        db = build_mini_db("sqlite-sharded")
        with pytest.raises(IntegrityError):
            db.insert("actor", {"id": 1, "name": "again"})

    def test_insert_after_build_stays_consistent(self):
        db = build_mini_db("sqlite-sharded")
        ref = build_mini_db("sqlite")
        for target in (db, ref):
            target.insert("actor", {"id": 9, "name": "hanks the third"})
        assert [t.uid for t in db.relation("actor")] == [
            t.uid for t in ref.relation("actor")
        ]
        assert db.index.stats_snapshot() == ref.index.stats_snapshot()
        assert db.selection_keys("actor", [("name", ("hanks",))]) == {1, 2, 9}


def _rowseqs(db, table: str) -> list[int]:
    """Every stored ``_rowseq`` of one table, across its partitions, sorted."""
    found: list[int] = []
    for shard in range(db.shards):
        source = db.dialect.partition_source(table, shard)
        found.extend(
            row[0] for row in db._conn.execute(f"SELECT _rowseq FROM {source}")
        )
    return sorted(found)


class TestPerTableRowseq:
    """``_rowseq`` is one sequence per table, not one per store."""

    def test_interleaved_inserts_number_each_table_from_zero(self, tmp_path):
        path = tmp_path / "seq.sqlite"
        db = create_backend("sqlite-sharded", mini_schema(), path=path, shards=3)
        for i in range(5):
            db.insert("actor", {"id": i, "name": f"actor {i}"})
            db.insert("movie", {"id": i, "title": f"movie {i}", "year": "2001"})
        assert _rowseqs(db, "actor") == list(range(5))
        assert _rowseqs(db, "movie") == list(range(5))
        db.close()

        reopened = create_backend("sqlite-sharded", mini_schema(), path=path, shards=3)
        reopened.insert("movie", {"id": 10, "title": "later", "year": "2002"})
        reopened.insert("actor", {"id": 10, "name": "later"})
        reopened.insert("movie", {"id": 11, "title": "later still", "year": "2003"})
        assert _rowseqs(reopened, "actor") == list(range(6))
        assert _rowseqs(reopened, "movie") == list(range(7))
        assert [t.key for t in reopened.relation("movie")] == [0, 1, 2, 3, 4, 10, 11]
        reopened.close()

    def test_a_built_dataset_numbers_each_table_from_zero(self):
        db = build_imdb(backend="sqlite-sharded", shards=3)
        assert _rowseqs(db, "movie") == list(range(150))
        assert _rowseqs(db, "acts") == list(range(450))


class TestShardedExecution:
    """One statement per plan over partitions: same rows, same counts."""

    @pytest.mark.parametrize("limit", [None, 1, 3, 0])
    def test_execute_path_matches_unsharded(self, limit):
        db = build_mini_db("sqlite-sharded")
        ref = build_mini_db("sqlite")
        for query_text in ("hanks 2001", "london", "hanks"):
            for spec in _mini_specs(ref, query_text):
                assert db.execute_path(*spec, limit=limit) == ref.execute_path(
                    *spec, limit=limit
                )

    @pytest.mark.parametrize("on_file", [False, True], ids=["memory", "file"])
    @pytest.mark.parametrize("read_pool_size", [1, None, 8])
    def test_batched_matches_unsharded_with_shard_statements(
        self, read_pool_size, on_file, tmp_path
    ):
        """One statement shape: every pool size, on a file and in ``:memory:``,
        streams what the default ``:memory:`` store streams — rows, statement
        count, shard attribution and cursor overrun alike, drained or cut."""
        db = build_mini_db(
            ShardedSQLiteBackend(
                mini_schema(),
                path=tmp_path / "store.sqlite" if on_file else None,
                read_pool_size=read_pool_size,
            )
        )
        control = build_mini_db("sqlite-sharded")
        ref = build_mini_db("sqlite")
        specs = _mini_specs(ref, "hanks 2001")
        assert len(specs) >= 2
        for pulls in (None, 1):
            pairs, streamed = _streamed(db, specs, pulls)
            expected_pairs, expected = _streamed(control, specs, pulls)
            assert repr(pairs) == repr(expected_pairs)
            assert streamed.statements == expected.statements
            assert streamed.shard_rows == expected.shard_rows
            assert streamed.rows_short_circuited == expected.rows_short_circuited
        assert streamed.rows_short_circuited > 0  # the cut left a chunk behind
        batched = db.execute_paths_batched(specs, limit=10)
        reference = ref.execute_paths_batched(specs, limit=10)
        assert batched.rows == reference.rows
        # One statement serves the whole batch, as on the single file.
        assert batched.statements == reference.statements == 1
        assert batched.batched_indexes == list(range(len(specs)))
        total = sum(len(rows) for rows in batched.rows)
        assert sum(batched.shard_rows.values()) == total
        pool = db._reader_pool()
        assert (pool is not None) == on_file
        if on_file:
            # A plan is one statement on one leased reader.
            assert pool.size == (read_pool_size or db.DEFAULT_READ_POOL_SIZE)
            leases = pool.leases
            db.execute_path(*specs[0], limit=10)
            assert pool.leases - leases == 1
            assert pool.peak_concurrency == 1
            assert pool.waits == pool._active == 0
        db.close()

    def test_post_filter_fallback_matches_unsharded(self, monkeypatch):
        from repro.db.backends import sql as sql_module

        monkeypatch.setattr(sql_module, "MAX_INLINE_KEYS", 1)
        db = build_mini_db("sqlite-sharded")
        ref = build_mini_db("sqlite")
        specs = _mini_specs(ref, "hanks 2001")
        batched = db.execute_paths_batched(specs, limit=10)
        reference = ref.execute_paths_batched(specs, limit=10)
        assert batched.rows == reference.rows
        assert batched.fallbacks.keys() == reference.fallbacks.keys()
        # Every fallback spec is one statement here too, whatever its keys.
        assert reference.fallbacks and reference.statements > 1
        assert batched.statements == reference.statements

    def test_provably_empty_spec_costs_no_statement(self):
        db = build_mini_db("sqlite-sharded")
        specs = _mini_specs(db, "hanks")
        path, edges, _selections = specs[0]
        empty_spec = (path, edges, {0: [("name", ("notaterm",))]})
        batched = db.execute_paths_batched([empty_spec], limit=10)
        assert batched.rows == [[]]
        assert batched.statements == 0


class TestJoinCompilation:
    """What partitioned plans compile to — and what the unsharded dialect
    keeps compiling to."""

    def test_no_join_slot_reads_an_all_shards_union(self):
        db = build_mini_db("sqlite-sharded")
        union = db.dialect.table_source("acts")
        checked = 0
        for query_text in ("hanks 2001", "london"):
            specs = _mini_specs(db, query_text)
            solo, members = _prepared_plans(db, specs, 10)
            statements = [
                db.compiler.compile_path(plan) for _index, plan in [*solo, *members]
            ]
            if members:
                statements.append(db.compiler.compile_union(members))
            for statement in statements:
                assert union not in statement.sql
                assert statement.sql.count("?") == len(statement.params)
                checked += " AS MATERIALIZED (" in statement.sql
        assert checked >= 4  # chains were compiled, solo and inside unions
        # Relation-level reads are what the union is still for.
        assert union in db.relation("acts")._scan_sql
        assert union in db.relation("acts")._get_sql

    def test_every_slot_is_one_arm_per_partition(self):
        """Seed slot included, single-slot plans included: ``r<slot>`` is a
        UNION ALL over all partitions, and only the seed slot's arms project
        the partition literal the row count reads."""
        db = build_mini_db("sqlite-sharded")
        solo, members = _prepared_plans(db, _mini_specs(db, "hanks 2001"), 10)
        for _index, plan in [*solo, *members]:
            sql = db.compiler.compile_path(plan).sql
            entries = sql.split(" AS MATERIALIZED (\n")[1:]
            assert len(entries) == len(plan.path)
            for entry in entries:
                arms = entry.split("\n)")[0].split("\nUNION ALL\n")
                assert len(arms) == db.shards
                for shard, arm in enumerate(arms):
                    assert f'FROM "shard{shard}".' in arm
            assert sql.count(' AS "_partition"') == db.shards
            assert sql.count(f't{plan.scatter_position}."_partition"') == 1

    def test_statement_text_depends_on_shape_not_on_key_counts(self):
        """Two plans alike in everything but their key sets — how many keys,
        which keys, which partitions those live in — compile to the *same*
        text: the text SQLite prepared for one serves the other, whatever
        the key sets resolve to next time."""
        from dataclasses import replace

        db = build_mini_db("sqlite-sharded")
        compared = 0
        for query_text in ("hanks 2001", "london", "hanks"):
            solo, members = _prepared_plans(db, _mini_specs(db, query_text), 10)
            for _index, plan in [*solo, *members]:
                if not plan.inline_filters:
                    continue
                variants = [
                    replace(
                        plan,
                        inline_filters=tuple(
                            (position, keys) for position, _k in plan.inline_filters
                        ),
                    )
                    for keys in ((1,), (2,), (3,), (1, 2, 3, 1001, 1002, "x"))
                ]
                homes = {shard_of_key(v.inline_filters[0][1][0], db.shards) for v in variants}
                assert len(homes) > 1  # the single keys live in different partitions
                small = db.compiler.compile_path(plan)
                for variant in variants:
                    large = db.compiler.compile_path(variant)
                    assert small.sql == large.sql
                    assert len(small.params) == len(large.params)
                    assert small.params != large.params or variant == plan
                    compared += 1
        assert compared >= 6

    @pytest.mark.parametrize(
        "padded, expected",
        [
            (True, "f0102ac1b9b8a52d536f0acfb7f5b627e036518de3baf8c10247680f2dee610c"),
            (False, "2e9a19ce1f9a46b07f7b34a1d5f2e352e6b5bac2412c7f69dfdc15bd24c1940d"),
        ],
        ids=["padded", "unpadded"],
    )
    def test_unsharded_sql_is_byte_identical_to_the_recorded_digest(
        self, padded, expected, monkeypatch
    ):
        """Every statement ``SQLiteDialect`` compiles over the bundled IMDB
        workload — each plan solo, each batch as its UNION ALL — hashes to a
        recorded digest.  The text changed by design twice: when key lists
        began to pad to a power of two, and when plans stopped being
        reordered by estimated slot size.  Both digests are what the
        compiler produced with that reordering switched off, before it was
        deleted — joining in path order is the only change, and the text
        memo returns what a from-scratch compile does."""
        import hashlib

        from repro.datasets.workload import imdb_workload
        from repro.db.backends import sql as sql_module

        if not padded:
            monkeypatch.setattr(sql_module, "_pad_to_power_of_two", tuple)
        db = build_imdb(backend="sqlite")
        engine = QueryEngine(db, config=EngineConfig(cache_results=False))
        digest = hashlib.sha256()
        for item in imdb_workload(build_imdb(), n_queries=40, seed=5):
            specs = [
                interp.to_structured_query().path_spec()
                for interp, _p in engine.rank(str(item.query))
            ]
            solo, members = _prepared_plans(db, specs, 5)
            compiled = [
                db.compiler.compile_path(plan) for _index, plan in [*solo, *members]
            ]
            if members:
                compiled.append(db.compiler.compile_union(members))
            for statement in compiled:
                digest.update(statement.sql.encode("utf-8"))
                digest.update(repr(statement.params).encode("utf-8"))
        assert digest.hexdigest() == expected


class TestShardedEngineParity:
    """Whole-pipeline row parity on both bundled datasets (acceptance)."""

    @pytest.mark.parametrize("dataset", ["imdb", "lyrics"])
    def test_sharded_engine_matches_sqlite_engine(self, dataset):
        unsharded = QueryEngine.for_dataset(
            dataset, backend="sqlite", config=EngineConfig(cache_results=False)
        )
        sharded = QueryEngine.for_dataset(
            dataset,
            backend="sqlite-sharded",
            shards=3,
            config=EngineConfig(cache_results=False),
        )
        for query_text in QUERIES:
            expected = unsharded.run(query_text, k=5)
            actual = sharded.run(query_text, k=5)
            assert _result_rows(actual) == _result_rows(expected), (
                dataset,
                query_text,
            )

    def test_one_text_per_shape_across_a_workload(self, tmp_path):
        """150 workload queries issue a couple of hundred statements but
        only a couple of dozen distinct texts — what lets ``sqlite3``'s statement
        cache skip their millisecond prepares — and the rows are still the
        other backends' rows."""
        from repro.datasets.workload import imdb_workload

        queries = [
            str(item.query)
            for item in imdb_workload(build_imdb(), n_queries=150, seed=5)
        ]
        config = EngineConfig(cache_results=False)
        sharded = QueryEngine.for_dataset(
            "imdb",
            backend="sqlite-sharded",
            shards=3,
            db_path=tmp_path / "store.sqlite",
            config=config,
        )
        references = [
            QueryEngine.for_dataset("imdb", backend=backend, config=config)
            for backend in ("sqlite", "memory")
        ]
        texts = []
        iter_cursor = sharded.backend._iter_cursor

        def recording(conn, statement, execution):
            texts.append(statement.sql)
            return iter_cursor(conn, statement, execution)

        sharded.backend._iter_cursor = recording
        for query_text in queries:
            rows = _result_rows(sharded.run(query_text, k=5))
            for reference in references:
                assert _result_rows(reference.run(query_text, k=5)) == rows, query_text
        sharded.backend.close()
        assert len(texts) > 150
        assert len(set(texts)) <= 0.25 * len(texts), (len(set(texts)), len(texts))

    def test_shard_attribution_reaches_explain(self):
        """``shard_rows`` counts *delivered* rows, and the executor drains
        every interpretation it starts: exactly the rows it streamed."""
        engine = QueryEngine.for_dataset(
            "imdb",
            backend="sqlite-sharded",
            shards=3,
            config=EngineConfig(cache_results=False),
        )
        context = engine.run("london", k=5, explain=True)
        stats = context.executor_statistics
        assert stats.rows_materialized > 0
        assert sum(stats.shard_rows.values()) == stats.rows_materialized
        assert stats.rows_short_circuited == 0
        text = "\n".join(context.explain_lines())
        assert "rows per shard: " in text
        assert "shard2:" in text  # all three shards contributed on "london"
        assert "scatter slot #" in text  # the chooser names every consumed slot

    def test_read_pool_explain_line_is_exact(self, tmp_path):
        """One executed plan is one lease of one reader, whatever the shard
        count — and the pool is as large as it was asked to be."""
        engine = QueryEngine.for_dataset(
            "imdb",
            backend="sqlite-sharded",
            shards=3,
            db_path=tmp_path / "store.sqlite",
        )
        lines = engine.run("london", k=5, explain=True).explain_lines()
        assert "  sql statements: 1, 0 proved empty (no SQL)" in lines
        assert (
            "  read pool: 1 lease(s), 0 wait(s), peak 1 concurrent (size 4)" in lines
        )
        engine.backend.close()

    def test_one_statement_per_executed_interpretation(self):
        """One statement per executed interpretation that is not proved
        empty (a proved-empty one costs none), where the memory reference,
        which proves nothing, pays exactly one each.  "london 2001" still
        runs a statement, so its seed slot is a real plan's; every
        interpretation of "hanks 2001" is proved empty."""
        engine = QueryEngine.for_dataset(
            "imdb",
            backend="sqlite-sharded",
            shards=2,
            config=EngineConfig(cache_results=False),
        )
        reference = QueryEngine.for_dataset(
            "imdb", backend="memory", config=EngineConfig(cache_results=False)
        )
        for query_text, statements, proved_empty in (
            ("london 2001", 1, 6),
            ("hanks 2001", 0, 4),
        ):
            stats = engine.run(query_text, k=5).executor_statistics
            sequential = reference.run(query_text, k=5).executor_statistics
            assert (stats.sql_statements, stats.proved_empty) == (
                statements,
                proved_empty,
            ), query_text
            assert stats.sql_statements == (
                stats.interpretations_executed - stats.proved_empty
            )
            # One seed-slot line per planned interpretation, none for more.
            assert len(stats.scatter_slots) == stats.sql_statements
            assert set(stats.scatter_slots) <= set(stats.attribution)
            assert sequential.sql_statements == sequential.interpretations_executed
            assert sequential.proved_empty == 0
            assert stats.interpretations_executed == sequential.interpretations_executed
        engine.backend.close()

    def test_executes_exactly_the_sequential_interpretations(self):
        """The bound is checked before every interpretation, so the sharded
        backend runs precisely the interpretations the memory reference
        runs — identical rows, never more than one statement per executed
        interpretation."""
        reference = QueryEngine.for_dataset(
            "imdb", backend="memory", config=EngineConfig(cache_results=False)
        )
        sharded = QueryEngine.for_dataset(
            "imdb",
            backend="sqlite-sharded",
            shards=2,
            config=EngineConfig(cache_results=False),
        )
        for query_text in QUERIES:
            expected = reference.run(query_text, k=5)
            actual = sharded.run(query_text, k=5)
            assert _result_rows(actual) == _result_rows(expected), query_text
            stats = actual.executor_statistics
            sequential = expected.executor_statistics
            assert (
                stats.interpretations_executed == sequential.interpretations_executed
            )
            assert stats.sql_statements <= stats.interpretations_executed


class TestShardedStoreLifecycle:
    def test_partition_files_and_reuse(self, tmp_path):
        path = tmp_path / "imdb.sqlite"
        kwargs = dict(seed=7, n_movies=30, n_actors=18, n_directors=6, n_companies=5)
        built = build_imdb(backend="sqlite-sharded", db_path=path, shards=2, **kwargs)
        snapshot = built.require_index().stats_snapshot()
        reference_rows = build_imdb(**kwargs)
        query = (["movie"], [], {0: [("title", ("stone",))]})
        expected = reference_rows.execute_path(*query)
        assert built.execute_path(*query) == expected
        built.close()
        for shard in range(2):
            assert (tmp_path / f"imdb.sqlite.shard{shard}").exists()

        reopened = build_imdb(
            backend="sqlite-sharded", db_path=path, shards=2, **kwargs
        )
        assert reopened.require_index().stats_snapshot() == snapshot
        assert reopened.execute_path(*query) == expected
        reopened.close()

    def test_reuse_with_different_generation_params_refuses(self, tmp_path):
        path = tmp_path / "imdb.sqlite"
        kwargs = dict(seed=7, n_movies=30, n_actors=18, n_directors=6, n_companies=5)
        build_imdb(backend="sqlite-sharded", db_path=path, shards=2, **kwargs).close()
        with pytest.raises(ValueError, match="different IMDB instance"):
            build_imdb(
                backend="sqlite-sharded", db_path=path, shards=2,
                **{**kwargs, "n_movies": 31},
            )

    def test_shard_count_mismatch_fails_fast(self, tmp_path):
        path = tmp_path / "mini.sqlite"
        build_mini_db("sqlite-sharded", db_path=path).close()
        with pytest.raises(DatabaseError, match="built with 2 shard"):
            create_backend("sqlite-sharded", mini_schema(), path=path, shards=5)
        # The rejected open must not leave stray shard files behind.
        assert not (tmp_path / "mini.sqlite.shard4").exists()

    def test_old_sqlite_fails_fast_without_debris(self, tmp_path, monkeypatch):
        """Scatter statements need ``AS MATERIALIZED`` (SQLite 3.35): an
        older library is refused before any file or ATTACH exists."""
        import sqlite3

        monkeypatch.setattr(sqlite3, "sqlite_version_info", (3, 34, 1))
        with pytest.raises(DatabaseError, match=r"SQLite >= 3\.35\.0"):
            create_backend("sqlite-sharded", mini_schema(), path=tmp_path / "m.sqlite")
        assert list(tmp_path.iterdir()) == []

    def test_sqlite_without_json1_fails_fast_without_debris(self, tmp_path, monkeypatch):
        """Scatter statements bind every key set through ``json_each``: a
        SQLite built without JSON1 is refused by name, before any ATTACH."""
        import sqlite3

        def no_json1(self):
            raise sqlite3.OperationalError("no such table: json_each")

        monkeypatch.setattr(ShardedSQLiteBackend, "_probe_json1", no_json1)
        with pytest.raises(DatabaseError, match="JSON1.*json_each"):
            create_backend("sqlite-sharded", mini_schema(), path=tmp_path / "m.sqlite")
        assert not list(tmp_path.glob("*.shard*"))
        # The refusal released the file's lock and connection: the same path
        # opens once the probe passes.
        monkeypatch.undo()
        create_backend("sqlite-sharded", mini_schema(), path=tmp_path / "m.sqlite").close()

    def test_missing_partition_file_fails_fast(self, tmp_path):
        """Only the catalog survived (e.g. a partial backup): refuse to open
        rather than silently serve the remaining half of the store."""
        path = tmp_path / "mini.sqlite"
        build_mini_db("sqlite-sharded", db_path=path).close()
        (tmp_path / "mini.sqlite.shard0").unlink()
        with pytest.raises(DatabaseError, match="missing partition file"):
            create_backend("sqlite-sharded", mini_schema(), path=path)
        # ...and the failed open must not have recreated it as an empty db.
        assert not (tmp_path / "mini.sqlite.shard0").exists()

    def test_backend_mixups_fail_fast(self, tmp_path):
        sharded_path = tmp_path / "sharded.sqlite"
        plain_path = tmp_path / "plain.sqlite"
        build_mini_db("sqlite-sharded", db_path=sharded_path).close()
        build_mini_db("sqlite", db_path=plain_path).close()
        with pytest.raises(DatabaseError, match="hash-partitioned"):
            create_backend("sqlite", mini_schema(), path=sharded_path)
        with pytest.raises(DatabaseError, match="plain .unsharded."):
            create_backend("sqlite-sharded", mini_schema(), path=plain_path)

    def test_shards_rejected_for_unsupporting_backends(self):
        with pytest.raises(ValueError, match="does not support sharding"):
            create_backend("memory", mini_schema(), shards=2)
        with pytest.raises(ValueError, match="does not support sharding"):
            create_backend("sqlite", mini_schema(), shards=2)
        instance = build_mini_db("memory")
        with pytest.raises(ValueError, match="existing backend instance"):
            create_backend(instance, mini_schema(), shards=2)

    def test_invalid_shard_counts(self):
        with pytest.raises(ValueError, match="shards must be positive"):
            ShardedSQLiteBackend(mini_schema(), shards=0)

    def test_single_shard_degenerates_gracefully(self):
        ref = build_mini_db("sqlite")
        one = _populated_sharded(shards=1)
        specs = _mini_specs(ref, "hanks 2001")
        batched = one.execute_paths_batched(specs, limit=10)
        assert batched.rows == ref.execute_paths_batched(specs, limit=10).rows
        assert batched.statements == 1

    def test_fingerprint_refuses_layout_params(self):
        from repro.datasets import _store

        with pytest.raises(ValueError, match="storage-layout"):
            _store.fingerprint("imdb", seed=7, shards=2)


def _populated_sharded(shards: int) -> ShardedSQLiteBackend:
    """The mini dataset on a sharded store with an explicit shard count."""
    db = ShardedSQLiteBackend(mini_schema(), shards=shards)
    reference = build_mini_db("memory")
    reference.copy_into(db)
    db.build_indexes()
    return db
