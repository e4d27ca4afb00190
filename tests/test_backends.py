"""Unit tests of the storage-backend layer: registry + SQLite engine."""

from __future__ import annotations

import pytest

from repro.db.backends import (
    MemoryBackend,
    SQLiteBackend,
    StorageBackend,
    available_backends,
    create_backend,
    register_backend,
)
from repro.db.backends import sql as sql_module
from repro.db.errors import (
    DatabaseError,
    IntegrityError,
    UnknownAttributeError,
    UnknownTableError,
)
from repro.db.schema import Attribute, Schema, Table
from tests.conftest import build_mini_db, mini_schema


class TestRegistry:
    def test_available_backends(self):
        assert available_backends() == ["memory", "sqlite", "sqlite-sharded"]

    def test_create_by_name(self):
        assert isinstance(create_backend("memory", mini_schema()), MemoryBackend)
        assert isinstance(create_backend("sqlite", mini_schema()), SQLiteBackend)

    def test_instance_passthrough(self):
        db = MemoryBackend(mini_schema())
        assert create_backend(db, mini_schema()) is db

    def test_unknown_backend(self):
        with pytest.raises(ValueError, match="unknown backend"):
            create_backend("postgres", mini_schema())

    def test_path_on_memory_backend_rejected(self):
        with pytest.raises(ValueError, match="does not support a storage path"):
            create_backend("memory", mini_schema(), path="/tmp/nope.db")

    def test_register_requires_concrete_name(self):
        class Nameless(StorageBackend):
            pass

        with pytest.raises(ValueError):
            register_backend(Nameless)

    def test_database_is_memory_backend(self):
        from repro.db import Database

        assert Database is MemoryBackend


class TestSQLiteRelation:
    def test_insert_get_len_scan(self):
        db = build_mini_db("sqlite")
        relation = db.relation("actor")
        assert len(relation) == 3
        assert relation.get(2).get("name") == "colin hanks"
        assert relation.get(99) is None
        assert [t.key for t in relation] == [1, 2, 3]
        assert list(relation.keys()) == [1, 2, 3]

    def test_lookup(self):
        db = build_mini_db("sqlite")
        matches = db.relation("acts").lookup("actor_id", 1)
        assert [t.key for t in matches] == [1, 2]
        assert db.relation("acts").lookup("actor_id", 77) == []

    def test_auto_key_assignment(self):
        db = create_backend("sqlite", mini_schema())
        first = db.insert("actor", {"name": "anonymous"})
        second = db.insert("actor", {"name": "also anonymous"})
        assert first.key == 0
        assert second.key == 1

    def test_duplicate_key_raises(self):
        db = build_mini_db("sqlite")
        with pytest.raises(IntegrityError):
            db.insert("actor", {"id": 1, "name": "again"})

    def test_unknown_attribute_raises(self):
        db = build_mini_db("sqlite")
        with pytest.raises(UnknownAttributeError):
            db.insert("actor", {"id": 9, "salary": 1})

    def test_unknown_table_raises(self):
        db = build_mini_db("sqlite")
        with pytest.raises(UnknownTableError):
            db.relation("studio")

    def test_missing_attributes_become_none(self):
        db = create_backend("sqlite", mini_schema())
        tup = db.insert("movie", {"id": 1, "title": "untitled"})
        assert tup.get("year") is None
        assert db.relation("movie").get(1).get("year") is None


class TestSQLitePersistence:
    def test_roundtrip_reuses_stored_rows(self, tmp_path):
        path = tmp_path / "mini.sqlite"
        original = build_mini_db("sqlite", db_path=path)
        snapshot = original.require_index().stats_snapshot()
        original.close()

        reopened = create_backend("sqlite", mini_schema(), path=path)
        assert reopened.has_rows()
        assert reopened.total_tuples() == 10
        # Index statistics are rebuilt from the stored tables, without any
        # re-ingestion, and match the original build exactly.
        assert reopened.require_index().stats_snapshot() == snapshot
        reopened.close()

    def test_fresh_file_is_empty(self, tmp_path):
        db = create_backend("sqlite", mini_schema(), path=tmp_path / "empty.sqlite")
        assert not db.has_rows()
        db.close()

    def test_schema_mismatch_fails_fast(self, tmp_path):
        path = tmp_path / "mini.sqlite"
        build_mini_db("sqlite", db_path=path).close()
        other = Schema()
        other.add_table(Table("actor", [Attribute("stage_name"), Attribute("id", textual=False)]))
        with pytest.raises(DatabaseError, match="stored table"):
            SQLiteBackend(other, path=path)

    def test_context_manager_commits(self, tmp_path):
        path = tmp_path / "ctx.sqlite"
        with create_backend("sqlite", mini_schema(), path=path) as db:
            db.insert("actor", {"id": 1, "name": "tom hanks"})
        reopened = create_backend("sqlite", mini_schema(), path=path)
        assert reopened.has_rows()
        reopened.close()

    def test_dataset_builder_skips_generation(self, tmp_path):
        from repro.datasets.imdb import build_imdb

        path = tmp_path / "imdb.sqlite"
        first = build_imdb(n_movies=20, n_actors=12, backend="sqlite", db_path=path)
        totals = first.total_tuples()
        first.close()
        # Re-opening with the same parameters loads the stored rows.
        again = build_imdb(n_movies=20, n_actors=12, backend="sqlite", db_path=path)
        assert again.total_tuples() == totals
        again.close()

    def test_dataset_builder_rejects_mismatched_store(self, tmp_path):
        from repro.datasets.imdb import build_imdb

        path = tmp_path / "imdb.sqlite"
        build_imdb(n_movies=20, n_actors=12, backend="sqlite", db_path=path).close()
        # Asking for a differently sized instance from the same file must not
        # silently return the stored one.
        with pytest.raises(ValueError, match="different IMDB instance"):
            build_imdb(n_movies=5, n_actors=3, backend="sqlite", db_path=path)

    def test_dataset_builder_rejects_different_seed(self, tmp_path):
        """Same sizes, different seed: counts match, the fingerprint must not."""
        from repro.datasets.imdb import build_imdb

        path = tmp_path / "imdb.sqlite"
        build_imdb(seed=7, n_movies=10, n_actors=6, backend="sqlite", db_path=path).close()
        with pytest.raises(ValueError, match="generation parameters differ"):
            build_imdb(seed=8, n_movies=10, n_actors=6, backend="sqlite", db_path=path)

    def test_negative_limit_rejected_on_both_backends(self):
        for backend in ("memory", "sqlite"):
            db = build_mini_db(backend)
            with pytest.raises(ValueError, match="non-negative"):
                db.execute_path(["actor"], [], limit=-1)


class TestSQLiteExecution:
    @staticmethod
    def _actor_movie(db):
        schema = db.schema
        e1 = schema.join_edges("actor", "acts")[0]
        e2 = schema.join_edges("acts", "movie")[0]
        return ["actor", "acts", "movie"], [e1, e2]

    def test_limit_pushdown(self):
        db = build_mini_db("sqlite")
        path, edges = self._actor_movie(db)
        rows = db.execute_path(path, edges, limit=2)
        assert len(rows) == 2
        assert db.has_results(path, edges)

    def test_empty_selection_short_circuits(self):
        db = build_mini_db("sqlite")
        path, edges = self._actor_movie(db)
        assert db.execute_path(path, edges, {0: [("name", ("zzz",))]}) == []

    def test_arity_mismatch(self):
        db = build_mini_db("sqlite")
        path, edges = self._actor_movie(db)
        with pytest.raises(ValueError):
            db.execute_path(path, edges[:1])

    def test_wrong_edge_raises(self):
        db = build_mini_db("sqlite")
        e1 = db.schema.join_edges("actor", "acts")[0]
        with pytest.raises(ValueError):
            db.execute_path(["actor", "movie"], [e1])

    def test_unknown_selection_attribute(self):
        db = build_mini_db("sqlite")
        path, edges = self._actor_movie(db)
        with pytest.raises(UnknownTableError):
            db.execute_path(path, edges, {0: [("salary", ("10",))]})

    def test_large_key_sets_post_filtered(self, monkeypatch):
        """Key sets above the SQL parameter budget fall back to Python filtering."""
        monkeypatch.setattr(sql_module, "MAX_INLINE_KEYS", 1)
        db = build_mini_db("sqlite")
        path, edges = self._actor_movie(db)
        sel = {0: [("name", ("hanks",))], 2: [("year", ("2001",))]}
        rows = db.execute_path(path, edges, sel)
        assert {tuple(t.uid for t in r) for r in rows} == {
            (("actor", 1), ("acts", 2), ("movie", 2)),
            (("actor", 2), ("acts", 3), ("movie", 2)),
        }
        assert len(db.execute_path(path, edges, sel, limit=1)) == 1

    def test_add_table_after_build(self):
        db = build_mini_db("sqlite")
        db.add_table(Table("award", [Attribute("title"), Attribute("id", textual=False)]))
        db.insert("award", {"id": 1, "title": "best hanks impression"})
        assert len(db.relation("award")) == 1
        assert "award" in db.index.tables_containing("hanks")


class TestLimitOrderParity:
    """``limit`` must truncate to the same rows on every backend.

    The in-memory engine orders selected tuples like ``repr(key)`` ('10' <
    '2'), not insertion order — keys 2 and 10 tell the two apart.
    """

    @staticmethod
    def _two_actor_db(backend):
        db = create_backend(backend, mini_schema())
        db.insert("actor", {"id": 2, "name": "foo bar"})
        db.insert("actor", {"id": 10, "name": "foo baz"})
        db.insert("movie", {"id": 1, "title": "x", "year": "2000"})
        db.insert("acts", {"id": 1, "actor_id": 2, "movie_id": 1, "role": "a"})
        db.insert("acts", {"id": 2, "actor_id": 10, "movie_id": 1, "role": "b"})
        db.build_indexes()
        return db

    def test_selected_base_limit(self):
        mem = self._two_actor_db("memory")
        sq = self._two_actor_db("sqlite")
        sel = {0: [("name", ("foo",))]}
        for limit in (1, 2, None):
            mem_rows = mem.execute_path(["actor"], [], sel, limit=limit)
            sq_rows = sq.execute_path(["actor"], [], sel, limit=limit)
            assert [r[0].key for r in sq_rows] == [r[0].key for r in mem_rows]

    def test_join_path_limit(self):
        mem = self._two_actor_db("memory")
        sq = self._two_actor_db("sqlite")
        path = ["movie", "acts", "actor"]
        e1 = mem.schema.join_edges("acts", "movie")[0]
        e2 = mem.schema.join_edges("acts", "actor")[0]
        sel = {2: [("name", ("foo",))]}
        for limit in (1, 2, None):
            mem_rows = mem.execute_path(path, [e1, e2], sel, limit=limit)
            sq_rows = sq.execute_path(path, [e1, e2], sel, limit=limit)
            assert [tuple(t.uid for t in r) for r in sq_rows] == [
                tuple(t.uid for t in r) for r in mem_rows
            ]


    def test_string_key_limit(self):
        """repr()-based key order must hold for string keys too ('ab c' < 'ab')."""

        def build(backend):
            schema = Schema()
            schema.add_table(Table("a", [Attribute("t"), Attribute("id", textual=False)]))
            db = create_backend(backend, schema)
            db.insert("a", {"id": "ab", "t": "hello x"})
            db.insert("a", {"id": "ab c", "t": "hello y"})
            db.build_indexes()
            return db

        mem, sq = build("memory"), build("sqlite")
        sel = {0: [("t", ("hello",))]}
        for limit in (1, 2):
            mem_rows = mem.execute_path(["a"], [], sel, limit=limit)
            sq_rows = sq.execute_path(["a"], [], sel, limit=limit)
            assert [r[0].key for r in sq_rows] == [r[0].key for r in mem_rows]


class TestValueFidelity:
    def test_bool_values_normalized_before_indexing(self, tmp_path):
        """Live indexing must see what a reopen rebuild will see (bool -> int)."""
        path = tmp_path / "b.sqlite"
        schema = Schema()
        schema.add_table(Table("flags", [Attribute("v"), Attribute("id", textual=False)]))
        db = create_backend("sqlite", schema, path=path)
        db.build_indexes()
        db.insert("flags", {"id": 1, "v": True})
        live = db.index.stats_snapshot()
        db.close()
        schema2 = Schema()
        schema2.add_table(Table("flags", [Attribute("v"), Attribute("id", textual=False)]))
        reopened = create_backend("sqlite", schema2, path=path)
        assert reopened.require_index().stats_snapshot() == live
        reopened.close()

    def test_unstorable_value_raises_database_error(self):
        db = build_mini_db("sqlite")
        with pytest.raises(DatabaseError):
            db.insert("actor", {"id": 50, "name": ["not", "a", "scalar"]})


def test_copy_into_sqlite():
    memory = build_mini_db("memory")
    sqlite = memory.copy_into(create_backend("sqlite", mini_schema()))
    sqlite.build_indexes()
    assert sqlite.total_tuples() == memory.total_tuples()
    assert sqlite.index.stats_snapshot() == memory.index.stats_snapshot()
