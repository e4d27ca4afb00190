"""``StorageBackend.load``: a stream of rows stored as per-row inserts would
store them, in batches.

Before ``build_indexes()`` the SQLite backends write each chunk with one
``executemany`` per INSERT statement; after it, a load is one transaction
with one commit that the live index and statistics catalog observe row by
row.  ``tests/test_properties.py::TestLoadProperties`` checks the
equivalence with ``insert`` on generated streams; these tests pin the
commit points and the error prefix on files.
"""

from __future__ import annotations

import pytest

from repro.db.backends import create_backend
from repro.db.errors import IntegrityError, UnknownAttributeError, UnknownTableError
from repro.db.index import InvertedIndex
from repro.db.stats import StatisticsCatalog
from tests.conftest import build_mini_db, mini_schema

FILE_BACKENDS = ["sqlite", "sqlite-sharded"]


def _keys(db, table: str) -> list:
    return [tup.key for tup in db.relation(table)]


@pytest.mark.parametrize("backend", FILE_BACKENDS)
class TestPostBuildCommits:
    def test_insert_many_commits_once(self, backend, tmp_path):
        db = build_mini_db(backend, db_path=tmp_path / "store.sqlite")
        before = db.write_epoch
        db.insert_many(
            "actor", [{"id": 10 + i, "name": f"peter {i}"} for i in range(5)]
        )
        assert db.write_epoch == before + 1
        assert db.index.stats_snapshot() == (
            InvertedIndex(db.tokenizer).build(db).stats_snapshot()
        )
        assert db.statistics_catalog().export_state() == (
            StatisticsCatalog.collect(db).export_state()
        )
        db.close()

    def test_a_failed_row_leaves_the_rows_before_it_durable(self, backend, tmp_path):
        path = tmp_path / "store.sqlite"
        db = build_mini_db(backend, db_path=path)
        before = db.write_epoch
        rows = [
            ("actor", {"id": 10, "name": "peter falk"}),
            ("movie", {"id": 10, "title": "columbo", "year": "1971"}),
            ("actor", {"id": 1, "name": "a duplicate key"}),
            ("actor", {"id": 11, "name": "never stored"}),
        ]
        with pytest.raises(IntegrityError):
            db.load(iter(rows))
        assert db.write_epoch == before + 1
        assert _keys(db, "actor") == [1, 2, 3, 10]
        assert db.index.stats_snapshot() == (
            InvertedIndex(db.tokenizer).build(db).stats_snapshot()
        )
        # Committed without close(): a second backend on the file sees the
        # rows and resumes the same content fingerprint.
        other = create_backend(backend, mini_schema(), path=path)
        assert _keys(other, "actor") == [1, 2, 3, 10]
        assert _keys(other, "movie") == [1, 2, 3, 10]
        assert other.content_fingerprint() == db.content_fingerprint()
        other.close()
        db.close()


@pytest.mark.parametrize("backend", ["memory", *FILE_BACKENDS])
class TestBulkLoad:
    def test_returns_keys_and_assigns_auto_keys_past_unwritten_rows(self, backend):
        db = create_backend(backend, mini_schema())
        keys = db.load(
            [
                ("actor", {"name": "auto"}),
                ("actor", {"id": 1, "name": "explicit"}),
                ("actor", {"name": "auto again"}),
                ("movie", {"title": "auto movie"}),
            ]
        )
        assert keys == [0, 1, 2, 0]
        assert _keys(db, "actor") == [0, 1, 2]
        db.close()

    @pytest.mark.parametrize(
        "bad_row, error",
        [
            (("actor", {"id": 1, "name": "again"}), IntegrityError),
            (("actor", {"id": 7, "bogus": 1}), UnknownAttributeError),
            (("ghost", {"id": 7}), UnknownTableError),
        ],
    )
    def test_a_bad_row_stores_exactly_the_rows_before_it(
        self, backend, bad_row, error
    ):
        db = create_backend(backend, mini_schema())
        if hasattr(db, "LOAD_CHUNK_ROWS"):
            db.LOAD_CHUNK_ROWS = 2  # the bad row lands in the second chunk
        rows = [
            ("actor", {"id": 1, "name": "one"}),
            ("movie", {"id": 1, "title": "first"}),
            ("movie", {"id": 2, "title": "second"}),
            bad_row,
            ("movie", {"id": 3, "title": "never"}),
        ]
        with pytest.raises(error):
            db.load(rows)
        assert _keys(db, "actor") == [1]
        assert _keys(db, "movie") == [1, 2]
        db.close()

    def test_the_stream_is_written_as_it_is_consumed(self, backend):
        """No load reads its whole stream first: when row ``i`` is pulled,
        all but the rows of the chunk being prepared are stored."""
        db = create_backend(backend, mini_schema())
        if hasattr(db, "LOAD_CHUNK_ROWS"):
            db.LOAD_CHUNK_ROWS = 2
        stored_at_pull = []

        def rows():
            for i in range(7):
                stored_at_pull.append(len(db.relation("actor")))
                yield "actor", {"id": i, "name": f"actor {i}"}

        assert db.load(rows()) == list(range(7))
        assert all(stored >= i - 1 for i, stored in enumerate(stored_at_pull))
        assert _keys(db, "actor") == list(range(7))
        db.close()
