"""Persisted inverted-index postings (SQLite side tables).

``SQLiteBackend.build_indexes()`` on a reopened store must load the stored
postings — producing an index indistinguishable from a from-scratch rebuild —
and must *refuse* them whenever the store content or the index configuration
no longer matches what they were built under.
"""

from __future__ import annotations

import sqlite3

import pytest

from repro.db.backends.sqlite import SQLiteBackend
from repro.db.index import InvertedIndex
from repro.db.tokenizer import DEFAULT_STOPWORDS, Tokenizer
from tests.conftest import build_mini_db, mini_schema


def _reopen(path, **kwargs) -> SQLiteBackend:
    return SQLiteBackend(mini_schema(), path=path, **kwargs)


@pytest.fixture
def populated_path(tmp_path):
    path = tmp_path / "mini.sqlite"
    build_mini_db("sqlite", db_path=path).close()
    return path


def test_export_restore_round_trip(mini_db):
    index = mini_db.require_index()
    clone = InvertedIndex.restore(
        index.export_state(), tokenizer=index.tokenizer, alpha=index.alpha
    )
    assert clone.stats_snapshot() == index.stats_snapshot()
    assert clone.atf("hanks", "actor", "name") == index.atf("hanks", "actor", "name")


class TestPersistedPostings:
    def test_loaded_index_equals_rebuilt(self, populated_path):
        loaded_db = _reopen(populated_path)
        loaded = loaded_db.build_indexes()
        rebuilt_db = _reopen(populated_path, persist_index=False)
        rebuilt = rebuilt_db.build_indexes()
        assert loaded.stats_snapshot() == rebuilt.stats_snapshot()
        loaded_db.close()
        rebuilt_db.close()

    def test_cold_open_does_not_scan(self, populated_path, monkeypatch):
        def forbidden(self, database):  # pragma: no cover - failure path
            raise AssertionError("cold open fell back to a full index rebuild")

        monkeypatch.setattr(InvertedIndex, "build", forbidden)
        db = _reopen(populated_path)
        index = db.build_indexes()
        assert index.tuple_keys("hanks", "actor", "name") == {1, 2}
        db.close()

    def test_loaded_index_stays_live(self, populated_path):
        """Incremental maintenance keeps working on a restored index."""
        db = _reopen(populated_path)
        db.build_indexes()
        db.insert("actor", {"id": 9, "name": "bruno hanks"})
        assert 9 in db.index.tuple_keys("hanks", "actor", "name")
        fresh = InvertedIndex(db.tokenizer).build(db)
        assert db.index.stats_snapshot() == fresh.stats_snapshot()
        db.close()

    def test_post_build_insert_resaves_on_close(self, populated_path):
        db = _reopen(populated_path)
        db.build_indexes()
        db.insert("actor", {"id": 9, "name": "bruno hanks"})
        db.close()
        # The re-saved postings match the mutated content: the next open
        # loads them (no rebuild) and sees the new row.
        reopened = _reopen(populated_path)
        index = reopened.build_indexes()
        meta = dict(
            reopened._conn.execute("SELECT key, value FROM _repro_index_meta")
        )
        assert meta["fingerprint"] == reopened.content_fingerprint()
        assert 9 in index.tuple_keys("hanks", "actor", "name")
        reopened.close()

    def test_persist_disabled_writes_no_side_tables(self, tmp_path):
        path = tmp_path / "plain.sqlite"
        db = SQLiteBackend(mini_schema(), path=path, persist_index=False)
        db.insert("actor", {"id": 1, "name": "tom hanks"})
        db.build_indexes()
        db.close()
        raw = sqlite3.connect(path)
        tables = {
            row[0]
            for row in raw.execute(
                "SELECT name FROM sqlite_master WHERE type = 'table'"
            )
        }
        raw.close()
        assert not any(name.startswith("_repro_index_") for name in tables)

    @pytest.mark.parametrize(
        "key, saved", [(7, "[1, 7]"), ("7", '["7", 1]'), (1.5, None), (True, None)]
    )
    def test_only_json_stable_keys_are_saved(self, tmp_path, key, saved):
        """Postings are saved only when every key survives a JSON round trip
        (int or str, not bool); one odd key in the last posting skips the
        whole save, leaving the side tables as they were."""
        db = SQLiteBackend(mini_schema(), path=tmp_path / "keys.sqlite")
        db.insert("actor", {"id": 1, "name": "tom hanks"})
        index = db.build_indexes()
        state = index.export_state()
        term, table, attribute, occurrences, keys = state["postings"][-1]
        state["postings"][-1] = (term, table, attribute, occurrences, keys + [key])
        db._save_persisted_index(
            InvertedIndex.restore(state, tokenizer=index.tokenizer, alpha=index.alpha)
        )
        stored = dict(
            db._conn.execute(
                "SELECT term, keys FROM _repro_index_postings WHERE term = ?", (term,)
            )
        )
        assert stored[term] == (saved or "[1]")
        db.close()

    def test_stale_fingerprint_forces_rebuild(self, populated_path):
        raw = sqlite3.connect(populated_path)
        raw.execute(
            "UPDATE _repro_index_meta SET value = 'stale' WHERE key = 'fingerprint'"
        )
        raw.commit()
        raw.close()
        db = _reopen(populated_path)
        index = db.build_indexes()  # falls back to the scan
        fresh = InvertedIndex(db.tokenizer).build(db)
        assert index.stats_snapshot() == fresh.stats_snapshot()
        db.close()

    def test_tokenizer_mismatch_forces_rebuild(self, populated_path):
        stopping = Tokenizer(stopwords=DEFAULT_STOPWORDS)
        db = SQLiteBackend(mini_schema(), tokenizer=stopping, path=populated_path)
        index = db.build_indexes()
        # A loaded index would contain the no-stopwords postings; the rebuilt
        # one must reflect the requested tokenizer.
        fresh = InvertedIndex(stopping).build(db)
        assert index.stats_snapshot() == fresh.stats_snapshot()
        db.close()

    def test_foreign_shape_side_tables_are_replaced(self, populated_path):
        """Side tables left by another version of this code (different
        column set) must not crash the open: saving drops and rebuilds them."""
        raw = sqlite3.connect(populated_path)
        raw.execute("DROP TABLE _repro_index_postings")
        raw.execute("CREATE TABLE _repro_index_postings (term TEXT, blob TEXT)")
        raw.commit()
        raw.close()
        db = _reopen(populated_path)
        index = db.build_indexes()  # load fails -> rebuild -> re-save over the foreign shape
        assert index.tuple_keys("hanks", "actor", "name") == {1, 2}
        db.close()
        # The next open loads the re-saved postings again.
        reopened = _reopen(populated_path)
        assert reopened.build_indexes().tuple_keys("hanks", "actor", "name") == {1, 2}
        reopened.close()

    def test_corrupt_side_tables_fall_back(self, populated_path):
        raw = sqlite3.connect(populated_path)
        raw.execute("UPDATE _repro_index_postings SET keys = 'not json'")
        raw.commit()
        raw.close()
        db = _reopen(populated_path)
        index = db.build_indexes()
        fresh = InvertedIndex(db.tokenizer).build(db)
        assert index.stats_snapshot() == fresh.stats_snapshot()
        db.close()


#: ``content_fingerprint()`` of the default ``imdb`` store.  Persisted index
#: postings and statistics are keyed on it, so a file written by an earlier
#: version reopens without a rebuild only while it stays put: the mutation
#: text each insert folds in renders the row as ``(name, value)`` pairs
#: (``Tuple.items()``), whatever the row stores internally.
PINNED_IMDB_FINGERPRINTS = {
    "memory": "c374837c5e7dbad690f4d5eceda4e87b",
    "sqlite": "bf13f833af83cb38c689f9d1e5bef895",
}


@pytest.mark.parametrize("backend", sorted(PINNED_IMDB_FINGERPRINTS))
def test_default_imdb_fingerprint_is_pinned(backend):
    from repro.datasets.imdb import build_imdb

    store = build_imdb(backend=backend)
    try:
        assert store.content_fingerprint() == PINNED_IMDB_FINGERPRINTS[backend]
    finally:
        store.close()
