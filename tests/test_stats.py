"""Planner statistics: collection, incremental maintenance, persistence.

The catalog numbers are pinned against ``build_mini_db``'s exactly-known
content (3 actors, 3 movies, 4 acts rows); the persistence tests prove the
SQLite backends reload ``_repro_stats_*`` side tables on cold open *without
rescanning* (collection is monkeypatched to explode), recollect on a
fingerprint mismatch, and that the sharded layout aggregates per-shard rows
into the same catalog an unsharded store collects.
"""

from __future__ import annotations

import sqlite3

import pytest

from repro.db.backends import create_backend
from repro.db.stats import StatisticsCatalog, tracked_attributes
from tests.conftest import build_mini_db, mini_schema


class TestTrackedAttributes:
    def test_primary_keys_and_fk_endpoints(self):
        schema = mini_schema()
        assert tracked_attributes(schema, "actor") == ("id",)
        assert tracked_attributes(schema, "movie") == ("id",)
        assert tracked_attributes(schema, "acts") == ("actor_id", "id", "movie_id")

    def test_textual_attributes_not_tracked(self):
        schema = mini_schema()
        assert "name" not in tracked_attributes(schema, "actor")
        assert "title" not in tracked_attributes(schema, "movie")


class TestCollection:
    def test_exact_counts_on_mini_db(self, mini_db):
        catalog = mini_db.statistics_catalog()
        assert catalog.rows("actor") == 3
        assert catalog.rows("movie") == 3
        assert catalog.rows("acts") == 4

    def test_exact_distincts_and_max_frequency(self, mini_db):
        catalog = mini_db.statistics_catalog()
        assert catalog.distinct("actor", "id") == 3
        assert catalog.distinct("movie", "id") == 3
        assert catalog.distinct("acts", "id") == 4
        # acts.actor_id = [1, 1, 2, 3]; acts.movie_id = [1, 2, 2, 3]
        assert catalog.distinct("acts", "actor_id") == 3
        assert catalog.distinct("acts", "movie_id") == 3
        attrs = {
            (tbl, attr): (distinct, max_freq)
            for tbl, attr, distinct, max_freq in catalog.iter_attributes()
        }
        assert attrs[("acts", "actor_id")] == (3, 2)
        assert attrs[("acts", "movie_id")] == (3, 2)
        assert attrs[("actor", "id")] == (3, 1)

    def test_iter_rows_in_schema_order(self, mini_db):
        catalog = mini_db.statistics_catalog()
        assert list(catalog.iter_rows()) == [("actor", 3), ("movie", 3), ("acts", 4)]

    def test_collected_automatically_at_build_time(self):
        db = build_mini_db()
        # build_indexes already ran inside build_mini_db: the catalog exists
        # without anyone asking for a collection.
        assert db.statistics_catalog(collect=False) is not None

    def test_an_uncollected_table_reads_none(self):
        # None, not 0: the sharded seed chooser falls back to COUNT(*) on it.
        catalog = StatisticsCatalog(mini_schema())
        assert catalog.rows("actor") is None
        assert catalog.distinct("actor", "id") is None
        assert list(catalog.iter_rows()) == []

    def test_collect_false_reports_absence(self):
        db = create_backend("memory", mini_schema())
        db.insert("actor", {"id": 1, "name": "solo"})
        assert db.statistics_catalog(collect=False) is None


class TestIncrementalMaintenance:
    def test_insert_after_build_equals_fresh_collect(self, mini_db):
        mini_db.insert("actor", {"id": 4, "name": "grace kelly"})
        mini_db.insert("movie", {"id": 4, "title": "rear window", "year": "1954"})
        mini_db.insert("acts", {"id": 5, "actor_id": 4, "movie_id": 4, "role": "lisa"})
        # A repeated FK value: distinct must NOT grow, max_frequency must.
        mini_db.insert("acts", {"id": 6, "actor_id": 1, "movie_id": 4, "role": "cameo"})
        incremental = mini_db.statistics_catalog(collect=False).export_state()
        fresh = StatisticsCatalog.collect(mini_db).export_state()
        assert incremental == fresh

    def test_repeated_value_tracks_max_frequency(self, mini_db):
        catalog = mini_db.statistics_catalog()
        mini_db.insert("acts", {"id": 5, "actor_id": 1, "movie_id": 3, "role": "extra"})
        mini_db.insert("acts", {"id": 6, "actor_id": 1, "movie_id": 1, "role": "extra"})
        stats = catalog.tables["acts"].attributes["actor_id"]
        assert stats.distinct == 3  # actor_id 1 was already known
        assert stats.max_frequency == 4  # [1, 1, 2, 3] + two more 1s

    def test_export_restore_round_trip(self, mini_db):
        catalog = mini_db.statistics_catalog()
        state = catalog.export_state()
        restored = StatisticsCatalog.restore(mini_db.schema, state)
        assert restored.export_state() == state
        assert restored.rows("acts") == 4
        assert restored.distinct("acts", "movie_id") == 3


def _raise_on_collect(monkeypatch):
    def boom(cls, backend):  # pragma: no cover - the assertion is the point
        raise AssertionError("statistics were rescanned on a warm reopen")

    monkeypatch.setattr(StatisticsCatalog, "collect", classmethod(boom))


@pytest.mark.parametrize("backend_name", ["sqlite", "sqlite-sharded"])
class TestPersistence:
    def test_reopen_reloads_without_rescanning(
        self, backend_name, tmp_path, monkeypatch
    ):
        db_path = tmp_path / "stats.sqlite"
        db = build_mini_db(backend_name, db_path=db_path)
        expected = db.statistics_catalog(collect=False).export_state()
        db.close()

        _raise_on_collect(monkeypatch)
        reopened = create_backend(backend_name, mini_schema(), path=db_path)
        reopened.require_index()
        catalog = reopened.statistics_catalog(collect=False)
        assert catalog is not None
        assert catalog.export_state() == expected
        assert (
            reopened.persisted_stats_fingerprint()
            == reopened.content_fingerprint()
        )
        reopened.close()

    def test_fingerprint_mismatch_triggers_recollection(
        self, backend_name, tmp_path
    ):
        db_path = tmp_path / "stats.sqlite"
        db = build_mini_db(backend_name, db_path=db_path)
        expected = db.statistics_catalog(collect=False).export_state()
        db.close()

        with sqlite3.connect(db_path) as conn:  # corrupt the stored fingerprint
            conn.execute("UPDATE _repro_stats_meta SET value = 'stale'")
            conn.commit()

        reopened = create_backend(backend_name, mini_schema(), path=db_path)
        reopened.require_index()
        catalog = reopened.statistics_catalog(collect=False)
        assert catalog is not None
        assert catalog.export_state() == expected  # recollected from the rows
        # ... and re-persisted under the current fingerprint.
        assert (
            reopened.persisted_stats_fingerprint()
            == reopened.content_fingerprint()
        )
        reopened.close()

    def test_insert_after_build_persists_updated_stats(
        self, backend_name, tmp_path, monkeypatch
    ):
        db_path = tmp_path / "stats.sqlite"
        db = build_mini_db(backend_name, db_path=db_path)
        db.insert("acts", {"id": 5, "actor_id": 1, "movie_id": 3, "role": "extra"})
        expected = db.statistics_catalog(collect=False).export_state()
        db.close()

        _raise_on_collect(monkeypatch)
        reopened = create_backend(backend_name, mini_schema(), path=db_path)
        reopened.require_index()
        catalog = reopened.statistics_catalog(collect=False)
        assert catalog is not None
        assert catalog.export_state() == expected
        assert catalog.rows("acts") == 5
        reopened.close()


class TestShardedAggregation:
    def test_sharded_catalog_equals_unsharded(self, tmp_path):
        memory = build_mini_db()
        sharded = build_mini_db("sqlite-sharded", db_path=tmp_path / "sh.sqlite")
        assert (
            sharded.statistics_catalog().export_state()
            == memory.statistics_catalog().export_state()
        )
        sharded.close()
