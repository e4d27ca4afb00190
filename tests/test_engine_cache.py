"""ResultCache semantics: reuse, reopened stores, invalidation.

The invariant under test: a cache entry is only ever served for the *exact*
store content it was computed on.  Mutating a store — through the backend API
or behind its back — changes the content fingerprint, which must bust both
the result cache and the persisted index postings; stale rows are never
served.
"""

from __future__ import annotations

import sqlite3
import sys
import threading
from dataclasses import astuple

import pytest

from repro.core.keywords import KeywordQuery
from repro.db.backends.sqlite import SQLiteBackend
from repro.engine import EngineConfig, QueryEngine, ResultCache
from tests.conftest import build_mini_db, mini_schema


@pytest.fixture(autouse=True)
def fresh_process_cache():
    """Each test starts (and ends) with an empty process-level layer."""
    ResultCache.clear_process_cache()
    yield
    ResultCache.clear_process_cache()


def _fetch(cache, query, limit):
    """Get-or-execute, the way the top-k executor uses the cache."""
    rows = cache.get(query, limit)
    if rows is None:
        rows = query.execute(cache.backend, limit=limit)
        cache.put(query, limit, rows)
    return rows


def _first_query(db):
    """A structured query with known, non-empty results on mini_db content."""
    engine = QueryEngine(db, config=None)
    ranked = engine.rank("hanks 2001")
    assert ranked
    return ranked[0][0].to_structured_query()


class TestResultCacheBasics:
    def test_get_miss_then_hit(self, mini_db):
        cache = ResultCache(mini_db)
        query = _first_query(mini_db)
        assert cache.get(query, 10) is None
        rows = query.execute(mini_db, limit=10)
        cache.put(query, 10, rows)
        assert cache.get(query, 10) == rows
        assert cache.statistics.hits == 1 and cache.statistics.misses == 1

    def test_fetch_executes_once(self, mini_db):
        cache = ResultCache(mini_db)
        query = _first_query(mini_db)
        first = _fetch(cache, query, 10)
        second = _fetch(cache, query, 10)
        assert first == second
        assert cache.statistics.stores == 1
        assert cache.statistics.hits == 1

    def test_limit_is_part_of_the_key(self, mini_db):
        cache = ResultCache(mini_db)
        query = _first_query(mini_db)
        cache.put(query, 1, query.execute(mini_db, limit=1))
        assert cache.get(query, 2) is None

    def test_returns_copies(self, mini_db):
        cache = ResultCache(mini_db)
        query = _first_query(mini_db)
        rows = _fetch(cache, query, 10)
        rows.append("sentinel")
        assert cache.get(query, 10)[-1] != "sentinel"

    def test_distinct_stores_never_alias(self):
        """Two hand-built stores with identical shape get distinct nonces."""
        a, b = build_mini_db(), build_mini_db()
        assert a.content_fingerprint() != b.content_fingerprint()
        query = _first_query(a)
        cache_a, cache_b = ResultCache(a), ResultCache(b)
        cache_a.put(query, 10, query.execute(a, limit=10))
        assert cache_b.get(query, 10) is None

    def test_equal_count_divergence_never_aliases(self):
        """Two same-dataset stores that diverged by equal-count mutations
        must not share cache entries — row counts alone cannot tell them
        apart, the mutation digest must."""
        from repro.datasets.imdb import build_imdb

        a, b = build_imdb(), build_imdb()
        assert a.content_fingerprint() == b.content_fingerprint()  # same content
        a.insert("movie", {"id": 9_000, "title": "paris nights"})
        b.insert("movie", {"id": 9_000, "title": "paris days"})
        assert a.content_fingerprint() != b.content_fingerprint()
        # The interpretation both stores disagree on: paris ∈ movie.title.
        query = next(
            i.to_structured_query()
            for i, _p in QueryEngine(a).rank("paris")
            if i.to_structured_query().algebra() == "sigma_{{paris} in title}(movie)"
        )
        title_of = lambda rows: {
            t["title"] for r in rows for t in r if t.key == 9_000
        }
        assert title_of(_fetch(ResultCache(a), query, None)) == {"paris nights"}
        assert title_of(_fetch(ResultCache(b), query, None)) == {"paris days"}


class TestConfigurableCapacity:
    """EngineConfig.result_cache_size bounds the process-level LRU."""

    def test_engine_config_reaches_the_cache(self, mini_db):
        engine = QueryEngine(mini_db, config=EngineConfig(result_cache_size=7))
        assert engine.cache is not None
        assert engine.cache.capacity == 7

    def test_capacity_bounds_the_lru(self, mini_db):
        from repro.engine.cache import _PROCESS_CACHE

        cache = ResultCache(mini_db, capacity=2)
        engine = QueryEngine(mini_db, cache=cache)
        query = engine.rank("hanks 2001")[0][0].to_structured_query()
        for limit in (1, 2, 3):  # the limit is part of the key: 3 entries
            cache.put(query, limit, query.execute(mini_db, limit=limit))
        assert len(_PROCESS_CACHE) == 2
        # LRU: the two most recent puts survive, the oldest was evicted.
        assert cache.get(query, 3) is not None
        assert cache.get(query, 1) is None

    def test_capacity_must_be_positive(self, mini_db):
        with pytest.raises(ValueError, match="capacity must be positive"):
            ResultCache(mini_db, capacity=0)

    def test_mid_run_shrink_evicts_oldest_first_at_construction(self, mini_db):
        """Regression: a smaller capacity takes effect when the instance is
        *constructed* (an engine reconfigured mid-run), deterministically
        evicting the least-recently-used entries — not lazily on the shrunk
        instance's next write, and never a newest entry."""
        from repro.engine.cache import _PROCESS_CACHE

        wide = ResultCache(mini_db, capacity=10)
        query = _first_query(mini_db)
        for limit in (1, 2, 3, 4, 5):
            wide.put(query, limit, query.execute(mini_db, limit=limit))
        assert len(_PROCESS_CACHE) == 5
        narrow = ResultCache(mini_db, capacity=2)
        # The shrink happened immediately, before any write through `narrow`.
        assert len(_PROCESS_CACHE) == 2
        # Oldest-first: exactly the two most recent puts survive.
        assert narrow.get(query, 5) is not None
        assert narrow.get(query, 4) is not None
        assert narrow.get(query, 3) is None
        assert narrow.get(query, 1) is None

    def test_default_capacity_unchanged(self, mini_db):
        from repro.engine import cache as cache_module

        assert ResultCache(mini_db).capacity is None
        assert cache_module._PROCESS_CACHE_CAPACITY == 4096

    def test_a_hit_makes_the_entry_the_most_recent(self, mini_db):
        cache = ResultCache(mini_db, capacity=2)
        query = _first_query(mini_db)
        for limit in (1, 2):
            cache.put(query, limit, query.execute(mini_db, limit=limit))
        assert cache.get(query, 1) is not None  # 1 is now newer than 2
        cache.put(query, 3, query.execute(mini_db, limit=3))
        assert cache.get(query, 2) is None
        assert cache.get(query, 1) is not None

    def test_a_repeated_put_refreshes_the_entry_in_place(self, mini_db):
        from repro.engine.cache import _PROCESS_CACHE

        cache = ResultCache(mini_db, capacity=2)
        query = _first_query(mini_db)
        rows = query.execute(mini_db, limit=1)
        cache.put(query, 1, rows)
        cache.put(query, 2, query.execute(mini_db, limit=2))
        cache.put(query, 1, rows)  # one entry, now the most recent
        assert len(_PROCESS_CACHE) == 2
        cache.put(query, 3, query.execute(mini_db, limit=3))
        assert cache.get(query, 2) is None
        assert cache.get(query, 1) == rows
        assert cache.statistics.stores == 4


class TestSharedAcrossThreads:
    def test_eight_threads_on_one_small_cache_see_only_their_own_rows(self, mini_db):
        """The query server shares one cache across its workers: concurrent
        gets, puts and evictions on a store smaller than the key set raise
        nothing, keep the bound and never hand out another key's rows."""
        from repro.engine.cache import _PROCESS_CACHE

        engine = QueryEngine(mini_db, config=EngineConfig(cache_results=False))
        queries = [
            interp.to_structured_query()
            for text in ("hanks 2001", "london", "hanks")
            for interp, _p in engine.rank(text)
        ]
        rows = [query.execute(mini_db) for query in queries]
        cache = ResultCache(mini_db, capacity=3)
        assert len(queries) > 3
        errors: list[BaseException] = []
        start = threading.Barrier(8)

        def worker(offset: int) -> None:
            try:
                start.wait(timeout=30)
                for step in range(300):
                    index = (offset + step) % len(queries)
                    found = cache.get(queries[index], None)
                    if found is None:
                        cache.put(queries[index], None, rows[index])
                    else:
                        assert found == rows[index]
            except BaseException as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert len(_PROCESS_CACHE) <= 3
        assert cache.statistics.hits + cache.statistics.misses == 8 * 300


class TestFlush:
    def test_flush_is_kept_for_wrappers_and_does_nothing(self, tmp_path):
        """``benchmarks/layered/tracing.py`` wraps ``get``, ``put`` and
        ``flush`` by name; ``flush`` touches neither the store nor the
        counters."""
        db = build_mini_db("sqlite", db_path=tmp_path / "mini.sqlite")
        try:
            cache = ResultCache(db)
            assert all(callable(getattr(cache, name)) for name in ("get", "put", "flush"))
            query = _first_query(db)
            cache.put(query, None, query.execute(db))
            before = (db._write_epoch, astuple(cache.statistics))
            cache.flush()
            assert (db._write_epoch, astuple(cache.statistics)) == before
            assert not db._conn.in_transaction
        finally:
            db.close()


class TestInvalidation:
    def test_api_mutation_busts_memory_store(self, mini_db):
        engine = QueryEngine(mini_db)
        cold = engine.run("hanks", k=5)
        warm = engine.run("hanks", k=5)
        assert warm.executor_statistics.interpretations_executed == 0
        mini_db.insert("actor", {"id": 99, "name": "henry hanks"})
        after = engine.run("hanks", k=5)
        # New fingerprint: nothing served from cache, fresh execution ran.
        assert after.executor_statistics.cache_hits == 0
        assert after.executor_statistics.interpretations_executed > 0
        new_uids = {u for r in after.results for u in r.row_uids()}
        cold_uids = {u for r in cold.results for u in r.row_uids()}
        assert new_uids != cold_uids or len(after.results) != len(cold.results)

    def test_api_mutation_busts_persistent_store(self, tmp_path):
        path = tmp_path / "mini.sqlite"
        db = build_mini_db("sqlite", db_path=path)
        engine = QueryEngine(db)
        engine.run("london", k=5)
        db.insert("actor", {"id": 42, "name": "london fog"})
        after = engine.run("london", k=5)
        assert after.executor_statistics.cache_hits == 0
        served = {u for r in after.results for u in r.row_uids()}
        assert ("actor", 42) in served
        db.close()

    def test_out_of_band_mutation_busts_everything(self, tmp_path):
        """Rows changed behind the backend's back: stale postings and stale
        cached results must both be rejected on the next open."""
        path = tmp_path / "mini.sqlite"
        db = build_mini_db("sqlite", db_path=path)
        engine = QueryEngine(db)
        engine.run("london", k=5)
        old_fingerprint = db.content_fingerprint()
        db.close()

        raw = sqlite3.connect(path)
        raw.execute(
            "INSERT INTO actor (name, bio, id) VALUES ('jack london', NULL, 77)"
            if _has_bio(raw)
            else "INSERT INTO actor (name, id) VALUES ('jack london', 77)"
        )
        raw.commit()
        raw.close()

        ResultCache.clear_process_cache()  # simulate a new process
        reopened = SQLiteBackend(mini_schema(), path=path)
        index = reopened.build_indexes()
        assert reopened.content_fingerprint() != old_fingerprint
        # Persisted postings were rejected and rebuilt: the new row is indexed.
        assert 77 in index.tuple_keys("london", "actor", "name")
        after = QueryEngine(reopened).run("london", k=5)
        served = {u for r in after.results for u in r.row_uids()}
        assert ("actor", 77) in served
        reopened.close()

    def test_tokenizer_change_busts_cached_results(self, tmp_path):
        """Reopening a store with a different tokenizer changes what
        'contains' means: cached rows from the old tokenizer must not be
        served (the persisted index already rebuilds; the result cache must
        miss too)."""
        from repro.db.tokenizer import Tokenizer

        path = tmp_path / "mini.sqlite"
        db = build_mini_db("sqlite", db_path=path)
        QueryEngine(db).run("calling", k=5)  # caches under the default tokenizer
        fingerprint = db.content_fingerprint()
        db.close()

        # A stemming tokenizer folds "calling" -> "call": different postings,
        # different result sets for the same query text.  The rows did not
        # change, so only the tokenizer digest in the key can miss.
        reopened = SQLiteBackend(
            mini_schema(), tokenizer=Tokenizer(stem=True), path=path
        )
        reopened.build_indexes()
        assert reopened.content_fingerprint() == fingerprint
        after = QueryEngine(reopened).run("calling", k=5)
        assert after.executor_statistics.cache_hits == 0
        reopened.close()

    def test_two_datasets_coexist_in_one_file(self, tmp_path):
        """Datasets share a --db-path (tables are namespaced); the second
        build must not clobber the first one's fingerprint, reuse check,
        persisted postings or cached results."""
        from repro.datasets.imdb import build_imdb
        from repro.datasets.lyrics import build_lyrics
        from repro.db.index import InvertedIndex

        path = tmp_path / "both.sqlite"
        build_imdb(backend="sqlite", db_path=path).close()
        build_lyrics(backend="sqlite", db_path=path).close()
        reopened = build_imdb(backend="sqlite", db_path=path)  # reuse, no error
        results = QueryEngine(reopened).run("london", k=5).results
        legacy = (
            QueryEngine(build_imdb(), config=EngineConfig(cache_results=False))
            .run("london", k=5)
            .results
        )
        assert results
        assert [r.row_uids() for r in results] == [r.row_uids() for r in legacy]
        reopened.close()

        # From here on both datasets are persisted under the combined
        # content seed: alternating opens must LOAD each schema's postings
        # (no rebuild) and answer with the same rows, executed afresh.
        warm_lyrics = build_lyrics(backend="sqlite", db_path=path)
        warm_lyrics.close()
        ResultCache.clear_process_cache()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(
                InvertedIndex,
                "build",
                lambda *a, **k: pytest.fail("coexisting dataset forced a rebuild"),
            )
            warm_imdb = build_imdb(backend="sqlite", db_path=path)
        second = QueryEngine(warm_imdb).run("london", k=5)
        assert second.executor_statistics.interpretations_executed > 0
        assert second.cache_hits == 0
        assert [r.row_uids() for r in second.results] == [
            r.row_uids() for r in results
        ]
        warm_imdb.close()

    def test_a_same_process_reopen_hits_the_process_cache(self, tmp_path):
        """A reopen of an unchanged file in the same process keeps its
        content fingerprint, so the process-level store serves it:
        identical rows, zero interpretations executed."""
        path = tmp_path / "mini.sqlite"
        db = build_mini_db("sqlite", db_path=path)
        first = QueryEngine(db).run("hanks 2001", k=5)
        assert first.executor_statistics.interpretations_executed > 0
        assert first.results
        db.close()

        reopened = SQLiteBackend(mini_schema(), path=path)
        reopened.build_indexes()
        second = QueryEngine(reopened).run("hanks 2001", k=5)
        assert second.executor_statistics.interpretations_executed == 0
        assert second.cache_hits > 0
        assert [r.row_uids() for r in second.results] == [
            r.row_uids() for r in first.results
        ]
        reopened.close()


def _has_bio(conn: sqlite3.Connection) -> bool:
    columns = [row[1] for row in conn.execute("PRAGMA table_info(actor)")]
    return "bio" in columns
