"""Second-sight persistence: a result-cache entry earns its side-table row.

The policy under test: ``ResultCache.put`` writes nothing; an entry is
encoded and handed to the backend at its **first reuse** (committed by that
run's flush) or when its **store closes** (the backend's close drain), and
an entry evicted before either is never written.  Rows, counters and the
persisted format are what they always were — only *when* a payload reaches
the ``_repro_result_cache`` side table changed.
"""

from __future__ import annotations

import json
import shutil
import socket
import sqlite3
import sys
import tempfile
import threading
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.cli import main
from repro.core.query import StructuredQuery
from repro.core.topk import TopKExecutor
from repro.db.backends.sqlite import SQLiteBackend
from repro.engine import EngineConfig, QueryEngine, ResultCache
from repro.engine import cache as cache_module
from repro.net import protocol
from tests.conftest import build_mini_db, mini_schema, template_of
from tests.serving import spawn_tcp_server
from tests.test_engine_memo import _distinct_texts


@pytest.fixture(autouse=True)
def fresh_process_cache():
    ResultCache.clear_process_cache()
    yield
    ResultCache.clear_process_cache()


def _side_table(path) -> dict[str, str]:
    """Committed ``cache_key -> payload`` rows, read through a connection of
    our own (what the next process would find)."""
    conn = sqlite3.connect(str(path))
    try:
        return dict(
            conn.execute("SELECT cache_key, payload FROM _repro_result_cache")
        )
    except sqlite3.OperationalError:  # never written: the table does not exist
        return {}
    finally:
        conn.close()


def _persisted_and_pending(db: SQLiteBackend, fingerprint: str) -> dict[str, str]:
    """``cache_key -> payload`` under one fingerprint: the side-table rows the
    store's own writer sees, overlaid with its unflushed put buffer — what
    the store holds once it flushes."""
    with db._lock:
        try:
            found = dict(
                db._conn.execute(
                    "SELECT cache_key, payload FROM _repro_result_cache "
                    "WHERE fingerprint = ?",
                    (fingerprint,),
                )
            )
        except sqlite3.OperationalError:  # never written: the table does not exist
            found = {}
        for (pending_fingerprint, key), payload in db._pending_results.items():
            if pending_fingerprint == fingerprint:
                found[key] = payload
    return found


def _entry_keys(context, limit: int | None) -> set[str]:
    """Side-table keys of every interpretation ``context`` ranked."""
    suffix = "none" if limit is None else str(limit)
    return {
        f"{interp.to_structured_query().cache_key()}#{suffix}"
        for interp, _p in context.ranked
    }


# -- the key string is store format --------------------------------------------------


def test_cache_keys_are_the_literal_strings_persisted_stores_hold(mini_db):
    """Caches written before the key was memoised must still hit: the two
    literals below were printed by the parent commit."""
    two_on_one_slot = StructuredQuery(
        template_of(mini_db, ("actor", "acts", "movie")),
        {
            2: (("year", ("2001",)), ("title", ("island", "hanks"))),
            0: (("name", ("hanks",)),),
        },
    )
    aggregate = StructuredQuery(
        template_of(mini_db, ("movie",)),
        {0: (("year", ("2001",)),)},
        aggregate=("count", 0),
    )
    assert two_on_one_slot.cache_key() == (
        '{"aggregate": null, "edges": [["acts", "actor_id", "actor", "id"], '
        '["acts", "movie_id", "movie", "id"]], "path": ["actor", "acts", "movie"], '
        '"selections": [[0, [["name", ["hanks"]]]], '
        '[2, [["title", ["hanks", "island"]], ["year", ["2001"]]]]]}'
    )
    assert aggregate.cache_key() == (
        '{"aggregate": ["count", 0], "edges": [], "path": ["movie"], '
        '"selections": [[0, [["year", ["2001"]]]]]}'
    )


def test_the_key_is_built_once_per_query_and_is_not_part_of_its_value(mini_db):
    query = StructuredQuery(template_of(mini_db, ("actor",)), {0: (("name", ("hanks",)),)})
    twin = StructuredQuery(template_of(mini_db, ("actor",)), {0: (("name", ("hanks",)),)})
    assert query.cache_key() is query.cache_key()  # the same string object
    assert query == twin and repr(query) == repr(twin)  # twin never built one
    assert twin.cache_key() == query.cache_key()


# -- (a) growth: the side table is bounded by the LRU plus what was reused -----------


def test_once_seen_entries_are_written_at_close_and_only_what_is_resident(tmp_path):
    path = tmp_path / "store.sqlite"
    engine = QueryEngine.for_dataset(
        "imdb",
        backend="sqlite",
        db_path=path,
        config=EngineConfig(result_cache_size=64),
    )
    try:
        texts = _distinct_texts(engine.backend, 300)
        stores = 0
        for text in texts:
            stores += engine.run(text, k=5).cache_misses
        assert stores > 3 * 64  # the LRU overflowed several times over
        assert _side_table(path) == {}  # nothing was reused: nothing written

        # One repeat: exactly that query's entries, after that run's flush.
        repeated = engine.run(texts[-1], k=5)
        assert repeated.cache_hits > 0 and repeated.cache_misses == 0
        written = _side_table(path)
        assert len(written) == repeated.cache_hits
        assert set(written) <= _entry_keys(repeated, TopKExecutor.per_query_limit)
    finally:
        engine.backend.close()
    after_close = _side_table(path)
    assert set(written) <= set(after_close)
    assert 0 < len(after_close) <= 64  # what the LRU still held, nothing evicted


# -- an empty flush does nothing -----------------------------------------------------


class _CountingConnection:
    """The backend's writer connection, counting ``commit`` calls."""

    def __init__(self, inner):
        self._inner = inner
        self.commits = 0

    def commit(self):
        self.commits += 1
        return self._inner.commit()

    def __getattr__(self, name):
        return getattr(self._inner, name)


def test_cold_distinct_queries_commit_nothing_from_the_cache_path(tmp_path):
    engine = QueryEngine.for_dataset(
        "imdb", backend="sqlite", db_path=tmp_path / "store.sqlite"
    )
    backend = engine.backend
    try:
        counting = backend._conn = _CountingConnection(backend._conn)
        for text in _distinct_texts(backend, 50):
            context = engine.run(text, k=5)
            assert context.cache_hits == 0 and context.cache_misses > 0
        assert counting.commits == 0
        # A run that reuses an entry still gets its one commit ...
        engine.run(_distinct_texts(backend, 1)[0], k=5)
        assert counting.commits == 1
        # ... and the backend's own commit points stay unconditional.
        backend.commit()
        assert counting.commits == 2
    finally:
        backend.close()
    assert counting.commits == 3


def test_a_flush_commits_an_open_transaction_even_with_no_put_buffered(tmp_path):
    db = build_mini_db("sqlite", db_path=tmp_path / "mini.sqlite")
    try:
        db._persist_content_digest()  # staged for the next commit point
        assert db._conn.in_transaction
        db.cached_result_flush()
        assert not db._conn.in_transaction
    finally:
        db.close()


# -- the CLI closes what it opens ----------------------------------------------------


def test_a_one_shot_search_persists_through_close(tmp_path, capsys):
    argv = [
        "search", "--backend", "sqlite", "--db-path", str(tmp_path / "cli.sqlite"),
        "hanks 2001",
    ]
    assert main(argv) == 0
    first = capsys.readouterr().out
    ResultCache.clear_process_cache()  # the next process
    assert main(argv) == 0
    second = capsys.readouterr().out
    assert "(4 interpretations executed)" in first
    assert "(0 interpretations executed)" in second
    assert second == first.replace("(4 interpretations", "(0 interpretations")


@pytest.mark.parametrize("command", ["construct", "diversify"])
def test_the_other_one_shot_commands_close_their_backend_too(
    command, tmp_path, monkeypatch, capsys
):
    closed = []
    original = SQLiteBackend.close
    monkeypatch.setattr(
        SQLiteBackend, "close", lambda self: (closed.append(self), original(self))[1]
    )
    argv = [command, "--backend", "sqlite", "--db-path", str(tmp_path / "c.sqlite"), "hanks 2001"]
    assert main(argv + (["--answers", "y", "n"] if command == "construct" else [])) == 0
    capsys.readouterr()
    assert len(closed) == 1 and closed[0]._closed


# -- the close drain is best-effort --------------------------------------------------


def test_an_unserialisable_entry_is_skipped_and_the_close_completes(tmp_path):
    from repro.db.table import Tuple

    path = tmp_path / "mini.sqlite"
    db = build_mini_db("sqlite", db_path=path)
    cache = ResultCache(db)
    fine = StructuredQuery(template_of(db, ("actor",)), {0: (("name", ("hanks",)),)})
    odd = StructuredQuery(template_of(db, ("movie",)), {0: (("year", ("2001",)),)})
    cache.put(fine, None, fine.execute(db))
    cache.put(odd, None, [(Tuple("movie", (1, 2), (("title", b"bytes"),)),)])
    db.close()
    db.close()  # idempotent: the drain ran once, with the first close
    assert set(_side_table(path)) == {f"{fine.cache_key()}#none"}


def test_a_non_persisting_cache_registers_no_drain_and_writes_nothing(tmp_path):
    path = tmp_path / "mini.sqlite"
    db = build_mini_db("sqlite", db_path=path)
    cache = ResultCache(db, persist=False)
    query = StructuredQuery(template_of(db, ("actor",)), {0: (("name", ("hanks",)),)})
    cache.put(query, None, query.execute(db))
    assert cache.get(query, None) is not None
    db.close()
    assert _side_table(path) == {}


# -- (b) put / get / shrink / close / reopen against a dict model --------------------


_LIMITS = [None, 1, 10]


class PersistenceAgainstModel(RuleBasedStateMachine):
    """One file store, one cache at a time, a dict of everything ever stored.

    ``earned`` is the model of the policy: a key may be in the side table
    only if it was hit while resident, or was resident when its store
    closed.
    """

    def __init__(self):
        super().__init__()
        ResultCache.clear_process_cache()
        self.directory = Path(tempfile.mkdtemp(prefix="repro-cache-"))
        self.path = self.directory / "mini.sqlite"
        self.db = build_mini_db("sqlite", db_path=self.path)
        self.cache = ResultCache(self.db, capacity=6)
        engine = QueryEngine(self.db, config=EngineConfig(cache_results=False))
        self.queries = [
            interp.to_structured_query()
            for text in ("hanks 2001", "london", "hanks")
            for interp, _p in engine.rank(text)
        ][:10]
        assert len(self.queries) >= 6
        self.stored: dict[tuple, list] = {}
        self.earned: set[tuple] = set()
        self.encodes: Counter = Counter()
        self._save = ResultCache._save

        def counting_save(cache, key, rows):
            self.encodes[key] += 1  # _save is the one caller of the encoder
            return self._save(cache, key, rows)

        ResultCache._save = counting_save

    def teardown(self):
        ResultCache._save = self._save
        self.db.close()
        ResultCache.clear_process_cache()
        shutil.rmtree(self.directory, ignore_errors=True)

    def _resident(self) -> set[tuple]:
        with cache_module._PROCESS_CACHE_LOCK:
            return set(cache_module._PROCESS_CACHE)

    @rule(index=st.integers(0, 9), limit=st.sampled_from(_LIMITS), flush=st.booleans())
    def lookup(self, index, limit, flush):
        """What the executor does: get, and on a miss execute and put."""
        query = self.queries[index % len(self.queries)]
        key = self.cache.key(query, limit)
        was_resident = key in self._resident()
        rows = self.cache.get(query, limit)
        if rows is None:
            assert not was_resident
            rows = query.execute(self.db, limit=limit)
            self.cache.put(query, limit, rows)
            self.stored[key] = list(rows)
        else:
            assert rows == self.stored[key]
            if was_resident:
                self.earned.add(key)
        if flush:
            self.cache.flush()

    @rule(capacity=st.integers(1, 6))
    def shrink(self, capacity):
        self.cache = ResultCache(self.db, capacity=capacity)
        assert len(self._resident()) <= capacity

    @rule(clear=st.booleans())
    def restart(self, clear):
        self.earned |= self._resident()
        self.db.close()
        if clear:
            ResultCache.clear_process_cache()  # the next process
        self.db = SQLiteBackend(mini_schema(), path=self.path)
        self.db.build_indexes()
        self.cache = ResultCache(self.db, capacity=6)

    @invariant()
    def persisted_entries_were_earned_and_decode_to_the_stored_rows(self):
        store_key = self.cache.key(self.queries[0], None)[0]
        persisted = _persisted_and_pending(self.db, store_key)
        for entry_key, payload in persisted.items():
            cache_key, limit = entry_key.rsplit("#", 1)
            key = (store_key, cache_key, limit)
            assert key in self.stored
            assert key in self.earned
            assert cache_module._decode_rows(payload) == self.stored[key]

    @invariant()
    def nothing_is_encoded_twice(self):
        assert all(count == 1 for count in self.encodes.values()), self.encodes
        assert set(self.encodes) <= set(self.stored)

    @invariant()
    def bookkeeping_is_bounded_by_the_resident_entries(self):
        with cache_module._PROCESS_CACHE_LOCK:
            assert cache_module._UNSAVED <= set(cache_module._PROCESS_CACHE)


TestPersistenceAgainstModel = PersistenceAgainstModel.TestCase
TestPersistenceAgainstModel.settings = settings(
    max_examples=40, stateful_step_count=30, deadline=None
)


# -- (c) eight threads on one cache while a ninth closes the store -------------------


def test_threads_racing_a_close_save_each_entry_at_most_once(tmp_path, monkeypatch):
    path = tmp_path / "mini.sqlite"
    db = build_mini_db("sqlite", db_path=path)
    engine = QueryEngine(db, config=EngineConfig(cache_results=False))
    queries = [
        interp.to_structured_query()
        for text in ("hanks 2001", "london", "hanks", "terminal", "doctor")
        for interp, _p in engine.rank(text)
    ]
    rows = {index: query.execute(db) for index, query in enumerate(queries)}
    cache = ResultCache(db)

    saves: Counter = Counter()
    original_put = db.cached_result_put

    def counting_put(fingerprint, key, payload):
        saves[key] += 1
        original_put(fingerprint, key, payload)

    db.cached_result_put = counting_put
    connection_closes = []
    original_close = db._close_connections
    monkeypatch.setattr(
        db, "_close_connections", lambda: (connection_closes.append(1), original_close())[1]
    )

    errors: list[BaseException] = []
    start = threading.Barrier(9)

    def worker(offset: int) -> None:
        try:
            start.wait(timeout=30)
            for step in range(400):
                index = (offset + step) % len(queries)
                if cache.get(queries[index], None) is None:
                    cache.put(queries[index], None, rows[index])
                cache.flush()
        except BaseException as exc:  # noqa: BLE001 - the assertion below reports it
            errors.append(exc)

    def closer() -> None:
        try:
            start.wait(timeout=30)
            db.close()
            db.close()
        except BaseException as exc:  # noqa: BLE001
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
    threads.append(threading.Thread(target=closer))
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
    assert connection_closes == [1]
    assert saves and all(count == 1 for count in saves.values()), saves
    persisted = _side_table(path)
    assert set(persisted) <= {f"{query.cache_key()}#none" for query in queries}
    for index, query in enumerate(queries):
        payload = persisted.get(f"{query.cache_key()}#none")
        if payload is not None:
            assert cache_module._decode_rows(payload) == rows[index]


# -- (d) a served store survives SIGTERM ---------------------------------------------


def test_a_sigtermed_server_leaves_a_store_that_answers_without_executing(tmp_path):
    path = tmp_path / "served.sqlite"
    server = spawn_tcp_server(backend="sqlite", db_path=str(path))
    try:
        texts: list[str] = []
        probe = QueryEngine.for_dataset("imdb")
        with socket.create_connection(
            (server.host, server.port), timeout=30
        ) as sock, sock.makefile("rb") as reader:
            for text in _distinct_texts(probe.backend, 50):
                sock.sendall(protocol.encode_request(text, k=5))
                payload = json.loads(reader.readline())
                assert payload["ok"] is True, payload
                texts.append(text)
    finally:
        code = server.terminate()
        server.process.stdout.close()
    assert code == 0
    assert len(set(texts)) == 50
    assert len(_side_table(path)) >= 50

    ResultCache.clear_process_cache()
    engine = QueryEngine.for_dataset("imdb", backend="sqlite", db_path=path)
    try:
        for text in texts:
            context = engine.run(text, k=5)
            assert context.executor_statistics.interpretations_executed == 0
            assert context.cache_misses == 0 and context.cache_hits > 0
    finally:
        engine.backend.close()
