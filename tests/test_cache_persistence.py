"""What a file store keeps across runs now that the result cache keeps none.

The result cache is process-local: it writes nothing to the store, so a run
commits nothing from the cache path, leaves no write transaction open (an
open one would route every read to the writer instead of the read pool), and
a new process starts cold.  What survives a restart is the store itself: a
store that was serving when it got SIGTERM reopens and answers the same, and
a file written while a ``_repro_result_cache`` side table still existed
answers from execution, never from that table.
"""

from __future__ import annotations

import json
import socket
import sqlite3

import pytest

from repro.cli import main
from repro.core.topk import TopKExecutor
from repro.engine import QueryEngine, ResultCache
from repro.net import protocol
from tests.serving import spawn_tcp_server
from tests.test_engine_memo import _distinct_texts

#: ``--db-path`` backends; ``shards`` for the one that takes a partition count.
FILE_STORES = [("sqlite", None), ("sqlite-sharded", 3)]


@pytest.fixture(autouse=True)
def fresh_process_cache():
    ResultCache.clear_process_cache()
    yield
    ResultCache.clear_process_cache()


# -- no run leaves a write transaction open ------------------------------------------


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


@pytest.mark.parametrize("backend, shards", FILE_STORES)
def test_cold_distinct_queries_commit_nothing_from_the_cache_path(
    backend, shards, tmp_path
):
    engine = QueryEngine.for_dataset(
        "imdb", backend=backend, shards=shards, db_path=tmp_path / "store.sqlite"
    )
    db = engine.backend
    try:
        counting = db._conn = _CountingConnection(db._conn)
        texts = _distinct_texts(db, 50)
        leases = db.read_pool_stats()["leases"]
        for text in texts:
            context = engine.run(text, k=5)
            assert context.cache_hits == 0 and context.cache_misses > 0
            assert not db._conn.in_transaction
        assert db.read_pool_stats()["leases"] > leases  # reads left the writer
        for text in texts:
            context = engine.run(text, k=5)
            assert context.cache_misses == 0 and context.cache_hits > 0
            assert context.executor_statistics.interpretations_executed == 0
            assert not db._conn.in_transaction
        assert counting.commits == 0
        # The backend's own commit points stay unconditional.
        db.commit()
        assert counting.commits == 1
    finally:
        db.close()
    assert counting.commits == 2


# -- a served store survives SIGTERM -------------------------------------------------


def _served_lines(path, texts: list[str]) -> list[bytes]:
    """Each text's response line from a ``serve --tcp`` over ``path``, the
    wall-clock ``seconds`` zeroed; the server is SIGTERMed afterwards and
    must exit 0."""
    server = spawn_tcp_server(backend="sqlite", db_path=str(path))
    lines = []
    try:
        with socket.create_connection(
            (server.host, server.port), timeout=30
        ) as sock, sock.makefile("rb") as reader:
            for text in texts:
                sock.sendall(protocol.encode_request(text, k=5))
                payload = json.loads(reader.readline())
                assert payload["ok"] is True, payload
                payload["stats"]["seconds"] = 0
                lines.append(protocol.encode_line(payload))
    finally:
        code = server.terminate()
        server.process.stdout.close()
    assert code == 0
    return lines


def test_a_sigtermed_server_leaves_a_store_that_answers_the_same(tmp_path):
    """After SIGTERM the store reopens and a new server answers the same 50
    texts byte for byte — both from execution, since a new process starts
    cold."""
    path = tmp_path / "served.sqlite"
    texts = _distinct_texts(QueryEngine.for_dataset("imdb").backend, 50)
    first = _served_lines(path, texts)
    assert all(b'"cache_hits":0' in line for line in first)
    assert _served_lines(path, texts) == first


# -- store files written while the side table existed --------------------------------


#: The ``_repro_result_cache`` table as earlier versions created it.
LEGACY_RESULT_CACHE_DDL = (
    "CREATE TABLE IF NOT EXISTS _repro_result_cache ("
    "schema_key TEXT, fingerprint TEXT, cache_key TEXT, payload TEXT, "
    "PRIMARY KEY (fingerprint, cache_key))"
)


@pytest.mark.parametrize("backend, shards", FILE_STORES)
def test_a_legacy_result_cache_table_is_ignored(backend, shards, tmp_path, capsys):
    """A file may still hold a populated ``_repro_result_cache``.  One row
    under the exact key the next run looks up for the best-ranked
    interpretation that has rows, holding an empty result: were it read,
    those rows would not print and that interpretation would not count as
    executed.  It is not read."""
    path = tmp_path / "legacy.sqlite"
    argv = ["search", "--backend", backend, "--db-path", str(path), "london"]
    argv += [] if shards is None else ["--shards", str(shards)]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert "(1 interpretations executed)" in first

    engine = QueryEngine.for_dataset("imdb", backend=backend, shards=shards, db_path=path)
    try:
        limit = TopKExecutor.per_query_limit
        with_rows = next(
            query
            for query in (i.to_structured_query() for i, _p in engine.rank("london"))
            if query.execute(engine.backend, limit=limit)
        )
        fingerprint, cache_key, spelled_limit = ResultCache(engine.backend).key(
            with_rows, limit
        )
    finally:
        engine.backend.close()
    raw = sqlite3.connect(path)
    raw.execute(LEGACY_RESULT_CACHE_DDL)
    raw.execute(
        "INSERT OR REPLACE INTO _repro_result_cache VALUES ('legacy', ?, ?, '[]')",
        (fingerprint, f"{cache_key}#{spelled_limit}"),
    )
    raw.commit()
    raw.close()

    ResultCache.clear_process_cache()  # what the next process holds
    assert main(argv) == 0
    assert capsys.readouterr().out == first
    raw = sqlite3.connect(path)
    assert raw.execute("SELECT COUNT(*) FROM _repro_result_cache").fetchone() == (1,)
    raw.close()
