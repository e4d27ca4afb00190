"""The row stream is the only way rows leave a backend.

Three faces, one primitive: ``execute_path(*spec)``,
``execute_paths_batched([spec, ...]).rows[i]`` and the drained
``execute_paths_streamed`` cursor must agree row for row — on every backend,
file-backed and ``:memory:``, under every ``limit``, and when the parameter
budget forces specs out of the shared ``UNION ALL`` into post-filtering solo
plans.  The list-returning faces are drains of the stream, so they must also
*close* it: no reader lease or cursor may outlive a drain, whether it ended
by exhaustion, by a ``limit`` or by an exception — and since every cursor
advances in the caller's thread, a drain starts no thread either.
"""

from __future__ import annotations

import threading
from dataclasses import fields

import pytest

from repro.db.backends import ShardedSQLiteBackend, sql as sqlc
from repro.db.backends.base import BatchedExecution
from repro.engine import EngineConfig, QueryEngine
from tests.conftest import build_mini_db, mini_schema

QUERIES = ("hanks 2001", "london", "hanks")
STORES = ["memory", "sqlite", "sqlite-file", "sharded3", "sharded3-file"]


def _open(store: str, tmp_path):
    path = tmp_path / "store.sqlite" if store.endswith("-file") else None
    if store.startswith("sharded"):  # "sharded<N>[-file]"
        shards = int(store.removeprefix("sharded")[0])
        return build_mini_db(ShardedSQLiteBackend(mini_schema(), path=path, shards=shards))
    return build_mini_db(store.removesuffix("-file"), db_path=path)


def _specs(db, query_text):
    engine = QueryEngine(db, config=EngineConfig(cache_results=False))
    return [
        interp.to_structured_query().path_spec()
        for interp, _p in engine.rank(query_text)
    ]


@pytest.mark.parametrize("forced_fallback", [False, True])
@pytest.mark.parametrize("limit", [None, 0, 1, 3])
@pytest.mark.parametrize("store", STORES)
def test_three_faces_of_one_stream(store, limit, forced_fallback, tmp_path, monkeypatch):
    if forced_fallback:
        # Every multi-key selection overflows the inline cap: its spec leaves
        # the union for a solo plan that post-filters in Python.
        monkeypatch.setattr(sqlc, "MAX_INLINE_KEYS", 1)
    db = _open(store, tmp_path)
    try:
        for query_text in QUERIES:
            specs = _specs(db, query_text)
            batched = db.execute_paths_batched(specs, limit=limit)
            execution = db.execute_paths_streamed(specs, limit=limit)
            grouped: list[list] = [[] for _ in specs]
            with execution.stream as stream:
                for index, network in stream:
                    grouped[index].append(network)
            single = [db.execute_path(*spec, limit=limit) for spec in specs]
            assert repr(batched.rows) == repr(grouped) == repr(single), query_text
            # The drained BatchedExecution is the stream's bookkeeping, field
            # for field — nothing hand-copied, nothing forgotten.
            assert isinstance(batched, BatchedExecution)
            for f in fields(BatchedExecution):
                if f.name != "rows":
                    assert getattr(batched, f.name) == getattr(execution, f.name), (
                        query_text,
                        f.name,
                    )
            planned = {
                index
                for index, spec in enumerate(specs)
                if limit != 0 and db.plan_path_spec(*spec, limit=limit) is not None
            }
            if store != "memory":
                assert set(batched.fallbacks) <= planned
                if forced_fallback and limit != 0 and query_text != "london":
                    assert batched.fallbacks, query_text  # "hanks": 3 keys
                if store.startswith("sharded3"):
                    assert set(batched.scatter_slots) == planned
                    assert sum(batched.shard_rows.values()) == sum(
                        len(rows) for rows in batched.rows
                    )
            else:
                assert batched.statements == len(planned)  # one plan each
    finally:
        db.close()


class TestDrainsCloseWhatTheyOpen:
    """After every internal drain — complete, cut by ``limit``, or aborted by
    an exception — the store holds no lease and no cursor, and no thread
    exists that did not exist before the store was opened."""

    @pytest.fixture(params=["sqlite-file", "sharded1-file", "sharded3-file"])
    def db(self, request, tmp_path):
        self.threads_before = threading.active_count()
        db = _open(request.param, tmp_path)
        yield db
        db.close()

    def _assert_quiescent(self, db):
        pool = db._reader_pool()
        assert pool is not None  # file-backed stores pool their readers
        assert pool._active == 0
        # The storage layer starts no thread: none is alive now that was
        # not alive before the store was opened.
        assert threading.active_count() == self.threads_before
        assert not [
            thread.name
            for thread in threading.enumerate()
            if thread.name.startswith("repro-shard")
        ]

    def test_every_shard_cursor_runs_on_the_calling_thread(self, db, monkeypatch):
        """The positive form: a plan's cursor — one, sharded or not —
        opens and advances in the thread that drains the stream."""
        iter_cursor = db._iter_cursor
        idents = []

        def recording(*args):
            idents.append(threading.get_ident())  # runs at the first pull
            yield from iter_cursor(*args)

        monkeypatch.setattr(db, "_iter_cursor", recording)
        assert len(db.execute_path(["actor"], [])) == 3
        assert idents == [threading.get_ident()]
        self._assert_quiescent(db)

    def test_limit_breaks_and_exceptions_release_everything(self, db, monkeypatch):
        specs = _specs(db, "hanks 2001")
        multi_row = next(s for s in specs if len(db.execute_path(*s)) >= 2)
        self._assert_quiescent(db)

        assert db.has_results(*multi_row)
        self._assert_quiescent(db)

        assert len(db.execute_path(*multi_row, limit=1)) == 1
        self._assert_quiescent(db)

        execution = db.execute_paths_streamed(specs, limit=10)
        next(execution.stream)
        assert db._reader_pool()._active == 1  # one lease, however many shards
        execution.stream.close()
        self._assert_quiescent(db)

        decode = db._decode_network
        calls = []

        def failing_decode(*args, **kwargs):
            if calls:
                raise RuntimeError("decode failed mid-drain")
            calls.append(1)
            return decode(*args, **kwargs)

        monkeypatch.setattr(db, "_decode_network", failing_decode)
        with pytest.raises(RuntimeError, match="mid-drain"):
            db.execute_path(*multi_row)
        calls.clear()
        with pytest.raises(RuntimeError, match="mid-drain"):
            db.execute_paths_batched(specs, limit=10)
        monkeypatch.undo()
        self._assert_quiescent(db)
        # A leaked read cursor would pin a WAL snapshot or hold the writer
        # connection's lock: this write would stall into "database is
        # locked" instead of committing.
        db.insert("actor", {"name": "late arrival"})
        db.commit()
        # ...and the store still answers, identically to a fresh reference.
        reference = build_mini_db("memory")
        reference.insert("actor", {"name": "late arrival"})
        assert repr(db.execute_paths_batched(specs, limit=10).rows) == repr(
            reference.execute_paths_batched(specs, limit=10).rows
        )
