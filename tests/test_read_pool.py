"""The WAL-backed read-connection pool: lock invariants, concurrent parity.

Three contracts under test:

* **Lock acquisition** — ``_acquire_lock_for`` returns one shared lock object
  per backend instance for ``:memory:`` stores (historically every call site
  got a fresh ``RLock``, so "holding the lock" guarded nothing) and one
  refcounted lock per *path* for file stores, idempotently on repeated calls.
* **Concurrent-read parity** — N threads running mixed cold/warm queries
  through pooled reader connections receive responses byte-identical to
  sequential execution, on both the plain and the sharded file-backed store.
* **Writer visibility** — a post-build insert commits, bumps the write
  epoch, and is visible to every subsequent pooled read: a reader leased
  before the write must not stay pinned to its old WAL snapshot.  The other
  direction holds too: a read never commits — it leaves the write epoch and
  an open bulk-load transaction exactly as it found them.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.db.backends import create_backend
from repro.db.backends.sqlite import SQLiteBackend, _acquire_lock_for
from repro.engine import EngineConfig, QueryEngine, ResultCache
from tests.conftest import build_mini_db, mini_schema

QUERIES = ["hanks 2001", "london", "hanks", "2001"]
FILE_BACKENDS = ["sqlite", "sqlite-sharded"]


def _open_store(backend, path=None, **options):
    """An empty mini-schema store; the sharded one has three partitions."""
    if backend == "sqlite-sharded":
        options["shards"] = 3
    return create_backend(backend, mini_schema(), path=path, **options)


@pytest.fixture(autouse=True)
def fresh_process_cache():
    ResultCache.clear_process_cache()
    yield
    ResultCache.clear_process_cache()


def _rows(context):
    return [(r.score, r.interpretation_rank, r.row_uids()) for r in context.results]


class TestLockAcquisition:
    """The satellite regression: one lock object per backend instance."""

    def test_memory_lock_is_shared_per_instance(self):
        """Repeated ``:memory:`` acquisitions on one instance return the
        *same* lock object — a fresh ``RLock`` per call would make every
        ``with self._lock:`` site mutually non-exclusive."""
        db = build_mini_db("sqlite")
        assert _acquire_lock_for(db.path, db) is db._lock
        assert _acquire_lock_for(db.path, db) is db._lock

    def test_two_memory_backends_do_not_share_a_lock(self):
        """Distinct ``:memory:`` stores are distinct databases: sharing one
        lock would serialize two unrelated backends against each other."""
        one, two = build_mini_db("sqlite"), build_mini_db("sqlite")
        assert one._lock is not two._lock

    def test_file_backends_share_the_per_path_lock(self, tmp_path):
        path = tmp_path / "shared.sqlite"
        first = build_mini_db("sqlite", db_path=path)
        second = create_backend("sqlite", mini_schema(), path=path)
        try:
            assert first._lock is second._lock
            assert _acquire_lock_for(first.path, first) is first._lock
        finally:
            second.close()
            first.close()


class TestPoolMechanics:
    def test_memory_store_has_no_pool(self):
        db = build_mini_db("sqlite")
        assert not db._read_pool_enabled()
        assert db.read_pool_stats() is None

    @pytest.mark.parametrize("backend", FILE_BACKENDS)
    def test_size_one_is_a_pool_of_one(self, tmp_path, backend):
        """``read_pool_size=1`` is a pool like any other: one reader — on a
        sharded store too — and whoever asks while it is out waits for it."""
        assert _open_store(backend, read_pool_size=1).read_pool_stats() is None
        db = build_mini_db(_open_store(backend, tmp_path / "s.db", read_pool_size=1))
        pool = db._reader_pool()
        assert pool is not None
        assert db.read_pool_stats()["size"] == pool.size == 1
        before = pool.stats()
        assert before["waits"] == 0
        got = []

        def ask() -> None:
            with db._lease_read_connection() as reader:
                got.append(reader)

        waiter = threading.Thread(target=ask)
        with db._lease_read_connection() as held:
            waiter.start()
            deadline = time.monotonic() + 10
            while True:
                with pool._cond:  # ``waits`` moves under it, right before the wait
                    if pool.waits:
                        break
                assert time.monotonic() < deadline, "the waiter never asked"
            assert not got
        waiter.join(10)
        assert not waiter.is_alive()
        assert got == [held]
        after = db.read_pool_stats()
        assert after["waits"] == 1
        assert after["leases"] == before["leases"] + 2
        assert after["peak_concurrency"] == 1
        db.close()

    def test_create_backend_threads_the_knob(self, tmp_path):
        db = create_backend(
            "sqlite", mini_schema(), path=tmp_path / "s.db", read_pool_size=2
        )
        assert db._read_pool_size == 2

    def test_create_backend_rejects_unsupporting_backends(self):
        with pytest.raises(ValueError, match="read-connection pool"):
            create_backend("memory", mini_schema(), read_pool_size=4)

    def test_configure_rejects_nonpositive_sizes(self, tmp_path):
        db = build_mini_db("sqlite", db_path=tmp_path / "s.db")
        with pytest.raises(ValueError):
            db.configure_read_pool(0)

    def test_engine_config_applies_to_the_backend(self, tmp_path):
        db = build_mini_db("sqlite", db_path=tmp_path / "s.db")
        QueryEngine(db, config=EngineConfig(read_pool_size=3))
        assert db._read_pool_size == 3

    def test_stats_count_leases(self, tmp_path):
        db = build_mini_db("sqlite", db_path=tmp_path / "s.db")
        engine = QueryEngine(
            db, config=EngineConfig(cache_results=False, read_pool_size=4)
        )
        context = engine.run("hanks 2001", k=5)
        stats = db.read_pool_stats()
        assert stats is not None
        assert stats["size"] == 4
        assert stats["leases"] > 0
        assert 1 <= stats["peak_concurrency"] <= 4
        pool = context.executor_statistics.read_pool
        assert pool and pool["leases"] > 0
        assert "read pool:" in "\n".join(context.explain_lines())

    def test_the_next_lease_gets_the_reader_given_back_last(self, tmp_path):
        """A plan statement's text is prepared per connection, so a lease
        must meet the reader the last one left — or sequential requests
        walk the pool and every reader ends up preparing every text."""
        db = build_mini_db(_open_store("sqlite-sharded", tmp_path / "s.db"))
        pool = db._reader_pool()
        before = pool.stats()
        with pool.lease() as first:
            pass
        with pool.lease() as second:
            assert second is first
            with pool.lease() as other:  # nested: a second reader opens
                assert other is not first
        with pool.lease() as third:
            assert third is first  # given back last, taken first
        after = pool.stats()
        assert after["leases"] == before["leases"] + 4
        assert after["waits"] == before["waits"] == 0
        assert after["peak_concurrency"] == 2
        assert pool._opened == 2 and pool._active == 0
        db.close()

    def test_pool_capacity_is_the_pool_size_on_every_store(self, tmp_path):
        """``--read-pool-size N`` is N readers, sharded or not: a plan is
        one statement on one reader, which ATTACHes every partition."""
        for backend in FILE_BACKENDS:
            db = build_mini_db(
                _open_store(backend, tmp_path / f"{backend}.db", read_pool_size=2)
            )
            assert db.read_pool_stats()["size"] == db._reader_pool().size == 2
            db.close()


class TestConcurrentReadParity:
    """N threads x mixed cold/warm queries == sequential, byte for byte."""

    THREADS = 8
    ROUNDS = 3

    @pytest.mark.parametrize("backend", FILE_BACKENDS)
    def test_concurrent_responses_match_sequential(self, tmp_path, backend):
        db = build_mini_db(backend, db_path=tmp_path / "store.db")
        warm = QueryEngine(db, config=EngineConfig(read_pool_size=4))
        cold = QueryEngine(
            db, config=EngineConfig(cache_results=False, read_pool_size=4)
        )
        # The sequential reference (also warms `warm`'s result cache, so the
        # warm lanes below exercise cache hits while the cold lanes keep
        # leasing pooled readers).
        reference = {text: _rows(warm.run(text, k=5)) for text in QUERIES}

        failures: list[str] = []
        barrier = threading.Barrier(self.THREADS)

        def worker(index: int) -> None:
            engine = cold if index % 2 == 0 else warm
            barrier.wait()
            for _round in range(self.ROUNDS):
                for text in QUERIES:
                    if _rows(engine.run(text, k=5)) != reference[text]:
                        failures.append(f"thread {index}: {text!r} diverged")

        threads = [
            threading.Thread(target=worker, args=(index,))
            for index in range(self.THREADS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not failures, failures
        stats = db.read_pool_stats()
        assert stats is not None and stats["leases"] > 0

    @pytest.mark.parametrize("backend", FILE_BACKENDS)
    def test_memory_store_parity_without_a_pool(self, backend):
        """The same concurrent workload on a ``:memory:`` store — no pool,
        every read on the one connection — stays byte-identical too."""
        db = build_mini_db(backend)
        engine = QueryEngine(db, config=EngineConfig(cache_results=False))
        reference = {text: _rows(engine.run(text, k=5)) for text in QUERIES}
        failures: list[str] = []

        def worker() -> None:
            for text in QUERIES:
                if _rows(engine.run(text, k=5)) != reference[text]:
                    failures.append(text)

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not failures, failures


class TestWriterVisibility:
    """The writer -> readers barrier: committed writes reach pooled reads."""

    @pytest.mark.parametrize("backend", FILE_BACKENDS)
    def test_insert_bumps_epoch_and_is_visible(self, tmp_path, backend):
        db = build_mini_db(backend, db_path=tmp_path / "store.db")
        relation = db.relation("actor")
        # Lease a pooled reader once before the write: if its cursor were
        # left un-reset, the reader would stay pinned to the pre-insert WAL
        # snapshot and the post-insert read below would miss the row.
        assert relation.get(9) is None
        before = db.write_epoch
        db.insert("actor", {"id": 9, "name": "late arrival"})
        assert db.write_epoch > before
        inserted = relation.get(9)
        assert inserted is not None and inserted.get("name") == "late arrival"
        assert len(relation) == 4

    @pytest.mark.parametrize("backend", FILE_BACKENDS)
    def test_a_read_only_query_commits_nothing(self, tmp_path, backend):
        """The epoch counts writer commits; a query is not one."""
        db = build_mini_db(_open_store(backend, tmp_path / "store.db"))
        engine = QueryEngine(db, config=EngineConfig(cache_results=False))
        before = db.write_epoch
        assert engine.run("hanks 2001", k=5).results
        assert db.write_epoch == before
        db.close()

    @pytest.mark.parametrize("backend", FILE_BACKENDS)
    def test_a_read_inside_a_bulk_load_sees_it_and_leaves_it_open(
        self, tmp_path, backend
    ):
        """Before ``build_indexes()`` commits, a path read runs on the writer:
        it sees the uncommitted rows and does not commit them."""
        db = _open_store(backend, tmp_path / "store.db")
        for key in range(1, 5):
            db.insert("actor", {"id": key, "name": f"actor {key}"})
        assert db._conn.in_transaction
        rows = db.execute_path(["actor"], [])
        assert [network[0].key for network in rows] == [1, 2, 3, 4]
        assert db._conn.in_transaction
        db.build_indexes()
        assert not db._conn.in_transaction
        db.close()

    def test_interleaved_writer_thread(self, tmp_path):
        """Reads racing one writer thread always see a legal state and see
        every row once the writer joined."""
        db = build_mini_db("sqlite", db_path=tmp_path / "store.db")
        relation = db.relation("actor")
        stop = threading.Event()
        observed: list[int] = []

        def reader() -> None:
            while not stop.is_set():
                observed.append(len(relation))

        thread = threading.Thread(target=reader)
        thread.start()
        try:
            for key in range(10, 15):
                db.insert("actor", {"id": key, "name": f"actor {key}"})
        finally:
            stop.set()
            thread.join()
        assert all(3 <= count <= 8 for count in observed)
        assert len(relation) == 8
        assert sorted(relation.keys())[-1] == 14


class TestPoolLifecycle:
    def test_resize_resets_counters_and_capacity(self, tmp_path):
        db = build_mini_db("sqlite", db_path=tmp_path / "s.db")
        db.relation("actor").get(1)
        assert db.read_pool_stats()["leases"] > 0
        db.configure_read_pool(2)
        stats = db.read_pool_stats()
        assert stats == {
            "size": 2,
            "leases": 0,
            "waits": 0,
            "peak_concurrency": 0,
        }

    def test_close_tears_down_the_pool(self, tmp_path):
        db = build_mini_db("sqlite", db_path=tmp_path / "s.db")
        db.relation("actor").get(1)
        db.close()
        assert db._read_pool is None

    def test_default_pool_size_is_documented_constant(self):
        assert SQLiteBackend.DEFAULT_READ_POOL_SIZE == 4
