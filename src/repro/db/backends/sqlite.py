"""A persistent SQLite storage engine.

Rows live in a SQLite database (a file on disk or ``":memory:"``), so
datasets survive process restarts and never need re-generation.  The inverted
index is *persisted* alongside the rows (``_repro_index_*`` side tables):
``build_indexes()`` on a reopened store loads the stored postings — validated
against the store's content fingerprint — instead of re-scanning and
re-tokenizing every stored table, so cold opens cost one side-table read.
Join-path execution — the hot path of interpretation materialization — is
pushed down to real SQL: one ``SELECT ... JOIN ... WHERE pk IN (...) LIMIT
k`` statement per candidate network, with keyword selections resolved to
primary-key sets through the inverted index first so containment keeps the
tokenizer's semantics (not SQL ``LIKE`` substring matching) and stays
bit-identical to the in-memory engine.

Every SQL statement this backend runs comes out of the shared
planner/compiler layer (:mod:`repro.db.backends.sql`): this module owns
connection management, row decoding and the two cursor seams
(:meth:`SQLiteBackend._stream_plan` / :meth:`SQLiteBackend._stream_union`),
which the sharded backend inherits — it builds no SQL text of its own.
Rows leave through :meth:`SQLiteBackend.execute_paths_streamed` only; the
list-returning calls drain it.

File-backed stores serve reads through a **read-connection pool**
(:class:`_ReadConnectionPool`): the single locked writer connection keeps
DDL, inserts and side-table flushes serialized, while every read-only
execution path (the two cursor seams, relation point lookups) leases a
reader connection for the life of its cursor, in the calling thread, so
concurrent queries exploit WAL's readers-don't-block property *inside* one
process instead of only across forked server workers.  ``read_pool_size``
says how many readers the pool may hold (default
:data:`SQLiteBackend.DEFAULT_READ_POOL_SIZE`) and nothing else: ``1`` is a
pool of one reader, on the same code path as any other size.  Reads run on
the writer connection only where no reader could see the rows — a
``":memory:"`` store, or while the writer holds an open transaction (one
rule: :meth:`SQLiteBackend._lease_read_connection`) — and never commit.
The writer→readers visibility barrier is the write epoch: every writer
commit bumps it, and because pooled readers run in WAL mode with every read
transaction closed at cursor end, a reader's next statement always observes
at least the epoch's committed state — pooled execution stays byte-identical
to sequential single-connection runs.

Standard library only (``sqlite3``); no new dependencies.
"""

from __future__ import annotations

import hashlib
import json
import os
import sqlite3
import threading
import weakref
from _weakref import _remove_dead_weakref
from collections import Counter
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Sequence

from repro.db.backends import sql as sqlc
from repro.db.backends.base import (
    ForeignKeyMaps,
    LoadRow,
    PathSpec,
    ResolvedSpec,
    RowStream,
    StorageBackend,
    StreamedExecution,
    normalize_value,
    row_event,
)
from repro.db.backends.sql import (
    CompiledStatement,
    PathPlan,
    PlanCompiler,
    SideTableSQL,
    SQLiteDialect,
)
from repro.db.errors import (
    DatabaseError,
    IntegrityError,
    UnknownAttributeError,
    UnknownTableError,
)
from repro.db.index import InvertedIndex
from repro.db.schema import ForeignKey, Schema, Table
from repro.db.table import Tuple, column_layout
from repro.db.tokenizer import DEFAULT_TOKENIZER, Tokenizer

#: One serialization lock per database *file*, shared by every backend
#: instance (and hence every engine) opened on that file in this process.
#: Python's ``sqlite3`` permits cross-thread connection sharing only when the
#: caller serializes use, and two connections on one file can deadlock each
#: other mid-commit (both holding read locks, both upgrading) — the classic
#: flush-on-close race between two engines sharing a store.  A per-path
#: re-entrant lock removes both hazards inside the process; ``PRAGMA
#: busy_timeout`` covers contention from other processes.  Entries are
#: refcounted and dropped when the last backend on a path closes, so
#: long-lived processes opening many distinct files don't accumulate locks.
#: Next to each lock sits the file's row-write generation (a one-element
#: list every instance on the path shares): each row write through any of
#: them bumps it, so the emptiness proof's maps notice a sibling's writes.
_FILE_LOCKS: dict[str, tuple[threading.RLock, int, list[int]]] = {}
_FILE_LOCKS_GUARD = threading.Lock()


def _acquire_lock_for(path: str, instance: Any | None = None) -> threading.RLock:
    """The process-wide lock of one database file (per *instance* for
    ``":memory:"``).

    Every ``:memory:`` connection is its own private database, so its lock
    must not be shared across backends through the path registry — but it
    *must* be shared across call sites of one backend.  Historically this
    function handed out a fresh ``RLock`` on every ``:memory:`` call, which
    was invisible while ``__init__`` was the single acquisition but would
    silently stop serializing the moment a second call site appeared (the
    read pool's lazy init, a subclass hook).  The lock is therefore cached
    on the owning ``instance``: repeated acquisition for one backend
    returns the same object.  Pinned by ``tests/test_read_pool.py``.  The
    file's row-write generation is cached beside it, as
    ``instance._row_writes``.
    """
    if instance is not None:
        cached = getattr(instance, "_acquired_lock", None)
        if cached is not None:
            return cached
    if path == ":memory:":
        lock, row_writes = threading.RLock(), [0]
    else:
        resolved = os.path.abspath(path)
        with _FILE_LOCKS_GUARD:
            lock, refs, row_writes = _FILE_LOCKS.get(resolved, (None, 0, [0]))
            if lock is None:
                lock = threading.RLock()
            _FILE_LOCKS[resolved] = (lock, refs + 1, row_writes)
    if instance is not None:
        instance._acquired_lock = lock
        instance._row_writes = row_writes
    return lock


def _release_lock_for(path: str) -> None:
    """Drop one reference; the registry entry dies with the last backend."""
    if path == ":memory:":
        return
    resolved = os.path.abspath(path)
    with _FILE_LOCKS_GUARD:
        entry = _FILE_LOCKS.get(resolved)
        if entry is None:
            return
        lock, refs, row_writes = entry
        if refs <= 1:
            del _FILE_LOCKS[resolved]
        else:
            _FILE_LOCKS[resolved] = (lock, refs - 1, row_writes)


class _LockedConnection:
    """A ``sqlite3.Connection`` facade serializing statement execution.

    Every statement, commit and close acquires the file's lock, so one
    connection is safe to share across the server's worker threads and two
    connections on one file cannot interleave write transactions.  Callers
    needing multi-statement atomicity (batch compile + fetch, the side-table
    rewrites) hold the same re-entrant lock around the whole sequence.
    """

    def __init__(
        self,
        conn: sqlite3.Connection,
        lock: threading.RLock,
        on_commit: Callable[[], None] | None = None,
    ):
        self._conn = conn
        self.lock = lock
        self._on_commit = on_commit

    @property
    def in_transaction(self) -> bool:
        """True while this connection holds an open write transaction."""
        return self._conn.in_transaction

    def execute(self, sql: str, parameters: Sequence[Any] = ()) -> sqlite3.Cursor:
        with self.lock:
            return self._conn.execute(sql, parameters)

    def executemany(self, sql: str, rows: Iterable[Sequence[Any]]) -> sqlite3.Cursor:
        with self.lock:
            return self._conn.executemany(sql, rows)

    def commit(self) -> None:
        with self.lock:
            self._conn.commit()
        if self._on_commit is not None:
            # Outside the lock: the hook (the backend's write-epoch bump)
            # must never extend the serialized section.
            self._on_commit()

    def close(self) -> None:
        with self.lock:
            self._conn.close()

    def create_function(self, *args: Any, **kwargs: Any) -> None:
        with self.lock:
            self._conn.create_function(*args, **kwargs)


class _ReadConnectionPool:
    """Leased read-only connections over one WAL database file.

    ``lease()`` hands out one idle reader (opening it lazily while fewer
    than ``size`` exist, waiting otherwise) for the life of one cursor:
    every executed plan — on a sharded store too, whose readers ATTACH every
    partition — is one statement on one reader, so ``size`` is how many
    plans (or point reads) run concurrently.  No caller takes a second
    connection while holding one, so the pool is deadlock-free by
    construction.

    Each reader is a :class:`_LockedConnection` with a *private* lock (one
    in-flight statement per connection — Python's ``sqlite3`` requirement),
    not the backend's per-file lock: that lock keeps serializing the writer
    connection only.  Counters (``leases``, ``waits``,
    ``peak_concurrency``) feed ``--explain``, ``GET /stats`` and the bench
    reports.
    """

    def __init__(self, size: int, open_connection: Callable[[], "_LockedConnection"]):
        if size < 1:
            raise ValueError("read pool size must be positive")
        self.size = size
        self._open = open_connection
        self._idle: list[_LockedConnection] = []
        self._opened = 0
        self._active = 0
        self._closed = False
        self._cond = threading.Condition()
        #: Total connections handed out over the pool's lifetime.
        self.leases = 0
        #: Lease attempts that had to wait for a connection to free up.
        self.waits = 0
        #: Highest number of simultaneously leased connections observed.
        self.peak_concurrency = 0

    def _take(self) -> _LockedConnection:
        with self._cond:
            if not self._idle and self._opened >= self.size:
                self.waits += 1
                while not self._idle and self._opened >= self.size:
                    if self._closed:
                        raise DatabaseError("read pool is closed")
                    self._cond.wait()
            if self._closed:
                raise DatabaseError("read pool is closed")
            if self._idle:
                # The tail is the reader given back last: its statement
                # cache is the likeliest to hold the text about to be asked.
                conn = self._idle.pop()
            else:
                conn = self._open()
                self._opened += 1
            self.leases += 1
            self._active += 1
            if self._active > self.peak_concurrency:
                self.peak_concurrency = self._active
            return conn

    def _give_back(self, conn: _LockedConnection) -> None:
        with self._cond:
            self._active -= 1
            if self._closed:
                conn.close()
            else:
                self._idle.append(conn)
            self._cond.notify()

    @contextmanager
    def lease(self) -> Iterator[_LockedConnection]:
        """One reader for the block's duration."""
        conn = self._take()
        try:
            yield conn
        finally:
            self._give_back(conn)

    def stats(self) -> dict[str, int]:
        with self._cond:
            return {
                "size": self.size,
                "leases": self.leases,
                "waits": self.waits,
                "peak_concurrency": self.peak_concurrency,
            }

    def close(self) -> None:
        """Close idle readers; leased ones close on return (see
        :meth:`_give_back`)."""
        with self._cond:
            self._closed = True
            for conn in self._idle:
                conn.close()
            self._idle.clear()
            self._cond.notify_all()


#: Relation-level normalization for direct ``RelationView.insert`` calls
#: (backend-level inserts already normalize in the shared base path).
_normalize = normalize_value


def _json_key_type(kind: type) -> bool:
    """Whether keys of type ``kind`` survive a JSON round trip (int/str
    primary keys do; bool would come back as int, float keys may not)."""
    return issubclass(kind, (int, str)) and not issubclass(kind, bool)


class _RowRef(weakref.ref):
    """Weak reference to a decoded row that remembers its primary key."""

    __slots__ = ("key",)


class SQLiteRelation:
    """Per-table handle over stored rows (the ``RelationView`` protocol).

    Mirrors :class:`repro.db.table.Relation` semantics — auto-assigned
    primary keys, ``None`` for missing attributes, insertion-order scans —
    on top of a SQLite table.  All statements come pre-compiled from the
    backend's dialect, so the sharded subclass only swaps physical sources.
    """

    def __init__(self, backend: "SQLiteBackend", table: Table):
        self.table = table
        self._backend = backend
        self._conn = backend._conn
        self._dialect = backend.dialect
        self._columns = list(table.attribute_names)
        self._layout = column_layout(table)
        self._pk = table.primary_key
        self._pk_index = self._columns.index(self._pk)
        #: Primary key -> weak reference to the live decoded row: one object
        #: per stored row.  Stored rows never change (the API only inserts),
        #: and an entry dies with the last reference to its row, so nothing
        #: bounds the map.  Two threads racing on one key each get an equal
        #: row.  (A plain dict of keyed refs: ``WeakValueDictionary``'s
        #: Python-level get/set doubled the cost of a decode.)
        self._alive: dict[Any, _RowRef] = {}
        alive = self._alive
        # Removes the entry only while it is still this dead reference, so
        # a row decoded again meanwhile keeps its entry.
        self._forget = lambda ref: _remove_dead_weakref(alive, ref.key)
        # Set-oriented reads (scan/keys/count/lookup) compile against the
        # dialect's logical table source, which is valid on every dialect
        # (the sharded one resolves it to an all-partitions union).
        self._scan_sql = sqlc.scan_sql(self._dialect, table)
        self._keys_sql = sqlc.scan_sql(self._dialect, table, keys_only=True)
        self._count_sql = sqlc.count_sql(self._dialect, table)
        self._prepare_point_statements()
        # Cached row count for O(1) auto-key assignment (lazy; kept in sync
        # by insert).  ``None`` until the first auto-keyed insert.
        self._row_count: int | None = None

    def _prepare_point_statements(self) -> None:
        """Precompile the single-row INSERT/point-get statements.

        Split out because the INSERT targets one *physical* table: relations
        that route rows (the sharded partition relation) override this
        together with :meth:`_insert_statement`, so no dialect ever holds a
        statement it cannot execute.
        """
        self._insert_sql = sqlc.insert_sql(self._dialect, self.table)
        self._get_sql = sqlc.select_where_sql(self._dialect, self.table, self._pk)

    # -- mutation --------------------------------------------------------

    def insert(self, row: dict[str, Any]) -> Tuple:
        """Insert a row; unknown attributes are rejected, missing ones are None."""
        key, values = self._prepare(row)
        self._store(key, values)
        self._rows_stored(1)
        return Tuple(self.table.name, key, values, self._layout)

    def _prepare(
        self, row: dict[str, Any], pending: set[Any] = frozenset()
    ) -> tuple[Any, tuple[Any, ...]]:
        """``(key, values)`` of a row about to be stored: attributes checked,
        cells normalized, a missing key auto-assigned past the stored rows
        and the ``pending`` keys a bulk load has not written yet."""
        layout = self._layout
        for name in row:
            if name not in layout:
                raise UnknownAttributeError(self.table.name, name)
        key = _normalize(row.get(self._pk))
        if key is None:
            key = self._next_key(pending)
        values = tuple(
            _normalize(row.get(name)) if name != self._pk else key
            for name in self._columns
        )
        return key, values

    def _store(self, key: Any, values: tuple[Any, ...]) -> None:
        """Write one prepared row, with sqlite3 errors mapped to the
        package's own."""
        try:
            self._conn.execute(*self._insert_statement(key, values))
        except sqlite3.IntegrityError:
            raise IntegrityError(
                f"duplicate primary key {key!r} in table {self.table.name!r}"
            ) from None
        except sqlite3.Error as exc:
            # e.g. a value type SQLite cannot store: surface it through the
            # package's own error hierarchy, not a raw sqlite3 exception.
            raise DatabaseError(
                f"cannot store row in table {self.table.name!r}: {exc}"
            ) from None

    def _insert_statement(
        self, key: Any, values: tuple[Any, ...]
    ) -> tuple[str, Sequence[Any]]:
        """``(INSERT text, parameters)`` storing one prepared row; a bulk load
        groups its rows by the text (the sharded override routes the row to
        its key's partition)."""
        return self._insert_sql, values

    def _rows_stored(self, count: int) -> None:
        """Bookkeeping after ``count`` rows of this table were written
        (also by a relation-level insert, which folds no mutation: the
        emptiness proof's maps are dropped here too)."""
        if self._row_count is not None:
            self._row_count += count
        self._backend._drop_foreign_key_maps()

    def _sequence_mark(self) -> Any:
        """The insertion-sequence state a rolled-back write must restore
        (none here: ``rowid`` is SQLite's own)."""
        return None

    def _rewind(self, mark: Any) -> None:
        """Restore a :meth:`_sequence_mark`."""

    def _next_key(self, pending: set[Any] = frozenset()) -> int:
        """Auto-assign a key the way the in-memory Relation does."""
        if self._row_count is None:
            self._row_count = len(self)
        key = self._row_count + len(pending)
        while key in pending or self._is_stored(key):
            key += 1
        return key

    def _is_stored(self, key: Any) -> bool:
        with self._backend._lease_read_connection() as conn:
            return conn.execute(self._get_sql, (key,)).fetchone() is not None

    def create_index(self, attribute: str) -> None:
        """Build an exact-match index on ``attribute`` (CREATE INDEX)."""
        if not self.table.has_attribute(attribute):
            raise UnknownAttributeError(self.table.name, attribute)
        for statement in self._index_ddl(attribute):
            self._conn.execute(statement)

    def _index_ddl(self, attribute: str) -> list[str]:
        return [sqlc.create_index_ddl(self._dialect, self.table, attribute)]

    # -- access ----------------------------------------------------------

    def _to_tuple(self, row: tuple[Any, ...], offset: int = 0) -> Tuple:
        """The live :class:`Tuple` of the row stored at ``row[offset:]``;
        decoded (sliced) only when none is alive."""
        key = row[offset + self._pk_index]
        ref = self._alive.get(key)
        tup = None if ref is None else ref()
        if tup is None:
            values = row[offset : offset + len(self._columns)]
            tup = Tuple(self.table.name, key, values, self._layout)
            ref = _RowRef(tup, self._forget)
            ref.key = key
            self._alive[key] = ref
        return tup

    def get(self, key: Any) -> Tuple | None:
        with self._backend._lease_read_connection() as conn:
            row = conn.execute(self._get_sql, (key,)).fetchone()
        return self._to_tuple(row) if row is not None else None

    def lookup(self, attribute: str, value: Any) -> list[Tuple]:
        """All tuples with ``attribute == value`` (SQL point query)."""
        if not self.table.has_attribute(attribute):
            return []
        with self._backend._lease_read_connection() as conn:
            cursor = conn.execute(
                sqlc.select_where_sql(self._dialect, self.table, attribute),
                (value,),
            )
            matches = [self._to_tuple(row) for row in cursor.fetchall()]
        matches.sort(key=lambda t: repr(t.key))
        return matches

    def scan(self) -> Iterator[Tuple]:
        for row in self.value_rows():
            yield self._to_tuple(row)

    def value_rows(self) -> list[tuple[Any, ...]]:
        """Every stored row as its cells, in scan order, decoding nothing."""
        with self._backend._lease_read_connection() as conn:
            return conn.execute(self._scan_sql).fetchall()

    def keys(self) -> Iterable[Any]:
        with self._backend._lease_read_connection() as conn:
            cursor = conn.execute(self._keys_sql)
            return [row[0] for row in cursor.fetchall()]

    def __len__(self) -> int:
        with self._backend._lease_read_connection() as conn:
            return conn.execute(self._count_sql).fetchone()[0]

    def __iter__(self) -> Iterator[Tuple]:
        return self.scan()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self.table.name}, {len(self)} rows)"


class SQLiteBackend(StorageBackend):
    """Storage backend persisting rows in a SQLite database.

    Durability: bulk loading runs in one transaction committed by
    ``build_indexes()``; after the index build each ``insert`` commits, and
    each ``load`` commits once for all its rows; ``commit()`` / ``close()``
    (or the context manager) flush anything else.
    """

    name = "sqlite"
    persistent = True
    supports_read_pool = True

    #: Reader connections a file-backed store may hold when none is asked
    #: for explicitly.  Sized for the default server worker count.
    DEFAULT_READ_POOL_SIZE = 4

    def __init__(
        self,
        schema: Schema,
        tokenizer: Tokenizer = DEFAULT_TOKENIZER,
        path: str | Path | None = None,
        persist_index: bool = True,
        read_pool_size: int | None = None,
    ):
        super().__init__(schema, tokenizer)
        self.path = str(path) if path is not None else ":memory:"
        if read_pool_size is not None and read_pool_size < 1:
            raise ValueError("read_pool_size must be positive")
        self._read_pool_size = (
            self.DEFAULT_READ_POOL_SIZE if read_pool_size is None else read_pool_size
        )
        self._read_pool: _ReadConnectionPool | None = None
        #: Bumped on every writer commit — the writer→readers visibility
        #: barrier's ordering hook (see the module docstring).
        self._write_epoch = 0
        #: Persist inverted-index postings into side tables so cold opens
        #: load instead of re-scanning (False forces the rebuild path — the
        #: engine benchmark uses it to measure the difference).
        self.persist_index = persist_index
        self.dialect = self._make_dialect()
        self.compiler = PlanCompiler(schema, self.dialect)
        self._index_dirty = False
        self._stats_dirty = False
        self._relations: dict[str, SQLiteRelation] = {}
        self._closed = False
        self._lock = _acquire_lock_for(self.path, self)
        #: ``(row-write generation, maps)`` of the emptiness proof: built by
        #: :meth:`build_indexes`' scan or on first use, trusted only while
        #: the file's generation (:data:`_FILE_LOCKS`) is unchanged.
        self._fk_maps: tuple[int, ForeignKeyMaps] | None = None
        #: The maps :meth:`build_indexes`' scan is filling (see
        #: :meth:`_scanned`).
        self._scan_maps: ForeignKeyMaps | None = None
        try:
            # ``check_same_thread=False`` + the per-file lock: the server
            # shares one backend across its worker threads, with every
            # statement serialized by ``_LockedConnection``.
            self._conn = _LockedConnection(
                sqlite3.connect(self.path, check_same_thread=False),
                self._lock,
                on_commit=self._bump_write_epoch,
            )
        except sqlite3.Error as exc:
            _release_lock_for(self.path)
            raise DatabaseError(f"cannot open {self.path!r}: {exc}") from None
        try:
            self._conn.execute("PRAGMA synchronous=NORMAL")
            self._conn.execute("PRAGMA busy_timeout=10000")
            # Exposes Python's repr() for ORDER BY, so join results sort
            # exactly like the in-memory engine's repr()-keyed lookups — for
            # every key type, not just the int/str common case.
            self._conn.create_function("repro_repr", 1, repr, deterministic=True)
            self._prepare_storage()  # hook: sharded backends ATTACH here
            # After validation on purpose: a rejected open (schema mismatch,
            # sharded file through the plain backend) must not have flipped
            # the journal mode or left ``-wal``/``-shm`` debris behind.
            self._configure_journal_mode()
            for table in schema:
                self._create_storage(table)
            # Resume the mutation-digest chain of a reopened store.
            stored_digest = self.get_metadata("_content_digest")
            if stored_digest is not None:
                self._content_digest = stored_digest
        except sqlite3.DatabaseError as exc:
            self._conn.close()
            _release_lock_for(self.path)
            raise DatabaseError(f"cannot open {self.path!r}: {exc}") from None
        except DatabaseError:
            # e.g. a schema/file mismatch: don't leak the open connection.
            self._conn.close()
            _release_lock_for(self.path)
            raise

    def _make_dialect(self) -> SQLiteDialect:
        """The dialect all of this backend's statements compile under."""
        return SQLiteDialect()

    def _prepare_storage(self) -> None:
        """Connection-level setup before table storage exists.

        The sharded backend ATTACHes its partitions here; this plain backend
        only refuses files those partitions belong to — half a sharded store
        read through the unsharded engine would silently look empty.
        """
        if self.get_metadata("_shard_count") is not None:
            raise DatabaseError(
                f"store at {self.path!r} is hash-partitioned (built by the "
                f"'sqlite-sharded' backend); open it with that backend"
            )

    def _configure_journal_mode(self) -> None:
        """Flip file-backed storage to WAL (``:memory:`` has no journal).

        Under the default rollback journal, an open read cursor holds the
        file's shared lock, so a *second process* (or any sibling connection
        outside this backend's per-file lock) serializes behind every cold
        streamed query.  WAL lets readers proceed while a writer commits —
        the property the TCP server's multi-worker mode depends on, where
        several forked processes serve one store concurrently.  The mode is
        persistent (stored in the database header), so reopened stores stay
        WAL without re-running this.
        """
        if self.path != ":memory:":
            self._conn.execute("PRAGMA journal_mode=WAL")

    @property
    def is_persistent(self) -> bool:
        """True when rows are stored in a file that outlives the process."""
        return self.path != ":memory:"

    # -- read-connection pool ------------------------------------------------

    def _bump_write_epoch(self) -> None:
        """Writer-commit hook: advance the readers' visibility barrier.

        The epoch orders writer commits against subsequent reads: a read
        leased after the bump runs on a WAL reader whose previous read
        transaction ended at cursor close, so its next statement observes
        at least this commit.  The counter itself is the testable /
        observable handle for that ordering (``tests/test_read_pool.py``
        pins inserted-rows-become-visible against it).
        """
        self._write_epoch += 1

    @property
    def write_epoch(self) -> int:
        """Number of writer commits since this backend opened."""
        return self._write_epoch

    def _read_pool_enabled(self) -> bool:
        """Whether reads should lease pooled connections right now.

        Every open file-backed store pools its readers, at any size — a pool
        of one is a pool.  A ``":memory:"`` database is private to the one
        connection that created it, so there is nothing to pool.
        """
        return self.is_persistent and not self._closed

    def _reader_pool(self) -> _ReadConnectionPool | None:
        """The lazily-built pool, or ``None`` while reads stay on the writer."""
        if not self._read_pool_enabled():
            return None
        pool = self._read_pool
        if pool is None:
            with self._lock:
                pool = self._read_pool
                if pool is None:
                    pool = _ReadConnectionPool(self._read_pool_size, self._open_reader)
                    self._read_pool = pool
        return pool

    def _open_reader(self) -> _LockedConnection:
        """One new pooled reader, configured like the writer's read side."""
        try:
            reader = _LockedConnection(
                sqlite3.connect(self.path, check_same_thread=False),
                threading.RLock(),
            )
        except sqlite3.Error as exc:
            raise DatabaseError(
                f"cannot open read connection for {self.path!r}: {exc}"
            ) from None
        try:
            self._configure_reader(reader)
        except sqlite3.Error as exc:
            reader.close()
            raise DatabaseError(
                f"cannot configure read connection for {self.path!r}: {exc}"
            ) from None
        return reader

    def _configure_reader(self, reader: _LockedConnection) -> None:
        """Session setup every reader needs (the sharded override ATTACHes).

        ``repro_repr`` is per connection, not per file — without it a pooled
        reader could not run the compiler's ORDER BY terms at all.
        """
        reader.execute("PRAGMA busy_timeout=10000")
        reader.create_function("repro_repr", 1, repr, deterministic=True)

    @contextmanager
    def _lease_read_connection(self) -> Iterator[_LockedConnection]:
        """The connection one read cursor (or point read) should run on.

        The one lease rule: a pooled reader when the store has a pool and
        the writer holds no open transaction; otherwise the writer
        connection itself — a ``":memory:"`` store has no other connection,
        and during bulk loading (everything before ``build_indexes()``
        commits) reads *must* see the uncommitted rows (auto-key duplicate
        probes, the index build's scans).  A read never commits on the
        writer's behalf.  The dirty check races benignly with writers:
        either serialization order is legal, and a read routed to the writer
        just serializes on the per-file lock as every read did before the
        pool.
        """
        pool = self._reader_pool()
        if pool is None or self._conn.in_transaction:
            yield self._conn
            return
        with pool.lease() as reader:
            yield reader

    def configure_read_pool(self, size: int | None) -> None:
        """Resize the read pool (``1`` is one reader; ``None`` keeps it).

        The engine applies :attr:`EngineConfig.read_pool_size` through this
        after construction.  An existing pool
        is discarded so the next read rebuilds one at the new size; leased
        connections finish their statement and close on return.
        """
        if size is None:
            return
        if size < 1:
            raise ValueError("read_pool_size must be positive")
        with self._lock:
            if size == self._read_pool_size:
                return
            self._read_pool_size = size
            if self._read_pool is not None:
                self._read_pool.close()
                self._read_pool = None

    def read_pool_stats(self) -> dict[str, int] | None:
        """Pool counters for ``--explain`` / ``GET /stats`` (None: no pool)."""
        if not self._read_pool_enabled():
            return None
        pool = self._read_pool
        if pool is None:  # enabled, but nothing has leased yet
            return {
                "size": self._read_pool_size,
                "leases": 0,
                "waits": 0,
                "peak_concurrency": 0,
            }
        return pool.stats()

    # -- storage management ------------------------------------------------

    def _create_storage(self, table: Table) -> SQLiteRelation:
        for statement in self._storage_ddl(table):
            self._conn.execute(statement)
        self._verify_columns(table)
        relation = self._make_relation(table)
        self._relations[table.name] = relation
        return relation

    def _storage_ddl(self, table: Table) -> list[str]:
        return [sqlc.create_table_ddl(self.dialect, table)]

    def _make_relation(self, table: Table) -> SQLiteRelation:
        return SQLiteRelation(self, table)

    def _verify_columns(self, table: Table) -> None:
        """Fail fast when a pre-existing file disagrees with the schema."""
        for schema_prefix, expected in self._physical_columns(table):
            cursor = self._conn.execute(
                sqlc.table_info_sql(table.name, schema_prefix=schema_prefix)
            )
            stored = [row[1] for row in cursor.fetchall()]
            if stored != expected:
                where = f" in {schema_prefix!r}" if schema_prefix else ""
                raise DatabaseError(
                    f"stored table {table.name!r}{where} has columns "
                    f"{stored}, schema expects {expected}"
                )

    def _physical_columns(self, table: Table) -> list[tuple[str, list[str]]]:
        """``(schema prefix, expected column list)`` per physical table."""
        return [("", table.attribute_names)]

    def _set_internal_metadata(self, key: str, value: str) -> None:
        """Persist a key/value pair in a side table next to the rows.

        The write path under the public :meth:`set_metadata` (which adds the
        reserved-key guard in the base class).
        """
        with self._lock:
            self._conn.execute(SideTableSQL.META_DDL)
            self._conn.execute(SideTableSQL.META_UPSERT, (key, value))
            self._conn.commit()
        # Metadata feeds the content fingerprint (dataset fingerprint /
        # nonce); like the base class, drop the cached digest.
        self._content_fingerprint = None

    def _persist_content_digest(self) -> None:
        """Stage the current mutation digest for the next commit.

        Unlike :meth:`set_metadata` this neither commits nor invalidates the
        fingerprint cache — callers fold it into their own commit points
        (``build_indexes``/``insert``/``commit``/``close``).
        """
        if not self._content_digest:
            return
        self._conn.execute(SideTableSQL.META_DDL)
        self._conn.execute(
            SideTableSQL.META_UPSERT, ("_content_digest", self._content_digest)
        )

    def get_metadata(self, key: str) -> str | None:
        try:
            cursor = self._conn.execute(SideTableSQL.META_SELECT, (key,))
        except sqlite3.OperationalError:  # metadata table never created
            return None
        row = cursor.fetchone()
        return row[0] if row is not None else None

    def metadata_values(self, prefix: str) -> list[str]:
        try:
            cursor = self._conn.execute(SideTableSQL.META_SELECT_ALL)
        except sqlite3.OperationalError:  # metadata table never created
            return []
        return [value for key, value in cursor.fetchall() if key.startswith(prefix)]

    def commit(self) -> None:
        """Make pending writes (rows, the mutation digest) durable."""
        with self._lock:
            self._persist_content_digest()
            self._conn.commit()

    def close(self) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self._persist_content_digest()
            if self._index_dirty and self.index is not None and self.persist_index:
                # Post-build mutations left the stored postings stale; re-save
                # so the next cold open stays on the fast path.  (Even without
                # this, correctness holds: the stale save carries the
                # pre-mutation fingerprint and would be rejected on load.)
                self._save_persisted_index(self.index)
            if self._stats_dirty and self._statistics is not None and self.persist_index:
                self._save_persisted_stats()
            self._conn.commit()
            self._close_connections()
        _release_lock_for(self.path)

    def _close_connections(self) -> None:
        """Close every connection this backend opened (pool, then writer)."""
        if self._read_pool is not None:
            self._read_pool.close()
            self._read_pool = None
        self._conn.close()

    # -- data loading -----------------------------------------------------

    def relation(self, table_name: str) -> SQLiteRelation:
        try:
            return self._relations[table_name]
        except KeyError:
            raise UnknownTableError(table_name) from None

    def decoded_rows_alive(self) -> int:
        return sum(len(relation._alive) for relation in self._relations.values())

    def insert(self, table_name: str, row: dict[str, Any]) -> Tuple:
        with self._lock:
            tup = super().insert(table_name, row)
            self._commit_live_write()
        return tup

    def _commit_live_write(self) -> None:
        """After a post-build write: mark the stored index and statistics
        stale and make the rows (and the advanced mutation digest) durable.

        Bulk loading (before ``build_indexes()``) stays in one transaction
        and is committed by ``build_indexes()``.
        """
        if self.index is None:
            return
        self._index_dirty = True
        if self._statistics is not None:
            # The base insert already folded the rows into the catalog;
            # the *stored* copy is now stale.
            self._stats_dirty = True
        self._persist_content_digest()
        self._conn.commit()

    #: Rows a bulk :meth:`load` prepares before writing them: the most it
    #: holds at once.
    LOAD_CHUNK_ROWS = 2048

    def load(self, rows: Iterable[LoadRow]) -> list[Any]:
        """Store ``(table name, row)`` pairs exactly as ``insert`` would.

        Before ``build_indexes()`` (nothing live to maintain) rows are
        prepared — checked, normalized, keyed, digested — in chunks of
        :attr:`LOAD_CHUNK_ROWS`, and each chunk is written with one
        ``executemany`` per INSERT statement (per table; per partition on
        a sharded store).  Grouping by table moves no row: ``rowid`` and
        ``_rowseq`` are per-table sequences and each table's rows keep
        their stream order.  No ``Tuple`` is built and nothing commits —
        ``build_indexes()`` does, as after per-row inserts.

        With a live index or statistics catalog every row is observed as it
        is stored (a catalog's distinct counts probe the stored rows), so
        rows go in one at a time; the whole load is still one transaction
        with one commit, reached even when a row fails — the rows before it
        stay stored and durable.
        """
        with self._lock:
            if self.index is not None or self._statistics is not None:
                keys: list[Any] = []
                try:
                    for table_name, row in rows:
                        keys.append(StorageBackend.insert(self, table_name, row).key)
                finally:
                    if keys:
                        self._commit_live_write()
                return keys
            keys = []
            chunk: list[tuple[SQLiteRelation, Any, tuple[Any, ...]]] = []
            pending: dict[SQLiteRelation, set[Any]] = {}
            try:
                for table_name, row in rows:
                    relation = self.relation(table_name)
                    unwritten = pending.setdefault(relation, set())
                    key, values = relation._prepare(row, unwritten)
                    unwritten.add(key)
                    chunk.append((relation, key, values))
                    keys.append(key)
                    if len(chunk) == self.LOAD_CHUNK_ROWS:
                        full, chunk = chunk, []
                        pending.clear()
                        self._write_chunk(full)
            finally:
                # Also on a bad row: the rows before it are stored.
                self._write_chunk(chunk)
            return keys

    def _write_chunk(
        self, chunk: list[tuple[SQLiteRelation, Any, tuple[Any, ...]]]
    ) -> None:
        """Write prepared rows, one ``executemany`` per INSERT statement.

        Inside a savepoint: when some row cannot be stored (a duplicate
        key, an unbindable value — whatever the error) the chunk is undone
        and written again row by row, so the error surfaces at that row with
        exactly the rows before it stored, as per-row inserts leave them.
        """
        if not chunk:
            return
        conn = self._conn
        relations = {relation for relation, _key, _values in chunk}
        marks = [(relation, relation._sequence_mark()) for relation in relations]
        if not conn.in_transaction:
            conn.execute("BEGIN")
        conn.execute("SAVEPOINT repro_load")
        try:
            statements: dict[str, list[Sequence[Any]]] = {}
            for relation, key, values in chunk:
                text, parameters = relation._insert_statement(key, values)
                statements.setdefault(text, []).append(parameters)
            for text, batch in statements.items():
                conn.executemany(text, batch)
        except Exception:
            conn.execute("ROLLBACK TO repro_load")
            conn.execute("RELEASE repro_load")
            for relation, mark in marks:
                relation._rewind(mark)
            for relation, key, values in chunk:
                relation._store(key, values)
                relation._rows_stored(1)
                self._fold_mutation(
                    row_event(relation.table.name, key, relation._layout, values)
                )
            return
        conn.execute("RELEASE repro_load")
        for relation, count in Counter(relation for relation, _k, _v in chunk).items():
            relation._rows_stored(count)
        self._fold_mutations(
            row_event(relation.table.name, key, relation._layout, values)
            for relation, key, values in chunk
        )

    def add_table(self, table: Table):
        relation = super().add_table(table)
        if self.index is not None:
            self._index_dirty = True
        return relation

    def build_indexes(self):
        self._persist_content_digest()  # durable alongside the bulk-loaded rows
        loaded = self._load_persisted_index()
        if loaded is not None:
            # Fast cold open: exact-match join indexes are CREATE INDEX IF
            # NOT EXISTS (no-ops on a reopened store), postings come from the
            # side tables — no table scan, no re-tokenization.
            self._create_join_indexes()
            self.index = loaded
            self._index_dirty = False
            restored = self._load_persisted_stats()
            if restored is not None:
                # Same fast path for the planner statistics: the stored
                # catalog carries the fingerprint it was collected under,
                # so a match means no relation scan is needed either.
                self._statistics = restored
                self._stats_dirty = False
            else:
                self._collect_statistics()
                if self.persist_index:
                    self._save_persisted_stats()
            self._conn.commit()
            return self.index
        generation = self._row_writes[0]
        self._scan_maps = maps = ForeignKeyMaps(self.schema)
        try:
            index = super().build_indexes()  # also collects planner statistics
        finally:
            self._scan_maps = None
        self._fk_maps = (generation, maps)
        if self.persist_index:
            self._save_persisted_index(index)
            self._save_persisted_stats()
        self._conn.commit()  # durability checkpoint after bulk loading
        return index

    def _scanned(self, table: Table, rows: Sequence[tuple[Any, ...]]) -> None:
        self._scan_maps.add_rows(table, rows)

    # -- the emptiness proof --------------------------------------------------

    def _fold_mutations(self, events: Iterable[str]) -> None:
        super()._fold_mutations(events)
        self._drop_foreign_key_maps()

    def _drop_foreign_key_maps(self) -> None:
        """After a row write: bump the file's row-write generation, which
        every instance on the file reads before it trusts its maps."""
        self._row_writes[0] += 1
        self._fk_maps = None

    def _foreign_key_maps(self) -> ForeignKeyMaps | None:
        """The current maps, built from the stored rows on first use.

        The build holds the file lock, which every backend-level write
        holds too, and maps a write outran while they were built are used
        by no proof.  Neither the build nor a proof writes to the store.
        Writes from other processes are not seen (as by the inverted
        index).
        """
        cached = self._fk_maps
        if cached is not None and cached[0] == self._row_writes[0]:
            return cached[1]
        with self._lock:
            generation = self._row_writes[0]
            cached = self._fk_maps
            if cached is not None and cached[0] == generation:
                return cached[1]
            maps = ForeignKeyMaps.scan(self)
            if generation != self._row_writes[0]:
                return None
            self._fk_maps = (generation, maps)
        return maps

    def proves_empty(
        self,
        path: Sequence[str],
        edges: Sequence[ForeignKey],
        key_filters: dict[int, set[Any]],
    ) -> bool:
        """True when the path's resolved key filters provably select nothing.

        Only a path with at least two filtered positions can be proved
        empty by its joins (see :meth:`ForeignKeyMaps.proves_empty`); one
        whose selection matched nothing is already ``None`` out of
        :meth:`resolve_key_filters`.  ``False`` proves nothing.
        """
        if len(key_filters) < 2:
            return False
        maps = self._foreign_key_maps()
        return maps is not None and maps.proves_empty(
            self.schema, path, edges, key_filters
        )

    # -- inverted-index persistence ----------------------------------------

    def _schema_key(self) -> str:
        """Digest identifying this backend's view of the file.

        Datasets are namespaced by table names, so several may coexist in one
        file; everything persisted for *this* schema's index and statistics is
        scoped by this key.
        """
        joined = "|".join(sorted(self.schema.table_names))
        return hashlib.sha256(joined.encode("utf-8")).hexdigest()[:16]

    def _index_signature(self) -> dict[str, str]:
        """What stored postings must have been built under to be reusable."""
        return {
            "fingerprint": self.content_fingerprint(),
            "tokenizer": self.tokenizer.signature(),
        }

    def _load_persisted_index(self) -> InvertedIndex | None:
        """Postings from the side tables, or None when absent/stale."""
        if not self.persist_index:
            return None
        schema_key = self._schema_key()
        try:
            meta = dict(
                self._conn.execute(SideTableSQL.INDEX_META_SELECT, (schema_key,))
            )
        except sqlite3.OperationalError:  # side tables never created
            return None
        expected = self._index_signature()
        if any(meta.get(key) != value for key, value in expected.items()):
            return None  # stale (store mutated) or different tokenizer
        try:
            alpha = float(meta["alpha"])
            state = {
                "postings": [
                    (term, tbl, attr, occurrences, json.loads(keys))
                    for term, tbl, attr, occurrences, keys in self._conn.execute(
                        SideTableSQL.INDEX_POSTINGS_SELECT, (schema_key,)
                    )
                ],
                "attribute_stats": list(
                    self._conn.execute(
                        SideTableSQL.INDEX_ATTR_STATS_SELECT, (schema_key,)
                    )
                ),
                "table_tuple_counts": list(
                    self._conn.execute(
                        SideTableSQL.INDEX_TABLE_COUNTS_SELECT, (schema_key,)
                    )
                ),
                "schema_terms": list(
                    self._conn.execute(
                        SideTableSQL.INDEX_SCHEMA_TERMS_SELECT, (schema_key,)
                    )
                ),
            }
        except (sqlite3.Error, KeyError, ValueError):
            return None  # corrupt side tables: fall back to a rebuild
        return InvertedIndex.restore(state, tokenizer=self.tokenizer, alpha=alpha)

    def _save_persisted_index(self, index: InvertedIndex) -> None:
        """Write postings + fingerprint into the side tables (best effort).

        Tuple keys must survive a JSON round trip (int/str primary keys do);
        stores with exotic key types simply skip persistence and keep the
        rebuild path.  Only this schema's rows are replaced — coexisting
        datasets keep theirs.
        """
        state = index.export_state()
        schema_key = self._schema_key()
        posting_rows = []
        for term, tbl, attr, occurrences, keys in state["postings"]:
            if not all(map(_json_key_type, set(map(type, keys)))):
                return  # a JSON round trip would change the key type
            posting_rows.append(
                (schema_key, term, tbl, attr, occurrences, json.dumps(keys))
            )
        meta = dict(self._index_signature(), alpha=repr(index.alpha))
        with self._lock:  # delete+insert must not interleave with a sibling's
            try:
                self._write_index_state(schema_key, posting_rows, state, meta)
            except sqlite3.Error:
                # Pre-existing side tables with a foreign column set (older
                # code, outside tools): CREATE IF NOT EXISTS kept the old
                # shape.  Drop and rebuild them; if that fails too, skip
                # persistence — it is an optimization and must never make the
                # store unusable.  (No rollback: build_indexes may hold
                # uncommitted bulk-loaded rows.)
                try:
                    for name in SideTableSQL.INDEX_TABLE_NAMES:
                        self._conn.execute(SideTableSQL.index_drop(name))
                    self._write_index_state(schema_key, posting_rows, state, meta)
                except sqlite3.Error:
                    return
            self._conn.commit()
        self._index_dirty = False

    def _write_index_state(
        self,
        schema_key: str,
        posting_rows: list[tuple],
        state: dict[str, list[tuple]],
        meta: dict[str, str],
    ) -> None:
        """Replace this schema's rows in the index side tables (no commit)."""
        for statement in SideTableSQL.INDEX_TABLES_DDL:
            self._conn.execute(statement)
        for name in SideTableSQL.INDEX_TABLE_NAMES:
            self._conn.execute(SideTableSQL.index_delete(name), (schema_key,))
        self._conn.executemany(SideTableSQL.INDEX_POSTINGS_INSERT, posting_rows)
        self._conn.executemany(
            SideTableSQL.INDEX_ATTR_STATS_INSERT,
            [(schema_key, *row) for row in state["attribute_stats"]],
        )
        self._conn.executemany(
            SideTableSQL.INDEX_TABLE_COUNTS_INSERT,
            [(schema_key, *row) for row in state["table_tuple_counts"]],
        )
        self._conn.executemany(
            SideTableSQL.INDEX_SCHEMA_TERMS_INSERT,
            [(schema_key, *row) for row in state["schema_terms"]],
        )
        self._conn.executemany(
            SideTableSQL.INDEX_META_INSERT,
            [(schema_key, key, value) for key, value in sorted(meta.items())],
        )

    # -- planner-statistics persistence --------------------------------------

    def persisted_stats_fingerprint(self) -> str | None:
        """Fingerprint the stored statistics were collected under, if any.

        ``repro stats`` compares this against the live content fingerprint
        to report staleness; ``None`` means no catalog is stored for this
        schema.
        """
        try:
            meta = dict(
                self._conn.execute(
                    SideTableSQL.STATS_META_SELECT, (self._schema_key(),)
                )
            )
        except sqlite3.OperationalError:  # side tables never created
            return None
        return meta.get("fingerprint")

    def _load_persisted_stats(self):
        """The stored statistics catalog, or None when absent/stale/corrupt."""
        if not self.persist_index:
            return None
        from repro.db.stats import StatisticsCatalog

        schema_key = self._schema_key()
        try:
            meta = dict(
                self._conn.execute(SideTableSQL.STATS_META_SELECT, (schema_key,))
            )
        except sqlite3.OperationalError:  # side tables never created
            return None
        if meta.get("fingerprint") != self.content_fingerprint():
            return None  # stale: the store mutated since collection
        state: dict = {"tables": {}}
        try:
            for tbl, tuples in self._conn.execute(
                SideTableSQL.STATS_TABLES_SELECT, (schema_key,)
            ):
                state["tables"][tbl] = {"rows": int(tuples), "attributes": {}}
            for tbl, attr, distinct, max_frequency in self._conn.execute(
                SideTableSQL.STATS_ATTRS_SELECT, (schema_key,)
            ):
                state["tables"][tbl]["attributes"][attr] = [
                    int(distinct),
                    int(max_frequency),
                ]
        except (sqlite3.Error, KeyError, TypeError, ValueError):
            return None  # corrupt side tables: fall back to recollection
        if not state["tables"]:
            return None  # meta without rows: a half-written save
        return StatisticsCatalog.restore(self.schema, state)

    def _save_persisted_stats(self) -> None:
        """Write the catalog + fingerprint into side tables (best effort).

        Mirrors :meth:`_save_persisted_index`: scoped to this schema's key,
        lock-guarded so the delete+insert cannot interleave with a sibling
        engine's, and dropped-and-rebuilt once when a pre-existing foreign
        table shape rejects the statements — persistence is an optimization
        and must never make the store unusable.
        """
        catalog = self._statistics
        if catalog is None:
            return
        schema_key = self._schema_key()
        table_rows = [
            (schema_key, name, rows) for name, rows in catalog.iter_rows()
        ]
        attr_rows = [
            (schema_key, tbl, attr, distinct, max_frequency)
            for tbl, attr, distinct, max_frequency in catalog.iter_attributes()
        ]
        meta = {"fingerprint": self.content_fingerprint()}
        with self._lock:  # delete+insert must not interleave with a sibling's
            try:
                self._write_stats_state(schema_key, table_rows, attr_rows, meta)
            except sqlite3.Error:
                try:
                    for name in SideTableSQL.STATS_TABLE_NAMES:
                        self._conn.execute(SideTableSQL.stats_drop(name))
                    self._write_stats_state(schema_key, table_rows, attr_rows, meta)
                except sqlite3.Error:
                    return
            self._conn.commit()
        self._stats_dirty = False

    def _write_stats_state(
        self,
        schema_key: str,
        table_rows: list[tuple],
        attr_rows: list[tuple],
        meta: dict[str, str],
    ) -> None:
        """Replace this schema's rows in the stats side tables (no commit)."""
        for statement in SideTableSQL.STATS_TABLES_DDL:
            self._conn.execute(statement)
        for name in SideTableSQL.STATS_TABLE_NAMES:
            self._conn.execute(SideTableSQL.stats_delete(name), (schema_key,))
        self._conn.executemany(SideTableSQL.STATS_TABLES_INSERT, table_rows)
        self._conn.executemany(SideTableSQL.STATS_ATTRS_INSERT, attr_rows)
        self._conn.executemany(
            SideTableSQL.STATS_META_INSERT,
            [(schema_key, key, value) for key, value in sorted(meta.items())],
        )

    # -- join-path execution ---------------------------------------------------

    def _prepare_plan(self, plan: PathPlan) -> PathPlan:
        """Backend-physical plan adjustments before compilation: none on a
        single file, where the plan compiles in path order and SQLite's
        planner orders the joins.  The sharded backend picks the plan's seed
        slot here."""
        return plan

    def _scatter_slot_label(self, plan: PathPlan) -> str | None:
        """Human-readable name of the plan's seed slot (sharded only)."""
        return None

    def _book_row(self, execution: StreamedExecution, row: Sequence[Any]) -> None:
        """Per-delivered-row accounting hook (the sharded backend books the
        partition the row's trailing column names)."""

    def _decode_network(
        self, relations: Sequence[SQLiteRelation], row: Sequence[Any], offset: int = 0
    ) -> tuple[Tuple, ...]:
        """One result row back into a joining network of tuples."""
        network: list[Tuple] = []
        for relation in relations:
            network.append(relation._to_tuple(row, offset))
            offset += len(relation._columns)
        return tuple(network)

    # -- join-path execution: the row stream --------------------------------

    def _plan_resolved(
        self,
        resolved: list[ResolvedSpec],
        execution: StreamedExecution,
        limit: int | None,
    ) -> tuple[list[tuple[int, PathPlan]], list[tuple[int, PathPlan]]]:
        """The planning half of :meth:`execute_paths_streamed`.

        Splits resolved specs between solo plans (budget fallbacks — the
        reason lands in ``execution.fallbacks`` — plus the union-of-one
        case, which brings tagging overhead and no statement saving) and the
        members of one shared ``UNION ALL`` statement.  Every returned plan
        has been through :meth:`_prepare_plan`, with its seed-slot
        ``--explain`` label (sharded only) filled into ``execution``.
        """
        batch = sqlc.plan_batch(resolved, limit)
        solo: list[tuple[int, PathPlan]] = []
        for index, solo_plan, reason in batch.fallbacks:
            # Too selective to inline in the shared statement (_stream_plan
            # has the Python-side post-filter machinery for that).
            solo.append((index, self._prepare_plan(solo_plan)))
            execution.fallbacks[index] = reason
        members = [
            (index, self._prepare_plan(plan)) for index, plan in batch.members
        ]
        if len(members) == 1:
            solo.append(members.pop())
        solo.sort(key=lambda item: item[0])
        for index, plan in [*solo, *members]:
            label = self._scatter_slot_label(plan)
            if label is not None:
                execution.scatter_slots[index] = label
        execution.batched_indexes = [index for index, _plan in members]
        return solo, members

    #: Rows fetched per lock-guarded cursor step of a streamed statement:
    #: small enough that an early-stopping consumer leaves little behind,
    #: large enough that lock churn stays negligible against decode cost.
    STREAM_CHUNK = 64

    def execute_paths_streamed(
        self,
        specs: Sequence[PathSpec],
        limit: int | None = None,
    ) -> StreamedExecution:
        """Stream many join paths through real SQLite cursors.

        Planning (:func:`repro.db.backends.sql.plan_batch`) decides which
        specs share one tagged ``UNION ALL`` statement: specs whose
        selections match no key, or whose joins :meth:`proves_empty` proves
        empty, get no plan and never reach SQL (``proved_empty`` counts
        them), and specs whose
        inline-key footprint exceeds the statement's parameter budget fall
        back to their own plan — the reason travels back on ``fallbacks`` so
        ``--explain`` can show it.  Planning is eager, but nothing executes
        until the consumer pulls the first row: every statement's cursor
        opens lazily when the stream reaches it (``statements`` counts only
        opened ones), rows are fetched in :data:`STREAM_CHUNK` steps under
        the connection lock and decoded one at a time, and closing the
        stream mid-iteration releases the cursors without fetching the rest.
        Spec order is the stream order.
        """
        execution = StreamedExecution()
        resolved, _proved = self._resolve_specs(specs, limit, execution)
        solo, members = self._plan_resolved(resolved, execution, limit)
        solo_plans = dict(solo)
        member_indexes = {index for index, _plan in members}

        def generate() -> Iterator[tuple[int, tuple[Tuple, ...]]]:
            union_stream: Iterator[tuple[int, tuple[Tuple, ...]]] | None = None
            lookahead: tuple[int, tuple[Tuple, ...]] | None = None
            exhausted = False
            try:
                for index in sorted([*solo_plans, *member_indexes]):
                    if index in solo_plans:
                        plan_stream = self._stream_plan(solo_plans[index], execution)
                        try:
                            for network in plan_stream:
                                yield index, network
                        finally:
                            plan_stream.close()
                        continue
                    if union_stream is None:
                        union_stream = self._stream_union(members, execution)
                    # The union cursor yields its members in ascending spec
                    # order; drain this member's rows, keep the first row of
                    # the next member as lookahead.
                    while True:
                        if lookahead is None and not exhausted:
                            lookahead = next(union_stream, None)
                            exhausted = lookahead is None
                        if lookahead is None or lookahead[0] != index:
                            break
                        item, lookahead = lookahead, None
                        yield item
            finally:
                if lookahead is not None:
                    # The next member's first row was pulled (and attributed,
                    # e.g. to shard_rows) to detect the boundary but never
                    # reached the consumer: account it like every other
                    # produced-but-unconsumed row.
                    execution.rows_short_circuited += 1
                if union_stream is not None:
                    union_stream.close()

        execution.stream = RowStream(generate())
        return execution

    def _iter_cursor(
        self, conn: _LockedConnection, statement: CompiledStatement,
        execution: StreamedExecution,
    ) -> Iterator[tuple]:
        """Chunked iteration over one statement's cursor, lock held open→close.

        The *connection's* lock is held for the whole life of the cursor:
        Python's ``sqlite3`` requires serialized use of a shared connection,
        and under a rollback journal an open read cursor also holds the
        file's shared lock, where releasing between chunks would let another
        connection's commit interleave and stall into ``database is locked``
        (the two-engines-one-file flush race the first streaming cut hit).
        Which lock that is decides how much actually serializes: on the
        writer connection it is the per-file lock, so one cold streamed
        query per *file* at a time — the pre-pool world, still the shape on
        ``:memory:`` stores and inside an open bulk load.  A pooled reader
        carries a *private* lock instead, so the hold only pins that reader
        for the stream's lifetime (the lease already guarantees exclusive
        use) and N readers stream N cold queries concurrently under WAL.
        Consumers must drain or close the stream in the thread that opened
        it (the executor does; ``RowStream`` is a context manager for
        everyone else).  Chunked fetching keeps the prefetch overrun —
        booked as short-circuited on close — small.
        """
        with conn.lock:
            cursor = conn.execute(statement.sql, statement.params)
            prefetched = delivered = 0
            try:
                while True:
                    rows = cursor.fetchmany(self.STREAM_CHUNK)
                    if not rows:
                        break
                    prefetched += len(rows)
                    for row in rows:
                        delivered += 1  # before the yield: a close lands there
                        yield row
            finally:
                execution.rows_short_circuited += prefetched - delivered
                cursor.close()

    def _stream_plan(
        self, plan: PathPlan, execution: StreamedExecution
    ) -> "Iterator[tuple[Tuple, ...]]":
        """One plan as a lazy cursor of decoded, post-filtered networks.

        The read lease spans the generator's whole life — acquired at the
        first pull, released (returning the reader to the pool) when the
        consumer drains or closes the stream.
        """
        statement = self.compiler.compile_path(plan)
        relations = [self.relation(name) for name in plan.path]
        execution.statements += 1
        produced = 0
        with self._lease_read_connection() as conn:
            rows = self._iter_cursor(conn, statement, execution)
            try:
                for row in rows:
                    network = self._decode_network(relations, row)
                    if not plan.keeps(network):
                        continue
                    self._book_row(execution, row)
                    yield network
                    produced += 1
                    if plan.limit is not None and produced >= plan.limit:
                        break
            finally:
                rows.close()

    def _stream_union(
        self, members: list[tuple[int, PathPlan]], execution: StreamedExecution
    ) -> Iterator[tuple[int, tuple[Tuple, ...]]]:
        """The tagged UNION ALL as a lazy ``(spec index, network)`` cursor.

        Members carry no post filters by construction (the planner falls
        oversized key sets back to solo plans) and the member-local SQL LIMIT
        is exact — one statement, one file or many — so decoding is the only
        Python-side work.
        """
        statement = self.compiler.compile_union(members)
        ord_width, _data_width = self.compiler.union_widths(members)
        member_relations = {
            index: [self.relation(name) for name in plan.path]
            for index, plan in members
        }
        execution.statements += 1
        with self._lease_read_connection() as conn:
            rows = self._iter_cursor(conn, statement, execution)
            try:
                for row in rows:
                    self._book_row(execution, row)
                    yield row[0], self._decode_network(
                        member_relations[row[0]], row, offset=1 + ord_width
                    )
            finally:
                rows.close()
