"""Hash-partitioned SQLite storage across attached database files.

:class:`ShardedSQLiteBackend` (registry name ``sqlite-sharded``) splits
every relation's rows across *N* shard databases attached to one catalog
file (``ATTACH``): row ``r`` of table ``t`` lives in the partition
``shard{hash(pk) % N}."t"``, where the hash is a deterministic digest of the
primary key's ``repr()`` so a reopened store routes every key to the same
partition.  The catalog (main) database holds no rows — only the shared
side tables (metadata, persisted index postings, planner statistics) and the
shard-layout record that makes mismatched reopens fail fast.

Execution is **one statement per plan**, over the shared planner/compiler
layer (:mod:`repro.db.backends.sql`): a :class:`~repro.db.backends.sql.
PathPlan` compiles under :class:`~repro.db.backends.sql.ShardedSQLiteDialect`
to a linear semi-join chain (``WITH r<slot> AS MATERIALIZED``; soundness
argument on :meth:`~repro.db.backends.sql.PlanCompiler.reduction_chain`) in
which every slot is the ``UNION ALL`` of its partitions, and the statement's
own ``ORDER BY … LIMIT ?`` — the single-file dialect's order terms — is the
global order, so rows, order and truncation are byte-identical to the
unsharded backend (pinned by ``tests/test_sharded_backend.py``).  The union
and the sort are SQLite's: the backend streams the statement through the
inherited one-reader cursor seams and adds nothing but the per-partition row
count, read from the partition literal each seed-slot arm projects.  Each key
set binds whole, as **one** JSON-array parameter per arm (``IN (SELECT +value
FROM json_each(?))``, :meth:`~repro.db.backends.sql.ShardedSQLiteDialect.
key_set_binding`), so a statement's text depends on its plan's shape —
path, filtered slots, seed slot — and on no key: such a text takes about a
millisecond to prepare, and ``sqlite3``'s per-connection statement cache can
only serve one that repeats byte for byte.  Three costs, written down: a
request has no per-shard unit left to run in parallel (PR 20 measured that
fan-out at 1.8–1.9× *slower* anyway); a key of a filtered slot is probed in
all ``shards`` partitions instead of the one it hashes to (``shards`` ≤ 10,
SQLite's ATTACH limit; ``docs/performance.md`` § PR 24 has the figures); and
the read pool holds ``read_pool_size`` readers, each with every partition
ATTACHed, not ``shards`` times as many.  :func:`shard_of_key` is the
insert-time store format and nothing else — no read routes by it.

Insertion order — what the in-memory engine's scans and the unsharded
backend's ``rowid`` provide — is preserved by an explicit ``_rowseq``
column every partition carries: a store-global monotone sequence assigned at
insert time, used for scans and as the order term of an unselected first
slot.
"""

from __future__ import annotations

import hashlib
import sqlite3
from dataclasses import replace
from pathlib import Path
from typing import Any, Sequence

from repro.db.backends import sql as sqlc
from repro.db.backends.base import StreamedExecution, normalize_value
from repro.db.backends.sql import PathPlan, ShardedSQLiteDialect
from repro.db.backends.sqlite import (
    SQLiteBackend,
    SQLiteRelation,
    _LockedConnection,
)
from repro.db.errors import DatabaseError
from repro.db.schema import Schema, Table
from repro.db.tokenizer import DEFAULT_TOKENIZER, Tokenizer

#: The hidden per-partition column carrying the store-global insertion order.
ROWSEQ_COLUMN = "_rowseq"

#: Plan statements use ``WITH ... AS MATERIALIZED`` (SQLite 3.35, 2021).
MIN_SQLITE_VERSION = (3, 35, 0)


def shard_of_key(key: Any, shards: int) -> int:
    """The partition a row with this primary key is stored in — deterministic
    across processes.

    Python's ``hash()`` is salted per process for strings, so the placement
    digest comes from ``repr()`` + SHA-256 instead.  Keys that compare equal
    under SQLite's storage semantics must hash equal, so the key is first
    pushed through the shared storage normalization (bools are ints) and
    integral floats collapse to their int (``3.0 IS 3`` inside SQLite, but
    ``repr`` would split them across shards).
    """
    key = normalize_value(key)
    if isinstance(key, float) and key.is_integer():
        key = int(key)
    digest = hashlib.sha256(repr(key).encode("utf-8")).hexdigest()[:8]
    return int(digest, 16) % shards


def _key_counts(plan: PathPlan) -> dict[int, int]:
    """Selection keys per filtered slot, inline and post-filtered alike."""
    return {
        position: len(keys)
        for position, keys in (*plan.inline_filters, *plan.post_filters)
    }


class ShardedSQLiteRelation(SQLiteRelation):
    """One logical table over its hash partitions.

    Inserts route by key hash; every read — point gets included — goes to
    the all-shards union (scans ordered by ``_rowseq``, i.e. insertion
    order): the same observable surface as an unsharded
    :class:`SQLiteRelation`.
    """

    def __init__(self, backend: "ShardedSQLiteBackend", table: Table):
        self._shards = backend.shards
        self._shard_dialect: ShardedSQLiteDialect = backend.dialect
        super().__init__(backend, table)
        #: Next global insertion-sequence value (lazy: resumes the stored
        #: maximum on a reopened store).
        self._next_rowseq: int | None = None

    def _prepare_point_statements(self) -> None:
        """Per-partition INSERTs (routed by key hash); the point get reads
        the all-shards union, an indexed probe per partition."""
        super()._prepare_point_statements()
        dialect = self._shard_dialect
        self._partition_inserts = [
            sqlc.insert_sql(
                dialect,
                self.table,
                source=dialect.partition_source(self.table.name, shard),
                extra_columns=(ROWSEQ_COLUMN,),
            )
            for shard in range(self._shards)
        ]

    def _take_rowseq(self) -> int:
        if self._next_rowseq is None:
            highest = -1
            for shard in range(self._shards):
                source = self._shard_dialect.partition_source(self.table.name, shard)
                row = self._conn.execute(
                    sqlc.max_column_sql(ROWSEQ_COLUMN, source)
                ).fetchone()
                if row[0] is not None:
                    highest = max(highest, row[0])
            self._next_rowseq = highest + 1
        value = self._next_rowseq
        self._next_rowseq += 1
        return value

    def _store_row(self, key: Any, cells: list[Any]) -> None:
        shard = shard_of_key(key, self._shards)
        self._conn.execute(self._partition_inserts[shard], [*cells, self._take_rowseq()])
        self._backend._table_counts.pop(self.table.name, None)

    def _index_ddl(self, attribute: str) -> list[str]:
        dialect: ShardedSQLiteDialect = self._backend.dialect
        return [
            sqlc.create_index_ddl(
                dialect,
                self.table,
                attribute,
                source=dialect.quote(self.table.name),
                schema_prefix=dialect.shard_schema(shard),
            )
            for shard in range(self._shards)
        ]


class ShardedSQLiteBackend(SQLiteBackend):
    """SQLite storage hash-partitioned across attached shard databases.

    ``path`` names the catalog database; the partitions live next to it as
    ``<path>.shard0 .. <path>.shard{N-1}`` (for ``":memory:"`` each shard is
    an attached in-memory database, private to the connection).  The shard
    count is recorded in the catalog's metadata on first open, and a reopen
    with a different ``shards`` value — or pointing ``--backend sqlite`` at
    a sharded file, or this backend at a plain file — fails fast with
    :class:`DatabaseError` instead of silently reading half a store.
    """

    name = "sqlite-sharded"
    persistent = True
    supports_sharding = True

    #: Default partition count when none is requested.
    DEFAULT_SHARDS = 2

    def __init__(
        self,
        schema: Schema,
        tokenizer: Tokenizer = DEFAULT_TOKENIZER,
        path: str | Path | None = None,
        persist_index: bool = True,
        shards: int | None = None,
        read_pool_size: int | None = None,
    ):
        shards = self.DEFAULT_SHARDS if shards is None else shards
        if shards < 1:
            raise ValueError("shards must be positive")
        if sqlite3.sqlite_version_info < MIN_SQLITE_VERSION:
            required = ".".join(map(str, MIN_SQLITE_VERSION))
            raise DatabaseError(
                f"the 'sqlite-sharded' backend needs SQLite >= {required} "
                f"(AS MATERIALIZED); this Python links {sqlite3.sqlite_version}"
            )
        self.shards = shards
        #: Cached per-table row counts feeding the seed-slot chooser (a
        #: COUNT(*) over all partitions per miss; a stored row invalidates).
        self._table_counts: dict[str, int] = {}
        super().__init__(
            schema,
            tokenizer,
            path=path,
            persist_index=persist_index,
            read_pool_size=read_pool_size,
        )

    def _make_dialect(self) -> ShardedSQLiteDialect:
        return ShardedSQLiteDialect(self.shards)

    # -- shard layout --------------------------------------------------------

    def shard_paths(self) -> list[str]:
        """The database file of every partition, in shard order."""
        if self.path == ":memory:":
            return [":memory:"] * self.shards
        return [f"{self.path}.shard{shard}" for shard in range(self.shards)]

    def _prepare_storage(self) -> None:
        """Validate the stored shard layout, then ATTACH the partitions.

        Validation — the linked SQLite's JSON1 support first, then the stored
        layout — runs entirely against the catalog *before* the first
        ATTACH (which would create missing shard files as empty databases):
        a rejected open leaves no debris on disk, and an established store
        whose partition file vanished — e.g. only the catalog was copied as
        a backup — fails fast instead of silently serving a partial dataset.
        """
        try:
            self._probe_json1()
        except sqlite3.OperationalError:
            raise DatabaseError(
                "the 'sqlite-sharded' backend needs SQLite's JSON1 functions "
                "(json_each: built in from 3.38, a compile-time option before); "
                f"the SQLite {sqlite3.sqlite_version} this Python links lacks them"
            ) from None
        stored = self.get_metadata("_shard_count")
        if stored is None:
            if self._catalog_holds_rows():
                raise DatabaseError(
                    f"store at {self.path!r} is a plain (unsharded) SQLite "
                    f"store; open it with the 'sqlite' backend"
                )
        elif int(stored) != self.shards:
            raise DatabaseError(
                f"store at {self.path!r} was built with {stored} shard(s); "
                f"reopen it with shards={stored}, not {self.shards}"
            )
        elif self.is_persistent:
            missing = [
                shard_path
                for shard_path in self.shard_paths()
                if not Path(shard_path).exists()
            ]
            if missing:
                raise DatabaseError(
                    f"store at {self.path!r} is missing partition file(s) "
                    f"{', '.join(repr(p) for p in missing)}; restore them "
                    f"(a sharded store is the catalog plus every shard file)"
                )
        for shard, shard_path in enumerate(self.shard_paths()):
            self._conn.execute(
                sqlc.attach_sql(self.dialect.shard_schema(shard)), (shard_path,)
            )
        if stored is None:
            self._conn.execute(sqlc.SideTableSQL.META_DDL)
            self._conn.execute(
                sqlc.SideTableSQL.META_UPSERT, ("_shard_count", str(self.shards))
            )
            self._conn.commit()

    def _probe_json1(self) -> None:
        """Run the one JSON1 call plan statements make (they bind every key
        set through ``json_each``, with no other spelling kept)."""
        self._conn.execute(sqlc.JSON_EACH_PROBE_SQL).fetchall()

    def _configure_journal_mode(self) -> None:
        """WAL for the catalog *and* every attached partition.

        ``PRAGMA journal_mode`` is per database file, not per connection, so
        the inherited catalog flip alone would leave the shard files — where
        every row actually lives — on the rollback journal.  Runs after
        :meth:`_prepare_storage` has validated the layout and ATTACHed the
        shards (a rejected open leaves no ``-wal`` debris, as that method
        promises).
        """
        super()._configure_journal_mode()
        if self.is_persistent:
            for shard in range(self.shards):
                self._conn.execute(
                    f"PRAGMA {self.dialect.shard_schema(shard)}.journal_mode=WAL"
                )

    def _catalog_holds_rows(self) -> bool:
        """True when the main database stores schema tables itself."""
        for table in self.schema:
            row = self._conn.execute(
                sqlc.TABLE_EXISTS_SQL, (table.name,)
            ).fetchone()
            if row is not None:
                return True
        return False

    # -- storage management --------------------------------------------------

    def _storage_ddl(self, table: Table) -> list[str]:
        rowseq = f"{self.dialect.quote(ROWSEQ_COLUMN)} INTEGER"
        return [
            sqlc.create_table_ddl(
                self.dialect,
                table,
                source=self.dialect.partition_source(table.name, shard),
                extra_columns=(rowseq,),
            )
            for shard in range(self.shards)
        ]

    def _physical_columns(self, table: Table) -> list[tuple[str, list[str]]]:
        expected = [*table.attribute_names, ROWSEQ_COLUMN]
        return [
            (self.dialect.shard_schema(shard), expected)
            for shard in range(self.shards)
        ]

    def _make_relation(self, table: Table) -> ShardedSQLiteRelation:
        return ShardedSQLiteRelation(self, table)

    # -- one statement per plan ------------------------------------------------

    def _configure_reader(self, reader: _LockedConnection) -> None:
        """Every pooled reader ATTACHes all partitions, so any reader can
        run any plan's statement."""
        super()._configure_reader(reader)
        for shard, shard_path in enumerate(self.shard_paths()):
            reader.execute(
                sqlc.attach_sql(self.dialect.shard_schema(shard)), (shard_path,)
            )

    def _prepare_plan(self, plan: PathPlan) -> PathPlan:
        """Pick the plan's most selective slot as its seed.

        The seed slot starts the statement's semi-join chain, which bounds
        every other slot's reduced relation by the join fan-out from it.  Any
        slot is *correct* — the chain only drops rows no result network
        contains, and the ORDER BY terms never change — so the chooser
        minimizes the slot's *post-filter* row count: a slot whose selections
        resolved to a primary-key set costs ``len(keys)`` however large its
        relation, any other slot its catalog row count, falling back to a
        ``COUNT(*)``.  Ties keep the lowest position, i.e. the historical
        slot-0 default.
        """
        if len(plan.path) < 2:
            return plan
        key_counts = _key_counts(plan)
        catalog = self.statistics_catalog(collect=False)

        def cost(slot: int) -> int:
            count = key_counts.get(slot)
            if count is None and catalog is not None:
                count = catalog.rows(plan.path[slot])
            if count is None:
                count = self._table_count(plan.path[slot])
            return count

        best = min(range(len(plan.path)), key=lambda slot: (cost(slot), slot))
        if best == plan.scatter_position:
            return plan
        return replace(plan, scatter_position=best)

    def _scatter_slot_label(self, plan: PathPlan) -> str:
        """The ``--explain`` name of the plan's chosen seed slot."""
        slot = plan.scatter_position
        table = plan.path[slot]
        keys = _key_counts(plan).get(slot)
        if keys is not None:
            detail = f"{keys} selection keys"
        else:
            detail = f"{self._table_count(table)} rows"
        label = f"t{slot} ({table}, {detail})"
        if slot != 0:
            label += " [cost-chosen over default t0]"
        return label

    def _table_count(self, table_name: str) -> int:
        count = self._table_counts.get(table_name)
        if count is None:
            count = len(self.relation(table_name))
            self._table_counts[table_name] = count
        return count

    def _book_row(self, execution: StreamedExecution, row: Sequence[Any]) -> None:
        """Count the delivered row for the partition its seed-slot tuple was
        read from (the statement's trailing column)."""
        shard = row[-1]
        execution.shard_rows[shard] = execution.shard_rows.get(shard, 0) + 1
