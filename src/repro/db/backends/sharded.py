"""Hash-partitioned SQLite storage across attached database files.

:class:`ShardedSQLiteBackend` (registry name ``sqlite-sharded``) splits
every relation's rows across *N* shard databases attached to one catalog
file (``ATTACH``): row ``r`` of table ``t`` lives in the partition
``shard{hash(pk) % N}."t"``, where the hash is a deterministic digest of the
primary key's ``repr()`` so a reopened store routes every key to the same
partition.  The catalog (main) database holds no rows — only the shared
side tables (metadata, persisted index postings, the result cache) and the
shard-layout record that makes mismatched reopens fail fast.

Execution is **scatter-gather** over the shared planner/compiler layer
(:mod:`repro.db.backends.sql`): every :class:`~repro.db.backends.sql.
PathPlan` compiles once per shard under a :class:`~repro.db.backends.sql.
ShardedSQLiteDialect` — the plan's scatter slot reads that shard's partition
only, so the per-shard result streams are disjoint and their union complete,
and every other slot reaches all partitions through a linear semi-join chain
(``WITH r<slot> AS MATERIALIZED``; soundness argument on :meth:`~repro.db.
backends.sql.PlanCompiler.reduction_chain`).  Selection keys are routed by
partition once per plan, so every probe binds only the keys its partition
holds and a shard holding none of the scatter slot's keys gets no statement
or reader lease at all.  Each routed key set binds as **one** JSON-array
parameter (``IN (SELECT +value FROM json_each(?))``, :meth:`~repro.db.
backends.sql.ShardedSQLiteDialect.key_set_predicate`), so a member's text
depends on its plan's shape — path, filtered slots, live partitions — and
not on how many keys a query resolved to: such a text takes about a
millisecond to prepare, and ``sqlite3``'s per-connection statement cache
can only serve one that repeats byte for byte.  Each statement projects its
ORDER BY keys, the gather step merges the streams under exactly those keys
and truncates at the plan's limit, which keeps the rows, order and
truncation byte-identical to the unsharded backend (pinned by
``tests/test_sharded_backend.py``).  The gather has one shape on every store
and pool size: it leases one connection per shard statement at once and
opens a lazy cursor on each in the caller's thread, advanced as the merge
pulls — this module starts no thread.  On file-backed stores the
connections are readers of the inherited pool (each with every partition
ATTACHed; capacity ``shards × read_pool_size``; equal leases get the same
readers in the same order, so a shard's texts stay with one reader); on a
``":memory:"`` store (whose attached shards exist only inside the one
connection) and inside an open bulk load they are the writer connection, by
the inherited lease rule.

Insertion order — what the in-memory engine's scans and the unsharded
backend's ``rowid`` provide — is preserved by an explicit ``_rowseq``
column every partition carries: a store-global monotone sequence assigned at
insert time, used for scans and as the base order term of unselected scatter
slots.
"""

from __future__ import annotations

import hashlib
import heapq
import sqlite3
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path
from typing import Any, Iterable, Iterator, Sequence

from repro.db.backends import sql as sqlc
from repro.db.backends.base import StreamedExecution, normalize_value
from repro.db.backends.sql import (
    CompiledStatement,
    PathPlan,
    PlanCompiler,
    ShardedSQLiteDialect,
)
from repro.db.backends.sqlite import (
    SQLiteBackend,
    SQLiteRelation,
    _LockedConnection,
)
from repro.db.errors import DatabaseError
from repro.db.schema import Schema, Table
from repro.db.table import Tuple
from repro.db.tokenizer import DEFAULT_TOKENIZER, Tokenizer

#: The hidden per-partition column carrying the store-global insertion order.
ROWSEQ_COLUMN = "_rowseq"

#: Scatter statements use ``WITH ... AS MATERIALIZED`` (SQLite 3.35, 2021).
MIN_SQLITE_VERSION = (3, 35, 0)


def merge_shard_streams(
    streams: "Iterable[Iterable[tuple]]", key_width: int
) -> Iterator[tuple[tuple, int, tuple]]:
    """K-way merge of per-shard row streams under their projected order keys.

    Every stream must already be sorted by its leading ``key_width`` columns
    (the ORDER BY keys each scatter member projects as ``__o0..``); the merge
    yields ``(key, shard index, raw row)`` in global ``(key, shard)`` order.
    Ties on the full key resolve to the lower shard index — exactly what the
    former stable materialize-then-sort gather produced — and since the heap
    holds at most one row per stream, raw rows are never compared.  Callers
    owning lazy sources must close them on early exit — ``heapq.merge`` does
    not.
    """
    def decorate(shard: int, rows: "Iterable[tuple]") -> Iterator[tuple]:
        # A real function, not a genexp inside the comprehension: a genexp
        # would close over the loop variable and stamp every row with the
        # *last* shard index once evaluated lazily.
        for row in rows:
            yield tuple(row[:key_width]), shard, row

    return heapq.merge(
        *(decorate(shard, rows) for shard, rows in enumerate(streams))
    )


def shard_of_key(key: Any, shards: int) -> int:
    """The partition of one primary key — deterministic across processes.

    Python's ``hash()`` is salted per process for strings, so the routing
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


class ShardedSQLiteRelation(SQLiteRelation):
    """One logical table over its hash partitions.

    Point reads route by key hash; scans and attribute lookups read the
    all-shards union (ordered by ``_rowseq``, i.e. insertion order) — the
    same observable surface as an unsharded :class:`SQLiteRelation`.
    """

    def __init__(self, backend: "ShardedSQLiteBackend", table: Table):
        self._shards = backend.shards
        self._shard_dialect: ShardedSQLiteDialect = backend.dialect
        super().__init__(backend, table)
        #: Next global insertion-sequence value (lazy: resumes the stored
        #: maximum on a reopened store).
        self._next_rowseq: int | None = None

    def _prepare_point_statements(self) -> None:
        """Per-partition INSERT/point-get statements (routed by key hash)."""
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
        self._partition_gets = [
            sqlc.select_where_sql(
                dialect,
                self.table,
                self._pk,
                source=dialect.partition_source(self.table.name, shard),
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

    def get(self, key: Any) -> Tuple | None:
        with self._backend._lease_read_connection() as conn:
            row = conn.execute(
                self._partition_gets[shard_of_key(key, self._shards)], (key,)
            ).fetchone()
        return self._to_tuple(row) if row is not None else None

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
        self._shard_compilers_cache: list[PlanCompiler] | None = None
        #: Cached per-table row counts feeding the scatter-position chooser
        #: (a COUNT(*) over all partitions per miss; invalidated on insert).
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
        """Run the one JSON1 call scatter statements make (they bind every
        key set through ``json_each``, with no other spelling kept)."""
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

    # -- scatter-gather execution --------------------------------------------

    def _live_shards(self, plans: Sequence[PathPlan]) -> list[int]:
        """The shards where routing leaves some plan's scatter slot a key."""
        return [
            shard
            for shard in range(self.shards)
            if any(plan.scatters_to(shard) for plan in plans)
        ]

    def _shard_compilers(self) -> list[PlanCompiler]:
        """One compiler per scatter member, each under its shard's dialect."""
        if self._shard_compilers_cache is None:
            self._shard_compilers_cache = [
                PlanCompiler(
                    self.schema, ShardedSQLiteDialect(self.shards, scatter_shard=shard)
                )
                for shard in range(self.shards)
            ]
        return self._shard_compilers_cache

    # -- read-connection pool overrides --------------------------------------

    def _read_pool_capacity(self) -> int:
        """Connections the pool may open: per-shard cursors × pool size.

        A streamed gather leases one connection per shard at once
        (``lease_many``), so the capacity scales with the shard count —
        ``read_pool_size`` then says how many such gathers (or that many
        independent point reads per shard) may run concurrently.
        """
        return self.shards * self._read_pool_size

    def _configure_reader(self, reader: _LockedConnection) -> None:
        """Every pooled reader ATTACHes all partitions, so any reader can
        run any scatter member's statement."""
        super()._configure_reader(reader)
        for shard, shard_path in enumerate(self.shard_paths()):
            reader.execute(
                sqlc.attach_sql(self.dialect.shard_schema(shard)), (shard_path,)
            )

    def _prepare_plan(self, plan: PathPlan) -> PathPlan:
        """Route the plan's keys and pick its most selective scatter slot.

        Routing — :func:`shard_of_key` over every inline key set, once per
        plan — lets each scatter member bind only the keys its partitions
        hold, and spares a shard without any scatter-slot key its statement.
        The scatter slot reads one partition per member and seeds the
        member's semi-join chain, which bounds every other slot's reduced
        relation by the join fan-out from it.  Any slot is *correct* — each
        result network has exactly one tuple per slot, so per-shard streams
        stay disjoint and complete under any choice, and the ORDER BY terms
        never change — so the chooser minimizes the slot's estimated
        *post-filter* cardinality: a slot whose selections resolved to a
        primary-key set costs ``len(keys)`` however large its relation, and
        unfiltered slots fall back to catalog row counts, then to a
        ``COUNT(*)``.  Ties keep the lowest position, i.e. the historical
        slot-0 default.  With ``cost_planning`` off the raw-row-count chooser
        of PR 5 is kept bit-for-bit — the planner benchmarks' control arm.
        """
        plan = super()._prepare_plan(plan)  # annotate estimate, reorder joins
        routed = []
        for position, keys in plan.inline_filters:
            keys_by_shard: list[list[Any]] = [[] for _ in range(self.shards)]
            for key in keys:  # repr-sorted, so every partition's share is too
                keys_by_shard[shard_of_key(key, self.shards)].append(key)
            routed.append((position, tuple(map(tuple, keys_by_shard))))
        plan = replace(plan, shard_filters=tuple(routed))
        if len(plan.path) < 2:
            return plan
        if self.cost_planning:
            filters = plan.key_filter_map()
            catalog = self.statistics_catalog(collect=False)
            cards: list[float] = []
            for slot, name in enumerate(plan.path):
                keys = filters.get(slot)
                if keys is not None:
                    cards.append(float(len(keys)))
                    continue
                rows = catalog.rows(name) if catalog is not None else None
                cards.append(
                    float(rows) if rows is not None else float(self._table_count(name))
                )
        else:
            cards = [float(self._table_count(name)) for name in plan.path]
        best = min(range(len(plan.path)), key=lambda slot: (cards[slot], slot))
        if best == plan.scatter_position:
            return plan
        return replace(plan, scatter_position=best)

    def _scatter_slot_label(self, plan: PathPlan) -> str:
        """The ``--explain`` name of the plan's chosen scatter slot."""
        slot = plan.scatter_position
        table = plan.path[slot]
        keys = plan.key_filter_map().get(slot)
        if keys is not None:
            detail = f"{len(keys)} selection keys"
        else:
            detail = f"{self._table_count(table)} rows"
        label = (
            f"t{slot} ({table}, {detail}) → "
            f"{len(self._live_shards([plan]))} of {self.shards} shards"
        )
        if slot != 0 and self.cost_planning:
            label += " [cost-chosen over default t0]"
        return label

    def _table_count(self, table_name: str) -> int:
        count = self._table_counts.get(table_name)
        if count is None:
            count = len(self.relation(table_name))
            self._table_counts[table_name] = count
        return count

    def insert(self, table_name: str, row: dict[str, Any]) -> Tuple:
        self._table_counts.pop(table_name, None)
        return super().insert(table_name, row)

    # -- the scatter-gather cursor seams ---------------------------------------

    @contextmanager
    def _shard_stream_sources(
        self, statements: list[CompiledStatement], execution: StreamedExecution
    ) -> Iterator[list[Iterator[tuple]]]:
        """Per-shard row streams of one streamed scatter, cleanup guaranteed.

        One connection per statement, leased **atomically** for the merge's
        lifetime (incremental leasing could deadlock two gathers each
        holding half the pool), each serving one lazy cursor that opens at
        the merge's first pull and advances, in the consumer's thread, only
        as the merge pulls it.  Streams come in statement order, so the
        gather's merge — and therefore the query result — is byte-identical
        on every store and pool size.
        """
        with self._lease_read_connections(len(statements)) as conns:
            sources = [
                self._iter_cursor(conn, statement, execution)
                for conn, statement in zip(conns, statements)
            ]
            try:
                yield sources
            finally:
                # heapq.merge never closes its sources; release every shard
                # cursor explicitly, however early the consumer stopped.
                for source in sources:
                    source.close()

    def _stream_plan(
        self, plan: PathPlan, execution: StreamedExecution
    ) -> "Iterator[tuple[Tuple, ...]]":
        """One plan as a lazy k-way merge over per-shard cursor streams.

        Every member statement projects its ORDER BY keys (``__o0..``), so
        the gather is a :func:`merge_shard_streams` over exactly the keys
        SQLite ordered by — types agree per column across shards, and the
        key tuple is a total order (each slot contributes its tuple's
        identity), so merged rows reproduce the unsharded statement's order
        bit-for-bit and the merge truncates at the plan's limit instead of
        sorting everything first.
        """
        live = self._live_shards([plan])
        compilers = self._shard_compilers()
        statements = [
            compilers[shard].compile_path(plan, project_order_keys=True)
            for shard in live
        ]
        execution.statements += len(statements)
        relations = [self.relation(name) for name in plan.path]
        width = len(plan.path)
        with self._shard_stream_sources(statements, execution) as sources:
            produced = 0
            for _key, stream, row in merge_shard_streams(sources, width):
                network = self._decode_network(relations, row, offset=width)
                if not plan.keeps(network):
                    continue
                execution.shard_rows[live[stream]] = (
                    execution.shard_rows.get(live[stream], 0) + 1
                )
                yield network
                produced += 1
                if plan.limit is not None and produced >= plan.limit:
                    break

    def _stream_union(
        self, members: list[tuple[int, PathPlan]], execution: StreamedExecution
    ) -> "Iterator[tuple[int, tuple]]":
        """The tagged UNION ALL as a lazy merge of per-shard cursor streams.

        Each shard runs the same tagged statement over its partition of the
        scatter slot; the gather merges the streams under ``(discriminator,
        projected order keys)`` — the statements' global ORDER BY — and
        re-applies each spec's limit (a per-shard LIMIT is only an upper
        bound on the merged stream).
        """
        live = self._live_shards([plan for _index, plan in members])
        compilers = self._shard_compilers()
        statements = [compilers[shard].compile_union(members) for shard in live]
        ord_width, _data_width = self.compiler.union_widths(members)
        execution.statements += len(statements)
        member_relations = {
            index: [self.relation(name) for name in plan.path]
            for index, plan in members
        }
        limits = {index: plan.limit for index, plan in members}
        counts = {index: 0 for index, _plan in members}
        with self._shard_stream_sources(statements, execution) as sources:
            for _key, stream, row in merge_shard_streams(sources, 1 + ord_width):
                index = row[0]
                if limits[index] is not None and counts[index] >= limits[index]:
                    continue  # per-shard LIMIT overshoot beyond the true cap
                network = self._decode_network(
                    member_relations[index], row, offset=1 + ord_width
                )
                counts[index] += 1
                execution.shard_rows[live[stream]] = (
                    execution.shard_rows.get(live[stream], 0) + 1
                )
                yield index, network
