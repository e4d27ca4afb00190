"""The storage-backend contract.

:class:`StorageBackend` makes explicit the interface the rest of the system
(interpretation execution in ``core/``, the baselines, the DivQ/FreeQ stacks)
implicitly programmed against when there was only the in-memory engine:

* a :class:`~repro.db.schema.Schema` plus per-table *relations* that can be
  scanned, point-looked-up by primary key and exact-matched on an attribute,
* row insertion that keeps a live :class:`~repro.db.index.InvertedIndex`
  consistent, one row (``insert``) or a stream of them (``load``),
* a-priori index construction (``build_indexes``), and
* execution of a *join path with keyword selections* — the SQL statement a
  candidate network corresponds to (Section 2.2.6) — with an optional LIMIT
  for top-k early termination.

A join path enters a backend one way: this class validates it, resolves its
keyword selections to primary-key sets over the inverted index, drops it when
:meth:`StorageBackend.proves_empty` (or a selection matching no key) shows it
has no row, and plans it once as a :class:`~repro.db.backends.sql.PathPlan`.
Backends differ only in *where rows live and how a plan is streamed*:
:class:`~repro.db.backends.memory.MemoryBackend` keeps dict-backed relations
and walks the plan's key sets with nested-loop joins in Python;
:class:`~repro.db.backends.sqlite.SQLiteBackend` persists rows to a SQLite
file and compiles the plan to one statement.  Everything above this interface
is backend-agnostic, so adding e.g. a Postgres backend is a one-file job (see
``docs/architecture.md``).
"""

from __future__ import annotations

import abc
import hashlib
import json
import uuid
from dataclasses import dataclass, field, fields
from itertools import chain, repeat
from typing import (
    Any,
    ClassVar,
    Iterable,
    Iterator,
    Protocol,
    Sequence,
    runtime_checkable,
)

from repro.db.backends.sql import PathPlan, edge_attrs, plan_path
from repro.db.errors import UnknownTableError
from repro.db.index import InvertedIndex
from repro.db.schema import ForeignKey, Schema, Table
from repro.db.table import Tuple
from repro.db.tokenizer import DEFAULT_TOKENIZER, Tokenizer

#: One selection: all of ``terms`` must be contained in ``attribute``'s value.
#: ``(attribute, terms)``
Selection = tuple[str, tuple[str, ...]]

#: Per-position selections of a join path.
SelectionsByPosition = dict[int, Sequence[Selection]]

#: One :meth:`StorageBackend.execute_path` call, reified so several of them
#: can travel together through :meth:`StorageBackend.execute_paths_streamed`:
#: ``(path, edges, selections)``.
PathSpec = tuple[
    Sequence[str], Sequence["ForeignKey"], "SelectionsByPosition | None"
]

#: A validated :data:`PathSpec` with its selections resolved to primary-key
#: sets: ``(spec index, path, edges, key filters)``.
ResolvedSpec = tuple[int, Sequence[str], Sequence[ForeignKey], dict[int, set[Any]]]


@dataclass
class BatchedExecution:
    """The outcome of one :meth:`StorageBackend.execute_paths_batched` call:
    a drained :class:`StreamedExecution`.  ``rows[i]`` are the networks of
    ``specs[i]``, as ``execute_path(*specs[i], limit=limit)`` returns them;
    every other field is the stream's, read after the drain.
    """

    rows: list[list[tuple[Tuple, ...]]]
    statements: int
    batched_indexes: list[int] = field(default_factory=list)
    fallbacks: dict[int, str] = field(default_factory=dict)
    shard_rows: dict[int, int] = field(default_factory=dict)
    scatter_slots: dict[int, str] = field(default_factory=dict)
    proved_empty: int = 0


class RowStream:
    """A closable cursor over ``(spec index, network)`` pairs.

    Pairs come out in ascending spec order, and within one spec in exactly
    the rows and order ``execute_path`` produces — draining a stream and
    grouping by index *is* ``execute_paths_batched``.  The
    point of the cursor shape is that a consumer may *stop*: ``close()``
    (or the context manager) releases every underlying backend cursor
    without fetching the remaining rows.
    """

    def __init__(self, iterator: "Iterator[tuple[int, tuple[Tuple, ...]]]"):
        self._iterator = iterator
        self._closed = False
        #: Pairs handed to the consumer so far.
        self.rows_delivered = 0

    def __iter__(self) -> "RowStream":
        return self

    def __next__(self) -> "tuple[int, tuple[Tuple, ...]]":
        item = next(self._iterator)
        self.rows_delivered += 1
        return item

    def close(self) -> None:
        """Release the underlying cursors; idempotent, safe mid-iteration."""
        if self._closed:
            return
        self._closed = True
        close = getattr(self._iterator, "close", None)
        if close is not None:
            close()

    def __enter__(self) -> "RowStream":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


@dataclass
class StreamedExecution:
    """The outcome of one :meth:`StorageBackend.execute_paths_streamed` call.

    The rows sit behind a :class:`RowStream` cursor (assigned by the backend
    once its generator exists).  The bookkeeping fields fill in *lazily* as
    the stream executes and is consumed, so read them after the stream is
    exhausted or closed: ``statements`` counts the physical statements whose
    cursors actually opened (an unconsumed stream costs none; SQLite serves
    many specs per ``UNION ALL`` statement, the base stream one per plan),
    ``shard_rows`` attributes delivered rows to the shard their seed-slot
    tuple is stored in (sharded backends only), and ``rows_short_circuited``
    counts rows the backend had produced (joined by the memory backend, or
    prefetched into a cursor chunk) when the consumer closed the stream.
    The rest is settled when the call returns: ``batched_indexes`` names the
    specs that share one statement, ``fallbacks`` maps the specs that could
    not to a reason ``--explain`` prints, ``scatter_slots`` names the join
    slot each spec's statement seeds its semi-join chain at (sharded only),
    and ``proved_empty`` counts the specs that get no statement because
    their result is provably empty.
    """

    stream: RowStream = field(default_factory=lambda: RowStream(iter(())))
    statements: int = 0
    batched_indexes: list[int] = field(default_factory=list)
    fallbacks: dict[int, str] = field(default_factory=dict)
    shard_rows: dict[int, int] = field(default_factory=dict)
    scatter_slots: dict[int, str] = field(default_factory=dict)
    rows_short_circuited: int = 0
    proved_empty: int = 0


#: One row of a :meth:`StorageBackend.load` stream: ``(table name, row)``.
LoadRow = tuple[str, dict[str, Any]]


def normalize_value(value: Any) -> Any:
    """Coerce a cell value to its storage-normal form, identically everywhere.

    SQLite has no bool affinity and hands back ints on read; normalizing in
    the *shared* insert path keeps every backend's stored values — and hence
    index terms, selection results, mutation digests and cached rows —
    identical for the same logical insert.
    """
    if isinstance(value, bool):
        return int(value)
    return value


def row_event(
    table_name: str, key: Any, layout: Iterable[str], values: Sequence[Any]
) -> str:
    """The mutation-digest event of one stored row (see
    :meth:`StorageBackend._fold_mutation`): ``repr`` of its ``(name, value)``
    pairs, i.e. of ``Tuple.items()``."""
    return f"row|{table_name}|{key!r}|{tuple(zip(layout, values))!r}"


class ForeignKeyMaps:
    """The SQL backends' emptiness proof and what it reads: two maps per
    foreign-key column.

    A column is a foreign-key endpoint ``(table, attribute)`` other than its
    table's primary key (a primary-key endpoint needs no map: the key is the
    value).  ``values[column]`` maps each row's primary key to the column's
    value, ``holders[column]`` maps each value to the tuple of primary keys
    holding it.  A ``None`` cell is in neither, because NULL never joins.
    Values keep their Python equality, which is SQLite's on untyped
    columns: ``5`` finds ``5.0`` and not ``'5'``.
    """

    __slots__ = ("columns", "values", "holders")

    def __init__(self, schema: Schema):
        #: Table name -> its mapped attributes.
        self.columns: dict[str, list[str]] = {}
        for fk in schema.foreign_keys:
            for table_name, attribute in (
                (fk.source, fk.source_attr),
                (fk.target, fk.target_attr),
            ):
                mapped = self.columns.setdefault(table_name, [])
                if (
                    attribute != schema.table(table_name).primary_key
                    and attribute not in mapped
                ):
                    mapped.append(attribute)
        self.values: dict[tuple[str, str], dict[Any, Any]] = {}
        self.holders: dict[tuple[str, str], dict[Any, tuple[Any, ...]]] = {}

    @classmethod
    def scan(cls, backend: "StorageBackend") -> "ForeignKeyMaps":
        """The maps of every stored row, one ``value_rows()`` read of each
        table that has a mapped column."""
        maps = cls(backend.schema)
        for table in backend.schema:
            if maps.columns.get(table.name):
                maps.add_rows(table, backend.relation(table.name).value_rows())
        return maps

    def add_rows(self, table: Table, rows: Sequence[tuple[Any, ...]]) -> None:
        """Map the mapped columns of one table's rows (cells in attribute
        order, as ``value_rows()`` returns them)."""
        names = table.attribute_names
        key_at = names.index(table.primary_key)
        for attribute in self.columns.get(table.name, ()):
            value_at = names.index(attribute)
            values: dict[Any, Any] = {}
            grouped: dict[Any, list[Any]] = {}
            for row in rows:
                value = row[value_at]
                if value is None:
                    continue
                key = row[key_at]
                values[key] = value
                grouped.setdefault(value, []).append(key)
            self.values[table.name, attribute] = values
            self.holders[table.name, attribute] = {
                value: tuple(keys) for value, keys in grouped.items()
            }

    def _hop(
        self,
        schema: Schema,
        keys: set[Any],
        table_name: str,
        next_table: str,
        edge: ForeignKey,
    ) -> set[Any] | None:
        """The keys of ``next_table`` that join one of ``keys`` of
        ``table_name`` over ``edge`` — a superset of them where a value
        dangles (it stays in the set); ``None`` where a column is unmapped."""
        bound, probe = edge_attrs(edge, table_name, next_table)
        values = keys
        if bound != schema.table(table_name).primary_key:
            by_key = self.values.get((table_name, bound))
            if by_key is None:
                return None
            values = set(map(by_key.get, keys))
            values.discard(None)  # a key without a value joins nothing
        if probe == schema.table(next_table).primary_key:
            return values
        by_value = self.holders.get((next_table, probe))
        if by_value is None:
            return None
        return set(chain.from_iterable(map(by_value.get, values, repeat(()))))

    def proves_empty(
        self,
        schema: Schema,
        path: Sequence[str],
        edges: Sequence[ForeignKey],
        key_filters: dict[int, set[Any]],
    ) -> bool:
        """True when no network of the path passes every key filter.

        A forward semi-join from the smallest key set toward the farthest
        filtered position on each side, intersecting with every key set it
        meets.  Each hop may only over-approximate the keys that join, so
        an empty set is a proof; a non-empty one proves nothing.
        """
        positions = sorted(key_filters)
        start = min(positions, key=lambda position: len(key_filters[position]))
        for stop, step in ((positions[-1], 1), (positions[0], -1)):
            keys = key_filters[start]
            for position in range(start, stop, step):
                following = position + step
                reached = self._hop(
                    schema,
                    keys,
                    path[position],
                    path[following],
                    edges[min(position, following)],
                )
                if reached is None:
                    return False
                keys = reached
                if following in key_filters:
                    keys = keys & key_filters[following]
                if not keys:
                    return True
        return False


@runtime_checkable
class RelationView(Protocol):
    """What a backend's per-table handle must support.

    The in-memory :class:`~repro.db.table.Relation` is the reference
    implementation; SQLite exposes the same surface over stored tables.  The
    inverted index, the data graph and the baselines only ever use this
    protocol, never backend internals.
    """

    table: Table

    def insert(self, row: dict[str, Any]) -> Tuple: ...

    def create_index(self, attribute: str) -> None: ...

    def get(self, key: Any) -> Tuple | None: ...

    def lookup(self, attribute: str, value: Any) -> list[Tuple]: ...

    def value_rows(self) -> Sequence[tuple[Any, ...]]: ...

    def __len__(self) -> int: ...

    def __iter__(self): ...


class StorageBackend(abc.ABC):
    """Abstract base of every storage engine.

    Subclasses implement row storage (:meth:`relation`,
    :meth:`_create_storage`) and the execution of one planned join path
    (:meth:`_stream_plan`); validation, selection resolution, planning,
    statistics and the derived conveniences are shared here so all backends
    agree on semantics by construction.
    """

    #: Registry key, e.g. ``"memory"`` or ``"sqlite"``.
    name: ClassVar[str] = "abstract"
    #: True when rows survive process restarts (used by dataset builders to
    #: skip regeneration when a populated store already exists).
    persistent: ClassVar[bool] = False
    #: True when the backend accepts a ``shards`` partition count (the
    #: ``create_backend``/CLI ``--shards`` gate).
    supports_sharding: ClassVar[bool] = False
    #: True when the backend accepts a ``read_pool_size`` reader-connection
    #: cap (the ``create_backend``/CLI ``--read-pool-size`` gate).
    supports_read_pool: ClassVar[bool] = False

    def __init__(self, schema: Schema, tokenizer: Tokenizer = DEFAULT_TOKENIZER):
        self.schema = schema
        self.tokenizer = tokenizer
        self.index: InvertedIndex | None = None
        self._metadata: dict[str, str] = {}
        self._content_fingerprint: str | None = None
        #: Chained digest over every row this instance inserted (see
        #: :meth:`content_fingerprint`).  Persistent backends save/restore it
        #: so the chain continues across reopens.
        self._content_digest: str = ""
        #: Planner statistics, collected alongside :meth:`build_indexes`
        #: (persistent backends reload them instead; see ``db/stats``).
        self._statistics = None  # type: Any

    # -- read-connection pooling (optional) ---------------------------------

    def configure_read_pool(self, size: int | None) -> None:
        """Resize the backend's read-connection pool, if it has one.

        The engine applies :attr:`EngineConfig.read_pool_size` through this
        hook after construction; backends without pooled readers (memory,
        ``supports_read_pool`` False) ignore it.
        """

    def read_pool_stats(self) -> dict[str, int] | None:
        """Read-pool counters (``size``/``leases``/``waits``/
        ``peak_concurrency``), or ``None`` when no pool is active."""
        return None

    # -- storage contract (backend-specific) -------------------------------

    @abc.abstractmethod
    def relation(self, table_name: str) -> RelationView:
        """The stored rows of one table; raises UnknownTableError."""

    @abc.abstractmethod
    def _create_storage(self, table: Table) -> RelationView:
        """Create (or attach to) the storage of one table."""

    @abc.abstractmethod
    def _stream_plan(
        self, plan: PathPlan, execution: "StreamedExecution"
    ) -> Iterator[tuple[Tuple, ...]]:
        """Execute one plan: a closable iterator of its networks.

        Rows come out in the order every backend shares (the seed slot's
        rows in insertion order, or by key ``repr`` when it has a key set;
        every join probe's matches by key ``repr``; see
        :meth:`~repro.db.backends.sql.PlanCompiler.order_terms`), kept to
        every key set of the plan, inline or post, and cut at
        ``plan.limit``.  Nothing runs before the first pull; the backend
        adds its statements to ``execution.statements`` and the rows it
        produced but never delivered to ``execution.rows_short_circuited``.
        """

    def insert(self, table_name: str, row: dict[str, Any]) -> Tuple:
        """Insert one row, keeping a live inverted index consistent.

        Shared here (over the storage primitives) so no backend can forget
        the index-maintenance hook and drift from a from-scratch rebuild.
        """
        tup = self.relation(table_name).insert(
            {name: normalize_value(value) for name, value in row.items()}
        )
        self._fold_mutation(row_event(table_name, tup.key, tup.layout, tup.values))
        if self.index is not None:
            self.index.add_tuple(self.schema.table(table_name), tup)
        if self._statistics is not None:
            self._statistics.observe_insert(self, table_name, tup)
        return tup

    def load(self, rows: Iterable[LoadRow]) -> list[Any]:
        """Store a stream of ``(table name, row)`` pairs; their primary keys.

        Exactly ``insert`` once per row, in order: the same stored rows,
        auto-assigned keys and mutation digest, and on a bad row the same
        exception after the same prefix is stored.  This default is that
        loop; the SQLite backends batch it (see ``SQLiteBackend.load``).
        ``rows`` is consumed lazily, so a builder need not hold its dataset.
        """
        return [self.insert(table_name, row).key for table_name, row in rows]

    def add_table(self, table: Table) -> RelationView:
        """Add a table to the schema and create its storage.

        When an index exists it is kept consistent with a from-scratch
        rebuild: the new table's schema terms, tuple count and any
        pre-existing rows become visible without ``build_indexes()``.
        """
        self.schema.add_table(table)
        relation = self._create_storage(table)
        self._fold_mutation(f"table|{table.name}")
        if self.index is not None:
            self.index.register_table(table, relation)
        return relation

    # -- lifecycle ----------------------------------------------------------

    @property
    def is_persistent(self) -> bool:
        """True when this *instance* stores rows beyond the process lifetime.

        Defaults to the class-level ``persistent`` flag; backends whose
        durability depends on configuration (e.g. SQLite's ``":memory:"``
        mode) refine it.  Dataset builders use this plus :meth:`has_rows` to
        skip regeneration.
        """
        return self.persistent

    def has_rows(self) -> bool:
        """True when at least one stored table is non-empty."""
        return any(len(self.relation(name)) for name in self.schema.table_names)

    def set_metadata(self, key: str, value: str) -> None:
        """Store a backend-scoped key/value pair (e.g. a dataset fingerprint).

        Persistent backends keep metadata alongside the rows so it survives
        reopens; the in-memory default lives and dies with the instance.
        Keys starting with ``_`` are reserved for backend bookkeeping (the
        mutation digest, the store nonce) — colliding with them would corrupt
        the content-fingerprint chain, so they are rejected here.
        """
        if key.startswith("_"):
            raise ValueError(f"metadata key {key!r} is reserved (leading underscore)")
        self._set_internal_metadata(key, value)

    def _set_internal_metadata(self, key: str, value: str) -> None:
        """The unguarded write path, shared with backend bookkeeping keys."""
        self._metadata[key] = value
        self._content_fingerprint = None

    def get_metadata(self, key: str) -> str | None:
        return self._metadata.get(key)

    def metadata_values(self, prefix: str) -> list[str]:
        """Values of every metadata key starting with ``prefix``, key-sorted."""
        return [
            value
            for key, value in sorted(self._metadata.items())
            if key.startswith(prefix)
        ]

    # -- content identity ----------------------------------------------------

    def _content_seed(self) -> str:
        """Base identity the content fingerprint hashes over.

        A dataset built by the generators carries its full generation
        fingerprint in metadata (one key per dataset — several datasets may
        coexist in one store); two stores holding the same datasets therefore
        share cached work.  Hand-built stores get a store-scoped nonce
        instead, so stores with coincidentally equal shapes never alias.
        """
        datasets = self.metadata_values("dataset_fingerprint")
        if datasets:
            return "|".join(datasets)
        nonce = self.get_metadata("_content_nonce")
        if nonce is None:
            nonce = uuid.uuid4().hex
            self._set_internal_metadata("_content_nonce", nonce)
        return nonce

    def _fold_mutation(self, event: str) -> None:
        """Extend the content digest chain with one mutation event (see
        :meth:`_fold_mutations`)."""
        self._fold_mutations((event,))

    def _fold_mutations(self, events: Iterable[str]) -> None:
        """Extend the content digest chain with mutation events, in order.

        A chain hash (not a running hasher) so persistent backends can store
        the current hex value and resume the chain after a reopen.  Two
        stores that applied the same mutation sequence — e.g. two builds of
        the same deterministic dataset — share the digest, so they also share
        cache entries; stores that diverged, even with equal row counts, do
        not.
        """
        digest = self._content_digest
        for event in events:
            digest = hashlib.sha256((digest + event).encode("utf-8")).hexdigest()
        self._content_digest = digest
        self._content_fingerprint = None

    def content_fingerprint(self) -> str:
        """Digest identifying the current stored content.

        The key of everything derived from the rows — persisted index
        postings, cached interpretation results.  Hashes the seed identity,
        the mutation-digest chain and the per-table row counts: every
        API-level mutation (insert, add_table) extends the chain, including
        mutations that leave row counts unchanged between two stores; the
        counts additionally catch out-of-band row insertions/removals in a
        reopened persistent file.  (Out-of-band *equal-count* edits behind
        the backend's back are outside the API contract and not detected.)
        """
        if self._content_fingerprint is None:
            payload = json.dumps(
                {
                    "backend": self.name,
                    "seed": self._content_seed(),
                    "digest": self._content_digest,
                    "counts": {
                        name: len(self.relation(name))
                        for name in sorted(self.schema.table_names)
                    },
                },
                sort_keys=True,
            )
            digest = hashlib.sha256(payload.encode("utf-8")).hexdigest()
            self._content_fingerprint = digest[:32]
        return self._content_fingerprint

    def decoded_rows_alive(self) -> int:
        """Rows decoded from storage that something still references — the
        SQLite backends' one-object-per-stored-row maps; ``0`` where rows
        live in the process and are never decoded."""
        return 0

    def close(self) -> None:
        """Release backend resources (in-memory storage has none)."""

    def __enter__(self) -> "StorageBackend":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- data loading (shared) ----------------------------------------------

    def insert_many(self, table_name: str, rows: Iterable[dict[str, Any]]) -> list[Any]:
        """:meth:`load` of rows of one table; their primary keys."""
        return self.load((table_name, row) for row in rows)

    def copy_into(self, other: "StorageBackend") -> "StorageBackend":
        """Bulk-copy every stored row into ``other`` (same schema assumed)."""
        other.load(
            (table.name, tup.as_dict())
            for table in self.schema
            for tup in self.relation(table.name)
        )
        return other

    # -- indexing (shared) ---------------------------------------------------

    def build_indexes(self) -> InvertedIndex:
        """Build the inverted index and exact-match join indexes a-priori.

        Also collects the planner-statistics catalog from the same scan:
        each relation's ``value_rows()`` is read once and fed to both (and to
        :meth:`_scanned`), so no row is decoded into a ``Tuple`` —
        persistent backends that reload a persisted index reload persisted
        statistics instead of calling this.
        """
        from repro.db.stats import StatisticsCatalog

        self._create_join_indexes()
        index = InvertedIndex(self.tokenizer)
        statistics = StatisticsCatalog(self.schema)
        for table in self.schema:
            rows = self.relation(table.name).value_rows()
            index.add_rows(table, rows)
            statistics.collect_table(table.name, rows)
            self._scanned(table, rows)
        self.index = index
        self._statistics = statistics
        return index

    def _scanned(self, table: Table, rows: Sequence[tuple[Any, ...]]) -> None:
        """Hook: one table's rows as :meth:`build_indexes`' one scan reads
        them (the SQLite backends feed their :class:`ForeignKeyMaps`)."""

    def _create_join_indexes(self) -> None:
        """Exact-match indexes on every foreign-key endpoint but a primary key."""
        for fk in self.schema.foreign_keys:
            self.relation(fk.source).create_index(fk.source_attr)
            if fk.target_attr != self.schema.table(fk.target).primary_key:
                self.relation(fk.target).create_index(fk.target_attr)

    def require_index(self) -> InvertedIndex:
        if self.index is None:
            self.build_indexes()
        assert self.index is not None
        return self.index

    # -- statistics ----------------------------------------------------------

    def total_tuples(self) -> int:
        return sum(len(self.relation(name)) for name in self.schema.table_names)

    def _collect_statistics(self):
        """(Re)scan every relation into a fresh statistics catalog."""
        from repro.db.stats import StatisticsCatalog

        self._statistics = StatisticsCatalog.collect(self)
        return self._statistics

    def statistics_catalog(self, collect: bool = True):
        """The planner-statistics catalog (see :mod:`repro.db.stats`).

        With ``collect`` (the default) a missing catalog is collected on the
        spot; ``collect=False`` only reports what already exists — the
        planner's own access path, so planning never triggers a scan.
        """
        if self._statistics is None and collect:
            self._collect_statistics()
        return self._statistics

    # -- selection (shared) --------------------------------------------------

    def selection_keys(
        self, table_name: str, selections: Sequence[Selection]
    ) -> set[Any]:
        """Primary keys of tuples satisfying *all* keyword containments.

        Containment is token-based (the tokenizer's notion of "contains", not
        SQL LIKE substring matching), answered from the inverted index — the
        semantics every backend must share.
        """
        self.relation(table_name)  # validates table
        index = self.require_index()
        keys: set[Any] | None = None
        for attribute, terms in selections:
            attr_keys = index.candidate_tuple_keys(terms, table_name, attribute)
            keys = attr_keys if keys is None else keys & attr_keys
            if not keys:
                return set()
        return keys if keys is not None else set()

    # -- join-path execution (shared validation + derived queries) -----------

    def _validate_path(
        self,
        path: Sequence[str],
        edges: Sequence[ForeignKey],
        selections: SelectionsByPosition,
        limit: int | None = None,
    ) -> None:
        if len(path) != len(edges) + 1:
            raise ValueError("path/edges arity mismatch")
        if limit is not None and limit < 0:
            raise ValueError("limit must be non-negative")
        for position, table_name in enumerate(path):
            self.relation(table_name)  # validates table
            for attribute, _terms in selections.get(position, ()):
                if not self.schema.table(table_name).has_attribute(attribute):
                    raise UnknownTableError(f"{table_name}.{attribute}")

    def resolve_key_filters(
        self, path: Sequence[str], selections: SelectionsByPosition
    ) -> dict[int, set[Any]] | None:
        """Per-position primary-key sets of the selections, via the index.

        ``None`` means some position matched nothing — the whole path result
        is provably empty and no execution needs to happen.  Out-of-range
        positions and empty selection lists are skipped, matching the
        nested-loop engine's behavior.  Shared here because resolution runs
        entirely over the inverted index, so every backend — including the
        in-memory one — resolves identically.
        """
        key_filters: dict[int, set[Any]] = {}
        for position in sorted(selections):
            if not 0 <= position < len(path):
                continue  # the nested-loop engine ignores out-of-range slots
            position_selections = list(selections[position])
            if not position_selections:
                continue
            keys = self.selection_keys(path[position], position_selections)
            if not keys:
                return None
            key_filters[position] = keys
        return key_filters

    def plan_path_spec(
        self,
        path: Sequence[str],
        edges: Sequence[ForeignKey],
        selections: SelectionsByPosition | None = None,
        limit: int | None = None,
    ):
        """The :class:`~repro.db.backends.sql.PathPlan` of one spec, *without
        executing anything*; ``None`` when a selection matched no key
        (:meth:`proves_empty` is not consulted).  Raises like
        :meth:`execute_path` on invalid specs.
        """
        selections = selections or {}
        self._validate_path(path, edges, selections, limit)
        key_filters = self.resolve_key_filters(path, selections)
        if key_filters is None:
            return None
        return plan_path(path, edges, key_filters, limit)

    def proves_empty(
        self,
        path: Sequence[str],
        edges: Sequence[ForeignKey],
        key_filters: dict[int, set[Any]],
    ) -> bool:
        """True when the resolved key filters provably join nothing.  The
        base class proves nothing; the SQLite backends read their
        :class:`ForeignKeyMaps`."""
        return False

    def _resolve_specs(
        self,
        specs: Sequence[PathSpec],
        limit: int | None,
        execution: "StreamedExecution",
    ) -> tuple[list[ResolvedSpec], list[ResolvedSpec]]:
        """``(to plan, proved empty)``: every validated spec whose selections
        matched a key, resolved and split by :meth:`proves_empty`.  A spec
        that matched no key is in neither list, nor is any under ``limit ==
        0``; ``execution.proved_empty`` counts both kinds of empty spec."""
        resolved: list[ResolvedSpec] = []
        proved: list[ResolvedSpec] = []
        for index, (path, edges, selections) in enumerate(specs):
            selections = selections or {}
            self._validate_path(path, edges, selections, limit)
            if limit == 0:
                continue
            key_filters = self.resolve_key_filters(path, selections)
            if key_filters is None:
                execution.proved_empty += 1
                continue
            spec = (index, path, edges, key_filters)
            if self.proves_empty(path, edges, key_filters):
                execution.proved_empty += 1
                proved.append(spec)
            else:
                resolved.append(spec)
        return resolved, proved

    def execute_paths_streamed(
        self,
        specs: Sequence[PathSpec],
        limit: int | None = None,
    ) -> StreamedExecution:
        """Execute several join paths as one :class:`RowStream` cursor.

        The single primitive through which rows leave a backend: pairs
        stream in ascending spec order, and ``limit`` applies *per spec*.
        Every spec is validated, resolved (:meth:`_resolve_specs`) and
        planned once before the call returns; a provably empty spec gets no
        plan.  Nothing executes until the first row is wanted: each plan
        goes through :meth:`_stream_plan` when the consumer reaches its
        spec, so a spec the consumer never reaches is never executed.  The
        SQLite backends override this to serve many specs through one
        ``UNION ALL`` statement.
        """
        execution = StreamedExecution()
        resolved, _proved = self._resolve_specs(specs, limit, execution)
        plans = [
            (index, plan_path(path, edges, key_filters, limit))
            for index, path, edges, key_filters in resolved
        ]

        def generate() -> Iterator[tuple[int, tuple[Tuple, ...]]]:
            for index, plan in plans:
                rows = self._stream_plan(plan, execution)
                try:
                    for network in rows:
                        yield index, network
                finally:
                    rows.close()

        execution.stream = RowStream(generate())
        return execution

    def execute_paths_batched(
        self,
        specs: Sequence[PathSpec],
        limit: int | None = None,
    ) -> BatchedExecution:
        """:meth:`execute_paths_streamed`, drained and grouped by spec index.

        Not overridden anywhere: a backend changes how rows are produced by
        overriding the stream, and this list-returning face follows.  The
        stream is closed in this thread whatever happens, so an exception
        mid-drain leaves no cursor or reader lease behind.
        """
        specs = list(specs)
        execution = self.execute_paths_streamed(specs, limit=limit)
        rows: list[list[tuple[Tuple, ...]]] = [[] for _ in specs]
        try:
            for index, network in execution.stream:
                rows[index].append(network)
        finally:
            execution.stream.close()
        return BatchedExecution(
            rows=rows,
            **{
                f.name: getattr(execution, f.name)
                for f in fields(BatchedExecution)
                if f.name != "rows"
            },
        )

    def execute_path(
        self,
        path: Sequence[str],
        edges: Sequence[ForeignKey],
        selections: SelectionsByPosition | None = None,
        limit: int | None = None,
    ) -> list[tuple[Tuple, ...]]:
        """The networks of one join path: tuples of :class:`Tuple` aligned
        with ``path``, ``edges[i]`` joining ``path[i]`` and ``path[i+1]``
        (either direction), cut at ``limit`` (top-k early termination,
        Section 2.2.5).  A drained one-spec :meth:`execute_paths_streamed`."""
        return self.execute_paths_batched([(path, edges, selections)], limit).rows[0]

    def has_results(
        self,
        path: Sequence[str],
        edges: Sequence[ForeignKey],
        selections: SelectionsByPosition | None = None,
    ) -> bool:
        """True iff the join path yields at least one result row.

        DivQ assigns zero probability to interpretations with empty results
        (Section 4.4.2); this is the early-terminating check it uses.
        """
        return bool(self.execute_path(path, edges, selections, limit=1))
