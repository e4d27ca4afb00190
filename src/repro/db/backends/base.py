"""The storage-backend contract.

:class:`StorageBackend` makes explicit the interface the rest of the system
(interpretation execution in ``core/``, the baselines, the DivQ/FreeQ stacks)
implicitly programmed against when there was only the in-memory engine:

* a :class:`~repro.db.schema.Schema` plus per-table *relations* that can be
  scanned, point-looked-up by primary key and exact-matched on an attribute,
* row insertion that keeps a live :class:`~repro.db.index.InvertedIndex`
  consistent,
* a-priori index construction (``build_indexes``), and
* execution of a *join path with keyword selections* — the SQL statement a
  candidate network corresponds to (Section 2.2.6) — with an optional LIMIT
  for top-k early termination.

Backends differ only in *where rows live and who executes the joins*:
:class:`~repro.db.backends.memory.MemoryBackend` keeps dict-backed relations
and runs nested-loop joins in Python; :class:`~repro.db.backends.sqlite.
SQLiteBackend` persists rows to a SQLite file and pushes joins, selections
and LIMIT down to SQL.  Everything above this interface is backend-agnostic,
so adding e.g. a Postgres backend is a one-file job (see
``docs/architecture.md``).
"""

from __future__ import annotations

import abc
import hashlib
import json
import uuid
from dataclasses import dataclass, field, fields
from typing import (
    Any,
    ClassVar,
    Iterable,
    Iterator,
    Protocol,
    Sequence,
    runtime_checkable,
)

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


@dataclass
class BatchedExecution:
    """The outcome of one :meth:`StorageBackend.execute_paths_batched` call.

    A fully drained :class:`StreamedExecution`: ``rows[i]`` are the result
    networks of ``specs[i]`` — identical to what a plain
    ``execute_path(*specs[i], limit=limit)`` call returns — and every other
    field is the stream's, read after the drain.
    ``statements`` counts the physical query statements the backend issued to
    serve the whole batch: a backend with real batching support serves many
    specs per statement, the generic fallback issues one per spec.
    ``batched_indexes`` names the spec positions that shared one statement —
    introspection for tests and tooling into how the backend split the batch
    (empty when no statement was shared).  ``fallbacks`` maps the spec
    positions that *could not* share the statement to a human-readable
    reason (e.g. the UNION ALL parameter budget overflowed) — surfaced by
    the engine's ``--explain``.  ``shard_rows`` attributes returned rows to
    the storage shard their seed-slot tuple is stored in (empty on unsharded
    backends).  ``scatter_slots`` names the join slot each spec's statement
    seeds its semi-join chain at (sharding backends with a seed-slot
    chooser; empty elsewhere).
    """

    rows: list[list[tuple[Tuple, ...]]]
    statements: int
    batched_indexes: list[int] = field(default_factory=list)
    fallbacks: dict[int, str] = field(default_factory=dict)
    shard_rows: dict[int, int] = field(default_factory=dict)
    scatter_slots: dict[int, str] = field(default_factory=dict)


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
    once its generator exists).  The bookkeeping fields fill in
    *lazily* as the stream executes and is consumed — ``statements`` counts
    only statements whose cursors were actually opened (an unconsumed stream
    costs none), ``shard_rows`` attributes only delivered rows, and
    ``rows_short_circuited`` counts rows the backend had already produced
    (materialized by a fallback, or prefetched into a cursor chunk) when the
    consumer closed the stream — so read them after the stream is exhausted
    or closed, not before.
    """

    stream: RowStream = field(default_factory=lambda: RowStream(iter(())))
    statements: int = 0
    batched_indexes: list[int] = field(default_factory=list)
    fallbacks: dict[int, str] = field(default_factory=dict)
    shard_rows: dict[int, int] = field(default_factory=dict)
    scatter_slots: dict[int, str] = field(default_factory=dict)
    rows_short_circuited: int = 0


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

    def __len__(self) -> int: ...

    def __iter__(self): ...


class StorageBackend(abc.ABC):
    """Abstract base of every storage engine.

    Subclasses implement row storage (:meth:`relation`, :meth:`insert`,
    :meth:`add_table`) and join execution (:meth:`execute_path`); selection,
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
    def execute_path(
        self,
        path: Sequence[str],
        edges: Sequence[ForeignKey],
        selections: SelectionsByPosition | None = None,
        limit: int | None = None,
    ) -> list[tuple[Tuple, ...]]:
        """Execute a join path and return joining networks of tuples.

        Parameters
        ----------
        path:
            Table names, in join order.  ``len(path) == len(edges) + 1``.
        edges:
            ``edges[i]`` is the foreign key joining ``path[i]`` and
            ``path[i+1]`` (in either direction).
        selections:
            Optional keyword selections per path position.
        limit:
            Stop once this many result rows are produced (top-k early
            termination, Section 2.2.5).

        Returns
        -------
        A list of tuples of :class:`Tuple`, aligned with ``path``.
        """

    def insert(self, table_name: str, row: dict[str, Any]) -> Tuple:
        """Insert one row, keeping a live inverted index consistent.

        Shared here (over the storage primitives) so no backend can forget
        the index-maintenance hook and drift from a from-scratch rebuild.
        """
        tup = self.relation(table_name).insert(
            {name: normalize_value(value) for name, value in row.items()}
        )
        self._fold_mutation(f"row|{table_name}|{tup.key!r}|{tup.values!r}")
        if self.index is not None:
            self.index.add_tuple(self.schema.table(table_name), tup)
        if self._statistics is not None:
            self._statistics.observe_insert(self, table_name, tup)
        return tup

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
        """Extend the content digest chain with one mutation event.

        A chain hash (not a running hasher) so persistent backends can store
        the current hex value and resume the chain after a reopen.  Two
        stores that applied the same mutation sequence — e.g. two builds of
        the same deterministic dataset — share the digest, so they also share
        cache entries; stores that diverged, even with equal row counts, do
        not.
        """
        self._content_digest = hashlib.sha256(
            (self._content_digest + event).encode("utf-8")
        ).hexdigest()
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

    def close(self) -> None:
        """Release backend resources (in-memory storage has none)."""

    def __enter__(self) -> "StorageBackend":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- data loading (shared) ----------------------------------------------

    def insert_many(self, table_name: str, rows: Iterable[dict[str, Any]]) -> list[Tuple]:
        return [self.insert(table_name, row) for row in rows]

    def copy_into(self, other: "StorageBackend") -> "StorageBackend":
        """Bulk-copy every stored row into ``other`` (same schema assumed)."""
        for table in self.schema:
            other.insert_many(
                table.name, (tup.as_dict() for tup in self.relation(table.name))
            )
        return other

    # -- indexing (shared) ---------------------------------------------------

    def build_indexes(self) -> InvertedIndex:
        """Build the inverted index and exact-match join indexes a-priori.

        Also collects the planner-statistics catalog in the same pass budget
        (one extra scan per relation) — persistent backends that reload a
        persisted index reload persisted statistics instead of calling this.
        """
        for fk in self.schema.foreign_keys:
            self.relation(fk.source).create_index(fk.source_attr)
            if fk.target_attr != self.schema.table(fk.target).primary_key:
                self.relation(fk.target).create_index(fk.target_attr)
        self.index = InvertedIndex(self.tokenizer).build(self)
        self._collect_statistics()
        return self.index

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

    def select(self, table_name: str, selections: Sequence[Selection]) -> list[Tuple]:
        """Tuples of one table satisfying *all* keyword containments."""
        relation = self.relation(table_name)
        if not selections:
            return list(relation)
        keys = self.selection_keys(table_name, selections)
        return [t for t in (relation.get(k) for k in sorted(keys, key=repr)) if t is not None]

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
        """The :class:`~repro.db.backends.sql.PathPlan` one ``execute_path``
        call would run under, *without executing anything*.

        ``None`` means the result is provably empty (a selection matched no
        keys).  Planning only needs the schema and the inverted index, so it
        works on every backend.  Raises like :meth:`execute_path` on invalid
        specs.
        """
        from repro.db.backends.sql import plan_path

        selections = selections or {}
        self._validate_path(path, edges, selections, limit)
        key_filters = self.resolve_key_filters(path, selections)
        if key_filters is None:
            return None
        return plan_path(path, edges, key_filters, limit)

    @staticmethod
    def _edge_attrs(
        edge: ForeignKey, current_table: str, next_table: str
    ) -> tuple[str, str]:
        """``(bound attr on current, probe attr on next)`` for one join hop."""
        if edge.source == current_table and edge.target == next_table:
            return edge.source_attr, edge.target_attr
        if edge.source == next_table and edge.target == current_table:
            return edge.target_attr, edge.source_attr
        raise ValueError(
            f"foreign key {edge} does not connect {current_table!r} and {next_table!r}"
        )

    def execute_paths_streamed(
        self,
        specs: Sequence[PathSpec],
        limit: int | None = None,
    ) -> StreamedExecution:
        """Execute several join paths as one :class:`RowStream` cursor.

        The single primitive through which rows leave a backend: pairs
        stream in ascending spec order, rows within a spec identical
        (content, order, truncation) to ``execute_path(*spec, limit=limit)``,
        and ``limit`` applies *per spec*.  This generic fallback runs
        :meth:`execute_path` lazily, **one spec per pull**: nothing executes
        until the first row is wanted, and a spec the consumer never reaches
        is never executed — a single-spec stream is exactly one sequential
        ``execute_path`` call.  Rows of a started spec the consumer left
        behind count as ``rows_short_circuited``.  Backends with real
        cursors (SQLite) override this to batch specs per statement and
        never materialize at all.
        """
        specs = list(specs)
        execution = StreamedExecution()

        def generate() -> Iterator[tuple[int, tuple[Tuple, ...]]]:
            produced = delivered = 0
            try:
                for index, (path, edges, selections) in enumerate(specs):
                    rows = self.execute_path(path, edges, selections, limit=limit)
                    execution.statements += 1
                    produced += len(rows)
                    for network in rows:
                        # Count *before* yielding: a consumer that takes this
                        # row and then closes leaves the generator suspended
                        # at the yield, so a post-yield increment would book
                        # the last delivered row as short-circuited.
                        delivered += 1
                        yield index, network
            finally:
                execution.rows_short_circuited += produced - delivered

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

    def count_path(
        self,
        path: Sequence[str],
        edges: Sequence[ForeignKey],
        selections: SelectionsByPosition | None = None,
    ) -> int:
        """Number of result rows of a join path."""
        return len(self.execute_path(path, edges, selections))

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
