"""The SQL planner/compiler layer shared by the SQL-speaking backends.

Join-path execution compiles in three explicit steps instead of hand-wired
string building inside each backend:

1. **Planning** (:func:`plan_path` / :func:`plan_batch`): resolved
   per-position primary-key filters are split into *inline* predicates
   (bound ``pk IN (...)`` parameters) and *post* filters (applied in Python
   after the fetch), honoring the statement's parameter budget.  Batch
   planning additionally decides which specs can share one tagged ``UNION
   ALL`` statement and records a human-readable *fallback reason* for every
   spec that cannot (surfaced by ``--explain``).
2. **Compilation** (:class:`PlanCompiler`): a :class:`PathPlan` — the
   backend-neutral IR of one join path — becomes a
   :class:`CompiledStatement` (SQL text + bound parameters).  All physical
   naming goes through a :class:`SQLiteDialect`, so the same compiler emits
   plain single-file statements and partitioned ones
   (:class:`ShardedSQLiteDialect` names partitions and insertion-order
   terms; every slot becomes a ``UNION ALL`` over its partitions inside a
   semi-join reduction chain, see :meth:`PlanCompiler.reduction_chain`)
   without the plans changing — one statement per plan under either.  A
   statement's text depends on its plan's shape and not on its keys under
   both dialects, and :meth:`PlanCompiler.compile_path` keeps one text per
   shape.
3. **Execution** stays in the backend: it owns connections, decodes result
   rows and applies the plan's post filters.

The relation-level CRUD statements and the ``_repro_*`` side-table
statements (persisted index postings, result cache, metadata) live here too,
so a backend contains **no inline SQL text building** — the compiler layer
is the single place SQL comes from, which is what makes sharding (and a
future Postgres dialect) a dialect/executor concern instead of a rewrite.
"""

from __future__ import annotations

import functools
import json
import math
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Mapping, Sequence

from repro.db.schema import ForeignKey, Schema, Table

#: Above this many candidate keys per position the key-set predicate is
#: applied in Python instead of SQL.  Under the single-file dialect every key
#: is one bound parameter (the list padded to a power of two, so at most
#: 512), and the cap descends from SQLite's per-statement limit
#: (SQLITE_MAX_VARIABLE_NUMBER).  The sharded dialect binds a whole key set
#: as one JSON parameter, so no variable count limits it; it keeps the same
#: cap so that both dialects split a plan's filters into inline and post sets
#: identically — one planner, rows and LIMIT pushdown decided the same way on
#: every backend.
MAX_INLINE_KEYS = 500

#: Budget for *all* inline keys of one statement, across positions (and, for
#: a batched statement, across all of its members).  Padding at most doubles
#: a literal list, so a single-file statement binds fewer than 1 800 keys:
#: within the 32 766 variables SQLite allows since 3.32 (2020), not the 999
#: before.  A partitioned statement repeats a key set with no JSON spelling
#: as a padded literal list in every partition arm: under ``1 800 × 10``
#: partitions (SQLite's ATTACH limit), still under 32 766.
MAX_TOTAL_INLINE_KEYS = 900


def quote_identifier(identifier: str) -> str:
    """Quote an identifier for SQLite (tables/attributes are data here)."""
    return '"' + identifier.replace('"', '""') + '"'


# -- the IR -------------------------------------------------------------------


@dataclass(frozen=True)
class CompiledStatement:
    """One executable statement: SQL text plus its bound parameters."""

    sql: str
    params: tuple[Any, ...] = ()


@dataclass(frozen=True)
class PathPlan:
    """The plan of one join path with resolved keyword selections.

    ``inline_filters`` hold the per-position key sets small enough to bind as
    SQL parameters (already repr-sorted, so compiled statements are
    deterministic); ``post_filters`` hold the oversized sets the executor
    applies in Python after the fetch.  ``limit`` is the per-path top-k cap —
    the compiler only pushes it down to SQL when no post filter exists
    (otherwise SQL could truncate rows the post filter would have kept).
    ``scatter_position`` is a physical hint for partitioned dialects: the
    *seed* slot, where the semi-join reduction chain starts (any slot is
    correct — the chain only drops rows no result network contains; the
    sharded backend picks the most selective one, which bounds every other
    slot's reduced relation).  Unpartitioned dialects ignore it, and it never
    affects the statement's ORDER BY, so the row order is identical for every
    choice.  Slots join in path order; SQLite's planner orders the inner
    joins itself.
    """

    path: tuple[str, ...]
    edges: tuple[ForeignKey, ...]
    inline_filters: tuple[tuple[int, tuple[Any, ...]], ...]
    post_filters: tuple[tuple[int, frozenset], ...]
    limit: int | None
    scatter_position: int = 0

    @property
    def filtered_positions(self) -> frozenset[int]:
        """Positions with *any* selection filter — they sort by key repr."""
        return frozenset(
            position for position, _keys in self.inline_filters
        ) | frozenset(position for position, _keys in self.post_filters)

    @property
    def sql_limit(self) -> int | None:
        """The LIMIT the statement may carry (None when post-filtering)."""
        return self.limit if not self.post_filters else None

    def keeps(self, network: Sequence) -> bool:
        """Apply the post filters to one decoded result network."""
        return all(
            network[position].key in keys for position, keys in self.post_filters
        )


#: One member of a tagged UNION ALL batch: ``(spec index, plan)``.
UnionMember = tuple[int, PathPlan]


@dataclass(frozen=True)
class BatchPlan:
    """How one ``execute_paths_batched`` call splits across statements.

    ``members`` share a single tagged ``UNION ALL`` statement; every spec in
    ``fallbacks`` executes through its own :class:`PathPlan` (with a fresh
    parameter budget, which is what lets it inline what the shared statement
    could not), annotated with the human-readable reason it left the batch.
    """

    members: tuple[UnionMember, ...]
    fallbacks: tuple[tuple[int, PathPlan, str], ...]


# -- planning -----------------------------------------------------------------


def _split_key_filters(
    key_filters: Mapping[int, set],
    max_inline_keys: int,
    inline_budget: int,
) -> tuple[tuple[tuple[int, tuple], ...], tuple[tuple[int, frozenset], ...], int]:
    """Split resolved filters into inline/post sets under the budget.

    Returns ``(inline, post, budget_left)``.  Positions are visited in
    ascending order so parameter order (and hence the compiled SQL) is
    deterministic for equal plans.
    """
    inline: list[tuple[int, tuple]] = []
    post: list[tuple[int, frozenset]] = []
    for position in sorted(key_filters):
        keys = key_filters[position]
        if len(keys) > min(max_inline_keys, inline_budget):
            post.append((position, frozenset(keys)))
            continue
        inline_budget -= len(keys)
        inline.append((position, tuple(sorted(keys, key=repr))))
    return tuple(inline), tuple(post), inline_budget


def plan_path(
    path: Sequence[str],
    edges: Sequence[ForeignKey],
    key_filters: Mapping[int, set],
    limit: int | None,
    *,
    max_inline_keys: int | None = None,
    inline_budget: int | None = None,
) -> PathPlan:
    """Plan one join path (validated, with selections already resolved)."""
    if max_inline_keys is None:
        max_inline_keys = MAX_INLINE_KEYS
    if inline_budget is None:
        inline_budget = MAX_TOTAL_INLINE_KEYS
    inline, post, _left = _split_key_filters(key_filters, max_inline_keys, inline_budget)
    return PathPlan(
        path=tuple(path),
        edges=tuple(edges),
        inline_filters=inline,
        post_filters=post,
        limit=limit,
    )


def plan_batch(
    resolved: Sequence[tuple[int, Sequence[str], Sequence[ForeignKey], Mapping[int, set]]],
    limit: int | None,
    *,
    max_inline_keys: int | None = None,
    inline_budget: int | None = None,
) -> BatchPlan:
    """Split resolved specs between one shared UNION ALL and solo fallbacks.

    ``resolved`` holds ``(spec index, path, edges, key_filters)`` for every
    spec that survived validation and is not provably empty.  A spec leaves
    the shared statement when one of its key sets exceeds the per-predicate
    inline cap, or — if the surviving specs together blow the statement-wide
    parameter budget — when it is evicted as one of the most *expensive*
    members (the most inline keys; ties evict the later spec first).  Either
    way it gets its own :class:`PathPlan` (fresh budget — solo statements can
    post-filter, shared ones cannot) and a reason string for ``--explain``.
    """
    if max_inline_keys is None:
        max_inline_keys = MAX_INLINE_KEYS
    if inline_budget is None:
        inline_budget = MAX_TOTAL_INLINE_KEYS
    members: list[UnionMember] = []
    fallbacks: list[tuple[int, PathPlan, str]] = []
    sized: list[tuple[int, Sequence[str], Sequence[ForeignKey], Mapping[int, set], int]] = []
    for index, path, edges, key_filters in resolved:
        inline_keys = sum(len(keys) for keys in key_filters.values())
        oversized = any(len(keys) > max_inline_keys for keys in key_filters.values())
        if oversized:
            solo = plan_path(
                path,
                edges,
                key_filters,
                limit,
                max_inline_keys=max_inline_keys,
                inline_budget=inline_budget,
            )
            reason = f"selection key set exceeds the {max_inline_keys}-key inline cap"
            fallbacks.append((index, solo, reason))
            continue
        sized.append((index, path, edges, key_filters, inline_keys))
    total_keys = sum(entry[4] for entry in sized)
    evicted: dict[int, str] = {}
    if total_keys > inline_budget:
        # Drop the most expensive members first until the rest fit the
        # budget, so the cheap (and typically best-ranked) specs keep sharing
        # one statement.  Keyless members consume no budget: never evicted.
        costed = sorted(
            (
                (inline_keys, index)
                for index, _path, _edges, _filters, inline_keys in sized
                if inline_keys
            ),
            reverse=True,
        )
        remaining = total_keys
        for inline_keys, index in costed:
            if remaining <= inline_budget:
                break
            remaining -= inline_keys
            evicted[index] = (
                f"UNION ALL parameter budget exhausted "
                f"({total_keys} keys over the {inline_budget}-key budget); "
                f"evicted most expensive first ({inline_keys} inline keys)"
            )
    for index, path, edges, key_filters, inline_keys in sized:
        if index in evicted:
            solo = plan_path(
                path,
                edges,
                key_filters,
                limit,
                max_inline_keys=max_inline_keys,
                inline_budget=inline_budget,
            )
            fallbacks.append((index, solo, evicted[index]))
            continue
        members.append(
            (
                index,
                plan_path(
                    path,
                    edges,
                    key_filters,
                    limit,
                    max_inline_keys=max_inline_keys,
                    inline_budget=inline_keys or 1,  # already fits: inline all
                ),
            )
        )
    return BatchPlan(members=tuple(members), fallbacks=tuple(fallbacks))


# -- dialects -----------------------------------------------------------------


class SQLiteDialect:
    """Physical naming + ordering hooks for a single-file SQLite store."""

    name = "sqlite"

    def quote(self, identifier: str) -> str:
        return quote_identifier(identifier)

    #: Partition count (``None``: one unpartitioned store, plans join their
    #: tables directly).
    shards: int | None = None

    def table_source(self, table_name: str) -> str:
        """The FROM/JOIN source of a logical table (the sharded dialect's is
        the all-partitions union, for relation-level statements)."""
        return self.quote(table_name)

    def insertion_order_term(self, alias: str, table_name: str) -> str:
        """The expression reproducing insertion order for one alias."""
        return f"{alias}.rowid"

    def sort_key_term(self, expression: str) -> str:
        """Python ``repr()`` ordering of one key expression (see backend)."""
        return f"repro_repr({expression})"

    def key_set_binding(self, keys: Sequence[Any]) -> tuple[str, tuple[Any, ...]]:
        """``(right-hand side of IN, bound parameters)`` of one key set.

        The literal list is padded to the next power of two by repeating the
        last key: ``x IN (a, b, b)`` selects exactly what ``x IN (a, b)``
        does, and the text depends on log₂ of the set's size, not on its
        size, so a statement's text is a function of its plan's shape and
        ``sqlite3``'s per-connection statement cache serves it again — a
        first-seen single-file text runs in about 2.6× the time of a
        repeated one (``docs/performance.md`` § PR 25).  Padding costs no
        encoding, which is why this dialect pads where the sharded one binds
        JSON.
        """
        padded = _pad_to_power_of_two(keys)
        return _in_list(len(padded)), padded


class ShardedSQLiteDialect(SQLiteDialect):
    """A hash-partitioned store: one logical table, ``shards`` partitions.

    Every logical table is partitioned across ``shards`` attached databases
    (``shard0.. shardN-1``).  A join plan compiled under this dialect is
    **one** statement: every slot reads the ``UNION ALL`` of its partitions
    inside the semi-join chain of :meth:`PlanCompiler.reduction_chain`, and
    the statement's own ``ORDER BY … LIMIT ?`` is the global order; the plain
    all-partitions subselect serves relation-level statements.  Insertion
    order comes from the explicit ``_rowseq`` column partitions carry (a view
    over attached files has no usable ``rowid``), which preserves the
    unsharded backend's global insertion order exactly.
    """

    name = "sqlite-sharded"

    #: The literal column every seed-slot arm projects: which partition the
    #: row was read from (``StreamedExecution.shard_rows`` counts it).
    PARTITION_COLUMN = "_partition"

    def __init__(self, shards: int):
        if shards < 1:
            raise ValueError("shards must be positive")
        self.shards = shards

    def shard_schema(self, shard: int) -> str:
        """The ATTACH alias of one shard database."""
        return f"shard{shard}"

    def partition_source(self, table_name: str, shard: int) -> str:
        """One shard's partition of a logical table."""
        return f"{self.quote(self.shard_schema(shard))}.{self.quote(table_name)}"

    def table_source(self, table_name: str) -> str:
        """All partitions of a logical table as one FROM-able subselect."""
        arms = " UNION ALL ".join(
            f"SELECT * FROM {self.partition_source(table_name, shard)}"
            for shard in range(self.shards)
        )
        return f"({arms})"

    def insertion_order_term(self, alias: str, table_name: str) -> str:
        return f'{alias}.{self.quote("_rowseq")}'

    #: The right-hand side of ``IN`` binding a whole key set as one parameter.
    JSON_KEY_SET = "(SELECT +value FROM json_each(?))"

    def key_set_binding(self, keys: Sequence[Any]) -> tuple[str, tuple[Any, ...]]:
        """The key set as **one** JSON-array parameter read by ``json_each``.

        A partitioned statement repeats a slot's key set once per partition
        arm and takes ≈ 1 ms to prepare, so its text must not change with the
        keys: bound this way it is a function of the plan's *shape* alone and
        ``sqlite3``'s per-connection statement cache serves it again.
        ``json_each`` hands back INTEGER, REAL and TEXT values exactly as a
        direct binding would, and the unary ``+`` leaves them without a
        column affinity, as the values of a literal list are, so rows cannot
        differ; a key set holding anything else (:func:`_json_key_set`) keeps
        the padded literal list of the single-file dialect.
        """
        bound = _json_key_set(keys)
        if bound is None:
            return super().key_set_binding(keys)
        return self.JSON_KEY_SET, (bound,)


def _json_key_set(keys: Sequence[Any]) -> str | None:
    """``keys`` as a JSON array SQLite decodes to the very values a direct
    binding stores, or ``None`` when some key has no such spelling.

    Exact types only: ``bool`` binds as an int but spells ``true``, ``bytes``
    and subclasses have no JSON form of their own, an int outside 64 bits or
    a non-finite float has no SQLite value, and SQLite's JSON strings end at
    a NUL.
    """
    for key in keys:
        kind = type(key)
        if kind is int:
            if not -(2**63) <= key < 2**63:
                return None
        elif kind is str:
            if "\x00" in key:
                return None
        elif kind is not float or not math.isfinite(key):
            return None
    return _encode_key_set(keys)


#: One encoder, built once (``json.dumps`` with non-default arguments builds a
#: ``JSONEncoder`` per call).  Non-ASCII text stays raw UTF-8, so no surrogate
#: pair is left for SQLite's JSON reader to decode.
_encode_key_set = json.JSONEncoder(ensure_ascii=False, separators=(",", ":")).encode


def _pad_to_power_of_two(keys: Sequence[Any]) -> tuple[Any, ...]:
    """``keys`` with the last one repeated up to the next power of two (an
    empty set stays empty)."""
    count = len(keys)
    if count < 2:
        return tuple(keys)
    return (*keys, *(keys[-1],) * ((1 << (count - 1).bit_length()) - count))


@functools.cache
def _in_list(width: int) -> str:
    """``(?, ?, …)`` with ``width`` parameters — one string per padded width,
    of which there are at most a few dozen."""
    return f"({', '.join('?' * width)})"


# -- compilation --------------------------------------------------------------


#: Per filtered slot: ``(right-hand side of IN, bound parameters)``, as
#: :meth:`SQLiteDialect.key_set_binding` spells the slot's key set.
KeySetBindings = dict[int, tuple[str, tuple[Any, ...]]]


class PlanCompiler:
    """Compiles :class:`PathPlan` IR into SQL under one dialect.

    :meth:`compile_path` keeps one text per plan *shape* (see
    :meth:`shape_of`): a bounded, thread-safe LRU of ``shape → (text, binding
    order)``, where the binding order is the filtered slot behind each run
    of key-set parameters, recorded while the text was built.  A hit only
    lays the plan's key sets (and its limit) out in that order.
    """

    #: Plan shapes whose text :meth:`compile_path` keeps.  The bundled
    #: workloads compile a few hundred shapes; a text is a few KB at most.
    TEXT_MEMO_SIZE = 1024

    def __init__(self, schema: Schema, dialect: SQLiteDialect):
        self.schema = schema
        self.dialect = dialect
        self._texts: OrderedDict[tuple, tuple[str, tuple[int, ...]]] = OrderedDict()
        self._texts_lock = threading.Lock()

    # -- schema lookups ------------------------------------------------------

    def columns(self, table_name: str) -> list[str]:
        return list(self.schema.table(table_name).attribute_names)

    def primary_key(self, table_name: str) -> str:
        return self.schema.table(table_name).primary_key

    # -- join-path pieces ----------------------------------------------------

    def join_lines(
        self, plan: PathPlan, sources: Sequence[str] | None = None
    ) -> list[str]:
        """``FROM``/``JOIN`` clauses of one join path (aliases ``t0..tN``).

        Slots are introduced in path order, each joined to its predecessor
        over ``plan.edges[slot - 1]``; the physical join order is SQLite's
        choice (its planner reorders inner joins).  ``sources`` overrides the
        per-slot table sources (the reduction chain's ``r<slot>`` relations).
        """
        dialect = self.dialect
        if sources is None:
            sources = [dialect.table_source(name) for name in plan.path]
        lines = [f"FROM {sources[0]} AS t0"]
        for slot in range(1, len(plan.path)):
            bound_attr, probe_attr = _edge_attrs(
                plan.edges[slot - 1], plan.path[slot - 1], plan.path[slot]
            )
            lines.append(
                f"JOIN {sources[slot]} AS t{slot} "
                f"ON t{slot - 1}.{dialect.quote(bound_attr)} "
                f"= t{slot}.{dialect.quote(probe_attr)}"
            )
        return lines

    def reduction_chain(
        self, plan: PathPlan, bindings: KeySetBindings
    ) -> tuple[list[str], list[int]]:
        """``WITH`` entries + binding order reducing every slot of a partitioned plan.

        ``r<slot>`` holds the rows of ``slot`` that can still be part of one
        of the plan's result networks, as the ``UNION ALL`` of one arm per
        partition.  The chain starts at the seed slot (``scatter_position``)
        — filtered by its key set only, each arm also projecting its
        partition number — and walks outward: every later slot's arms are
        indexed probes ``probe IN (SELECT bound FROM r<anchor>)`` against its
        already-reduced neighbour.  Every arm of a filtered slot carries the
        slot's *whole* key set (one predicate, bound once per arm): a key is
        probed in every partition instead of being routed to its own, which
        keeps the text a function of the plan's shape alone.  Sound by
        induction from the seed slot: a network's tuple there is in the first
        relation, and each further tuple joins its neighbour and passes its
        own key filter, so it survives its semi-join; the final join over the
        ``r``-relations re-applies every FK predicate, so the statement
        returns exactly the plan's rows — from ``slots × shards`` single-table
        probes where a join against all-shards unions is distributed by
        SQLite's flattener over ``shards ** slots`` join arms.
        """
        dialect = self.dialect
        seed = plan.scatter_position
        partition = dialect.quote(dialect.PARTITION_COLUMN)
        entries: list[str] = []
        order: list[int] = []
        for slot in [*range(seed, len(plan.path)), *range(seed - 1, -1, -1)]:
            table_name = plan.path[slot]
            predicates: list[str] = []
            if slot != seed:
                anchor = slot - 1 if slot > seed else slot + 1
                bound_attr, probe_attr = _edge_attrs(
                    plan.edges[min(slot, anchor)], plan.path[anchor], table_name
                )
                predicates.append(
                    f"{dialect.quote(probe_attr)} IN "
                    f"(SELECT {dialect.quote(bound_attr)} FROM r{anchor})"
                )
            binding = bindings.get(slot)
            if binding is not None:
                pk = dialect.quote(self.primary_key(table_name))
                predicates.append(f"{pk} IN {binding[0]}")
            where = " WHERE " + " AND ".join(predicates) if predicates else ""
            arms: list[str] = []
            for shard in range(dialect.shards):
                columns = f"*, {shard} AS {partition}" if slot == seed else "*"
                source = dialect.partition_source(table_name, shard)
                arms.append(f"SELECT {columns} FROM {source}{where}")
                if binding is not None:
                    order.append(slot)
            entries.append(
                f"r{slot} AS MATERIALIZED (\n" + "\nUNION ALL\n".join(arms) + "\n)"
            )
        return entries, order

    def select_lines(
        self, plan: PathPlan, select_list: Sequence[str], bindings: KeySetBindings
    ) -> tuple[list[str], list[int]]:
        """``[WITH …] SELECT … FROM … JOIN … [WHERE …]`` of one plan + the
        filtered slot of each key-set parameter run, in text order.

        An unpartitioned plan joins its tables directly under the inline key
        predicates; a partitioned one joins its reduction chain, whose
        entries already applied them.
        """
        select = "SELECT " + ", ".join(select_list)
        if self.dialect.shards is not None:
            entries, order = self.reduction_chain(plan, bindings)
            sources = [f"r{slot}" for slot in range(len(plan.path))]
            chain = "WITH " + ",\n".join(entries)
            return [chain, select, *self.join_lines(plan, sources)], order
        lines = [select, *self.join_lines(plan)]
        predicates = [
            f"t{position}.{self.dialect.quote(self.primary_key(plan.path[position]))}"
            f" IN {in_list}"
            for position, (in_list, _params) in bindings.items()
        ]
        if predicates:
            lines.append("WHERE " + " AND ".join(predicates))
        return lines, list(bindings)

    def key_set_bindings(self, plan: PathPlan) -> KeySetBindings:
        """Every inline key set as the dialect binds it, by slot."""
        binding = self.dialect.key_set_binding
        return {position: binding(keys) for position, keys in plan.inline_filters}

    @staticmethod
    def lay_out(order: Sequence[int], bindings: KeySetBindings) -> list[Any]:
        """The statement's key-set parameters, one run per entry of ``order``."""
        return [value for slot in order for value in bindings[slot][1]]

    def order_terms(self, plan: PathPlan) -> list[str]:
        """Per-slot ORDER BY terms reproducing the in-memory nested-loop order.

        The base table scans in insertion order unless selected (then keys
        are sorted by ``repr()``), and every join probe returns matches
        sorted by ``repr()`` — so ``limit`` truncates to the same rows on
        every backend and every dialect.  The batched compiler (and the
        sharded gather step) reuse these terms verbatim, which is what keeps
        batched, sharded and sequential row order in lockstep.
        """
        filtered = plan.filtered_positions
        terms = []
        for i, table_name in enumerate(plan.path):
            if i == 0 and 0 not in filtered:
                terms.append(self.dialect.insertion_order_term("t0", table_name))
            else:
                pk = self.dialect.quote(self.primary_key(table_name))
                terms.append(self.dialect.sort_key_term(f"t{i}.{pk}"))
        return terms

    # -- whole statements ----------------------------------------------------

    def data_columns(self, plan: PathPlan) -> list[str]:
        """Every slot's columns in path order — what a result row decodes from."""
        return [
            f"t{i}.{self.dialect.quote(column)}"
            for i, table_name in enumerate(plan.path)
            for column in self.columns(table_name)
        ]

    def partition_columns(self, plan: PathPlan) -> list[str]:
        """The trailing partition column of a partitioned plan's rows (the
        seed slot's; empty when unpartitioned)."""
        dialect = self.dialect
        if dialect.shards is None:
            return []
        return [f"t{plan.scatter_position}.{dialect.quote(dialect.PARTITION_COLUMN)}"]

    def shape_of(self, plan: PathPlan, bindings: KeySetBindings) -> tuple:
        """Everything a plan's statement text depends on, and nothing else:
        path, edges, seed slot (partitioned plans only), each inline slot's
        ``IN`` spelling, whether slot 0 is filtered (its ORDER BY term) and
        whether a ``LIMIT`` is bound.  A post filter reaches the text only
        through those last two."""
        return (
            plan.path,
            plan.edges,
            plan.scatter_position if self.dialect.shards is not None else None,
            tuple((position, in_list) for position, (in_list, _p) in bindings.items()),
            0 in plan.filtered_positions,
            plan.sql_limit is not None,
        )

    def compile_path(self, plan: PathPlan) -> CompiledStatement:
        """One join path as a single SELECT, its text memoised per shape."""
        bindings = self.key_set_bindings(plan)
        shape = self.shape_of(plan, bindings)
        with self._texts_lock:
            entry = self._texts.get(shape)
            if entry is not None:
                self._texts.move_to_end(shape)
        if entry is None:
            select_list = [*self.data_columns(plan), *self.partition_columns(plan)]
            lines, order = self.select_lines(plan, select_list, bindings)
            lines.append("ORDER BY " + ", ".join(self.order_terms(plan)))
            if plan.sql_limit is not None:
                lines.append("LIMIT ?")
            entry = ("\n".join(lines), tuple(order))
            with self._texts_lock:
                self._texts[shape] = entry
                if len(self._texts) > self.TEXT_MEMO_SIZE:
                    self._texts.popitem(last=False)
        sql, order = entry
        params = self.lay_out(order, bindings)
        if plan.sql_limit is not None:
            params.append(plan.sql_limit)
        return CompiledStatement(sql, tuple(params))

    def union_widths(self, members: Sequence[UnionMember]) -> tuple[int, int]:
        """``(order-key width, data width)`` all members NULL-pad to."""
        ord_width = max(len(plan.path) for _i, plan in members)
        data_width = max(
            sum(len(self.columns(name)) for name in plan.path)
            for _i, plan in members
        )
        return ord_width, data_width

    def compile_union(self, members: Sequence[UnionMember]) -> CompiledStatement:
        """Many join paths as one tagged ``UNION ALL`` statement.

        Each member becomes one compound-select arm ``SELECT <spec index>,
        <order keys>, <columns> FROM ... [ORDER BY ... LIMIT ?]``,
        NULL-padded to a common width; the leading discriminator column
        attributes every result row back to its spec, and the member-local
        ORDER BY/LIMIT (plus a global ORDER BY over discriminator + order
        keys) reproduces exactly the rows, order and truncation of a
        sequential per-path statement.
        """
        ord_width, data_width = self.union_widths(members)
        params: list[Any] = []
        selects: list[str] = []
        for index, plan in members:
            order_terms = self.order_terms(plan)
            select_list = [f"{index} AS __b"]
            select_list.extend(
                f"{term} AS __o{i}" for i, term in enumerate(order_terms)
            )
            select_list.extend(
                f"NULL AS __o{i}" for i in range(len(order_terms), ord_width)
            )
            columns = self.data_columns(plan)
            select_list.extend(columns)
            select_list.extend("NULL" for _ in range(len(columns), data_width))
            select_list.extend(self.partition_columns(plan))
            bindings = self.key_set_bindings(plan)
            lines, order = self.select_lines(plan, select_list, bindings)
            params.extend(self.lay_out(order, bindings))
            if plan.sql_limit is not None:
                # The per-spec top-k cap must truncate in this member's own
                # order, inside the member (a compound LIMIT would be global).
                lines.append("ORDER BY " + ", ".join(order_terms))
                lines.append("LIMIT ?")
                params.append(plan.sql_limit)
            if plan.sql_limit is not None or lines[0].startswith("WITH "):
                # Neither a LIMIT nor a WITH clause may sit bare in a
                # compound-select arm: scope them in a subselect.
                selects.append("SELECT * FROM (\n" + "\n".join(lines) + "\n)")
            else:
                selects.append("\n".join(lines))
        # Global order: discriminator first, then each member's own order
        # keys (ordinals 2..ord_width+1); members never compare against each
        # other, so the mixed rowid/repr types across members are harmless.
        statement = "\nUNION ALL\n".join(selects) + "\nORDER BY " + ", ".join(
            str(ordinal) for ordinal in range(1, ord_width + 2)
        )
        return CompiledStatement(statement, tuple(params))


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


# -- relation-level statements ------------------------------------------------


def create_table_ddl(
    dialect: SQLiteDialect,
    table: Table,
    *,
    source: str | None = None,
    extra_columns: Sequence[str] = (),
) -> str:
    """``CREATE TABLE IF NOT EXISTS`` for one logical table (or partition).

    ``extra_columns`` are raw column definitions appended after the schema
    attributes (the sharded backend adds its ``_rowseq`` ordering column).
    """
    source = source or dialect.table_source(table.name)
    columns = [dialect.quote(name) for name in table.attribute_names]
    columns.extend(extra_columns)
    return (
        f"CREATE TABLE IF NOT EXISTS {source} "
        f"({', '.join(columns)}, PRIMARY KEY ({dialect.quote(table.primary_key)}))"
    )


def create_index_ddl(
    dialect: SQLiteDialect,
    table: Table,
    attribute: str,
    *,
    source: str | None = None,
    schema_prefix: str = "",
) -> str:
    """``CREATE INDEX IF NOT EXISTS`` on one attribute.

    ``schema_prefix`` places the index in an attached database (SQLite
    indexes live in the schema of their table; the index *name* carries the
    prefix, the table reference must be schema-less).
    """
    index_name = dialect.quote(f"ix_{table.name}_{attribute}")
    if schema_prefix:
        index_name = f"{dialect.quote(schema_prefix)}.{index_name}"
    source = source or dialect.quote(table.name)
    return (
        f"CREATE INDEX IF NOT EXISTS {index_name} "
        f"ON {source} ({dialect.quote(attribute)})"
    )


def insert_sql(
    dialect: SQLiteDialect,
    table: Table,
    *,
    source: str | None = None,
    extra_columns: Sequence[str] = (),
) -> str:
    """Positional ``INSERT`` over the schema attributes (+ extras)."""
    source = source or dialect.table_source(table.name)
    columns = [dialect.quote(name) for name in table.attribute_names]
    columns.extend(dialect.quote(name) for name in extra_columns)
    placeholders = ", ".join("?" for _ in columns)
    return f"INSERT INTO {source} ({', '.join(columns)}) VALUES ({placeholders})"


def select_where_sql(
    dialect: SQLiteDialect,
    table: Table,
    attribute: str,
    *,
    source: str | None = None,
) -> str:
    """All schema columns of rows with ``attribute IS ?`` (point query)."""
    source = source or dialect.table_source(table.name)
    select_list = ", ".join(dialect.quote(name) for name in table.attribute_names)
    return (
        f"SELECT {select_list} FROM {source} "
        f"WHERE {dialect.quote(attribute)} IS ?"
    )


def scan_sql(
    dialect: SQLiteDialect,
    table: Table,
    *,
    source: str | None = None,
    keys_only: bool = False,
) -> str:
    """Full scan (all columns or just the primary key) in insertion order."""
    source = source or dialect.table_source(table.name)
    names = [table.primary_key] if keys_only else list(table.attribute_names)
    select_list = ", ".join(f"t0.{dialect.quote(name)}" for name in names)
    order = dialect.insertion_order_term("t0", table.name)
    return f"SELECT {select_list} FROM {source} AS t0 ORDER BY {order}"


def count_sql(
    dialect: SQLiteDialect, table: Table, *, source: str | None = None
) -> str:
    source = source or dialect.table_source(table.name)
    return f"SELECT COUNT(*) FROM {source}"


def table_info_sql(table_name: str, *, schema_prefix: str = "") -> str:
    """``PRAGMA table_info`` of one physical table (schema verification).

    ``schema_prefix`` targets a table inside an attached database (the
    pragma itself is what gets qualified: ``PRAGMA "shard0".table_info``).
    """
    prefix = f"{quote_identifier(schema_prefix)}." if schema_prefix else ""
    return f"PRAGMA {prefix}table_info({quote_identifier(table_name)})"


def attach_sql(alias: str) -> str:
    """``ATTACH DATABASE ? AS <alias>`` (the file path binds as a parameter)."""
    return f"ATTACH DATABASE ? AS {quote_identifier(alias)}"


def max_column_sql(column: str, source: str) -> str:
    """``SELECT MAX(column)`` of one physical table (sequence resumption)."""
    return f"SELECT MAX({quote_identifier(column)}) FROM {source}"


#: Does the linked SQLite have the JSON1 table-valued function that
#: :meth:`ShardedSQLiteDialect.key_set_binding` binds key sets through?
JSON_EACH_PROBE_SQL = "SELECT value FROM json_each('[1]')"

#: Does a table of this name exist in the main database?  (Backend-mixup
#: guard: a plain store opened through the sharded backend must fail fast.)
TABLE_EXISTS_SQL = "SELECT name FROM sqlite_master WHERE type = 'table' AND name = ?"


# -- side-table statements ----------------------------------------------------


class SideTableSQL:
    """Every ``_repro_*`` side-table statement, in one place.

    The side tables persist derived state next to the rows: backend metadata
    (``_repro_meta``), inverted-index postings (``_repro_index_*``), planner
    statistics (``_repro_stats_*``) and the cross-session result cache
    (``_repro_result_cache``).  Postings keys are
    stored as JSON arrays; every index/cache row carries a ``schema_key`` so
    several datasets coexisting in one file keep independent persisted state
    instead of overwriting each other's on every alternation.
    """

    META_DDL = (
        "CREATE TABLE IF NOT EXISTS _repro_meta (key TEXT PRIMARY KEY, value TEXT)"
    )
    META_UPSERT = "INSERT OR REPLACE INTO _repro_meta (key, value) VALUES (?, ?)"
    META_SELECT = "SELECT value FROM _repro_meta WHERE key = ?"
    META_SELECT_ALL = "SELECT key, value FROM _repro_meta ORDER BY key"

    #: Suffixes of the index side tables (used by the drop/replace loops).
    INDEX_TABLE_NAMES = ("postings", "attr_stats", "table_counts", "schema_terms", "meta")

    INDEX_TABLES_DDL = (
        "CREATE TABLE IF NOT EXISTS _repro_index_meta ("
        "schema_key TEXT, key TEXT, value TEXT, PRIMARY KEY (schema_key, key))",
        "CREATE TABLE IF NOT EXISTS _repro_index_postings ("
        "schema_key TEXT, term TEXT, tbl TEXT, attr TEXT, occurrences INTEGER, keys TEXT)",
        "CREATE TABLE IF NOT EXISTS _repro_index_attr_stats ("
        "schema_key TEXT, tbl TEXT, attr TEXT, total_tokens INTEGER, cell_count INTEGER)",
        "CREATE TABLE IF NOT EXISTS _repro_index_table_counts ("
        "schema_key TEXT, tbl TEXT, tuples INTEGER, PRIMARY KEY (schema_key, tbl))",
        "CREATE TABLE IF NOT EXISTS _repro_index_schema_terms ("
        "schema_key TEXT, term TEXT, tbl TEXT)",
    )

    INDEX_META_SELECT = (
        "SELECT key, value FROM _repro_index_meta WHERE schema_key = ?"
    )
    INDEX_POSTINGS_SELECT = (
        "SELECT term, tbl, attr, occurrences, keys "
        "FROM _repro_index_postings WHERE schema_key = ?"
    )
    INDEX_ATTR_STATS_SELECT = (
        "SELECT tbl, attr, total_tokens, cell_count "
        "FROM _repro_index_attr_stats WHERE schema_key = ?"
    )
    INDEX_TABLE_COUNTS_SELECT = (
        "SELECT tbl, tuples FROM _repro_index_table_counts WHERE schema_key = ?"
    )
    INDEX_SCHEMA_TERMS_SELECT = (
        "SELECT term, tbl FROM _repro_index_schema_terms WHERE schema_key = ?"
    )

    INDEX_POSTINGS_INSERT = (
        "INSERT INTO _repro_index_postings "
        "(schema_key, term, tbl, attr, occurrences, keys) VALUES (?, ?, ?, ?, ?, ?)"
    )
    INDEX_ATTR_STATS_INSERT = (
        "INSERT INTO _repro_index_attr_stats "
        "(schema_key, tbl, attr, total_tokens, cell_count) VALUES (?, ?, ?, ?, ?)"
    )
    INDEX_TABLE_COUNTS_INSERT = (
        "INSERT INTO _repro_index_table_counts (schema_key, tbl, tuples) "
        "VALUES (?, ?, ?)"
    )
    INDEX_SCHEMA_TERMS_INSERT = (
        "INSERT INTO _repro_index_schema_terms (schema_key, term, tbl) "
        "VALUES (?, ?, ?)"
    )
    INDEX_META_INSERT = (
        "INSERT INTO _repro_index_meta (schema_key, key, value) VALUES (?, ?, ?)"
    )

    @staticmethod
    def index_delete(name: str) -> str:
        """Delete one schema's rows from one index side table."""
        return f"DELETE FROM _repro_index_{name} WHERE schema_key = ?"

    @staticmethod
    def index_drop(name: str) -> str:
        return f"DROP TABLE IF EXISTS _repro_index_{name}"

    #: Suffixes of the planner-statistics side tables (drop/replace loops).
    STATS_TABLE_NAMES = ("tables", "attrs", "meta")

    STATS_TABLES_DDL = (
        "CREATE TABLE IF NOT EXISTS _repro_stats_meta ("
        "schema_key TEXT, key TEXT, value TEXT, PRIMARY KEY (schema_key, key))",
        "CREATE TABLE IF NOT EXISTS _repro_stats_tables ("
        "schema_key TEXT, tbl TEXT, tuples INTEGER, PRIMARY KEY (schema_key, tbl))",
        "CREATE TABLE IF NOT EXISTS _repro_stats_attrs ("
        "schema_key TEXT, tbl TEXT, attr TEXT, distinct_values INTEGER, "
        "max_frequency INTEGER, PRIMARY KEY (schema_key, tbl, attr))",
    )

    STATS_META_SELECT = (
        "SELECT key, value FROM _repro_stats_meta WHERE schema_key = ?"
    )
    STATS_TABLES_SELECT = (
        "SELECT tbl, tuples FROM _repro_stats_tables WHERE schema_key = ?"
    )
    STATS_ATTRS_SELECT = (
        "SELECT tbl, attr, distinct_values, max_frequency "
        "FROM _repro_stats_attrs WHERE schema_key = ?"
    )

    STATS_META_INSERT = (
        "INSERT INTO _repro_stats_meta (schema_key, key, value) VALUES (?, ?, ?)"
    )
    STATS_TABLES_INSERT = (
        "INSERT INTO _repro_stats_tables (schema_key, tbl, tuples) VALUES (?, ?, ?)"
    )
    STATS_ATTRS_INSERT = (
        "INSERT INTO _repro_stats_attrs "
        "(schema_key, tbl, attr, distinct_values, max_frequency) "
        "VALUES (?, ?, ?, ?, ?)"
    )

    @staticmethod
    def stats_delete(name: str) -> str:
        """Delete one schema's rows from one statistics side table."""
        return f"DELETE FROM _repro_stats_{name} WHERE schema_key = ?"

    @staticmethod
    def stats_drop(name: str) -> str:
        return f"DROP TABLE IF EXISTS _repro_stats_{name}"

    RESULT_CACHE_DDL = (
        "CREATE TABLE IF NOT EXISTS _repro_result_cache ("
        "schema_key TEXT, fingerprint TEXT, cache_key TEXT, payload TEXT, "
        "PRIMARY KEY (fingerprint, cache_key))"
    )
    RESULT_CACHE_SELECT = (
        "SELECT payload FROM _repro_result_cache "
        "WHERE fingerprint = ? AND cache_key = ?"
    )
    RESULT_CACHE_PURGE = (
        "DELETE FROM _repro_result_cache WHERE schema_key = ? AND fingerprint != ?"
    )
    RESULT_CACHE_UPSERT = (
        "INSERT OR REPLACE INTO _repro_result_cache "
        "(schema_key, fingerprint, cache_key, payload) VALUES (?, ?, ?, ?)"
    )
    RESULT_CACHE_DROP = "DROP TABLE IF EXISTS _repro_result_cache"
