"""Structured queries (Def. 3.5.2): relational algebra with selection + join.

A :class:`StructuredQuery` is a query template (join path) decorated with
``contains`` predicates: per template slot, per attribute, the bag of keywords
that must be contained in the attribute value.  It executes against a
any :class:`repro.db.StorageBackend` and renders itself as SQL.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.core.templates import QueryTemplate
from repro.db.sql import render_sql

if TYPE_CHECKING:  # pragma: no cover
    from repro.db.backends.base import StorageBackend
    from repro.db.table import Tuple

#: Per-slot selections: slot -> ((attribute, (terms...)), ...)
SelectionMap = dict[int, tuple[tuple[str, tuple[str, ...]], ...]]


@dataclass(frozen=True, slots=True)
class StructuredQuery:
    """An executable relational-algebra expression.

    Example: ``sigma_{hanks in name}(actor) |x| acts |x|
    sigma_{2001 in year}(movie)``.
    """

    template: QueryTemplate
    selections: SelectionMap = field(default_factory=dict)
    #: Optional aggregation: ``(operator, slot)`` — currently COUNT over the
    #: distinct tuples of one template slot (analytical queries, §2.2.7).
    aggregate: tuple[str, int] | None = None
    #: Memo slot of :meth:`cache_key` (no part of ``==`` or ``repr``).
    _cache_key: str | None = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def size(self) -> int:
        """Number of joins — the size-normalization factor of early rankers."""
        return self.template.size

    @property
    def is_aggregate(self) -> bool:
        return self.aggregate is not None

    def predicate_count(self) -> int:
        return sum(len(attrs) for attrs in self.selections.values())

    def term_count(self) -> int:
        return sum(
            len(terms) for attrs in self.selections.values() for _a, terms in attrs
        )

    # -- execution ---------------------------------------------------------

    def _db_selections(self) -> dict[int, list[tuple[str, tuple[str, ...]]]]:
        return {slot: list(attrs) for slot, attrs in self.selections.items()}

    def execute(
        self, database: "StorageBackend", limit: int | None = None
    ) -> list[tuple["Tuple", ...]]:
        """Run the query; rows are joining networks of tuples (JTTs)."""
        return database.execute_path(*self.path_spec(), limit=limit)

    def path_spec(self):
        """``(path, edges, selections)`` — the ``execute_path`` arguments.

        The unit ``StorageBackend.execute_paths_batched`` accepts, so several
        structured queries can execute as one batched statement.
        """
        return (self.template.path, self.template.edges, self._db_selections())

    def has_results(self, database: "StorageBackend") -> bool:
        return database.has_results(
            self.template.path, self.template.edges, self._db_selections()
        )

    def result_keys(
        self, database: "StorageBackend", limit: int | None = None
    ) -> set[tuple[str, Any]]:
        """Distinct tuple uids across all result rows.

        This is the "primary keys in the result" notion the DivQ metrics use
        as information nuggets / subtopics (Section 4.5).
        """
        keys: set[tuple[str, Any]] = set()
        for row in self.execute(database, limit=limit):
            for tup in row:
                keys.add(tup.uid)
        return keys

    def aggregate_value(self, database: "StorageBackend") -> int:
        """Evaluate the aggregation (COUNT of distinct target-slot tuples)."""
        if self.aggregate is None:
            raise ValueError("query has no aggregation operator")
        operator, slot = self.aggregate
        if operator != "count":
            raise ValueError(f"unsupported aggregation operator {operator!r}")
        distinct = {row[slot].uid for row in self.execute(database)}
        return len(distinct)

    def cache_key(self) -> str:
        """Canonical form identifying this query's result set.

        Two structurally equal queries — same join path, same foreign keys,
        same per-slot selections, same aggregation — produce the same key on
        every process, which is what lets the process-level
        :class:`~repro.engine.cache.ResultCache` reuse execution results.
        Selections are already slot- and attribute-sorted by construction
        (:meth:`Interpretation.to_structured_query`); sorting again here keeps
        the key canonical for hand-built queries too.

        The string is built once per instance: a cache miss asks for it
        twice (``get``, then ``put``), and an interpretation hands out one
        instance for its lifetime, so a repeated request builds it no more.
        """
        key = self._cache_key
        if key is None:
            key = self._build_cache_key()
            object.__setattr__(self, "_cache_key", key)
        return key

    def _build_cache_key(self) -> str:
        return json.dumps(
            {
                "path": list(self.template.path),
                "edges": [
                    (e.source, e.source_attr, e.target, e.target_attr)
                    for e in self.template.edges
                ],
                "selections": [
                    (
                        slot,
                        sorted(
                            (attribute, sorted(terms))
                            for attribute, terms in attrs
                        ),
                    )
                    for slot, attrs in sorted(self.selections.items())
                ],
                "aggregate": list(self.aggregate) if self.aggregate else None,
            },
            sort_keys=True,
        )

    # -- presentation ------------------------------------------------------

    def to_sql(self) -> str:
        sql = render_sql(self.template.path, self.template.edges, self._db_selections())
        if self.aggregate is not None:
            operator, slot = self.aggregate
            alias = f"t{slot}_{self.template.path[slot]}"
            header = f"SELECT {operator.upper()}(DISTINCT {alias}.id)"
            sql = sql.replace("SELECT *", header, 1)
        return sql

    def algebra(self) -> str:
        """Render in the thesis' algebra notation."""
        parts: list[str] = []
        for slot, table in enumerate(self.template.path):
            attrs = self.selections.get(slot, ())
            if attrs:
                predicate = " AND ".join(
                    f"{{{','.join(terms)}}} in {attribute}" for attribute, terms in attrs
                )
                parts.append(f"sigma_{{{predicate}}}({table})")
            else:
                parts.append(f"({table})")
        body = " |x| ".join(parts)
        if self.aggregate is not None:
            operator, slot = self.aggregate
            return f"{operator}_{{{self.template.path[slot]}}}({body})"
        return body

    def __str__(self) -> str:
        return self.algebra()
