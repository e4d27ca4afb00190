"""The in-memory storage engine (the reference backend).

Dict-backed relations with exact-match indexes, nested-loop join execution in
Python.  This is the engine the reproduction originally shipped as
``repro.db.Database``; it remains the default backend and the semantic
reference every other backend is tested against.
"""

from __future__ import annotations

from typing import Iterator

from repro.db.backends.base import StorageBackend, StreamedExecution
from repro.db.backends.sql import PathPlan, edge_attrs
from repro.db.errors import UnknownTableError
from repro.db.schema import Schema, Table
from repro.db.table import Relation, Tuple
from repro.db.tokenizer import DEFAULT_TOKENIZER, Tokenizer


class MemoryBackend(StorageBackend):
    """An in-memory relational database instance."""

    name = "memory"
    persistent = False

    def __init__(self, schema: Schema, tokenizer: Tokenizer = DEFAULT_TOKENIZER):
        super().__init__(schema, tokenizer)
        self._relations: dict[str, Relation] = {}
        for table in schema:
            self._create_storage(table)

    # -- data loading -----------------------------------------------------

    def relation(self, table_name: str) -> Relation:
        try:
            return self._relations[table_name]
        except KeyError:
            raise UnknownTableError(table_name) from None

    def _create_storage(self, table: Table) -> Relation:
        relation = Relation(table)
        self._relations[table.name] = relation
        return relation

    # -- join-path execution ---------------------------------------------------

    def _stream_plan(
        self, plan: PathPlan, execution: StreamedExecution
    ) -> Iterator[tuple[Tuple, ...]]:
        """Nested-loop execution of one plan (see the base-class contract).

        The seed slot's rows come in its key set's ``repr`` order (an inline
        set is already in it), else in insertion order; each further slot is
        one :meth:`_extend` kept to its key set.  The join runs whole at the
        first pull, so rows an early close cuts off count as short-circuited.
        """
        execution.statements += 1
        inline = dict(plan.inline_filters)
        key_sets = dict(plan.post_filters)
        seed = inline.pop(0, None) or sorted(key_sets.pop(0, ()), key=repr) or None
        key_sets.update((slot, frozenset(keys)) for slot, keys in inline.items())
        relation = self.relation(plan.path[0])
        rows = relation if seed is None else filter(None, map(relation.get, seed))
        partials = [(t,) for t in rows]
        for slot in range(1, len(plan.path)):
            if not partials:
                break
            partials = self._extend(partials, plan, slot, key_sets.get(slot))
        partials = partials[: plan.limit]
        delivered = 0
        try:
            for network in partials:
                delivered += 1  # before the yield: a close lands there
                yield network
        finally:
            execution.rows_short_circuited += len(partials) - delivered

    def _extend(
        self,
        partials: list[tuple[Tuple, ...]],
        plan: PathPlan,
        slot: int,
        keys: frozenset | None,
    ) -> list[tuple[Tuple, ...]]:
        """Join each partial result (there is at least one) with the
        matching tuples of ``plan.path[slot]``, kept to ``keys`` when given,
        in :meth:`Relation.lookup` order."""
        edge = plan.edges[slot - 1]
        bound_attr, probe_attr = edge_attrs(edge, *plan.path[slot - 1 : slot + 1])
        relation = self.relation(plan.path[slot])
        # Every partial ends in a row of one table: one shared layout.
        column = partials[0][-1].layout.get(bound_attr)
        if column is None:
            return []
        results: list[tuple[Tuple, ...]] = []
        if probe_attr == relation.table.primary_key:
            get = relation.get  # at most one match: skip lookup's list
            for partial in partials:
                match = get(partial[-1].values[column])
                if match is not None and (keys is None or match.key in keys):
                    results.append(partial + (match,))
            return results
        lookup = relation.lookup
        for partial in partials:
            bound_value = partial[-1].values[column]
            if bound_value is None:
                continue
            for match in lookup(probe_attr, bound_value):
                if keys is None or match.key in keys:
                    results.append(partial + (match,))
        return results
