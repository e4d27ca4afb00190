"""Planner statistics: the catalog of per-relation row counts.

A :class:`StatisticsCatalog` holds per-relation row counts and
per-attribute distinct-value counts, collected at index-build time from the
scan the inverted index reads, incrementally maintained on insert, and
persisted by the SQLite backends in ``_repro_stats_*`` side tables keyed by
the content fingerprint (``repro stats`` prints it).  The planner reads one
number from it: the sharded backend seeds an unfiltered slot's semi-join
chain by its row count.  No join order and no row estimate is derived from
it — single-file plans compile in path order and SQLite's planner orders
the joins.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Iterable, Sequence

if TYPE_CHECKING:  # pragma: no cover
    from repro.db.backends.base import StorageBackend
    from repro.db.schema import Schema


def tracked_attributes(schema: "Schema", table_name: str) -> tuple[str, ...]:
    """The attributes of one table the catalog keeps statistics for.

    Primary keys (selection filters resolve to them) plus every attribute
    participating in a foreign key in either direction.  Sorted for
    deterministic collection and persistence.
    """
    table = schema.table(table_name)
    attrs = {table.primary_key}
    for fk in schema.foreign_keys:
        if fk.source == table_name:
            attrs.add(fk.source_attr)
        if fk.target == table_name:
            attrs.add(fk.target_attr)
    return tuple(sorted(attrs))


@dataclass
class AttributeStatistics:
    """Distinct-value count and heaviest-value frequency of one attribute."""

    distinct: int = 0
    max_frequency: int = 0


@dataclass
class TableStatistics:
    """Row count plus per-attribute statistics of one relation."""

    rows: int = 0
    attributes: dict[str, AttributeStatistics] = field(default_factory=dict)


class StatisticsCatalog:
    """Per-relation statistics over one backend's stored rows.

    Values are counted by ``repr()`` — the same total-order key the whole
    execution layer sorts by — so sharded and unsharded stores collect
    identical catalogs (the sharded backend scans the all-shards union
    through the same relation contract).
    """

    def __init__(self, schema: "Schema"):
        self.schema = schema
        self.tables: dict[str, TableStatistics] = {}

    # -- collection ----------------------------------------------------------

    @classmethod
    def collect(cls, backend: "StorageBackend") -> "StatisticsCatalog":
        """One ``value_rows()`` scan per relation."""
        catalog = cls(backend.schema)
        for table_name in backend.schema.table_names:
            catalog.collect_table(
                table_name, backend.relation(table_name).value_rows()
            )
        return catalog

    def collect_table(self, table_name: str, rows: Sequence[tuple[Any, ...]]) -> None:
        """(Re)count one table from its stored rows, given as value tuples
        in table-attribute order, all tracked attributes together."""
        names = self.schema.table(table_name).attribute_names
        stats = TableStatistics(rows=len(rows))
        for attr in tracked_attributes(self.schema, table_name):
            position = names.index(attr)
            seen: dict[str, int] = {}
            for row in rows:
                value = repr(row[position])
                seen[value] = seen.get(value, 0) + 1
            stats.attributes[attr] = AttributeStatistics(
                distinct=len(seen),
                max_frequency=max(seen.values(), default=0),
            )
        self.tables[table_name] = stats

    def observe_insert(self, backend: "StorageBackend", table_name: str, tup: Any) -> None:
        """Incrementally fold one just-inserted tuple into the catalog.

        Distinct counts stay exact via a point lookup per tracked attribute:
        the freshly stored row is its value's only match iff the value is
        new.  Primary keys are always new (duplicate keys are rejected at
        insert), so they skip the lookup.
        """
        stats = self.tables.setdefault(table_name, TableStatistics())
        stats.rows += 1
        relation = backend.relation(table_name)
        primary_key = self.schema.table(table_name).primary_key
        for attr in tracked_attributes(self.schema, table_name):
            attr_stats = stats.attributes.setdefault(attr, AttributeStatistics())
            if attr == primary_key:
                attr_stats.distinct += 1
                attr_stats.max_frequency = max(attr_stats.max_frequency, 1)
                continue
            matches = len(relation.lookup(attr, tup.get(attr)))
            if matches <= 1:
                attr_stats.distinct += 1
            attr_stats.max_frequency = max(attr_stats.max_frequency, matches)

    # -- access --------------------------------------------------------------

    def rows(self, table_name: str) -> int | None:
        stats = self.tables.get(table_name)
        return None if stats is None else stats.rows

    def distinct(self, table_name: str, attribute: str) -> int | None:
        stats = self.tables.get(table_name)
        if stats is None:
            return None
        attr_stats = stats.attributes.get(attribute)
        return None if attr_stats is None else attr_stats.distinct

    def iter_rows(self) -> Iterable[tuple[str, int]]:
        """``(table, rows)`` in schema order (persistence + ``repro stats``)."""
        for name in self.schema.table_names:
            if name in self.tables:
                yield name, self.tables[name].rows

    def iter_attributes(self) -> Iterable[tuple[str, str, int, int]]:
        """``(table, attr, distinct, max_frequency)`` in deterministic order."""
        for name in self.schema.table_names:
            stats = self.tables.get(name)
            if stats is None:
                continue
            for attr in sorted(stats.attributes):
                attr_stats = stats.attributes[attr]
                yield name, attr, attr_stats.distinct, attr_stats.max_frequency

    # -- persistence ---------------------------------------------------------

    def export_state(self) -> dict:
        """A JSON-able snapshot (tests compare catalogs through this)."""
        return {
            "tables": {
                name: {
                    "rows": stats.rows,
                    "attributes": {
                        attr: [a.distinct, a.max_frequency]
                        for attr, a in sorted(stats.attributes.items())
                    },
                }
                for name, stats in sorted(self.tables.items())
            }
        }

    @classmethod
    def restore(cls, schema: "Schema", state: dict) -> "StatisticsCatalog":
        catalog = cls(schema)
        for name, table_state in state.get("tables", {}).items():
            stats = TableStatistics(rows=int(table_state["rows"]))
            for attr, (distinct, max_frequency) in table_state.get(
                "attributes", {}
            ).items():
                stats.attributes[attr] = AttributeStatistics(
                    distinct=int(distinct), max_frequency=int(max_frequency)
                )
            catalog.tables[name] = stats
        return catalog
