"""Relational schemas and the schema graph.

A :class:`Schema` is a set of :class:`Table` definitions connected by
:class:`ForeignKey` constraints.  Following Section 2.2.3 / Figure 2.2 of the
thesis, the schema is exposed as an *undirected schema graph* whose nodes are
tables and whose edges are foreign-key relationships; candidate networks and
query templates are connected subtrees of this graph.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator

from repro.db.errors import DuplicateTableError, UnknownAttributeError, UnknownTableError


@dataclass(frozen=True)
class Attribute:
    """A column of a table.

    ``textual`` marks attributes whose values participate in the inverted
    index (names, titles, plots, ...); numeric/id attributes are still
    searchable by exact match but are not tokenized.
    """

    name: str
    textual: bool = True

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("attribute name must be non-empty")


@dataclass(frozen=True)
class ForeignKey:
    """A foreign-key constraint ``source.source_attr -> target.target_attr``."""

    source: str
    source_attr: str
    target: str
    target_attr: str

    def endpoints(self) -> tuple[str, str]:
        return self.source, self.target


class Table:
    """A table definition: name, attributes and primary key.

    Entity tables (e.g. ``actor``) carry textual attributes; relationship
    tables (e.g. ``acts``) typically carry only foreign keys.
    """

    def __init__(
        self,
        name: str,
        attributes: Iterable[Attribute | str],
        primary_key: str = "id",
    ):
        if not name:
            raise ValueError("table name must be non-empty")
        self.name = name
        self.attributes: dict[str, Attribute] = {}
        for attr in attributes:
            if isinstance(attr, str):
                attr = Attribute(attr)
            if attr.name in self.attributes:
                raise ValueError(f"duplicate attribute {attr.name!r} on table {name!r}")
            self.attributes[attr.name] = attr
        if primary_key not in self.attributes:
            self.attributes[primary_key] = Attribute(primary_key, textual=False)
        self.primary_key = primary_key

    @property
    def attribute_names(self) -> list[str]:
        return list(self.attributes)

    def textual_attributes(self) -> list[Attribute]:
        """Attributes that participate in the inverted index."""
        return [a for a in self.attributes.values() if a.textual]

    def has_attribute(self, name: str) -> bool:
        return name in self.attributes

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Table({self.name!r}, {self.attribute_names})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Table):
            return NotImplemented
        return self.name == other.name

    def __hash__(self) -> int:
        return hash(self.name)


@dataclass
class Schema:
    """A relational schema: tables plus foreign keys.

    The schema graph view (:meth:`graph`) is the structure every schema-based
    keyword-search component of the thesis explores.
    """

    tables: dict[str, Table] = field(default_factory=dict)
    foreign_keys: list[ForeignKey] = field(default_factory=list)

    def add_table(self, table: Table) -> Table:
        if table.name in self.tables:
            raise DuplicateTableError(table.name)
        self.tables[table.name] = table
        self._graph_cache = None
        return table

    def add_foreign_key(self, fk: ForeignKey) -> ForeignKey:
        self._require_attribute(fk.source, fk.source_attr)
        self._require_attribute(fk.target, fk.target_attr)
        self.foreign_keys.append(fk)
        self._graph_cache = None
        return fk

    def link(self, source: str, target: str, source_attr: str | None = None) -> ForeignKey:
        """Convenience: add FK ``source.<target>_id -> target.<pk>``."""
        target_table = self.table(target)
        attr = source_attr or f"{target}_id"
        if not self.table(source).has_attribute(attr):
            self.table(source).attributes[attr] = Attribute(attr, textual=False)
        return self.add_foreign_key(ForeignKey(source, attr, target, target_table.primary_key))

    # -- lookups ---------------------------------------------------------

    def table(self, name: str) -> Table:
        try:
            return self.tables[name]
        except KeyError:
            raise UnknownTableError(name) from None

    def _require_attribute(self, table_name: str, attribute_name: str) -> None:
        table = self.table(table_name)
        if not table.has_attribute(attribute_name):
            raise UnknownAttributeError(table_name, attribute_name)

    @property
    def table_names(self) -> list[str]:
        return list(self.tables)

    def __contains__(self, table_name: str) -> bool:
        return table_name in self.tables

    def __len__(self) -> int:
        return len(self.tables)

    def __iter__(self) -> Iterator[Table]:
        return iter(self.tables.values())

    # -- schema graph ----------------------------------------------------

    _graph_cache: dict[str, dict[str, list[ForeignKey]]] | None = field(
        default=None, repr=False, compare=False
    )

    def graph(self) -> dict[str, dict[str, list[ForeignKey]]]:
        """The undirected schema graph (Fig. 2.2) as an adjacency dict.

        ``graph()[table][neighbour]`` lists the foreign keys joining the two
        tables, in either direction, in ``foreign_keys`` order; every table is
        a key, isolated ones with no neighbours.  Two tables may be joined by
        several foreign keys (e.g. ``movie.director_id`` and
        ``movie.producer_id`` both pointing at ``person``), and a
        self-referencing foreign key is listed once under its own table.
        """
        if self._graph_cache is None:
            g: dict[str, dict[str, list[ForeignKey]]] = {name: {} for name in self.tables}
            for fk in self.foreign_keys:
                g[fk.source].setdefault(fk.target, []).append(fk)
                if fk.target != fk.source:
                    g[fk.target].setdefault(fk.source, []).append(fk)
            self._graph_cache = g
        return self._graph_cache

    def adjacent_tables(self, table_name: str) -> list[str]:
        """Tables connected to ``table_name`` by at least one foreign key."""
        self.table(table_name)
        return sorted(self.graph()[table_name])

    def join_edges(self, left: str, right: str) -> list[ForeignKey]:
        """All foreign keys connecting two tables (in either direction)."""
        return list(self.graph().get(left, {}).get(right, ()))

    def join_paths(self, max_length: int) -> list[tuple[str, ...]]:
        """Enumerate simple paths of tables with at most ``max_length`` joins.

        Returns node sequences (each of length ``joins + 1``), deduplicated up
        to reversal, sorted for determinism.  This is the raw material for
        automatic query-template generation (Section 3.5.2).
        """
        if max_length < 0:
            raise ValueError("max_length must be >= 0")
        g = self.graph()
        seen: set[tuple[str, ...]] = set()
        paths: list[tuple[str, ...]] = []
        for start in sorted(g):
            stack: list[tuple[str, ...]] = [(start,)]
            while stack:
                path = stack.pop()
                canonical = min(path, path[::-1])
                if canonical not in seen:
                    seen.add(canonical)
                    paths.append(canonical)
                if len(path) - 1 >= max_length:
                    continue
                for neighbor in g[path[-1]]:
                    if neighbor not in path:
                        stack.append(path + (neighbor,))
        paths.sort(key=lambda p: (len(p), p))
        return paths

    def validate(self) -> None:
        """Check all foreign keys reference existing tables/attributes."""
        for fk in self.foreign_keys:
            self._require_attribute(fk.source, fk.source_attr)
            self._require_attribute(fk.target, fk.target_attr)
