"""Tuple storage: relations (table instances) and tuples.

A :class:`Relation` stores the rows of one table.  A row is a lightweight
:class:`Tuple` that remembers the owning table — the unit the inverted
index, the data graph and join results all refer to.  It holds only its
values; the attribute names live once per table in a shared *layout*
(attribute name -> position, see :func:`column_layout`).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator

from repro.db.errors import IntegrityError, UnknownAttributeError
from repro.db.schema import Table


#: Attribute name -> position in ``Tuple.values``; one per table, shared
#: by all of its rows.
Layout = dict[str, int]


def column_layout(table: Table) -> Layout:
    """The shared name -> position layout of ``table``'s rows."""
    return {name: position for position, name in enumerate(table.attribute_names)}


@dataclass(frozen=True)
class Tuple:
    """One row of one table.

    Identity is ``(table, primary key value)`` — exactly the "information
    nugget" granularity used by the DivQ metrics (Section 4.5).  ``values``
    are in table-attribute order; ``layout`` (shared per table, not part of
    ``==`` or the hash) names them.  Not slotted: the SQLite backends keep
    one object per stored row in a weak identity map, which needs weakrefs.
    """

    table: str
    key: Any
    values: tuple[Any, ...]
    layout: Layout = field(compare=False, repr=False)

    def __getitem__(self, attribute: str) -> Any:
        return self.values[self.layout[attribute]]

    def get(self, attribute: str, default: Any = None) -> Any:
        position = self.layout.get(attribute)
        return default if position is None else self.values[position]

    def items(self) -> tuple[tuple[str, Any], ...]:
        """The ``(attribute, value)`` pairs, in table-attribute order."""
        return tuple(zip(self.layout, self.values))

    def as_dict(self) -> dict[str, Any]:
        return dict(zip(self.layout, self.values))

    @property
    def uid(self) -> tuple[str, Any]:
        """Globally unique tuple id: ``(table name, primary key)``."""
        return (self.table, self.key)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Tuple({self.table}:{self.key})"


class Relation:
    """The stored rows of one table, with a primary-key index and FK indexes."""

    def __init__(self, table: Table):
        self.table = table
        self._rows: dict[Any, Tuple] = {}
        self._layout = column_layout(table)
        # attribute name -> value -> set of primary keys (exact-match index)
        self._value_index: dict[str, dict[Any, set[Any]]] = defaultdict(lambda: defaultdict(set))
        self._indexed_attributes: set[str] = set()

    # -- mutation --------------------------------------------------------

    def insert(self, row: dict[str, Any]) -> Tuple:
        """Insert a row; unknown attributes are rejected, missing ones are None."""
        for name in row:
            if not self.table.has_attribute(name):
                raise UnknownAttributeError(self.table.name, name)
        pk_name = self.table.primary_key
        key = row.get(pk_name)
        if key is None:
            key = len(self._rows)
            while key in self._rows:
                key += 1
        if key in self._rows:
            raise IntegrityError(
                f"duplicate primary key {key!r} in table {self.table.name!r}"
            )
        values = tuple(
            row.get(name) if name != pk_name else key for name in self._layout
        )
        tup = Tuple(self.table.name, key, values, self._layout)
        self._rows[key] = tup
        for attr in self._indexed_attributes:
            self._value_index[attr][tup.get(attr)].add(key)
        return tup

    def create_index(self, attribute: str) -> None:
        """Build (or rebuild) an exact-match index on ``attribute``."""
        if not self.table.has_attribute(attribute):
            raise UnknownAttributeError(self.table.name, attribute)
        index: dict[Any, set[Any]] = defaultdict(set)
        for key, tup in self._rows.items():
            index[tup.get(attribute)].add(key)
        self._value_index[attribute] = index
        self._indexed_attributes.add(attribute)

    # -- access ----------------------------------------------------------

    def get(self, key: Any) -> Tuple | None:
        return self._rows.get(key)

    def lookup(self, attribute: str, value: Any) -> list[Tuple]:
        """All tuples with ``attribute == value``.

        The primary key is answered from the row dict and an indexed
        attribute from its index (matches in primary-key ``repr`` order);
        any other attribute is scanned in insertion order.  Dict lookup
        matches on hash and ``==``, so all three agree with the scan's
        ``==`` (``3`` finds ``3.0``, ``1`` finds ``True``).  A probe never
        writes: an absent value leaves the index as it was.
        """
        if attribute == self.table.primary_key:
            tup = self._rows.get(value)
            return [] if tup is None else [tup]
        if attribute in self._indexed_attributes:
            keys = self._value_index[attribute].get(value, ())
            return [self._rows[k] for k in sorted(keys, key=repr)]
        return [t for t in self._rows.values() if t.get(attribute) == value]

    def scan(self) -> Iterator[Tuple]:
        return iter(self._rows.values())

    def value_rows(self) -> list[tuple[Any, ...]]:
        """Every row's ``values``, in scan order (no ``Tuple`` handed out)."""
        return [tup.values for tup in self._rows.values()]

    def keys(self) -> Iterable[Any]:
        return self._rows.keys()

    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self) -> Iterator[Tuple]:
        return self.scan()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Relation({self.table.name}, {len(self)} rows)"
