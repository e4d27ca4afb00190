"""Keyword and query interpretations (Defs. 3.5.3–3.5.5, 3.5.7).

A *keyword interpretation* maps one keyword occurrence to an element of a
structured query.  We support the two kinds the thesis' systems use:

* :class:`ValueAtom` — the keyword is a value contained in an attribute
  (``sigma_{hanks in name}(actor) : hanks``),
* :class:`TableAtom` — the keyword names a table (metadata match,
  ``Actor : actor``).

A *query interpretation* (:class:`Interpretation`) composes a query template
with keyword interpretations.  It is *complete* when every keyword of the
query is bound, otherwise *partial*.  Sub-query subsumption (Def. 3.5.7) —
the relation driving incremental query construction — reduces to atom-set
containment: a partial interpretation subsumes every interpretation whose
atoms are a superset of its own.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Mapping

from repro.core.keywords import Keyword, KeywordQuery
from repro.core.query import StructuredQuery
from repro.core.templates import QueryTemplate

if TYPE_CHECKING:  # pragma: no cover
    from repro.db.backends.base import StorageBackend


@dataclass(frozen=True, order=True, slots=True)
class ValueAtom:
    """Keyword ``keyword`` interpreted as a value of ``table.attribute``."""

    keyword: Keyword
    table: str
    attribute: str

    @property
    def kind(self) -> str:
        return "value"

    def describe(self) -> str:
        return f"{self.keyword.term!r} is a {self.table}.{self.attribute}"


@dataclass(frozen=True, order=True, slots=True)
class TableAtom:
    """Keyword ``keyword`` interpreted as the name of ``table``."""

    keyword: Keyword
    table: str

    @property
    def kind(self) -> str:
        return "table"

    def describe(self) -> str:
        return f"{self.keyword.term!r} refers to the table {self.table}"


@dataclass(frozen=True, order=True, slots=True)
class OperatorAtom:
    """Keyword interpreted as an aggregation operator over ``table``.

    Covers the analytical-query class of Section 2.2.7 (SQAK-style): the K4
    example "number of movies with tom hanks" interprets "number" as COUNT
    applied to the movie slot of the query.
    """

    keyword: Keyword
    operator: str  # currently "count"
    table: str

    @property
    def kind(self) -> str:
        return "operator"

    def describe(self) -> str:
        return f"{self.keyword.term!r} is the {self.operator.upper()} of {self.table}"


Atom = ValueAtom | TableAtom | OperatorAtom


def atom_sort_key(atom: Atom) -> tuple:
    """Canonical ordering across atom kinds (value/table/operator atoms mix)."""
    if isinstance(atom, ValueAtom):
        return (atom.keyword, 0, atom.table, atom.attribute)
    if isinstance(atom, TableAtom):
        return (atom.keyword, 1, atom.table, "")
    return (atom.keyword, 2, atom.table, atom.operator)


def atoms_subsume(sub: frozenset[Atom], sup: frozenset[Atom]) -> bool:
    """Sub-query test on atom sets: ``sub`` subsumes ``sup`` iff ``sub <= sup``."""
    return sub <= sup


@dataclass(frozen=True, slots=True)
class Interpretation:
    """A (partial or complete) query interpretation (Def. 3.5.4).

    ``assignment`` maps each bound keyword to the template slot hosting its
    atom.  The two validity conditions of Def. 3.5.4 are enforced by
    :meth:`validate`: every keyword has at most one interpretation (guaranteed
    by the mapping), and the minimality condition — the template's endpoint
    slots must host at least one keyword interpretation, otherwise a shorter
    template would interpret the same keywords.
    """

    query: KeywordQuery
    template: QueryTemplate
    assignment: tuple[tuple[Atom, int], ...]  # (atom, template slot), sorted
    #: Memo slot of :attr:`atoms` (construction sessions read it in loops).
    _atoms: frozenset[Atom] | None = field(
        default=None, init=False, repr=False, compare=False
    )
    #: Memo slot of :meth:`to_structured_query`.  Memo'd interpretations are
    #: shared across requests, so the query (and the cache key it memoises)
    #: is built once per interpretation; both depend on template and
    #: assignment only, never on store content.
    _structured: StructuredQuery | None = field(
        default=None, init=False, repr=False, compare=False
    )

    @classmethod
    def build(
        cls,
        query: KeywordQuery,
        template: QueryTemplate,
        assignment: Mapping[Atom, int] | Iterable[tuple[Atom, int]],
    ) -> "Interpretation":
        items = assignment.items() if isinstance(assignment, Mapping) else assignment
        ordered = tuple(sorted(items, key=lambda pair: (atom_sort_key(pair[0]), pair[1])))
        return cls(query=query, template=template, assignment=ordered)

    # -- structure -------------------------------------------------------

    @property
    def atoms(self) -> frozenset[Atom]:
        atoms = self._atoms
        if atoms is None:
            atoms = frozenset(atom for atom, _slot in self.assignment)
            object.__setattr__(self, "_atoms", atoms)
        return atoms

    @property
    def bound_keywords(self) -> frozenset[Keyword]:
        return frozenset(atom.keyword for atom, _slot in self.assignment)

    @property
    def is_complete(self) -> bool:
        """Complete interpretation: every keyword of the query is bound."""
        return self.bound_keywords == frozenset(self.query.keywords)

    @property
    def unbound_keywords(self) -> tuple[Keyword, ...]:
        bound = self.bound_keywords
        return tuple(k for k in self.query.keywords if k not in bound)

    def subsumes(self, other: "Interpretation") -> bool:
        """Sub-query relation (Def. 3.5.7): self is a sub-structure of other."""
        return atoms_subsume(self.atoms, other.atoms)

    def validate(self) -> None:
        """Enforce Def. 3.5.4 (unique binding per keyword, minimality)."""
        keywords = [atom.keyword for atom, _slot in self.assignment]
        if len(keywords) != len(set(keywords)):
            raise ValueError("a keyword may be bound to at most one element")
        operators = [a for a in self.atoms if isinstance(a, OperatorAtom)]
        if len(operators) > 1:
            raise ValueError("at most one aggregation operator per query")
        for atom, slot in self.assignment:
            if not 0 <= slot < len(self.template.path):
                raise ValueError(f"slot {slot} outside template {self.template}")
            table = self.template.path[slot]
            if atom.table != table:
                raise ValueError(
                    f"atom {atom} bound to slot {slot} ({table}), tables differ"
                )
        occupied = {slot for _atom, slot in self.assignment}
        for leaf in self.template.leaf_positions():
            if leaf not in occupied:
                raise ValueError(
                    "minimality violated: template endpoint "
                    f"{self.template.path[leaf]!r} hosts no keyword interpretation"
                )

    # -- execution bridge --------------------------------------------------

    def to_structured_query(self) -> StructuredQuery:
        """Materialize the relational-algebra expression (Def. 3.5.2)."""
        query = self._structured
        if query is None:
            query = self._build_structured_query()
            object.__setattr__(self, "_structured", query)
        return query

    def _build_structured_query(self) -> StructuredQuery:
        selections: dict[int, dict[str, list[str]]] = {}
        aggregate: tuple[str, int] | None = None
        for atom, slot in self.assignment:
            if isinstance(atom, ValueAtom):
                selections.setdefault(slot, {}).setdefault(atom.attribute, []).append(
                    atom.keyword.term
                )
            elif isinstance(atom, OperatorAtom):
                aggregate = (atom.operator, slot)
        frozen = {
            slot: tuple(
                (attribute, tuple(terms)) for attribute, terms in sorted(attrs.items())
            )
            for slot, attrs in selections.items()
        }
        return StructuredQuery(
            template=self.template, selections=frozen, aggregate=aggregate
        )

    def execute(self, database: "StorageBackend", limit: int | None = None):
        return self.to_structured_query().execute(database, limit=limit)

    def result_keys(self, database: "StorageBackend", limit: int | None = None) -> set:
        """Primary keys of result tuples — DivQ's information nuggets."""
        return self.to_structured_query().result_keys(database, limit=limit)

    # -- presentation ------------------------------------------------------

    def describe(self) -> str:
        """Render the interpretation the way the IQP UI would word it."""
        clauses = [atom.describe() for atom, _slot in self.assignment]
        scope = "complete" if self.is_complete else "partial"
        return f"[{scope}] {str(self.template)}: " + "; ".join(clauses)

    def __str__(self) -> str:  # pragma: no cover - display helper
        return self.describe()
